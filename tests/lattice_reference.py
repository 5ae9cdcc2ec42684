"""Lattice operations and the matrix action that the package's routes no
longer run, kept for the tests and the reference constructions.

`intersect` (the meet by one Zassenhaus elimination), `complement`,
`adapted_pair_basis`, `transport_pair`, `apply_mat`, `mat_mul`,
`full_space` and `add_vecs` moved here from glgeom.subspace and
glgeom.gfq once no verb reached them; a matrix is a tuple of row
tuples, as in the package.  The former methods `Subspace.contains`,
`Subspace.contains_vector`, `Subspace.vectors` and `Bisection.apply` are
the functions `contains`, `contains_vector`, `vectors` and
`apply_bisection`; `random_gl` draws the group elements that the
randomised tests move them by.
`sorted_grassmannian`, the list of Subspace objects that the package's
coded index (grassmannian_index) replaced, is the reference that index
is checked against.  `_span_masks` and its `_digit_tables` are the
projective-point kernel as it was before the package's span loop added
by XOR at p = 2, kept verbatim (add and scale tables on half codes at
every q) as the reference the new kernel is checked against.  Nothing in
the package calls this file.
"""

from itertools import product

from glgeom.gfq import echelon_insert, mat_inverse, vec_mat, _rref_rows
from glgeom.subspace import (Bisection, Subspace, _check_ambient, _echelon,
                             coordinate_subspace, grassmannian, span_rows)


def sorted_grassmannian(n, field, m):
    """The m-subspaces of V(n,q) as a list in sort_key order: the index
    that bisections are coded against (a bisection is a disjoint pair)."""
    return sorted(grassmannian(n, field, m), key=Subspace.sort_key)


def full_space(field, n):
    """V(n,q) itself, spanned by its unit rows."""
    return coordinate_subspace(field, n, range(n))


def mat_mul(field, a, b):
    """The product of two matrices of rows."""
    if any(len(r) != len(b) for r in a):
        raise ValueError("inner dimensions differ")
    return tuple(vec_mat(field, r, b) for r in a)


def add_vecs(field, u, v):
    return tuple(field.add(x, y) for x, y in zip(u, v))


def contains_vector(u, v):
    return not echelon_insert(u.field, _echelon(u), v)


def contains(u, w):
    """W <= U exactly when every row of W reduces to zero against U."""
    _check_ambient(u, w)
    echelon, field = _echelon(u), u.field
    return not any(echelon_insert(field, echelon, r) for r in w.basis)


def vectors(u):
    """All vectors of the subspace (q^dim of them)."""
    f, rows = u.field, u.basis
    if not rows:
        yield (0,) * u.n
        return
    for coeffs in product(range(f.q), repeat=len(rows)):
        v = [0] * u.n
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = f.add(v[j], f.mul(c, x))
        yield tuple(v)


def intersect(u, w):
    """U meet W by one elimination (Zassenhaus): the rref of the rows
    [u | u] for u in U and [w | 0] for w in W, over 2n columns.

    The row space is {(u + w, u)}, whose vectors with zero left half have
    right half u = -w in U meet W, and every vector of U meet W occurs.  In
    the rref those vectors are spanned by the rows with a pivot in the
    right half, whose right halves are therefore the rref of the meet.
    """
    _check_ambient(u, w)
    if u is w or u == w:
        return u
    field, n = u.field, u.n
    zero = (0,) * n
    rows = [r + r for r in u.basis] + [r + zero for r in w.basis]
    red, pivots = _rref_rows(field, rows, 2 * n)
    return Subspace(field, n, tuple(tuple(r[n:])
                                    for r, p in zip(red, pivots) if p >= n))


def complement(u, inside):
    """Deterministic W with U (+) W = inside: the rows of inside's canonical
    basis, in order, that are independent of U and of the rows taken before
    them, each tested by reduction against an echelon of those rows."""
    _check_ambient(u, inside)
    if not contains(inside, u):
        raise ValueError("first argument not contained in second")
    field, n = u.field, u.n
    echelon = _echelon(u)
    picked = []
    for cand in inside.basis:
        if len(echelon) == inside.dim:
            break
        if echelon_insert(field, echelon, cand):
            picked.append(cand)
    # rows taken from a canonical basis are the canonical basis of their span
    return Subspace(field, n, tuple(picked))


def adapted_pair_basis(u1, u2):
    """Full-space basis adapted to a pair: [U1-part, T, U2-part, rest]."""
    field, n = u1.field, u1.n
    t = intersect(u1, u2)
    rows = list(complement(t, u1).basis + t.basis + complement(t, u2).basis)
    echelon = []
    for r in rows:
        echelon_insert(field, echelon, r)
    for c in range(n):
        if len(echelon) == n:
            break
        cand = tuple(1 if j == c else 0 for j in range(n))
        if echelon_insert(field, echelon, cand):
            rows.append(cand)
    return tuple(rows)


def transport_pair(u1, u2, t1, t2):
    """A GL element g (a matrix of rows, acting by v -> v.g) with U1 g = T1,
    U2 g = T2.

    Requires matching dimensions and intersection dimension.
    """
    field = u1.field
    a = adapted_pair_basis(u1, u2)
    b = adapted_pair_basis(t1, t2)
    return mat_mul(field, mat_inverse(field, a), b)


def apply_mat(u, g):
    """Image subspace U.g under the row action."""
    if len(g) != u.n:
        raise ValueError("inner dimensions differ")
    return span_rows(u.field, u.n, [vec_mat(u.field, r, g) for r in u.basis])


def apply_bisection(b, g):
    return Bisection(apply_mat(b.half1, g), apply_mat(b.half2, g))


def random_gl(rng, field, n):
    """A uniformly random element of GL(n,q) drawn from a random.Random:
    random matrices of rows until one has rank n."""
    while True:
        g = tuple(tuple(rng.randrange(field.q) for _ in range(n))
                  for _ in range(n))
        if span_rows(field, n, g).dim == n:
            return g


def _digit_tables(field, width):
    """Add and scale tables on base-q codes of `width` coordinates:
    add[a][b] is the code of a + b, scale[c][a] that of c.a."""
    digits = list(product(range(field.q), repeat=width))  # in code order
    code = {x: a for a, x in enumerate(digits)}
    add = [[code[tuple(map(field.add, x, y))] for y in digits] for x in digits]
    scale = [[code[tuple(field.mul(c, v) for v in x)] for x in digits]
             for c in range(field.q)]
    return add, scale


def _span_masks(field, n, cells):
    """The basis codes and point masks, as two lists, of the subspaces in
    the cells: per row, top first, (pivot column, the codes the canonical
    row takes), one subspace per choice of a code for each row.  Point p
    is the vector with leading 1 in column n-1-e and base-q code c: p =
    (q^e - 1)/(q - 1) + c - q^e.  The vectors r_i + sum_{j>i} c_j r_j are
    coded per half of the coordinates through add and scale tables, with
    the rows fixed from the last one up: the span of the rows below row i
    is expanded once for all choices of the rows above it."""
    q = field.q
    w = (n + 1) // 2  # the low half; the high half is never wider
    low, big = q ** w, q ** n
    add, scale = _digit_tables(field, w)
    # per column of the leading 1, point index minus code
    offsets = [(q ** e - 1) // (q - 1) - q ** e for e in range(n - 1, -1, -1)]
    codes, masks = [], []

    def fix(rows, i, span, mask, code, weight):  # rows below i are fixed
        p, row_codes = rows[i]
        off = offsets[p]
        for r in row_codes:
            hi, lo = divmod(r, low)
            add_hi, add_lo, full = add[hi], add[lo], mask
            for x, y in span:
                full |= 1 << (add_hi[x] * low + add_lo[y] + off)
            if i:
                fix(rows, i - 1, span + [
                    (add[scale[c][hi]][x], add[scale[c][lo]][y])
                    for c in range(1, q) for x, y in span],
                    full, code + r * weight, weight * big)
            else:
                codes.append(code + r * weight)
                masks.append(full)
    for rows in cells:
        if rows:
            fix(rows, len(rows) - 1, [(0, 0)], 0, 0, 1)
        else:  # the zero subspace
            codes.append(0)
            masks.append(0)
    return codes, masks
