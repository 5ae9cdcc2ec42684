"""Lattice operations and the matrix action that the package's routes no
longer run, kept for the tests and the reference constructions.

`intersect` (the meet by one Zassenhaus elimination), `complement`,
`adapted_pair_basis`, `transport_pair`, `apply_mat`, `mat_mul` and
`full_space` moved here from glgeom.subspace and glgeom.gfq once no verb
reached them; a matrix is a tuple of row tuples, as in the package.  The
former methods `Subspace.contains`, `Subspace.contains_vector`,
`Subspace.vectors` and `Bisection.apply` are the functions `contains`,
`contains_vector`, `vectors` and `apply_bisection`; `random_gl` draws the
group elements that the randomised tests move them by.
`sorted_grassmannian`, the list of Subspace objects that the package's
coded index (grassmannian_index) replaced, is the reference that index
is checked against.  Nothing in the package calls this file.
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
