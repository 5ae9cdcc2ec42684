"""Canonical subspaces of V(n,q) and the lattice operations on them.

A Subspace is identified with the reduced row echelon form of any spanning
set, so equality is matrix equality and subspaces hash and sort.  The
enumeration order of the Grassmannian is fixed: pivot-column sets in
lexicographic order, then free entries in row-major lexicographic order.
"""

from __future__ import annotations

from itertools import combinations, product

from .gfq import (Mat, echelon_insert, mat_inverse, mat_mul, pack_rows,
                  pk_rank, pk_rref, rank_of_rows, rref_trim, kernel, vec_mat,
                  _rref_rows, DimensionMismatchError)


class AmbientMismatchError(ValueError):
    pass


class NotInAmbientError(ValueError):
    pass


class NotContainedError(ValueError):
    pass


class Subspace:
    """A subspace of V(n, q), stored as its canonical rref basis."""

    __slots__ = ("field", "n", "basis", "packed", "_hash")

    def __init__(self, field, n, basis, _canonical=False):
        if basis.rows and basis.cols != n:
            raise DimensionMismatchError("basis column count != ambient dim")
        if not _canonical:
            basis, _ = rref_trim(basis)
        if basis.rows == 0 and basis.cols != n:
            basis = Mat(field, [], cols=n)
        self.field = field
        self.n = n
        self.basis = basis
        self.packed = pack_rows(basis.entries) if field.q == 2 else None
        self._hash = hash((field.q, n, basis.entries))

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.n == other.n and self.basis.entries == other.basis.entries)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subspace(dim {self.dim} of V({self.n},{self.field.q}))"

    def sort_key(self):
        return (self.dim, self.basis.entries)

    def rows(self):
        return self.basis.entries

    def contains_vector(self, v):
        rows = list(self.basis.entries) + [tuple(v)]
        return rank_of_rows(self.field, rows, self.n) == self.dim

    def contains(self, other):
        _check_ambient(self, other)
        rows = list(self.basis.entries) + list(other.basis.entries)
        return rank_of_rows(self.field, rows, self.n) == self.dim

    def vectors(self):
        """All vectors of the subspace (q^dim of them)."""
        f, rows = self.field, self.basis.entries
        if not rows:
            yield (0,) * self.n
            return
        for coeffs in product(f.elements(), repeat=len(rows)):
            v = [0] * self.n
            for c, row in zip(coeffs, rows):
                if c:
                    for j, x in enumerate(row):
                        if x:
                            v[j] = f.add(v[j], f.mul(c, x))
            yield tuple(v)

    def to_text(self):
        from .gfq import mat_to_text
        return mat_to_text(self.basis)


def _check_ambient(u, w):
    if u.field != w.field or u.n != w.n:
        raise AmbientMismatchError("subspaces live in different ambient spaces")


def span(n, field, generators):
    """Canonical subspace spanned by the given rows (Mat or row list)."""
    if isinstance(generators, Mat):
        m = generators
    else:
        m = Mat(field, generators) if generators else Mat(field, [])
    if generators and m.cols != n:
        raise DimensionMismatchError("generator length != ambient dim")
    if not generators:
        m = Mat(field, [[0] * n])
    return Subspace(field, n, m)


def span_rows(field, n, rows):
    """span() for a plain list of row tuples, empty allowed."""
    if not rows:
        return zero_subspace(field, n)
    return Subspace(field, n, Mat(field, rows))


def zero_subspace(field, n):
    return Subspace(field, n, Mat(field, [], cols=n), _canonical=True)


def full_space(field, n):
    return coordinate_subspace(field, n, range(n))


def coordinate_subspace(field, n, cols):
    """Span of the unit vectors e_c for c in cols (0-based, repeats count
    once).  The unit rows in increasing column order are already the
    canonical basis, so no elimination is run."""
    rows = []
    for c in sorted(set(cols)):
        if not 0 <= c < n:
            raise DimensionMismatchError(f"column {c} outside V({n},q)")
        v = [0] * n
        v[c] = 1
        rows.append(v)
    return Subspace(field, n, Mat(field, rows, cols=n, _trusted=True),
                    _canonical=True)


def canonical_pair(field, n, m, t):
    """U1 = <e_1..e_m>, U2 = <e_{m-t+1}..e_{2m-t}>; requires 2m-t <= n."""
    if not (0 <= t <= m and 2 * m - t <= n):
        raise ValueError("no pair with this overlap exists")
    return (coordinate_subspace(field, n, range(m)),
            coordinate_subspace(field, n, range(m - t, 2 * m - t)))


def canonical_pieces(field, n, m, t):
    """T = U1 meet U2, C1, C2 (the complements of T in U1, U2 that
    complement picks) and C (that of U1 + U2 in V) for the canonical pair,
    read off column ranges: <e_{m-t+1}..e_m>, <e_1..e_{m-t}>,
    <e_{m+1}..e_{2m-t}> and <e_{2m-t+1}..e_n>, with no elimination."""
    if not (0 <= t <= m and 2 * m - t <= n):
        raise ValueError("no pair with this overlap exists")
    return (coordinate_subspace(field, n, range(m - t, m)),
            coordinate_subspace(field, n, range(m - t)),
            coordinate_subspace(field, n, range(m, 2 * m - t)),
            coordinate_subspace(field, n, range(2 * m - t, n)))


def intersection_dim(u, w):
    """dim(U meet W) via the rank of the stacked bases."""
    _check_ambient(u, w)
    if u.field.q == 2:
        r = pk_rank(u.packed + w.packed, u.n)
    else:
        r = rank_of_rows(u.field, list(u.basis.entries) + list(w.basis.entries), u.n)
    return u.dim + w.dim - r


def sum_subspace(u, w):
    _check_ambient(u, w)
    rows = list(u.basis.entries) + list(w.basis.entries)
    return span_rows(u.field, u.n, rows)


def perp(u):
    """Orthogonal complement under the standard dot product."""
    if u.dim == 0:
        return full_space(u.field, u.n)
    return Subspace(u.field, u.n, kernel(u.basis), _canonical=True)


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
    rows = ([r + r for r in u.basis.entries]
            + [r + zero for r in w.basis.entries])
    red, pivots = _rref_rows(field, rows, 2 * n)
    meet = [r[n:] for r, p in zip(red, pivots) if p >= n]
    return Subspace(field, n, Mat(field, meet, cols=n, _trusted=True),
                    _canonical=True)


def is_diagonal(u, y1, y2):
    """True iff U <= Y1 + Y2 and U meets both Y1 and Y2 trivially."""
    amb = sum_subspace(y1, y2)
    if not amb.contains(u):
        raise NotInAmbientError("subspace not inside Y1 + Y2")
    return intersection_dim(u, y1) == 0 and intersection_dim(u, y2) == 0


def _echelon(u):
    """U's canonical rows as an echelon for gfq.echelon_insert."""
    return [(next(j for j, x in enumerate(r) if x), r)
            for r in u.basis.entries]


def complement(u, inside):
    """Deterministic W with U (+) W = inside: the rows of inside's canonical
    basis, in order, that are independent of U and of the rows taken before
    them, each tested by reduction against an echelon of those rows."""
    _check_ambient(u, inside)
    if not inside.contains(u):
        raise NotContainedError("first argument not contained in second")
    field, n = u.field, u.n
    echelon = _echelon(u)
    picked = []
    for cand in inside.basis.entries:
        if len(echelon) == inside.dim:
            break
        if echelon_insert(field, echelon, cand):
            picked.append(cand)
    # rows taken from a canonical basis are the canonical basis of their span
    return Subspace(field, n, Mat(field, picked, cols=n, _trusted=True),
                    _canonical=True)


def direct_sum(parts):
    """Sum of the parts, asserting the sum is direct."""
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        raise ValueError("direct_sum of no nonzero parts")
    field, n = parts[0].field, parts[0].n
    rows = []
    for p in parts:
        rows.extend(p.basis.entries)
    s = span_rows(field, n, rows)
    if s.dim != sum(p.dim for p in parts):
        raise ValueError("summands are not independent")
    return s


def basis_of(u):
    return list(u.basis.entries)


def add_vecs(field, u, v):
    return tuple(field.add(x, y) for x, y in zip(u, v))


def scale_vec(field, c, v):
    return tuple(field.mul(c, x) for x in v)


def project_onto(u, b, c):
    """Image of U under the projection V = B (+) C -> C.

    B and C must be complementary subspaces of the full ambient space.
    """
    field, n = u.field, u.n
    rows = list(b.basis.entries) + list(c.basis.entries)
    if len(rows) != n:
        raise DimensionMismatchError("B and C do not decompose the ambient space")
    s = mat_inverse(Mat(field, rows))
    nb = b.dim
    out = []
    for v in u.basis.entries:
        coords = vec_mat(v, s)
        w = [0] * n
        for i in range(nb, n):
            ci = coords[i]
            if ci:
                for j, x in enumerate(rows[i]):
                    if x:
                        w[j] = field.add(w[j], field.mul(ci, x))
        out.append(tuple(w))
    return span_rows(field, n, out)


def adapted_pair_basis(u1, u2):
    """Full-space basis adapted to a pair: [U1-part, T, U2-part, rest]."""
    field, n = u1.field, u1.n
    t = intersect(u1, u2)
    rows = basis_of(complement(t, u1)) + basis_of(t) + basis_of(complement(t, u2))
    echelon = []
    for r in rows:
        echelon_insert(field, echelon, r)
    for c in range(n):
        if len(echelon) == n:
            break
        cand = tuple(1 if j == c else 0 for j in range(n))
        if echelon_insert(field, echelon, cand):
            rows.append(cand)
    return Mat(field, rows)


def transport_pair(u1, u2, t1, t2):
    """A GL element g (as a Mat, acting by v -> v.g) with U1 g = T1, U2 g = T2.

    Requires matching dimensions and intersection dimension.
    """
    a = adapted_pair_basis(u1, u2)
    b = adapted_pair_basis(t1, t2)
    return mat_mul(mat_inverse(a), b)


def apply_mat(u, g):
    """Image subspace U.g under the row action."""
    return Subspace(u.field, u.n, mat_mul(u.basis, g))


# ----------------------------------------------------------------------
# bisections
# ----------------------------------------------------------------------

class Bisection:
    """Unordered pair {V1, V2} with V = V1 (+) V2 and equal halves."""

    __slots__ = ("half1", "half2", "_hash")

    def __init__(self, a, b):
        _check_ambient(a, b)
        n = a.n
        if a.dim != b.dim or 2 * a.dim != n:
            raise DimensionMismatchError("halves must have dimension n/2")
        if intersection_dim(a, b) != 0:
            raise ValueError("halves are not complementary")
        if b.sort_key() < a.sort_key():
            a, b = b, a
        self.half1 = a
        self.half2 = b
        self._hash = hash((a, b))

    @property
    def field(self):
        return self.half1.field

    @property
    def n(self):
        return self.half1.n

    @property
    def k(self):
        return self.half1.dim

    def __eq__(self, other):
        return (isinstance(other, Bisection) and self.half1 == other.half1
                and self.half2 == other.half2)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Bisection(k={self.k}, q={self.field.q})"

    def sort_key(self):
        return (self.half1.sort_key(), self.half2.sort_key())

    def halves(self):
        return (self.half1, self.half2)

    def apply(self, g):
        return Bisection(apply_mat(self.half1, g), apply_mat(self.half2, g))

    def dual(self):
        return Bisection(perp(self.half1), perp(self.half2))

    def to_text(self):
        return self.half1.to_text() + "\n\n" + self.half2.to_text()


def coordinate_bisection(field, k):
    """{<e_1..e_k>, <e_{k+1}..e_{2k}>} in V(2k, q)."""
    return Bisection(coordinate_subspace(field, 2 * k, range(k)),
                     coordinate_subspace(field, 2 * k, range(k, 2 * k)))


def subspace_from_text(text, field=None):
    from .gfq import mat_from_text
    m = mat_from_text(text, field)
    return Subspace(m.field, m.cols, m)


def bisection_from_text(text, field=None):
    blocks = [b for b in text.split("\n\n") if b.strip()]
    if len(blocks) != 2:
        raise ValueError("expected two subspace blocks separated by a blank line")
    return Bisection(subspace_from_text(blocks[0], field),
                     subspace_from_text(blocks[1], field))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def schubert_cell(n, field, pivots):
    """The subspaces of V(n,q) whose canonical basis has the given pivot
    columns (increasing), free entries in row-major lexicographic order."""
    m = len(pivots)
    pivot_set = set(pivots)
    free = [(r, c) for r in range(m) for c in range(n)
            if c > pivots[r] and c not in pivot_set]
    base = [[0] * n for _ in range(m)]
    for r, p in enumerate(pivots):
        base[r][p] = 1
    for values in product(range(field.q), repeat=len(free)):
        rows = [row[:] for row in base]
        for (r, c), v in zip(free, values):
            rows[r][c] = v
        yield Subspace(field, n, Mat(field, rows, cols=n), _canonical=True)


def grassmannian(n, field, m):
    """All m-subspaces of V(n,q), each exactly once, in canonical order.

    Pivot-column sets run lexicographically, one Schubert cell each; for a
    fixed pivot set the free entries run in row-major lexicographic order.
    """
    if not (0 <= m <= n):
        raise ValueError("need 0 <= m <= n")
    for pivots in combinations(range(n), m):
        yield from schubert_cell(n, field, pivots)


def sorted_grassmannian(n, field, m):
    """The m-subspaces of V(n,q) as a list in sort_key order: the index
    that bisections are coded against (a bisection is a disjoint pair)."""
    return sorted(grassmannian(n, field, m), key=Subspace.sort_key)


def disjoint_masks(subs):
    """Yield (i, mask) per index i, where the set bits of mask are the
    j > i with subs[i] meet subs[j] = 0.

    Vector-set index, no ranks: each nonzero vector is coded as its base-q
    digit integer and mapped to a bitset over the indices of the subspaces
    that contain it.  The OR of those bitsets over the vectors of subs[i]
    marks every subspace meeting subs[i] nontrivially, so the clear bits
    above bit i are exactly its disjoint partners j > i.  Only the bitsets
    and each subspace's vector codes are held, never the list of pairs.
    """
    containing = {}
    codes_of = []
    for i, s in enumerate(subs):
        q, bit, codes = s.field.q, 1 << i, []
        for v in s.vectors():
            code = 0
            for x in v:
                code = code * q + x
            if code:
                codes.append(code)
                containing[code] = containing.get(code, 0) | bit
        codes_of.append(codes)
    everything = (1 << len(subs)) - 1
    for i, codes in enumerate(codes_of):
        meets = (1 << (i + 1)) - 1  # j <= i is never paired with i
        for code in codes:
            meets |= containing[code]
        yield i, everything & ~meets


def disjoint_pairs(subs):
    """All index pairs (i, j), i < j, with subs[i] meet subs[j] = 0, in
    order, read off the bitsets of disjoint_masks."""
    for i, free in disjoint_masks(subs):
        while free:
            low = free & -free
            yield i, low.bit_length() - 1
            free ^= low


def complements_of(w):
    """All complements of a k-subspace of V(2k,q): q^(k^2) of them.

    Each complement is the graph of a linear map from the anti-pivot
    coordinate subspace into W, which makes the enumeration direct.
    """
    field, n, k = w.field, w.n, w.dim
    q = field.q
    pivots = set()
    for row in w.basis.entries:
        for j, x in enumerate(row):
            if x:
                pivots.add(j)
                break
    free_cols = [c for c in range(n) if c not in pivots]
    wrows = w.basis.entries
    for values in product(range(q), repeat=k * len(free_cols)):
        rows = []
        for i, c in enumerate(free_cols):
            v = [0] * n
            v[c] = 1
            coeffs = values[i * k:(i + 1) * k]
            for cf, wr in zip(coeffs, wrows):
                if cf:
                    for j, x in enumerate(wr):
                        if x:
                            v[j] = field.add(v[j], field.mul(cf, x))
            rows.append(v)
        yield span_rows(field, n, rows)


def packed_complements_of(w_packed, n):
    """Packed q=2 version of complements_of: yields canonical packed rows."""
    k = len(w_packed)
    pivots = set()
    for x in w_packed:
        pivots.add((x & -x).bit_length() - 1)
    free_cols = [c for c in range(n) if c not in pivots]
    for choice in product(range(2**k), repeat=len(free_cols)):
        rows = []
        for c, sel in zip(free_cols, choice):
            v = 1 << c
            s = sel
            i = 0
            while s:
                if s & 1:
                    v ^= w_packed[i]
                s >>= 1
                i += 1
            rows.append(v)
        red, _ = pk_rref(rows, n)
        yield red


def subspace_from_packed(field, n, packed_rows):
    """Subspace from canonical (rref) packed GF(2) rows, no re-elimination."""
    from .gfq import unpack_rows
    return Subspace(field, n, Mat(field, unpack_rows(packed_rows, n)),
                    _canonical=True)


def bisections(k, field):
    """All bisections of V(2k,q), each unordered pair exactly once.

    Count: gaussian(2k,k,q) * q^(k^2) / 2.
    """
    n = 2 * k
    if field.q == 2:
        for w in grassmannian(n, field, k):
            wk = w.sort_key()
            for red in packed_complements_of(w.packed, n):
                c = subspace_from_packed(field, n, red)
                if wk < c.sort_key():
                    yield Bisection(w, c)
        return
    for w in grassmannian(n, field, k):
        wk = w.sort_key()
        for c in complements_of(w):
            if wk < c.sort_key():
                yield Bisection(w, c)
