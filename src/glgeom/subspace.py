"""Canonical subspaces of V(n,q) and the lattice operations on them.

A Subspace is stored as the reduced row echelon form of any spanning set:
a tuple of row tuples, with no matrix object around it.  Equality is
equality of those row tuples, so subspaces hash and sort.  Subspace(...)
takes rows that are canonical already (any subset of the rows of a
canonical basis is one); span_rows is the one constructor for arbitrary
rows.  Canonical rows are an echelon as they stand, each row's pivot at
its first 1, so a meet reduces the rows of one side against the other's
basis (gfq.echelon_insert) with no elimination of their stack; only at
q = 2 is it a packed rank.  A meet with a coordinate range
<e_a..e_{b-1}> (range_meet_dim) is read off the pivots, since the rows
are fully reduced: a rank runs only on the slices past b of the rows
with pivots in the range, and only when one is nonzero.  The Grassmannian
is listed in a fixed order (pivot-column sets, then free entries, each in
lexicographic order) and checked against the counts kept beside it
(gaussian, bisection_count), so the engine needs no glgeom.counts.  A set
of subspaces is indexed by projective points: one int per subspace with
a bit per point it holds, so dim(A meet B) is read off the popcount of
mask_A & mask_B (meet_dims), and disjointness and the action of GL(n,q)
become bitset operations.  grassmannian_index masks whole Schubert cells
straight from integer row codes, with no Subspace object, and point_masks
given subspaces through the same span loop (_span_masks), which sums
vectors by XOR of their codes at p = 2 and through half-code add tables
at odd p; a Subspace keeps its mask in its _mask slot, and is rebuilt
from its code (coded_subspace) only where one is read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import mul

from .errors import ParamError
from .gfq import (echelon_insert, pack_rows, pk_rank, kernel, vec_mat,
                  _rref_rows)


class Subspace:
    """A subspace of V(n, q), stored as its canonical rref rows (a tuple of
    row tuples, no zero rows), which the constructor trusts: span_rows
    builds one from any other rows.  The constructor computes nothing
    from the rows: the hash, at q = 2 the packed rows, and the point mask
    (point_masks) are computed when first read and kept in their slots,
    None until then (an unset slot would make each first read raise and
    catch an AttributeError, which costs more than the hash itself).
    Each is a function of the rows that dies with the object; equality
    and the hash read none of them."""

    __slots__ = ("field", "n", "basis", "_packed", "_hash", "_mask")

    def __init__(self, field, n, rows):
        self.field = field
        self.n = n
        self.basis = rows
        self._packed = self._hash = self._mask = None

    @property
    def dim(self):
        return len(self.basis)

    @property
    def packed(self):
        """The rows as gfq.pack_rows ints at q = 2, else None."""
        packed = self._packed
        if packed is None and self.field.q == 2:
            self._packed = packed = pack_rows(self.basis)
        return packed

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.n == other.n and self.basis == other.basis)

    def __hash__(self):
        h = self._hash
        if h is None:
            self._hash = h = hash((self.field.q, self.n, self.basis))
        return h

    def __repr__(self):
        return f"Subspace(dim {self.dim} of V({self.n},{self.field.q}))"

    def sort_key(self):
        return (self.dim, self.basis)

    def rows(self):
        return self.basis


def _check_ambient(u, w):
    if u.field != w.field or u.n != w.n:
        raise ValueError("subspaces live in different ambient spaces")


def span_rows(field, n, rows):
    """The subspace spanned by a sequence of rows of length n, empty
    allowed: the one constructor that eliminates.  The rows are checked to
    be field codes of length n by min and max over them; only when that
    fails are they read one by one, to name the ragged row or the bad
    entry."""
    if rows and not (min(map(len, rows)) == max(map(len, rows)) == n and (
            n == 0 or 0 <= min(map(min, rows))
            and max(map(max, rows)) < field.q)):
        for r in rows:
            if len(r) != len(rows[0]):
                raise ValueError("ragged rows")
            for x in r:
                if not 0 <= x < field.q:
                    raise ValueError(f"entry {x} out of range for {field}")
        raise ValueError("basis column count != ambient dim")
    red, _ = _rref_rows(field, rows, n)
    return Subspace(field, n, tuple(map(tuple, red)))


@lru_cache(maxsize=None)
def _unit_rows(n):
    """The unit rows e_0..e_{n-1} of V(n,q), built once per n and shared by
    every coordinate subspace: any subset of them, in increasing column
    order, is a canonical basis, and a column range is a slice."""
    return tuple((0,) * c + (1,) + (0,) * (n - 1 - c) for c in range(n))


def coordinate_subspace(field, n, cols):
    """Span of the unit vectors e_c for c in cols (0-based, repeats count
    once).  The unit rows in increasing column order are already the
    canonical basis, so no elimination is run."""
    units, rows = _unit_rows(n), []
    for c in sorted(set(cols)):
        if not 0 <= c < n:
            raise ValueError(f"column {c} outside V({n},q)")
        rows.append(units[c])
    return Subspace(field, n, tuple(rows))


def canonical_pair(field, n, m, t):
    """U1 = <e_1..e_m>, U2 = <e_{m-t+1}..e_{2m-t}>; requires 2m-t <= n."""
    if not (0 <= t <= m and 2 * m - t <= n):
        raise ValueError("no pair with this overlap exists")
    units = _unit_rows(n)
    return (Subspace(field, n, units[:m]),
            Subspace(field, n, units[m - t:2 * m - t]))


def canonical_piece_columns(n, m, t):
    """The 0-based column ranges of the canonical pair's pieces: T = U1
    meet U2, C1, C2 (the complements of T in U1, U2 made of unit rows) and
    C (that of U1 + U2 in V), that is <e_{m-t+1}..e_m>, <e_1..e_{m-t}>,
    <e_{m+1}..e_{2m-t}> and <e_{2m-t+1}..e_n>."""
    if not (0 <= t <= m and 2 * m - t <= n):
        raise ValueError("no pair with this overlap exists")
    return (range(m - t, m), range(m - t), range(m, 2 * m - t),
            range(2 * m - t, n))


def intersection_dim(u, w):
    """dim(U meet W).  At q = 2 it is dim U + dim W minus the packed rank
    of the stacked bases.  Otherwise the rows of the smaller side W are
    reduced against the canonical rows of the larger, an echelon as they
    stand: each row that does not reduce to zero adds one to dim(U + W),
    so the meet is dim W minus the rows kept."""
    _check_ambient(u, w)
    if u.field.q == 2:
        return u.dim + w.dim - pk_rank(u.packed + w.packed, u.n)
    if u.dim < w.dim:
        u, w = w, u
    echelon, field = _echelon(u), u.field
    return w.dim - sum(echelon_insert(field, echelon, r) for r in w.basis)


def range_meet_dim(w, a, b):
    """dim(W meet <e_a..e_{b-1}>), 0-based columns, 0 <= a <= b <= n.

    The pivot lemma.  Let W's canonical rows r_i have pivots p_1 < ... <
    p_k.  Full rref means each r_i is 0 at every other row's pivot, so a
    combination sum c_i r_i has entry c_i in column p_i.  It lies in the
    range only if c_i = 0 for every p_i outside [a, b), and the rows with
    p_i in [a, b) are 0 left of a; so the meet is the space of their
    combinations that are 0 from column b on, of dimension the number of
    those rows minus the rank of their slices to [b, n).  A suffix (b = n)
    is met in #{i : p_i >= a} dimensions, with no rank.  A nonzero slice
    is ranked by echelon_insert into an empty echelon, at every q.

    The lemma needs W's rows to be fully reduced, more than the echelon
    that intersection_dim trusts: rows passed to Subspace(...) unchecked
    must be canonical, or the answer may be wrong.
    """
    n = w.n
    if not 0 <= a <= b <= n:
        raise ValueError(f"no column range [{a}, {b}) in V({n},q)")
    kept, tails = 0, []
    for r in w.basis:
        p = r.index(1)
        if p >= b:
            break
        if p >= a:
            kept += 1
            tail = r[b:]
            if any(tail):
                tails.append(tail)
    if not tails:
        return kept
    echelon = []
    return kept - sum(echelon_insert(w.field, echelon, r) for r in tails)


def perp(u):
    """Orthogonal complement under the standard dot product: the kernel
    of no rows is the whole space."""
    return Subspace(u.field, u.n, kernel(u.field, u.basis, u.n))


def _echelon(u):
    """U's canonical rows as an echelon for gfq.echelon_insert: a row's
    pivot is its first nonzero entry, a 1."""
    return [(r.index(1), r) for r in u.basis]


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
            raise ValueError("halves must have dimension n/2")
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

    def dual(self):
        return Bisection(perp(self.half1), perp(self.half2))


def coordinate_bisection(field, k):
    """{<e_1..e_k>, <e_{k+1}..e_{2k}>} in V(2k, q)."""
    return Bisection(coordinate_subspace(field, 2 * k, range(k)),
                     coordinate_subspace(field, 2 * k, range(k, 2 * k)))


# ----------------------------------------------------------------------
# enumeration, and the counts that check it
# ----------------------------------------------------------------------

def gaussian(n, m, q):
    """Number of m-subspaces of an n-dimensional space over GF(q)."""
    if not (0 <= m <= n):
        raise ParamError("need 0 <= m <= n")
    num = 1
    den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (m - i) - 1
    if num % den:
        raise RuntimeError("Gaussian binomial quotient is not an integer")
    return num // den


def bisection_count(k, q):
    """Number of bisections of V(2k,q): unordered pairs of disjoint
    k-subspaces, each k-subspace having q^(k^2) complements."""
    return gaussian(2 * k, k, q) * q ** (k * k) // 2


def _cell_rows(n, q, pivots):
    """Per row of the Schubert cell with these pivots, top first, (pivot p,
    the codes the row takes): q^(n-1-p) plus its free entries (the columns
    past p that are no pivot) times their weights q^(n-1-c), in lex order."""
    for p in pivots:
        codes = [q ** (n - 1 - p)]
        for w in (q ** (n - 1 - c) for c in range(p + 1, n) if c not in pivots):
            codes = [x + y for x in codes for y in range(0, q * w, w)]
        yield p, codes


def _code_row(code, q, n):
    """The row of length n with this base-q code."""
    return tuple(code // q ** (n - 1 - c) % q for c in range(n))


def schubert_cell(n, field, pivots):
    """The subspaces of V(n,q) whose canonical basis has the given pivot
    columns (increasing), free entries in row-major lexicographic order:
    each row runs through its codes (_cell_rows), the first row slowest."""
    rows = [[_code_row(r, field.q, n) for r in codes]
            for _, codes in _cell_rows(n, field.q, pivots)]
    return (Subspace(field, n, basis) for basis in product(*rows))


def grassmannian(n, field, m):
    """All m-subspaces of V(n,q), each exactly once, in canonical order:
    the Schubert cells of the pivot-column sets in lexicographic order."""
    if not (0 <= m <= n):
        raise ValueError("need 0 <= m <= n")
    for pivots in combinations(range(n), m):
        yield from schubert_cell(n, field, pivots)


# ----------------------------------------------------------------------
# the projective-point index
# ----------------------------------------------------------------------

def _digit_tables(field, width):
    """Add and scale tables on base-q codes of `width` coordinates:
    add[a][b] is the code of a + b, scale[c][a] that of c.a.  At p = 2
    codes add by XOR (a digit of GF(2^e) is a bit field), so add is None."""
    digits = list(product(range(field.q), repeat=width))  # in code order
    code = {x: a for a, x in enumerate(digits)}
    add = None if field.p == 2 else [
        [code[tuple(map(field.add, x, y))] for y in digits] for x in digits]
    scale = [[code[tuple(field.mul(c, v) for v in x)] for x in digits]
             for c in range(field.q)]
    return add, scale


def coded_subspace(field, n, m, code):
    """The m-subspace of V(n,q) whose canonical rows, read row-major as
    one base-q number (the first entry most significant), are the code."""
    entries = iter(_code_row(code, field.q, n * m))
    return Subspace(field, n, tuple(zip(*[entries] * n)))


def _span_masks(field, n, cells):
    """The basis codes and point masks, as two lists, of the subspaces in
    the cells: per row, top first, (pivot column, the codes the canonical
    row takes), one subspace per choice of a code for each row.  Point p
    is the vector with leading 1 in column n-1-e and base-q code c: p =
    (q^e - 1)/(q - 1) + c - q^e.  The vectors r_i + sum_{j>i} c_j r_j are
    coded with the rows fixed from the last one up: the span of the rows
    below row i is expanded once for all choices of the rows above it.
    At p = 2 the span holds whole codes, summed by XOR; at odd p it holds
    the codes of the two halves of the coordinates, summed through add
    tables.  Both scale through the half-code scale table."""
    q, xor = field.q, field.p == 2
    w = (n + 1) // 2  # the low half; the high half is never wider
    low, big = q ** w, q ** n
    add, scale = _digit_tables(field, w)
    # per column of the leading 1, point index minus code
    offsets = [(q ** e - 1) // (q - 1) - q ** e for e in range(n - 1, -1, -1)]
    codes, masks = [], []

    def spread(r, span):  # span, then c.r + span for every c != 0
        hi, lo = divmod(r, low)
        if xor:
            return span + [(scale[c][hi] * low + scale[c][lo]) ^ s
                           for c in range(1, q) for s in span]
        return span + [(add[scale[c][hi]][x], add[scale[c][lo]][y])
                       for c in range(1, q) for x, y in span]

    def fix(rows, i, span, mask, code, weight):  # rows below i are fixed
        p, row_codes = rows[i]
        off = offsets[p]
        for r in row_codes:
            full = mask
            if xor:
                for s in span:
                    full |= 1 << ((r ^ s) + off)
            else:
                add_hi, add_lo = add[r // low], add[r % low]
                for x, y in span:
                    full |= 1 << (add_hi[x] * low + add_lo[y] + off)
            if i:
                fix(rows, i - 1, spread(r, span), full, code + r * weight,
                    weight * big)
            else:
                codes.append(code + r * weight)
                masks.append(full)
    for rows in cells:
        if rows:
            fix(rows, len(rows) - 1, [0 if xor else (0, 0)], 0, 0, 1)
        else:  # the zero subspace
            codes.append(0)
            masks.append(0)
    return codes, masks


def point_masks(subs):
    """One int per subspace (all of one V(n,q), else ValueError): bit p is
    set iff projective point p (numbered as in _span_masks) lies in the
    subspace.  A subspace's mask is kept in its _mask slot; those not
    masked yet go to one _span_masks call, each as a cell of one code per
    canonical row."""
    for s in subs:
        _check_ambient(subs[0], s)
    fresh = [s for s in subs if s._mask is None]
    if fresh:
        field, n = fresh[0].field, fresh[0].n
        weight = [field.q ** (n - 1 - c) for c in range(n)]
        masks = _span_masks(field, n, (
            [(r.index(1), (sum(map(mul, r, weight)),)) for r in s.basis]
            for s in fresh))[1]
        for s, mask in zip(fresh, masks):
            s._mask = mask
    return [s._mask for s in subs]


def grassmannian_index(n, field, m, cells=None):
    """The basis codes and point masks of the m-subspaces of V(n,q) in the
    Schubert cells with the given pivot sets (default: all), straight from
    row codes (_cell_rows) with no Subspace object, in code order: that is
    sort_key order, as equal-length rows compare like their codes."""
    if cells is None:
        cells = combinations(range(n), m)
    codes, masks = _span_masks(field, n, (list(_cell_rows(n, field.q, p))
                                          for p in cells))
    order = sorted(range(len(codes)), key=codes.__getitem__)
    return [codes[i] for i in order], [masks[i] for i in order]


def meet_dims(q, n):
    """dim(A meet B) from the popcount of mask_A & mask_B: a d-subspace
    holds (q^d - 1)/(q - 1) projective points."""
    return {(q ** d - 1) // (q - 1): d for d in range(n + 1)}


def mask_points(mask):
    """The projective points of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def point_permutation(field, n, g):
    """perm[p] = the point p.g under the row action of an invertible n x n
    matrix g (a tuple of rows) on V(n,q), in the numbering of point_masks:
    point p is the vector 0..0 1 x with e free entries x, e ascending, then
    x in code order; an image is numbered by its multiple with leading 1.
    Raises ValueError for any other g: a singular g sends some point to
    zero, which numbers no point."""
    if len(g) != n or any(len(r) != n for r in g):
        raise ValueError(f"generator is not an invertible {n} x {n} matrix")
    points = [(0,) * (n - 1 - e) + (1,) + x
              for e in range(n) for x in product(range(field.q), repeat=e)]
    number, perm = {v: p for p, v in enumerate(points)}, []
    for v in points:
        w = vec_mat(field, v, g)
        lead = next(filter(None, w), 0)  # the image's first nonzero entry
        if not lead:
            raise ValueError("generator is not invertible")
        c = field.inv(lead)
        perm.append(number[tuple(field.mul(c, x) for x in w)])
    return perm


def containing_masks(masks):
    """Per projective point, the bitset of the indices i whose masks[i]
    holds it."""
    through = {}
    for i, mask in enumerate(masks):
        for p in mask_points(mask):
            through[p] = through.get(p, 0) | 1 << i
    return through


def meeting_mask(mask, through):
    """The bitset of the indices whose subspaces share a projective point
    with the mask, from containing_masks."""
    meets = 0
    for p in mask_points(mask):
        meets |= through[p]
    return meets

