"""Constructive witnesses: explicit subspaces and bisections realizing
incidences, so completeness claims come with checkable certificates.

Every public operation verifies its own output once, with the independent
subspace primitives; a construction that cannot be completed raises rather
than guessing.  A collinear witness's certificate records the verification
just made (a one-entry memo); one for any other W computes its own.
Pair-specific constructions work on the canonical pair U1 = <e_1..e_m>,
U2 = <e_{m-t+1}..e_{2m-t}>.  The projective witness is written down with
no elimination.  For m <= n/2 its disjoint column sets are slices of the
pair's pieces (subspace.canonical_piece_columns), and W's canonical rows
are their 0/1 indicator rows ordered by least column: each row's first 1
is at its least column, where every other row is 0.  For m > n/2 it needs
no change of basis: perp U1, perp U2 are the canonical (n-m)-pair moved
by a cyclic coordinate shift, so W is the perp of the dual witness's sets
shifted by +m mod n.  Its canonical rows are e_c for each column c in no
set and e_s - e_max(S) for each s != max(S) in each set S, ordered by
pivot: each is 0 off its pivot but at a set's maximum, which is no pivot.

The bisection witness is index data.  Each regime names, for each half,
its unit rows e_c and its rows e_c + lambda e_d (a few q = 2 rows have
three terms), by set arithmetic on the column ranges of the pair's pieces
(subspace.canonical_piece_columns); no complement, projection or sum is
computed, and no change of basis.  Each half is then one span_rows.  The
checks that remain are those of the result: Bisection (both halves of
dimension k, disjoint) and _bis_pair_dims (both patterns (k1, k2)).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParamError
from .gfq import (least_irreducible, mat_inverse, poly_mulmod, vec_mat,
                  _coefficients, _rref_rows)
from .predicates import bis_collinear_predicate, proj_collinear_predicate
from .subspace import (Bisection, Subspace, canonical_pair,
                       canonical_piece_columns, coordinate_subspace,
                       grassmannian, intersection_dim, range_meet_dim,
                       span_rows, _unit_rows)


class PredicateFailsError(ValueError):
    """No witness exists: the closed form refuses these parameters."""


# ----------------------------------------------------------------------
# index rows and diagonal subspaces
# ----------------------------------------------------------------------

# A row in index form is a tuple of (column, coefficient) terms; the
# bisection witness writes each half down as a list of them.

def _units(cols):
    """The unit rows e_c for c in cols, in index form."""
    return [((c, 1),) for c in cols]


def _sums(cols, others):
    """The rows e_c + e_d pairing cols with others, as far as both run."""
    return [((c, 1), (d, 1)) for c, d in zip(cols, others)]


def _vectors(field, n, rows):
    """The vectors of V(n,q) that rows in index form stand for; terms on
    one column add up."""
    out = []
    for terms in rows:
        v = [0] * n
        for c, x in terms:
            v[c] = field.add(v[c], x)
        out.append(tuple(v))
    return out


def _bisection(field, n, rows1, rows2):
    """The bisection whose halves the index rows span, by one span_rows
    per half; Bisection checks their dimensions and disjointness."""
    return Bisection(span_rows(field, n, _vectors(field, n, rows1)),
                     span_rows(field, n, _vectors(field, n, rows2)))


def _diagonal_rows(field, es, fs, r):
    """Index rows of two disjoint diagonal r-subspaces Z1, Z2 of
    <es> (+) <fs>, for independent rows with r <= len(es) <= len(fs).

    Z1 pairs es[i] with fs[i]; Z2 pairs it with 2 fs[i] at q > 2, and at
    q = 2 with fs[i+1], cyclically.  When r = len(es) = len(fs) the shifted
    rows would have the same sum as those of Z1, so the last one,
    es[r-1] + fs[0], takes fs[1] as well.
    """
    z1 = [es[i] + fs[i] for i in range(r)]
    if field.q > 2:  # 2 is a fixed element outside {0, 1}
        return z1, [es[i] + tuple((c, field.mul(2, x)) for c, x in fs[i])
                    for i in range(r)]
    z2 = [es[i] + fs[(i + 1) % len(fs)] for i in range(r)]
    if 0 < r == len(es) == len(fs):
        z2[-1] += fs[1]
    return z1, z2


class DiagonalPair:
    __slots__ = ("z1", "z2", "y1", "y2")

    def __init__(self, z1, z2, y1, y2):
        self.z1, self.z2, self.y1, self.y2 = z1, z2, y1, y2

    def verify(self):
        r = self.z1.dim
        ok = (self.z2.dim == r
              and intersection_dim(self.z1, self.z2) == 0)
        for z in (self.z1, self.z2):
            for y in (self.y1, self.y2):
                ok = ok and intersection_dim(z, y) == 0
        return ok


def diagonal_pair(y1, y2, r):
    """Two disjoint diagonal r-subspaces of Y1 (+) Y2, from _diagonal_rows
    on the canonical rows of the smaller and the larger.

    Exists iff (max(dim Y1, dim Y2), q) != (1, 2).
    """
    field = y1.field
    q = field.q
    if intersection_dim(y1, y2) != 0:
        raise ParamError("Y1 and Y2 must be disjoint")
    if not (1 <= r <= min(y1.dim, y2.dim)):
        raise ParamError("need 1 <= r <= min(dim Y1, dim Y2)")
    if (max(y1.dim, y2.dim), q) == (1, 2):
        raise ParamError("a unique diagonal line exists; no disjoint pair")
    a, b = (y1, y2) if y1.dim <= y2.dim else (y2, y1)
    es, fs = ([tuple((c, x) for c, x in enumerate(row) if x)
               for row in s.rows()] for s in (a, b))
    z1, z2 = (span_rows(field, a.n, _vectors(field, a.n, rows))
              for rows in _diagonal_rows(field, es, fs, r))
    pair = DiagonalPair(z1, z2, y1, y2)
    if not pair.verify():
        raise RuntimeError("diagonal pair construction failed to verify")
    return pair


def proj_collinear_witness(n, m, k, j, t, field):
    """A k-subspace meeting both canonical m-subspaces in dimension j.

    Exists precisely when 2j <= k + max(0, 2m-n); written down from the
    column sets of _proj_column_sets for m <= n/2, else as perp of the
    witness Wb at (n-m, n-k, n-m-k+j, n-2m+t) under the shift
    e_i -> e_{i+m mod n}.  The shift takes the canonical (n-m)-pair with
    overlap n-2m+t to perp U1 = <e_{m+1}..e_n> and perp U2 (the
    coordinates outside U2), so dim(W meet Ui) = n - dim(shifted Wb +
    perp Ui) = j.
    """
    if not (max(0, m + k - n) <= j <= min(m, k)):
        raise ParamError("inadmissible j")
    if not (max(0, 2 * m - n) <= t <= m - 1):
        raise ParamError("overlap t out of range")
    if not proj_collinear_predicate(n, m, k, j):
        raise PredicateFailsError("no such subspace exists at these parameters")
    try:
        w = _proj_witness(n, m, k, j, t, field)
        _, dims = _proj_pair_dims(field, n, m, t, w)
    except ValueError as exc:
        raise RuntimeError(f"witness construction failed: {exc}") from exc
    if not (w.dim == k and dims == (j, j)):
        raise RuntimeError("witness failed verification")
    return w


def _proj_witness(n, m, k, j, t, field):
    """proj_collinear_witness unverified, written down from the disjoint
    column sets of _proj_column_sets (slices of the canonical pieces) with
    no elimination; only the outer result is checked, by _proj_pair_dims,
    whose meet kernel trusts the rows to be canonical.

    For m <= n/2 the rows are the 0/1 indicator rows of the sets of
    _proj_column_sets, ordered by least column: each row's first 1 is at
    its least column, where every other row is 0.  For m > n/2, W is the
    perp of the span of the dual witness's sets shifted by +m mod n; its
    rows are e_c for each column c in no set and e_s - e_max(S) for each
    s != max(S) in each set S, ordered by pivot: each is 0 off its pivot
    but at a set's maximum, which is no pivot.
    """
    if 2 * m > n:
        sets = _proj_column_sets(n, n - m, n - k, n - m - k + j,
                                 n - 2 * m + t)
        return Subspace(field, n, _perp_rows(
            field, n, [[(c + m) % n for c in s] for s in sets]))
    return Subspace(field, n, _indicator_rows(
        n, _proj_column_sets(n, m, k, j, t)))


def _proj_column_sets(n, m, k, j, t):
    """The disjoint column sets whose indicator rows span the witness for
    m <= n/2, as slices of the pieces tt, c1, c2, c of
    canonical_piece_columns (U1 = <c1, tt>, U2 = <tt, c2>).  The core, j
    columns in each Ui, is c1[:j] and the last j of c2, or tt[:j], or
    c1[m-j:], tt and c2[:j-t]; P adds c[:pad].  The sets are singletons of
    the core and c[:k-|core|], or those of P and k-2j-(n-2m) parts of the
    rest: pairs of c1 and c2, then of tt and c, the last part merged.  No
    part lies inside U1 or U2."""
    tt, c1, c2, c = canonical_piece_columns(n, m, t)
    if j <= m - t:
        core, c1, c2 = [*c1[:j], *c2[m - t - j:]], c1[j:], c2[:m - t - j]
    elif j <= t:
        core, tt = list(tt[:j]), tt[j:]
    else:
        core = [*c1[m - j:], *tt, *c2[:j - t]]  # and P holds all of c
        c1, c2 = c1[:m - j], c2[j - t:]
    parts = k - 2 * j - (n - 2 * m)
    if parts <= 0:
        return [[x] for x in [*core, *c[:k - len(core)]]]
    pad = n - 2 * m + 2 * j - len(core)
    pairs = [*zip(c1, c2), *zip(tt, c[pad:])]
    return ([[x] for x in [*core, *c[:pad]]]
            + [list(pr) for pr in pairs[:parts - 1]]
            + [[x for pr in pairs[parts - 1:] for x in pr]])


def _indicator_rows(n, sets):
    """The indicator rows of disjoint column sets ordered by least column,
    the canonical basis of their span (see _proj_witness)."""
    units = _unit_rows(n)
    rows = []
    for s in sorted(sets, key=min):
        if len(s) == 1:
            rows.append(units[s[0]])
        else:
            row = [0] * n
            for c in s:
                row[c] = 1
            rows.append(tuple(row))
    return tuple(rows)


def _perp_rows(field, n, sets):
    """The canonical basis of the perp of the span of the indicator rows of
    disjoint column sets (see _proj_witness): n - len(sets) independent
    rows, each summing to 0 over every set."""
    minus_one = field.neg(1)
    rows = list(_unit_rows(n))
    for s in sets:
        top = max(s)
        rows[top] = None
        for c in s:
            if c != top:
                row = [0] * n
                row[c], row[top] = 1, minus_one
                rows[c] = tuple(row)
    return tuple(r for r in rows if r is not None)


def _pair_ranges(m, t):
    """The 0-based column ranges [lo, hi) of the canonical pair: U1 = <c1,
    tt> is [0, m) and U2 = <tt, c2> is [m-t, 2m-t), in the pieces of
    canonical_piece_columns."""
    return (0, m), (m - t, 2 * m - t)


@lru_cache(maxsize=1)
def _proj_pair_dims(field, n, m, t, w):
    """The canonical pair at overlap t and (dim W meet U1, dim W meet U2):
    a witness's verification, which its certificate reads again.  Each
    meet is a range_meet_dim over Ui's column range; the pair itself is
    built only for the certificate."""
    return (canonical_pair(field, n, m, t),
            tuple(range_meet_dim(w, lo, hi)
                  for lo, hi in _pair_ranges(m, t)))


# ----------------------------------------------------------------------
# bisection witnesses for the collinear side
# ----------------------------------------------------------------------

def bis_collinear_witness(params, t):
    """A bisection incident with both canonical m-subspaces at overlap t.

    Requires m <= k (dualize first otherwise).  The regime of (t, k1, k2, q)
    writes both halves down as index rows (_bis_witness_rows); each half is
    one span_rows, and the bisection is verified once: Bisection checks
    dimensions and disjointness, _bis_pair_dims the two patterns.
    """
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    if m > k:
        raise ParamError("apply the duality reduction first (m <= k)")
    if not (0 <= t <= m - 1):
        raise ParamError("need 0 <= t <= m-1")
    if not bis_collinear_predicate(q, m, k, k1, k2):
        raise PredicateFailsError("parameters admit no covering bisection")
    try:
        b = _bisection(field, 2 * k,
                       *_bis_witness_rows(field, k, m, k1, k2, t))
        _, patterns = _bis_pair_dims(field, k, m, t, b)
    except ValueError as exc:
        raise RuntimeError(f"witness construction failed: {exc}") from exc
    if patterns != ((k1, k2), (k1, k2)):
        raise RuntimeError(f"witness failed verification at {params} t={t}")
    return b


@lru_cache(maxsize=1)
def _bis_pair_dims(field, k, m, t, b):
    """The canonical pair in V(2k,q) at overlap t and each Ui's sorted
    pattern (dim Ui meet V1, dim Ui meet V2), as for _proj_pair_dims."""
    return (canonical_pair(field, 2 * k, m, t),
            tuple(tuple(sorted((range_meet_dim(b.half1, lo, hi),
                                range_meet_dim(b.half2, lo, hi))))
                  for lo, hi in _pair_ranges(m, t)))


def _bis_witness_rows(field, k, m, k1, k2, t):
    """The index rows of the two halves, by regime.  Each regime works on
    the column ranges tt, c1, c2, c of subspace.canonical_piece_columns:
    U1 = <c1, tt>, U2 = <tt, c2>, and c the rest of V(2k,q).  At q = 2,
    k1 = 0, m = k, k2 = k - 1 - t the shallow (t = 0) and balanced regimes
    would need two disjoint diagonal lines, so _small_case_rows serves."""
    if (k1, k2) == (0, 0):
        return _disjoint_pattern_rows(field, k, m, t)
    if field.q == 2 and k1 == 0 and m == k and k2 == k - 1 and t >= 1:
        return _near_half_rows(k, t)
    if field.q == 2 and k1 == 0 and m == k and k2 == k - 1 - t:
        return _small_case_rows(k, t)
    if t <= 2 * k1:
        return _shallow_overlap_rows(field, k, m, k1, k2, t)
    if t <= m + k1 - k2:
        return _balanced_overlap_rows(field, k, m, k1, k2, t)
    if t <= k2:
        return _graph_overlap_rows(k, m, k1, k2, t)
    return _deep_overlap_rows(k, m, k1, k2, t)


# -- pattern (0,0): both halves disjoint from both subspaces -------------

def _disjoint_pattern_rows(field, k, m, t):
    """A diagonal pair of <c1> (+) <c2> beside one of <tt, c[:k-m]> (+)
    <c[k-m:]>.  At q = 2 a diagonal pair of lines does not exist, so one
    column in c1 (m - t = 1) or one in c[k-m:] (k - m + t = 1) takes one of
    the forms written down below."""
    n = 2 * k
    tt, c1, c2, c = canonical_piece_columns(n, m, t)
    if field.q == 2 and m - t == 1:
        if m < k:  # V1: c1 + c2, c[:k-1]; V2: U2 paired with c[:k-1], c[k-1:]
            c3 = c[:k - 1]
            return (_sums(c1, c2) + _units(c3),
                    _sums([*tt, *c2], c3) + _units(c[k - 1:]))
        # m = k, t = k - 1: columns 0 + (2k-1) and i + (k+i-1) for
        # 2 <= i <= k; 0 + 1 + k and k+1..2k-1
        return (_sums([0, *range(2, k + 1)], [n - 1, *range(k + 1, n)]),
                [((0, 1), (1, 1), (k, 1))] + _units(range(k + 1, n)))
    if field.q == 2 and k - m + t == 1:
        if t == 0:  # m = k - 1: the whole diagonal pair, one column of c each
            z1, z2 = _diagonal_rows(field, _units(c1), _units(c2), m)
            return z1 + _units(c[:1]), z2 + _units(c[1:])
        # m = k >= 3, t = 1: columns i + (k+i) for i < k; 0 + k + (2k-2),
        # i + (k+i-1) for 1 <= i <= k-2, and 2k-1
        return (_sums(range(k), range(k, n)),
                [((0, 1), (k, 1), (n - 2, 1))]
                + _sums(range(1, k - 1), range(k, n - 2)) + _units([n - 1]))
    z1, z2 = _diagonal_rows(field, _units(c1), _units(c2), m - t)
    e1, e2 = _diagonal_rows(field, _units([*tt, *c[:k - m]]),
                            _units(c[k - m:]), k - m + t)
    return z1 + e1, z2 + e2


# -- q=2 small cases with k1 = 0, m = k ----------------------------------

_NEAR_HALF_TABLE = {
    # (k, t) -> (rows of V1, rows of V2) as 1-based index sums
    (2, 1): ([(3,), (4,)], [(1,), (2, 4)]),
    (3, 1): ([(1, 6), (2, 5), (4, 6)], [(2,), (3,), (4,)]),
    (3, 2): ([(1, 6), (4, 6), (5,)], [(2,), (3,), (6,)]),
    (4, 1): ([(5,), (6,), (7,), (8,)], [(1,), (2,), (3,), (4, 8)]),
    (4, 2): ([(1, 8), (2, 7), (5, 8), (6, 7)], [(2,), (3,), (4,), (5,)]),
    (4, 3): ([(1, 8), (5, 8), (6,), (7,)], [(2,), (3,), (4,), (8,)]),
}


def _near_half_rows(k, t):
    """The tabulated halves for q=2, m=k, pattern (0, k-1) as index rows."""
    return tuple([tuple((i - 1, 1) for i in combo) for combo in half]
                 for half in _NEAR_HALF_TABLE[(k, t)])


def near_half_table_bisection(field, k, t):
    """The tabulated bisection for q=2, m=k, pattern (0, k-1), overlap t."""
    if field.q != 2 or (k, t) not in _NEAR_HALF_TABLE:
        raise ParamError("no tabulated bisection here")
    return _bisection(field, 2 * k, *_near_half_rows(k, t))


def _small_case_rows(k, t):
    """q=2, k1=0, m=k, k2=k-1-t: one half takes c1 but its first column,
    that column plus the second of c2, and c paired with tt; the other
    takes c2 but its first column, the sum of the two first columns, and
    c."""
    tt, c1, c2, c = canonical_piece_columns(2 * k, k, t)
    return (_units(c1[1:]) + _sums(c1[:1], c2[1:]) + _sums(c, tt),
            _units(c2[1:]) + _sums(c1[:1], c2) + _units(c))


# -- overlap t <= 2 k1 ----------------------------------------------------

def _shallow_overlap_rows(field, k, m, k1, k2, t):
    """B2 = <tt[:x], c1[:k1-x], c2[:k2-x]> with x = min(t, k1) meets U1 in
    k1 and U2 in k2 dimensions, B1 = the rest of <tt, c1[:s], c2[:s]>
    (s = k1 + k2 - t) meets them the other way round.  Each half is
    completed from c and the last mbar = m - k1 - k2 columns x1, x2 of c1
    and c2, avoiding both: a diagonal pair of <x1>, <x2> and columns of
    c; at q = 2 with mbar = 1, x1 + x2 and x1 + c[0] always go to B2, or
    (c empty: t = 0, m = k, and k1 >= 1, see _bis_witness_rows) x1 + x2
    and x1 + B1's first columns of c1 and c2.  B2 has room for both: it
    lacks d2 = k - m + 1 + x rows, and d2 < 2 would need m = k and x = 0,
    so t = 0 (t <= 2 k1) and c empty."""
    tt, c1, c2, c = canonical_piece_columns(2 * k, m, t)
    x, s = min(t, k1), k1 + k2 - t
    b1 = _units([*tt[x:], *c1[k1 - x:s], *c2[k2 - x:s]])
    b2 = _units([*tt[:x], *c1[:k1 - x], *c2[:k2 - x]])
    x1, x2 = c1[s:], c2[s:]
    d1 = k - len(b1)
    if field.q == 2 and len(x1) == 1:
        if not c:
            return (b1 + _sums(x1, x2),
                    b2 + [((x1[0], 1), (c1[k1], 1), (c2[k2], 1))])
        mixed = _sums([x1[0]] * 2, [x2[0], c[0]])
        return b1 + _units(c[:d1]), b2 + mixed + _units(c[d1:])
    z1, z2 = _diagonal_rows(field, _units(x1), _units(x2), len(x1))
    d = d1 - len(x1)
    return b1 + z1 + _units(c[:d]), b2 + z2 + _units(c[d:])


# -- overlap 2 k1 < t <= m + k1 - k2 --------------------------------------

def _balanced_overlap_rows(field, k, m, k1, k2, t):
    """V1 holds tt[:k1], c2[:j] and c[:g] (j = k2 - k1, g = t - 2 k1), V2
    holds tt[k1:2 k1], c1[:j] and c[:g] paired with tt[2 k1:].  The rest
    of c splits into two runs of half = k - m + k1 columns; with the last
    columns x1, x2 of c1 and c2 they form Y1, Y2, and each half takes one
    of a diagonal pair of Y1 (+) Y2 (the runs themselves when x1 is
    empty).  At q = 2, r = |x1| + half >= 2 (see _bis_witness_rows)."""
    tt, c1, c2, c = canonical_piece_columns(2 * k, m, t)
    j, g, half = k2 - k1, t - 2 * k1, k - m + k1
    v1 = _units([*tt[:k1], *c2[:j], *c[:g]])
    v2 = _units([*tt[k1:2 * k1], *c1[:j]]) + _sums(c[:g], tt[2 * k1:])
    x1, x2, s1, s2 = c1[j:], c2[j:], c[g:g + half], c[g + half:]
    if not x1:
        return v1 + _units(s1), v2 + _units(s2)
    r = len(x1) + half
    z1, z2 = _diagonal_rows(field, _units([*x1, *s1]), _units([*x2, *s2]), r)
    return v1 + z1, v2 + z2


# -- overlap t > m + k1 - k2, t <= k2 (graph completion) ------------------

def _graph_overlap_rows(k, m, k1, k2, t):
    """V2 = <c[split:], c1[:j], c2[:j], tt> (j = k2 - t, split = k + 2 k2 -
    2m); V1 holds the next k1 columns of c1 and of c2 and c[:split], and
    pairs the remaining columns of c1 with c[split:] then c2[:j], those of
    c2 with c[split:] then c1[:j]."""
    tt, c1, c2, c = canonical_piece_columns(2 * k, m, t)
    j, split = k2 - t, k + 2 * k2 - 2 * m
    tail = c[split:]
    v1 = (_units([*c1[j:j + k1], *c2[j:j + k1], *c[:split]])
          + _sums(c1[j + k1:], [*tail, *c2[:j]])
          + _sums(c2[j + k1:], [*tail, *c1[:j]]))
    return v1, _units([*tail, *c1[:j], *c2[:j], *tt])


# -- overlap t > k2 -------------------------------------------------------

def _deep_overlap_rows(k, m, k1, k2, t):
    """V2 = <c[:k-k2], tt[t-k2:]>.  V1 holds the first x = max(0, k1 + k2 -
    t) columns of c1 and c2 and tt[:k1-x].  It pairs each other column of
    c1 with c from its start, and each other column of c2 with the same
    column of c if x = 0, else with the matching column of c1 (over odd q
    these two spans differ); then the rest of tt[:t-k2] with the columns
    of c after those, and c[k-k2:] with tt[t-k2:], keeping the columns of
    it past k2 whole."""
    tt, c1, c2, c = canonical_piece_columns(2 * k, m, t)
    x = max(0, k1 + k2 - t)
    c3, t2 = c[k - k2:], tt[t - k2:]
    v1 = (_units([*c1[:x], *c2[:x], *tt[:k1 - x]])
          + _sums(c1[x:], c) + _sums(c2[x:], c1[x:] if x else c)
          + _sums(tt[k1 - x:t - k2], c[m - t - x:])
          + _sums(c3, t2) + _units(c3[k2:]))
    return v1, _units([*c[:k - k2], *t2])


# ----------------------------------------------------------------------
# spreads
# ----------------------------------------------------------------------

def desarguesian_spread(k, field):
    """The q^k + 1 pairwise-disjoint k-subspaces of V(2k,q) by field reduction.

    V(2k,q) is identified with two copies of GF(q^k); each point of the
    projective line over GF(q^k) blows up to a k-subspace.
    """
    q = field.q
    n = 2 * k
    modulus = least_irreducible(field, k)
    units = _unit_rows(k)
    spread = [coordinate_subspace(field, n, range(k, n))]
    for code in range(q**k):
        a = _coefficients(code, q, k)
        # row i: e_i beside x^i * a mod the modulus
        spread.append(span_rows(field, n, [
            units[i] + tuple(poly_mulmod(field, a, [0] * i + [1], modulus))
            for i in range(k)]))
    return spread


def verify_partial_spread(subs):
    """All pairwise intersections trivial and all dimensions equal."""
    if not subs:
        return True
    k = subs[0].dim
    for i, a in enumerate(subs):
        if a.dim != k:
            return False
        for b in subs[i + 1:]:
            if intersection_dim(a, b) != 0:
                return False
    return True


def fifth_disjoint(pis):
    """A k-subspace disjoint from four pairwise-disjoint ones (q^k >= 4).

    Over GF(2) the four are normalised to the frame [I|0], [0|I], [I|I],
    [I|A], and the answer is the row space of [I|A^-1] carried back.
    Over larger fields the Grassmannian is scanned in canonical order for
    the first disjoint subspace.
    """
    if len(pis) != 4:
        raise ParamError("need exactly four subspaces")
    field = pis[0].field
    n = pis[0].n
    k = pis[0].dim
    q = field.q
    if any(p.dim != k or p.n != n for p in pis) or n != 2 * k:
        raise ParamError("need four k-subspaces of V(2k,q)")
    if not verify_partial_spread(pis):
        raise ParamError("inputs are not pairwise disjoint")
    if q**k < 4:
        raise ParamError("need q^k >= 4")
    if q == 2:
        sigma = _fifth_disjoint_gf2(pis)
        if not all(intersection_dim(sigma, p) == 0 for p in pis):
            raise RuntimeError("fifth subspace failed verification")
        return sigma
    for cand in grassmannian(n, field, k):
        if all(intersection_dim(cand, p) == 0 for p in pis):
            return cand  # the scan's own test is its verification
    raise RuntimeError("no disjoint subspace found (impossible)")


def _fifth_disjoint_gf2(pis):
    field = pis[0].field
    n, k = pis[0].n, pis[0].dim
    pi1, pi2, pi3, pi4 = pis
    base_inv = mat_inverse(field, pi1.rows() + pi2.rows())
    coords = [vec_mat(field, c, base_inv) for c in pi3.rows()]
    frame = ([vec_mat(field, c[:k], pi1.rows()) for c in coords]
             + [vec_mat(field, c[k:], pi2.rows()) for c in coords])
    frame_inv = mat_inverse(field, frame)
    red, pivots = _rref_rows(
        field, [vec_mat(field, r, frame_inv) for r in pi4.rows()], n)
    if len(red) != k or pivots != list(range(k)):
        raise RuntimeError("normalisation failed: fourth space "
                           "not a graph over the first")
    a_inv = mat_inverse(field, [row[k:] for row in red])
    units = _unit_rows(k)
    return span_rows(field, n, [vec_mat(field, units[i] + a_inv[i], frame)
                                for i in range(k)])


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

def bis_witness_certificate(params, t, b):
    """Machine-checkable record of a collinear bisection witness."""
    (u1, u2), (p1, p2) = _bis_pair_dims(params.field, params.k, params.m, t, b)
    return {
        "params": params.to_json_dict(),
        "t": t,
        "pair": [list(map(list, u1.rows())), list(map(list, u2.rows()))],
        "bisection": [list(map(list, b.half1.rows())),
                      list(map(list, b.half2.rows()))],
        "intersection_dims": {"U1": list(p1), "U2": list(p2)},
    }


def proj_witness_certificate(n, m, k, j, t, field, w):
    (u1, u2), dims = _proj_pair_dims(field, n, m, t, w)
    return {
        "params": {"family": "proj", "q": field.q, "n": n, "m": m, "k": k, "j": j},
        "t": t,
        "pair": [list(map(list, u1.rows())), list(map(list, u2.rows()))],
        "witness": list(map(list, w.rows())),
        "intersection_dims": list(dims),
    }
