"""Constructive witnesses: explicit subspaces and bisections realizing
incidences, so completeness claims come with checkable certificates.

Every public operation verifies its own output once, with the independent
subspace primitives; a construction that cannot be completed raises rather
than guessing.  A collinear witness's certificate records the verification
just made (a one-entry memo); one for any other W computes its own.
Pair-specific constructions work on the canonical pair U1 = <e_1..e_m>,
U2 = <e_{m-t+1}..e_{2m-t}> and its pieces (subspace.canonical_pieces),
all coordinate subspaces; the two branches that build their own pair are
transported back by an explicit change of basis.  The projective witness
is written down with no elimination.  For m <= n/2 the subset witness
gives disjoint column sets, and W's canonical rows are their 0/1
indicator rows ordered by least column: each row's first 1 is at its
least column, where every other row is 0.  For m > n/2 it needs no
change of basis: perp U1, perp U2 are the canonical (n-m)-pair moved by a
cyclic coordinate shift, so W is the perp of the dual witness's sets
shifted by +m mod n.  Its canonical rows are e_c for each column c in no
set and e_s - e_max(S) for each s != max(S) in each set S, ordered by
pivot: each is 0 off its pivot but at a set's maximum, which is no pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParamError, TooLargeError
from .gfq import (Mat, least_irreducible, mat_inverse, poly_mulmod,
                  rank_of_rows, rref, vec_mat)
from .subspace import (Bisection, Subspace, add_vecs, canonical_pair,
                       canonical_pieces, complement, coordinate_bisection,
                       coordinate_subspace, direct_sum, full_space,
                       grassmannian, intersection_dim, project_onto,
                       span_rows, sum_subspace, transport_pair, _unit_rows)


class PredicateFailsError(ValueError):
    """No witness exists: the closed form refuses these parameters."""


def _check(ok, what):
    """An internal consistency check that, unlike assert, survives
    python -O; a failure means a construction does not cover this case."""
    if not ok:
        raise RuntimeError(what)


# ----------------------------------------------------------------------
# diagonal subspaces
# ----------------------------------------------------------------------

def maximal_diagonal(a, b):
    """<a_i + b_i> over the shorter of the two stored bases."""
    field, n = a.field, a.n
    rows = [add_vecs(field, x, y) for x, y in zip(a.rows(), b.rows())]
    return span_rows(field, n, rows)


@dataclass(frozen=True)
class DiagonalPair:
    z1: Subspace
    z2: Subspace
    y1: Subspace
    y2: Subspace

    def verify(self):
        r = self.z1.dim
        ok = (self.z2.dim == r
              and intersection_dim(self.z1, self.z2) == 0)
        for z in (self.z1, self.z2):
            for y in (self.y1, self.y2):
                ok = ok and intersection_dim(z, y) == 0
        return ok


def diagonal_pair(y1, y2, r):
    """Two disjoint diagonal r-subspaces of Y1 (+) Y2.

    Exists iff (max(dim Y1, dim Y2), q) != (1, 2); for q = 2 the second
    subspace shifts the second index, with a corrected first vector when
    r equals both dimensions.
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
    es, fs = a.rows(), b.rows()
    add = lambda u, v: add_vecs(field, u, v)
    z1 = span_rows(field, a.n, [add(es[i], fs[i]) for i in range(r)])
    if q > 2:
        scalar = 2  # a fixed element outside {0, 1}
        z2_rows = [add(es[i], tuple(field.mul(scalar, x) for x in fs[i]))
                   for i in range(r)]
    else:
        y2dim = len(fs)
        if r == len(es) == y2dim:
            first = add(es[r - 1], add(fs[0], fs[1]))
            z2_rows = [first] + [add(es[i], fs[i + 1]) for i in range(r - 1)]
        else:
            z2_rows = [add(es[i], fs[(i + 1) % y2dim]) for i in range(r)]
    z2 = span_rows(field, a.n, z2_rows)
    pair = DiagonalPair(z1, z2, y1, y2)
    if not pair.verify():
        raise RuntimeError("diagonal pair construction failed to verify")
    return pair


def diagonal_pair_exists_bruteforce(y1, y2, r):
    """Exhaustive search for two disjoint diagonal r-subspaces (test oracle).

    Enumerates diagonals as graphs of injective maps from r-subspaces of Y1
    into Y2, independent of the constructive route.
    """
    field, n = y1.field, y1.n

    def diagonals():
        for dom in grassmannian_sub(y1, r):
            dom_rows = dom.rows()
            for images in _injective_tuples(y2, r):
                rows = [add_vecs(field, d, im) for d, im in zip(dom_rows, images)]
                yield span_rows(field, n, rows)

    all_diags = list(diagonals())
    seen = set()
    uniq = []
    for d in all_diags:
        if d not in seen:
            seen.add(d)
            uniq.append(d)
    for i, z1 in enumerate(uniq):
        for z2 in uniq[i + 1:]:
            if intersection_dim(z1, z2) == 0:
                return True
    return False


def grassmannian_sub(space, r):
    """All r-subspaces of a given subspace (via coordinates on its basis)."""
    field, n = space.field, space.n
    rows = space.rows()
    for small in grassmannian(space.dim, field, r):
        big_rows = []
        for coeffs in small.rows():
            v = (0,) * n
            for c, row in zip(coeffs, rows):
                if c:
                    v = add_vecs(field, v, tuple(field.mul(c, x) for x in row))
            big_rows.append(v)
        yield span_rows(field, n, big_rows)


def _injective_tuples(space, r):
    """Ordered r-tuples of linearly independent vectors of a subspace."""
    field, n = space.field, space.n
    vectors = [v for v in space.vectors() if any(v)]

    def rec(chosen):
        if len(chosen) == r:
            yield tuple(chosen)
            return
        for v in vectors:
            trial = chosen + [v]
            if rank_of_rows(field, trial, n) == len(trial):
                yield from rec(trial)

    yield from rec([])


# ----------------------------------------------------------------------
# subset witnesses (the symmetric-group shadow of the subspace problem)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SetWitness:
    p_set: frozenset
    k_set: frozenset | None
    partition: tuple | None


def subset_witness(n, m, k, j, t):
    """The explicit (n-2m+2j)-subset P meeting both canonical m-subsets in
    j points, plus a k-subset K of P or a partition of the complement.

    Canonical subsets: M1 = {1..m}, M2 = {m-t+1..2m-t}.
    """
    if not (1 <= m <= n / 2):
        raise ParamError("need 1 <= m <= n/2")
    if not (1 <= k < n):
        raise ParamError("need 1 <= k < n")
    if not (max(0, m + k - n) <= j <= min(m, k)):
        raise ParamError("inadmissible j")
    if not 2 * j <= k:
        raise ParamError("need 2j <= k")
    if not (0 <= t <= m - 1):
        raise ParamError("need 0 <= t <= m-1")
    m1 = frozenset(range(1, m + 1))
    m2 = frozenset(range(m - t + 1, 2 * m - t + 1))
    if j <= m - t:
        p1 = set(range(1, j + 1))
        p2 = set(range(2 * m - t - j + 1, 2 * m - t + 1))
        p = p1 | p2 | set(range(2 * m - t + 1, n - t + 1))
    elif j <= t:
        p1 = set(range(m - t + 1, m - t + j + 1))
        p = p1 | set(range(2 * m - t + 1, n + j - t + 1))
    else:
        p1 = set(range(m + 1 - j, m + j - t + 1))
        p = p1 | set(range(2 * m - t + 1, n + 1))
    _check(len(p) == n - 2 * m + 2 * j, "subset witness: |P| off")
    _check(len(p & m1) == j and len(p & m2) == j,
           "subset witness: P meets M1, M2 wrongly")
    k_set = None
    partition = None
    if 0 <= k - 2 * j <= n - 2 * m:
        core = (p & m1) | (p & m2)
        pad = sorted(p - m1 - m2)
        k_set = frozenset(sorted(core) + pad[:k - len(core)])
        _check(len(k_set) == k, "subset witness: |K| off")
        _check(len(k_set & m1) == j and len(k_set & m2) == j,
               "subset witness: K meets M1, M2 wrongly")
    else:
        rest = set(range(1, n + 1)) - p
        _check(len(rest) == 2 * m - 2 * j,
               "subset witness: complement of P has the wrong size")
        # pair across the two subsets so no part lies inside M1 or M2
        only1 = sorted(rest & (m1 - m2))
        only2 = sorted(rest & (m2 - m1))
        both = sorted(rest & m1 & m2)
        outside = sorted(rest - m1 - m2)
        _check(len(only1) == len(only2) and len(both) == len(outside),
               "subset witness: cross pairing impossible")
        pairs = list(zip(only1, only2)) + list(zip(both, outside))
        num_parts = (k - 2 * j) - (n - 2 * m)
        _check(1 <= num_parts <= len(pairs),
               "subset witness: part count out of range")
        parts = [frozenset(pr) for pr in pairs[:num_parts - 1]]
        tail = [x for pr in pairs[num_parts - 1:] for x in pr]
        parts.append(frozenset(tail))
        for part in parts:
            _check(not part <= m1 and not part <= m2,
                   "subset witness: a part lies inside M1 or M2")
        partition = tuple(parts)
    return SetWitness(frozenset(p), k_set, partition)


def proj_collinear_witness(n, m, k, j, t, field):
    """A k-subspace meeting both canonical m-subspaces in dimension j.

    Exists precisely when 2j <= k + max(0, 2m-n); built from the subset
    witness for m <= n/2, else as perp of the witness Wb at (n-m, n-k,
    n-m-k+j, n-2m+t) under the shift e_i -> e_{i+m mod n}.  The shift
    takes the canonical (n-m)-pair with overlap n-2m+t to perp U1 =
    <e_{m+1}..e_n> and perp U2 (the coordinates outside U2), so
    dim(W meet Ui) = n - dim(shifted Wb + perp Ui) = j.
    """
    if not (max(0, m + k - n) <= j <= min(m, k)):
        raise ParamError("inadmissible j")
    if not (max(0, 2 * m - n) <= t <= m - 1):
        raise ParamError("overlap t out of range")
    if 2 * j > k + max(0, 2 * m - n):
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
    """proj_collinear_witness unverified, written down from disjoint column
    sets with no elimination; only the outer result is checked, by
    _proj_pair_dims, whose meet kernel trusts the rows to be canonical.

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
    """The disjoint 0-based column sets whose indicator rows span the
    witness for m <= n/2: the singletons of K, or those of P and the
    parts of the partition of the rest (subset_witness)."""
    sw = subset_witness(n, m, k, j, t)
    if sw.k_set is not None:
        return [[i - 1] for i in sw.k_set]
    return ([[i - 1] for i in sw.p_set]
            + [[i - 1 for i in part] for part in sw.partition])


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


@lru_cache(maxsize=1)
def _proj_pair_dims(field, n, m, t, w):
    """The canonical pair at overlap t and (dim W meet U1, dim W meet U2):
    a witness's verification, which its certificate reads again."""
    u1, u2 = canonical_pair(field, n, m, t)
    return (u1, u2), (intersection_dim(w, u1), intersection_dim(w, u2))


# ----------------------------------------------------------------------
# bisection witnesses for the collinear side
# ----------------------------------------------------------------------

def bis_collinear_predicate(q, m, k, k1, k2):
    """3 k2 <= k + 1 + m + k1, excluding the single small exception."""
    return 3 * k2 <= k + 1 + m + k1 and (q, m, k, k1, k2) != (2, 1, 1, 0, 0)


def _span_slice(space, a, b=None):
    """The span of a run of space's canonical rows: rows taken from an
    rref basis are the rref basis of their span, so none is eliminated."""
    return Subspace(space.field, space.n, space.rows()[a:b])


def _graph_rows(field, dom_rows, target_rows):
    """Rows w_i + z_i pairing a domain basis with distinct target rows."""
    _check(len(dom_rows) <= len(target_rows), "graph: too few target rows")
    return [add_vecs(field, w, z) for w, z in zip(dom_rows, target_rows)]


def complementary_pair_avoiding(ambient, x1, x2, d1, d2):
    """(A1, A2) with ambient = A1 (+) A2, dims (d1, d2), both disjoint
    from the disjoint equal-dimensional subspaces X1, X2 of ambient."""
    field, n = ambient.field, ambient.n
    q = field.q
    d = x1.dim
    if x2.dim != d or d1 + d2 != ambient.dim or d > min(d1, d2):
        raise ParamError("dimension bookkeeping failed")
    if d == 0:
        return _span_slice(ambient, 0, d1), _span_slice(ambient, d1)
    x = direct_sum([x1, x2])
    c = complement(x, ambient)
    if (d, q) != (1, 2):
        dp = diagonal_pair(x1, x2, d)
        cr = c.rows()
        a1 = direct_sum([dp.z1, Subspace(field, n, cr[:d1 - d])])
        a2 = direct_sum([dp.z2, Subspace(field, n, cr[d1 - d:])])
    else:
        if ambient.dim == 2:
            raise RuntimeError("no avoiding split of a 2-dimensional space "
                               "over GF(2)")
        v1, v2 = x1.rows()[0], x2.rows()[0]
        cr = c.rows()
        mixed = [add_vecs(field, v1, v2), add_vecs(field, v1, cr[0])]
        if d2 >= 2:
            a1 = Subspace(field, n, cr[:d1])
            a2 = span_rows(field, n, mixed + list(cr[d1:]))
        else:
            a2 = Subspace(field, n, cr[:d2])
            a1 = span_rows(field, n, mixed + list(cr[d2:]))
    _assert_avoiding(ambient, x1, x2, a1, a2, d1, d2)
    return a1, a2


def _assert_avoiding(ambient, x1, x2, a1, a2, d1, d2):
    ok = (a1.dim == d1 and a2.dim == d2
          and intersection_dim(a1, a2) == 0
          and all(intersection_dim(a, x) == 0
                  for a in (a1, a2) for x in (x1, x2)))
    if not ok:
        raise RuntimeError("avoiding split failed verification")


def bis_collinear_witness(params, t):
    """A bisection incident with both canonical m-subspaces at overlap t.

    Requires m <= k (dualize first otherwise).  The construction follows
    the regime of (t, k1, k2, q): small overlap extends disjoint pieces of
    the two subspaces, large overlap assembles diagonal subspaces against
    a complement, and the handful of tight q=2 configurations use either
    the near-half table or the dedicated small-case build.
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
        if (k1, k2) == (0, 0):
            b = _disjoint_pattern_witness(params, t)
        elif q == 2 and k1 == 0 and m == k and k2 == k - 1 and t >= 1:
            b = near_half_table_bisection(field, k, t)
        elif t <= k1:
            b = _small_overlap_witness(params, t)
        elif t <= 2 * k1:
            b = _mid_overlap_witness(params, t)
        elif t <= m + k1 - k2:
            b = _balanced_overlap_witness(params, t)
        elif t <= k2:
            b = _deep_overlap_graph_witness(params, t)
        elif t >= k1 + k2:
            b = _deep_overlap_wide_witness(params, t)
        else:
            b = _deep_overlap_narrow_witness(params, t)
        _check(b.n == 2 * k, "witness bisection in the wrong ambient space")
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
    pair = canonical_pair(field, 2 * k, m, t)
    return pair, tuple(tuple(sorted((intersection_dim(u, b.half1),
                                     intersection_dim(u, b.half2))))
                       for u in pair)


# -- pattern (0,0): both halves disjoint from both subspaces -------------

def _disjoint_pattern_witness(params, t):
    field = params.field
    q, m, k = field.q, params.m, params.k
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, p1, p2, c = canonical_pieces(field, n, m, t)
    a_fail = (q == 2 and m - t == 1)
    b_fail = (q == 2 and k - m + t == 1)
    cr = c.rows()
    if not a_fail and not b_fail:
        c1 = span_rows(field, n, list(tt.rows()) + list(cr[:k - m]))
        c2 = Subspace(field, n, cr[k - m:])
        dp = diagonal_pair(p1, p2, m - t)
        if k - m + t > 0:
            ep = diagonal_pair(c1, c2, k - m + t)
            v1 = direct_sum([dp.z1, ep.z1])
            v2 = direct_sum([dp.z2, ep.z2])
        else:
            v1, v2 = dp.z1, dp.z2
        return Bisection(v1, v2)
    if a_fail:
        c3 = Subspace(field, n, cr[:k - m + t])
        c4 = Subspace(field, n, cr[k - m + t:])
        if m <= k - 1:
            d1 = maximal_diagonal(p1, p2)
            v1 = direct_sum([d1, c3]) if c3.dim else d1
            d2 = maximal_diagonal(u2, c3)
            v2 = direct_sum([d2, c4]) if c4.dim else d2
            return Bisection(v1, v2)
        w1, w2, b = _own_pair_high_overlap(field, k)
    elif m == k - 1 and t == 0:  # b_fail only
        c3 = Subspace(field, n, cr[:1])
        c4 = Subspace(field, n, cr[1:])
        dp = diagonal_pair(p1, p2, m)
        v1 = direct_sum([dp.z1, c3])
        v2 = direct_sum([dp.z2, c4])
        return Bisection(v1, v2)
    else:  # b_fail only, m == k, t == 1, k >= 3
        w1, w2, b = _own_pair_low_overlap(field, k)
    return b.apply(transport_pair(w1, w2, u1, u2))


def _own_pair_high_overlap(field, k):
    """q=2, m=k, overlap k-1: a diagonal pair against the coordinate bisection."""
    n = 2 * k
    b = coordinate_bisection(field, k)
    diag = [tuple(1 if j in (i, k + i) else 0 for j in range(n)) for i in range(k)]
    u1 = span_rows(field, n, diag)
    last = list(diag[k - 1])
    last[0] = 1  # u + v with v the V1-projection of the first overlap vector
    u2 = span_rows(field, n, diag[:k - 1] + [tuple(last)])
    return u1, u2, b


def _own_pair_low_overlap(field, k):
    """q=2, m=k >= 3, overlap 1: two maximal diagonals sharing one line."""
    n = 2 * k
    b = coordinate_bisection(field, k)
    diag = [tuple(1 if j in (i, k + i) else 0 for j in range(n)) for i in range(k)]
    u1 = span_rows(field, n, diag)
    v1p = coordinate_subspace(field, n, range(1, k))
    v2p = coordinate_subspace(field, n, range(k + 1, n))
    dp = diagonal_pair(v1p, v2p, k - 1)
    u2 = direct_sum([dp.z2, span_rows(field, n, [diag[0]])])
    return u1, u2, b


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


def near_half_table_bisection(field, k, t):
    """The tabulated bisection for q=2, m=k, pattern (0, k-1), overlap t."""
    if field.q != 2 or (k, t) not in _NEAR_HALF_TABLE:
        raise ParamError("no tabulated bisection here")
    n = 2 * k
    v1_ix, v2_ix = _NEAR_HALF_TABLE[(k, t)]

    def rows_from(ixs):
        out = []
        for combo in ixs:
            v = [0] * n
            for i in combo:
                v[i - 1] = 1
            out.append(tuple(v))
        return out

    return Bisection(span_rows(field, n, rows_from(v1_ix)),
                     span_rows(field, n, rows_from(v2_ix)))


def _small_case_witness(params, t):
    """q=2, k1=0, k2=k-1-t, m=k: one half absorbs most of each subspace."""
    field, m, k, k2 = params.field, params.m, params.k, params.k2
    n = 2 * k
    tt, c1, c2, c = canonical_pieces(field, n, m, t)
    x1, ub1 = c1.rows()[0], _span_slice(c1, 1)
    x2, ub2 = c2.rows()[0], _span_slice(c2, 1)
    d1 = add_vecs(field, x1, ub2.rows()[0])
    d2 = add_vecs(field, x1, x2)
    d3 = [add_vecs(field, cv, tv) for cv, tv in zip(c.rows(), tt.rows())]
    v1 = span_rows(field, n, list(ub1.rows()) + [d1] + d3)
    v2 = span_rows(field, n, list(ub2.rows()) + [d2] + list(c.rows()))
    _check(v1.dim == k and v2.dim == k, "small-case dimensions off")
    return Bisection(v1, v2)


# -- overlap t <= k1 ------------------------------------------------------

def _small_overlap_witness(params, t):
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, c1, c2, _ = canonical_pieces(field, n, m, t)
    r1, r2 = c1.rows(), c2.rows()
    u12 = span_rows(field, n, list(tt.rows()) + list(r1[:k1 - t]))
    u22 = span_rows(field, n, list(tt.rows()) + list(r2[:k2 - t]))
    u11 = Subspace(field, n, r1[k1 - t:k1 - t + k2])
    u21 = Subspace(field, n, r2[k2 - t:k2 - t + k1])
    b1 = direct_sum([u11, u21]) if u21.dim else u11
    b2 = sum_subspace(u12, u22)
    _check(b2.dim == k1 + k2 - t, "small overlap: dim B2 off")
    ball = sum_subspace(b1, b2)
    _check(ball.dim == 2 * (k1 + k2) - t, "small overlap: dim B off")
    dim_vbar = n - ball.dim
    mbar = m - k1 - k2
    if q == 2 and dim_vbar == 2 and mbar == 1:
        # forced: t = 0 and m = k = k1 + k2 + 1
        if k1 > 0:
            e1 = complement(direct_sum([u11, u12]), u1).rows()[0]
            e2 = complement(direct_sum([u21, u22]), u2).rows()[0]
            f1 = u11.rows()[0]
            f2 = u21.rows()[0]
            v1 = direct_sum([b1, span_rows(field, n, [add_vecs(field, e1, e2)])])
            mix = add_vecs(field, add_vecs(field, e1, f1), f2)
            v2 = direct_sum([b2, span_rows(field, n, [mix])])
            return Bisection(v1, v2)
        return _small_case_witness(params, t)
    vbar = complement(ball, full_space(field, n))
    d1, d2 = k - k1 - k2, k - k1 - k2 + t
    if mbar == 0:
        a1, a2 = _span_slice(vbar, 0, d1), _span_slice(vbar, d1)
    else:
        ub1 = project_onto(u1, ball, vbar)
        ub2 = project_onto(u2, ball, vbar)
        _check(ub1.dim == mbar and ub2.dim == mbar,
               "small overlap: projected dimensions off")
        _check(intersection_dim(ub1, ub2) == 0,
               "small overlap: projections meet")
        a1, a2 = complementary_pair_avoiding(vbar, ub1, ub2, d1, d2)
    v1 = direct_sum([b1, a1]) if a1.dim else b1
    v2 = direct_sum([b2, a2]) if a2.dim else b2
    return Bisection(v1, v2)


# -- overlap k1 < t <= 2 k1 ----------------------------------------------

def _mid_overlap_witness(params, t):
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, c1, c2, _ = canonical_pieces(field, n, m, t)
    tr = tt.rows()
    u12 = Subspace(field, n, tr[:k1])
    r2 = c2.rows()
    u22 = span_rows(field, n, list(u12.rows()) + list(r2[:k2 - k1]))
    s = complement(u12, tt)  # (t - k1)-dimensional
    r1 = c1.rows()
    u11 = span_rows(field, n, list(s.rows()) + list(r1[:k2 - (t - k1)]))
    u21 = span_rows(field, n,
                    list(s.rows()) + list(r2[k2 - k1:k2 - k1 + (2 * k1 - t)]))
    b1 = sum_subspace(u11, u21)
    _check(b1.dim == 2 * k1 + k2 - t, "mid overlap: dim B1 off")
    b2 = u22
    ball = sum_subspace(b1, b2)
    _check(ball.dim == 2 * (k1 + k2) - t, "mid overlap: dim B off")
    mbar = m - k1 - k2
    if q == 2 and n - ball.dim == 2 and mbar == 1:
        raise RuntimeError("impossible tight configuration reached")
    vbar = complement(ball, full_space(field, n))
    d1, d2 = k - 2 * k1 - k2 + t, k - k2
    if mbar == 0:
        a1, a2 = _span_slice(vbar, 0, d1), _span_slice(vbar, d1)
    else:
        ub1 = project_onto(u1, ball, vbar)
        ub2 = project_onto(u2, ball, vbar)
        a1, a2 = complementary_pair_avoiding(vbar, ub1, ub2, d1, d2)
    v1 = direct_sum([b1, a1]) if a1.dim else b1
    v2 = direct_sum([b2, a2]) if a2.dim else b2
    return Bisection(v1, v2)


# -- overlap 2 k1 < t <= m + k1 - k2 --------------------------------------

def _balanced_overlap_witness(params, t):
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, c1, c2, _ = canonical_pieces(field, n, m, t)
    tr = tt.rows()
    u11 = Subspace(field, n, tr[:k1])
    u22 = Subspace(field, n, tr[k1:2 * k1])
    u12 = span_rows(field, n, list(u22.rows()) + list(c1.rows()[:k2 - k1]))
    u21 = span_rows(field, n, list(u11.rows()) + list(c2.rows()[:k2 - k1]))
    t3 = Subspace(field, n, tr[2 * k1:])  # dim t - 2 k1
    core_parts = [p for p in (u12, u21, t3) if p.dim]
    core = direct_sum(core_parts)
    vbar = complement(core, full_space(field, n))
    mbar = m + k1 - k2 - t
    if mbar > 0:
        ub1 = project_onto(u1, core, vbar)
        ub2 = project_onto(u2, core, vbar)
        _check(ub1.dim == mbar and intersection_dim(ub1, ub2) == 0,
               "balanced overlap: projections off")
        ubar = direct_sum([ub1, ub2])
        rest = complement(ubar, vbar)
    else:
        ub1 = ub2 = None
        rest = vbar
    t1 = Subspace(field, n, rest.rows()[:t - 2 * k1])
    t2 = maximal_diagonal(t1, t3)
    after = Subspace(field, n, rest.rows()[t - 2 * k1:])
    half = k - m + k1
    s1 = _span_slice(after, 0, half)
    s2 = _span_slice(after, half, 2 * half)
    _check(after.dim == 2 * half, "balanced overlap: remainder dimension off")
    if mbar == 0:
        v1 = direct_sum([p for p in (u21, t1, s1) if p.dim])
        v2 = direct_sum([p for p in (u12, t2, s2) if p.dim])
        return Bisection(v1, v2)
    r = mbar + half
    if q == 2 and r == 1:
        # forced: m = k, k1 = 0, k2 = k - 1 - t with t >= 1
        return _small_case_witness(params, t)
    y1 = direct_sum([p for p in (ub1, s1) if p.dim])
    y2 = direct_sum([p for p in (ub2, s2) if p.dim])
    dp = diagonal_pair(y1, y2, r)
    v1 = direct_sum([p for p in (u21, t1, dp.z1) if p.dim])
    v2 = direct_sum([p for p in (u12, t2, dp.z2) if p.dim])
    return Bisection(v1, v2)


# -- overlap t > m + k1 - k2, t <= k2 (graph completion) ------------------

def _deep_overlap_graph_witness(params, t):
    field = params.field
    m, k, k1, k2 = params.m, params.k, params.k1, params.k2
    n = 2 * k
    tt, c1, c2, cc = canonical_pieces(field, n, m, t)
    v21 = Subspace(field, n, c1.rows()[:k2 - t])
    ub1 = Subspace(field, n, c1.rows()[k2 - t:])
    v22 = Subspace(field, n, c2.rows()[:k2 - t])
    ub2 = Subspace(field, n, c2.rows()[k2 - t:])
    t2 = direct_sum([p for p in (v21, v22, tt) if p.dim])
    ccr = cc.rows()
    split = k + 2 * k2 - 2 * m
    cc1 = Subspace(field, n, ccr[:split])
    cc2 = Subspace(field, n, ccr[split:])
    v2 = direct_sum([p for p in (cc2, t2) if p.dim])
    v11_rows = list(ub1.rows()[:k1])
    v12_rows = list(ub2.rows()[:k1])
    w1_rows = list(ub1.rows()[k1:])
    w2_rows = list(ub2.rows()[k1:])
    targets1 = list(cc2.rows()) + list(v22.rows())
    targets2 = list(cc2.rows()) + list(v21.rows())
    rows = (v11_rows + v12_rows + list(cc1.rows())
            + _graph_rows(field, w1_rows, targets1)
            + _graph_rows(field, w2_rows, targets2))
    v1 = span_rows(field, n, rows)
    _check(v1.dim == k, "graph completion dimension off")
    return Bisection(v1, v2)


# -- overlap t > k2, t >= k1 + k2 -----------------------------------------

def _deep_split(params, t):
    field = params.field
    m, k, k2 = params.m, params.k, params.k2
    n = 2 * k
    tt, ub1, ub2, cc = canonical_pieces(field, n, m, t)
    tr = tt.rows()
    t13 = Subspace(field, n, tr[:t - k2])
    t2 = Subspace(field, n, tr[t - k2:])
    ccr = cc.rows()
    a, b = m - t, k - k2 - m + t
    cc1 = Subspace(field, n, ccr[:a])
    cc2 = Subspace(field, n, ccr[a:a + b])
    cc3 = Subspace(field, n, ccr[a + b:])
    v2 = direct_sum([p for p in (cc1, cc2, t2) if p.dim])
    return t13, t2, ub1, ub2, cc1, cc2, cc3, v2


def _t2_against_c3_rows(field, params, t, t2, cc3):
    m, k = params.m, params.k
    if k - 2 * m + t <= 0:
        return _graph_rows(field, list(cc3.rows()), list(t2.rows()))
    c3r = cc3.rows()
    c31 = list(c3r[:params.k2])
    c32 = list(c3r[params.k2:])
    return _graph_rows(field, c31, list(t2.rows())) + c32


def _deep_overlap_wide_witness(params, t):
    field = params.field
    k1 = params.k1
    n = 2 * params.k
    t13, t2, ub1, ub2, cc1, cc2, cc3, v2 = _deep_split(params, t)
    t1_rows = list(t13.rows()[:k1])
    t3_rows = list(t13.rows()[k1:])
    du1 = _graph_rows(field, list(ub1.rows()), list(cc1.rows()))
    du2 = _graph_rows(field, list(ub2.rows()), list(cc1.rows()))
    dt3 = _graph_rows(field, t3_rows, list(cc2.rows()))
    dt2 = _t2_against_c3_rows(field, params, t, t2, cc3)
    v1 = span_rows(field, n, t1_rows + du1 + du2 + dt2 + dt3)
    _check(v1.dim == params.k, "wide deep-overlap dimension off")
    return Bisection(v1, v2)


# -- overlap k2 < t < k1 + k2 ---------------------------------------------

def _deep_overlap_narrow_witness(params, t):
    field = params.field
    m, k, k1, k2 = params.m, params.k, params.k1, params.k2
    n = 2 * k
    t13, t2, ub1, ub2, cc1, cc2, cc3, v2 = _deep_split(params, t)
    v11_rows = list(ub1.rows()[:k1 + k2 - t])
    p1_rows = list(ub1.rows()[k1 + k2 - t:])
    v12_rows = list(ub2.rows()[:k1 + k2 - t])
    p2_rows = list(ub2.rows()[k1 + k2 - t:])
    p3 = [add_vecs(field, a, b) for a, b in zip(p1_rows, p2_rows)]
    cc12 = list(cc1.rows()) + list(cc2.rows())
    p4 = _graph_rows(field, p1_rows, cc12)
    dt2 = _t2_against_c3_rows(field, params, t, t2, cc3)
    v1 = span_rows(field, n,
                   v11_rows + v12_rows + list(t13.rows()) + dt2 + p3 + p4)
    _check(v1.dim == k, "narrow deep-overlap dimension off")
    return Bisection(v1, v2)


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
    if k == 1:
        out = [coordinate_subspace(field, n, [1])]
        for a in range(q):
            out.append(span_rows(field, n, [(1, a)]))
        return out
    modulus = least_irreducible(field, k)
    spread = [coordinate_subspace(field, n, range(k, n))]
    for code in range(q**k):
        a, c = [], code
        for _ in range(k):
            a.append(c % q)
            c //= q
        rows = []
        for i in range(k):  # row i: e_i beside x^i * a mod the modulus
            row = [0] * n
            row[i] = 1
            row[k:] = poly_mulmod(field, a, [0] * i + [1], modulus)
            rows.append(tuple(row))
        spread.append(span_rows(field, n, rows))
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


def fifth_disjoint(pis, budget=10**7):
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
    for steps, cand in enumerate(grassmannian(n, field, k), 1):
        if steps > budget:
            raise TooLargeError("scan budget exceeded")
        if all(intersection_dim(cand, p) == 0 for p in pis):
            return cand  # the scan's own test is its verification
    raise RuntimeError("no disjoint subspace found (impossible)")


def _fifth_disjoint_gf2(pis):
    field = pis[0].field
    n, k = pis[0].n, pis[0].dim
    pi1, pi2, pi3, pi4 = pis
    base = Mat(field, list(pi1.rows()) + list(pi2.rows()))
    base_inv = mat_inverse(base)
    xs, ys = [], []
    for c in pi3.rows():
        coords = vec_mat(c, base_inv)
        x = [0] * n
        y = [0] * n
        for i in range(k):
            if coords[i]:
                x = list(add_vecs(field, tuple(x), pi1.rows()[i]))
            if coords[k + i]:
                y = list(add_vecs(field, tuple(y), pi2.rows()[i]))
        xs.append(tuple(x))
        ys.append(tuple(y))
    frame = Mat(field, xs + ys)
    frame_inv = mat_inverse(frame)
    m4 = Mat(field, [vec_mat(r, frame_inv) for r in pi4.rows()])
    red, rank, pivots = rref(m4)
    if rank != k or pivots != list(range(k)):
        raise RuntimeError("normalisation failed: fourth space "
                           "not a graph over the first")
    a = Mat(field, [row[k:] for row in red.entries[:k]])
    a_inv = mat_inverse(a)
    new_rows = []
    for i in range(k):
        row = [0] * n
        row[i] = 1
        for j in range(k):
            row[k + j] = a_inv.entries[i][j]
        new_rows.append(tuple(row))
    return span_rows(field, n, [vec_mat(r, frame) for r in new_rows])


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
