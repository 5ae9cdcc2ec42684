"""Predicates, brute-force oracles, and their agreement on small ranges."""

from itertools import combinations

import pytest

from glgeom.gfq import field_make
from glgeom.errors import ParamError
from glgeom.geometry import BisParams, ProjParams
from glgeom.counts import restricted_movement_sufficient, TooLargeError
from glgeom.oracle import (bis_collinear_oracle, bis_collinear_search,
                           concurrent_oracle, pair_has_common_point,
                           proj_collinear_oracle, proj_collinear_search)
from glgeom.orbits import stabiliser_orbits_on_bisections
from glgeom.predicates import (bis_collinear_predicate,
                               bis_concurrent_predicate,
                               proj_collinear_predicate)
from glgeom.subspace import (Bisection, coded_subspace,
                             coordinate_bisection, coordinate_subspace,
                             grassmannian, grassmannian_index,
                             intersection_dim, span_rows)
from glgeom.witness import canonical_pair, desarguesian_spread
from bis_witness_reference import incident_bis
from concurrent_reference import bisections, concurrent_all_pairs
from lattice_reference import vectors
from paper_checks import induction_step_check

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
FIELDS = {2: F2, 3: F3, 4: F4}


# ---------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------

def test_proj_predicate_examples():
    assert proj_collinear_predicate(4, 2, 2, 1)
    assert not proj_collinear_predicate(6, 3, 3, 2)
    assert proj_collinear_predicate(7, 2, 3, 0)
    with pytest.raises(ParamError, match="j outside the admissible interval"):
        proj_collinear_predicate(4, 2, 2, 3)


def test_proj_predicate_truncation_rule():
    """For the dimension-(m, m, m-1) family: complete iff m = 2 or m = n-2."""
    for n in range(4, 9):
        for m in range(2, n - 1):
            assert proj_collinear_predicate(n, m, m, m - 1) == \
                (m == 2 or m == n - 2)


def test_bis_collinear_predicate_examples():
    assert not bis_collinear_predicate(2, 1, 1, 0, 0)
    assert bis_collinear_predicate(3, 1, 1, 0, 0)
    assert bis_collinear_predicate(2, 4, 4, 0, 3)     # 9 <= 9
    assert not bis_collinear_predicate(2, 5, 5, 0, 4)  # 12 > 11


def test_bis_concurrent_predicate_examples():
    assert bis_concurrent_predicate(2, 1, 1, 0, 1) == "complete"
    assert bis_concurrent_predicate(4, 1, 1, 0, 0) == "complete"
    assert bis_concurrent_predicate(2, 2, 2, 0, 0) == "incomplete"
    assert bis_concurrent_predicate(2, 1, 2, 0, 0) == "complete"
    assert bis_concurrent_predicate(3, 1, 1, 0, 1) == "incomplete"
    assert bis_concurrent_predicate(3, 2, 2, 0, 1) == "unresolved"
    assert bis_concurrent_predicate(2, 3, 3, 0, 1) == "unresolved"
    # duality reduction inside the predicate
    assert bis_concurrent_predicate(2, 3, 2, 1, 2) == \
        bis_concurrent_predicate(2, 1, 2, 0, 1)


# ---------------------------------------------------------------------
# collinear oracles
# ---------------------------------------------------------------------

def test_proj_oracle_examples():
    assert proj_collinear_oracle(ProjParams(3, 1, 2, 1, F2)).complete
    v = proj_collinear_oracle(ProjParams(6, 3, 3, 2, F2))
    assert not v.complete and v.failing_t == 0
    assert proj_collinear_oracle(ProjParams(4, 2, 2, 1, F2)).complete
    assert proj_collinear_oracle(ProjParams(5, 2, 2, 0, F3)).complete


def test_proj_oracle_pure_search_mode():
    for (n, m, k, j) in [(4, 2, 2, 1), (4, 1, 2, 1), (4, 3, 2, 1), (3, 1, 2, 0)]:
        for field in (F2, F3):
            p = ProjParams(n, m, k, j, field)
            assert proj_collinear_search(p).complete == \
                proj_collinear_oracle(p).complete == \
                proj_collinear_predicate(n, m, k, j)


def test_bis_oracle_examples():
    assert not bis_collinear_oracle(BisParams(1, 1, 0, 0, F2)).complete
    assert bis_collinear_oracle(BisParams(1, 1, 0, 0, F3)).complete
    assert bis_collinear_oracle(BisParams(2, 2, 0, 1, F2)).complete


def test_bis_oracle_duality_coherence():
    for (q, k, field) in [(2, 1, F2), (2, 2, F2), (3, 1, F3), (3, 2, F3)]:
        for m in range(1, 2 * k):
            for k1 in range(0, k + 1):
                for k2 in range(k1, k + 1):
                    try:
                        p = BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue
                    a = bis_collinear_oracle(p).complete
                    b = bis_collinear_oracle(p.dual()).complete
                    assert a == b


def _first_failing_t(t_range, field, n, m, has_line):
    """Plain per-line reference scan: the first t whose canonical pair
    (witness.canonical_pair) lies on no common line, or None."""
    for t in t_range:
        if not has_line(*canonical_pair(field, n, m, t)):
            return t
    return None


@pytest.mark.parametrize("field", [F2, F3])
def test_proj_oracle_matches_per_line_scan(field):
    """Cell scan on the moved pair against one rank test per line of the
    whole Grassmannian on the canonical pair, at every admissible point."""
    for n in range(2, 6):
        for m in range(1, n):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    if m == k == j:
                        continue
                    lines = list(grassmannian(n, field, k))
                    want = _first_failing_t(
                        range(max(0, 2 * m - n), m), field, n, m,
                        lambda u1, u2: any(
                            intersection_dim(w, u1) == j
                            and intersection_dim(w, u2) == j for w in lines))
                    got = proj_collinear_search(ProjParams(n, m, k, j, field))
                    assert (got.complete, got.failing_t) == \
                        (want is None, want), (n, m, k, j)


@pytest.mark.parametrize("field", [F2, F3])
def test_bis_oracle_matches_per_line_scan(field):
    """Dimension tables and streamed disjoint partners against incident_bis
    on every bisection, at every admissible point with k <= 2, m < 2k."""
    for k in (1, 2):
        lines = list(bisections(k, field))
        for m in range(1, 2 * k):
            for k1 in range(k + 1):
                for k2 in range(k1, k + 1):
                    try:
                        params = BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue
                    want = _first_failing_t(
                        range(max(0, 2 * m - 2 * k), m), field, 2 * k, m,
                        lambda u1, u2: any(
                            incident_bis(params, u1, b)
                            and incident_bis(params, u2, b) for b in lines))
                    got = bis_collinear_search(params)
                    assert (got.complete, got.failing_t) == \
                        (want is None, want), (k, m, k1, k2)


def test_bis_oracle_budget(monkeypatch):
    """Three table scans of the 27 vectors of the 33,880 3-subspaces of
    V(6,3) exceed the budget, and so, at the default budget, do four scans
    coding 81 vectors of each of the 75,913,222 4-subspaces of V(8,3),
    though the subspaces alone would fit; both are refused before any
    subspace is listed.  (3,3,0,0) is decided by the witness and never
    scanned."""
    import glgeom.oracle as oc

    def refuse(*args):
        raise AssertionError("listed")
    monkeypatch.setattr(oc, "grassmannian_index", refuse)
    with pytest.raises(TooLargeError):
        bis_collinear_oracle(BisParams(3, 3, 0, 3, F3), budget=10)
    with pytest.raises(TooLargeError):
        bis_collinear_oracle(BisParams(4, 4, 0, 4, F3))
    assert bis_collinear_oracle(BisParams(3, 3, 0, 0, F3), budget=10).complete


def test_collinear_budgets_count_what_the_scan_lists(monkeypatch):
    """The budget counts what one scan lists times the overlaps from the
    first that falls through to the scan (t = 0 at both points) to the
    last: exactly that passes, one less is refused.  One proj scan lists
    the subspaces of the cells (the point fails at t = 0, after one scan);
    one bis scan codes the vectors of every k-subspace in its index, each
    rebuilt here from its code."""
    import glgeom.oracle as oc
    listed = []
    real_cell, real_index = oc.schubert_cell, oc.grassmannian_index

    def cell(*args):
        for w in real_cell(*args):
            listed.append(w)
            yield w

    def whole(n, field, m):
        codes, masks = real_index(n, field, m)
        listed.extend(coded_subspace(field, n, m, c) for c in codes)
        return codes, masks
    monkeypatch.setattr(oc, "schubert_cell", cell)
    monkeypatch.setattr(oc, "grassmannian_index", whole)
    cases = ((ProjParams(6, 3, 3, 2, F3), proj_collinear_oracle, 0, len),
             (BisParams(2, 2, 0, 2, F3), bis_collinear_oracle, 1,
              lambda subs: sum(len(list(vectors(s))) for s in subs)))
    for params, oracle, failing_t, per_scan in cases:
        listed.clear()
        assert oracle(params, budget=10**7).failing_t == failing_t
        need = per_scan(listed) * params.m
        assert not oracle(params, budget=need).complete
        with pytest.raises(TooLargeError):
            oracle(params, budget=need - 1)


def test_witnessed_points_list_nothing(monkeypatch):
    """A point the witness decides at every t is answered without listing a
    pivot set, a cell or a k-subspace, however large its line set."""
    import glgeom.oracle as oc

    def refuse(*args):
        raise AssertionError("listed")
    for name in ("combinations", "schubert_cell", "grassmannian_index"):
        monkeypatch.setattr(oc, name, refuse)
    v = proj_collinear_oracle(ProjParams(60, 30, 30, 15, F2), budget=10)
    assert (v.complete, v.method) == (True, "witness")
    v = bis_collinear_oracle(BisParams(4, 4, 0, 0, F3), budget=10)
    assert (v.complete, v.method) == (True, "witness")


def _exhaustive_scan_points():
    """The benchmark's exhaustive-scan points, restated, with (2,3,3,0,3)
    put back: every bisection point of criterion 2, then the grid of
    `scan --family proj --max-n 6 --qs 2,3`."""
    for q, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        for m in range(1, 2 * k):
            for k1 in range(k + 1):
                for k2 in range(k1, k + 1):
                    if k1 + k2 <= m <= k + k1:
                        yield BisParams(k, m, k1, k2, FIELDS[q])
    for q in (2, 3):
        for n in range(2, 7):
            for m in range(1, n):
                for k in range(1, n):
                    for j in range(max(0, m + k - n), min(m, k) + 1):
                        if not m == k == j:
                            yield ProjParams(n, m, k, j, FIELDS[q])


def test_oracle_is_the_witness_or_the_search():
    """At every exhaustive-scan point the oracle's verdict and failing t
    are its search's, and its method is the witness exactly where the
    closed form holds."""
    points = list(_exhaustive_scan_points())
    assert len(points) == 260
    for p in points:
        if isinstance(p, ProjParams):
            oracle, search = proj_collinear_oracle(p), proj_collinear_search(p)
            holds = proj_collinear_predicate(p.n, p.m, p.k, p.j)
        else:
            oracle, search = bis_collinear_oracle(p), bis_collinear_search(p)
            holds = bis_collinear_predicate(p.field.q, p.m, p.k, p.k1, p.k2)
        assert (oracle.complete, oracle.failing_t) == \
            (search.complete, search.failing_t), p
        assert (oracle.method == "witness") == holds, p


# ---------------------------------------------------------------------
# concurrent oracle
# ---------------------------------------------------------------------

def test_concurrent_small_examples():
    assert not concurrent_oracle(BisParams(1, 1, 0, 0, F2)).complete
    assert concurrent_oracle(BisParams(1, 1, 0, 0, F4)).complete
    assert concurrent_oracle(BisParams(1, 1, 0, 1, F2)).complete
    assert concurrent_oracle(BisParams(2, 1, 0, 0, F2)).complete


def test_bis_collinear_refused_before_masking(monkeypatch):
    """Over budget, the collinear scan refuses before it masks anything,
    the canonical pair included: at (k,k,0,k) the witness fails from
    t = 0, and the point index of V(10,5) alone would need 5^10-entry
    digit tables."""
    import glgeom.oracle as oc

    def forbidden(*args):
        raise AssertionError("listed despite the budget")
    for name in ("grassmannian_index", "point_masks"):
        monkeypatch.setattr(oc, name, forbidden)
    with pytest.raises(TooLargeError):
        bis_collinear_oracle(BisParams(2, 2, 0, 2, F2), budget=1)
    with pytest.raises(TooLargeError):
        bis_collinear_oracle(BisParams(5, 5, 0, 5, field_make(5)))


def test_common_point_rejects_foreign_bisection():
    """A bisection of another V(n,q) is refused, not masked in the
    numbering of the wrong space."""
    p = BisParams(2, 2, 0, 0, F2)
    with pytest.raises(ValueError, match="bisection in the wrong ambient"):
        pair_has_common_point(p, coordinate_bisection(F2, 2),
                              coordinate_bisection(F2, 3))


def test_concurrent_failing_pair_is_recheckable():
    p = BisParams(2, 2, 0, 0, F2)
    v = concurrent_oracle(p)
    assert not v.complete and v.failing_pair is not None
    b1, b2 = v.failing_pair
    assert not pair_has_common_point(p, b1, b2)


def test_concurrent_reproduces_stated_failing_pair():
    """The explicit uncoverable pair of bisections of V(4,2)."""
    p = BisParams(2, 2, 0, 0, F2)
    v1 = coordinate_subspace(F2, 4, [0, 1])
    v2 = coordinate_subspace(F2, 4, [2, 3])
    v3 = span_rows(F2, 4, [(0, 1, 0, 1), (0, 0, 1, 0)])
    v4 = span_rows(F2, 4, [(1, 0, 0, 0), (0, 1, 1, 0)])
    assert not pair_has_common_point(p, Bisection(v1, v2), Bisection(v3, v4))
    # exactly five nonzero vectors escape the four 2-spaces, and no 2-space
    # fits inside them
    covered = set()
    for s in (v1, v2, v3, v4):
        covered |= {v for v in vectors(s) if any(v)}
    assert len(covered) == 10
    uncovered = {(1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1),
                 (1, 1, 0, 1), (1, 1, 1, 1)}
    from itertools import product
    assert {v for v in product((0, 1), repeat=4)
            if any(v) and v not in covered} == uncovered


def test_concurrent_with_orbit_reps_matches_full_enumeration():
    reps = stabiliser_orbits_on_bisections(2, F2).representatives
    for (m, k1, k2) in [(2, 0, 0), (1, 0, 0), (2, 0, 1)]:
        p = BisParams(2, m, k1, k2, F2)
        full = concurrent_all_pairs(p)
        reduced = concurrent_oracle(p, orbit_reps=reps)
        assert full.complete == reduced.complete


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)])
def test_concurrent_route_matches_all_pairs_reference(q, k):
    """The orbit route, computing its own representatives, against the
    all-pairs scan it replaced, at every admissible point where the
    reference's budget admits all pairs: the verdicts agree, and every
    failing pair of either route is uncovered.  Both routes name a failing
    pair in the geometry they scan, the perp dual when m > k."""
    field = F4 if q == 4 else field_make(q)
    checked = 0
    for m in range(1, 2 * k):
        for k1 in range(k + 1):
            for k2 in range(k1, k + 1):
                try:
                    p = BisParams(k, m, k1, k2, field)
                except ParamError:
                    continue
                got, want = concurrent_oracle(p), concurrent_all_pairs(p)
                assert got.complete == want.complete, (m, k1, k2)
                scanned = p.dual() if m > k else p
                for v in (got, want):
                    assert (v.failing_pair is None) == v.complete
                    if v.failing_pair is not None:
                        assert not pair_has_common_point(scanned,
                                                         *v.failing_pair)
                checked += 1
    assert checked == {1: 2, 2: 8}[k]


def _concurrent_reference(params, orbit_reps=None):
    """The per-point incident_bis scan the point-mask oracle replaced, on
    the stated parameters (no perp reduction): complete iff each checked
    pair of bisections has an incident m-subspace in common."""
    field, k = params.field, params.k
    points = list(grassmannian(2 * k, field, params.m))

    def on(b):
        return {u for u in points if incident_bis(params, u, b)}
    if orbit_reps is not None:
        first = on(coordinate_bisection(field, k))
        return all(first & on(rep) for rep in orbit_reps)
    lines = [on(b) for b in bisections(k, field)]
    return all(a & b for i, a in enumerate(lines) for b in lines[i + 1:])


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_concurrent_oracle_matches_incident_bis_scan(q, k):
    """The mask oracle against the rank scan at every admissible point
    with m < 2k, with orbit representatives given and computed; the scan
    checks all pairs where the budget of concurrent_all_pairs admits them,
    and the pairs with the representatives elsewhere."""
    field = F4 if q == 4 else field_make(q)
    reps = stabiliser_orbits_on_bisections(k, field).representatives
    for m in range(1, 2 * k):
        for k1 in range(k + 1):
            for k2 in range(k1, k + 1):
                try:
                    p = BisParams(k, m, k1, k2, field)
                except ParamError:
                    continue
                assert concurrent_oracle(p, orbit_reps=reps).complete == \
                    _concurrent_reference(p, reps)
                assert concurrent_oracle(p).complete == \
                    _concurrent_reference(p, None if (q, k) != (3, 2)
                                          else reps)


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2),
                                 (2, 3)])
def test_concurrent_cell_pruning_matches_full_scan(q, k, monkeypatch):
    """With orbit representatives the oracle lists only the Schubert cells
    with k1 or k2 pivots from column k.  At every admissible (m, k1, k2),
    m > k through the perp reduction, its verdict and failing pair equal
    those of the scan over every m-subspace, and it masks exactly the
    subspaces of those cells: q^(free entries) each, which are the
    m-subspaces meeting <e_k..e_{2k-1}> in dimension k1 or k2."""
    import glgeom.oracle as oc
    field = F4 if q == 4 else field_make(q)
    n = 2 * k
    reps = stabiliser_orbits_on_bisections(k, field).representatives
    listed = []

    def counting_cells(*args):
        codes, masks = grassmannian_index(*args)
        listed.extend(masks)
        return codes, masks
    monkeypatch.setattr(oc, "grassmannian_index", counting_cells)
    suffix = coordinate_subspace(field, n, range(k, n))
    for m in range(1, n):
        for k1 in range(k + 1):
            for k2 in range(k1, k + 1):
                try:
                    p = BisParams(k, m, k1, k2, field)
                except ParamError:
                    continue
                listed.clear()
                v = concurrent_oracle(p, orbit_reps=reps)
                pruned = len(listed)
                # the oracle's own perp reduction, then the unpruned scan
                d, lines = (p.dual(), [b.dual() for b in reps]) if m > k \
                    else (p, reps)
                lines = [coordinate_bisection(field, k), *lines]
                pair = oc._uncovered_pair(d, lines)
                assert v.complete == (pair is None)
                assert v.failing_pair == pair
                assert v.complete == (oc._uncovered_pair(
                    p, [coordinate_bisection(field, k), *reps]) is None)
                cells = [c for c in combinations(range(n), d.m)
                         if sum(x >= k for x in c) in (d.k1, d.k2)]
                free = [sum(n - 1 - x for x in c) - d.m * (d.m - 1) // 2
                        for c in cells]
                assert pruned == sum(q ** f for f in free)
                assert pruned == sum(
                    1 for w in grassmannian(n, field, d.m)
                    if intersection_dim(w, suffix) in (d.k1, d.k2))


def test_concurrent_refused_before_listing(monkeypatch):
    """Over budget, the one route refuses before the point enumerator or
    any index builder runs: given representatives, at the point scan;
    without them, at the partition's count of bisections, before the
    k-subspace index is built."""
    import glgeom.oracle as oc
    import glgeom.orbits as ob
    # the 2 pairs (coordinate bisection, representative) of V(2,4) times
    # its 5 points fit, where all 45 pairs of bisections (225) did not
    v = concurrent_oracle(BisParams(1, 1, 0, 0, F4), budget=200)
    assert v.complete

    def forbidden(*args):
        raise AssertionError("listed despite the budget")
    for name in ("grassmannian_index", "point_masks", "schubert_cell"):
        monkeypatch.setattr(oc, name, forbidden)
    for name in ("grassmannian_index", "_index_orbits"):
        monkeypatch.setattr(ob, name, forbidden)
    reps = [coordinate_bisection(F2, 2)]
    with pytest.raises(TooLargeError, match="point scan"):
        concurrent_oracle(BisParams(2, 2, 0, 0, F2), orbit_reps=reps, budget=1)
    with pytest.raises(TooLargeError):
        concurrent_oracle(BisParams(2, 2, 0, 0, F2), budget=1)
    # V(4,2) has 280 bisections, one more than the budget
    with pytest.raises(TooLargeError,
                       match=r"280 bisections of V\(4,2\) exceed the budget"):
        concurrent_oracle(BisParams(2, 3, 1, 1, F2), budget=279)


def test_sufficiency_chain():
    """Occupancy above one half forces concurrent completeness (one way)."""
    reps_cache = {}
    for (q, k, field) in [(2, 1, F2), (3, 1, F3), (4, 1, F4),
                          (2, 2, F2), (3, 2, F3), (2, 3, F2)]:
        for m in range(1, k + 1):
            if not restricted_movement_sufficient(m, k, q):
                continue
            p = BisParams(k, m, 0, 0, field)
            if k >= 2:
                if (q, k) not in reps_cache:
                    reps_cache[(q, k)] = \
                        stabiliser_orbits_on_bisections(k, field).representatives
                v = concurrent_oracle(p, orbit_reps=reps_cache[(q, k)])
            else:
                v = concurrent_oracle(p)
            assert v.complete


# ---------------------------------------------------------------------
# the induction step
# ---------------------------------------------------------------------

def test_induction_vacuous_below_three():
    assert induction_step_check(2, F2)


def test_induction_base_case_guard():
    with pytest.raises(ParamError, match="not established at k=2, q=2"):
        induction_step_check(3, F2)   # the k=2, q=2 base is incomplete


def test_induction_disjoint_quadruple():
    spread = desarguesian_spread(3, F2)
    quad = (Bisection(spread[0], spread[1]), Bisection(spread[2], spread[3]))
    assert induction_step_check(3, F2, quadruples=[quad])


def test_induction_intersecting_quadruple():
    pi1 = coordinate_subspace(F2, 6, range(3))
    pi2 = coordinate_subspace(F2, 6, range(3, 6))
    pi1p = span_rows(F2, 6, [(0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0),
                             (0, 1, 0, 0, 0, 1)])
    pi2p = span_rows(F2, 6, [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                             (0, 0, 0, 0, 1, 0)])
    quad = (Bisection(pi1, pi2), Bisection(pi1p, pi2p))
    assert induction_step_check(3, F2, quadruples=[quad])


def test_quotient_chart_check_raises(monkeypatch):
    """An element outside the hyperplane chart is an internal error that,
    unlike an assert, survives python -O."""
    import glgeom.gfq as gfq
    real = gfq.vec_mat
    monkeypatch.setattr(gfq, "vec_mat",
                        lambda field, v, m: real(field, v, m)[:-1] + (1,))
    pi1 = coordinate_subspace(F2, 6, range(3))
    pi2 = coordinate_subspace(F2, 6, range(3, 6))
    pi1p = span_rows(F2, 6, [(0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0),
                             (0, 1, 0, 0, 0, 1)])
    pi2p = span_rows(F2, 6, [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                             (0, 0, 0, 0, 1, 0)])
    quad = (Bisection(pi1, pi2), Bisection(pi1p, pi2p))
    with pytest.raises(RuntimeError, match="not inside the hyperplane"):
        induction_step_check(3, F2, quadruples=[quad])


def test_induction_default_sample_q3():
    assert induction_step_check(3, F3)
