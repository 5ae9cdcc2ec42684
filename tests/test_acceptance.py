"""The acceptance gate: one test per criterion, exact comparisons throughout.

Every check here is integer/rational with zero tolerance.  Each test
prints a single PASS line on success (visible with -s; the -v test status
itself is the per-criterion pass/fail line).
"""

import pytest

from glgeom.gfq import field_make
from glgeom.counts import (disjoint_count_identity_check, f_value, gaussian,
                           h_lower_bound, h_value)
from glgeom.errors import ParamError
from glgeom.geometry import BisParams, ProjParams
from glgeom.oracle import (bis_collinear_oracle, bis_collinear_search,
                           concurrent_oracle, pair_has_common_point,
                           proj_collinear_oracle)
from glgeom.orbits import GOLDEN_ORBITS, stabiliser_orbits_on_bisections
from glgeom.predicates import (bis_collinear_predicate,
                               bis_concurrent_predicate,
                               proj_collinear_predicate)
from glgeom.subspace import (Bisection, coordinate_subspace, grassmannian,
                             intersection_dim, perp, span_rows)
from glgeom.weyl import (double_coset_count, subset_geometry_closed_form,
                         subset_geometry_oracle, young_orbit_count)
from glgeom.witness import (PredicateFailsError, bis_collinear_witness,
                            canonical_pair, desarguesian_spread, diagonal_pair,
                            fifth_disjoint, near_half_table_bisection,
                            proj_collinear_witness, verify_partial_spread,
                            _NEAR_HALF_TABLE)
from diagonal_reference import diagonal_pair_exists_bruteforce
from glgeom.orbits import pm_orbits_on_k_spaces
from fractions import Fraction

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
FIELDS = {2: F2, 3: F3, 4: F4}


@pytest.fixture(scope="module")
def orbit_reps():
    return {
        (3, 2): stabiliser_orbits_on_bisections(2, F3),
        (2, 3): stabiliser_orbits_on_bisections(3, F2),
        (2, 2): stabiliser_orbits_on_bisections(2, F2),
    }


def test_criterion_1_parabolic_equivalence_suite():
    """Oracle = predicate and witness iff predicate, n <= 6, q in {2,3}."""
    checked = 0
    for q in (2, 3):
        field = FIELDS[q]
        for n in range(2, 7):
            for m in range(1, n):
                for k in range(1, n):
                    for j in range(max(0, m + k - n), min(m, k) + 1):
                        pred = proj_collinear_predicate(n, m, k, j)
                        # witness success must match the predicate at every t
                        for t in range(max(0, 2 * m - n), m):
                            try:
                                w = proj_collinear_witness(n, m, k, j, t, field)
                                u1, u2 = canonical_pair(field, n, m, t)
                                assert intersection_dim(w, u1) == j
                                assert intersection_dim(w, u2) == j
                                assert pred, (n, m, k, j, t, q)
                            except PredicateFailsError:
                                assert not pred, (n, m, k, j, t, q)
                        try:
                            params = ProjParams(n, m, k, j, field)
                        except ParamError:
                            continue  # incidence would be equality
                        verdict = proj_collinear_oracle(params)
                        assert verdict.complete == pred, (n, m, k, j, q)
                        checked += 1
    print(f"ACCEPTANCE 1: PASS ({checked} parameter points)")


def test_criterion_2_bisection_collinear_equivalence_suite():
    """Oracle = predicate for the six enumerable (q,k), all m < 2k, all
    patterns, including the single exception and the near-half boundary."""
    checked = 0
    for (q, k) in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]:
        field = FIELDS[q]
        for m in range(1, 2 * k):
            for k1 in range(0, k + 1):
                for k2 in range(k1, k + 1):
                    try:
                        params = BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue
                    pred = bis_collinear_predicate(q, m, k, k1, k2)
                    verdict = bis_collinear_oracle(params)
                    assert verdict.complete == pred, (q, k, m, k1, k2)
                    checked += 1
    # the stated exception and the near-half boundary cases
    assert not bis_collinear_oracle(BisParams(1, 1, 0, 0, F2)).complete
    for k in (2, 3, 4):
        assert bis_collinear_predicate(2, k, k, 0, k - 1)
        work = BisParams(k, k, 0, k - 1, F2)
        for t in range(k):
            bis_collinear_witness(work, t)  # self-certifying
    assert not bis_collinear_predicate(2, 5, 5, 0, 4)
    print(f"ACCEPTANCE 2: PASS ({checked} parameter points)")


def test_criterion_3_concurrent_reproduction(orbit_reps):
    """Concurrent oracle agrees with the closed-form verdict on every
    resolved enumerable point, including the listed (q,k,m) cases, and
    reproduces the stated uncoverable pair of bisections of V(4,2)."""
    listed_complete = [(4, 1, 1), (3, 2, 2), (2, 3, 3), (2, 2, 1)]
    listed_incomplete = [(2, 1, 1), (3, 1, 1), (2, 2, 2)]
    for (q, k, m) in listed_complete + listed_incomplete:
        field = FIELDS[q]
        params = BisParams(k, m, 0, 0, field)
        reps = orbit_reps.get((q, k))
        v = concurrent_oracle(params,
                              orbit_reps=reps.representatives if reps else None)
        want = (q, k, m) in listed_complete
        assert v.complete == want, (q, k, m)
        assert bis_concurrent_predicate(q, m, k, 0, 0) == \
            ("complete" if want else "incomplete")
    # the single pattern-(0,1) completeness at k = 1, q = 2
    assert concurrent_oracle(BisParams(1, 1, 0, 1, F2)).complete
    assert bis_concurrent_predicate(2, 1, 1, 0, 1) == "complete"
    # all remaining resolved enumerable points
    checked = 0
    for (q, k) in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]:
        field = FIELDS[q]
        for m in range(1, k + 1):
            for k1 in range(0, k + 1):
                for k2 in range(k1, k + 1):
                    try:
                        params = BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue
                    pred = bis_concurrent_predicate(q, m, k, k1, k2)
                    if pred == "unresolved":
                        continue
                    reps = orbit_reps.get((q, k))
                    v = concurrent_oracle(
                        params,
                        orbit_reps=reps.representatives if reps else None)
                    assert v.complete == (pred == "complete"), \
                        (q, k, m, k1, k2)
                    checked += 1
    # the stated failing pair
    p = BisParams(2, 2, 0, 0, F2)
    b1 = Bisection(coordinate_subspace(F2, 4, [0, 1]),
                   coordinate_subspace(F2, 4, [2, 3]))
    b2 = Bisection(span_rows(F2, 4, [(0, 1, 0, 1), (0, 0, 1, 0)]),
                   span_rows(F2, 4, [(1, 0, 0, 0), (0, 1, 1, 0)]))
    assert not pair_has_common_point(p, b1, b2)
    v = concurrent_oracle(p)
    assert not v.complete and v.failing_pair is not None
    assert not pair_has_common_point(p, *v.failing_pair)
    print(f"ACCEPTANCE 3: PASS ({checked} resolved points + listed cases)")


def test_criterion_4_golden_orbit_computations(orbit_reps):
    """The two reference orbit multisets, exactly."""
    rep32 = orbit_reps[(3, 2)]
    assert dict(rep32.multiset()) == GOLDEN_ORBITS[(3, 2)]
    assert sum(rep32.orbit_lengths) == 5264
    assert rep32.num_orbits == 15
    rep23 = orbit_reps[(2, 3)]
    assert dict(rep23.multiset()) == GOLDEN_ORBITS[(2, 3)]
    assert sum(rep23.orbit_lengths) == 357119
    print(f"ACCEPTANCE 4: PASS (15 orbits / 5264 and "
          f"{rep23.num_orbits} orbits / 357119)")


def test_criterion_5_counting_suite():
    assert gaussian(4, 2, 3) == 130
    assert gaussian(4, 2, 3) * 3**4 // 2 == 5265
    assert gaussian(6, 3, 2) * 2**9 // 2 == 357120
    assert h_value(1, 2, 3) == Fraction(24, 65)
    assert h_value(1, 2, 4) == Fraction(60, 119)
    assert h_value(1, 2, 3) < Fraction(1, 2) < h_value(1, 2, 4)
    for q in (2, 3):  # the m = k threshold is exactly q >= 4
        assert h_value(1, 2, q) < Fraction(1, 2)
    for q in (4, 5):
        assert h_value(1, 2, q) > Fraction(1, 2)
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            for a in range(1, k + 1):
                assert h_value(a, k, q) == \
                    f_value(a, k, q)**2 / f_value(k + a, 2 * k, q)
    for (q, k) in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        for m in range(1, k + 1):
            assert disjoint_count_identity_check(m, k, FIELDS[q])
    for q in (2, 3, 4, 5):
        for k in range(2, 9):
            for a in range(2, k + 1):
                assert h_value(a, k, q) > h_lower_bound(a, k, q)
    print("ACCEPTANCE 5: PASS")


def test_criterion_6_witness_soundness():
    """All witnesses verify; boundaries match brute force exactly."""
    # bisection witnesses over the full grid, independently re-checked
    cases = 0
    for q in (2, 3):
        field = FIELDS[q]
        for k in range(1, 5):
            for m in range(1, k + 1):
                for k1 in range(0, m + 1):
                    for k2 in range(k1, m + 1):
                        try:
                            params = BisParams(k, m, k1, k2, field)
                        except ParamError:
                            continue
                        for t in range(m):
                            try:
                                b = bis_collinear_witness(params, t)
                            except PredicateFailsError:
                                assert not bis_collinear_predicate(
                                    q, m, k, k1, k2)
                                continue
                            u1, u2 = canonical_pair(field, 2 * k, m, t)
                            want = (k1, k2)
                            for u in (u1, u2):
                                got = tuple(sorted(
                                    (intersection_dim(u, b.half1),
                                     intersection_dim(u, b.half2))))
                                assert got == want
                            cases += 1
    # diagonal-pair existence boundary, exhaustive at dims <= 3
    for q in (2, 3):
        field = FIELDS[q]
        for y1d in range(1, 4):
            for y2d in range(1, 4):
                n = y1d + y2d
                y1 = coordinate_subspace(field, n, range(y1d))
                y2 = coordinate_subspace(field, n, range(y1d, n))
                for r in range(1, min(y1d, y2d) + 1):
                    expected = (max(y1d, y2d), q) != (1, 2)
                    assert diagonal_pair_exists_bruteforce(y1, y2, r) == expected
                    if expected:
                        assert diagonal_pair(y1, y2, r).verify()
                    else:
                        with pytest.raises(ParamError,
                                           match="unique diagonal line"):
                            diagonal_pair(y1, y2, r)
    # the six tabulated near-half bisections
    for (k, t) in _NEAR_HALF_TABLE:
        b = near_half_table_bisection(F2, k, t)
        u1, u2 = canonical_pair(F2, 2 * k, k, t)
        for u in (u1, u2):
            got = tuple(sorted((intersection_dim(u, b.half1),
                                intersection_dim(u, b.half2))))
            assert got == (0, k - 1)
    # spreads and the fifth disjoint subspace, k <= 3, q <= 4, q^k >= 4
    for q in (2, 3, 4):
        field = FIELDS[q]
        for k in (1, 2, 3):
            spread = desarguesian_spread(k, field)
            assert len(spread) == q**k + 1
            assert verify_partial_spread(spread)
            if q**k >= 4:
                sigma = fifth_disjoint(spread[:4])
                assert all(intersection_dim(sigma, s) == 0
                           for s in spread[:4])
    print(f"ACCEPTANCE 6: PASS ({cases} certified bisection witnesses)")


def test_criterion_7_symmetric_group_suite():
    points = 0
    for n in range(2, 13):
        for m in range(1, n // 2 + 1):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    assert subset_geometry_oracle(n, m, k, j) == \
                        subset_geometry_closed_form(n, m, k, j)
                    points += 1
    for n in range(2, 11):
        for m in range(1, n):
            for k in range(1, n):
                assert double_coset_count(n, range(1, m + 1),
                                          range(1, k + 1)) == \
                    young_orbit_count(n, range(1, m + 1), k)
    for n in range(2, 5):
        for m in range(1, n):
            for k in range(1, n):
                report = pm_orbits_on_k_spaces(n, m, k, F2)
                assert report.num_orbits == \
                    min(m, k) - max(0, m + k - n) + 1
    print(f"ACCEPTANCE 7: PASS ({points} subset-geometry points)")


def _perp_preserves_incidence(field, n, us, ws):
    for u in us:
        pu = perp(u)
        for w in ws:
            j = intersection_dim(u, w)
            assert intersection_dim(pu, perp(w)) == n - u.dim - w.dim + j


def test_criterion_8_duality_suite():
    # exhaustive perp-isomorphism checks
    for q in (2, 3):
        field = FIELDS[q]
        for n in (2, 3, 4):
            subs = [s for m in range(1, n) for s in grassmannian(n, field, m)]
            _perp_preserves_incidence(field, n, subs, subs)
    subs5 = [s for m in range(1, 5) for s in grassmannian(5, F2, m)]
    _perp_preserves_incidence(F2, 5, subs5, subs5)
    # n = 5, q = 3: deterministic strided subset (full set is ~7M pairs)
    subs53 = [s for m in range(1, 5) for s in grassmannian(5, F3, m)]
    _perp_preserves_incidence(F3, 5, subs53[::7], subs53[::11])
    # completeness verdicts invariant under the parameter maps
    for q in (2, 3):
        field = FIELDS[q]
        for n in range(2, 6):
            for m in range(1, n):
                for k in range(1, n):
                    for j in range(max(0, m + k - n), min(m, k) + 1):
                        try:
                            p = ProjParams(n, m, k, j, field)
                            d = p.dual()
                        except ParamError:
                            continue
                        assert proj_collinear_predicate(n, m, k, j) == \
                            proj_collinear_predicate(n, d.m, d.k, d.j)
                        assert proj_collinear_oracle(p).complete == \
                            proj_collinear_oracle(d).complete
    for (q, k) in [(2, 1), (2, 2), (3, 1)]:
        field = FIELDS[q]
        for m in range(1, k + 1):
            for k1 in range(0, k + 1):
                for k2 in range(k1, k + 1):
                    try:
                        p = BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue
                    direct = bis_collinear_oracle(p).complete
                    dual_direct = bis_collinear_search(p.dual()).complete
                    assert direct == dual_direct, (q, k, m, k1, k2)
    print("ACCEPTANCE 8: PASS")
