"""Geometry parameter validation, incidence, duality, non-degeneracy and
flag transitivity."""

import pytest

from glgeom.gfq import field_make
from glgeom.errors import ParamError
from glgeom.geometry import BisParams, ProjParams
from glgeom.orbits import gl_generators
from glgeom.subspace import (Bisection, coordinate_subspace, grassmannian,
                             intersection_dim, perp, span_rows)
from bis_witness_reference import incident_bis
from concurrent_reference import bisections
from lattice_reference import contains
from orbit_reference import orbit_partition
from paper_checks import nondegeneracy_check

F2 = field_make(2)
F3 = field_make(3)


# ---------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------

def test_proj_params_validation():
    ProjParams(4, 2, 2, 1, F2)
    with pytest.raises(ParamError, match="j outside the admissible interval"):
        ProjParams(4, 2, 2, 3, F2)      # j > min(m,k)
    with pytest.raises(ParamError, match="need 1 <= m,k < n"):
        ProjParams(4, 4, 2, 1, F2)      # m = n
    with pytest.raises(ParamError, match="j outside the admissible interval"):
        ProjParams(3, 2, 2, 0, F2)      # j < m+k-n
    with pytest.raises(ParamError, match="incidence would be equality"):
        ProjParams(4, 2, 2, 2, F2)      # incidence would be equality


def test_bis_params_validation():
    BisParams(2, 2, 0, 1, F2)
    with pytest.raises(ParamError, match="need k >= 1 and 1 <= m < 2k"):
        BisParams(2, 4, 0, 0, F2)       # m = 2k
    with pytest.raises(ParamError, match="need 0 <= k1 <= k2 <= k"):
        BisParams(2, 1, 1, 0, F2)       # k1 > k2
    with pytest.raises(ParamError, match="no flag exists"):
        BisParams(2, 1, 1, 1, F2)       # k1 + k2 > m
    with pytest.raises(ParamError, match="no flag exists"):
        BisParams(2, 3, 0, 0, F2)       # no flag: m > k + k1


def test_proj_params_repr_names_the_fields():
    assert repr(ProjParams(4, 2, 2, 1, F2)) == \
        "ProjParams(n=4, m=2, k=2, j=1, field=GF(2))"


# ---------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------

def test_incident_proj_examples():
    """The m-vs-k incidence is dim(U meet W) = j."""
    p = ProjParams(3, 1, 2, 1, F2)
    u = coordinate_subspace(F2, 3, [0])
    w = coordinate_subspace(F2, 3, [0, 1])
    assert intersection_dim(u, w) == p.j
    assert intersection_dim(u, coordinate_subspace(F2, 3, [1, 2])) != p.j
    p2 = ProjParams(4, 2, 2, 1, F2)
    assert intersection_dim(coordinate_subspace(F2, 4, [0, 1]),
                            coordinate_subspace(F2, 4, [1, 2])) == p2.j


def test_incident_bis_examples():
    # near-half pattern at k = 2: U1 = <e1,e2>, halves <e3,e4>, <e1,e2+e4>
    p = BisParams(2, 2, 0, 1, F2)
    u1 = coordinate_subspace(F2, 4, [0, 1])
    b = Bisection(coordinate_subspace(F2, 4, [2, 3]),
                  span_rows(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 1)]))
    assert incident_bis(p, u1, b)
    # a half itself has pattern (0, k)
    p2 = BisParams(2, 2, 0, 2, F2)
    b0 = Bisection(coordinate_subspace(F2, 4, [0, 1]),
                   coordinate_subspace(F2, 4, [2, 3]))
    assert incident_bis(p2, b0.half1, b0)
    # a diagonal point has pattern (0, 0)
    p3 = BisParams(2, 2, 0, 0, F2)
    diag = span_rows(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert incident_bis(p3, diag, b0)


def test_incident_bis_multiset_order_free():
    p = BisParams(2, 2, 0, 2, F2)
    b0 = Bisection(coordinate_subspace(F2, 4, [0, 1]),
                   coordinate_subspace(F2, 4, [2, 3]))
    # both halves are incident regardless of which one carries dimension k2
    assert incident_bis(p, b0.half1, b0) and incident_bis(p, b0.half2, b0)


# ---------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------

def test_dual_proj_parameter_map():
    """The perps of a flag form a flag of the dual geometry."""
    p = ProjParams(3, 1, 2, 1, F2)
    d = p.dual()
    assert (d.m, d.k, d.j) == (2, 1, 1)
    assert ProjParams(4, 2, 2, 1, F3).dual().j == 1  # self-dual here
    u = coordinate_subspace(F2, 3, [0])
    w = coordinate_subspace(F2, 3, [0, 1])
    assert intersection_dim(perp(u), perp(w)) == d.j


def test_dual_bis_parameter_map_involution():
    p = BisParams(2, 1, 0, 1, F2)
    d = p.dual()
    assert (d.m, d.k1, d.k2) == (3, 1, 2)
    assert (d.dual().m, d.dual().k1, d.dual().k2) == (1, 0, 1)
    pm = BisParams(2, 2, 0, 1, F3)
    assert (pm.dual().m, pm.dual().k1, pm.dual().k2) == (2, 0, 1)  # m=k fixed


def test_dual_bis_elements_preserve_incidence():
    p = BisParams(2, 2, 0, 1, F2)
    d = p.dual()
    pts = list(grassmannian(4, F2, 2))
    for b in bisections(2, F2):
        bd = b.dual()
        for u in pts:
            assert incident_bis(p, u, b) == incident_bis(d, perp(u), bd)


def test_symmetrised_inclusion_at_j_min():
    """With j = min(m,k) the incidence relation is containment one way."""
    p = ProjParams(4, 1, 2, 1, F2)
    for u in grassmannian(4, F2, 1):
        for w in grassmannian(4, F2, 2):
            assert (intersection_dim(u, w) == p.j) == contains(w, u)
    p2 = ProjParams(4, 3, 2, 2, F2)
    for u in grassmannian(4, F2, 3):
        for w in grassmannian(4, F2, 2):
            assert (intersection_dim(u, w) == p2.j) == contains(u, w)


# ---------------------------------------------------------------------
# non-degeneracy and flag transitivity
# ---------------------------------------------------------------------

def test_nondegeneracy_examples():
    assert nondegeneracy_check(ProjParams(3, 1, 2, 1, F2)).ok
    assert nondegeneracy_check(BisParams(1, 1, 0, 1, F2)).ok
    assert nondegeneracy_check(ProjParams(4, 2, 2, 0, F2)).ok


def _nondegeneracy_by_rank(params, inc):
    """The bisection-side check as a loop over bisections() objects with a
    rank-based incidence test: the reference for the point-index path."""
    points = list(grassmannian(params.n, params.field, params.m))
    lines = list(bisections(params.k, params.field))
    nflags = 0
    for u in points:
        deg = sum(1 for b in lines if inc(params, u, b))
        nflags += deg
        if deg == 0:
            return (False, len(points), len(lines), nflags,
                    f"point {u!r} on no line")
    for b in lines:
        if not any(inc(params, u, b) for u in points):
            return (False, len(points), len(lines), nflags,
                    f"line {b!r} carries no point")
    return True, len(points), len(lines), nflags, None


def _as_tuple(report):
    return (report.ok, report.num_points, report.num_lines, report.num_flags,
            report.violation)


@pytest.mark.parametrize("k,m,k1,k2", [(1, 1, 0, 1), (2, 1, 0, 0), (2, 2, 0, 1)])
def test_bis_nondegeneracy_matches_rank_loop(k, m, k1, k2):
    params = BisParams(k, m, k1, k2, F2)
    assert _as_tuple(nondegeneracy_check(params)) == \
        _nondegeneracy_by_rank(params, incident_bis)


def test_bis_nondegeneracy_violation_text(monkeypatch):
    """With every meet read as dimension 0, no point of the (1,1,0,1)
    geometry is on a line; the report names the first point as the rank
    loop does with an incidence that never holds."""
    import glgeom.geometry as geo
    monkeypatch.setattr(geo, "meet_dims", lambda q, n: {c: 0 for c in range(q**n)})
    params = BisParams(1, 1, 0, 1, F2)
    got = _as_tuple(nondegeneracy_check(params))
    assert got == _nondegeneracy_by_rank(params, lambda *args: False)
    assert got[-1] == "point Subspace(dim 1 of V(2,2)) on no line"


def test_nondegeneracy_budget():
    from glgeom.counts import TooLargeError
    with pytest.raises(TooLargeError):
        nondegeneracy_check(ProjParams(6, 3, 3, 1, F3), budget=10)


@pytest.mark.parametrize("n,m,k,j", [
    (3, 1, 2, 1), (3, 1, 2, 0), (4, 2, 2, 1), (4, 2, 2, 0),
    (4, 1, 2, 1), (4, 2, 3, 1), (4, 1, 3, 0), (4, 1, 3, 1),
])
def test_flag_transitivity_by_orbit_bfs(n, m, k, j):
    """The orbit of the canonical flag (<e_1..e_m>, <e_1..e_j,
    e_{m+1}..e_{k+m-j}>) under GL generators is all flags."""
    flags = [(u, w) for u in grassmannian(n, F2, m)
             for w in grassmannian(n, F2, k) if intersection_dim(u, w) == j]
    gens = gl_generators(n, F2)
    report = orbit_partition(gens, flags)
    assert report.num_orbits == 1
    flag = (coordinate_subspace(F2, n, range(m)),
            coordinate_subspace(F2, n, [*range(j), *range(m, k + m - j)]))
    assert flag in set(flags)
