"""Subset geometries, Young subgroups and the double-coset bridge."""

import pytest

from glgeom.gfq import field_make
from glgeom.errors import ParamError, TooLargeError
from glgeom.weyl import (SubsetGeom, YoungSubgroup, double_coset_count,
                         subset_geometry_closed_form, subset_geometry_oracle,
                         subset_pair_cover, young_orbit_count)
from glgeom.predicates import proj_collinear_predicate
from glgeom.orbits import pm_orbits_on_k_spaces


def test_subset_geom_validation():
    SubsetGeom(4, 2, 2, 1)
    with pytest.raises(ParamError, match="need 1 <= m <= n/2"):
        SubsetGeom(4, 3, 2, 1)     # m > n/2
    with pytest.raises(ParamError, match="need 1 <= k < n"):
        SubsetGeom(4, 2, 4, 1)     # k = n
    with pytest.raises(ParamError, match="j outside the admissible interval"):
        SubsetGeom(4, 2, 2, 3)


def test_young_subgroup_validation():
    YoungSubgroup(4, frozenset({1, 2}))
    with pytest.raises(ParamError, match="nonempty and proper"):
        YoungSubgroup(4, frozenset())
    with pytest.raises(ParamError, match="nonempty and proper"):
        YoungSubgroup(4, frozenset({1, 2, 3, 4}))


def test_young_subgroup_block_inside_the_range():
    with pytest.raises(ParamError, match=r"block not inside \{1\.\.n\}"):
        YoungSubgroup(4, frozenset({0, 1}))
    with pytest.raises(ParamError, match=r"block not inside \{1\.\.n\}"):
        YoungSubgroup(4, frozenset({2, 5}))


def test_double_coset_count_examples():
    assert double_coset_count(4, {1, 2}, {3, 4}) == 3
    assert double_coset_count(3, {1}, {1, 2}) == 2
    assert double_coset_count(6, {1, 2, 3}, {4, 5, 6}) == 4
    # independent oracle: direct orbit enumeration of S3 x S3 on 3-subsets
    assert young_orbit_count(6, {1, 2, 3}, 3) == 4
    with pytest.raises(TooLargeError, match="limited to n <= 10"):
        young_orbit_count(11, {1}, 1)


def test_double_coset_matches_orbit_count():
    for n in range(2, 9):
        for m in range(1, n):
            for k in range(1, n):
                assert double_coset_count(n, range(1, m + 1), range(1, k + 1)) \
                    == young_orbit_count(n, range(1, m + 1), k)


def test_weyl_triple_check_examples():
    """S_n = W1 W2 W1 for the j-incidence of m- and k-subsets exactly when
    the subset geometry is collinearly complete, which the oracle decides."""
    assert subset_geometry_oracle(4, 2, 2, 1)
    assert subset_geometry_oracle(4, 1, 2, 1)
    assert not subset_geometry_oracle(5, 2, 4, 1)   # k-2j = 2 > 1 = n-2m
    # the t = 0 pair is the obstruction there
    assert subset_pair_cover(5, 2, 4, 1, 1)
    assert not subset_pair_cover(5, 2, 4, 1, 0)


def test_subset_oracle_examples():
    assert subset_geometry_oracle(4, 2, 2, 1)
    assert not subset_geometry_oracle(4, 2, 3, 1)
    assert subset_geometry_oracle(6, 2, 2, 1)


@pytest.mark.parametrize("n", range(2, 11))
def test_oracle_equals_closed_form(n):
    for m in range(1, n // 2 + 1):
        for k in range(1, n):
            for j in range(max(0, m + k - n), min(m, k) + 1):
                assert subset_geometry_oracle(n, m, k, j) == \
                    subset_geometry_closed_form(n, m, k, j)


def test_lift_soundness():
    """When the subset geometry is collinearly complete, so is the matrix one."""
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    if subset_geometry_closed_form(n, m, k, j):
                        assert proj_collinear_predicate(n, m, k, j)


@pytest.mark.parametrize("n,m,k", [
    (3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 2), (4, 2, 2), (4, 2, 1),
    (5, 2, 2), (5, 2, 3), (5, 1, 2),
])
def test_orbit_bridge(n, m, k):
    """Stabiliser orbits on k-subspaces are counted by the double cosets."""
    field = field_make(2)
    report = pm_orbits_on_k_spaces(n, m, k, field)
    assert report.num_orbits == \
        double_coset_count(n, range(1, m + 1), range(1, k + 1))
    assert report.num_orbits == min(m, k) - max(0, m + k - n) + 1
