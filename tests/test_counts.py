"""Exact counting: products, thresholds, brute-force identities."""

from fractions import Fraction

import pytest

from glgeom.gfq import field_make
from glgeom.counts import (disjoint_count_identity_check, f_value,
                           gaussian, h_lower_bound, h_value,
                           restricted_movement_sufficient,
                           count_disjoint_from_halves)
from glgeom.errors import ParamError
from glgeom.subspace import grassmannian
from paper_checks import factor_bound_holds


def test_gaussian_examples():
    assert gaussian(4, 2, 3) == 130
    assert gaussian(6, 3, 2) == 1395
    assert gaussian(5, 0, 7) == 1


def test_gaussian_duality_and_enumeration():
    for q in (2, 3):
        field = field_make(q)
        for n in range(1, 6):
            for m in range(n + 1):
                assert gaussian(n, m, q) == gaussian(n, n - m, q)
                assert gaussian(n, m, q) == sum(1 for _ in grassmannian(n, field, m))


def test_f_value_examples():
    assert f_value(1, 1, 2) == Fraction(1, 2)
    assert f_value(1, 2, 2) == Fraction(3, 8)
    assert f_value(2, 3, 3) == Fraction(208, 243)
    with pytest.raises(ParamError, match="need 1 <= r <= s"):
        f_value(2, 1, 2)


def test_h_value_examples():
    assert h_value(1, 2, 3) == Fraction(24, 65)
    q = 3
    assert Fraction(q * (q - 1)**2 * (q + 1),
                    (q**2 + 1) * (q**2 + q + 1)) == Fraction(24, 65)
    assert h_value(1, 2, 4) == Fraction(60, 119)
    assert h_value(1, 2, 4) > Fraction(1, 2)
    assert h_value(1, 2, 3) < Fraction(1, 2)
    # H(k,k,q) = 1 - 2/(q^k+1)
    for q in (2, 3, 4):
        for k in (1, 2, 3):
            assert h_value(k, k, q) == 1 - Fraction(2, q**k + 1)


def test_h_is_f_squared_over_f():
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            for a in range(1, k + 1):
                assert h_value(a, k, q) == \
                    f_value(a, k, q)**2 / f_value(k + a, 2 * k, q)


def test_h_monotone_in_q_and_a():
    for k in range(1, 7):
        for a in range(1, k + 1):
            for q in (2, 3, 4):
                assert h_value(a, k, q) < h_value(a, k, q + 1)
        for q in (2, 3, 4, 5):
            for a in range(1, k):
                assert h_value(a, k, q) < h_value(a + 1, k, q)


def test_restricted_movement_threshold():
    assert restricted_movement_sufficient(1, 1, 4)
    assert not restricted_movement_sufficient(2, 2, 3)   # 24/65 < 1/2
    assert restricted_movement_sufficient(1, 2, 2)       # H(2,2,2) = 3/5
    assert h_value(2, 2, 2) == Fraction(3, 5)
    # the m = k threshold is exactly q >= 4
    assert not restricted_movement_sufficient(2, 2, 2)
    assert restricted_movement_sufficient(2, 2, 4)


def test_h_lower_bound_examples():
    assert h_lower_bound(2, 2, 2) == Fraction(-1, 3)
    assert h_value(2, 2, 2) > h_lower_bound(2, 2, 2)
    b = h_lower_bound(3, 4, 2)
    assert b > 0 and h_value(3, 4, 2) > b
    for i in (2, 3):
        assert factor_bound_holds(i, 3, 3)
    with pytest.raises(ParamError, match="need 2 <= a <= k"):
        h_lower_bound(1, 2, 2)


def test_h_lower_bound_valid_on_grid():
    for q in (2, 3, 4, 5):
        for k in range(2, 9):
            for a in range(2, k + 1):
                assert h_value(a, k, q) > h_lower_bound(a, k, q)


def test_disjoint_count_small_values():
    f2 = field_make(2)
    f3 = field_make(3)
    assert count_disjoint_from_halves(1, 1, f2) == 1   # only <e+f>
    assert count_disjoint_from_halves(1, 1, f3) == 2
    assert count_disjoint_from_halves(2, 2, f2) == 6   # |GL(2,2)| graphs
    assert Fraction(6, gaussian(4, 2, 2)) == \
        f_value(1, 2, 2)**2 / f_value(3, 4, 2) == Fraction(6, 35)


def test_disjoint_count_identity_whole_domain():
    for (q, k) in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        field = field_make(q)
        for m in range(1, k + 1):
            assert disjoint_count_identity_check(m, k, field)
