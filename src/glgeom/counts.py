"""Exact counting: the disjointness product functions and the
more-than-half occupancy criterion, all in big-integer rationals.

Everything here is a Fraction or an int; no floating point touches any
comparison, so threshold claims like "> 1/2" are exact even on the
boundary (e.g. 24/65 at q = 3).  The Gaussian binomial and the bisection
count live in glgeom.subspace, beside the enumeration they check, so the
engine never imports this module or fractions; they are imported here
for the counts verb and the acceptance gate, which read them from
glgeom.counts.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParamError, TooLargeError
from .subspace import bisection_count  # noqa: F401
from .subspace import gaussian, grassmannian, range_meet_dim


def f_value(r, s, q):
    """F(r,s,q) = prod_{i=r}^{s} (1 - q^-i), exact."""
    if not (1 <= r <= s):
        raise ParamError("need 1 <= r <= s")
    out = Fraction(1)
    for i in range(r, s + 1):
        out *= 1 - Fraction(1, q**i)
    return out


def h_value(a, k, q):
    """H(a,k,q) = prod_{i=a}^{k} (1 - q^-i)^2 / (1 - q^-(k+i)), exact.

    Satisfies H(a,k,q) = F(a,k,q)^2 / F(k+a,2k,q).
    """
    if not (1 <= a <= k):
        raise ParamError("need 1 <= a <= k")
    out = Fraction(1)
    for i in range(a, k + 1):
        out *= (1 - Fraction(1, q**i)) ** 2 / (1 - Fraction(1, q ** (k + i)))
    return out


def restricted_movement_sufficient(m, k, q):
    """True iff H(k-m+1, k, q) > 1/2.

    When true, the orbit of an m-subspace disjoint from both halves of a
    bisection fills more than half of the Grassmannian, which forces the
    point/bisection geometry with the all-trivial incidence pattern to be
    concurrently complete.
    """
    if not (1 <= m <= k):
        raise ParamError("need 1 <= m <= k")
    return h_value(k - m + 1, k, q) > Fraction(1, 2)


def h_lower_bound(a, k, q):
    """Closed-form lower bound for H(a,k,q), valid for 2 <= a <= k."""
    if not (2 <= a <= k):
        raise ParamError("need 2 <= a <= k")
    qa = Fraction(1, q**a)
    term1 = 2 * qa / (1 - Fraction(1, q))
    term2 = 2 * qa * qa / ((1 - 2 * qa) * (1 - Fraction(1, q**2)))
    return 1 - term1 - term2


def check_printable(k, q):
    """TooLargeError where bisection_count(k, q) < 2 q^(2k^2), the widest
    integer the counts verb prints, may pass Python's limit on printed
    digits, or its default of 4300 where there is none (at 0, or before
    3.10.7).  That is certain once 2k^2 (bits of q - 1) >= 4 limit; below
    it the bound is built."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    e = 2 * k * k
    if e * (q.bit_length() - 1) >= 4 * limit or 2 * q**e >= 10**limit:
        raise TooLargeError(f"the counts at k = {k}, q = {q} may pass "
                            f"the limit of {limit} printed digits")


def count_disjoint_from_halves(m, k, field):
    """Brute-force count of m-subspaces meeting both coordinate halves trivially."""
    n = 2 * k
    return sum(range_meet_dim(u, 0, k) == 0 and range_meet_dim(u, k, n) == 0
               for u in grassmannian(n, field, m))


_ENUMERABLE = {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)}


def disjoint_count_identity_check(m, k, field):
    """Verify |disjoint m-subspaces| / |all| = F(k-m+1,k,q)^2 / F(2k-m+1,2k,q).

    Exact, by brute force over the Grassmannian of V(2k,q).
    """
    q = field.q
    if (q, k) not in _ENUMERABLE or not (1 <= m <= k):
        raise TooLargeError("outside the enumerable domain")
    count = count_disjoint_from_halves(m, k, field)
    total = gaussian(2 * k, m, q)
    predicted = f_value(k - m + 1, k, q) ** 2 / f_value(2 * k - m + 1, 2 * k, q)
    return Fraction(count, total) == predicted
