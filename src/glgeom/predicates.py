"""The closed forms: collinear completeness of the m-vs-k subspace geometry
and of the subspace/bisection geometry, and the concurrent verdict of the
latter.  Pure integer arithmetic; the oracles and witnesses that must
agree with them live in glgeom.oracle and glgeom.witness.
"""

from __future__ import annotations

from .errors import ParamError


def proj_collinear_predicate(n, m, k, j):
    """True iff max(0, m+k-n) <= j <= k/2 + max(0, m - n/2).

    Upper bound evaluated as 2j <= k + max(0, 2m-n), all integers.
    """
    if not (1 <= m < n and 1 <= k < n):
        raise ParamError("need 1 <= m,k < n")
    if not (max(0, m + k - n) <= j <= min(m, k)):
        raise ParamError("j outside the admissible interval")
    return 2 * j <= k + max(0, 2 * m - n)


def bis_collinear_predicate(q, m, k, k1, k2):
    """3 k2 <= k + 1 + m + k1, excluding the single small exception."""
    return 3 * k2 <= k + 1 + m + k1 and (q, m, k, k1, k2) != (2, 1, 1, 0, 0)


def bis_concurrent_predicate(q, m, k, k1, k2):
    """Verdict {"complete", "incomplete", "unresolved"} for the line-pair side.

    Resolved regions: k2 > m/2 (complete only at (q,k) = (2,1)), and the
    all-trivial pattern, complete except at (q,k,m) in {(2,1,1), (3,1,1),
    (2,2,2)} -- at (q,k) = (2,2) the point dimension matters, since four
    lines of PG(3,2) cannot cover all fifteen points.  Parameters with
    m > k are reduced through the perp map first.
    """
    if k1 > k2:
        raise ParamError("need k1 <= k2")
    if m > k:
        m, k1, k2 = 2 * k - m, k - m + k1, k - m + k2
        if k1 < 0:
            raise ParamError("invalid pattern for this point dimension")
    if 2 * k2 > m:
        return "complete" if (q, k) == (2, 1) else "incomplete"
    if (k1, k2) == (0, 0):
        bad = (q, k) in {(2, 1), (3, 1)} or (q, k, m) == (2, 2, 2)
        return "incomplete" if bad else "complete"
    return "unresolved"
