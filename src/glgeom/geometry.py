"""The two rank-2 geometry families as parameter values, and the
subspace/bisection incidence on point masks.

A subspace/subspace geometry has m-subspaces as points, k-subspaces as
lines, and incidence dim(point meet line) = j.  A subspace/bisection
geometry lives in V(2k,q): points are m-subspaces, lines are bisections
{V1,V2}, and incidence asks for the unordered intersection-dimension
pattern {k1,k2}.  Geometries are never materialised; enumeration-backed
checks walk the element sets lazily under an explicit budget.
"""

from __future__ import annotations

from .subspace import meet_dims
from .errors import ParamError


class ProjParams:
    """Parameters (n, m, k, j) of an m-versus-k subspace geometry over GF(q)."""

    __slots__ = ("n", "m", "k", "j", "field")

    def __init__(self, n, m, k, j, field):
        self.n, self.m, self.k, self.j, self.field = n, m, k, j, field
        if not (1 <= m < n and 1 <= k < n):
            raise ParamError("need 1 <= m,k < n")
        if not (max(0, m + k - n) <= j <= min(m, k)):
            raise ParamError("j outside the admissible interval")
        if m == k == j:
            raise ParamError("incidence would be equality: point and line "
                             "stabilisers coincide")

    def __repr__(self):
        return (f"ProjParams(n={self.n}, m={self.m}, k={self.k}, j={self.j}, "
                f"field={self.field!r})")

    def dual(self):
        n, m, k, j = self.n, self.m, self.k, self.j
        return ProjParams(n, n - m, n - k, n - m - k + j, self.field)

    def to_json_dict(self):
        return {"family": "proj", "q": self.field.q, "n": self.n,
                "m": self.m, "k": self.k, "j": self.j}


class BisParams:
    """Parameters (k; m; k1 <= k2) of a subspace/bisection geometry in V(2k,q)."""

    __slots__ = ("k", "m", "k1", "k2", "field")

    def __init__(self, k, m, k1, k2, field):
        self.k, self.m, self.k1, self.k2, self.field = k, m, k1, k2, field
        if k < 1 or not (1 <= m < 2 * k):
            raise ParamError("need k >= 1 and 1 <= m < 2k")
        if not (0 <= k1 <= k2 <= k):
            raise ParamError("need 0 <= k1 <= k2 <= k")
        # flag existence: an m-space meeting the halves in k1, k2 dimensions
        if k1 + k2 > m or m > k + k1:
            raise ParamError("no flag exists: need k1+k2 <= m <= k+k1")

    def __repr__(self):
        return (f"BisParams(k={self.k}, m={self.m}, k1={self.k1}, "
                f"k2={self.k2}, field={self.field!r})")

    @property
    def n(self):
        return 2 * self.k

    def dual(self):
        k, m, k1, k2 = self.k, self.m, self.k1, self.k2
        return BisParams(k, 2 * k - m, k - m + k1, k - m + k2, self.field)

    def to_json_dict(self):
        return {"family": "bis", "q": self.field.q, "k": self.k,
                "m": self.m, "k1": self.k1, "k2": self.k2}


def mask_incident_bis(params):
    """The incidence of the subspace/bisection geometry on point masks:
    incident(u, h1, h2) for the masks of an m-subspace and of a
    bisection's halves, true iff the meet dimensions, each read off a
    popcount through meet_dims, are {k1, k2} in either order."""
    dims = meet_dims(params.field.q, params.n)
    pattern = {(params.k1, params.k2), (params.k2, params.k1)}

    def incident(u, h1, h2):
        return (dims[(u & h1).bit_count()], dims[(u & h2).bit_count()]) \
            in pattern
    return incident

