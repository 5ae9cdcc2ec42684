"""The two rank-2 geometry families as parameter values plus pure predicates.

A subspace/subspace geometry has m-subspaces as points, k-subspaces as
lines, and incidence dim(point meet line) = j.  A subspace/bisection
geometry lives in V(2k,q): points are m-subspaces, lines are bisections
{V1,V2}, and incidence asks for the unordered intersection-dimension
pattern {k1,k2}.  Geometries are never materialised; enumeration-backed
checks walk the element sets lazily under an explicit budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .subspace import (Bisection, coordinate_subspace, disjoint_pairs,
                       grassmannian, intersection_dim, meet_dims, perp,
                       point_masks, sorted_grassmannian)
from .counts import bisection_count, gaussian
from .errors import ParamError, TooLargeError


@dataclass(frozen=True)
class ProjParams:
    """Parameters (n, m, k, j) of an m-versus-k subspace geometry over GF(q)."""
    n: int
    m: int
    k: int
    j: int
    field: object

    def __post_init__(self):
        n, m, k, j = self.n, self.m, self.k, self.j
        if not (1 <= m < n and 1 <= k < n):
            raise ParamError("need 1 <= m,k < n")
        if not (max(0, m + k - n) <= j <= min(m, k)):
            raise ParamError("j outside the admissible interval")
        if m == k == j:
            raise ParamError("incidence would be equality: point and line "
                             "stabilisers coincide")

    def dual(self):
        n, m, k, j = self.n, self.m, self.k, self.j
        return ProjParams(n, n - m, n - k, n - m - k + j, self.field)

    def to_json_dict(self):
        return {"family": "proj", "q": self.field.q, "n": self.n,
                "m": self.m, "k": self.k, "j": self.j}


@dataclass(frozen=True)
class BisParams:
    """Parameters (k; m; k1 <= k2) of a subspace/bisection geometry in V(2k,q)."""
    k: int
    m: int
    k1: int
    k2: int
    field: object

    def __post_init__(self):
        k, m, k1, k2 = self.k, self.m, self.k1, self.k2
        if k < 1 or not (1 <= m < 2 * k):
            raise ParamError("need k >= 1 and 1 <= m < 2k")
        if not (0 <= k1 <= k2 <= k):
            raise ParamError("need 0 <= k1 <= k2 <= k")
        # flag existence: an m-space meeting the halves in k1, k2 dimensions
        if k1 + k2 > m or m > k + k1:
            raise ParamError("no flag exists: need k1+k2 <= m <= k+k1")

    @property
    def n(self):
        return 2 * self.k

    def dual(self):
        k, m, k1, k2 = self.k, self.m, self.k1, self.k2
        return BisParams(k, 2 * k - m, k - m + k1, k - m + k2, self.field)

    def pattern(self):
        return (self.k1, self.k2)

    def to_json_dict(self):
        return {"family": "bis", "q": self.field.q, "k": self.k,
                "m": self.m, "k1": self.k1, "k2": self.k2}


class Flag(NamedTuple):
    point: object
    line: object


def incident_proj(params, u, w):
    """True iff dim(U meet W) = j, for an m-space U and k-space W."""
    if u.dim != params.m or w.dim != params.k or u.n != params.n or w.n != params.n:
        raise ValueError("element dimensions do not match the geometry")
    return intersection_dim(u, w) == params.j


def incident_bis(params, u, b):
    """True iff the intersection pattern of U with the halves is {k1,k2}."""
    if u.dim != params.m or u.n != params.n or b.n != params.n:
        raise ValueError("element dimensions do not match the geometry")
    d1 = intersection_dim(u, b.half1)
    d2 = intersection_dim(u, b.half2)
    if d1 > d2:
        d1, d2 = d2, d1
    return (d1, d2) == (params.k1, params.k2)


def mask_incident_bis(params):
    """incident_bis on point masks: incident(u, h1, h2) for the masks of an
    m-subspace and of a bisection's halves, each meet dimension read off a
    popcount through meet_dims."""
    dims = meet_dims(params.field.q, params.n)
    pattern = {(params.k1, params.k2), (params.k2, params.k1)}

    def incident(u, h1, h2):
        return (dims[(u & h1).bit_count()], dims[(u & h2).bit_count()]) \
            in pattern
    return incident


def canonical_flag(params):
    """The flag (<e_1..e_m>, <e_1..e_j, e_{m+1}..e_{k+m-j}>)."""
    n, m, k, j = params.n, params.m, params.k, params.j
    field = params.field
    u = coordinate_subspace(field, n, range(m))
    w = coordinate_subspace(field, n, list(range(j)) + list(range(m, k + m - j)))
    return Flag(u, w)


def dual_proj(params, element):
    """Perp map element of the geometry -> element of the dual geometry."""
    if element.dim not in (params.m, params.k) or element.n != params.n:
        raise ValueError("not a point or line of this geometry")
    return perp(element)


def dual_bis(params, element):
    """Perp map for the subspace/bisection family (points and lines)."""
    if isinstance(element, Bisection):
        if element.n != params.n:
            raise ValueError("bisection in the wrong ambient space")
        return element.dual()
    if element.dim != params.m or element.n != params.n:
        raise ValueError("not a point of this geometry")
    return perp(element)


@dataclass
class NondegeneracyReport:
    ok: bool
    num_points: int
    num_lines: int
    num_flags: int
    violation: str | None = None


def _proj_sizes(params):
    q = params.field.q
    return gaussian(params.n, params.m, q), gaussian(params.n, params.k, q)


def _bis_incidence(params):
    """Points, lines and incidence of a bisection geometry on the point
    index: a point is an m-subspace with its point mask, a line an index
    pair (i, j) of disjoint_pairs over the sorted k-subspaces, and an
    incidence two popcounts through meet_dims, as in the concurrent
    oracle.  Also returns the names of a point and a line."""
    field, n = params.field, params.n
    spaces = list(grassmannian(n, field, params.m))
    points = list(zip(spaces, point_masks(spaces)))
    subs = sorted_grassmannian(n, field, params.k)
    halves = point_masks(subs)
    on_halves = mask_incident_bis(params)

    def incident(point, line):
        return on_halves(point[1], halves[line[0]], halves[line[1]])

    def line_name(line):
        return repr(Bisection._disjoint_sorted(subs[line[0]], subs[line[1]]))
    return (lambda: points, lambda: disjoint_pairs(halves), incident,
            lambda point: repr(point[0]), line_name)


def nondegeneracy_check(params, budget=10**7):
    """Verify the three non-degeneracy conditions by enumeration.

    (i) points and lines finite of size >= 2, (ii) every point on at least
    one line, (iii) every line carries at least one point.  Refuses with
    TooLargeError above the incidence-test budget, before listing.
    """
    field = params.field
    if isinstance(params, ProjParams):
        npts, nlin = _proj_sizes(params)
    else:
        npts = gaussian(2 * params.k, params.m, field.q)
        nlin = bisection_count(params.k, field.q)
    if npts * nlin > budget:
        raise TooLargeError("incidence enumeration exceeds budget")
    if npts < 2 or nlin < 2:
        return NondegeneracyReport(False, npts, nlin, 0,
                                   "point or line set smaller than 2")
    if isinstance(params, ProjParams):
        points = lambda: grassmannian(params.n, field, params.m)
        lines = lambda: grassmannian(params.n, field, params.k)
        inc = lambda u, l: incident_proj(params, u, l)
        point_name = line_name = repr
    else:
        points, lines, inc, point_name, line_name = _bis_incidence(params)
    nflags = 0
    for u in points():
        deg = 0
        for l in lines():
            if inc(u, l):
                deg += 1
        nflags += deg
        if deg == 0:
            return NondegeneracyReport(False, npts, nlin, nflags,
                                       f"point {point_name(u)} on no line")
    for l in lines():
        if not any(inc(u, l) for u in points()):
            return NondegeneracyReport(False, npts, nlin, nflags,
                                       f"line {line_name(l)} carries no point")
    return NondegeneracyReport(True, npts, nlin, nflags)
