"""The concurrent scan over all pairs of bisections, and the listing of
every bisection it needs.

`concurrent_all_pairs` is the route glgeom.oracle.concurrent_oracle took
when it was given no orbit representatives: after the perp reduction, it
checked every unordered pair of bisections for an incident m-subspace in
common, under its own budget for the pairs.  `_all_pairs_uncovered` is
the all-pairs loop of glgeom.oracle._uncovered_pair, which now checks the
first line against the rest only.  `bisections` lists every bisection of
V(2k,q) as the disjoint index pairs (`disjoint_pairs`) of the k-subspace
index, each built by `_disjoint_sorted` with no rank test (a classmethod
of glgeom.subspace.Bisection there).  They moved here verbatim from
glgeom.oracle and glgeom.subspace, with their imports made absolute, and
are kept as the reference the orbit route is checked against; nothing in
the package calls them.
"""

from __future__ import annotations

from glgeom.errors import TooLargeError
from glgeom.geometry import mask_incident_bis
from glgeom.oracle import CompletenessVerdict
from glgeom.subspace import (Bisection, bisection_count, coded_subspace,
                             containing_masks, gaussian, grassmannian_index,
                             mask_points, meeting_mask, point_masks)


def _disjoint_sorted(a, b):
    """Unchecked {A, B} for disjoint halves, A first: only for a pair
    that disjoint_pairs has proved disjoint."""
    self = Bisection.__new__(Bisection)
    self.half1, self.half2, self._hash = a, b, hash((a, b))
    return self


def disjoint_pairs(masks):
    """All index pairs (i, j), i < j, of point masks (point_masks) of
    subspaces with meet 0, in order.  Two subspaces meet iff they share a
    projective point, so the clear bits above bit i of meeting_mask are
    the partners j of i; only bitsets are held, never the list of pairs."""
    through = containing_masks(masks)
    everything = (1 << len(masks)) - 1
    for i, mask in enumerate(masks):
        below = (1 << (i + 1)) - 1  # j <= i is never paired with i
        free = everything & ~(meeting_mask(mask, through) | below)
        for j in mask_points(free):
            yield i, j


def bisections(k, field):
    """All bisections of V(2k,q), each unordered pair exactly once: the
    disjoint pairs of the k-subspace index (grassmannian_index).

    Count: bisection_count(k, q), checked once the listing ends.
    disjoint_pairs has proved each pair disjoint, so no rank test repeats.
    """
    codes, masks = grassmannian_index(2 * k, field, k)
    subs = [coded_subspace(field, 2 * k, k, code) for code in codes]
    listed = 0
    for i, j in disjoint_pairs(masks):
        listed += 1
        yield _disjoint_sorted(subs[i], subs[j])
    want = bisection_count(k, field.q)
    if listed != want:
        raise RuntimeError(f"bisections: listed {listed}, expected {want}")


def _all_pairs_uncovered(params, lines):
    """The first pair (lines[a], lines[b]), a < b, of bisections with no
    m-subspace incident with both, or None: the points incident with
    lines[a] are kept, and each lines[b] scans them up to its first
    incident one.  The points are the masks (grassmannian_index) of all
    m-subspaces."""
    if any(b.n != params.n for b in lines):
        raise ValueError("bisection in the wrong ambient space")
    n, field, m = params.n, params.field, params.m
    incident = mask_incident_bis(params)
    points = grassmannian_index(n, field, m)[1]
    halves = point_masks([h for b in lines for h in b.halves()])
    for a in range(len(lines)):
        h1, h2 = halves[2 * a], halves[2 * a + 1]
        kept = [u for u in points if incident(u, h1, h2)]
        for b in range(a + 1, len(lines)):
            h1, h2 = halves[2 * b], halves[2 * b + 1]
            if not any(incident(u, h1, h2) for u in kept):
                return lines[a], lines[b]
    return None


def concurrent_all_pairs(params, budget=10**8):
    """Does every pair of distinct bisections share an incident m-subspace?

    All unordered pairs of bisections are checked, after the perp
    reduction when m > k.  Refuses with TooLargeError before listing
    anything when four tests per pair, or the pairs times the
    gaussian(2k,m,q) points, exceed the budget.
    """
    field = params.field
    q, m, k = field.q, params.m, params.k
    if m > k:
        return concurrent_all_pairs(params.dual(), budget)
    nlines = bisection_count(k, q)
    npairs = nlines * (nlines - 1) // 2
    if npairs * 4 > budget:
        raise TooLargeError("line-pair enumeration exceeds budget; "
                            "supply orbit representatives")
    if npairs * gaussian(2 * k, m, q) > budget:
        raise TooLargeError("point scan over line pairs exceeds budget")
    lines = list(bisections(k, field))
    pair = _all_pairs_uncovered(params, lines)
    return CompletenessVerdict(pair is None, "oracle", failing_pair=pair)
