"""Independent brute-force completeness oracles, checked against the closed
forms of glgeom.predicates.

The collinear searches (proj_collinear_search, bis_collinear_search)
scan the line set at one point pair per overlap t (pairs with equal
overlap form one orbit), after one budget check over every overlap.  The
collinear oracles are the witness at every overlap, or one search: the
witness fails from the closed form, which does not depend on t.  So
incompleteness is only reported after a full scan, and a witness bug
cannot fake a positive.

The two collinear scans avoid a rank test per line:

- proj: the pair is U1 = <e_{n-m}..e_{n-1}>, U2 = <e_{n-2m+t}..e_{n-m+t-1}>,
  the canonical pair of subspace.canonical_pair moved by the
  coordinate-reversal permutation (an element of GL(n,q)), hence with the
  same overlap t and in the same orbit.  By the pivot lemma of
  subspace.range_meet_dim, W in canonical rref meets the suffix U1 in
  #{i : p_i >= n-m} dimensions, p_1 < ... < p_k its pivots.  Only the
  Schubert cells with exactly j such pivots are scanned, with one
  range_meet_dim(W, n-2m+t, n-m+t) per line for U2, which ranks only
  the nonzero slices of W's rows past U2's columns.
- bis: the k-subspaces S_i are indexed once by projective points, straight
  from row codes (subspace.grassmannian_index), with the tables d1[i] =
  dim(S_i meet U1) and, per t, d2[i] = dim(S_i meet U2) read off
  popcounts; a bisection {S_i, S_j} is incident with both points iff
  {d1[i], d1[j]} = {d2[i], d2[j]} = {k1, k2} as multisets, and the
  subspaces meeting S_i are a bitset OR over its points.

The concurrent oracle reads incidence off the same point masks: the
m-subspaces are masked once per call, straight from row codes
(subspace.grassmannian_index), and a pair of bisections is covered iff some point
mask meets the four halves in the pattern.  It has one route: by flag
transitivity it checks the coordinate bisection against one representative
of each orbit of its stabiliser (orbits.stabiliser_orbits_on_bisections),
so every pair holds the coordinate bisection, one half of which is the
suffix <e_k..e_{2k-1}>; by the pivot lemma, W meets it in dimension
#{i : p_i >= k}, so only the Schubert cells of Gr(2k,m) with k1 or k2
pivots from column k are masked.
"""

from __future__ import annotations

from itertools import combinations

# unused here; the benchmark's self-test checks that tracing rebinds it
from .gfq import pk_rank  # noqa: F401
from .subspace import (canonical_pair, containing_masks,
                       coordinate_bisection, gaussian, grassmannian_index,
                       meet_dims, meeting_mask, point_masks, range_meet_dim,
                       schubert_cell)
from .errors import TooLargeError
from .geometry import mask_incident_bis
from .orbits import stabiliser_orbits_on_bisections
from .witness import (PredicateFailsError, bis_collinear_witness,
                      proj_collinear_witness)


class CompletenessVerdict:
    __slots__ = ("complete", "method", "failing_t", "failing_pair")

    def __init__(self, complete, method, failing_t=None, failing_pair=None):
        self.complete = complete
        self.method = method             # "oracle" (a search) | "witness"
        self.failing_t = failing_t
        self.failing_pair = failing_pair


# ----------------------------------------------------------------------
# collinear searches and oracles
# ----------------------------------------------------------------------

def proj_collinear_search(params, budget=10**7):
    """Search-based collinear completeness of the m-vs-k geometry.

    One pair per overlap t, moved to suffix position (module docstring); a
    t fails only after every line W with dim(W meet U1) = j, i.e. every
    Schubert cell of Gr(n,k) with exactly j pivots >= n-m, has been
    scanned without dim(W meet U2) = j.  The budget bounds the subspaces
    the scans may list, those lines once per overlap, and is checked
    before anything is listed.
    """
    n, m, k, j = params.n, params.m, params.k, params.j
    field = params.field
    q = field.q
    overlaps = range(max(0, 2 * m - n), m)
    # the k-subspaces W with dim(W meet U1) = j
    lines = (q ** ((m - j) * (k - j)) * gaussian(m, j, q)
             * gaussian(n - m, k - j, q))
    if lines * len(overlaps) > budget:
        raise TooLargeError(f"{len(overlaps)} Schubert-cell scans of {lines} "
                            f"{k}-subspaces exceed the budget of {budget}")
    # k-j pivots left of column n-m and j from it on, in lex order
    cells = [lo + hi for lo in combinations(range(n - m), k - j)
             for hi in combinations(range(n - m, n), j)]
    for t in overlaps:
        lo, hi = n - 2 * m + t, n - m + t  # U2's columns
        if not any(range_meet_dim(w, lo, hi) == j
                   for p in cells for w in schubert_cell(n, field, p)):
            return CompletenessVerdict(False, "oracle", failing_t=t)
    return CompletenessVerdict(True, "oracle")


def proj_collinear_oracle(params, budget=10**7):
    """The witness at every overlap t, or proj_collinear_search where the
    closed form fails (at the first t, as it does not depend on t)."""
    n, m, k, j = params.n, params.m, params.k, params.j
    try:
        for t in range(max(0, 2 * m - n), m):
            proj_collinear_witness(n, m, k, j, t, params.field)
    except PredicateFailsError:
        return proj_collinear_search(params, budget)
    return CompletenessVerdict(True, "witness")


def _incident_disjoint_pair(masks, through, d1, d2, k1, k2):
    """Is some bisection {S_i, S_j} (k1,k2)-incident with both points,
    given the point masks of the S_i, containing_masks of them and the
    tables d1, d2 of intersection dimensions with the points?

    S_i must have (d1[i], d2[i]) in {k1,k2}^2 and a partner j > i in the
    complementary class (k1+k2-d1[i], k1+k2-d2[i]), a bitset over indices;
    only then are the subspaces meeting S_i ORed from the point index.
    """
    classes = {}
    for i, key in enumerate(zip(d1, d2)):
        classes[key] = classes.get(key, 0) | 1 << i
    want = (k1, k2)
    for i, (a, b) in enumerate(zip(d1, d2)):
        if a in want and b in want:
            above = classes.get((k1 + k2 - a, k1 + k2 - b), 0) >> (i + 1)
            if above and above & ~(meeting_mask(masks[i], through) >> (i + 1)):
                return True
    return False


def bis_collinear_search(params, budget=10**7):
    """Search-based collinear completeness of the subspace/bisection geometry.

    Scans the stated parameters, m > k included: the canonical pairs, U1
    once and U2 per overlap t, masked in one point_masks call, and all
    bisections through the dimension tables of the module docstring.  The
    budget bounds q^k vectors for each of the gaussian(2k,k,q) k-subspaces
    (more than the points the index codes) once per overlap, and is
    checked before anything is listed.
    """
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    overlaps = range(max(0, 2 * m - 2 * k), m)
    nsub = gaussian(2 * k, k, q)
    if nsub * q ** k * len(overlaps) > budget:
        raise TooLargeError(f"{len(overlaps)} table scans of the {q ** k} "
                            f"vectors of {nsub} {k}-subspaces exceed "
                            f"the budget of {budget}")
    masks = grassmannian_index(2 * k, field, k)[1]
    through = containing_masks(masks)
    dims = meet_dims(q, 2 * k)
    pairs = [canonical_pair(field, 2 * k, m, t) for t in overlaps]
    u1, *u2s = point_masks([pairs[0][0], *(u2 for _, u2 in pairs)])
    d1 = [dims[(x & u1).bit_count()] for x in masks]
    for t, u2 in zip(overlaps, u2s):
        d2 = [dims[(x & u2).bit_count()] for x in masks]
        if not _incident_disjoint_pair(masks, through, d1, d2, k1, k2):
            return CompletenessVerdict(False, "oracle", failing_t=t)
    return CompletenessVerdict(True, "oracle")


def bis_collinear_oracle(params, budget=10**7):
    """The perp reduction when m > k, then the witness at every overlap t,
    or bis_collinear_search where the closed form fails (at the first t)."""
    if params.m > params.k:
        params = params.dual()
    try:
        for t in range(params.m):
            bis_collinear_witness(params, t)
    except PredicateFailsError:
        return bis_collinear_search(params, budget)
    return CompletenessVerdict(True, "witness")


# ----------------------------------------------------------------------
# concurrent oracle
# ----------------------------------------------------------------------

def _uncovered_pair(params, lines, cells=None):
    """The first pair (lines[0], lines[b]), b > 0, of bisections with no
    m-subspace incident with both, or None: the points incident with
    lines[0] are kept, and each lines[b] scans them up to its first
    incident one.  The points are the masks (grassmannian_index) of the
    m-subspaces of the Schubert cells with the given pivot sets (default:
    all), which must hold every point incident with lines[0]."""
    if any(b.n != params.n or b.field != params.field for b in lines):
        raise ValueError("bisection in the wrong ambient space or field")
    n, field, m = params.n, params.field, params.m
    incident = mask_incident_bis(params)
    points = grassmannian_index(n, field, m, cells)[1]
    halves = point_masks([h for b in lines for h in b.halves()])
    kept = [u for u in points if incident(u, halves[0], halves[1])]
    for b in range(1, len(lines)):
        h1, h2 = halves[2 * b], halves[2 * b + 1]
        if not any(incident(u, h1, h2) for u in kept):
            return lines[0], lines[b]
    return None


def concurrent_oracle(params, orbit_reps=None, budget=10**7):
    """Does every pair of distinct bisections share an incident m-subspace?

    Only the pairs (coordinate bisection, representative) are checked, one
    representative per orbit of the coordinate-bisection stabiliser, which
    is sufficient by transitivity.  orbit_reps shares one partition across
    calls; without it the partition is computed after the perp reduction
    (k is unchanged, and the perp dual fixes the coordinate bisection), and
    stabiliser_orbits_on_bisections refuses with TooLargeError before any
    enumeration when its bisection count exceeds the budget.  The point
    scan is refused with TooLargeError, before any point is masked, when
    the pairs times the gaussian(2k,m,q) points exceed the budget.
    """
    if params.m > params.k:
        params = params.dual()
        if orbit_reps is not None:
            orbit_reps = [b.dual() for b in orbit_reps]
    field = params.field
    q, m, k = field.q, params.m, params.k
    if orbit_reps is None:
        orbit_reps = stabiliser_orbits_on_bisections(
            k, field, budget).representatives
    if len(orbit_reps) * gaussian(2 * k, m, q) > budget:
        raise TooLargeError("point scan over line pairs exceeds budget")
    lines = [coordinate_bisection(field, k), *orbit_reps]
    # dim(W meet <e_k..e_{2k-1}>) is W's pivot count from column k
    # (the pivot lemma of subspace.range_meet_dim)
    cells = [p for p in combinations(range(2 * k), m)
             if sum(c >= k for c in p) in (params.k1, params.k2)]
    pair = _uncovered_pair(params, lines, cells)
    return CompletenessVerdict(pair is None, "oracle", failing_pair=pair)


def pair_has_common_point(params, b1, b2):
    """Re-check helper: does some m-subspace hit both bisections correctly?"""
    return _uncovered_pair(params, [b1, b2]) is None
