"""Independent brute-force completeness oracles, checked against the closed
forms of glgeom.predicates.

The collinear searches (proj_collinear_search, bis_collinear_search)
decide each overlap t (pairs with equal overlap form one orbit), after
one budget check over every overlap.  The collinear oracles are the
witness at every overlap, or one search: the witness fails from the
closed form, which does not depend on t.  So incompleteness is only
reported after a full scan of what can be incident, and a witness bug
cannot fake a positive.

The two collinear scans avoid a rank test per line:

- proj: the pair is U1 = <e_{n-m}..e_{n-1}>, U2 = <e_{n-2m+t}..e_{n-m+t-1}>,
  the canonical pair of subspace.canonical_pair moved by the
  coordinate-reversal permutation (an element of GL(n,q)), hence with the
  same overlap t and in the same orbit.  By the pivot lemma of
  subspace.range_meet_dim, W in canonical rref meets the suffix U1 in
  #{i : p_i >= n-m} dimensions, p_1 < ... < p_k its pivots, and U2 in at
  most #{i : n-2m+t <= p_i < n-m+t}.  Only the Schubert cells with
  exactly j pivots of the first kind and at least j of the second are
  listed (none at an overlap where no cell has both, which then fails at
  once), with one range_meet_dim(W, n-2m+t, n-m+t) per line for U2,
  which ranks only the nonzero slices of W's rows past U2's columns.
  The budget counts those lines in closed form
  (subspace.block_cell_count), per pivot count in the four column blocks
  that U1 and U2 cut.
- bis: no line is scanned.  By flag transitivity one scan of the points
  on the coordinate bisection decides every t, each point's overlap with
  the first read off a popcount of their point masks.

The concurrent oracle reads incidence off the same point masks: the
m-subspaces are masked once per call, straight from row codes
(subspace.grassmannian_index), and a pair of bisections is covered iff some point
mask meets the four halves in the pattern.  It has one route: by flag
transitivity it checks the coordinate bisection against one representative
of each orbit of its stabiliser (orbits.stabiliser_orbits_on_bisections),
so only the Schubert cells that _suffix_cells selects are masked.
"""

from __future__ import annotations

from itertools import combinations, product

# unused here; the benchmark's self-test checks that tracing rebinds it
from .gfq import pk_rank  # noqa: F401
from .subspace import (block_cell_count, coordinate_bisection, gaussian,
                       grassmannian_index, meet_dims, point_masks,
                       range_meet_dim, schubert_cell)
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

def _proj_blocks(n, m, k, j, t):
    """The columns of the pruned scan at overlap t, cut into the blocks
    [0, lo), [lo, n-m), [n-m, hi), [hi, n) by U2 = <e_lo..e_{hi-1}> and
    U1 = <e_{n-m}..e_{n-1}>, and the pivot counts (a, b, c, d) in them of
    the cells the scan lists: c + d = j (the lines of U1) and b + c >= j,
    as dim(W meet U2) is at most W's pivot count in U2's columns."""
    lo, hi = n - 2 * m + t, n - m + t
    blocks = (range(lo), range(lo, n - m), range(n - m, hi), range(hi, n))
    counts = [(k - j - b, b, c, j - c) for c in range(j + 1)
              for b in range(max(0, j - c), k - j + 1)]
    return blocks, [x for x in counts
                    if all(c <= len(r) for c, r in zip(x, blocks))]


def proj_collinear_search(params, budget=10**7):
    """Search-based collinear completeness of the m-vs-k geometry.

    One pair per overlap t, moved to suffix position (module docstring); a
    t fails only after every line W the pivot lemma admits has been
    scanned without dim(W meet U2) = j: the Schubert cells of Gr(n,k) with
    exactly j pivots >= n-m (dim(W meet U1) = j) and at least j in U2's
    columns (_proj_blocks), in lex order.  A t that admits no cell fails
    at once.  The budget bounds the subspaces the scans may list, summed
    over the overlaps by the block counts of subspace.block_cell_count,
    and is checked before anything is listed.
    """
    n, m, k, j = params.n, params.m, params.k, params.j
    field = params.field
    overlaps = range(max(0, 2 * m - n), m)
    scans = [_proj_blocks(n, m, k, j, t) for t in overlaps]
    lines = sum(block_cell_count(list(map(len, blocks)), c, field.q)
                for blocks, counts in scans for c in counts)
    if lines > budget:
        raise TooLargeError(f"{len(overlaps)} pruned Schubert-cell scans of "
                            f"{lines} {k}-subspaces in all exceed the budget "
                            f"of {budget}")
    for t, (blocks, counts) in zip(overlaps, scans):
        lo, hi = blocks[1].start, blocks[2].stop  # U2's columns
        cells = sorted(sum(parts, ()) for c in counts
                       for parts in product(*map(combinations, blocks, c)))
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


def _suffix_cells(k, m, counts):
    """The pivot sets of the Schubert cells of Gr(2k, m) that hold every
    m-subspace W meeting <e_k..e_{2k-1}> in a dimension in counts: that is
    #{i : p_i >= k} (the pivot lemma of subspace.range_meet_dim)."""
    return [p for p in combinations(range(2 * k), m)
            if sum(c >= k for c in p) in counts]


def bis_collinear_search(params, budget=10**7):
    """Search-based collinear completeness of the subspace/bisection geometry.

    One scan of the points on the coordinate bisection B0 = {V1, V2}, m > k
    included.  The geometry is flag-transitive, so G = PQP iff the points
    on one line meet every orbit of one point's stabiliser (Alavi &
    Praeger, J. Group Theory 14, 2011):
    - Q = Stab(B0) is transitive on the points of B0: by Goursat,
      (dim U meet V1, dim U meet V2) is the only invariant, and the half
      swap joins the two orders;
    - P = Stab(alpha) has one orbit per overlap t = dim(U meet alpha).
    So failing_t is the least t that no point on B0 has with alpha, the
    first of them: the points of the cells of _suffix_cells that
    mask_incident_bis keeps.  The budget, checked before anything is
    listed, bounds what grassmannian_index builds: the cells' subspaces
    times the (q^m - 1)/(q - 1) bits of each, and the span loop's digit
    tables (q^(k+1) entries, plus q^(2k) at odd p).  A listing that
    misses that cell count raises RuntimeError.
    """
    field = params.field
    q, m, k = field.q, params.m, params.k
    counts = {params.k1, params.k2}
    cells = sum(block_cell_count((k, k), (m - c, c), q) for c in counts)
    work = (cells * gaussian(m, 1, q) + q ** (k + 1)
            + (q ** (2 * k) if field.p != 2 else 0))
    if work > budget:
        raise TooLargeError(f"{work} point bits and table entries for {cells} "
                            f"{m}-subspaces exceed the budget of {budget}")
    masks = grassmannian_index(2 * k, field, m, _suffix_cells(k, m, counts))[1]
    if len(masks) != cells:
        raise RuntimeError(f"listed {len(masks)} {m}-subspaces of "
                           f"V({2 * k},{q}), not the {cells} of their cells")
    incident = mask_incident_bis(params)
    h1, h2 = point_masks(coordinate_bisection(field, k).halves())
    dims = meet_dims(q, 2 * k)
    on = (u for u in masks if incident(u, h1, h2))
    alpha = next(on)
    missing = set(range(max(0, 2 * m - 2 * k), m))
    for u in on:
        missing.discard(dims[(u & alpha).bit_count()])
        if not missing:
            return CompletenessVerdict(True, "oracle")
    return CompletenessVerdict(False, "oracle", failing_t=min(missing))


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
    pair = _uncovered_pair(params, lines,
                           _suffix_cells(k, m, (params.k1, params.k2)))
    return CompletenessVerdict(pair is None, "oracle", failing_pair=pair)


def pair_has_common_point(params, b1, b2):
    """Re-check helper: does some m-subspace hit both bisections correctly?"""
    return _uncovered_pair(params, [b1, b2]) is None
