"""The bisection collinear search as a scan of bisection pairs, kept as
the reference that the package's scan of the points on one line is
checked against.

`pair_scan_bis_search` is glgeom.oracle.bis_collinear_search as it was
before it scanned the points on the coordinate bisection: it indexes all
gaussian(2k,k,q) k-subspaces by projective points, with the tables d1[i]
= dim(S_i meet U1) and, per overlap t, d2[i] = dim(S_i meet U2) of the
canonical pair read off popcounts, and `_incident_disjoint_pair` looks
for a bisection {S_i, S_j} incident with both points: {d1[i], d1[j]} =
{d2[i], d2[j]} = {k1, k2} as multisets, the subspaces meeting S_i being a
bitset OR over its points.  Both moved here verbatim from glgeom.oracle,
the search only renamed, with their imports made absolute;
`containing_masks` and `meeting_mask` come from tests/lattice_reference.py.
Nothing in the package calls this file.
"""

from glgeom.errors import TooLargeError
from glgeom.oracle import CompletenessVerdict
from glgeom.subspace import (canonical_pair, gaussian, grassmannian_index,
                             meet_dims, point_masks)
from lattice_reference import containing_masks, meeting_mask


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


def pair_scan_bis_search(params, budget=10**7):
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
