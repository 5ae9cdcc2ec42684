"""Reference kernels that the package's orbit routines are checked against.

`stabiliser_orbits_on_bisections` is the bytearray search over every
bisection that glgeom.orbits used before its route through subspace orbits
and stabiliser orbits on complements, with its helper `image_mask`;
`orbit_partition`, with its helpers `_act` and `_sort_key`, is the
canonical-form BFS that re-reduces a basis per action, which
glgeom.orbits used for the orbits on k-subspaces before its BFS on the
point index; `group_order_by_basis_orbit` counts a matrix group by its
free action on ordered bases.  They are kept verbatim as independent
oracles, with generators as lists of matrices (tuples of rows) and the
action from tests/lattice_reference.py; nothing in the package calls
them.
"""

from math import prod

from glgeom.counts import gaussian
from glgeom.errors import ParamError, TooLargeError
from glgeom.gfq import vec_mat
from glgeom.orbits import OrbitReport, bisection_stabiliser_generators
from glgeom.subspace import (Bisection, Subspace, coordinate_bisection,
                             mask_points, point_masks, point_permutation)
from concurrent_reference import disjoint_pairs
from lattice_reference import apply_bisection, apply_mat, sorted_grassmannian


def image_mask(mask, perm):
    """The mask of the image subspace under a point permutation."""
    return sum(1 << perm[p] for p in mask_points(mask))


def stabiliser_orbits_on_bisections(k, field, budget=10**7):
    """Orbits of the coordinate-bisection stabiliser on all other bisections.

    Index fast path: the k-subspaces of V(2k,q) are listed once in
    canonical order, and each generator becomes an index permutation via
    its point permutation and the subspaces' point masks (no re-reduction).
    The bisections are the disjoint index pairs (i, j), i < j, of
    disjoint_pairs, coded as the ints i * nsub + j and consumed as they
    come.  The search marks codes in one bytearray of nsub^2 bytes, at
    most about 7 bytes per bisection, so the count budget bounds memory
    too.  The pairs arrive in increasing code order and orbits are
    closed, so the pair that starts an orbit is its least, the
    representative.  Refuses k < 1 with ParamError, and with
    TooLargeError before any enumeration when the bisection count
    gaussian(2k,k,q) q^(k^2) / 2 exceeds the budget.  Raises RuntimeError
    if the pair count or an orbit length contradicts the counting
    formulas.
    """
    if k < 1:
        raise ParamError("need k >= 1")
    q, n = field.q, 2 * k
    count = gaussian(n, k, q) * q**(k * k) // 2
    if count > budget:
        raise TooLargeError(f"{count} bisections of V({n},{q}) exceed the "
                            f"budget of {budget}")
    subs = sorted_grassmannian(n, field, k)
    nsub = len(subs)
    masks = point_masks(subs)
    index = {mask: i for i, mask in enumerate(masks)}
    b0 = coordinate_bisection(field, k)
    perms = []
    for g in bisection_stabiliser_generators(k, field):
        moved = point_permutation(field, n, g)
        perms.append([index[image_mask(mask, moved)] for mask in masks])
    visited = bytearray(nsub * nsub)
    visited[subs.index(b0.half1) * nsub + subs.index(b0.half2)] = 1
    listed = 0
    lengths = []
    reps = []
    for i, j in disjoint_pairs(masks):
        listed += 1
        pair = i * nsub + j
        if visited[pair]:
            continue
        visited[pair] = 1
        length = 1
        frontier = [pair]
        while frontier:
            nxt = []
            for code in frontier:
                lo, hi = divmod(code, nsub)
                for perm in perms:
                    a, b = perm[lo], perm[hi]
                    image = a * nsub + b if a < b else b * nsub + a
                    if not visited[image]:
                        visited[image] = 1
                        nxt.append(image)
            length += len(nxt)
            frontier = nxt
        lengths.append(length)
        reps.append(pair)
    if listed != count:
        raise RuntimeError(f"{listed} disjoint pairs of k-subspaces, "
                           f"expected {count} bisections")
    stabiliser_order = 2 * prod(q**k - q**i for i in range(k))**2
    if sum(lengths) != count - 1 or any(stabiliser_order % x for x in lengths):
        raise RuntimeError("orbit lengths contradict the orbit-stabiliser "
                           f"theorem for a group of order {stabiliser_order}")
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], reps[i]))
    rep_bisections = [Bisection(subs[reps[i] // nsub], subs[reps[i] % nsub])
                      for i in order]
    return OrbitReport(tuple(lengths[i] for i in order), count - 1,
                       rep_bisections)


def _act(element, g):
    if isinstance(element, Subspace):
        return apply_mat(element, g)
    if isinstance(element, Bisection):
        return apply_bisection(element, g)
    if isinstance(element, tuple):  # flag or any tuple of subspaces
        return tuple(apply_mat(x, g) for x in element)
    raise TypeError(f"cannot act on {type(element)}")


def _sort_key(element):
    if isinstance(element, tuple):
        return tuple(x.sort_key() for x in element)
    return element.sort_key()


def orbit_partition(gens, seeds, budget=10**7):
    """Partition the seed set into orbits under the generated group.

    Seeds may be subspaces, bisections or flags (tuples of subspaces); the
    action is canonical-form BFS.  For big bisection sets prefer
    stabiliser_orbits_on_bisections.
    """
    seeds = list(seeds)
    if len(seeds) > budget:
        raise TooLargeError("seed set exceeds budget")
    seed_set = set(seeds)
    visited = set()
    lengths = []
    reps = []
    steps = 0
    for s in seeds:
        if s in visited:
            continue
        orbit = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = _act(x, g)
                    steps += 1
                    if steps > budget:
                        raise TooLargeError("orbit BFS exceeded budget")
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        if not orbit <= seed_set:
            raise ValueError("seed set is not closed under the action")
        visited |= orbit
        lengths.append(len(orbit))
        reps.append(min(orbit, key=_sort_key))
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], _sort_key(reps[i])))
    return OrbitReport(tuple(lengths[i] for i in order), len(seeds),
                       [reps[i] for i in order])


def group_order_by_basis_orbit(gens, n, field, budget=10**7):
    """|<gens>| as the orbit size of the standard ordered basis.

    The action on ordered bases is free, so the orbit of (e_1,...,e_n)
    under the generated subgroup has exactly the group order.
    """
    start = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for basis in frontier:
            for g in gens:
                img = tuple(vec_mat(field, v, g) for v in basis)
                if img not in seen:
                    if len(seen) > budget:
                        raise TooLargeError("basis orbit exceeded budget")
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen)
