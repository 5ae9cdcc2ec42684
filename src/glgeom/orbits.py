"""Group actions of GL(n,q) and friends on subspaces, bisections and flags.

Orbit partitions run breadth-first with canonical-form hashing: acting on
a subspace re-reduces its basis, so equal orbits collide in a dict.  The
bisection-stabiliser orbits go through an index fast path for every q:
the k-subspaces are indexed once by their projective-point masks
(subspace.point_masks), each generator permutes the points and so, by
mask lookup, the indices, and a bisection is an index pair i < j coded as
one int.  The pairs come lazily from the same point index
(subspace.disjoint_pairs), a bitset OR per point instead of a rank test
per pair, and the search marks codes in one bytearray of nsub^2 bytes:
no set and no list of pairs is held.  The stabiliser is generated by
GL(k,q) in the first block and the block swap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from collections import Counter
from math import prod

from .gfq import Mat, mat_identity, mat_inverse, mat_mul, mat_rank
from .subspace import (Bisection, Subspace, apply_mat, coordinate_bisection,
                       disjoint_pairs, grassmannian, image_mask, point_masks,
                       point_permutation, sorted_grassmannian, transport_pair)
from .counts import gaussian
from .errors import ParamError, TooLargeError


@dataclass
class GeneratorSet:
    generators: list
    description: str

    def __post_init__(self):
        for g in self.generators:
            if g.rows != g.cols or mat_rank(g) != g.rows:
                raise ValueError("generator is not invertible")


@dataclass
class OrbitReport:
    orbit_lengths: tuple        # sorted ascending
    total: int
    representatives: list = dc_field(default_factory=list)

    def multiset(self):
        return Counter(self.orbit_lengths)

    def format_multiset(self):
        c = self.multiset()
        return " ".join(f"{length}^{c[length]}" if c[length] > 1 else str(length)
                        for length in sorted(c))

    @property
    def num_orbits(self):
        return len(self.orbit_lengths)


def _transvection(field, n, i, j):
    m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    m[i][j] = 1
    return Mat(field, m)


def _cycle(field, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][(i + 1) % n] = 1
    return Mat(field, m)


def _primitive_element(field):
    """A multiplicative generator of GF(q)*, found by order check."""
    q = field.q
    for a in range(2, q):
        x = a
        order = 1
        while x != 1:
            x = field.mul(x, a)
            order += 1
        if order == q - 1:
            return a
    return 1  # q = 2


def gl_generators(n, field):
    """A standard generating set of GL(n,q)."""
    q = field.q
    gens = []
    if n == 1:
        if q > 2:
            gens.append(Mat(field, [[_primitive_element(field)]]))
        else:
            gens.append(mat_identity(field, 1))
    else:
        gens.append(_transvection(field, n, 0, 1))
        gens.append(_cycle(field, n))
        if q > 2:
            a = _primitive_element(field)
            d = [[a if i == j == 0 else (1 if i == j else 0) for j in range(n)]
                 for i in range(n)]
            gens.append(Mat(field, d))
    return GeneratorSet(gens, f"GL({n},{q})")


def _embed_block(field, g, n, offset):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(g.rows):
        for j in range(g.cols):
            m[offset + i][offset + j] = g.entries[i][j]
    return Mat(field, m)


def _block_swap(field, k):
    m = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        m[i][k + i] = 1
        m[k + i][i] = 1
    return Mat(field, m)


def bisection_stabiliser_generators(b):
    """Generators of the setwise stabiliser of a bisection in GL(2k,q).

    For the coordinate bisection: GL(k,q) embedded in the first block plus
    the block swap, which conjugates each first-block generator into its
    second-block copy, so they generate GL(k) wr C2 (order 2 |GL(k,q)|^2).
    Other bisections are conjugated into coordinate position first.
    """
    field, k, n = b.field, b.k, b.n
    coord = coordinate_bisection(field, k)
    gens = [_embed_block(field, g, n, 0)
            for g in gl_generators(k, field).generators]
    gens.append(_block_swap(field, k))
    if b != coord:
        t = transport_pair(coord.half1, coord.half2, b.half1, b.half2)
        ti = mat_inverse(t)
        gens = [mat_mul(mat_mul(ti, g), t) for g in gens]
    return GeneratorSet(gens, f"stabiliser of bisection (k={k}, q={field.q})")


def subspace_stabiliser_generators(m_dim, n, field):
    """Generators of the stabiliser of <e_1..e_m> in GL(n,q).

    Block lower-triangular: GL(m) and GL(n-m) blocks plus one corner
    transvection adding e_1 into row m.
    """
    gens = []
    for g in gl_generators(m_dim, field).generators:
        gens.append(_embed_block(field, g, n, 0))
    if n > m_dim:
        for g in gl_generators(n - m_dim, field).generators:
            gens.append(_embed_block(field, g, n, m_dim))
        gens.append(_transvection(field, n, m_dim, 0))
    return GeneratorSet(gens, f"stabiliser of an {m_dim}-subspace in GL({n},{field.q})")


def _act(element, g):
    if isinstance(element, Subspace):
        return apply_mat(element, g)
    if isinstance(element, Bisection):
        return element.apply(g)
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
                for g in gens.generators:
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
    gens = bisection_stabiliser_generators(b0)
    perms = []
    for g in gens.generators:
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


def pm_orbits_on_k_spaces(n, m, k, field, budget=10**7):
    """Orbits of the stabiliser of <e_1..e_m> on all k-subspaces; refused
    before any is listed when gaussian(n,k,q) exceeds the budget."""
    count = gaussian(n, k, field.q)
    if count > budget:
        raise TooLargeError(f"{count} {k}-subspaces of V({n},{field.q}) "
                            f"exceed the budget of {budget}")
    gens = subspace_stabiliser_generators(m, n, field)
    seeds = list(grassmannian(n, field, k))
    return orbit_partition(gens, seeds, budget=budget)


def group_order_by_basis_orbit(gens, n, field, budget=10**7):
    """|<gens>| as the orbit size of the standard ordered basis.

    The action on ordered bases is free, so the orbit of (e_1,...,e_n)
    under the generated subgroup has exactly the group order.
    """
    start = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    from .gfq import vec_mat
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for basis in frontier:
            for g in gens.generators:
                img = tuple(vec_mat(v, g) for v in basis)
                if img not in seen:
                    if len(seen) > budget:
                        raise TooLargeError("basis orbit exceeded budget")
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen)


GOLDEN_ORBITS = {
    # stabiliser of a bisection acting on the remaining bisections
    (3, 2): {24: 1, 64: 2, 72: 1, 96: 1, 144: 1, 192: 1, 288: 2, 384: 1,
             576: 3, 768: 1, 1152: 1},          # (q, k) = (3, 2), sum 5264
    (2, 3): {98: 1, 336: 1, 441: 1, 588: 2, 784: 1, 1176: 1, 1568: 1,
             1764: 1, 3528: 2, 4032: 1, 7056: 4, 9408: 4, 14112: 6,
             18816: 1, 28224: 6},               # (q, k) = (2, 3), sum 357119
}
