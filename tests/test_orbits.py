"""Generator sets, orbit partitions, and the two reference computations."""

import hashlib
from itertools import islice
from random import Random

import pytest

from glgeom.counts import TooLargeError
from glgeom.errors import ParamError
from glgeom.gfq import factor_prime_power, field_make, vec_mat
from glgeom.orbits import (GOLDEN_ORBITS, _index_orbits,
                           bisection_stabiliser_generators,
                           gl_generators, pm_orbits_on_k_spaces,
                           random_elements, schreier_sims,
                           stabiliser_orbits_on_bisections,
                           subspace_stabiliser_generators)
from glgeom.subspace import (coordinate_bisection, coordinate_subspace,
                             gaussian, grassmannian, intersection_dim,
                             meet_dims, point_masks, point_permutation)
from concurrent_reference import bisections
from lattice_reference import apply_bisection, apply_mat
import orbit_reference
from orbit_reference import group_order_by_basis_orbit, orbit_partition

F2 = field_make(2)
F3 = field_make(3)


def gl_order(n, q):
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def point_action_order(gens, n, field, order, draws=1000):
    """The product of the basic orbit lengths that schreier_sims reaches
    on the point permutations of gens, fed random products of them.  It
    stops only at the given order, and the product never exceeds the
    order of the group its strong generators generate, so reaching it
    shows the group on points has at least that order; RuntimeError if
    the draws run out first."""
    perms = [point_permutation(field, n, g) for g in gens]
    chain = schreier_sims(islice(random_elements(perms, Random(7)), draws),
                          order)
    out = 1
    for _, _, cosets in chain:
        out *= len(cosets)
    return out


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------

def test_gl1_generators():
    assert gl_generators(1, F2) == [((1,),)]
    assert group_order_by_basis_orbit(gl_generators(1, F3), 1, F3) == 2


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_gl_generators_generate(n, q):
    field = field_make(q)
    gens = gl_generators(n, field)
    assert group_order_by_basis_orbit(gens, n, field) == gl_order(n, q)
    # the scalars act trivially on points
    assert point_action_order(gens, n, field, gl_order(n, q) // (q - 1)) \
        * (q - 1) == gl_order(n, q)
    # transitive on points
    points = list(grassmannian(n, field, 1))
    report = orbit_partition(gens, points)
    assert report.num_orbits == 1
    # orbit BFS from e_1 reaches every nonzero vector
    start = tuple(1 if i == 0 else 0 for i in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = vec_mat(field, v, g)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == q**n - 1


def test_bisection_stabiliser_orders():
    gens = bisection_stabiliser_generators(1, F2)
    assert group_order_by_basis_orbit(gens, 2, F2) == 2
    assert point_action_order(gens, 2, F2, 2) == 2
    gens = bisection_stabiliser_generators(2, F3)
    want = 2 * gl_order(2, 3)**2  # 4608
    assert group_order_by_basis_orbit(gens, 4, F3) == want
    assert point_action_order(gens, 4, F3, want // 2) * 2 == want


@pytest.mark.slow
def test_bisection_stabiliser_order_k3_q2():
    gens = bisection_stabiliser_generators(3, F2)
    want = 2 * gl_order(3, 2)**2  # 56448
    assert group_order_by_basis_orbit(gens, 6, F2) == want
    assert point_action_order(gens, 6, F2, want) == want


def test_order_kernel_refuses_an_order_it_cannot_reach():
    """Without the block swap the generators give GL(2,3) in the first
    block only, which acts faithfully on points: the product of the basic
    orbit lengths reaches its order 48 and never the wreath product's,
    and the draws run out."""
    block = bisection_stabiliser_generators(2, F3)[:-1]
    assert point_action_order(block, 4, F3, gl_order(2, 3)) == 48
    with pytest.raises(RuntimeError, match="ran out of draws"):
        point_action_order(block, 4, F3, gl_order(2, 3)**2, draws=200)


def test_stabiliser_fixes_bisection():
    b0 = coordinate_bisection(F3, 2)
    for g in bisection_stabiliser_generators(2, F3):
        assert apply_bisection(b0, g) == b0


def test_subspace_stabiliser_fixes_subspace():
    u = coordinate_subspace(F3, 4, [0, 1])
    for g in subspace_stabiliser_generators(2, 4, F3):
        assert apply_mat(u, g) == u


@pytest.mark.parametrize("q", [2, 3])
def test_point_permutation_refuses_a_singular_matrix(q):
    """A singular g sends some point to zero: ValueError, not ParamError,
    so the CLI reports an internal error (exit 4), not bad parameters.  A
    matrix that is not n x n is refused the same way."""
    field = field_make(q)
    refused = [(2, ((1, 1), (1, 1))), (2, ((1, q - 1), (q - 1, 1))),
               (3, ((1, 0, 0), (0, 1, 0), (0, 0, 0))),
               (3, ((1, 0, 1), (0, 1, 1), (1, 1, 2))),
               (2, ((1, 0),)), (2, ((1, 0, 0), (0, 1, 0)))]
    for n, g in refused:
        with pytest.raises(ValueError, match="not .*invertible") as info:
            point_permutation(field, n, g)
        assert not isinstance(info.value, ParamError), g


@pytest.mark.parametrize("q", [2, 3, 4])
def test_every_builder_generator_is_a_point_permutation(q):
    """Each generator of the three builders, at every size the routes and
    tests use, permutes the projective points."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    built = [(n, gl_generators(n, field)) for n in range(1, 5)]
    built += [(2 * k, bisection_stabiliser_generators(k, field))
              for k in (1, 2)]
    built += [(n, subspace_stabiliser_generators(m, n, field))
              for n in range(2, 5) for m in range(1, n)]
    for n, gens in built:
        for g in gens:
            perm = point_permutation(field, n, g)
            assert sorted(perm) == list(range((q ** n - 1) // (q - 1)))


def test_generator_matrices_are_pinned():
    """The three builders return the same matrices, entry for entry and
    in the same order: one sha256 over the reprs of gl_generators(n),
    bisection_stabiliser_generators(n) and subspace_stabiliser_generators
    (m, n) for m = 1..n, n = 1..6, per q in (2, 3, 4, 5, 7, 8, 9, 16)."""
    digest = hashlib.sha256()
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        field = field_make(*factor_prime_power(q))
        for n in range(1, 7):
            digest.update(repr(gl_generators(n, field)).encode())
            digest.update(
                repr(bisection_stabiliser_generators(n, field)).encode())
            for m in range(1, n + 1):
                digest.update(repr(
                    subspace_stabiliser_generators(m, n, field)).encode())
    assert digest.hexdigest() == ("8ebdf17b4a83019eadaa0deba34a9cb9"
                                  "7a9560c8cf0190772a3458cecd6813b7")


# ---------------------------------------------------------------------
# orbit partition
# ---------------------------------------------------------------------

def test_orbit_partition_transitive_example():
    points = list(grassmannian(2, F2, 1))
    report = orbit_partition(gl_generators(2, F2), points)
    assert report.orbit_lengths == (3,)
    assert report.total == 3


def test_orbit_partition_deterministic_under_generator_order():
    gens = gl_generators(3, F2)
    seeds = list(grassmannian(3, F2, 1))
    rev = list(reversed(gens))
    a = orbit_partition(gens, seeds)
    b = orbit_partition(rev, seeds)
    assert a.orbit_lengths == b.orbit_lengths
    assert a.representatives == b.representatives


def test_order2_stabiliser_on_projective_line():
    """k=1, q=2: the stabiliser of one bisection of PG(1,2) has order 2 and
    a single orbit of length 2 on the other two bisections (the swap maps
    them to each other)."""
    b0 = coordinate_bisection(F2, 1)
    gens = bisection_stabiliser_generators(1, F2)
    assert group_order_by_basis_orbit(gens, 2, F2) == 2
    others = [b for b in bisections(1, F2) if b != b0]
    assert len(others) == 2
    report = orbit_partition(gens, others)
    assert report.orbit_lengths == (2,)


# ---------------------------------------------------------------------
# stabiliser orbits on k-subspaces
# ---------------------------------------------------------------------

# every (n, m, k) with n <= 5 at q = 2 and n <= 4 at q = 3, 4; one orbit
# per admissible j = dim(U meet W), e.g. W = U or disjoint at (2, 1, 1)
@pytest.mark.parametrize("n,m,k,q,orbits", [
    (n, m, k, q, min(m, k) - max(0, m + k - n) + 1)
    for q, top in ((2, 5), (3, 4), (4, 4)) for n in range(2, top + 1)
    for m in range(1, n) for k in range(1, n)])
def test_pm_orbit_counts(n, m, k, q, orbits):
    """The index BFS gives the report of the canonical-form BFS over every
    k-subspace, and its orbits are the intersection-dimension classes."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    report = pm_orbits_on_k_spaces(n, m, k, field)
    assert report.num_orbits == orbits
    gens = subspace_stabiliser_generators(m, n, field)
    partition = orbit_partition(gens, list(grassmannian(n, field, k)))
    assert report.orbit_lengths == partition.orbit_lengths
    assert report.representatives == partition.representatives
    assert report.total == partition.total
    # orbits are exactly the intersection-dimension classes
    u = coordinate_subspace(field, n, range(m))
    j_of = {}
    for w in grassmannian(n, field, k):
        j_of.setdefault(intersection_dim(u, w), set()).add(w)
    assert partition.num_orbits == len(j_of)
    assert sorted(partition.orbit_lengths) == sorted(len(c) for c in j_of.values())


# ---------------------------------------------------------------------
# the reference computations
# ---------------------------------------------------------------------

def test_golden_orbits_q3_k2():
    report = stabiliser_orbits_on_bisections(2, F3)
    assert report.num_orbits == 15
    assert report.total == 5264
    assert dict(report.multiset()) == GOLDEN_ORBITS[(3, 2)]
    assert sum(report.orbit_lengths) == 5264
    order = 2 * gl_order(2, 3)**2
    for length in report.orbit_lengths:
        assert order % length == 0  # Lagrange
    # representatives really are bisections and lie in distinct orbits
    assert len(report.representatives) == 15


def test_golden_sum_plus_one_is_line_count():
    assert sum(l * m for l, m in GOLDEN_ORBITS[(3, 2)].items()) + 1 == 5265
    assert sum(l * m for l, m in GOLDEN_ORBITS[(2, 3)].items()) + 1 == 357120


@pytest.mark.slow
def test_golden_orbits_q2_k3():
    report = stabiliser_orbits_on_bisections(3, F2)
    assert dict(report.multiset()) == GOLDEN_ORBITS[(2, 3)]
    assert report.total == 357119
    order = 2 * gl_order(3, 2)**2
    for length in report.orbit_lengths:
        assert order % length == 0


@pytest.mark.parametrize("q,k", [(2, 2), (3, 2)])
def test_index_bfs_matches_generic_partition(q, k):
    """The index BFS against the independent canonical-form orbit BFS over
    every bisection object except the coordinate one."""
    field = field_make(q)
    b0 = coordinate_bisection(field, k)
    others = [b for b in bisections(k, field) if b != b0]
    gens = bisection_stabiliser_generators(k, field)
    generic = orbit_partition(gens, others)
    report = stabiliser_orbits_on_bisections(k, field)
    assert report.orbit_lengths == generic.orbit_lengths
    assert report.representatives == generic.representatives
    assert report.total == generic.total == len(others)


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2),
                                 (2, 3), (5, 2)])
def test_subspace_orbits_are_the_goursat_classes(q, k):
    """The H-orbits on the k-subspaces W of V(2k,q) are the unordered
    classes {dim W meet V1, dim W meet V2}.  Each root is the least index
    of its class, and each length is N(a,b) + N(b,a) (N(a,a) when a = b),
    N(d1,d2) counting the W of pattern (d1,d2) by Goursat's lemma: the
    images of W in V1 and V2 (dimensions d1 + r and d2 + r, r = k - d1 -
    d2), the meets inside them, and an isomorphism of the quotients."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    n = 2 * k
    _, masks, _, _, _, _, root_of, sizes = _index_orbits(
        n, k, field, bisection_stabiliser_generators(k, field))
    halves = point_masks([coordinate_subspace(field, n, range(k)),
                          coordinate_subspace(field, n, range(k, n))])
    dim_of = meet_dims(q, n)
    classes = [tuple(sorted(dim_of[(mask & h).bit_count()] for h in halves))
               for mask in masks]
    least = {}
    for i, c in enumerate(classes):
        least.setdefault(c, i)
    assert root_of == [least[c] for c in classes]

    def count(d1, d2):
        r = k - d1 - d2
        return (gaussian(k, d1 + r, q) * gaussian(d1 + r, d1, q)
                * gaussian(k, d2 + r, q) * gaussian(d2 + r, d2, q)
                * gl_order(r, q))
    assert sizes == {least[(a, b)]: count(a, b) + (count(b, a) if a < b
                                                   else 0)
                     for a, b in least}


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_stabiliser_generators_first_block_and_swap(q, k):
    """GL(k,q) in the first block plus the block swap: the swap conjugates
    each first-block generator into its second-block copy."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    gens = bisection_stabiliser_generators(k, field)
    assert len(gens) == len(gl_generators(k, field)) + 1


def test_orbits_q4_k2():
    """(q, k) = (4, 2): observed data, not reference values."""
    report = stabiliser_orbits_on_bisections(2, field_make(2, 2))
    assert report.total == 45695
    assert sum(report.orbit_lengths) == 45695
    order = 2 * gl_order(2, 4)**2
    assert all(order % length == 0 for length in report.orbit_lengths)
    assert dict(report.multiset()) == {
        150: 1, 180: 1, 200: 1, 225: 1, 360: 1, 1080: 2, 1200: 2, 1800: 2,
        2160: 2, 2400: 1, 2700: 1, 3600: 2, 5400: 1, 7200: 2}  # 20 orbits


def test_orbits_q5_k2():
    """(q, k) = (5, 2): observed data, not reference values."""
    report = stabiliser_orbits_on_bisections(2, field_make(5))
    assert report.total == sum(report.orbit_lengths) == 251874
    order = 2 * gl_order(2, 5)**2
    assert all(order % length == 0 for length in report.orbit_lengths)
    assert dict(report.multiset()) == {
        240: 1, 288: 1, 450: 1, 480: 1, 576: 1, 960: 1, 3600: 3, 4800: 2,
        5760: 2, 7200: 2, 9600: 4, 11520: 1, 14400: 3, 23040: 1,
        28800: 3}  # 27 orbits


def test_bisection_bfs_memory():
    """The route holds per-index lists and, per orbit root, a label per
    complement (81 at (q, k) = (3, 2)): no array of nsub^2 pair codes and
    no set or list of the 5265 pairs."""
    import tracemalloc
    tracemalloc.start()
    try:
        stabiliser_orbits_on_bisections(2, F3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000


def test_bisection_budget_refused_before_enumeration(monkeypatch):
    import glgeom.orbits as ob

    def forbidden(*args):
        raise AssertionError("enumerated despite the budget")
    monkeypatch.setattr(ob, "grassmannian_index", forbidden)
    with pytest.raises(TooLargeError, match="333430020 .* 10000000"):
        stabiliser_orbits_on_bisections(3, F3)
    with pytest.raises(TooLargeError, match="357120 .* 1000$"):
        stabiliser_orbits_on_bisections(3, F2, budget=1000)


def test_dropped_pair_is_an_internal_error(monkeypatch):
    """An index one code short of gaussian(2k,k,q) raises RuntimeError,
    which the CLI does not report as bad parameters."""
    import glgeom.orbits as ob
    real = ob.grassmannian_index

    def short(n, field, m):
        codes, masks = real(n, field, m)
        return codes[1:], masks[1:]
    monkeypatch.setattr(ob, "grassmannian_index", short)
    with pytest.raises(RuntimeError,
                       match=r"34 2-subspaces of V\(4,2\), expected 35"):
        stabiliser_orbits_on_bisections(2, F2)


# Mutants of the route: each breaks one runtime invariant.

def test_dropped_complement_is_an_internal_error(monkeypatch):
    """A chart that names one complement of a root twice, or names a
    subspace outside the chart, which meets the root: q^(k^2) - 1
    complements are found."""
    import glgeom.orbits as ob
    real = ob._chart_kit

    for fault in ("twice", "meets"):
        def faulty(field, k, index):
            chart, permutation = real(field, k, index)

            def wrong(code):
                out = chart(code)
                out[1] = out[0] if fault == "twice" else next(
                    i for i in range(len(index)) if i not in out)
                return out
            return wrong, permutation
        monkeypatch.setattr(ob, "_chart_kit", faulty)
        with pytest.raises(RuntimeError,
                           match="80 complements .* expected 81"):
            stabiliser_orbits_on_bisections(2, F3)


def test_short_strong_generating_set_is_an_internal_error(monkeypatch):
    """A base and strong generating set missing its last level falls short
    of the stabiliser order."""
    import glgeom.orbits as ob
    real = ob.schreier_sims
    monkeypatch.setattr(ob, "schreier_sims",
                        lambda draws, order: real(draws, order)[:-1])
    with pytest.raises(RuntimeError, match="is not of order"):
        stabiliser_orbits_on_bisections(2, F3)


def test_strong_generator_moving_the_root_is_an_internal_error(monkeypatch):
    """A strong generator that moves its root A is outside Stab_H(A), so
    the orbits on the complements of A would be wrong."""
    import glgeom.orbits as ob
    real = ob.schreier_sims
    swap = point_permutation(F3, 4, bisection_stabiliser_generators(2, F3)[-1])

    def with_swap(draws, order):
        chain = real(draws, order)
        point, gens, cosets = chain[0]
        return [(point, gens + [swap], cosets)] + chain[1:]
    monkeypatch.setattr(ob, "schreier_sims", with_swap)
    with pytest.raises(RuntimeError, match="strong generator moves"):
        stabiliser_orbits_on_bisections(2, F3)


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2), (3, 2),
                                 pytest.param(2, 3, marks=pytest.mark.slow),
                                 (4, 2),
                                 pytest.param(5, 2, marks=pytest.mark.slow)])
def test_route_matches_the_reference_search(q, k):
    """The report equals that of the search over every bisection."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    want = orbit_reference.stabiliser_orbits_on_bisections(k, field)
    got = stabiliser_orbits_on_bisections(k, field)
    assert got.orbit_lengths == want.orbit_lengths
    assert got.representatives == want.representatives
    assert got.total == want.total


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2),
                                 (5, 2), (2, 3)])
def test_chart_permutations_match_the_moves(monkeypatch, q, k):
    """Every chart the route builds lists, at the code of X, the index of
    span{b_i + sum_j X_ij a_j}, spanned here by elimination; and every
    strong generator's chart permutation, read off k^2 + 1 moves and
    extended affinely, sends each complement of each root where the
    generator's move on the index (its point permutation) sends it."""
    import glgeom.orbits as ob
    from itertools import product
    from glgeom.subspace import (bisection_count, coded_subspace,
                                 grassmannian_index, span_rows)
    field = field_make(2, 2) if q == 4 else field_make(q)
    n = 2 * k
    codes = grassmannian_index(n, field, k)[0]
    real = ob._chart_kit
    seen = {"charts": 0, "permutations": 0}

    def checking(field_, k_, index):
        chart_of, permutation = real(field_, k_, index)

        def chart(code):
            out = chart_of(code)
            a = coded_subspace(field, n, k, code).basis
            pivots = {r.index(1) for r in a}
            b = [r for c, r in enumerate(coordinate_subspace(
                field, n, range(n)).basis) if c not in pivots]
            assert len(out) == q ** (k * k)
            for x, i in zip(product(range(q), repeat=k * k), out):
                rows = []
                for r, row in enumerate(b):
                    for j, a_j in enumerate(a):
                        c = x[r * k + j]
                        row = tuple(field.add(u, field.mul(c, v))
                                    for u, v in zip(row, a_j))
                    rows.append(row)
                assert coded_subspace(field, n, k, codes[i]) == span_rows(
                    field, n, rows)
            seen["charts"] += 1
            return out

        def checked(move, chart, where):
            out = permutation(move, chart, where)
            assert [chart[y] for y in out] == [move(x) for x in chart]
            seen["permutations"] += 1
            return out
        return chart, checked
    monkeypatch.setattr(ob, "_chart_kit", checking)
    assert stabiliser_orbits_on_bisections(k, field).total == \
        bisection_count(k, q) - 1
    assert seen["charts"] >= 2 and seen["permutations"] >= 1


def test_route_runs_without_the_meeting_masks(monkeypatch):
    """The complements come from the chart alone: with point_masks
    patched to raise in orbits and subspace, the (3,2) and (2,3)
    partitions are still the golden ones."""
    import glgeom.orbits as ob
    import glgeom.subspace as sp

    def forbidden(*args):
        raise AssertionError("complements found through point masks")
    for module in (ob, sp):
        monkeypatch.setattr(module, "point_masks", forbidden, raising=False)
    for q, k in ((3, 2), (2, 3)):
        report = stabiliser_orbits_on_bisections(k, field_make(q))
        assert report.multiset() == GOLDEN_ORBITS[(q, k)]


@pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_point_permutations_match_apply_mat(q, k):
    """Each stabiliser generator permutes the k-subspace index the same
    way through its point permutation as through apply_mat."""
    from glgeom.subspace import point_masks
    from lattice_reference import sorted_grassmannian
    from orbit_reference import image_mask
    field = field_make(2, 2) if q == 4 else field_make(q)
    subs = sorted_grassmannian(2 * k, field, k)
    masks = point_masks(subs)
    by_mask = {x: i for i, x in enumerate(masks)}
    by_sub = {s: i for i, s in enumerate(subs)}
    for g in bisection_stabiliser_generators(k, field):
        moved = point_permutation(field, 2 * k, g)
        assert sorted(moved) == list(range((q ** (2 * k) - 1) // (q - 1)))
        assert [by_mask[image_mask(x, moved)] for x in masks] == \
            [by_sub[apply_mat(s, g)] for s in subs]


def test_pm_orbits_refused_before_listing(monkeypatch):
    """gaussian(6,3,3) = 33,880 3-subspaces are refused at budget 33,879
    before grassmannian_index codes one."""
    import glgeom.orbits as ob

    def forbidden(*args):
        raise AssertionError("listed despite the budget")
    monkeypatch.setattr(ob, "grassmannian_index", forbidden)
    with pytest.raises(TooLargeError, match="33880 .* 33879$"):
        pm_orbits_on_k_spaces(6, 1, 3, F3, budget=33879)


def test_routes_build_no_subspace_listing(monkeypatch):
    """The orbit route and the concurrent oracle on its representatives
    take their k-subspaces and points from the coded kernel: with every
    Subspace lister patched to raise, in orbits, oracle and subspace, the
    (2,3) partition is still the golden one and the concurrent point
    (q,k,m,k1,k2) = (2,3,3,1,2) still fails at the coordinate bisection
    against the twelfth representative."""
    import glgeom.oracle as oc
    import glgeom.orbits as ob
    import glgeom.subspace as sp
    from glgeom.geometry import BisParams
    from glgeom.oracle import concurrent_oracle

    def forbidden(*args):
        raise AssertionError("listed as Subspace objects")
    for module in (oc, ob, sp):
        for name in ("grassmannian", "schubert_cell", "sorted_grassmannian"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    report = stabiliser_orbits_on_bisections(3, F2)
    assert report.total == 357119
    assert report.multiset() == GOLDEN_ORBITS[(2, 3)]
    v = concurrent_oracle(BisParams(3, 3, 1, 2, F2),
                          orbit_reps=report.representatives)
    assert (v.complete, v.method) == (False, "oracle")
    assert v.failing_pair == (coordinate_bisection(F2, 3),
                              report.representatives[11])
    assert [h.basis for h in v.failing_pair[1].halves()] == [
        ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 0)),
        ((1, 0, 0, 0, 1, 0), (0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 1, 1))]
