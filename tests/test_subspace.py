"""Subspace lattice, enumeration and bisection tests."""

from itertools import combinations, product

import pytest

from glgeom.gfq import field_make, pack_rows
from glgeom.counts import bisection_count, gaussian
from glgeom.subspace import (Bisection, canonical_pair,
                             canonical_piece_columns, coded_subspace,
                             coordinate_subspace, grassmannian,
                             grassmannian_index, intersection_dim, meet_dims,
                             perp, point_masks, range_meet_dim, schubert_cell,
                             span_rows)
from concurrent_reference import bisections, disjoint_pairs
from field_reference import rank_of_rows
from lattice_reference import (adapted_pair_basis, apply_mat, complement,
                               contains, contains_vector, full_space,
                               intersect, sorted_grassmannian, transport_pair,
                               vectors)
from proj_witness_reference import direct_sum, sum_subspace

F2 = field_make(2)
F3 = field_make(3)


def e(field, n, *ixs):
    """Sum of unit vectors (1-based indices)."""
    v = [0] * n
    for i in ixs:
        v[i - 1] = field.add(v[i - 1], 1)
    return tuple(v)


# ---------------------------------------------------------------------
# span / lattice operations
# ---------------------------------------------------------------------

def test_span_examples():
    u = span_rows(F2, 4, [e(F2, 4, 1), e(F2, 4, 2)])
    assert u.dim == 2 and u == coordinate_subspace(F2, 4, [0, 1])
    v = span_rows(F2, 4, [e(F2, 4, 1), e(F2, 4, 1)])
    assert v.dim == 1
    w = span_rows(F2, 3, [e(F2, 3, 1, 2), e(F2, 3, 2, 3)])
    assert w.basis == ((1, 0, 1), (0, 1, 1))


def test_intersect_examples():
    u = coordinate_subspace(F3, 4, [0, 1])
    assert intersect(u, u) == u
    a = coordinate_subspace(F3, 4, [0])
    b = coordinate_subspace(F3, 4, [1])
    assert intersect(a, b).dim == 0
    c = coordinate_subspace(F3, 4, [1, 2])
    assert intersect(u, c) == coordinate_subspace(F3, 4, [1])


def test_sum_examples():
    u = coordinate_subspace(F2, 3, [0])
    z = coordinate_subspace(F2, 3, ())
    assert sum_subspace(u, z) == u
    assert sum_subspace(u, coordinate_subspace(F2, 3, [1])) == \
        coordinate_subspace(F2, 3, [0, 1])
    a = span_rows(F2, 2, [e(F2, 2, 1, 2)])
    assert sum_subspace(a, coordinate_subspace(F2, 2, [1])) == full_space(F2, 2)


def test_perp_examples():
    assert perp(full_space(F2, 3)) == coordinate_subspace(F2, 3, ())
    assert perp(coordinate_subspace(F2, 2, [0])) == coordinate_subspace(F2, 2, [1])
    self_perp = span_rows(F2, 2, [(1, 1)])
    assert perp(self_perp) == self_perp  # (1,1).(1,1) = 0 over GF(2)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
def test_perp_involution_and_inclusion_reversal(n, q):
    field = field_make(q)
    subs = [s for m in range(n + 1) for s in grassmannian(n, field, m)]
    perps = {s: perp(s) for s in subs}
    for s in subs:
        assert perps[s].dim == n - s.dim
        assert perp(perps[s]) == s
    for u in subs:
        for w in subs:
            if contains(w, u):
                assert contains(perps[u], perps[w])


def test_perp_of_sum_is_meet_of_perps():
    for u in grassmannian(4, F2, 2):
        for w in grassmannian(4, F2, 1):
            left = perp(sum_subspace(u, w))
            right = intersect(perp(u), perp(w))
            assert left == right


def test_modular_law_dimension_formula():
    subs = [s for m in range(5) for s in grassmannian(4, F2, m)]
    for u in subs:
        for w in subs:
            assert sum_subspace(u, w).dim + intersection_dim(u, w) == \
                u.dim + w.dim


# ---------------------------------------------------------------------
# complement
# ---------------------------------------------------------------------

def test_complement():
    v = full_space(F2, 2)
    u = coordinate_subspace(F2, 2, [0])
    assert complement(coordinate_subspace(F2, 2, ()), v) == v
    assert complement(v, v).dim == 0
    assert complement(u, v) == coordinate_subspace(F2, 2, [1])
    with pytest.raises(ValueError, match="not contained in second"):
        complement(span_rows(F2, 2, [(1, 1)]), u)


@pytest.mark.parametrize("q", [2, 3])
def test_complement_is_direct(q):
    field = field_make(q)
    v = full_space(field, 4)
    for m in range(5):
        for u in grassmannian(4, field, m):
            c = complement(u, v)
            assert intersection_dim(u, c) == 0
            assert u.dim + c.dim == 4


# ---------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n,m,q,count", [
    (2, 1, 2, 3),           # projective line over GF(2)
    (4, 2, 3, 130),         # the 130 planes of V(4,3)
    (6, 3, 2, 1395),
])
def test_grassmannian_counts(n, m, q, count):
    field = field_make(q)
    assert sum(1 for _ in grassmannian(n, field, m)) == count
    assert gaussian(n, m, q) == count


@pytest.mark.parametrize("n,q", [(5, 2), (4, 3), (3, 4)])
def test_schubert_cell_order(n, q):
    """A cell lists its bases with the free entries in row-major
    lexicographic order, as filling them from product(range(q), ...)."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    for m in range(n + 1):
        for pivots in combinations(range(n), m):
            free = [(r, c) for r, p in enumerate(pivots)
                    for c in range(p + 1, n) if c not in pivots]
            want = []
            for values in product(range(q), repeat=len(free)):
                rows = [[int(c == p) for c in range(n)] for p in pivots]
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                want.append(tuple(map(tuple, rows)))
            assert [s.basis for s in schubert_cell(n, field, pivots)] == want


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3)])
def test_grassmannian_no_repeats(n, q):
    field = field_make(q)
    for m in range(n + 1):
        seen = set()
        for s in grassmannian(n, field, m):
            assert s not in seen
            seen.add(s)
        assert len(seen) == gaussian(n, m, q)


def _pivots(w):
    return tuple(next(c for c, x in enumerate(row) if x) for row in w.rows())


@pytest.mark.parametrize("q,max_n", [(2, 6), (3, 6), (4, 5)])
def test_suffix_meet_is_pivot_count(q, max_n):
    """The lemma behind the proj oracle's cell scan, against the rank
    kernel: dim(W meet <e_a..e_{n-1}>) = #{pivots of W >= a}."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    for n in range(1, max_n + 1):
        suffixes = [coordinate_subspace(field, n, range(a, n))
                    for a in range(n + 1)]
        for k in range(n + 1):
            for w in grassmannian(n, field, k):
                piv = _pivots(w)
                for a, suffix in enumerate(suffixes):
                    assert intersection_dim(w, suffix) == \
                        sum(p >= a for p in piv)


def _range_meets_agree(w, ranges):
    for (a, b), c in ranges.items():
        assert range_meet_dim(w, a, b) == intersection_dim(w, c), \
            (w.rows(), a, b)


def _coordinate_ranges(field, n):
    return {(a, b): coordinate_subspace(field, n, range(a, b))
            for a in range(n + 1) for b in range(a, n + 1)}


@pytest.mark.parametrize("p,ex", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3), (3, 2), (2, 16), (3, 10),
                                  (2 ** 61 - 1, 1)])
def test_range_meet_is_the_pivot_lemma(p, ex):
    """range_meet_dim against the rank kernel: on every range [a, b) of
    every subspace of V(n,q), n <= 5, at q <= 4; and on seeded random
    subspaces with n <= 10 at every field here, half of them from sparse
    rows so that the slices to [b, n) are often dependent.  A range
    outside 0 <= a <= b <= n is refused, never sliced."""
    import random
    field = field_make(p, ex)
    q = field.q
    if q <= 4:
        for n in range(6):
            ranges = _coordinate_ranges(field, n)
            for k in range(n + 1):
                for w in grassmannian(n, field, k):
                    _range_meets_agree(w, ranges)
    rng = random.Random(q)
    for _ in range(60):
        n = rng.randint(1, 10)
        sparse = rng.random() < 0.5
        rows = [tuple(rng.randrange(1, q) if not sparse or rng.random() < 0.3
                      else 0 for _ in range(n))
                for _ in range(rng.randint(0, n))]
        _range_meets_agree(span_rows(field, n, rows),
                           _coordinate_ranges(field, n))
    w = coordinate_subspace(field, 4, [1, 3])
    for a, b in [(-1, 2), (3, 2), (0, 5), (-3, -1), (2, 1)]:
        with pytest.raises(ValueError, match="no column range"):
            range_meet_dim(w, a, b)


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2)])
def test_grassmannian_order_is_pivots_then_free_entries(n, q):
    """The documented order: Schubert cells by pivot set, lexicographically,
    each in row-major lexicographic order of its free entries."""
    field = field_make(q)
    for m in range(n + 1):
        keys = []
        for w in grassmannian(n, field, m):
            piv = _pivots(w)
            keys.append((piv, tuple(x for r, row in enumerate(w.rows())
                                    for c, x in enumerate(row)
                                    if c > piv[r] and c not in piv)))
        assert keys == sorted(set(keys))


@pytest.mark.parametrize("k,q,count", [(1, 2, 3), (2, 3, 5265), (1, 3, 6)])
def test_bisection_counts(k, q, count):
    field = field_make(q)
    assert bisection_count(k, q) == count
    assert sum(1 for _ in bisections(k, field)) == count


class _RankTested(Exception):
    pass


def test_bisections_trust_disjoint_pairs(monkeypatch):
    """bisections() makes no rank test per pair (disjoint_pairs has proved
    each pair disjoint), the public constructor still makes its own, and a
    listing that loses a pair raises when it ends."""
    import concurrent_reference as cr
    import glgeom.subspace as sp

    def rank_test(u, w):
        raise _RankTested
    monkeypatch.setattr(sp, "intersection_dim", rank_test)
    listed = list(bisections(2, F3))
    assert len(listed) == len(set(listed)) == 5265
    with pytest.raises(_RankTested):
        Bisection(*listed[0].halves())
    monkeypatch.undo()
    real = cr.disjoint_pairs
    monkeypatch.setattr(cr, "disjoint_pairs", lambda subs: list(real(subs))[1:])
    with pytest.raises(RuntimeError, match="listed 5264, expected 5265"):
        list(bisections(2, F3))


def test_bisection_count_6_2_disjoint_pairs():
    subs = sorted_grassmannian(6, F2, 3)
    assert sum(1 for _ in disjoint_pairs(point_masks(subs))) == 357120
    assert gaussian(6, 3, 2) * 2**9 // 2 == 357120


@pytest.mark.parametrize("k,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_bisections_match_naive_double_loop(k, q):
    field = field_make(q)
    subs = list(grassmannian(2 * k, field, k))
    naive = set()
    for i, a in enumerate(subs):
        for b in subs[i + 1:]:
            if intersection_dim(a, b) == 0:
                naive.add(Bisection(a, b))
    enumerated = list(bisections(k, field))
    assert len(enumerated) == len(set(enumerated)) == len(naive)
    assert set(enumerated) == naive
    for b in enumerated:
        assert b.half1.sort_key() <= b.half2.sort_key()
        assert intersection_dim(b.half1, b.half2) == 0
        assert b.half1.dim == b.half2.dim == k


@pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (4, 1), (5, 1)])
def test_disjoint_pairs_match_rank_tests(q, k):
    """The point index against the rank-based disjointness test."""
    field = field_make(2, 2) if q == 4 else field_make(q)
    subs = sorted(grassmannian(2 * k, field, k), key=lambda s: s.sort_key())
    by_rank = [(i, j) for i, a in enumerate(subs)
               for j, b in enumerate(subs[i + 1:], i + 1)
               if intersection_dim(a, b) == 0]
    assert list(disjoint_pairs(point_masks(subs))) == by_rank
    assert len(by_rank) == gaussian(2 * k, k, q) * q**(k * k) // 2


def _random_subspaces(field, n, rng):
    """Random subspaces of every dimension, plus the zero space, V, and a
    random subspace with a random subspace of it (nested pairs)."""
    def rand(d):
        return span_rows(field, n, [tuple(rng.randrange(field.q)
                                          for _ in range(n))
                                    for _ in range(d)])
    subs = [rand(rng.randrange(n + 1)) for _ in range(12)]
    outer = rand(n - 1)
    inner = span_rows(field, n, list(outer.rows())[:rng.randrange(n)])
    return subs + [coordinate_subspace(field, n, ()), full_space(field, n),
                   outer, inner]


def _projective_points(s):
    """The point numbers of a subspace from its vectors, with no table:
    the vector with leading 1 in column n-1-e and base-q code c is point
    (q^e - 1)/(q - 1) + c - q^e."""
    q, n = s.field.q, s.n
    out = 0
    for v in vectors(s):
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1:
            e = n - 1 - v.index(1)
            code = sum(x * q ** (n - 1 - c) for c, x in enumerate(v))
            out |= 1 << ((q ** e - 1) // (q - 1) + code - q ** e)
    return out


# the largest n per q at which the Subspace listing of Gr(n, m) stays
# near a second: n <= 6, 8 at q = 2, 4 or 5 where q^n is large; past
# LISTED subspaces (m = 3, 4 and 5 at (q, n) = (2, 8)) it is skipped
KERNEL_N = {2: 8, 3: 6, 4: 5, 5: 4, 7: 4, 8: 4, 9: 4}
LISTED = 40_000


@pytest.mark.parametrize("q", sorted(KERNEL_N))
def test_coded_kernel_matches_the_subspace_listing(q):
    """The coded index, of all cells and of one, against the Subspace
    listing it replaced, at every m from 0 (the zero space) to n (the full
    cell):
    the index masks equal point_masks(sorted_grassmannian(...)) in order,
    the subspace rebuilt from each code is the listing's entry at that
    index, and per Schubert cell the masks equal those of schubert_cell
    as multisets.  Where q^n <= 81 the masks also equal the points read
    off the vectors, with no table; an empty cell list gives empty lists."""
    field = {4: field_make(2, 2), 8: field_make(2, 3),
             9: field_make(3, 2)}.get(q) or field_make(q)
    for n in range(KERNEL_N[q] + 1):
        for m in range(n + 1):
            if gaussian(n, m, q) > LISTED:
                continue
            codes, masks = grassmannian_index(n, field, m)
            subs = sorted_grassmannian(n, field, m)
            assert masks == point_masks(subs)
            assert [coded_subspace(field, n, m, c) for c in codes] == subs
            if q ** n <= 81:
                assert masks == [_projective_points(s) for s in subs]
            for pivots in combinations(range(n), m):
                cell = list(schubert_cell(n, field, pivots))
                got = grassmannian_index(n, field, m, [pivots])[1]
                assert sorted(got) == sorted(point_masks(cell))
    assert grassmannian_index(4, field, 2, []) == ([], [])


SPAN_N = {2: 6, 4: 4, 8: 4, 3: 4, 5: 4, 7: 4, 9: 4}


@pytest.mark.parametrize("q", sorted(SPAN_N))
def test_span_kernel_matches_the_half_code_kernel(q):
    """_span_masks, which sums by XOR at p = 2, gives the same codes and
    masks, in the same order, as the kernel kept in lattice_reference
    (add and scale tables on half codes at every q): per pivot set of
    every m <= n <= SPAN_N[q], and for all cells of one (n, m) at once."""
    from glgeom.subspace import _cell_rows, _span_masks
    import lattice_reference
    field = {4: field_make(2, 2), 8: field_make(2, 3),
             9: field_make(3, 2)}.get(q) or field_make(q)
    for n in range(1, SPAN_N[q] + 1):
        for m in range(n + 1):
            cells = [list(_cell_rows(n, q, pivots))
                     for pivots in combinations(range(n), m)]
            for cell in cells:
                assert _span_masks(field, n, [cell]) == \
                    lattice_reference._span_masks(field, n, [cell]), (n, cell)
            assert _span_masks(field, n, cells) == \
                lattice_reference._span_masks(field, n, cells), (n, m)


def test_point_masks_are_kept_per_subspace(monkeypatch):
    """point_masks masks a subspace once and keeps the mask in its _mask
    slot: a second call on the same objects runs no _span_masks, a call
    with some new ones passes only those, and equal subspaces compare and
    hash equal whether or not their slot is filled."""
    import glgeom.subspace as sub
    real, passed = sub._span_masks, []

    def counting(field, n, cells):
        cells = list(cells)
        passed.append(len(cells))
        return real(field, n, cells)
    monkeypatch.setattr(sub, "_span_masks", counting)
    for field in (F2, F3):
        subs = list(grassmannian(4, field, 2))
        twins = list(grassmannian(4, field, 2))  # equal, not yet masked
        masks = point_masks(subs)
        assert all(s._mask is not None for s in subs)
        assert all(t._mask is None for t in twins)
        assert subs == twins
        assert [hash(s) for s in subs] == [hash(t) for t in twins]
        assert len(set(subs + twins)) == len(subs)
        passed.clear()
        assert point_masks(twins[:3] + subs) == masks[:3] + masks
        assert passed == [3]

    def forbidden(*args):
        raise AssertionError("masked again")
    monkeypatch.setattr(sub, "_span_masks", forbidden)
    assert point_masks(subs) == masks
    assert point_masks([]) == []


def test_point_masks_refuse_mixed_ambient_spaces():
    """Subspaces of different V(n,q) are refused before any is masked, in
    either order: all were once masked in the numbering of the first, so
    a GF(3) row with an entry 2 after a GF(2) subspace raised IndexError,
    and the other mixes got masks of the wrong space."""
    u, w = coordinate_subspace(F2, 4, [0, 1]), span_rows(F3, 4, [(1, 2, 0, 0)])
    line = coordinate_subspace(F2, 3, [0])
    for subs in ([u, w], [w, u], [u, line], [line, u]):
        with pytest.raises(ValueError, match="different ambient spaces"):
            point_masks(subs)
        assert all(s._mask is None for s in subs)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_point_mask_meet_matches_intersection_dim(q):
    """The popcount meet against the rank-based one on seeded random pairs
    (zero, equal and nested ones included), n <= 6 with q^n <= 10^5; each
    d-subspace holds (q^d - 1)/(q - 1) points, V all of them once."""
    import random
    field = {4: field_make(2, 2), 8: field_make(2, 3),
             9: field_make(3, 2)}.get(q) or field_make(q)
    rng = random.Random(q)
    for n in range(1, 7):
        if q ** n > 10 ** 5:
            break
        subs = _random_subspaces(field, n, rng)
        masks = point_masks(subs)
        dims = meet_dims(q, n)
        assert masks[-3] == (1 << (q ** n - 1) // (q - 1)) - 1
        for a, x in zip(subs, masks):
            assert x.bit_count() == (q ** a.dim - 1) // (q - 1)
            for b, y in zip(subs, masks):
                assert dims[(x & y).bit_count()] == intersection_dim(a, b)


# ---------------------------------------------------------------------
# transport, serialization
# ---------------------------------------------------------------------

def test_transport_pair_moves_both():
    u1 = coordinate_subspace(F3, 4, [0, 1])
    u2 = coordinate_subspace(F3, 4, [1, 2])
    t1 = coordinate_subspace(F3, 4, [0, 3])
    t2 = span_rows(F3, 4, [(0, 0, 1, 0), (1, 0, 0, 2)])
    assert intersection_dim(u1, u2) == intersection_dim(t1, t2) == 1
    g = transport_pair(u1, u2, t1, t2)
    assert apply_mat(u1, g) == t1 and apply_mat(u2, g) == t2


def test_direct_sum_rejects_overlap():
    u = coordinate_subspace(F2, 3, [0, 1])
    with pytest.raises(ValueError):
        direct_sum([u, coordinate_subspace(F2, 3, [1])])
    # pairwise disjoint lines, dependent as a triple
    lines = [span_rows(F3, 3, [v]) for v in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    with pytest.raises(ValueError):
        direct_sum(lines)
    assert direct_sum(lines[:2]) == coordinate_subspace(F3, 3, [0, 1])


# ---------------------------------------------------------------------
# the one-elimination kernels against the reference constructions
# ---------------------------------------------------------------------

def _ref_intersect(u, w):
    """The meet as the perp of the sum of the perps."""
    if u is w or u == w:
        return u
    return perp(sum_subspace(perp(u), perp(w)))


def _ref_complement(u, inside):
    """Greedy complement with one rank test of the growing stack per row."""
    assert contains(inside, u)
    field, n = u.field, u.n
    rows, picked = list(u.basis), []
    for cand in inside.basis:
        if rank_of_rows(field, rows + [cand], n) > len(rows):
            rows.append(cand)
            picked.append(cand)
        if len(rows) == inside.dim:
            break
    return span_rows(field, n, picked)


def _ref_adapted_pair_basis(u1, u2):
    field, n = u1.field, u1.n
    t = _ref_intersect(u1, u2)
    rows = (list(_ref_complement(t, u1).rows()) + list(t.rows())
            + list(_ref_complement(t, u2).rows()))
    rank = rank_of_rows(field, rows, n)
    for cand in full_space(field, n).rows():
        if rank == n:
            break
        if rank_of_rows(field, rows + [cand], n) > rank:
            rows.append(cand)
            rank += 1
    return tuple(rows)


def _random_subspace(rng, field, n, dim, inside=None):
    """span of dim random vectors of inside (default: the whole space)."""
    basis = (inside or full_space(field, n)).rows()
    rows = []
    for _ in range(dim):
        v = [0] * n
        for b in basis:
            c = rng.randrange(field.q)
            for j, x in enumerate(b):
                v[j] = field.add(v[j], field.mul(c, x))
        rows.append(tuple(v))
    return span_rows(field, n, rows)


def _random_pairs(rng, field):
    """Seeded pairs (U, W) in V(n,q), n <= 8: generic, equal, nested,
    disjoint and zero cases."""
    for _ in range(40):
        n = rng.randint(1, 8)
        u = _random_subspace(rng, field, n, rng.randint(0, n))
        yield u, _random_subspace(rng, field, n, rng.randint(0, n))
        yield u, span_rows(field, n, list(u.rows()))          # equal
        yield u, _random_subspace(rng, field, n, rng.randint(0, u.dim), u)
        c = complement(u, full_space(field, n))
        yield u, _random_subspace(rng, field, n, rng.randint(0, c.dim), c)
        yield u, coordinate_subspace(field, n, ())
        yield coordinate_subspace(field, n, ()), u


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_one_elimination_kernels_match_reference(q):
    import random
    p, ex = {4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q, 1))
    field = field_make(p, ex)
    rng = random.Random(1000 + q)
    for u, w in _random_pairs(rng, field):
        meet = intersect(u, w)
        assert meet == _ref_intersect(u, w)
        assert meet.dim == intersection_dim(u, w)
        for a, b in ((u, w), (w, u)):
            s = sum_subspace(a, b)
            assert complement(a, s) == _ref_complement(a, s)
            assert complement(meet, a) == _ref_complement(meet, a)
        assert adapted_pair_basis(u, w) == _ref_adapted_pair_basis(u, w)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_coordinate_subspace_is_span_of_unit_rows(q):
    import random
    p, ex = {4: (2, 2)}.get(q, (q, 1))
    field = field_make(p, ex)
    rng = random.Random(q)
    for n in range(1, 8):
        for _ in range(5):
            cols = [rng.randrange(n) for _ in range(rng.randint(0, n + 2))]
            units = [tuple(1 if j == c else 0 for j in range(n)) for c in cols]
            assert coordinate_subspace(field, n, cols) == \
                span_rows(field, n, units), (n, cols)
    with pytest.raises(ValueError):
        coordinate_subspace(F2, 3, [3])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_unreduced_constructors_give_canonical_rows(q):
    """The constructors that hand Subspace their rows without eliminating
    (coordinate subspaces, Schubert cells and Grassmannians, meets,
    complements, perps, the zero and full spaces, the canonical pair)
    give the rows span_rows makes of them, on seeded inputs in V(n,q),
    n <= 6."""
    import random
    from itertools import islice
    p, ex = {4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q, 1))
    field = field_make(p, ex)
    rng = random.Random(2000 + q)
    made = []
    for n in range(1, 7):
        made += [coordinate_subspace(field, n, ()), full_space(field, n)]
        for m in range(n + 1):
            if gaussian(n, m, q) <= 2000:
                made += grassmannian(n, field, m)
            for t in range(max(0, 2 * m - n), m + 1):
                made += canonical_pair(field, n, m, t)
        for _ in range(6):
            cols = [rng.randrange(n) for _ in range(rng.randint(0, n + 2))]
            made.append(coordinate_subspace(field, n, cols))
            pivots = sorted(rng.sample(range(n), rng.randint(0, n)))
            start = rng.randrange(50)
            made += islice(schubert_cell(n, field, pivots), start, start + 10)
            u = _random_subspace(rng, field, n, rng.randint(0, n))
            w = _random_subspace(rng, field, n, rng.randint(0, n))
            meet = intersect(u, w)
            made += [meet, complement(meet, u), complement(meet, w),
                     complement(u, sum_subspace(u, w)), perp(u), perp(w)]
    for s in made:
        assert span_rows(field, s.n, s.rows()).rows() == s.rows(), s


def test_span_rows_checks_its_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        span_rows(F2, 3, [(1, 0, 0), (0, 1)])
    with pytest.raises(ValueError, match="column count != ambient dim"):
        span_rows(F2, 3, [(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="entry 3 out of range for GF"):
        span_rows(F3, 2, [(1, 3)])
    with pytest.raises(ValueError, match="entry -1 out of range for GF"):
        span_rows(F3, 2, [(1, 0), (0, -1)])
    with pytest.raises(ValueError, match="ragged rows"):
        span_rows(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1, 0)])
    assert span_rows(F3, 2, []) == span_rows(F3, 2, ()) == \
        coordinate_subspace(F3, 2, ())


def test_hash_and_packed_rows_on_first_read(monkeypatch):
    """A Subspace packs its rows only when they are first read, once, and
    hashes as (q, n, rows) however it was built."""
    import glgeom.subspace as sub
    calls = []

    def counting_pack(rows):
        calls.append(rows)
        return pack_rows(rows)
    monkeypatch.setattr(sub, "pack_rows", counting_pack)
    subs = list(grassmannian(4, F2, 2))
    assert len(subs) == 35 and calls == []
    u, w = subs[0], subs[-1]
    assert intersection_dim(u, w) == 0
    assert sorted(calls) == sorted([u.basis, w.basis])
    assert intersection_dim(u, w) == 0 and len(calls) == 2
    for s in subs:
        assert s.packed == pack_rows(s.basis)
    assert coordinate_subspace(F3, 2, ()).packed is None
    for field in (F2, F3):
        built = [coordinate_subspace(field, 4, [1, 3]),
                 span_rows(field, 4, [e(field, 4, 2, 4), e(field, 4, 4)]),
                 intersect(coordinate_subspace(field, 4, [0, 1, 3]),
                           coordinate_subspace(field, 4, [1, 2, 3])),
                 perp(coordinate_subspace(field, 4, [0, 2])),
                 next(s for s in grassmannian(4, field, 2)
                      if s.basis == ((0, 1, 0, 0), (0, 0, 0, 1)))]
        assert len(set(built)) == 1
        for s in built:
            assert hash(s) == hash((field.q, 4, s.basis))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_canonical_row_slices_span_themselves(q):
    """A run of rows of an rref basis is the rref basis of its span, so
    the constructions that take s.rows()[a:b] as they are need no
    elimination: every contiguous slice of seeded random canonical bases
    in V(n,q), n <= 9, is what span_rows makes of it."""
    import random
    p, ex = {4: (2, 2), 9: (3, 2)}.get(q, (q, 1))
    field = field_make(p, ex)
    rng = random.Random(3000 + q)
    for n in range(1, 10):
        for _ in range(4):
            s = _random_subspace(rng, field, n, rng.randint(0, n))
            rows = s.rows()
            for a in range(len(rows) + 1):
                for b in range(a, len(rows) + 1):
                    assert span_rows(field, n, rows[a:b]).rows() == \
                        rows[a:b], (s, a, b)


def _meet_pairs(rng, field):
    """Seeded pairs in V(n,q), n <= 12: the zero space and V against a
    random subspace, equal subspaces, coordinate pairs, nested pairs and
    random pairs of random dimensions."""
    for n in range(1, 13):
        u = _random_subspace(rng, field, n, rng.randint(0, n))
        yield coordinate_subspace(field, n, ()), u
        yield full_space(field, n), u
        yield u, span_rows(field, n, u.rows())
        for _ in range(3):
            a, b = (rng.sample(range(n), rng.randint(0, n)) for _ in range(2))
            yield (coordinate_subspace(field, n, a),
                   coordinate_subspace(field, n, b))
            yield u, _random_subspace(rng, field, n, rng.randint(0, u.dim), u)
            yield (_random_subspace(rng, field, n, rng.randint(0, n)),
                   _random_subspace(rng, field, n, rng.randint(0, n)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_meet_and_containment_match_rank_reference(q):
    """intersection_dim, contains and contains_vector against the rank of
    the stacked bases (rank_of_rows, the elimination the meet no longer
    runs), both ways round; where q^n <= 4096 the meet also equals the
    popcount of the point masks."""
    import random
    p, ex = {4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q, 1))
    field = field_make(p, ex)
    rng = random.Random(4000 + q)
    for u, w in _meet_pairs(rng, field):
        n = u.n
        rank = rank_of_rows(field, u.basis + w.basis, n)
        for a, b in ((u, w), (w, u)):
            assert intersection_dim(a, b) == u.dim + w.dim - rank, (a, b)
            assert contains(a, b) == (rank == a.dim), (a, b)
        if q ** n <= 4096:
            x, y = point_masks([u, w])
            assert meet_dims(q, n)[(x & y).bit_count()] == \
                u.dim + w.dim - rank, (u, w)
        vecs = [tuple(rng.randrange(q) for _ in range(n)), (0,) * n]
        vecs += w.rows()[:1]
        for v in vecs:
            assert contains_vector(u, v) == \
                (rank_of_rows(field, u.basis + (v,), n) == u.dim), (u, v)


@pytest.mark.parametrize("q", [2, 3])
def test_canonical_pieces_match_lattice_operations(q):
    """The column-range pieces are what the eliminating operations return,
    as canonical bases, for every pair with 0 <= t < m and 2m - t <= n."""
    field = field_make(q)
    for n in range(1, 9):
        for m in range(1, n + 1):
            for t in range(max(0, 2 * m - n), m):
                u1, u2 = canonical_pair(field, n, m, t)
                tt = intersect(u1, u2)
                want = (tt, complement(tt, u1), complement(tt, u2),
                        complement(sum_subspace(u1, u2), full_space(field, n)))
                got = [coordinate_subspace(field, n, cols)
                       for cols in canonical_piece_columns(n, m, t)]
                assert [p.rows() for p in got] == [p.rows() for p in want], \
                    (n, m, t)
