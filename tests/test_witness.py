"""Certificate soundness for every constructive procedure."""

import pytest

from glgeom.gfq import field_make
from glgeom.errors import ParamError
from glgeom.geometry import BisParams
from glgeom.predicates import (bis_collinear_predicate,
                               proj_collinear_predicate)
from glgeom.subspace import (coordinate_subspace, intersection_dim, perp,
                             span_rows)
from glgeom.witness import (PredicateFailsError, bis_collinear_witness,
                            bis_witness_certificate, canonical_pair,
                            desarguesian_spread, diagonal_pair,
                            fifth_disjoint, near_half_table_bisection,
                            proj_collinear_witness, verify_partial_spread)
from bis_witness_reference import incident_bis
from diagonal_reference import diagonal_pair_exists_bruteforce
from field_reference import rank_of_rows
from lattice_reference import (apply_bisection, apply_mat, intersect,
                               mat_mul, random_gl, transport_pair, vectors)
from proj_witness_reference import subset_witness

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
F7 = field_make(7)
F8 = field_make(2, 3)
F9 = field_make(3, 2)
F16 = field_make(2, 4)
F27 = field_make(3, 3)


def field_of(q):
    return {2: F2, 3: F3, 4: F4, 5: F5, 7: F7, 8: F8, 9: F9, 16: F16,
            27: F27}[q]


# ---------------------------------------------------------------------
# diagonal pairs
# ---------------------------------------------------------------------

def test_diagonal_pair_examples():
    y1 = coordinate_subspace(F3, 2, [0])
    y2 = coordinate_subspace(F3, 2, [1])
    dp = diagonal_pair(y1, y2, 1)
    assert dp.z1.rows() == ((1, 1),) and dp.z2.rows() == ((1, 2),)
    with pytest.raises(ParamError, match="unique diagonal line"):
        diagonal_pair(coordinate_subspace(F2, 2, [0]),
                      coordinate_subspace(F2, 2, [1]), 1)
    dp2 = diagonal_pair(coordinate_subspace(F2, 4, [0, 1]),
                        coordinate_subspace(F2, 4, [2, 3]), 2)
    assert dp2.verify()


def test_diagonal_pair_boundary_exhaustive():
    """Constructed existence agrees with brute-force search for all shapes
    with dimensions <= 3 over GF(2) and GF(3)."""
    for q in (2, 3):
        field = field_of(q)
        for y1d in range(1, 4):
            for y2d in range(1, 4):
                n = y1d + y2d
                y1 = coordinate_subspace(field, n, range(y1d))
                y2 = coordinate_subspace(field, n, range(y1d, n))
                for r in range(1, min(y1d, y2d) + 1):
                    expected = (max(y1d, y2d), q) != (1, 2)
                    assert diagonal_pair_exists_bruteforce(y1, y2, r) == expected
                    if expected:
                        assert diagonal_pair(y1, y2, r).verify()
                    else:
                        with pytest.raises(ParamError,
                                           match="unique diagonal line"):
                            diagonal_pair(y1, y2, r)


def test_diagonal_pair_arbitrary_bases():
    g = ((1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
         (0, 0, 0, 1, 1), (0, 0, 0, 0, 1))
    assert rank_of_rows(F2, g, 5) == 5
    y1 = apply_mat(coordinate_subspace(F2, 5, [0, 1]), g)
    y2 = apply_mat(coordinate_subspace(F2, 5, [2, 3]), g)
    assert intersection_dim(y1, y2) == 0
    for r in (1, 2):
        assert diagonal_pair(y1, y2, r).verify()


# ---------------------------------------------------------------------
# subset witnesses
# ---------------------------------------------------------------------

def test_subset_witness_examples():
    sw = subset_witness(4, 2, 2, 1, 0)
    assert len(sw.p_set) == 2
    assert len(sw.p_set & {1, 2}) == 1 and len(sw.p_set & {3, 4}) == 1
    sw0 = subset_witness(8, 2, 2, 0, 1)
    assert sw0.p_set.isdisjoint({1, 2}) and sw0.p_set.isdisjoint({2, 3})
    sw2 = subset_witness(6, 3, 4, 1, 2)
    assert 1 in sw2.p_set  # j <= m-t, so the case-one shape applies first
    swm = subset_witness(8, 3, 4, 2, 2)
    assert {2, 3} <= swm.p_set  # middle case: P1 = {m-t+1 .. m-t+j}


def _set_witness_columns(sw):
    """The 0-based column sets of a SetWitness: the singletons of K, or
    those of P and the parts of the partition of the rest."""
    if sw.k_set is not None:
        return [[i - 1] for i in sw.k_set]
    return ([[i - 1] for i in sw.p_set]
            + [[i - 1 for i in part] for part in sw.partition])


def test_subset_witness_properties_exhaustive():
    """The reference subset witness, and the column sets written down from
    the canonical pieces, which must be the same sets: k pairwise disjoint
    sets, exactly j of them inside U1's columns [0, m) and j inside U2's
    [m-t, 2m-t)."""
    from glgeom.witness import _proj_column_sets
    checked = 0
    for n in range(2, 17):
        for m in range(1, n // 2 + 1):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    if 2 * j > k:
                        continue
                    for t in range(m):
                        sw = subset_witness(n, m, k, j, t)
                        m1 = set(range(1, m + 1))
                        m2 = set(range(m - t + 1, 2 * m - t + 1))
                        assert len(sw.p_set) == n - 2 * m + 2 * j
                        assert len(sw.p_set & m1) == j
                        assert len(sw.p_set & m2) == j
                        if 0 <= k - 2 * j <= n - 2 * m:
                            assert sw.k_set is not None and sw.partition is None
                            assert len(sw.k_set) == k
                            assert sw.k_set <= sw.p_set
                            assert len(sw.k_set & m1) == j
                            assert len(sw.k_set & m2) == j
                        else:
                            assert sw.partition is not None and sw.k_set is None
                            parts = sw.partition
                            assert len(parts) == (k - 2 * j) - (n - 2 * m)
                            union = set()
                            for part in parts:
                                assert len(part) >= 2
                                assert not union & part
                                union |= part
                            assert union == set(range(1, n + 1)) - sw.p_set
                        sets = _proj_column_sets(n, m, k, j, t)
                        cols = [c for s in sets for c in s]
                        assert len(cols) == len(set(cols)), (n, m, k, j, t)
                        assert len(sets) == k
                        assert sum(max(s) < m for s in sets) == j
                        assert sum(m - t <= min(s) and max(s) < 2 * m - t
                                   for s in sets) == j
                        assert (sorted(map(sorted, sets)) == sorted(
                            map(sorted, _set_witness_columns(sw)))), \
                            (n, m, k, j, t)
                        checked += 1
    assert checked == 6630  # every admissible point with n <= 16


def test_subset_witness_preconditions():
    with pytest.raises(ParamError, match="need 1 <= m <= n/2"):
        subset_witness(4, 3, 2, 1, 0)      # m > n/2
    with pytest.raises(ParamError, match="need 2j <= k"):
        subset_witness(6, 2, 3, 2, 0)      # 2j > k
    with pytest.raises(ParamError, match="need 0 <= t <= m-1"):
        subset_witness(6, 2, 3, 1, 2)      # t > m-1


# ---------------------------------------------------------------------
# the parabolic witness
# ---------------------------------------------------------------------

def test_proj_witness_examples():
    w = proj_collinear_witness(4, 2, 2, 1, 1, F2)
    u1, u2 = canonical_pair(F2, 4, 2, 1)
    assert intersection_dim(w, u1) == 1 and intersection_dim(w, u2) == 1
    with pytest.raises(PredicateFailsError):
        proj_collinear_witness(6, 3, 3, 2, 0, F2)
    w0 = proj_collinear_witness(6, 2, 2, 0, 0, F3)
    u1, u2 = canonical_pair(F3, 6, 2, 0)
    assert intersection_dim(w0, u1) == 0 and intersection_dim(w0, u2) == 0


def _ref_perp_branch(n, m, k, j, t, field):
    """The m > n/2 witness by an explicit change of basis: the dual witness
    moved by transport_pair from the canonical (n-m)-pair onto
    (perp U1, perp U2), then perp."""
    u1, u2 = canonical_pair(field, n, m, t)
    wb = proj_collinear_witness(n, n - m, n - k, n - m - k + j,
                                n - 2 * m + t, field)
    d1, d2 = canonical_pair(field, n, n - m, n - 2 * m + t)
    g = transport_pair(d1, d2, perp(u1), perp(u2))
    return perp(apply_mat(wb, g))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_proj_perp_branch_is_the_transported_witness(q):
    """The cyclic shift builds the same subspace, not just a valid one."""
    field = field_of(q)
    checked = 0
    for n in range(3, 9):
        for m in range(n // 2 + 1, n):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    if 2 * j > k + 2 * m - n:
                        continue
                    for t in range(2 * m - n, m):
                        got = proj_collinear_witness(n, m, k, j, t, field)
                        assert got == _ref_perp_branch(n, m, k, j, t, field), \
                            (n, m, k, j, t)
                        checked += 1
    assert checked == 224  # every admissible point with 2m > n, n <= 8


@pytest.mark.parametrize("q", [2, 3])
def test_proj_witness_iff_predicate(q):
    """Witness construction succeeds exactly on predicate-true inputs."""
    field = field_of(q)
    for n in range(2, 7):
        for m in range(1, n):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    pred = proj_collinear_predicate(n, m, k, j)
                    for t in range(max(0, 2 * m - n), m):
                        u1, u2 = canonical_pair(field, n, m, t)
                        try:
                            w = proj_collinear_witness(n, m, k, j, t, field)
                            assert pred
                            assert w.dim == k
                            assert intersection_dim(w, u1) == j
                            assert intersection_dim(w, u2) == j
                        except PredicateFailsError:
                            assert not pred


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_proj_witness_is_the_reference_construction(q):
    """The closed-form rows are those of the eliminating construction, row
    for row, and canonical: span_rows leaves them as they are.  This is
    the one route whose rows are written down and trusted, with no
    span_rows, and its verification, subspace.range_meet_dim, needs full
    rref (every row 0 at every other row's pivot), more than an echelon:
    a non-canonical W could pass verification wrongly."""
    from proj_witness_reference import proj_witness
    field = field_of(q)
    checked = 0
    for n in range(2, 11):
        for m in range(1, n):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    if 2 * j > k + max(0, 2 * m - n):
                        continue
                    for t in range(max(0, 2 * m - n), m):
                        w = proj_collinear_witness(n, m, k, j, t, field)
                        want = proj_witness(n, m, k, j, t, field)
                        assert w.rows() == want.rows(), (n, m, k, j, t)
                        assert span_rows(field, n, w.rows()) == w
                        checked += 1
    assert checked == 1448  # every admissible point with n <= 10


def _random_column_sets(rng, n):
    """Disjoint nonempty column sets of V(n,q), each shuffled, in random
    order; some columns are left in no set."""
    cols = list(range(n))
    rng.shuffle(cols)
    cols = cols[:rng.randint(0, n)]
    sets = []
    while cols:
        size = rng.randint(1, len(cols))
        sets.append(cols[:size])
        cols = cols[size:]
    return sets


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_perp_rows_closed_form(q):
    """The perp of the span of the indicator rows of disjoint column sets,
    written down, is the one perp computes by elimination, and has
    dimension n minus the number of sets; the indicator rows are the
    canonical rows of their span."""
    import random
    from glgeom.witness import _indicator_rows, _perp_rows
    field = field_of(q)
    rng = random.Random(q)
    families = [(n, sets) for n in range(1, 13)
                for sets in ([], [[c] for c in range(n)], [list(range(n))])]
    families += [(n, _random_column_sets(rng, n))
                 for n in (rng.randint(1, 12) for _ in range(200))]
    for n, sets in families:
        ind = _indicator_rows(n, sets)
        assert ind == span_rows(field, n, ind).rows()
        got = _perp_rows(field, n, sets)
        assert got == perp(span_rows(field, n, ind)).rows(), (n, sets)
        assert len(got) == n - len(sets)


@pytest.mark.parametrize("p,e", [(2, 16), (3, 10), (2 ** 61 - 1, 1)])
def test_proj_witness_at_the_field_edges(p, e):
    """At n = 12 over the largest extension fields and the largest prime
    field, a witness is built exactly where the predicate holds, and its
    trusted rows are canonical (span_rows leaves them as they are)."""
    field = field_make(p, e)
    n, built, refused = 12, 0, 0
    for m in range(1, n):
        for k in range(1, n):
            for j in range(max(0, m + k - n), min(m, k) + 1):
                pred = proj_collinear_predicate(n, m, k, j)
                for t in range(max(0, 2 * m - n), m):
                    try:
                        w = proj_collinear_witness(n, m, k, j, t, field)
                    except PredicateFailsError:
                        assert not pred
                        refused += 1
                        continue
                    assert pred and w.dim == k
                    assert span_rows(field, n, w.rows()) == w
                    built += 1
    assert (built, refused) == (1076, 406)


# ---------------------------------------------------------------------
# the bisection witness
# ---------------------------------------------------------------------

def _valid_bis_params(q, kmax):
    field = field_of(q)
    for k in range(1, kmax + 1):
        for m in range(1, k + 1):
            for k1 in range(0, m + 1):
                for k2 in range(k1, m + 1):
                    try:
                        yield BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue


@pytest.mark.parametrize("q", [2, 3])
def test_bis_witness_full_coverage(q):
    """Every predicate-true (m <= k <= 4, k1, k2, t) has a certified witness;
    every predicate-false point raises."""
    field = field_of(q)
    for params in _valid_bis_params(q, 4):
        pred = bis_collinear_predicate(q, params.m, params.k,
                                       params.k1, params.k2)
        for t in range(params.m):
            u1, u2 = canonical_pair(field, 2 * params.k, params.m, t)
            try:
                b = bis_collinear_witness(params, t)
            except PredicateFailsError:
                assert not pred
                continue
            assert pred
            # independent certification with subspace primitives only
            assert intersection_dim(b.half1, b.half2) == 0
            assert b.half1.dim == b.half2.dim == params.k
            want = (params.k1, params.k2)
            for u in (u1, u2):
                d = tuple(sorted((intersection_dim(u, b.half1),
                                  intersection_dim(u, b.half2))))
                assert d == want


def _builds_at_every_overlap(build, overlaps):
    """True if build(t) returns at every overlap, False if it raises
    PredicateFailsError at every one; a mix fails the test."""
    built = set()
    for t in overlaps:
        try:
            build(t)
            built.add(True)
        except PredicateFailsError:
            built.add(False)
    assert len(built) == 1, built
    return built.pop()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_proj_witness_builds_at_every_overlap_or_none(q):
    """The collinear oracles try the witness at each overlap and search
    only on PredicateFailsError, so it must come at every overlap or at
    none, exactly where the closed form fails: every admissible point
    with n <= 8."""
    field = field_of(q)
    for n in range(2, 9):
        for m in range(1, n):
            for k in range(1, n):
                for j in range(max(0, m + k - n), min(m, k) + 1):
                    built = _builds_at_every_overlap(
                        lambda t: proj_collinear_witness(n, m, k, j, t, field),
                        range(max(0, 2 * m - n), m))
                    assert built == proj_collinear_predicate(n, m, k, j), \
                        (n, m, k, j)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_bis_witness_builds_at_every_overlap_or_none(q):
    """As for proj: every point with k <= 4, those with m > k dualised to
    m <= k as bis_collinear_oracle does."""
    field = field_of(q)
    for k in range(1, 5):
        for m in range(1, 2 * k):
            for k1 in range(k + 1):
                for k2 in range(k1, k + 1):
                    try:
                        params = BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue
                    if m > k:
                        params = params.dual()
                    built = _builds_at_every_overlap(
                        lambda t: bis_collinear_witness(params, t),
                        range(params.m))
                    assert built == bis_collinear_predicate(
                        q, params.m, k, params.k1, params.k2), (k, m, k1, k2)


@pytest.mark.parametrize("p,e", [(2, 16), (3, 10), (2 ** 61 - 1, 1)])
def test_bis_witness_at_the_field_edges(p, e):
    """At k = 64 over the largest extension fields and the largest prime
    field, on seeded admissible (m, k1, k2, t) with m <= k, drawn until 10
    points hold the predicate and 5 fail it: a witness is built exactly
    where the predicate holds, both halves have dimension k, and the
    certificate reads (k1, k2) against U1 and U2.  The first witness's
    meets with the canonical pair, and its halves' meet, are also taken
    by the rank-based reference (Zassenhaus elimination)."""
    import random
    field, k, rng = field_make(p, e), 64, random.Random(e)
    built, refused = [], 0
    while len(built) < 10 or refused < 5:
        m = rng.randint(1, k)
        k2 = rng.randint(0, m)
        k1 = rng.randint(0, min(k2, m - k2))
        t = rng.randrange(m)
        params = BisParams(k, m, k1, k2, field)
        if not bis_collinear_predicate(field.q, m, k, k1, k2):
            if refused < 5:
                with pytest.raises(PredicateFailsError):
                    bis_collinear_witness(params, t)
                refused += 1
            continue
        if len(built) == 10:
            continue
        b = bis_collinear_witness(params, t)
        assert b.half1.dim == b.half2.dim == k
        cert = bis_witness_certificate(params, t, b)
        assert cert["intersection_dims"] == {"U1": [k1, k2], "U2": [k1, k2]}
        built.append((params, t, b))
    params, t, b = built[0]
    assert intersect(b.half1, b.half2).dim == 0
    for u in canonical_pair(field, 2 * k, params.m, t):
        assert sorted(intersect(u, h).dim for h in b.halves()) == \
            [params.k1, params.k2]


def test_bis_witness_requires_m_le_k():
    with pytest.raises(ParamError, match="apply the duality reduction first"):
        bis_collinear_witness(BisParams(2, 3, 1, 2, F2), 0)


def test_near_half_table_rows():
    """Each tabulated bisection realises its stated intersection pattern."""
    stated = {
        (2, 1): ((), (1,), (3,), ()),
        (3, 1): ((), (2, 3), (), (3, 4)),
        (3, 2): ((), (2, 3), (), (2, 3)),
        (4, 1): ((), (1, 2, 3), (5, 6, 7), ()),
        (4, 2): ((), (2, 3, 4), (), (3, 4, 5)),
        (4, 3): ((), (2, 3, 4), (), (2, 3, 4)),
    }
    for (k, t), dims in stated.items():
        b = near_half_table_bisection(F2, k, t)
        u1, u2 = canonical_pair(F2, 2 * k, k, t)
        expect = [coordinate_subspace(F2, 2 * k, [i - 1 for i in ix])
                  for ix in dims]
        # the bisection stores its halves in canonical order, which may
        # swap the tabulated (V1, V2); compare per-point multisets
        key = lambda s: s.sort_key()
        got_u1 = sorted([intersect(u1, b.half1), intersect(u1, b.half2)], key=key)
        got_u2 = sorted([intersect(u2, b.half1), intersect(u2, b.half2)], key=key)
        assert got_u1 == sorted(expect[0:2], key=key)
        assert got_u2 == sorted(expect[2:4], key=key)
        params = BisParams(k, k, 0, k - 1, F2)
        assert incident_bis(params, u1, b) and incident_bis(params, u2, b)


def test_witness_for_exception_parameters():
    with pytest.raises(PredicateFailsError):
        bis_collinear_witness(BisParams(1, 1, 0, 0, F2), 0)
    b = bis_collinear_witness(BisParams(1, 1, 0, 0, F3), 0)
    assert b.half1.rows() == ((1, 1),) and b.half2.rows() == ((1, 2),)


# ---------------------------------------------------------------------
# spreads and the fifth disjoint subspace
# ---------------------------------------------------------------------

@pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (3, 3), (4, 1), (4, 2), (4, 3)])
def test_desarguesian_spread(q, k):
    field = field_of(q)
    spread = desarguesian_spread(k, field)
    assert len(spread) == q**k + 1
    assert verify_partial_spread(spread)
    assert all(s.dim == k for s in spread)
    # disjoint k-subspaces covering (q^k+1)(q^k-1) = q^2k - 1 nonzero vectors
    assert (q**k + 1) * (q**k - 1) == q ** (2 * k) - 1


def test_verify_partial_spread_edges():
    """No subspaces form a partial spread; disjoint ones of unequal
    dimensions do not."""
    assert verify_partial_spread([])
    assert not verify_partial_spread([coordinate_subspace(F2, 4, [0]),
                                      coordinate_subspace(F2, 4, [1, 2])])


def test_desarguesian_spread_rows_pinned():
    """sha256 of the repr of each spread's list of canonical rows, pinned
    from the release whose spread multiplied through its own product-mod
    over GF(q) and its own irreducible search."""
    import hashlib
    pinned = {
        (2, 1):
            "1ca2f26f3823786ff8131c3a29aedaf4fd815f106fbf91ccf6d7603dea979167",
        (2, 2):
            "202f6f03e3a87144c1bfd9acd31380e62a95bd0a3f8acc80c9452ccc04fce47d",
        (2, 3):
            "d4532143c5af28bdd88c1703cc4bfcd69773df852175d50c94d22fe04c10fb1f",
        (3, 1):
            "bfecb61803fb27021e8d9542922d6f478562d50cd62b876d0529503d987a1062",
        (3, 2):
            "2204715ad5cc6585178b164edb1da692f71127fc52024691d9925e609cdc35e3",
        (3, 3):
            "fe6cfe2856e25992c17236bbc3155b9c31a8e6c71d03b68579e0f6ca8f4ee6e3",
        (4, 1):
            "bfba5f082265813520128623c8e18d73ea537d6dafb32301c3951430d2f1e502",
        (4, 2):
            "fe806ea94d9b5d1d24cb1ddc57be06201b690f31753f527efe02aedf15a365fa",
        (4, 3):
            "2b164ea499f1ad08856481fc978f5674bb8e5c9346ea802716b0104588843607",
    }
    for (q, k), digest in pinned.items():
        rows = [s.rows() for s in desarguesian_spread(k, field_of(q))]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, \
            (q, k)


def test_spread_covers_all_vectors():
    spread = desarguesian_spread(2, F2)
    covered = set()
    for s in spread:
        for v in vectors(s):
            if any(v):
                covered.add(v)
    assert len(covered) == 15


def test_fifth_disjoint_projective_line():
    spread = desarguesian_spread(1, F4)  # 5 points on PG(1,4)
    sigma = fifth_disjoint(spread[:4])
    assert sigma == spread[4] or all(
        intersection_dim(sigma, p) == 0 for p in spread[:4])


def test_fifth_disjoint_gf2_inverse_construction():
    """With the frame [I|0], [0|I], [I|I], [I|A] the answer is [I|A^-1]."""
    a = ((0, 1), (1, 1))
    rows = lambda left, right: [left[i] + right[i] for i in range(2)]
    i2 = ((1, 0), (0, 1))
    z2 = ((0, 0), (0, 0))
    ones = ((1, 0), (0, 1))
    pis = [span_rows(F2, 4, rows(i2, z2)),
           span_rows(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)]),
           span_rows(F2, 4, rows(i2, ones)),
           span_rows(F2, 4, rows(i2, a))]
    sigma = fifth_disjoint(pis)
    a_inv = ((1, 1), (1, 0))
    assert mat_mul(F2, a, a_inv) == i2
    assert sigma == span_rows(F2, 4, rows(i2, a_inv))
    for p in pis:
        assert intersection_dim(sigma, p) == 0


def test_fifth_disjoint_nonstandard_frame():
    """The GF(2) normalisation handles four subspaces in general position."""
    g = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))
    assert rank_of_rows(F2, g, 4) == 4
    spread = desarguesian_spread(2, F2)
    moved = [apply_mat(s, g) for s in spread[:4]]
    sigma = fifth_disjoint(moved)
    for p in moved:
        assert intersection_dim(sigma, p) == 0


def test_fifth_disjoint_preconditions():
    spread3 = desarguesian_spread(1, F3)   # 4 points, but q^k = 3 < 4
    with pytest.raises(ParamError, match="need q\\^k >= 4"):
        fifth_disjoint(spread3[:4])
    spread = desarguesian_spread(2, F2)
    with pytest.raises(ParamError, match="not pairwise disjoint"):
        fifth_disjoint([spread[0], spread[1], spread[2], spread[0]])


def test_construction_check_raises_unimplemented(monkeypatch):
    """A construction that comes out wrong inside the route raises
    RuntimeError (an explicit check, kept under python -O), and the CLI
    reports it as an internal error: here the graph completion's paired
    rows are dropped, so one half falls short of dimension k."""
    import glgeom.witness as wt
    from glgeom.cli import main
    params = BisParams(4, 4, 0, 3, F3)   # t = 2 takes the graph completion
    assert bis_collinear_witness(params, 2)
    monkeypatch.setattr(wt, "_sums", lambda cols, others: [])
    with pytest.raises(RuntimeError, match="halves must have dimension n/2"):
        bis_collinear_witness(params, 2)
    assert main(["bis-collinear", "--k", "4", "--m", "4", "--k1", "0",
                 "--k2", "3", "--q", "3", "--mode", "witness"]) == 4


# per q, the witnesses with m <= k <= 6 and every t that the row-identity
# test checks: 2,764 over the seven fields
BIS_REFERENCE_COUNTS = {2: 394, 3: 395, 4: 395, 5: 395, 7: 395, 8: 395,
                        9: 395}
# the two deep-overlap cases that first occur at k = 8: c1 and c2 longer
# than x = k1 + k2 - t > 0, and c[k-k2:] longer than k2 with x > 0
BIS_DEEP_POINTS = [(8, 8, 2, 5), (8, 6, 2, 4)]


@pytest.mark.parametrize("q", sorted(BIS_REFERENCE_COUNTS))
def test_bis_witness_is_the_reference_construction(q):
    """The index-row halves are those of the eliminating construction, row
    for row, and canonical: span_rows leaves each half as it is."""
    from bis_witness_reference import bis_witness
    field = field_of(q)
    points = [(p, t) for p in _valid_bis_params(q, 6)
              if bis_collinear_predicate(q, p.m, p.k, p.k1, p.k2)
              for t in range(p.m)]
    assert len(points) == BIS_REFERENCE_COUNTS[q]
    if q in (2, 3):
        points += [(BisParams(*point, field), t) for point in BIS_DEEP_POINTS
                   for t in range(point[1])]
    for params, t in points:
        b = bis_collinear_witness(params, t)
        want = bis_witness(params, t)
        assert (b.half1.rows(), b.half2.rows()) == \
            (want.half1.rows(), want.half2.rows()), (params, t)
        for half in b.halves():
            assert span_rows(field, half.n, half.rows()) == half


@pytest.mark.parametrize("q", [4, 5, 7, 9, 16, 27])
def test_bis_witness_is_the_reference_construction_at_k7_to_9(q):
    """As above at k = 7..9: a seeded sample of 250 of the 1,559 witnesses
    (params, t) where the predicate holds, and every t of the deep-overlap
    points of BIS_DEEP_POINTS, whose c2 rows are written e_c2 - e_c."""
    import random
    from bis_witness_reference import bis_witness
    field = field_of(q)
    points = [(p, t) for p in _valid_bis_params(q, 9) if p.k >= 7
              and bis_collinear_predicate(q, p.m, p.k, p.k1, p.k2)
              for t in range(p.m)]
    assert len(points) == 1559
    points = random.Random(q).sample(points, 250) + [
        (BisParams(*point, field), t) for point in BIS_DEEP_POINTS
        for t in range(point[1])]
    for params, t in points:
        b = bis_collinear_witness(params, t)
        want = bis_witness(params, t)
        assert (b.half1.rows(), b.half2.rows()) == \
            (want.half1.rows(), want.half2.rows()), (params, t)


# ---------------------------------------------------------------------
# each witness verified once; its certificate reads that verification
# ---------------------------------------------------------------------

def _counting(monkeypatch, name):
    """Wrap witness.<name> so that every call is recorded."""
    import glgeom.witness as wt
    calls = []
    real = getattr(wt, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(wt, name, counted)
    return calls


# (n, m, k, j, q): subset witness with K, subset witness with a partition,
# and the perp of the dual witness (m > n/2)
PROJ_POINTS = [(6, 2, 3, 1, 3), (6, 3, 4, 1, 2), (7, 5, 4, 2, 3)]
# (q, k, m, k1, k2): pattern (0,0) with both own-pair builds, the wide deep
# overlap, and m > k through the duality reduction
BIS_POINTS = [(2, 3, 3, 0, 0), (3, 4, 4, 0, 2), (2, 3, 4, 1, 2)]
# with BIS_POINTS, every regime of the bisection route at some t: the q = 2
# small case from both regimes that reach it, the graph completion, the
# near-half table, pattern (0,0) with one column in c1, the shallow
# regime's q = 2 mixed rows, and that regime with t > k1 at odd q
BIS_REGIME_POINTS = [(2, 5, 5, 0, 3), (2, 2, 2, 0, 1), (2, 3, 2, 0, 0),
                     (2, 3, 3, 1, 1), (3, 5, 5, 1, 2)]


@pytest.mark.parametrize("n,m,k,j,q", PROJ_POINTS)
def test_proj_witness_meets_are_invariant_under_gl(n, m, k, j, q):
    """W, U1 and U2 moved by one seeded random element of GL(n,q) keep
    their meet dimensions: j with each of U1, U2, and t between them."""
    import random
    field, rng = field_of(q), random.Random(n * 100 + q)
    for t in range(max(0, 2 * m - n), m):
        w = proj_collinear_witness(n, m, k, j, t, field)
        for _ in range(3):
            g = random_gl(rng, field, n)
            wg, u1, u2 = (apply_mat(s, g)
                          for s in (w, *canonical_pair(field, n, m, t)))
            assert (intersection_dim(wg, u1), intersection_dim(wg, u2),
                    intersection_dim(u1, u2)) == (j, j, t), (t, g)


@pytest.mark.parametrize("q,k,m,k1,k2", BIS_POINTS + BIS_REGIME_POINTS)
def test_bis_witness_meets_are_invariant_under_gl(q, k, m, k1, k2):
    """As for proj: the bisection witness and the canonical pair moved by
    one element keep the pattern (k1, k2) against each of U1, U2."""
    import random
    field, rng = field_of(q), random.Random(k * 100 + q)
    params = BisParams(k, m, k1, k2, field)
    work = params if m <= k else params.dual()
    for t in range(work.m):
        b = bis_collinear_witness(work, t)
        for _ in range(3):
            g = random_gl(rng, field, 2 * k)
            bg = apply_bisection(b, g)
            pair = [apply_mat(u, g)
                    for u in canonical_pair(field, 2 * k, work.m, t)]
            assert intersection_dim(*pair) == t
            for u in pair:
                assert tuple(sorted(intersection_dim(u, h)
                                    for h in bg.halves())) == \
                    (work.k1, work.k2), (t, g)


def test_shallow_overlap_mixed_rows_build_up_to_k10():
    """q = 2, the shallow regime (t <= 2 k1) with one column x1 of c1 past
    the halves' shares (m = k1 + k2 + 1) and c nonempty: x1 + c[0] and x2
    + c[0], the plane of x1 + x2 and x1 + c[0] written canonical, go to
    B2, which lacks d2 = k - m + 1 + min(t, k1) >= 2 rows.  Every such
    point with k <= 10 where the predicate holds builds a witness with the
    stated meets."""
    built = 0
    for k in range(2, 11):
        for k1 in range(k):
            for k2 in range(max(k1, 1), k - k1):
                m = k1 + k2 + 1
                if not bis_collinear_predicate(2, m, k, k1, k2):
                    continue
                for t in range(min(m - 1, 2 * k1) + 1):
                    if 2 * m - t == 2 * k:  # c is empty
                        continue
                    assert k - m + 1 + min(t, k1) >= 2
                    b = bis_collinear_witness(BisParams(k, m, k1, k2, F2), t)
                    for u in canonical_pair(F2, 2 * k, m, t):
                        assert tuple(sorted(intersection_dim(u, h)
                                            for h in b.halves())) == \
                            (k1, k2), (k, m, k1, k2, t)
                    built += 1
    assert built == 316


@pytest.mark.parametrize("n,m,k,j,q", PROJ_POINTS)
def test_proj_certificate_reads_the_witness_verification(monkeypatch,
                                                         n, m, k, j, q):
    from glgeom.witness import proj_witness_certificate
    field = field_of(q)
    meets = _counting(monkeypatch, "range_meet_dim")
    pairs = _counting(monkeypatch, "canonical_pair")
    for t in range(max(0, 2 * m - n), m):
        meets.clear()
        pairs.clear()
        w = proj_collinear_witness(n, m, k, j, t, field)
        assert len(meets) == 2  # the returned W only, also for m > n/2
        assert pairs == []  # the verification builds no pair
        meets.clear()
        cert = proj_witness_certificate(n, m, k, j, t, field, w)
        assert meets == [] and pairs == [(field, n, m, t)]
        assert cert["intersection_dims"] == [j, j]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n,m,k,j", [p[:4] for p in PROJ_POINTS])
def test_proj_witness_makes_no_elimination(monkeypatch, n, m, k, j, q):
    """The projective witness is written down: no rref and no kernel is
    computed, for m <= n/2 and for m > n/2 (every binding of the two gfq
    kernels in the package is counted, as the bench tracer wraps them)."""
    import sys
    from glgeom import gfq
    modules = [mod for mod_name, mod in sys.modules.items()
               if mod_name.startswith("glgeom")]
    calls = {"_rref_rows": 0, "kernel": 0}
    for name in calls:
        real = getattr(gfq, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counted)
    field = field_of(q)
    for t in range(max(0, 2 * m - n), m):
        assert proj_collinear_witness(n, m, k, j, t, field).dim == k
    assert calls == {"_rref_rows": 0, "kernel": 0}
    perp(coordinate_subspace(field, n, [0]))  # the counters do see a kernel
    assert calls["kernel"] == 1 and calls["_rref_rows"] >= 1


@pytest.mark.parametrize("q,k,m,k1,k2", BIS_POINTS + BIS_REGIME_POINTS)
def test_bis_witness_makes_one_elimination_per_half(monkeypatch,
                                                    q, k, m, k1, k2):
    """The bisection witness is written down as canonical index rows: each
    witness makes no rref, inverse or kernel at all, as the projective one
    (every binding of the three gfq kernels in the package is counted).
    Its name states a looser bound, one rref per half, kept so that its
    test ids stay."""
    import sys
    from glgeom import gfq
    modules = [mod for mod_name, mod in sys.modules.items()
               if mod_name.startswith("glgeom")]
    calls = {"_rref_rows": 0, "mat_inverse": 0, "kernel": 0}
    for name in calls:
        real = getattr(gfq, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counted)
    params = BisParams(k, m, k1, k2, field_of(q))
    work = params if m <= k else params.dual()
    for t in range(work.m):
        for name in calls:
            calls[name] = 0
        assert bis_collinear_witness(work, t).k == work.k
        assert calls == {"_rref_rows": 0, "mat_inverse": 0, "kernel": 0}, t
    perp(coordinate_subspace(field_of(q), 2, [0]))
    fifth_disjoint(desarguesian_spread(2, F2)[:4])  # inverts on rows
    assert calls["kernel"] == 1 and calls["mat_inverse"] >= 1  # they count
    assert calls["_rref_rows"] >= 1


@pytest.mark.parametrize("rows", [
    [((0, 1), (2, 1)), ((0, 1), (3, 1))],   # a repeated pivot
    [((0, 2), (2, 1))],                     # leading coefficient 2
    [((0, 1), (2, 1)), ((2, 1), (3, 1))],   # a term on another row's pivot
    [((3, 1),), ((1, 1), (3, 2))],          # the same, the pivot row first
    [((0, 1), (2, 1), (2, 1))],             # a repeated column in one row
    [((0, 1), (2, 0))],                     # a zero coefficient
    [((0, 1), (2, 3))],                     # a coefficient outside GF(3)
    [((0, 1), (4, 1))],                     # a column outside V(4,3)
    [((-1, 1),)],                           # a negative column
    [()],                                   # an empty row
])
def test_canonical_rows_guard_refuses(rows):
    """Index rows that are not written down canonical raise ValueError;
    none is reduced."""
    from glgeom.witness import _canonical_rows
    with pytest.raises(ValueError):
        _canonical_rows(F3, 4, rows)


def test_canonical_rows_are_the_rref():
    """Rows the guard admits, in any order of rows and of terms, are the
    canonical rows of their span, and a unit row is the shared one."""
    from glgeom.subspace import _unit_rows
    from glgeom.witness import _canonical_rows, _vectors
    rows = [((3, 2), (1, 1)), ((2, 1),), ((5, 1), (0, 1), (4, 2))]
    got = _canonical_rows(F3, 6, rows)
    assert got == span_rows(F3, 6, _vectors(F3, 6, rows)).rows() == (
        (1, 0, 0, 0, 2, 1), (0, 1, 0, 2, 0, 0), (0, 0, 1, 0, 0, 0))
    assert got[2] is _unit_rows(6)[2]


def test_non_canonical_rows_exit_4_without_reduction(monkeypatch, capsys):
    """No fallback elimination: the shallow regime's q = 2 mixed rows
    written as x1 + x2 and x1 + c[0] span the same plane as its canonical
    x1 + c[0] and x2 + c[0], but share the pivot x1, so the guard refuses
    them and the witness command exits 4 as an internal error."""
    import glgeom.witness as wt
    from glgeom.cli import main
    from glgeom.subspace import canonical_piece_columns
    real, patched = wt._shallow_overlap_rows, []

    def mixed(field, k, m, k1, k2, t):
        b1, b2 = real(field, k, m, k1, k2, t)
        _, c1, c2, c = canonical_piece_columns(2 * k, m, t)
        if c:
            x1, x2, c0 = c1[-1], c2[-1], c[0]
            i = b2.index(((x1, 1), (c0, 1)))
            assert b2[i + 1] == ((x2, 1), (c0, 1))
            old = [((x1, 1), (x2, 1)), ((x1, 1), (c0, 1))]
            assert span_rows(field, 2 * k, wt._vectors(field, 2 * k, old)) \
                .rows() == wt._canonical_rows(field, 2 * k, b2[i:i + 2])
            b2[i:i + 2] = old
            patched.append(t)
        return b1, b2
    monkeypatch.setattr(wt, "_shallow_overlap_rows", mixed)
    assert main(["bis-collinear", "--k", "3", "--m", "3", "--k1", "1",
                 "--k2", "1", "--q", "2", "--mode", "witness"]) == 4
    assert patched == [1]
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "witness construction failed" in err


@pytest.mark.parametrize("q,k,m,k1,k2", BIS_POINTS)
def test_bis_certificate_reads_the_witness_verification(monkeypatch,
                                                        q, k, m, k1, k2):
    from glgeom.witness import bis_witness_certificate
    params = BisParams(k, m, k1, k2, field_of(q))
    work = params if m <= k else params.dual()
    meets = _counting(monkeypatch, "range_meet_dim")
    pairs = _counting(monkeypatch, "canonical_pair")
    want = [work.k1, work.k2]
    for t in range(work.m):
        meets.clear()
        pairs.clear()
        b = bis_collinear_witness(work, t)
        assert len(meets) == 4  # each half against each of U1, U2
        assert pairs == []  # the verification builds no pair
        meets.clear()
        cert = bis_witness_certificate(work, t, b)
        assert meets == [] and pairs == [(work.field, 2 * k, work.m, t)]
        assert cert["intersection_dims"] == {"U1": want, "U2": want}


def test_proj_certificate_of_another_w_computes_its_own():
    """After a witness has been verified, a certificate for a different W
    (one that fails, the same W at another t, the same shape over another
    field) records that W's own dimensions."""
    from glgeom.witness import proj_witness_certificate
    n, m, k, j = 6, 2, 3, 1
    for t, field in [(0, F3), (1, F3), (0, F2)]:
        proj_collinear_witness(n, m, k, j, 0, F3)
        w = coordinate_subspace(field, n, range(k))
        cert = proj_witness_certificate(n, m, k, j, t, field, w)
        u1, u2 = canonical_pair(field, n, m, t)
        dims = [intersection_dim(w, u1), intersection_dim(w, u2)]
        assert cert["intersection_dims"] == dims != [j, j]
        assert cert["pair"] == [list(map(list, u.rows())) for u in (u1, u2)]
        assert cert["params"]["q"] == field.q


def test_bis_certificate_of_another_bisection_computes_its_own():
    from glgeom.subspace import Bisection
    from glgeom.witness import bis_witness_certificate
    k, m = 3, 3
    for t, field in [(0, F3), (2, F3), (0, F2)]:
        params = BisParams(k, m, 0, 0, field)
        bis_collinear_witness(BisParams(k, m, 0, 0, F3), 0)
        b = Bisection(coordinate_subspace(field, 2 * k, range(k)),
                      coordinate_subspace(field, 2 * k, range(k, 2 * k)))
        cert = bis_witness_certificate(params, t, b)
        u1, u2 = canonical_pair(field, 2 * k, m, t)
        got = {name: sorted(intersection_dim(u, h) for h in b.halves())
               for name, u in (("U1", u1), ("U2", u2))}
        assert cert["intersection_dims"] == got
        assert got["U1"] != [0, 0]
        assert cert["pair"] == [list(map(list, u.rows())) for u in (u1, u2)]


@pytest.mark.parametrize("corrupt", ["perp", "inner"])
def test_wrong_dual_route_still_fails_the_outer_check(monkeypatch, corrupt):
    """For m > n/2 only the returned W is verified: wrong perp rows, or
    wrong column sets for the dual witness, still raise and exit 4."""
    import glgeom.witness as wt
    from glgeom.cli import main
    n, m, k, j, t = 6, 4, 3, 2, 2
    assert proj_collinear_witness(n, m, k, j, t, F3).dim == k
    if corrupt == "perp":
        monkeypatch.setattr(wt, "_perp_rows", lambda field, n_, sets: (
            coordinate_subspace(field, n_, range(n_ - len(sets))).rows()))
    else:
        monkeypatch.setattr(wt, "_proj_column_sets",
                            lambda n_, m_, k_, j_, t_: [[c] for c in range(k_)])
    with pytest.raises(RuntimeError, match="failed verification"):
        proj_collinear_witness(n, m, k, j, t, F3)
    assert main(["proj-collinear", "--n", "6", "--m", "4", "--k", "3",
                 "--j", "2", "--q", "3", "--mode", "witness"]) == 4


def test_failed_bis_verification_names_the_parameters(monkeypatch):
    """The verification failure prints the parameters field by field, not
    an object address."""
    import glgeom.witness as wt
    monkeypatch.setattr(wt, "_bis_pair_dims",
                        lambda m, t, b: ((0, 0), (0, 0)))
    with pytest.raises(RuntimeError, match="failed verification") as info:
        bis_collinear_witness(BisParams(2, 2, 0, 1, F3), 1)
    message = str(info.value)
    assert "BisParams(k=2, m=2, k1=0, k2=1, field=GF(3)) t=1" in message
    assert "object at 0x" not in message


@pytest.mark.parametrize("argv", [
    ["bis-collinear", "--k", "2", "--m", "2", "--k1", "0", "--k2", "0",
     "--q", "3"],
    ["proj-collinear", "--n", "6", "--m", "3", "--k", "4", "--j", "1",
     "--q", "2"],
])
def test_lattice_error_inside_a_witness_exits_4(monkeypatch, capsys, argv):
    """A ValueError from a lattice helper after the parameter and predicate
    checks is a construction failure (exit 4), not bad parameters (exit 1):
    the canonical index rows on the bisection route, the indicator rows on
    the projective one."""
    import glgeom.witness as wt
    from glgeom.cli import main

    def not_independent(*args):
        raise ValueError("summands are not independent")
    monkeypatch.setattr(wt, "_canonical_rows", not_independent)
    monkeypatch.setattr(wt, "_indicator_rows", not_independent)
    assert main(argv + ["--mode", "witness"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "summands are not independent" in err


def test_witness_certificate_digests():
    """sha256 of the --certificate --format json output, pinned from the
    release before certificates read the witness verification."""
    import contextlib
    import hashlib
    import io
    from glgeom.cli import main
    pinned = {
        "proj-collinear --n 6 --m 2 --k 3 --j 1 --q 3":
            "4fafa0bd929753af8776f258f53bb6161dd785d0a93a5d7e4b480a5b2ee43688",
        "proj-collinear --n 6 --m 3 --k 4 --j 1 --q 2":
            "eecd6b94fcd2aebcefda122d1db1524cf2f455cd2805991cef0d765c382ee219",
        "proj-collinear --n 7 --m 5 --k 4 --j 2 --q 3":
            "822fc335e674f16759dc59c98bc0f14d4fa25840c404c03befe6a8f4a5f2b667",
        "bis-collinear --k 3 --m 3 --k1 0 --k2 0 --q 2":
            "95f2959d0f2b3a1a49b342e8e5f3fe859e979a62490410f6e62c87d388579c16",
        "bis-collinear --k 4 --m 4 --k1 0 --k2 2 --q 3":
            "9f1576df2b075070f4fd2e6dd9ac3bf8d5128e9619b1236a3fdbe02d58cb194d",
        "bis-collinear --k 3 --m 4 --k1 1 --k2 2 --q 2":
            "3be7c59b43cd927d1261564747225e2cf522e499fa3cc833d1313ffcc5a407d3",
    }
    for cmd, digest in pinned.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(cmd.split() + ["--mode", "witness", "--certificate",
                                       "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, cmd
