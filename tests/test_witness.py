"""Certificate soundness for every constructive procedure."""

import pytest

from glgeom.gfq import Mat, field_make, mat_mul, mat_identity
from glgeom.geometry import BadParamsError, BisParams, incident_bis
from glgeom.subspace import (apply_mat, coordinate_subspace,
                             intersection_dim, perp, span_rows,
                             transport_pair)
from glgeom.witness import (NoSuchPairError, PreconditionViolatedError,
                            PredicateFailsError, bis_collinear_predicate,
                            bis_collinear_witness, canonical_pair,
                            desarguesian_spread,
                            diagonal_pair, diagonal_pair_exists_bruteforce,
                            fifth_disjoint, near_half_table_bisection,
                            proj_collinear_witness, subset_witness,
                            verify_partial_spread, NotPairwiseDisjointError,
                            UnimplementedCaseError)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)


def field_of(q):
    return {2: F2, 3: F3, 4: F4, 5: F5}[q]


# ---------------------------------------------------------------------
# diagonal pairs
# ---------------------------------------------------------------------

def test_diagonal_pair_examples():
    y1 = coordinate_subspace(F3, 2, [0])
    y2 = coordinate_subspace(F3, 2, [1])
    dp = diagonal_pair(y1, y2, 1)
    assert dp.z1.rows() == ((1, 1),) and dp.z2.rows() == ((1, 2),)
    with pytest.raises(NoSuchPairError):
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
                        with pytest.raises(NoSuchPairError):
                            diagonal_pair(y1, y2, r)


def test_diagonal_pair_arbitrary_bases():
    g = Mat(F2, [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
                 (0, 0, 0, 1, 1), (0, 0, 0, 0, 1)])
    from glgeom.gfq import mat_rank
    assert mat_rank(g) == 5
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


def test_subset_witness_properties_exhaustive():
    for n in range(2, 11):
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


def test_subset_witness_preconditions():
    with pytest.raises(PreconditionViolatedError):
        subset_witness(4, 3, 2, 1, 0)      # m > n/2
    with pytest.raises(PreconditionViolatedError):
        subset_witness(6, 2, 3, 2, 0)      # 2j > k
    with pytest.raises(PreconditionViolatedError):
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
    from glgeom.oracle import proj_collinear_predicate
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
                    except BadParamsError:
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


def test_bis_witness_requires_m_le_k():
    with pytest.raises(PreconditionViolatedError):
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
    from glgeom.subspace import intersect
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


def test_spread_covers_all_vectors():
    spread = desarguesian_spread(2, F2)
    covered = set()
    for s in spread:
        for v in s.vectors():
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
    a = Mat(F2, [(0, 1), (1, 1)])
    rows = lambda left, right: [
        tuple(left.entries[i]) + tuple(right.entries[i]) for i in range(2)]
    i2 = mat_identity(F2, 2)
    z2 = Mat(F2, [(0, 0), (0, 0)])
    ones = Mat(F2, [(1, 0), (0, 1)])
    pis = [span_rows(F2, 4, rows(i2, z2)),
           span_rows(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)]),
           span_rows(F2, 4, rows(i2, ones)),
           span_rows(F2, 4, rows(i2, a))]
    sigma = fifth_disjoint(pis)
    a_inv = Mat(F2, [(1, 1), (1, 0)])
    assert mat_mul(a, a_inv) == i2
    assert sigma == span_rows(F2, 4, rows(i2, a_inv))
    for p in pis:
        assert intersection_dim(sigma, p) == 0


def test_fifth_disjoint_nonstandard_frame():
    """The GF(2) normalisation handles four subspaces in general position."""
    g = Mat(F2, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)])
    from glgeom.gfq import mat_rank
    assert mat_rank(g) == 4
    spread = desarguesian_spread(2, F2)
    moved = [apply_mat(s, g) for s in spread[:4]]
    sigma = fifth_disjoint(moved)
    for p in moved:
        assert intersection_dim(sigma, p) == 0


def test_fifth_disjoint_preconditions():
    spread3 = desarguesian_spread(1, F3)   # 4 points, but q^k = 3 < 4
    with pytest.raises(PreconditionViolatedError):
        fifth_disjoint(spread3[:4])
    spread = desarguesian_spread(2, F2)
    with pytest.raises(NotPairwiseDisjointError):
        fifth_disjoint([spread[0], spread[1], spread[2], spread[0]])


def test_construction_check_raises_unimplemented(monkeypatch):
    """A failed dimension check inside a construction raises
    UnimplementedCaseError (an explicit check, kept under python -O), and
    the CLI reports it as an internal error."""
    import glgeom.witness as wt
    from glgeom.cli import main
    params = BisParams(4, 4, 0, 3, F3)   # t = 2 takes the graph completion
    assert bis_collinear_witness(params, 2)
    monkeypatch.setattr(wt, "_graph_rows", lambda field, dom, tgt: [])
    with pytest.raises(UnimplementedCaseError, match="graph completion"):
        bis_collinear_witness(params, 2)
    assert main(["bis-collinear", "--k", "4", "--m", "4", "--k1", "0",
                 "--k2", "3", "--q", "3", "--mode", "witness"]) == 4
