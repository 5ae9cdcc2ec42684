"""Field arithmetic and matrix kernel tests."""

import itertools
import math

import pytest

import field_reference
from glgeom.errors import ParamError
from glgeom.gfq import (FieldSpec, factor_prime_power, field_make, is_prime,
                        kernel, least_irreducible, mat_inverse, pack_rows,
                        pk_rank, poly_mulmod, primitive_element, _rref_rows)
from field_reference import rank_of_rows
from lattice_reference import mat_mul

PRIME_POWERS_16 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                   (11, 1), (13, 1), (2, 4)]


# ---------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------

def test_field_make_errors():
    with pytest.raises(ParamError, match="4 is not prime"):
        field_make(4, 1)
    with pytest.raises(ParamError, match="1 is not prime"):
        field_make(1, 1)
    with pytest.raises(ParamError, match="extension degree must be >= 1"):
        field_make(2, 0)
    with pytest.raises(ParamError, match="extension fields above 2\\^16"):
        field_make(2, 17)
    with pytest.raises(ParamError,
                       match="field order above configured bound 2\\^61"):
        field_make(2, 62)
    field_make(65537)  # a prime field needs no log tables
    for q in (0, 1, 6):
        with pytest.raises(ParamError, match="not a prime power"):
            factor_prime_power(q)


def test_factor_prime_power_by_integer_roots():
    """Exact integer roots and Miller-Rabin: no trial division up to q."""
    assert factor_prime_power(2**61 - 1) == (2**61 - 1, 1)  # Mersenne prime
    assert factor_prime_power(3**38) == (3, 38)
    assert factor_prime_power(1000003**2) == (1000003, 2)
    # 3215031751 = 151 * 751 * 28351, a strong pseudoprime to bases 2..7
    for q in (1, 6, 3215031751):
        with pytest.raises(ParamError, match="not a prime power"):
            factor_prime_power(q)


def test_is_prime_matches_trial_division():
    from glgeom.gfq import is_prime
    for n in range(-2, 3000):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)


def test_gf4_modulus_is_unique_irreducible():
    """Enumerate monic degree-2 polynomials over GF(2): x^2+x+1 is the only
    irreducible, so the deterministic modulus choice is forced."""
    irreducible = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            # p(x) = x^2 + c1 x + c0; reducible iff it has a root in GF(2)
            has_root = any((x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))
            if not has_root:
                irreducible.append((c0, c1, 1))
    assert irreducible == [(1, 1, 1)]
    assert field_make(2, 2).modulus == (1, 1, 1)


def test_prime_field_modulus_empty():
    assert field_make(2, 1).modulus == ()
    assert field_make(3, 1).modulus == ()


@pytest.mark.parametrize("p,e", PRIME_POWERS_16)
def test_field_axioms_exhaustive(p, e):
    f = field_make(p, e)
    q = f.q
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


# ---------------------------------------------------------------------
# rref / kernel / inverse
# ---------------------------------------------------------------------

def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_rref_identity():
    f = field_make(2)
    assert _rref_rows(f, _identity(2), 2) == ([[1, 0], [0, 1]], [0, 1])


def test_rref_duplicate_rows():
    f = field_make(2)
    assert _rref_rows(f, [(1, 1), (1, 1)], 2) == ([[1, 1]], [0])


def test_rref_gf3_example():
    f = field_make(3)
    assert _rref_rows(f, [(0, 1, 1), (1, 0, 1)], 3) == \
        ([[1, 0, 1], [0, 1, 1]], [0, 1])


def _all_matrices(f, rows, cols):
    for flat in itertools.product(range(f.q), repeat=rows * cols):
        yield tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))


@pytest.mark.parametrize("q", [2, 3])
def test_rref_idempotent_and_row_space(q):
    f = field_make(q)
    for m in _all_matrices(f, 2, 3):
        r, piv = _rref_rows(f, m, 3)
        assert _rref_rows(f, r, 3) == (r, piv)
        assert piv == sorted(piv)
        # row space preserved: membership by rank test both ways
        rank = len(r)
        for row in m:
            assert rank_of_rows(f, r + [row], 3) == rank
        for row in r:
            assert rank_of_rows(f, list(m) + [row], 3) == rank


def test_kernel_examples():
    f2 = field_make(2)
    assert len(kernel(f2, [(0, 0, 0)], 3)) == 3
    assert kernel(f2, _identity(3), 3) == ()
    assert kernel(f2, [(1, 1)], 2) == ((1, 1),)
    # independent oracle: exhaust the 4 vectors of GF(2)^2
    sols = [v for v in itertools.product((0, 1), repeat=2)
            if (v[0] + v[1]) % 2 == 0 and any(v)]
    assert sols == [(1, 1)]


@pytest.mark.parametrize("q", [2, 3])
def test_rank_nullity(q):
    f = field_make(q)
    for m in _all_matrices(f, 2, 3):
        assert rank_of_rows(f, m, 3) + len(kernel(f, m, 3)) == 3


def test_inverse_examples():
    f2 = field_make(2)
    i2 = _identity(2)
    assert mat_inverse(f2, i2) == i2
    a = ((0, 1), (1, 1))
    x = mat_inverse(f2, a)
    assert x == ((1, 1), (1, 0))
    assert mat_mul(f2, a, x) == i2
    f3 = field_make(3)
    d = ((2,),)
    assert mat_inverse(f3, d) == d  # 2*2 = 4 = 1 mod 3
    with pytest.raises(ValueError, match="matrix is singular"):
        mat_inverse(f2, ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="inverse of non-square matrix"):
        mat_inverse(f2, ((1, 0, 0), (0, 1, 0)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inverse_round_trip(q):
    f = field_make(2, 2) if q == 4 else field_make(q)
    i3 = _identity(3)
    count = 0
    for m in _all_matrices(f, 3, 3):
        if rank_of_rows(f, m, 3) == 3:
            assert mat_mul(f, mat_inverse(f, m), m) == i3
            count += 1
        if count > 200:
            break


# ---------------------------------------------------------------------
# packed GF(2) representation
# ---------------------------------------------------------------------

def test_packed_round_trip_bit_for_bit():
    f = field_make(2)
    for m in _all_matrices(f, 3, 4):
        packed = pack_rows(m)
        assert [[(x >> j) & 1 for j in range(4)] for x in packed] == \
            [list(row) for row in m]
        assert pk_rank(packed, 4) == rank_of_rows(f, m, 4)


def _digitwise(p, e, op, *codes):
    """op applied coefficient by coefficient to the digit vectors of the
    codes, reduced mod p, as a code."""
    vecs = [field_reference.digits(c, p, e) for c in codes]
    return sum(op(*xs) % p * p**i for i, xs in enumerate(zip(*vecs)))


def test_large_extension_field_log_tables():
    """GF(2^11), GF(2^16), GF(3^7) and GF(3^10) run on their exp/log and
    Zech tables: sampled products, inverses, sums, differences and
    negatives match the multiply-then-divide and digit-vector references,
    and the field laws hold on the samples."""
    import random
    for p, e in [(2, 11), (2, 16), (3, 7), (3, 10)]:
        f = field_make(p, e)
        mul = field_reference.field_mul(p, e, f.modulus)
        rng = random.Random(f.q)
        for _ in range(2000):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.mul(a, b) == mul(a, b)
            assert f.add(a, b) == _digitwise(p, e, lambda x, y: x + y, a, b)
            assert f.sub(a, b) == _digitwise(p, e, lambda x, y: x - y, a, b)
            assert f.neg(a) == _digitwise(p, e, lambda x: -x, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            if a:
                assert mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,e", [(2, 11), (2, 16), (3, 7)])
def test_addition_above_the_table_limit(p, e):
    """Above q = 1024 (once the dense-table limit; every GF(p^e) now adds
    through Zech logarithms) add, sub and neg match coefficient-wise
    arithmetic on the digit vectors, including zero operands."""
    import random
    f = field_make(p, e)
    rng = random.Random(p ** e)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
    for a, b in pairs + [(0, 0), (0, 1), (1, 0), (f.q - 1, 0), (0, f.q - 1)]:
        assert f.add(a, b) == _digitwise(p, e, lambda x, y: x + y, a, b)
        assert f.sub(a, b) == _digitwise(p, e, lambda x, y: x - y, a, b)
        assert f.neg(a) == _digitwise(p, e, lambda x: -x, a)
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("q", [7, 9, 2048])
def test_inverse_of_zero_raises(q):
    f = field_make(*factor_prime_power(q))
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        f.inv(0)


def test_field_construction_memory_is_linear_in_q():
    """GF(1024) keeps exp, log and Zech tables of O(q) entries: building
    it allocates well under 2 MB (a q x q table of ints alone is 8 MB)."""
    import tracemalloc
    modulus = least_irreducible(field_make(2), 10)
    tracemalloc.start()
    try:
        f = FieldSpec(2, 10, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.q == 1024 and f.mul(2, f.inv(2)) == 1
    assert peak < 2 * 10**6, peak


# ---------------------------------------------------------------------
# the polynomial kernel against the GF(p) multiply-then-divide reference
# ---------------------------------------------------------------------

def _extension_degrees(limit):
    """(p, e) for every prime power p^e <= limit with e >= 2."""
    return [(p, e) for p in range(2, math.isqrt(limit) + 1) if is_prime(p)
            for e in range(2, limit.bit_length()) if p**e <= limit]


def test_least_irreducible_matches_reference():
    cases = _extension_degrees(2**16)
    assert len(cases) == 93
    for p, e in cases:
        want = field_reference.least_irreducible(p, e)
        assert least_irreducible(field_make(p), e) == want, (p, e)


def test_extension_field_tables_are_pinned():
    """The modulus and the exp, log and Zech tables of all 93 extension
    fields up to 2^16, hashed together, keep the digest they had when exp
    was built from q - 1 polynomial products by the primitive element."""
    import hashlib
    from glgeom.gfq import _zech_tables
    digest = hashlib.sha256()
    for p, e in _extension_degrees(2**16):
        modulus = least_irreducible(field_make(p), e)
        exp, log, zech = _zech_tables(p, e, modulus)
        digest.update(repr((p, e, modulus, exp, log, zech)).encode())
    assert digest.hexdigest() == ("778782fc006074ddde25b79f178418b7"
                                  "c21d0dbaa46ac9784f08d2ec574e826b")


@pytest.mark.parametrize("p,e", _extension_degrees(256))
def test_dense_tables_match_reference(p, e):
    """The full q x q tables of add, sub and mul, and neg and inv at every
    element, read through the public operations, match the digit-vector
    sums and the multiply-then-divide reference."""
    f = field_make(p, e)
    q = f.q
    assert f.modulus == field_reference.least_irreducible(p, e)
    mul = field_reference.field_mul(p, e, f.modulus)
    digits = [field_reference.digits(a, p, e) for a in range(q)]

    def code(vec):
        return sum(d % p * p**i for i, d in enumerate(vec))
    for a in range(q):
        assert f.neg(a) == code([-d for d in digits[a]])
        if a:
            assert mul(a, f.inv(a)) == 1
        da = digits[a]
        assert [f.add(a, b) for b in range(q)] == \
            [code([x + y for x, y in zip(da, db)]) for db in digits]
        assert [f.sub(a, b) for b in range(q)] == \
            [code([x - y for x, y in zip(da, db)]) for db in digits]
        assert [f.mul(a, b) for b in range(q)] == [mul(a, b) for b in range(q)]


def test_prime_field_operations_every_pair():
    """Every pair at every prime q <= 256: the residue operations."""
    for p in filter(is_prime, range(257)):
        f = field_make(p)
        for a in range(p):
            assert [f.add(a, b) for b in range(p)] == \
                [(a + b) % p for b in range(p)]
            assert [f.sub(a, b) for b in range(p)] == \
                [(a - b) % p for b in range(p)]
            assert [f.mul(a, b) for b in range(p)] == \
                [a * b % p for b in range(p)]
            assert f.neg(a) == -a % p
            if a:
                assert a * f.inv(a) % p == 1


def test_primitive_element_matches_order_search():
    checked = 0
    for q in range(2, 1025):
        try:
            p, e = factor_prime_power(q)
        except ParamError:
            continue
        f = field_make(p, e)
        want = field_reference.least_generator(
            q, field_reference.field_mul(p, e, f.modulus))
        assert primitive_element(q, f.mul) == want, q
        checked += 1
    assert checked == 198


def test_poly_mulmod_remainder_and_product():
    """x^3 + 1 = (x + 1)(x^2 + x + 1) over GF(2), and x^2 = -1 modulo
    x^2 + 1 over GF(3)."""
    f2, f3 = field_make(2), field_make(3)
    assert poly_mulmod(f2, [1, 0, 0, 1], [1], (1, 1)) == [0]
    assert poly_mulmod(f2, [1, 1], [1, 1, 1], (1, 1, 0, 1)) == [0, 1, 0]
    assert poly_mulmod(f3, [0, 1], [0, 1], (1, 0, 1)) == [2, 0]
    assert poly_mulmod(f3, [2], [1], (1, 0, 1)) == [2, 0]


@pytest.mark.parametrize("p,e", [(17, 2), (7, 3), (2, 9), (5, 4), (3, 6),
                                 (2, 10)])
def test_field_axioms_sampled_at_the_table_limit(p, e):
    """289, 343, 512, 625, 729 and 1024, the largest fields below the
    former 1024 dense-table limit: sampled sums, differences, negatives,
    products and inverses match the references, and the field laws
    hold."""
    import random
    f = field_make(p, e)
    mul = field_reference.field_mul(p, e, f.modulus)
    rng = random.Random(f.q)
    for _ in range(3000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == _digitwise(p, e, lambda x, y: x + y, a, b)
        assert f.sub(a, b) == _digitwise(p, e, lambda x, y: x - y, a, b)
        assert f.neg(a) == _digitwise(p, e, lambda x: -x, a)
        assert f.mul(a, b) == mul(a, b)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0 and f.sub(f.add(a, b), b) == a
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1
