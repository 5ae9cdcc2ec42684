"""Exact arithmetic in GF(q) and the row kernels on matrices of rows.

Field elements are integer codes in [0, q).  For prime fields the code is
the residue itself; for GF(p^e) the code is the base-p digit vector of the
polynomial residue, least significant digit = constant term.  The modulus
is always the lexicographically least monic irreducible of degree e over
GF(p) (so GF(4) uses x^2+x+1), which makes every canonical form stable
across runs.

Polynomials over any field have one routine each: poly_mulmod (product,
or with b = [1] remainder, modulo a monic modulus), least_irreducible
(trial division), primitive_element (the least generator of GF(q)*) and
_coefficients (a code's digits, least significant first, as a
polynomial).  field_make takes its modulus from them, FieldSpec its
exp/log tables from the reductions of the primitive element g times x^i
(one fixed step times g, tabled per half code), and the spreads of
witness.py their GF(q^k) over GF(q).  Scalar arithmetic has two
regimes, fixed when the field is made: residues mod p for prime fields,
and exp/log with Zech logarithms for GF(p^e), O(q) memory at every q.

A matrix is a tuple of row tuples, as a subspace basis is: a group
element, a chart, a change of basis or its inverse acts on row vectors by
v -> v.g (vec_mat).  The row kernels take such rows directly: _rref_rows,
the one elimination (subspace.span_rows, kernel, mat_inverse); and
echelon_insert, which reduces one row against canonical rows as they
stand (meets at q > 2, and range meets at every q).  pk_rank ranks
0/1 rows over GF(2) (meets at q = 2): it packs each row into one int
itself, and the packed form lives nowhere else.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParamError

MAX_FIELD_ORDER = 2**61


_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p):
    """Deterministic Miller-Rabin over the prime bases 2..37: exact for
    every p below 318665857834031151167461 (the least strong pseudoprime
    to all twelve bases), so far beyond MAX_FIELD_ORDER."""
    if p < 2:
        return False
    for b in _WITNESS_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _WITNESS_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------------
# polynomials over a field: coefficient lists, c[i] = coefficient of x^i
# ----------------------------------------------------------------------

def poly_mulmod(field, a, b, modulus):
    """a * b mod a monic modulus of degree d, as d coefficients over field.

    a and b may have any length; with b = [1] this is a's remainder.  The
    product's terms of degree >= d are cleared from the top down through
    x^d = -(modulus below x^d).
    """
    add, sub, mul = field.add, field.sub, field.mul
    d = len(modulus) - 1
    out = [0] * max(d, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        if c:
            for i in range(d):
                if modulus[i]:
                    out[top - d + i] = sub(out[top - d + i],
                                           mul(c, modulus[i]))
    return out[:d]


def _coefficients(code, base, count):
    """The first count base-`base` digits of code, least significant first."""
    out = []
    for _ in range(count):
        code, x = divmod(code, base)
        out.append(x)
    return out


def least_irreducible(field, degree):
    """The lexicographically least monic irreducible of the given degree
    over field, as a coefficient tuple with the leading 1 included.

    Candidates run in the order of the integer code of their coefficients
    below the leading term, constant term least significant, which gives
    the usual conventions (x^2+x+1 for GF(4), x^3+x+1 for GF(8), x^2+1
    for GF(9)).  A candidate is irreducible when no monic polynomial of
    degree 1 to degree/2 leaves remainder zero.
    """
    q = field.q
    divisors = [_coefficients(code, q, d) + [1]
                for d in range(1, degree // 2 + 1) for code in range(q**d)]
    for code in range(q**degree):
        f = _coefficients(code, q, degree) + [1]
        if all(any(poly_mulmod(field, f, [1], g)) for g in divisors):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found (impossible)")


def _power(mul, a, n):
    x = 1
    while n:
        if n & 1:
            x = mul(x, a)
        a = mul(a, a)
        n >>= 1
    return x


def primitive_element(q, mul):
    """The least code a with a^((q-1)/r) != 1 for every prime r dividing
    q - 1: the least generator of GF(q)*, and 1 for GF(2).  The prime
    divisors come from trial division."""
    n, r, exponents = q - 1, 2, []
    while r * r <= n:
        if n % r == 0:
            exponents.append((q - 1) // r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        exponents.append((q - 1) // n)
    for a in range(1, q):
        if all(_power(mul, a, d) != 1 for d in exponents):
            return a
    raise RuntimeError(f"no generator of GF({q})* found (impossible)")


class FieldSpec:
    """GF(q) with q = p^e; all scalar arithmetic lives here, as add, sub,
    neg, mul and inv bound once when the field is made."""

    __slots__ = ("p", "e", "q", "modulus", "add", "sub", "neg", "mul", "inv")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus  # () for prime fields
        ops = _prime_ops(p) if e == 1 else _zech_ops(p, e, modulus)
        self.add, self.sub, self.neg, self.mul, self.inv = ops

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"GF({self.q})"


def _prime_ops(p):
    """add, sub, neg, mul, inv on the residues mod p."""
    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p)
    return ((lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p),
            (lambda a: -a % p), (lambda a, b: a * b % p), inv)


def _zech_tables(p, e, modulus):
    """The exp, log and Zech tables of GF(p^e) for _zech_ops.

    exp runs over the powers of the primitive element g by one fixed step
    times g.  A code splits into its high e - e//2 and low e//2 digits;
    the products by g of every half (sums of the reductions of g.x^i,
    added digit vector by digit vector) are tabled once, cut into pieces
    of w = max(1, e//2) digits, and the step adds the two halves' products
    piece by piece through one add table of w-digit codes, of p^(2w) <= q
    entries.  zech[n] = log(1 + g^n): adding 1 to a code changes only its
    constant digit; the entry is None where g^n = -1, whose code is p - 1.
    exp and zech run over two periods, so every index that _zech_ops forms
    stays in range.
    """
    q, h, w = p**e, e // 2, max(1, e // 2)
    low, width = p**h, p**w
    base = field_make(p)

    def code(v):
        return sum(d * p**i for i, d in enumerate(v))

    def poly_mul(a, b):
        return code(poly_mulmod(base, _coefficients(a, p, e),
                                _coefficients(b, p, e), modulus))

    def pieces(v):  # the w-digit pieces of a digit vector, top one first
        return tuple(code(v[i:i + w]) for i in range(0, e, w))[::-1]

    g = _coefficients(primitive_element(q, poly_mul), p, e)
    reduced = [poly_mulmod(base, [0] * i + g, [1], modulus) for i in range(e)]
    times = []  # per half, the pieces of its products by g in code order
    for digits in (range(h), range(h, e)):
        sums = [[0] * e]
        for i in digits:
            sums = [[base.add(x, base.mul(c, y))
                     for x, y in zip(s, reduced[i])]
                    for c in range(p) for s in sums]
        times.append(list(map(pieces, sums)))
    times_low, times_high = times
    add = [[0]]  # add[a][b]: the digit-wise sum of the w-digit codes a, b
    for _ in range(w):
        add = [[s * p + (i + j) % p for s in row for j in range(p)]
               for row in add for i in range(p)]
    log = [0] * q
    exp = [0] * (2 * (q - 1))
    c = 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = c
        log[c] = i
        hi, lo = divmod(c, low)
        c = 0
        for x, y in zip(times_high[hi], times_low[lo]):
            c = c * width + add[x][y]
    zech = [None] * (2 * (q - 1))
    for n in range(q - 1):
        c = exp[n]
        c = c - c % p + (c + 1) % p
        if c:
            zech[n] = zech[n + q - 1] = log[c]
    return exp, log, zech


def _zech_ops(p, e, modulus):
    """add, sub, neg, mul, inv of GF(p^e) on exp/log and Zech tables
    (_zech_tables): a + b = g^(log a + zech[log b - log a]).  Negation
    multiplies by -1 = g^half: half = (q - 1)/2 at odd p, 0 at 2.
    """
    q = p**e
    exp, log, zech = _zech_tables(p, e, modulus)
    half = (q - 1) // 2 if p % 2 else 0

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z is None else exp[la + z]

    def sub(a, b):
        if not b:
            return a
        lb = log[b] + half
        if not a:
            return exp[lb]
        la = log[a]
        z = zech[lb - la]
        return 0 if z is None else exp[la + z]

    def neg(a):
        return exp[log[a] + half] if a else 0

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return exp[q - 1 - log[a]]
    return add, sub, neg, mul, inv


@lru_cache(maxsize=None)
def field_make(p, e=1):
    """Construct GF(p^e) with the deterministic modulus convention."""
    if not is_prime(p):
        raise ParamError(f"{p} is not prime")
    if e < 1:
        raise ParamError("extension degree must be >= 1")
    if p**e > MAX_FIELD_ORDER:
        raise ParamError("field order above configured bound 2^61")
    if e > 1 and p**e > 2**16:
        raise ParamError("extension fields above 2^16")
    modulus = () if e == 1 else least_irreducible(field_make(p), e)
    return FieldSpec(p, e, modulus)


# ----------------------------------------------------------------------
# matrices: tuples of row tuples
# ----------------------------------------------------------------------

def vec_mat(field, v, m):
    """Row vector times a matrix of rows, as a tuple."""
    mul, add = field.mul, field.add
    out = [0] * len(m[0])
    for i, x in enumerate(v):
        if x:
            for j, y in enumerate(m[i]):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return tuple(out)


def _rref_rows(field, rows, ncols):
    """In-place elimination; returns (rref row list, pivot columns)."""
    rows = [list(r) for r in rows]
    mul, add, sub, inv = field.mul, field.add, field.sub, field.inv
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            ipv = inv(pv)
            rows[r] = [mul(ipv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                ri = rows[i]
                if coef == 1:
                    for j in range(c, ncols):
                        if prow[j]:
                            ri[j] = sub(ri[j], prow[j])
                else:
                    for j in range(c, ncols):
                        if prow[j]:
                            ri[j] = sub(ri[j], mul(coef, prow[j]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def echelon_insert(field, echelon, row):
    """Reduce row against an echelon and keep the remainder if nonzero.

    echelon is a list of (pivot, row) pairs in insertion order: each row
    has its first nonzero entry, a 1, at its pivot and is zero at the
    pivots of the rows before it (a canonical basis in order qualifies).
    Subtracting the rows in that order clears every pivot column, and a
    nonzero combination of the rows is nonzero at some pivot, so the
    remainder is zero exactly when row lies in their span.  Otherwise the
    normalised remainder is appended and True returned.
    """
    mul, sub = field.mul, field.sub
    v = list(row)
    for p, prow in echelon:
        c = v[p]
        if c:
            for j in range(p, len(v)):
                x = prow[j]
                if x:
                    v[j] = sub(v[j], mul(c, x))
    for p, x in enumerate(v):
        if x:
            if x != 1:
                ix = field.inv(x)
                v = [mul(ix, y) for y in v]
            echelon.append((p, v))
            return True
    return False


def kernel(field, rows, ncols):
    """Canonical (rref) rows of the right null space {v : M v^T = 0} of the
    matrix with the given rows and ncols columns."""
    red, pivots = _rref_rows(field, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in pivot_set:
            v = [0] * ncols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = field.neg(red[r][fc])
            basis.append(v)
    canon, _ = _rref_rows(field, basis, ncols)
    return tuple(map(tuple, canon))


def mat_inverse(field, m):
    """Inverse of a square matrix of rows; raises ValueError if it is
    singular."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of non-square matrix")
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(m)]
    red, pivots = _rref_rows(field, aug, 2 * n)
    if len(red) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(r[n:]) for r in red[:n])


# ----------------------------------------------------------------------
# GF(2) rank on packed rows
# ----------------------------------------------------------------------

def pk_rank(rows):
    """The rank over GF(2) of 0/1 rows.  Each row is packed into one int,
    a byte per entry (int.from_bytes), and reduced by XOR with the kept
    row of its leading bit until it is zero or its leading bit is new,
    when it is kept: kept rows have distinct leading bits, so they are
    independent.  The packed form never leaves this function."""
    kept = {}  # leading bit -> the kept row with it
    for r in rows:
        x = int.from_bytes(bytes(r), "big")
        while x:
            top = x.bit_length()
            if top not in kept:
                kept[top] = x
                break
            x ^= kept[top]
    return len(kept)


def _integer_root(q, e):
    """floor(q^(1/e)) for q >= 1 by integer Newton steps from above."""
    r = 1 << -(-q.bit_length() // e)  # 2^ceil(bits/e) > q^(1/e)
    while True:
        s = ((e - 1) * r + q // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def factor_prime_power(q):
    """(p, e) with q = p^e, p prime; ParamError for anything else.  Per
    exponent e the exact integer e-th root r is the only candidate, and
    p^e = q has at most one solution, so no trial division runs."""
    for e in range(1, q.bit_length() if q > 1 else 0):
        r = _integer_root(q, e)
        if r ** e == q and is_prime(r):
            return r, e
    raise ParamError("not a prime power")
