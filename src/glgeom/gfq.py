"""Exact arithmetic in GF(q) and the dense matrix kernel.

Field elements are integer codes in [0, q).  For prime fields the code is
the residue itself; for GF(p^e) the code is the base-p digit vector of the
polynomial residue, least significant digit = constant term.  The modulus
is always the lexicographically least monic irreducible of degree e over
GF(p) (so GF(4) uses x^2+x+1), which makes every canonical form stable
across runs.

Mat is an immutable row-major matrix, for matrices in their own right:
group elements, charts, changes of basis and their inverses.  A subspace
is not a Mat: subspace.Subspace keeps its canonical rows as plain tuples,
which the row kernels here take directly: _rref_rows, the one elimination
(span_rows, kernel, mat_inverse); echelon_insert, which reduces one row
against canonical rows as they stand (meets and containment at q > 2,
complements); and rank_of_rows, the rank of a stack of rows (the
oracle's chart test, and the reference the meet is tested against).
GF(2) additionally gets a packed representation (one int bitmask per row,
bit j = column j) used by the enumeration-heavy callers; the two
representations agree bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParamError

MAX_FIELD_ORDER = 2**61
_TABLE_LIMIT = 1024  # full add/mul tables up to this order


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
# polynomial helpers over GF(p), coefficient lists with c[i] = coeff of x^i
# ----------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mulmod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod_p(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[da] == 0:
            a.pop()
            continue
        coef = (a[da] * inv_lb) % p
        q[da - db] = coef
        for i, bi in enumerate(b):
            a[da - db + i] = (a[da - db + i] - coef * bi) % p
        a = _poly_trim(a)
    return q, a


def _is_irreducible(coeffs, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            low, c = [], code
            for _ in range(d):
                low.append(c % p)
                c //= p
            div = low + [1]
            _, rem = _poly_divmod_p(list(coeffs), div, p)
            if not rem:
                return False
    return True


def _least_irreducible(p, e):
    """Lexicographically least monic irreducible of degree e over GF(p).

    Ordering is by the integer code of the low-degree coefficient vector,
    which reproduces the usual conventions (x^2+x+1 for GF(4), x^3+x+1
    for GF(8), x^2+1 for GF(9)).
    """
    for code in range(p**e):
        low, c = [], code
        for _ in range(e):
            low.append(c % p)
            c //= p
        coeffs = low + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found (impossible)")


class FieldSpec:
    """GF(q) with q = p^e; all scalar arithmetic lives here."""

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_inv", "_neg",
                 "_log", "_exp")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus  # () for prime fields
        self._add = self._mul = self._inv = self._neg = None
        self._log = self._exp = None
        if e > 1:
            self._build_tables()

    # -- element codes <-> coefficient vectors --------------------------

    def _vec(self, code):
        p, e = self.p, self.e
        out = []
        for _ in range(e):
            out.append(code % p)
            code //= p
        return out

    def _code(self, vec):
        c = 0
        for d in reversed(vec):
            c = c * self.p + d
        return c

    def _mul_vecs(self, va, vb):
        """Residue multiplication on digit vectors (table-free)."""
        p, e = self.p, self.e
        prod = _poly_mulmod_p(_poly_trim(list(va)), _poly_trim(list(vb)), p)
        if prod:
            _, rem = _poly_divmod_p(prod, list(self.modulus), p)
        else:
            rem = []
        rem = rem + [0] * (e - len(rem))
        return self._code(rem[:e])

    def _build_log_tables(self):
        """log/antilog multiplication for table-limit < q <= 2^16."""
        q = self.q
        # find a multiplicative generator by order check
        order_target = q - 1
        gen = None
        for a in range(2, q):
            x, order = a, 1
            va = self._vec(a)
            vx = list(va)
            while self._code(vx) != 1:
                vx = self._vec(self._mul_vecs(vx, va))
                order += 1
                if order > order_target:
                    break
            if order == order_target:
                gen = a
                break
        if gen is None:
            raise RuntimeError(f"no multiplicative generator of GF({q}) found")
        log = [0] * q
        exp = [0] * (2 * order_target)
        x = 1
        vg = self._vec(gen)
        for i in range(order_target):
            exp[i] = x
            exp[i + order_target] = x
            log[x] = i
            x = self._mul_vecs(self._vec(x), vg)
        self._log, self._exp = log, exp

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        if q > _TABLE_LIMIT:
            self._build_log_tables()
            return
        mod = list(self.modulus)
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        vecs = [self._vec(c) for c in range(q)]
        for a in range(q):
            va = vecs[a]
            for b in range(a, q):
                vb = vecs[b]
                s = self._code([(x + y) % p for x, y in zip(va, vb)])
                add[a][b] = s
                add[b][a] = s
                prod = _poly_mulmod_p(_poly_trim(va), _poly_trim(vb), p)
                _, rem = _poly_divmod_p(prod, mod, p) if prod else ([], [])
                rem = rem + [0] * (e - len(rem))
                m = self._code(rem[:e])
                mul[a][b] = m
                mul[b][a] = m
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        neg = [0] * q
        for a in range(q):
            neg[a] = self._code([(-x) % p for x in vecs[a]])
        self._add, self._mul, self._inv, self._neg = add, mul, inv, neg

    # -- scalar operations ----------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self._add is not None:
            return self._add[a][b]
        p = self.p
        return self._code([(x + y) % p
                           for x, y in zip(self._vec(a), self._vec(b))])

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        if self._add is not None:
            return self._add[a][self._neg[b]]
        p = self.p
        return self._code([(x - y) % p
                           for x, y in zip(self._vec(a), self._vec(b))])

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self._neg is not None:
            return self._neg[a]
        return self._code([(-x) % self.p for x in self._vec(a)])

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if self._mul is not None:
            return self._mul[a][b]
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv is not None:
            return self._inv[a]
        return self._exp[(self.q - 1) - self._log[a]]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"GF({self.q})"


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
    modulus = () if e == 1 else _least_irreducible(p, e)
    return FieldSpec(p, e, modulus)


def extension_modulus(field, degree):
    """Lex-least monic irreducible of the given degree over an arbitrary GF(q).

    Returned as a coefficient tuple over `field` (constant term first, the
    leading 1 included).  Used to build GF(q^k) for spread constructions.
    """
    q = field.q
    mul, add = field.mul, field.add

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = add(out[i + j], mul(ai, bj))
        while out and out[-1] == 0:
            out.pop()
        return out

    def poly_mod(a, b):
        a = list(a)
        db = len(b) - 1
        inv_lb = field.inv(b[-1])
        while len(a) - 1 >= db and any(a):
            da = len(a) - 1
            if a[da] == 0:
                a.pop()
                continue
            coef = mul(a[da], inv_lb)
            for i, bi in enumerate(b):
                a[da - db + i] = field.sub(a[da - db + i], mul(coef, bi))
            while a and a[-1] == 0:
                a.pop()
        return a

    def irreducible(coeffs):
        deg = len(coeffs) - 1
        for d in range(1, deg // 2 + 1):
            for code in range(q**d):
                low, c = [], code
                for _ in range(d):
                    low.append(c % q)
                    c //= q
                div = low + [1]
                if not poly_mod(list(coeffs), div):
                    return False
        return True

    for code in range(q**degree):
        low, c = [], code
        for _ in range(degree):
            low.append(c % q)
            c //= q
        coeffs = low + [1]
        if irreducible(coeffs):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found (impossible)")


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

class Mat:
    """Immutable row-major matrix over a FieldSpec.

    Entries are checked to be field codes in equal-length rows, except
    with _trusted=True, which is passed only for rows that are such by
    construction: elimination output, unit rows, the rows of another Mat
    or of a Subspace.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries, cols=None, _trusted=False):
        entries = tuple(tuple(r) for r in entries)
        self.field = field
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else (cols or 0)
        if not _trusted:
            for r in entries:
                if len(r) != self.cols:
                    raise ValueError("ragged rows")
                for x in r:
                    if not (0 <= x < field.q):
                        raise ValueError(f"entry {x} out of range for {field}")
        self.entries = entries

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.entries == other.entries
                and (self.rows, self.cols) == (other.rows, other.cols))

    def __hash__(self):
        return hash((self.field.q, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols})"


def mat_identity(field, n):
    return Mat(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    f = a.field
    mul, add = f.mul, f.add
    bt = b.entries
    out = []
    for ra in a.entries:
        row = [0] * b.cols
        for i, x in enumerate(ra):
            if x:
                bi = bt[i]
                if x == 1:
                    for j, y in enumerate(bi):
                        if y:
                            row[j] = add(row[j], y)
                else:
                    for j, y in enumerate(bi):
                        if y:
                            row[j] = add(row[j], mul(x, y))
        out.append(row)
    return Mat(f, out)


def vec_mat(v, m):
    """Row vector times matrix."""
    f = m.field
    mul, add = f.mul, f.add
    out = [0] * m.cols
    for i, x in enumerate(v):
        if x:
            mi = m.entries[i]
            if x == 1:
                for j, y in enumerate(mi):
                    if y:
                        out[j] = add(out[j], y)
            else:
                for j, y in enumerate(mi):
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


def rref(m):
    """Reduced row echelon form: returns (R, rank, pivots).

    R keeps the original row count (zero rows trail); rank = number of
    nonzero rows; pivot columns strictly increase.
    """
    red, pivots = _rref_rows(m.field, m.entries, m.cols)
    rank = len(red)
    full = red + [[0] * m.cols for _ in range(m.rows - rank)]
    return Mat(m.field, full, cols=m.cols, _trusted=True), rank, pivots


def mat_rank(m):
    return len(_rref_rows(m.field, m.entries, m.cols)[0])


def rank_of_rows(field, rows, ncols):
    """Rank of a list of row tuples, no Mat construction."""
    return len(_rref_rows(field, rows, ncols)[0])


def kernel(m):
    """Canonical (rref) basis of the right null space {v : M v^T = 0}."""
    f = m.field
    red, pivots = _rref_rows(f, m.entries, m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r][fc])
        basis.append(v)
    canon, _ = _rref_rows(f, basis, m.cols)
    return Mat(f, canon, cols=m.cols, _trusted=True)


def mat_inverse(m):
    """Inverse of a square matrix; raises ValueError if it is singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    f = m.field
    n = m.rows
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(m.entries)]
    red, pivots = _rref_rows(f, aug, 2 * n)
    if len(red) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat(f, [r[n:] for r in red[:n]])


# ----------------------------------------------------------------------
# packed GF(2) representation: a row is an int, bit j = column j
# ----------------------------------------------------------------------

def pack_rows(entries):
    out = []
    for row in entries:
        x = 0
        for j, v in enumerate(row):
            if v:
                x |= 1 << j
        out.append(x)
    return tuple(out)


def pk_rank(rows, ncols):
    rows = list(rows)
    r = 0
    for c in range(ncols):
        bit = 1 << c
        pr = None
        for i in range(r, len(rows)):
            if rows[i] & bit:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i] & bit:
                rows[i] ^= rows[r]
        r += 1
        if r == len(rows):
            break
    return r


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
