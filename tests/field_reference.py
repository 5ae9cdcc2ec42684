"""Reference kernels that the package's field construction is checked
against.

These are the GF(p) polynomial routines glgeom.gfq used before its one
product-mod routine over an arbitrary field: multiply, then divide by the
modulus; irreducibility by trial division with that division; and the
least generator of GF(q)* by repeated multiplication.  They are kept as
independent oracles; nothing in the package calls them.  `rank_of_rows`,
the rank of a list of rows by the package's elimination, moved here
verbatim from glgeom.gfq, which no longer calls it.
"""

from glgeom.gfq import _rref_rows


def rank_of_rows(field, rows, ncols):
    """Rank of a list of row tuples."""
    return len(_rref_rows(field, rows, ncols)[0])


def poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def poly_mul_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod_p(a, b, p):
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
        a = poly_trim(a)
    return q, a


def digits(code, p, e):
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return out


def is_irreducible(coeffs, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            _, rem = poly_divmod_p(list(coeffs), digits(code, p, d) + [1], p)
            if not rem:
                return False
    return True


def least_irreducible(p, e):
    """Lexicographically least monic irreducible of degree e over GF(p),
    ordered by the integer code of the coefficients below x^e."""
    for code in range(p**e):
        coeffs = digits(code, p, e) + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found (impossible)")


def field_mul(p, e, modulus):
    """Multiplication of GF(p^e) codes: the product of the digit
    polynomials, then its remainder by the modulus."""
    def mul(a, b):
        prod = poly_mul_p(poly_trim(digits(a, p, e)),
                          poly_trim(digits(b, p, e)), p)
        rem = poly_divmod_p(prod, list(modulus), p)[1] if prod else []
        c = 0
        for d in reversed(rem):
            c = c * p + d
        return c
    return mul if e > 1 else (lambda a, b: a * b % p)


def least_generator(q, mul):
    """The least a >= 2 whose powers reach 1 only after q - 1 steps; 1 in
    GF(2)."""
    for a in range(2, q):
        x, order = a, 1
        while x != 1:
            x = mul(x, a)
            order += 1
        if order == q - 1:
            return a
    return 1
