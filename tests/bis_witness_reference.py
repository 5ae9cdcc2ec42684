"""Reference construction that the package's bisection witness is checked
against.

`bis_witness` is the construction glgeom.witness used before it wrote each
regime down as column index data: the regimes of bis_collinear_witness
reached their rows through complements, projections, sums and direct sums
of coordinate subspaces, checked diagonal pairs and avoiding splits, and
the two q = 2 own-pair builds were transported onto the canonical pair by
an explicit change of basis.  It is kept verbatim as an independent
oracle, with copies of the helpers it calls that the package no longer
has (the old `diagonal_pair`, `project_onto` and `canonical_pieces`, whose
pieces the package now gives only as column ranges; `direct_sum` comes
from tests/proj_witness_reference.py, and `complement`, `transport_pair`
and the action on bisections from tests/lattice_reference.py, with
matrices as tuples of rows); `bis_witness` is the
dispatch of bis_collinear_witness without its final verification.
`incident_bis`, the bisection incidence by two rank-based meets, moved
here verbatim from glgeom.geometry as the reference for the point-mask
incidence.  Nothing in the package calls this file.
"""

from glgeom.errors import ParamError
from glgeom.gfq import mat_inverse, vec_mat
from glgeom.subspace import (Bisection, Subspace, canonical_pair,
                             coordinate_bisection, coordinate_subspace,
                             intersection_dim, span_rows)
from glgeom.witness import DiagonalPair, _NEAR_HALF_TABLE
from lattice_reference import (add_vecs, apply_bisection, complement,
                               full_space, transport_pair)
from proj_witness_reference import direct_sum, sum_subspace


def incident_bis(params, u, b):
    """True iff the intersection pattern of U with the halves is {k1,k2}."""
    if u.dim != params.m or u.n != params.n or b.n != params.n:
        raise ValueError("element dimensions do not match the geometry")
    d1 = intersection_dim(u, b.half1)
    d2 = intersection_dim(u, b.half2)
    if d1 > d2:
        d1, d2 = d2, d1
    return (d1, d2) == (params.k1, params.k2)


def canonical_pieces(field, n, m, t):
    """T = U1 meet U2, C1, C2 and C of the canonical pair, as coordinate
    subspaces: <e_{m-t+1}..e_m>, <e_1..e_{m-t}>, <e_{m+1}..e_{2m-t}> and
    <e_{2m-t+1}..e_n>."""
    return (coordinate_subspace(field, n, range(m - t, m)),
            coordinate_subspace(field, n, range(m - t)),
            coordinate_subspace(field, n, range(m, 2 * m - t)),
            coordinate_subspace(field, n, range(2 * m - t, n)))


def _check(ok, what):
    """An internal consistency check that, unlike assert, survives
    python -O; a failure means a construction does not cover this case."""
    if not ok:
        raise RuntimeError(what)


def maximal_diagonal(a, b):
    """<a_i + b_i> over the shorter of the two stored bases."""
    field, n = a.field, a.n
    rows = [add_vecs(field, x, y) for x, y in zip(a.rows(), b.rows())]
    return span_rows(field, n, rows)


def diagonal_pair(y1, y2, r):
    """Two disjoint diagonal r-subspaces of Y1 (+) Y2.

    Exists iff (max(dim Y1, dim Y2), q) != (1, 2); for q = 2 the second
    subspace shifts the second index, with a corrected first vector when
    r equals both dimensions.
    """
    field = y1.field
    q = field.q
    if intersection_dim(y1, y2) != 0:
        raise ParamError("Y1 and Y2 must be disjoint")
    if not (1 <= r <= min(y1.dim, y2.dim)):
        raise ParamError("need 1 <= r <= min(dim Y1, dim Y2)")
    if (max(y1.dim, y2.dim), q) == (1, 2):
        raise ParamError("a unique diagonal line exists; no disjoint pair")
    a, b = (y1, y2) if y1.dim <= y2.dim else (y2, y1)
    es, fs = a.rows(), b.rows()
    add = lambda u, v: add_vecs(field, u, v)
    z1 = span_rows(field, a.n, [add(es[i], fs[i]) for i in range(r)])
    if q > 2:
        scalar = 2  # a fixed element outside {0, 1}
        z2_rows = [add(es[i], tuple(field.mul(scalar, x) for x in fs[i]))
                   for i in range(r)]
    else:
        y2dim = len(fs)
        if r == len(es) == y2dim:
            first = add(es[r - 1], add(fs[0], fs[1]))
            z2_rows = [first] + [add(es[i], fs[i + 1]) for i in range(r - 1)]
        else:
            z2_rows = [add(es[i], fs[(i + 1) % y2dim]) for i in range(r)]
    z2 = span_rows(field, a.n, z2_rows)
    pair = DiagonalPair(z1, z2, y1, y2)
    if not pair.verify():
        raise RuntimeError("diagonal pair construction failed to verify")
    return pair


def project_onto(u, b, c):
    """Image of U under the projection V = B (+) C -> C.

    B and C must be complementary subspaces of the full ambient space.
    """
    field, n = u.field, u.n
    rows = b.basis + c.basis
    if len(rows) != n:
        raise ValueError("B and C do not decompose the ambient space")
    s = mat_inverse(field, rows)
    nb = b.dim
    out = []
    for v in u.basis:
        coords = vec_mat(field, v, s)
        w = [0] * n
        for i in range(nb, n):
            ci = coords[i]
            if ci:
                for j, x in enumerate(rows[i]):
                    if x:
                        w[j] = field.add(w[j], field.mul(ci, x))
        out.append(tuple(w))
    return span_rows(field, n, out)


def _span_slice(space, a, b=None):
    """The span of a run of space's canonical rows: rows taken from an
    rref basis are the rref basis of their span, so none is eliminated."""
    return Subspace(space.field, space.n, space.rows()[a:b])


def _graph_rows(field, dom_rows, target_rows):
    """Rows w_i + z_i pairing a domain basis with distinct target rows."""
    _check(len(dom_rows) <= len(target_rows), "graph: too few target rows")
    return [add_vecs(field, w, z) for w, z in zip(dom_rows, target_rows)]


def complementary_pair_avoiding(ambient, x1, x2, d1, d2):
    """(A1, A2) with ambient = A1 (+) A2, dims (d1, d2), both disjoint
    from the disjoint equal-dimensional subspaces X1, X2 of ambient."""
    field, n = ambient.field, ambient.n
    q = field.q
    d = x1.dim
    if x2.dim != d or d1 + d2 != ambient.dim or d > min(d1, d2):
        raise ParamError("dimension bookkeeping failed")
    if d == 0:
        return _span_slice(ambient, 0, d1), _span_slice(ambient, d1)
    x = direct_sum([x1, x2])
    c = complement(x, ambient)
    if (d, q) != (1, 2):
        dp = diagonal_pair(x1, x2, d)
        cr = c.rows()
        a1 = direct_sum([dp.z1, Subspace(field, n, cr[:d1 - d])])
        a2 = direct_sum([dp.z2, Subspace(field, n, cr[d1 - d:])])
    else:
        if ambient.dim == 2:
            raise RuntimeError("no avoiding split of a 2-dimensional space "
                               "over GF(2)")
        v1, v2 = x1.rows()[0], x2.rows()[0]
        cr = c.rows()
        mixed = [add_vecs(field, v1, v2), add_vecs(field, v1, cr[0])]
        if d2 >= 2:
            a1 = Subspace(field, n, cr[:d1])
            a2 = span_rows(field, n, mixed + list(cr[d1:]))
        else:
            a2 = Subspace(field, n, cr[:d2])
            a1 = span_rows(field, n, mixed + list(cr[d2:]))
    _assert_avoiding(ambient, x1, x2, a1, a2, d1, d2)
    return a1, a2


def _assert_avoiding(ambient, x1, x2, a1, a2, d1, d2):
    ok = (a1.dim == d1 and a2.dim == d2
          and intersection_dim(a1, a2) == 0
          and all(intersection_dim(a, x) == 0
                  for a in (a1, a2) for x in (x1, x2)))
    if not ok:
        raise RuntimeError("avoiding split failed verification")



def bis_witness(params, t):
    """bis_collinear_witness's regime dispatch, unverified: the caller has
    checked m <= k, 0 <= t < m and the predicate."""
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    if (k1, k2) == (0, 0):
        return _disjoint_pattern_witness(params, t)
    elif q == 2 and k1 == 0 and m == k and k2 == k - 1 and t >= 1:
        return near_half_table_bisection(field, k, t)
    elif t <= k1:
        return _small_overlap_witness(params, t)
    elif t <= 2 * k1:
        return _mid_overlap_witness(params, t)
    elif t <= m + k1 - k2:
        return _balanced_overlap_witness(params, t)
    elif t <= k2:
        return _deep_overlap_graph_witness(params, t)
    elif t >= k1 + k2:
        return _deep_overlap_wide_witness(params, t)
    else:
        return _deep_overlap_narrow_witness(params, t)



# -- pattern (0,0): both halves disjoint from both subspaces -------------

def _disjoint_pattern_witness(params, t):
    field = params.field
    q, m, k = field.q, params.m, params.k
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, p1, p2, c = canonical_pieces(field, n, m, t)
    a_fail = (q == 2 and m - t == 1)
    b_fail = (q == 2 and k - m + t == 1)
    cr = c.rows()
    if not a_fail and not b_fail:
        c1 = span_rows(field, n, list(tt.rows()) + list(cr[:k - m]))
        c2 = Subspace(field, n, cr[k - m:])
        dp = diagonal_pair(p1, p2, m - t)
        if k - m + t > 0:
            ep = diagonal_pair(c1, c2, k - m + t)
            v1 = direct_sum([dp.z1, ep.z1])
            v2 = direct_sum([dp.z2, ep.z2])
        else:
            v1, v2 = dp.z1, dp.z2
        return Bisection(v1, v2)
    if a_fail:
        c3 = Subspace(field, n, cr[:k - m + t])
        c4 = Subspace(field, n, cr[k - m + t:])
        if m <= k - 1:
            d1 = maximal_diagonal(p1, p2)
            v1 = direct_sum([d1, c3]) if c3.dim else d1
            d2 = maximal_diagonal(u2, c3)
            v2 = direct_sum([d2, c4]) if c4.dim else d2
            return Bisection(v1, v2)
        w1, w2, b = _own_pair_high_overlap(field, k)
    elif m == k - 1 and t == 0:  # b_fail only
        c3 = Subspace(field, n, cr[:1])
        c4 = Subspace(field, n, cr[1:])
        dp = diagonal_pair(p1, p2, m)
        v1 = direct_sum([dp.z1, c3])
        v2 = direct_sum([dp.z2, c4])
        return Bisection(v1, v2)
    else:  # b_fail only, m == k, t == 1, k >= 3
        w1, w2, b = _own_pair_low_overlap(field, k)
    return apply_bisection(b, transport_pair(w1, w2, u1, u2))


def _own_pair_high_overlap(field, k):
    """q=2, m=k, overlap k-1: a diagonal pair against the coordinate bisection."""
    n = 2 * k
    b = coordinate_bisection(field, k)
    diag = [tuple(1 if j in (i, k + i) else 0 for j in range(n)) for i in range(k)]
    u1 = span_rows(field, n, diag)
    last = list(diag[k - 1])
    last[0] = 1  # u + v with v the V1-projection of the first overlap vector
    u2 = span_rows(field, n, diag[:k - 1] + [tuple(last)])
    return u1, u2, b


def _own_pair_low_overlap(field, k):
    """q=2, m=k >= 3, overlap 1: two maximal diagonals sharing one line."""
    n = 2 * k
    b = coordinate_bisection(field, k)
    diag = [tuple(1 if j in (i, k + i) else 0 for j in range(n)) for i in range(k)]
    u1 = span_rows(field, n, diag)
    v1p = coordinate_subspace(field, n, range(1, k))
    v2p = coordinate_subspace(field, n, range(k + 1, n))
    dp = diagonal_pair(v1p, v2p, k - 1)
    u2 = direct_sum([dp.z2, span_rows(field, n, [diag[0]])])
    return u1, u2, b



def near_half_table_bisection(field, k, t):
    """The tabulated bisection for q=2, m=k, pattern (0, k-1), overlap t."""
    if field.q != 2 or (k, t) not in _NEAR_HALF_TABLE:
        raise ParamError("no tabulated bisection here")
    n = 2 * k
    v1_ix, v2_ix = _NEAR_HALF_TABLE[(k, t)]

    def rows_from(ixs):
        out = []
        for combo in ixs:
            v = [0] * n
            for i in combo:
                v[i - 1] = 1
            out.append(tuple(v))
        return out

    return Bisection(span_rows(field, n, rows_from(v1_ix)),
                     span_rows(field, n, rows_from(v2_ix)))


def _small_case_witness(params, t):
    """q=2, k1=0, k2=k-1-t, m=k: one half absorbs most of each subspace."""
    field, m, k, k2 = params.field, params.m, params.k, params.k2
    n = 2 * k
    tt, c1, c2, c = canonical_pieces(field, n, m, t)
    x1, ub1 = c1.rows()[0], _span_slice(c1, 1)
    x2, ub2 = c2.rows()[0], _span_slice(c2, 1)
    d1 = add_vecs(field, x1, ub2.rows()[0])
    d2 = add_vecs(field, x1, x2)
    d3 = [add_vecs(field, cv, tv) for cv, tv in zip(c.rows(), tt.rows())]
    v1 = span_rows(field, n, list(ub1.rows()) + [d1] + d3)
    v2 = span_rows(field, n, list(ub2.rows()) + [d2] + list(c.rows()))
    _check(v1.dim == k and v2.dim == k, "small-case dimensions off")
    return Bisection(v1, v2)


# -- overlap t <= k1 ------------------------------------------------------

def _small_overlap_witness(params, t):
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, c1, c2, _ = canonical_pieces(field, n, m, t)
    r1, r2 = c1.rows(), c2.rows()
    u12 = span_rows(field, n, list(tt.rows()) + list(r1[:k1 - t]))
    u22 = span_rows(field, n, list(tt.rows()) + list(r2[:k2 - t]))
    u11 = Subspace(field, n, r1[k1 - t:k1 - t + k2])
    u21 = Subspace(field, n, r2[k2 - t:k2 - t + k1])
    b1 = direct_sum([u11, u21]) if u21.dim else u11
    b2 = sum_subspace(u12, u22)
    _check(b2.dim == k1 + k2 - t, "small overlap: dim B2 off")
    ball = sum_subspace(b1, b2)
    _check(ball.dim == 2 * (k1 + k2) - t, "small overlap: dim B off")
    dim_vbar = n - ball.dim
    mbar = m - k1 - k2
    if q == 2 and dim_vbar == 2 and mbar == 1:
        # forced: t = 0 and m = k = k1 + k2 + 1
        if k1 > 0:
            e1 = complement(direct_sum([u11, u12]), u1).rows()[0]
            e2 = complement(direct_sum([u21, u22]), u2).rows()[0]
            f1 = u11.rows()[0]
            f2 = u21.rows()[0]
            v1 = direct_sum([b1, span_rows(field, n, [add_vecs(field, e1, e2)])])
            mix = add_vecs(field, add_vecs(field, e1, f1), f2)
            v2 = direct_sum([b2, span_rows(field, n, [mix])])
            return Bisection(v1, v2)
        return _small_case_witness(params, t)
    vbar = complement(ball, full_space(field, n))
    d1, d2 = k - k1 - k2, k - k1 - k2 + t
    if mbar == 0:
        a1, a2 = _span_slice(vbar, 0, d1), _span_slice(vbar, d1)
    else:
        ub1 = project_onto(u1, ball, vbar)
        ub2 = project_onto(u2, ball, vbar)
        _check(ub1.dim == mbar and ub2.dim == mbar,
               "small overlap: projected dimensions off")
        _check(intersection_dim(ub1, ub2) == 0,
               "small overlap: projections meet")
        a1, a2 = complementary_pair_avoiding(vbar, ub1, ub2, d1, d2)
    v1 = direct_sum([b1, a1]) if a1.dim else b1
    v2 = direct_sum([b2, a2]) if a2.dim else b2
    return Bisection(v1, v2)


# -- overlap k1 < t <= 2 k1 ----------------------------------------------

def _mid_overlap_witness(params, t):
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, c1, c2, _ = canonical_pieces(field, n, m, t)
    tr = tt.rows()
    u12 = Subspace(field, n, tr[:k1])
    r2 = c2.rows()
    u22 = span_rows(field, n, list(u12.rows()) + list(r2[:k2 - k1]))
    s = complement(u12, tt)  # (t - k1)-dimensional
    r1 = c1.rows()
    u11 = span_rows(field, n, list(s.rows()) + list(r1[:k2 - (t - k1)]))
    u21 = span_rows(field, n,
                    list(s.rows()) + list(r2[k2 - k1:k2 - k1 + (2 * k1 - t)]))
    b1 = sum_subspace(u11, u21)
    _check(b1.dim == 2 * k1 + k2 - t, "mid overlap: dim B1 off")
    b2 = u22
    ball = sum_subspace(b1, b2)
    _check(ball.dim == 2 * (k1 + k2) - t, "mid overlap: dim B off")
    mbar = m - k1 - k2
    if q == 2 and n - ball.dim == 2 and mbar == 1:
        raise RuntimeError("impossible tight configuration reached")
    vbar = complement(ball, full_space(field, n))
    d1, d2 = k - 2 * k1 - k2 + t, k - k2
    if mbar == 0:
        a1, a2 = _span_slice(vbar, 0, d1), _span_slice(vbar, d1)
    else:
        ub1 = project_onto(u1, ball, vbar)
        ub2 = project_onto(u2, ball, vbar)
        a1, a2 = complementary_pair_avoiding(vbar, ub1, ub2, d1, d2)
    v1 = direct_sum([b1, a1]) if a1.dim else b1
    v2 = direct_sum([b2, a2]) if a2.dim else b2
    return Bisection(v1, v2)


# -- overlap 2 k1 < t <= m + k1 - k2 --------------------------------------

def _balanced_overlap_witness(params, t):
    field = params.field
    q, m, k, k1, k2 = field.q, params.m, params.k, params.k1, params.k2
    n = 2 * k
    u1, u2 = canonical_pair(field, n, m, t)
    tt, c1, c2, _ = canonical_pieces(field, n, m, t)
    tr = tt.rows()
    u11 = Subspace(field, n, tr[:k1])
    u22 = Subspace(field, n, tr[k1:2 * k1])
    u12 = span_rows(field, n, list(u22.rows()) + list(c1.rows()[:k2 - k1]))
    u21 = span_rows(field, n, list(u11.rows()) + list(c2.rows()[:k2 - k1]))
    t3 = Subspace(field, n, tr[2 * k1:])  # dim t - 2 k1
    core_parts = [p for p in (u12, u21, t3) if p.dim]
    core = direct_sum(core_parts)
    vbar = complement(core, full_space(field, n))
    mbar = m + k1 - k2 - t
    if mbar > 0:
        ub1 = project_onto(u1, core, vbar)
        ub2 = project_onto(u2, core, vbar)
        _check(ub1.dim == mbar and intersection_dim(ub1, ub2) == 0,
               "balanced overlap: projections off")
        ubar = direct_sum([ub1, ub2])
        rest = complement(ubar, vbar)
    else:
        ub1 = ub2 = None
        rest = vbar
    t1 = Subspace(field, n, rest.rows()[:t - 2 * k1])
    t2 = maximal_diagonal(t1, t3)
    after = Subspace(field, n, rest.rows()[t - 2 * k1:])
    half = k - m + k1
    s1 = _span_slice(after, 0, half)
    s2 = _span_slice(after, half, 2 * half)
    _check(after.dim == 2 * half, "balanced overlap: remainder dimension off")
    if mbar == 0:
        v1 = direct_sum([p for p in (u21, t1, s1) if p.dim])
        v2 = direct_sum([p for p in (u12, t2, s2) if p.dim])
        return Bisection(v1, v2)
    r = mbar + half
    if q == 2 and r == 1:
        # forced: m = k, k1 = 0, k2 = k - 1 - t with t >= 1
        return _small_case_witness(params, t)
    y1 = direct_sum([p for p in (ub1, s1) if p.dim])
    y2 = direct_sum([p for p in (ub2, s2) if p.dim])
    dp = diagonal_pair(y1, y2, r)
    v1 = direct_sum([p for p in (u21, t1, dp.z1) if p.dim])
    v2 = direct_sum([p for p in (u12, t2, dp.z2) if p.dim])
    return Bisection(v1, v2)


# -- overlap t > m + k1 - k2, t <= k2 (graph completion) ------------------

def _deep_overlap_graph_witness(params, t):
    field = params.field
    m, k, k1, k2 = params.m, params.k, params.k1, params.k2
    n = 2 * k
    tt, c1, c2, cc = canonical_pieces(field, n, m, t)
    v21 = Subspace(field, n, c1.rows()[:k2 - t])
    ub1 = Subspace(field, n, c1.rows()[k2 - t:])
    v22 = Subspace(field, n, c2.rows()[:k2 - t])
    ub2 = Subspace(field, n, c2.rows()[k2 - t:])
    t2 = direct_sum([p for p in (v21, v22, tt) if p.dim])
    ccr = cc.rows()
    split = k + 2 * k2 - 2 * m
    cc1 = Subspace(field, n, ccr[:split])
    cc2 = Subspace(field, n, ccr[split:])
    v2 = direct_sum([p for p in (cc2, t2) if p.dim])
    v11_rows = list(ub1.rows()[:k1])
    v12_rows = list(ub2.rows()[:k1])
    w1_rows = list(ub1.rows()[k1:])
    w2_rows = list(ub2.rows()[k1:])
    targets1 = list(cc2.rows()) + list(v22.rows())
    targets2 = list(cc2.rows()) + list(v21.rows())
    rows = (v11_rows + v12_rows + list(cc1.rows())
            + _graph_rows(field, w1_rows, targets1)
            + _graph_rows(field, w2_rows, targets2))
    v1 = span_rows(field, n, rows)
    _check(v1.dim == k, "graph completion dimension off")
    return Bisection(v1, v2)


# -- overlap t > k2, t >= k1 + k2 -----------------------------------------

def _deep_split(params, t):
    field = params.field
    m, k, k2 = params.m, params.k, params.k2
    n = 2 * k
    tt, ub1, ub2, cc = canonical_pieces(field, n, m, t)
    tr = tt.rows()
    t13 = Subspace(field, n, tr[:t - k2])
    t2 = Subspace(field, n, tr[t - k2:])
    ccr = cc.rows()
    a, b = m - t, k - k2 - m + t
    cc1 = Subspace(field, n, ccr[:a])
    cc2 = Subspace(field, n, ccr[a:a + b])
    cc3 = Subspace(field, n, ccr[a + b:])
    v2 = direct_sum([p for p in (cc1, cc2, t2) if p.dim])
    return t13, t2, ub1, ub2, cc1, cc2, cc3, v2


def _t2_against_c3_rows(field, params, t, t2, cc3):
    m, k = params.m, params.k
    if k - 2 * m + t <= 0:
        return _graph_rows(field, list(cc3.rows()), list(t2.rows()))
    c3r = cc3.rows()
    c31 = list(c3r[:params.k2])
    c32 = list(c3r[params.k2:])
    return _graph_rows(field, c31, list(t2.rows())) + c32


def _deep_overlap_wide_witness(params, t):
    field = params.field
    k1 = params.k1
    n = 2 * params.k
    t13, t2, ub1, ub2, cc1, cc2, cc3, v2 = _deep_split(params, t)
    t1_rows = list(t13.rows()[:k1])
    t3_rows = list(t13.rows()[k1:])
    du1 = _graph_rows(field, list(ub1.rows()), list(cc1.rows()))
    du2 = _graph_rows(field, list(ub2.rows()), list(cc1.rows()))
    dt3 = _graph_rows(field, t3_rows, list(cc2.rows()))
    dt2 = _t2_against_c3_rows(field, params, t, t2, cc3)
    v1 = span_rows(field, n, t1_rows + du1 + du2 + dt2 + dt3)
    _check(v1.dim == params.k, "wide deep-overlap dimension off")
    return Bisection(v1, v2)


# -- overlap k2 < t < k1 + k2 ---------------------------------------------

def _deep_overlap_narrow_witness(params, t):
    field = params.field
    m, k, k1, k2 = params.m, params.k, params.k1, params.k2
    n = 2 * k
    t13, t2, ub1, ub2, cc1, cc2, cc3, v2 = _deep_split(params, t)
    v11_rows = list(ub1.rows()[:k1 + k2 - t])
    p1_rows = list(ub1.rows()[k1 + k2 - t:])
    v12_rows = list(ub2.rows()[:k1 + k2 - t])
    p2_rows = list(ub2.rows()[k1 + k2 - t:])
    p3 = [add_vecs(field, a, b) for a, b in zip(p1_rows, p2_rows)]
    cc12 = list(cc1.rows()) + list(cc2.rows())
    p4 = _graph_rows(field, p1_rows, cc12)
    dt2 = _t2_against_c3_rows(field, params, t, t2, cc3)
    v1 = span_rows(field, n,
                   v11_rows + v12_rows + list(t13.rows()) + dt2 + p3 + p4)
    _check(v1.dim == k, "narrow deep-overlap dimension off")
    return Bisection(v1, v2)
