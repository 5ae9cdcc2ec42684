"""Statements of the paper that the tests check and no verb reports.

`induction_step_check` runs the dimension-induction step for concurrent
completeness on sample quadruples (with `_quotient_avoider` and
`_default_quadruples`); `nondegeneracy_check` verifies the three
non-degeneracy conditions of a geometry by enumeration; and
`factor_bound_holds` checks one factor of H against 1 - 2 q^-i.
They moved here verbatim from glgeom.oracle, glgeom.geometry and
glgeom.counts, with their imports made absolute and the projective
incidence written as the meet dimension it tested; nothing in the package
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from glgeom.counts import bisection_count, gaussian
from glgeom.errors import ParamError, TooLargeError
from glgeom.geometry import ProjParams, mask_incident_bis
from glgeom.predicates import bis_concurrent_predicate
from glgeom.subspace import (Bisection, coordinate_subspace, grassmannian,
                             intersection_dim, point_masks, span_rows)
from glgeom.witness import desarguesian_spread, fifth_disjoint
from concurrent_reference import _disjoint_sorted, disjoint_pairs
from field_reference import rank_of_rows
from lattice_reference import (complement, contains_vector, full_space,
                               intersect, sorted_grassmannian, vectors)
from proj_witness_reference import sum_subspace


def _default_quadruples(k, field):
    """A deterministic sample: one pairwise-disjoint quadruple from the
    standard spread and one quadruple with a cross intersection."""
    n = 2 * k
    spread = desarguesian_spread(k, field)
    quads = [(Bisection(spread[0], spread[1]), Bisection(spread[2], spread[3]))]
    pi1 = coordinate_subspace(field, n, range(k))
    pi2 = coordinate_subspace(field, n, range(k, n))
    rows = [tuple(1 if j == k else 0 for j in range(n))]
    for i in range(k - 1):
        rows.append(tuple(1 if j in (i, k + 1 + i) else 0 for j in range(n)))
    pi1p = span_rows(field, n, rows)
    pi2p = complement(pi1p, full_space(field, n))
    quads.append((Bisection(pi1, pi2), Bisection(pi1p, pi2p)))
    return quads


def _quotient_avoider(k, field, pi1, pi2, pi1p, pi2p, budget):
    """The hyperplane/quotient construction: a k-space disjoint from all
    four when pi2 meets pi1p nontrivially.

    The existence argument leaves the line alpha, the hyperplane and the
    avoiding quotient subspace unconstrained, and not every combination
    extends, so all three choice points are searched in canonical order.
    """
    from glgeom.gfq import mat_inverse, vec_mat
    from glgeom.subspace import perp
    n = 2 * k
    cross = intersect(pi2, pi1p)
    steps = 0
    for alpha_vec in vectors(cross):
        if not any(alpha_vec):
            continue
        alpha = span_rows(field, n, [alpha_vec])
        big = sum_subspace(pi2, pi1p)
        # hyperplanes containing big = perps of nonzero vectors of big^perp
        for w in vectors(perp(big)):
            if not any(w):
                continue
            hyper = perp(span_rows(field, n, [w]))
            pi1s = intersect(pi1, hyper)
            pi2ps = intersect(pi2p, hyper)
            if pi1s.dim != k - 1 or pi2ps.dim != k - 1:
                continue
            q_part = complement(alpha, hyper)
            chart_rows = list(alpha.rows()) + list(q_part.rows())
            for cand in full_space(field, n).rows():
                if rank_of_rows(field, chart_rows + [cand], n) == n:
                    chart_rows.append(cand)
                    break
            chart_inv = mat_inverse(field, chart_rows)

            def to_quotient(space):
                out = []
                for v in space.rows():
                    coords = vec_mat(field, v, chart_inv)
                    if coords[-1] != 0:
                        raise RuntimeError("element not inside the hyperplane")
                    out.append(coords[1:-1])
                return span_rows(field, n - 2, out)

            images = [to_quotient(x) for x in (pi1s, pi2, pi1p, pi2ps)]
            from itertools import product as _product
            for tau_bar in grassmannian(n - 2, field, k - 1):
                steps += 1
                if steps > budget:
                    raise TooLargeError("quotient scan exceeded budget")
                if any(intersection_dim(tau_bar, im) for im in images):
                    continue
                lifted = [vec_mat(field, (0,) + tuple(v) + (0,), chart_rows)
                          for v in tau_bar.rows()]
                a0 = alpha.rows()[0]
                # every complement of alpha inside the preimage of tau_bar
                for shifts in _product(range(field.q), repeat=k - 1):
                    rows_tau = [
                        v if c == 0 else
                        tuple(field.add(x, field.mul(c, y))
                              for x, y in zip(v, a0))
                        for v, c in zip(lifted, shifts)]
                    tau = span_rows(field, n, rows_tau)
                    for v in vectors(full_space(field, n)):
                        if any(v) and not contains_vector(hyper, v):
                            sigma = span_rows(field, n,
                                              list(tau.rows()) + [v])
                            if all(intersection_dim(sigma, x) == 0
                                   for x in (pi1, pi2, pi1p, pi2p)):
                                return sigma
    raise RuntimeError("quotient construction exhausted for this quadruple")


def induction_step_check(k, field, quadruples=None, budget=10**7):
    """Operational check of the dimension-induction step for concurrency.

    For each quadruple of k-subspaces forming two bisections: if pairwise
    disjoint, a fifth disjoint subspace is produced directly; otherwise
    the quotient-by-a-line construction is run at dimension 2k-2.  True
    iff every tested quadruple yields a certified disjoint k-subspace.
    """
    q = field.q
    if k <= 2:
        return True  # the small dimensions are settled directly
    if quadruples is None:
        if bis_concurrent_predicate(q, k - 1, k - 1, 0, 0) != "complete":
            raise ParamError(
                f"concurrent completeness not established at k={k - 1}, q={q}")
        quadruples = _default_quadruples(k, field)
    for bis1, bis2 in quadruples:
        pi1, pi2 = bis1.halves()
        pi1p, pi2p = bis2.halves()
        crossing = [(a, b) for a in (pi1, pi2) for b in (pi1p, pi2p)
                    if intersection_dim(a, b) > 0]
        if not crossing:
            sigma = fifth_disjoint([pi1, pi2, pi1p, pi2p])
        else:
            a, b = crossing[0]
            pi2_, pi1_ = a, (pi1 if a is pi2 else pi2)
            pi1p_, pi2p_ = b, (pi1p if b is pi2p else pi2p)
            sigma = _quotient_avoider(k, field, pi1_, pi2_, pi1p_, pi2p_, budget)
        ok = all(intersection_dim(sigma, x) == 0
                 for x in (pi1, pi2, pi1p, pi2p))
        if not ok:
            return False
    return True


@dataclass
class NondegeneracyReport:
    ok: bool
    num_points: int
    num_lines: int
    num_flags: int
    violation: str | None = None


def _proj_sizes(params):
    q = params.field.q
    return gaussian(params.n, params.m, q), gaussian(params.n, params.k, q)


def _bis_incidence(params):
    """Points, lines and incidence of a bisection geometry on the point
    index: a point is an m-subspace with its point mask, a line an index
    pair (i, j) of disjoint_pairs over the sorted k-subspaces, and an
    incidence two popcounts through meet_dims, as in the concurrent
    oracle.  Also returns the names of a point and a line."""
    field, n = params.field, params.n
    spaces = list(grassmannian(n, field, params.m))
    points = list(zip(spaces, point_masks(spaces)))
    subs = sorted_grassmannian(n, field, params.k)
    halves = point_masks(subs)
    on_halves = mask_incident_bis(params)

    def incident(point, line):
        return on_halves(point[1], halves[line[0]], halves[line[1]])

    def line_name(line):
        return repr(_disjoint_sorted(subs[line[0]], subs[line[1]]))
    return (lambda: points, lambda: disjoint_pairs(halves), incident,
            lambda point: repr(point[0]), line_name)


def nondegeneracy_check(params, budget=10**7):
    """Verify the three non-degeneracy conditions by enumeration.

    (i) points and lines finite of size >= 2, (ii) every point on at least
    one line, (iii) every line carries at least one point.  Refuses with
    TooLargeError above the incidence-test budget, before listing.
    """
    field = params.field
    if isinstance(params, ProjParams):
        npts, nlin = _proj_sizes(params)
    else:
        npts = gaussian(2 * params.k, params.m, field.q)
        nlin = bisection_count(params.k, field.q)
    if npts * nlin > budget:
        raise TooLargeError("incidence enumeration exceeds budget")
    if npts < 2 or nlin < 2:
        return NondegeneracyReport(False, npts, nlin, 0,
                                   "point or line set smaller than 2")
    if isinstance(params, ProjParams):
        points = lambda: grassmannian(params.n, field, params.m)
        lines = lambda: grassmannian(params.n, field, params.k)
        inc = lambda u, l: intersection_dim(u, l) == params.j
        point_name = line_name = repr
    else:
        points, lines, inc, point_name, line_name = _bis_incidence(params)
    nflags = 0
    for u in points():
        deg = 0
        for l in lines():
            if inc(u, l):
                deg += 1
        nflags += deg
        if deg == 0:
            return NondegeneracyReport(False, npts, nlin, nflags,
                                       f"point {point_name(u)} on no line")
    for l in lines():
        if not any(inc(u, l) for u in points()):
            return NondegeneracyReport(False, npts, nlin, nflags,
                                       f"line {line_name(l)} carries no point")
    return NondegeneracyReport(True, npts, nlin, nflags)


def factor_bound_holds(i, k, q):
    """(1 - q^-i)^2 / (1 - q^-(k+i)) > 1 - 2 q^-i, exactly."""
    lhs = (1 - Fraction(1, q**i)) ** 2 / (1 - Fraction(1, q ** (k + i)))
    return lhs > 1 - 2 * Fraction(1, q**i)
