"""Reference kernel that the package's projective witness is checked
against.

`proj_witness` is the construction glgeom.witness used before it wrote W
down from disjoint column sets: the subset witness's coordinate subspace
plus the span of its partition rows, joined by direct_sum, and for
m > n/2 the perp of the span of the cyclically shifted dual witness.
Every step eliminates.  It is kept verbatim, only renamed from
`_proj_witness`, as an independent oracle; nothing in the package calls it.
`subset_witness` with its `SetWitness` and `_check` is the set builder
that both constructions took their column sets from until
glgeom.witness._proj_column_sets wrote them down as slices of the
canonical pieces; it is kept verbatim as that function's reference.
`direct_sum` and `sum_subspace`, which no route of the package uses any
more, are kept here verbatim too, for the tests and
tests/bis_witness_reference.py.
`unpruned_proj_search` is glgeom.oracle.proj_collinear_search as it was
before it skipped the cells with fewer than j pivots in U2's columns: at
every overlap it scans every Schubert cell with j pivots in U1's, under a
budget of those lines times the overlaps.  It is kept verbatim, only
renamed, as the reference the pruned scan is checked against.
"""

from dataclasses import dataclass
from itertools import combinations

from glgeom.errors import ParamError, TooLargeError
from glgeom.oracle import CompletenessVerdict
from glgeom.subspace import (_check_ambient, coordinate_subspace, gaussian,
                             perp, range_meet_dim, schubert_cell, span_rows)


def _check(ok, what):
    """An internal consistency check that, unlike assert, survives
    python -O; a failure means a construction does not cover this case."""
    if not ok:
        raise RuntimeError(what)


# ----------------------------------------------------------------------
# subset witnesses (the symmetric-group shadow of the subspace problem)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SetWitness:
    p_set: frozenset
    k_set: frozenset | None
    partition: tuple | None


def subset_witness(n, m, k, j, t):
    """The explicit (n-2m+2j)-subset P meeting both canonical m-subsets in
    j points, plus a k-subset K of P or a partition of the complement.

    Canonical subsets: M1 = {1..m}, M2 = {m-t+1..2m-t}.
    """
    if not (1 <= m <= n / 2):
        raise ParamError("need 1 <= m <= n/2")
    if not (1 <= k < n):
        raise ParamError("need 1 <= k < n")
    if not (max(0, m + k - n) <= j <= min(m, k)):
        raise ParamError("inadmissible j")
    if not 2 * j <= k:
        raise ParamError("need 2j <= k")
    if not (0 <= t <= m - 1):
        raise ParamError("need 0 <= t <= m-1")
    m1 = frozenset(range(1, m + 1))
    m2 = frozenset(range(m - t + 1, 2 * m - t + 1))
    if j <= m - t:
        p1 = set(range(1, j + 1))
        p2 = set(range(2 * m - t - j + 1, 2 * m - t + 1))
        p = p1 | p2 | set(range(2 * m - t + 1, n - t + 1))
    elif j <= t:
        p1 = set(range(m - t + 1, m - t + j + 1))
        p = p1 | set(range(2 * m - t + 1, n + j - t + 1))
    else:
        p1 = set(range(m + 1 - j, m + j - t + 1))
        p = p1 | set(range(2 * m - t + 1, n + 1))
    _check(len(p) == n - 2 * m + 2 * j, "subset witness: |P| off")
    _check(len(p & m1) == j and len(p & m2) == j,
           "subset witness: P meets M1, M2 wrongly")
    k_set = None
    partition = None
    if 0 <= k - 2 * j <= n - 2 * m:
        core = (p & m1) | (p & m2)
        pad = sorted(p - m1 - m2)
        k_set = frozenset(sorted(core) + pad[:k - len(core)])
        _check(len(k_set) == k, "subset witness: |K| off")
        _check(len(k_set & m1) == j and len(k_set & m2) == j,
               "subset witness: K meets M1, M2 wrongly")
    else:
        rest = set(range(1, n + 1)) - p
        _check(len(rest) == 2 * m - 2 * j,
               "subset witness: complement of P has the wrong size")
        # pair across the two subsets so no part lies inside M1 or M2
        only1 = sorted(rest & (m1 - m2))
        only2 = sorted(rest & (m2 - m1))
        both = sorted(rest & m1 & m2)
        outside = sorted(rest - m1 - m2)
        _check(len(only1) == len(only2) and len(both) == len(outside),
               "subset witness: cross pairing impossible")
        pairs = list(zip(only1, only2)) + list(zip(both, outside))
        num_parts = (k - 2 * j) - (n - 2 * m)
        _check(1 <= num_parts <= len(pairs),
               "subset witness: part count out of range")
        parts = [frozenset(pr) for pr in pairs[:num_parts - 1]]
        tail = [x for pr in pairs[num_parts - 1:] for x in pr]
        parts.append(frozenset(tail))
        for part in parts:
            _check(not part <= m1 and not part <= m2,
                   "subset witness: a part lies inside M1 or M2")
        partition = tuple(parts)
    return SetWitness(frozenset(p), k_set, partition)


def sum_subspace(u, w):
    _check_ambient(u, w)
    return span_rows(u.field, u.n, u.basis + w.basis)


def direct_sum(parts):
    """Sum of the parts, asserting the sum is direct."""
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        raise ValueError("direct_sum of no nonzero parts")
    field, n = parts[0].field, parts[0].n
    rows = [r for p in parts for r in p.basis]
    s = span_rows(field, n, rows)
    if s.dim != sum(p.dim for p in parts):
        raise ValueError("summands are not independent")
    return s


def proj_witness(n, m, k, j, t, field):
    """proj_collinear_witness unverified; for m > n/2 the dual witness it
    recurses to is checked only through the outer result."""
    if 2 * m > n:
        wb = proj_witness(n, n - m, n - k, n - m - k + j, n - 2 * m + t, field)
        return perp(span_rows(field, n, [r[-m:] + r[:-m] for r in wb.rows()]))
    sw = subset_witness(n, m, k, j, t)
    if sw.k_set is not None:
        return coordinate_subspace(field, n, [i - 1 for i in sw.k_set])
    s1 = coordinate_subspace(field, n, [i - 1 for i in sw.p_set])
    rows = []
    for part in sw.partition:
        v = [0] * n
        for i in part:
            v[i - 1] = 1
        rows.append(tuple(v))
    return direct_sum([s1, span_rows(field, n, rows)])


def unpruned_proj_search(params, budget=10**7):
    """Search-based collinear completeness of the m-vs-k geometry.

    One pair per overlap t, moved to suffix position (module docstring); a
    t fails only after every line W with dim(W meet U1) = j, i.e. every
    Schubert cell of Gr(n,k) with exactly j pivots >= n-m, has been
    scanned without dim(W meet U2) = j.  The budget bounds the subspaces
    the scans may list, those lines once per overlap, and is checked
    before anything is listed.
    """
    n, m, k, j = params.n, params.m, params.k, params.j
    field = params.field
    q = field.q
    overlaps = range(max(0, 2 * m - n), m)
    # the k-subspaces W with dim(W meet U1) = j
    lines = (q ** ((m - j) * (k - j)) * gaussian(m, j, q)
             * gaussian(n - m, k - j, q))
    if lines * len(overlaps) > budget:
        raise TooLargeError(f"{len(overlaps)} Schubert-cell scans of {lines} "
                            f"{k}-subspaces exceed the budget of {budget}")
    # k-j pivots left of column n-m and j from it on, in lex order
    cells = [lo + hi for lo in combinations(range(n - m), k - j)
             for hi in combinations(range(n - m, n), j)]
    for t in overlaps:
        lo, hi = n - 2 * m + t, n - m + t  # U2's columns
        if not any(range_meet_dim(w, lo, hi) == j
                   for p in cells for w in schubert_cell(n, field, p)):
            return CompletenessVerdict(False, "oracle", failing_t=t)
    return CompletenessVerdict(True, "oracle")
