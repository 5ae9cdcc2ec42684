"""Reference kernel that the package's projective witness is checked
against.

`proj_witness` is the construction glgeom.witness used before it wrote W
down from disjoint column sets: the subset witness's coordinate subspace
plus the span of its partition rows, joined by direct_sum, and for
m > n/2 the perp of the span of the cyclically shifted dual witness.
Every step eliminates.  It is kept verbatim, only renamed from
`_proj_witness`, as an independent oracle; nothing in the package calls it.
`direct_sum` and `sum_subspace`, which no route of the package uses any
more, are kept here verbatim too, for the tests and
tests/bis_witness_reference.py.
"""

from glgeom.subspace import (_check_ambient, coordinate_subspace, perp,
                             span_rows)
from glgeom.witness import subset_witness


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
