"""Brute-force reference for diagonal pairs.

`diagonal_pair_exists_bruteforce` decides by exhaustive search whether two
disjoint diagonal r-subspaces of Y1 (+) Y2 exist, independent of the
constructive route (glgeom.witness.diagonal_pair).  It moved here verbatim
from glgeom.witness, with the two enumerators it uses; nothing in the
package calls it.
"""

from glgeom.subspace import grassmannian, intersection_dim, span_rows
from field_reference import rank_of_rows
import lattice_reference
from lattice_reference import add_vecs


def diagonal_pair_exists_bruteforce(y1, y2, r):
    """Exhaustive search for two disjoint diagonal r-subspaces (test oracle).

    Enumerates diagonals as graphs of injective maps from r-subspaces of Y1
    into Y2, independent of the constructive route.
    """
    field, n = y1.field, y1.n

    def diagonals():
        for dom in grassmannian_sub(y1, r):
            dom_rows = dom.rows()
            for images in _injective_tuples(y2, r):
                rows = [add_vecs(field, d, im) for d, im in zip(dom_rows, images)]
                yield span_rows(field, n, rows)

    all_diags = list(diagonals())
    seen = set()
    uniq = []
    for d in all_diags:
        if d not in seen:
            seen.add(d)
            uniq.append(d)
    for i, z1 in enumerate(uniq):
        for z2 in uniq[i + 1:]:
            if intersection_dim(z1, z2) == 0:
                return True
    return False


def grassmannian_sub(space, r):
    """All r-subspaces of a given subspace (via coordinates on its basis)."""
    field, n = space.field, space.n
    rows = space.rows()
    for small in grassmannian(space.dim, field, r):
        big_rows = []
        for coeffs in small.rows():
            v = (0,) * n
            for c, row in zip(coeffs, rows):
                if c:
                    v = add_vecs(field, v, tuple(field.mul(c, x) for x in row))
            big_rows.append(v)
        yield span_rows(field, n, big_rows)


def _injective_tuples(space, r):
    """Ordered r-tuples of linearly independent vectors of a subspace."""
    field, n = space.field, space.n
    vectors = [v for v in lattice_reference.vectors(space) if any(v)]

    def rec(chosen):
        if len(chosen) == r:
            yield tuple(chosen)
            return
        for v in vectors:
            trial = chosen + [v]
            if rank_of_rows(field, trial, n) == len(trial):
                yield from rec(trial)

    yield from rec([])
