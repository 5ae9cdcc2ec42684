"""Group actions of GL(n,q) and its subgroups on subspaces and bisections.

Orbits on k-subspaces never re-reduce a basis: the k-subspaces are indexed
once by basis code and projective-point mask, straight from row codes
(subspace.grassmannian_index), each generator permutes the points and so,
by mask lookup, the indices, and one breadth-first search with a Schreier
tree finds the orbits on the index (_index_orbits); a Subspace is rebuilt
from its code only for a representative.  That gives the orbits of the
stabiliser of a subspace on k-subspaces directly.  The orbits of the
bisection stabiliser H = GL(k,q) wr 2 on bisections never list a
bisection: for each root A of its few orbits on the index, a random
Schreier-Sims on points (schreier_sims, fed by random_elements) yields
strong generators of Stab_H(A), proved complete by its order, and their
orbits on the q^(k^2) complements of A give the orbits on bisections
through A.  The complements are numbered by the affine chart X ->
span{b_i + sum_j X_ij a_j}, X in M_k(q) (_chart_kit), on which each
strong generator acts as an affine map, read off k^2 + 1 of its moves on
the index and extended to a permutation of the chart by one add per
complement.  The stabiliser is generated by GL(k,q) in the first block and
the block swap.  A generator is a matrix as a tuple of row tuples, like a
subspace basis; each reaches the search only as a point permutation
(subspace.point_permutation), which refuses a singular one.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice, product
from math import prod
from operator import or_, xor
from random import Random

from .gfq import primitive_element
from .subspace import (Bisection, _code_row, _digit_tables, _unit_rows,
                       bisection_count, coded_subspace, gaussian,
                       grassmannian_index, mask_points, point_permutation)
from .errors import ParamError, TooLargeError


class OrbitReport:
    __slots__ = ("orbit_lengths", "total", "representatives")

    def __init__(self, orbit_lengths, total, representatives):
        self.orbit_lengths = orbit_lengths      # sorted ascending
        self.total = total
        self.representatives = representatives

    def multiset(self):
        return Counter(self.orbit_lengths)

    def format_multiset(self):
        c = self.multiset()
        return " ".join(f"{length}^{c[length]}" if c[length] > 1 else str(length)
                        for length in sorted(c))

    @property
    def num_orbits(self):
        return len(self.orbit_lengths)


def _embed_block(g, n, offset):
    """The unit rows of V(n,q) with the square block g on the diagonal
    from row and column offset on: the rows of g, padded with zeros, in
    place of the unit rows they cover."""
    units, pad = _unit_rows(n), (0,) * offset
    rows = tuple(pad + r + (0,) * (n - offset - len(r)) for r in g)
    return units[:offset] + rows + units[offset + len(g):]


def _transvection(n, i, j):
    """The unit rows of V(n,q) with e_j added into row i (i != j)."""
    units = _unit_rows(n)
    row = units[i][:j] + (1,) + units[i][j + 1:]
    return units[:i] + (row,) + units[i + 1:]


def gl_generators(n, field):
    """A standard generating set of GL(n,q), as a list of matrices (tuples
    of rows): a transvection, the cycle e_i -> e_(i+1) and, for q > 2, a
    primitive element in the corner."""
    q = field.q
    if n == 1:
        return [((primitive_element(q, field.mul),),)]
    units = _unit_rows(n)
    gens = [_transvection(n, 0, 1), units[1:] + units[:1]]
    if q > 2:
        gens.append(_embed_block(((primitive_element(q, field.mul),),), n, 0))
    return gens


def bisection_stabiliser_generators(k, field):
    """Generators of the setwise stabiliser of the coordinate bisection of
    V(2k,q) in GL(2k,q): GL(k,q) embedded in the first block plus the
    block swap, which conjugates each first-block generator into its
    second-block copy, so they generate GL(k) wr C2 (order 2 |GL(k,q)|^2).
    """
    gens = [_embed_block(g, 2 * k, 0) for g in gl_generators(k, field)]
    units = _unit_rows(2 * k)
    gens.append(units[k:] + units[:k])
    return gens


def subspace_stabiliser_generators(m_dim, n, field):
    """Generators of the stabiliser of <e_1..e_m> in GL(n,q).

    Block lower-triangular: GL(m) and GL(n-m) blocks plus one corner
    transvection adding e_1 into row m.
    """
    gens = [_embed_block(g, n, 0) for g in gl_generators(m_dim, field)]
    if n > m_dim:
        gens += [_embed_block(g, n, m_dim)
                 for g in gl_generators(n - m_dim, field)]
        gens.append(_transvection(n, m_dim, 0))
    return gens


def _then(a, b):
    """The point permutation a followed by b."""
    return [b[x] for x in a]


def _inverse(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return out


def random_elements(perms, rng):
    """Endless random elements of the group that the point permutations
    generate, by product replacement with an accumulator: at least ten
    slots start as copies of the generators, each step replaces one slot
    by its product with another and multiplies the accumulator by it (Celler, Leedham-Green,
    Murray, Niemeyer & O'Brien, 1995; Leedham-Green & Murray, 2002)."""
    slots = [perms[i % len(perms)] for i in range(max(10, len(perms)))]
    acc = list(range(len(perms[0])))
    steps = 0
    while True:
        i, j = rng.sample(range(len(slots)), 2)
        slots[i] = _then(slots[i], slots[j])
        acc = _then(acc, slots[i])
        steps += 1
        if steps > 50:  # the first steps only mix the slots
            yield acc


def _grow_cosets(cosets, gens, backs):
    """Grow {y: the inverse of u_y}, u_y a product of gens carrying a
    point to y (a transversal), from the orbit under gens[:-1] to the
    orbit under all gens, in place; backs are the inverses of gens.  The
    entries already there stay, so each is composed once."""
    g, g_back = gens[-1], backs[-1]
    orbit = []
    for x in list(cosets):
        y = g[x]
        if y not in cosets:
            cosets[y] = _then(g_back, cosets[x])
            orbit.append(y)
    for x in orbit:
        for s, back in zip(gens, backs):
            y = s[x]
            if y not in cosets:
                cosets[y] = _then(back, cosets[x])
                orbit.append(y)


def schreier_sims(draws, order):
    """A base and strong generating set, on points, of a group G of the
    given order, from an iterable of random elements of G (random
    Schreier-Sims: Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005, ch. 4; Seress, Permutation Group Algorithms, 2003).

    Level i is (b_i, the strong generators fixing b_0..b_(i-1), {y:
    inverse transversal element} over the basic orbit of b_i).  Each draw
    is sifted through the levels; a non-trivial residue fixes the base
    points of the levels it passed, so it joins the generators of those
    levels and of the one where it stopped, or, if it passed them all,
    starts a new level at the first point it moves; each level's
    transversal grows in place (_grow_cosets).  The
    product of the basic orbit lengths never exceeds the order of the
    group the strong generators generate, and that group lies in G, so
    once the product equals the order they generate G: the loop stops
    there.  Raises RuntimeError if the draws run out first.
    """
    chain, backs = [], []  # backs[i]: the inverses of level i's generators
    draws = iter(draws)
    while prod(len(level[2]) for level in chain) != order:
        g = next(draws, None)
        if g is None:
            raise RuntimeError("random Schreier-Sims ran out of draws "
                               f"below the group order {order}")
        depth = 0
        for point, _, cosets in chain:
            back = cosets.get(g[point])
            if back is None:
                break
            g = _then(g, back)
            depth += 1
        else:
            moved = next((x for x, y in enumerate(g) if x != y), None)
            if moved is None:
                continue
            chain.append((moved, [], {moved: list(range(len(g)))}))
            backs.append([])
        back = _inverse(g)
        for i in range(depth + 1):
            chain[i][1].append(g)
            backs[i].append(back)
            _grow_cosets(chain[i][2], chain[i][1], backs[i])
    return chain


def _index_orbits(n, k, field, generators):
    """The orbits of the group that the matrices generate on the
    k-subspaces of V(n,q), on their index, with no re-reduction.

    The k-subspaces are indexed once, in sort_key order, by their basis
    codes and point masks (subspace.grassmannian_index), with no Subspace
    object; each generator, as a permutation of the projective points
    (subspace.point_permutation), moves an index by mask lookup.  One
    breadth-first search finds the orbits; the least index of each is its
    root, and parent pointers (a Schreier tree) carry any index back to
    its root.  Returns the codes, their masks, index ({mask: index}), the
    generators on points, mover (a point permutation to its move on the
    index), parent
    (the (index, generator) each non-root was reached by), root_of and
    sizes ({root: orbit length}).  Raises RuntimeError if the index size
    contradicts gaussian(n,k,q) or the orbits do not partition it.
    """
    q = field.q
    codes, masks = grassmannian_index(n, field, k)
    nsub = len(codes)
    if nsub != gaussian(n, k, q):
        raise RuntimeError(f"{nsub} {k}-subspaces of V({n},{q}), expected "
                           f"{gaussian(n, k, q)}")
    index = {mask: i for i, mask in enumerate(masks)}
    gens = [point_permutation(field, n, g) for g in generators]
    points = [list(mask_points(mask)) for mask in masks]

    def mover(g):
        """x -> x.g on the index, for a point permutation g."""
        bits = [1 << y for y in g]
        return lambda x: index[sum(map(bits.__getitem__, points[x]))]
    moves = [list(map(mover(g), range(nsub))) for g in gens]

    parent = [None] * nsub
    root_of = [None] * nsub
    sizes = {}
    for root in range(nsub):
        if root_of[root] is None:
            root_of[root] = root
            orbit = [root]
            for x in orbit:
                for g, move in enumerate(moves):
                    y = move[x]
                    if root_of[y] is None:
                        root_of[y], parent[y] = root, (x, g)
                        orbit.append(y)
            sizes[root] = len(orbit)
    if sum(sizes.values()) != nsub:
        raise RuntimeError("the subspace orbits do not partition the index")
    return codes, masks, index, gens, mover, parent, root_of, sizes


def _chart_kit(field, k, index):
    """The complement chart of one route call, on V(2k,q), over the index
    ({point mask: index}) of its k-subspaces.

    Let A have canonical rows a_j and let b_i be the unit rows off A's
    pivot columns, a complement of A.  The complements of A are the
    C(X) = span{b_i + sum_j X_ij a_j}, one per X in M_k(q), coded as
    coded_subspace codes a k x k basis: row by row, each row a k-digit
    base-q code.  A vector of V(2k,q) is coded the same way, as two rows.
    Returns two functions:

    chart(code): the indices of the C(X) in the order of the codes of X,
    for the subspace A with this basis code, masked with no rank.  The
    points of C(X) are v.b + (v X).a over the normalised coefficient
    vectors v: per v, the point bit of v.b + w.a for every w, and the code
    of v X for every X, summed row by row.  A mask that is not in the
    index maps to None.

    permutation(move, chart, where): for a g fixing A, as its move on the
    index, the permutation of the codes by which g carries C(X) to C(X'),
    where = {index: code} inverting chart.  If g fixes A, then A g = P A
    and b g = R b + S a, so X' = R^-1 (X P + S): affine.  It is read off
    the images of X = 0 and of the k^2 unit matrices, k^2 + 1 moves, and
    extended to every code by about one add per code.

    Codes add digit by digit: by XOR at p = 2 (a digit of GF(2^e) is a bit
    field), otherwise row by row through the add table of one row; the
    scale table of one row multiplies them.
    """
    q, n, size, cells = field.q, 2 * k, field.q ** k, k * k
    add, scale = _digit_tables(field, k)
    minus_one = field.neg(1)

    def times(c, a):
        """The code of c.a."""
        if c < 2:
            return a if c else 0
        row, out, weight = scale[c], 0, 1
        while a:
            a, x = divmod(a, size)
            out += row[x] * weight
            weight *= size
        return out

    # spread(xs, ys) is [x + y for x in xs for y in ys] on one-row codes,
    # xs the short list.  extend(s, units, count) lists s + sum_t c_t
    # units[t] over every c in GF(q)^len(units) in code order, on codes of
    # count rows; the last unit is summed first, as the lowest digit.
    if field.p == 2:
        def spread(xs, ys):
            return [x ^ y for x in xs for y in ys]

        def extend(s, units, count):
            sums = [s]
            for u in reversed(units):
                sums = spread([times(c, u) for c in range(q)], sums)
            return sums
        minus = xor
    else:
        def spread(xs, ys):
            return [row[y] for row in map(add.__getitem__, xs) for y in ys]

        def extend(s, units, count):
            # per row, the sums' rows
            parts = [[x] for x in _code_row(s, size, count)]
            for u in reversed(units):
                steps = [_code_row(times(c, u), size, count) for c in range(q)]
                parts = [spread([step[i] for step in steps], part)
                         for i, part in enumerate(parts)]
            sums = parts[0]
            for part in parts[1:]:
                sums = [y * size + x for y, x in zip(sums, part)]
            return sums

        def minus(a, b):
            out = 0
            for x, y in zip(_code_row(a, size, k),
                            _code_row(times(minus_one, b), size, k)):
                out = out * size + add[x][y]
            return out

    # bit_of[c]: the bit of the point of the vector with code c, numbered
    # as in subspace.point_permutation: point (q^e - 1)/(q - 1) + x is the
    # vector 0..0 1 x of code q^e + x, and its multiples
    bit_of = [0] * q ** n
    for e in range(n):
        for x in range(q ** e):
            for c in range(1, q):
                bit_of[times(c, q ** e + x)] = 1 << (q ** e - 1) // (q - 1) + x
    coefficients = [(0,) * (k - 1 - e) + (1,) + x
                    for e in range(k) for x in product(range(q), repeat=e)]

    def chart(code):
        a_rows = _code_row(code, q ** n, k)
        # a canonical row of code r has its leading 1 where q^e <= r < q^(e+1)
        pivots = {n - 1 - next(e for e in range(n) if r < q ** (e + 1))
                  for r in a_rows}
        free = [q ** (n - 1 - c) for c in range(n) if c not in pivots]
        masks = [0] * q ** cells
        for v in coefficients:
            v_b = sum(x * unit for x, unit in zip(v, free))
            bits = list(map(bit_of.__getitem__, extend(v_b, a_rows, 2)))
            v_x = [0]
            for c in reversed(v):
                v_x = spread(scale[c], v_x)
            masks = list(map(or_, masks, map(bits.__getitem__, v_x)))
        return [index.get(mask) for mask in masks]

    every = list(range(q ** cells))  # the permutations share these ints

    def permutation(move, chart, where):
        shift = where[move(chart[0])]
        return list(map(every.__getitem__, extend(shift, [
            minus(where[move(chart[q ** (cells - 1 - t)])], shift)
            for t in range(cells)], k)))
    return chart, permutation


_DRAWS = 1000  # random elements per stabiliser, far above what it needs


def stabiliser_orbits_on_bisections(k, field, budget=10**7):
    """Orbits of the coordinate-bisection stabiliser H = GL(k,q) wr 2 on
    all other bisections, from its orbits on k-subspaces and stabiliser
    orbits on complements.

    1. _index_orbits finds the H-orbits on the index of the k-subspaces
       of V(2k,q); the least index A of each is its root, and parent
       pointers (a Schreier tree) carry any index back to its root.
    2. Random elements h of H give elements h.u(A.h)^-1 of Stab_H(A), u
       the tree's transversal; schreier_sims sifts them until the product
       of the basic orbit lengths is |H| / (|H.A| (q-1)), the order of
       Stab_H(A) on points (the scalars act trivially), which proves the
       strong generators generate it.
    3. The complements of A are numbered by their chart codes
       (_chart_kit: one point mask each, no rank), checked to be q^(k^2)
       distinct indices disjoint from A.  Each strong generator permutes
       the codes by an affine map, read off the images of X = 0 and the
       k^2 unit matrices; the orbits C of those permutations are found
       by list lookups and labelled in per-root lists, each with its
       least complement by index.
    4. For B in such an orbit C, the H-orbit of the ordered pair (A, B)
       has |H.A| |C| pairs.  The reversed pair (B, A), carried to B's
       root through the tree, lies in the same ordered orbit or another,
       and the unordered orbit of {A, B} has the same length, halved if
       the same.  Its least pair (i, j), i < j, has i the lesser of the
       two roots and j the least complement of i in either ordered
       orbit, so the representatives are the least pairs, as the search
       over every bisection gave.

    Refuses k < 1 with ParamError, and with TooLargeError before any
    enumeration when the bisection count gaussian(2k,k,q) q^(k^2) / 2
    exceeds the budget.  Raises RuntimeError if the index size, a
    complement count, a strong generator or the stabiliser order
    contradicts the counting formulas, or an orbit length the
    orbit-stabiliser theorem.  The random source is seeded; the report
    does not depend on it.
    """
    if k < 1:
        raise ParamError("need k >= 1")
    q, n = field.q, 2 * k
    count = bisection_count(k, q)
    if count > budget:
        raise TooLargeError(f"{count} bisections of V({n},{q}) exceed the "
                            f"budget of {budget}")
    # 1. H-orbits on the index, with a Schreier tree
    codes, masks, index, gens, mover, parent, root_of, sizes = _index_orbits(
        n, k, field, bisection_stabiliser_generators(k, field))
    nsub = len(codes)
    backs = [_inverse(g) for g in gens]

    def to_root(x):
        """u(x)^-1 on points: carries x to its root."""
        t = list(range(len(gens[0])))
        while parent[x] is not None:
            x, g = parent[x]
            t = _then(t, backs[g])
        return t

    # 2. and 3. stabiliser orbits on the complements of each root
    group_order = 2 * prod(q**k - q**i for i in range(k))**2
    elements = random_elements(gens, Random(1))
    chart_of, permutation = _chart_kit(field, k, index)
    cells = q ** (k * k)
    labels = {}     # root -> per index, its ordered orbit as a complement
    ordered = []    # per ordered orbit: root, length of C, least of C
    for a, size in sizes.items():
        chart = chart_of(codes[a])
        where = dict(zip(chart, range(cells)))
        found = sum(b is not None and not masks[b] & masks[a] for b in where)
        if found != cells:
            raise RuntimeError(f"{found} complements of subspace {a}, "
                               f"expected {cells}")
        order, rest = divmod(group_order, size * (q - 1))
        draws = (_then(h, to_root(mover(h)(a)))
                 for h in islice(elements, _DRAWS))
        chain = schreier_sims(draws, order)
        strong = chain[0][1] if chain else []
        if rest or prod(len(level[2]) for level in chain) != order:
            raise RuntimeError(f"the stabiliser of subspace {a} is not of "
                               f"order {group_order} / ({size} ({q - 1}))")
        if any(mover(g)(a) != a for g in strong):
            raise RuntimeError(f"a strong generator moves subspace {a}")
        perms = [permutation(mover(g), chart, where) for g in strong]
        label = [None] * cells
        for x in range(cells):
            if label[x] is None:
                o = len(ordered)
                label[x] = o
                orbit = [x]
                for y in orbit:
                    for perm in perms:
                        z = perm[y]
                        if label[z] is None:
                            label[z] = o
                            orbit.append(z)
                ordered.append((a, len(orbit), min(map(chart.__getitem__,
                                                       orbit))))
        at = labels[a] = [None] * nsub
        for b, o in zip(chart, label):
            at[b] = o

    # 4. unordered orbits, each from the lesser of its two ordered ones.
    # The coordinate bisection's own pair is found by basis code: row i of
    # <e_1..e_k> has its 1 at entry i (n + 1) of the code, and each row of
    # <e_(k+1)..e_n> has it k entries later.
    first = sum(q ** (n * k - 1 - i * (n + 1)) for i in range(k))
    own = tuple(sorted(map(codes.index, (first, first // q ** k))))
    lengths, reps = [], []
    for o, (a, size, b) in enumerate(ordered):
        p = labels[root_of[b]][mover(to_root(b))(a)]
        if p < o:
            continue
        a2, _, b2 = ordered[p]
        rep = (a, b) if a < a2 else (a2, b2) if a2 < a else (a, min(b, b2))
        if rep != own:
            lengths.append(sizes[a] * size // (2 if p == o else 1))
            reps.append(rep)
    if sum(lengths) != count - 1 or any(group_order % x for x in lengths):
        raise RuntimeError("orbit lengths contradict the orbit-stabiliser "
                           f"theorem for a group of order {group_order}")
    ranked = sorted(range(len(lengths)), key=lambda i: (lengths[i], reps[i]))
    return OrbitReport(tuple(lengths[i] for i in ranked), count - 1,
                       [Bisection(*(coded_subspace(field, n, k, codes[x])
                                    for x in reps[i])) for i in ranked])


def pm_orbits_on_k_spaces(n, m, k, field, budget=10**7):
    """Orbits of the stabiliser of <e_1..e_m> on all k-subspaces, on their
    index (_index_orbits); refused before any is listed when
    gaussian(n,k,q) exceeds the budget.  The index is in sort_key order,
    so each root is the least subspace of its orbit, its representative.
    """
    count = gaussian(n, k, field.q)
    if count > budget:
        raise TooLargeError(f"{count} {k}-subspaces of V({n},{field.q}) "
                            f"exceed the budget of {budget}")
    codes, *_, sizes = _index_orbits(
        n, k, field, subspace_stabiliser_generators(m, n, field))
    ranked = sorted(sizes, key=lambda root: (sizes[root], root))
    return OrbitReport(tuple(sizes[root] for root in ranked), len(codes),
                       [coded_subspace(field, n, k, codes[root])
                        for root in ranked])


GOLDEN_ORBITS = {
    # stabiliser of a bisection acting on the remaining bisections
    (3, 2): {24: 1, 64: 2, 72: 1, 96: 1, 144: 1, 192: 1, 288: 2, 384: 1,
             576: 3, 768: 1, 1152: 1},          # (q, k) = (3, 2), sum 5264
    (2, 3): {98: 1, 336: 1, 441: 1, 588: 2, 784: 1, 1176: 1, 1568: 1,
             1764: 1, 3528: 2, 4032: 1, 7056: 4, 9408: 4, 14112: 6,
             18816: 1, 28224: 6},               # (q, k) = (2, 3), sum 357119
}
