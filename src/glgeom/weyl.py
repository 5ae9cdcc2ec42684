"""The symmetric-group shadow: subset geometries and Young-subgroup cosets.

Points are m-subsets and lines are k-subsets of {1..n}, incident when the
intersection has exactly j elements.  Pair coverage here controls the
corresponding subspace statements, which is why the subset oracle and the
double-coset count live beside each other.
"""

from __future__ import annotations

from itertools import combinations

from .errors import ParamError, TooLargeError


class SubsetGeom:
    __slots__ = ("n", "m", "k", "j")

    def __init__(self, n, m, k, j):
        self.n, self.m, self.k, self.j = n, m, k, j
        if not (1 <= m <= n / 2):
            raise ParamError("need 1 <= m <= n/2")
        if not (1 <= k < n):
            raise ParamError("need 1 <= k < n")
        if not (max(0, m + k - n) <= j <= min(m, k)):
            raise ParamError("j outside the admissible interval")


class YoungSubgroup:
    """Setwise stabiliser in S_n of a block, represented by the block itself."""

    __slots__ = ("n", "block")

    def __init__(self, n, block):
        self.n, self.block = n, block
        if not block or len(block) >= n:
            raise ParamError("block must be nonempty and proper")
        if not all(1 <= x <= n for x in block):
            raise ParamError("block not inside {1..n}")

    def generators(self):
        """Adjacent transpositions inside the block and inside its complement."""
        inside = sorted(self.block)
        outside = sorted(set(range(1, self.n + 1)) - self.block)
        gens = []
        for part in (inside, outside):
            for a, b in zip(part, part[1:]):
                perm = list(range(self.n + 1))
                perm[a], perm[b] = b, a
                gens.append(tuple(perm[1:]))
        return gens


def double_coset_count(n, m_set, k_set):
    """|W_M \\ S_n / W_K| for Young subgroups of m- and k-subsets.

    Equals the number of feasible intersection sizes of a k-subset with M:
    min(m,k) - max(0, m+k-n) + 1.
    """
    m_sub = frozenset(m_set)
    k_sub = frozenset(k_set)
    YoungSubgroup(n, m_sub)
    YoungSubgroup(n, k_sub)
    m, k = len(m_sub), len(k_sub)
    return min(m, k) - max(0, m + k - n) + 1


def young_orbit_count(n, m_set, k):
    """Direct orbit count of the Young subgroup of M on k-subsets of {1..n}.

    Breadth-first closure under the transposition generators; used as the
    independent cross-check for double_coset_count (n <= 10).
    """
    if n > 10:
        raise TooLargeError("orbit counting limited to n <= 10")
    gens = YoungSubgroup(n, frozenset(m_set)).generators()
    seen = set()
    orbits = 0
    for start in combinations(range(1, n + 1), k):
        s = frozenset(start)
        if s in seen:
            continue
        orbits += 1
        frontier = [s]
        seen.add(s)
        while frontier:
            nxt = []
            for subset in frontier:
                for g in gens:
                    img = frozenset(g[x - 1] for x in subset)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
    return orbits


def subset_pair_cover(n, m, k, j, t):
    """Is some k-subset j-incident with both canonical m-subsets at overlap t?"""
    m1 = frozenset(range(1, m + 1))
    m2 = frozenset(range(m - t + 1, 2 * m - t + 1))
    for cand in combinations(range(1, n + 1), k):
        c = frozenset(cand)
        if len(c & m1) == j and len(c & m2) == j:
            return True
    return False


def subset_geometry_oracle(n, m, k, j):
    """Brute-force collinear completeness of the subset geometry.

    Checks pair coverage for every overlap size t in [0, m-1]; the result
    equals the closed form 0 <= k - 2j <= n - 2m (verified in tests).
    """
    SubsetGeom(n, m, k, j)
    check_subset_oracle(n)
    return all(subset_pair_cover(n, m, k, j, t) for t in range(m))


def check_subset_oracle(n):
    """The subset oracle's bound on n, which a scan checks up front."""
    if n > 14:
        raise TooLargeError("subset oracle limited to n <= 14")


def subset_geometry_closed_form(n, m, k, j):
    """The closed-form collinear-completeness condition 0 <= k-2j <= n-2m."""
    return 0 <= k - 2 * j <= n - 2 * m
