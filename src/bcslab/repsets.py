"""Representative families over the uniform matroid and the path solver on them.

A family of p-subsets of [n] is reduced to a q-representative subfamily
(q = k_cap - p) by linear algebra: ground element j maps to the moment vector
(1, j, j^2, ..., j^(k_cap-1)) over GF(q'), q' the smallest prime above n, a
p-set maps to its vector of p x p minors (the coordinates of the wedge of its
columns), and a row basis of those vectors, kept greedily in insertion order,
is the subfamily. Any k_cap columns are independent (Vandermonde), which is
what the representation property needs. Size bound: C(k_cap, p). The wedge is
built by exterior products, one column at a time, never by determinants
(Fomin, Lokshtanov, Panolan, Saurabh, "Efficient computation of
representative families", JACM 2016). A family of one set, or of two sets
with different masks below p = k_cap, keeps every set, so it passes through
unchanged with no wedge built (see `reduce_family`); in the path solver most
families are that small.

The exact balanced path solver keeps one table per level (r, b): for each
(u, v), the family of vertex sets of u-v paths with r red and b blue edges,
non-empty families only. It extends by one vertex per level and reduces with
k_cap = k+1 after every level. Each kept set carries one realizing path so
the decision is constructive. One solve memoises the minor vector of each
mask it reduces.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional

from .graphs import EdgeColor, RedBlueGraph, Witness, WitnessKind, count_level, require_even_k

# The largest k solve_ebp_repsets admits. A level-p family of three or more
# sets reduces minor vectors of C(k+1, p) coordinates, so the widest has
# C(k+1, (k+1) // 2): 1,716 at k = 12, 6,435 at k = 14 and 24,310 at k = 16.
# Graphs whose families hold that many sets are slow well below the cap; on a
# 2-vCPU x86-64 VM a 20-vertex, 58-edge random graph (corpus.random_graph(20,
# 0.3, 5)) took 1.0 s of CPU at k = 6, 21 s at k = 8 and over 150 s at k = 10,
# and a 30-vertex, 43-edge one (random_graph(30, 0.1, 42)) 11 s at k = 10 and
# 124 s at k = 12. A 60-edge path, whose families hold one set each, builds
# no minor vector and takes under 0.1 s at any k up to 16.
MAX_K = 14


@dataclass(frozen=True)
class SetFamily:
    """Equal-size vertex subsets (bitmask over 1..ground_size) with one witness path each."""

    ground_size: int
    p: int
    sets: tuple  # tuple of (mask, witness_vertices) with popcount(mask) == p

    def __post_init__(self):
        for mask, wit in self.sets:
            if mask & 1 or mask >> self.ground_size + 1:
                raise ValueError("set holds a vertex outside 1..ground_size")
            if mask.bit_count() != self.p or len(wit) != self.p:
                raise ValueError("set or witness size differs from p")
            wmask = 0
            for v in wit:
                wmask |= 1 << v
            if wmask != mask:
                raise ValueError("witness vertex set differs from the subset")

    @classmethod
    def _derived(cls, ground_size: int, p: int, sets: tuple) -> "SetFamily":
        """A family built from a checked one's members, without __post_init__'s checks."""
        S = object.__new__(cls)
        S.__dict__.update(ground_size=ground_size, p=p, sets=sets)
        return S


@lru_cache(maxsize=None)
def _smallest_prime_above(n: int) -> int:
    x = n + 1
    while True:
        if x > 1 and all(x % d for d in range(2, int(x**0.5) + 1)):
            return x
        x += 1


def _colex_row_subsets(k_cap: int, p: int) -> list:
    return sorted(combinations(range(k_cap), p), key=lambda t: tuple(reversed(t)))


@lru_cache(maxsize=None)
def _wedge_level(k_cap: int, j: int) -> tuple:
    """Laplace terms for the j-subsets R of rows range(k_cap), in colex order.

    Per R: the pairs (i, t) over t in R with sign +1, then those with sign -1,
    where i is the colex index of R - {t} among the (j-1)-subsets and the sign
    is (-1)^#{s in R : s > t}. The wedge w ^ c then has coordinate
    sum(sign * w[i] * c[t]) at R.
    """
    prev = {rows: i for i, rows in enumerate(_colex_row_subsets(k_cap, j - 1))}
    level = []
    for rows in _colex_row_subsets(k_cap, j):
        terms = ([], [])
        for pos, t in enumerate(rows):
            terms[(j - 1 - pos) & 1].append((prev[rows[:pos] + rows[pos + 1:]], t))
        level.append((tuple(terms[0]), tuple(terms[1])))
    return tuple(level)


def minor_vector(mask: int, k_cap: int, q: int) -> list:
    """Vector of p x p minors of the moment-matrix columns selected by mask.

    These are the coordinates of the wedge of the columns, over the p-subsets
    of rows in colex order. The wedge grows by one column (vertex) at a time,
    each step a Laplace expansion along the new column: O(C(k_cap, j) j)
    multiplications for the j-th column.
    """
    cols = [v for v in range(1, mask.bit_length() + 1) if mask >> v & 1]
    if len(cols) > k_cap:
        return []
    vec = [1]
    for j, a in enumerate(cols, start=1):
        # column (1, a, a^2, ..., a^(k_cap-1)) at a = vertex id
        col = [1]
        for _ in range(k_cap - 1):
            col.append(col[-1] * a % q)
        out = []
        for plus, minus in _wedge_level(k_cap, j):
            x = 0
            for i, t in plus:
                x += vec[i] * col[t]
            for i, t in minus:
                x -= vec[i] * col[t]
            out.append(x % q)
        vec = out
    return vec


def reduce_family(S: SetFamily, k_cap: int, *, wedges: Optional[dict] = None) -> SetFamily:
    """(k_cap - p)-representative subfamily of size <= C(k_cap, p).

    Keeps the sets whose minor vectors extend a growing row basis over GF(q),
    q the smallest prime above the ground size, in insertion order; once the
    basis has full rank no later set can extend it. `wedges`, when given,
    memoises minor vectors by mask; the caller keeps one dict per k_cap and
    ground size.

    Two cases keep every set, and return S as it is with no minor vector
    built. Vertex ids lie in 1..ground_size < q, so they stay distinct over
    GF(q), and any p <= k_cap moment columns are independent (Vandermonde):
    - one set: its minor vector is not zero;
    - two sets A != B with p < k_cap: their wedges are proportional only if
      A and B span the same subspace. Then a vertex b of B - A lies in the
      span of A, and A + {b} would be p + 1 <= k_cap dependent columns. The
      basis has C(k_cap, p) >= 2 rows, so both sets are kept.
    """
    if S.p > k_cap:
        raise ValueError("p exceeds k_cap")
    sets = S.sets
    if len(sets) == 1 or (len(sets) == 2 and S.p < k_cap and sets[0][0] != sets[1][0]):
        return S
    q = _smallest_prime_above(S.ground_size)
    if wedges is None:
        wedges = {}
    dim = comb(k_cap, S.p)
    basis = []  # (pivot, row from the pivot on, scaled to 1 there), in insertion order
    kept = []
    for mask, wit in S.sets:
        if len(basis) == dim:
            break  # full rank: no later set is independent
        vec = wedges.get(mask)
        if vec is None:
            vec = wedges[mask] = minor_vector(mask, k_cap, q)
        row = vec[:]
        for piv, tail in basis:
            f = row[piv]
            if f:
                row[piv:] = [(x - f * y) % q for x, y in zip(row[piv:], tail)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], -1, q)
            basis.append((piv, [x * inv % q for x in row[piv:]]))
            kept.append((mask, wit))
    return SetFamily._derived(S.ground_size, S.p, tuple(kept))


def convolve_extend(S: SetFamily, v: int) -> SetFamily:
    """The * {{v}} convolution: add v to every member set not containing it."""
    if not 0 < v <= S.ground_size:
        raise ValueError("v lies outside 1..ground_size")
    bit = 1 << v
    out = []
    for mask, wit in S.sets:
        if mask & bit:
            continue
        out.append((mask | bit, wit + (v,)))
    return SetFamily._derived(S.ground_size, S.p + 1, tuple(out))


def solve_ebp_repsets(
    G: RedBlueGraph,
    k: int,
    record: Optional[list] = None,
) -> Optional[Witness]:
    """Exact balanced path of size k via representative-family DP.

    A graph with fewer than k edges or k + 1 vertices holds no such path, and
    is answered None before anything is built; otherwise a k past MAX_K
    raises ValueError. When `record` is a list, every reduction appends
    (u, v, r, b, candidate_family, reduced_family) for property checks; such
    a run skips the screen, so that it records every level it can build.
    """
    require_even_k(k)
    if record is None and (G.m < k or G.n < k + 1):
        return None
    if k > MAX_K:
        raise ValueError(f"k = {k} is past the repsets solver's cap of k = {MAX_K}")
    half = k // 2
    k_cap = k + 1
    # (r, b) -> {(u, v): SetFamily}, in (u, v) order from level 2 on; a non-empty
    # candidate family keeps its first set, so every family here is non-empty
    fam = {}
    wedges = {}  # mask -> minor vector, for this k_cap and ground size
    red = [c is EdgeColor.RED for _, _, c in G.edges]

    for ei, (u, v, _) in enumerate(G.edges):
        level = fam.setdefault((1, 0) if red[ei] else (0, 1), {})
        for a, bnd in ((u, v), (v, u)):
            level[(a, bnd)] = SetFamily(G.n, 2, (((1 << a) | (1 << bnd), (a, bnd)),))

    for j in range(2, k + 1):
        for r, b in count_level(j, half):
            by_red = fam.get((r - 1, b), {})  # u-w paths that a red edge w-v extends
            by_blue = fam.get((r, b - 1), {})
            # a u-v path of this level ends in an edge w-v after a u-w path of
            # the last one; visit (u, v) in the order of the full double loop
            targets = set()
            for last, is_red in ((by_red, True), (by_blue, False)):
                for u, w in last:
                    targets.update((u, v) for v, ei in G.adjacency[w]
                                   if red[ei] is is_red and v != u)
            level = fam[(r, b)] = {}
            for u, v in sorted(targets):
                seen = {}  # mask -> first witness, in insertion order
                for w, ei in G.adjacency[v]:
                    prev = (by_red if red[ei] else by_blue).get((u, w))
                    if prev is not None:
                        for mask, wit in convolve_extend(prev, v).sets:
                            seen.setdefault(mask, wit)
                if not seen:
                    continue
                cand = SetFamily._derived(G.n, j + 1, tuple(seen.items()))
                reduced = reduce_family(cand, k_cap, wedges=wedges)
                if record is not None:
                    record.append((u, v, r, b, cand, reduced))
                level[(u, v)] = reduced

    top = fam.get((half, half))
    if not top:
        return None
    wit = next(iter(top.values())).sets[0][1]
    return Witness(WitnessKind.PATH,
                   tuple(sorted(dict(G.adjacency[x])[y] for x, y in zip(wit, wit[1:]))))
