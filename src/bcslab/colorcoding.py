"""Colorful dynamic programs and coloring-family drivers.

An edge coloring sigma: E -> [k] (or vertex coloring tau: V -> [k+1]) turns
the balanced search into a colorful one: the DPs below decide whether some
balanced structure uses every label exactly once, in time ~ 4^k, and
rebuild a witness by walking back through their tables. Two drivers lift the
colorful DPs back to the uncolored problems: a Monte Carlo loop with
ceil(e^k ln(1/delta)) uniformly random colorings, and a greedy-cover hash
family that is exact at test scale (Alon, Yuster, Zwick, "Color-coding",
JACM 1995).

A label set is a bitmask (label i occupies bit i-1). A table cell, one per
anchor and (red, blue) edge count, is a Python int whose bit L is set when
label set L is reachable, so a cell over h labels is 2^h bits wide; h is
capped at MAX_LABELS = 20. Adding label bit c to the sets of a cell S that
lack it is (S & keep[c]) << c, and the disjoint-union join of two cells walks
the set bits L1 of the sparser one and ORs in (other & disjoint_from[L1]) << L1.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .graphs import (EdgeColor, RedBlueGraph, Witness, WitnessKind, count_level, count_splits,
                     require_even_k)


@dataclass(frozen=True)
class EdgeColoring:
    """Total map edge index -> label in [k]."""

    k: int
    labels: tuple

    def __post_init__(self):
        if any(not (1 <= l <= self.k) for l in self.labels):
            raise ValueError("edge labels must lie in 1..k")


@dataclass(frozen=True)
class VertexColoring:
    """Total map vertex -> label in [k+1]; labels[0] unused."""

    k: int
    labels: tuple

    def __post_init__(self):
        if any(not (1 <= l <= self.k + 1) for l in self.labels[1:]):
            raise ValueError("vertex labels must lie in 1..k+1")


def _check_sigma(G, sigma, k):
    if sigma.k != k or len(sigma.labels) != G.m:
        raise ValueError("edge coloring does not match (G, k)")


def _check_tau(G, tau, k):
    if tau.k != k or len(tau.labels) != G.n + 1:
        raise ValueError("vertex coloring does not match (G, k)")


MAX_LABELS = 20


@lru_cache(maxsize=None)
def _keep_masks(labels: int) -> tuple:
    """keep[i]: the bits L of a cell over `labels` labels whose set L lacks bit i.

    Raises ValueError past MAX_LABELS, before any cell is allocated.
    """
    if labels > MAX_LABELS:
        raise ValueError("k too large for bitmask labels")
    width = 1 << labels
    keep = []
    for i in range(labels):
        mask, period = (1 << (1 << i)) - 1, 2 << i
        while period < width:
            mask |= mask << period
            period <<= 1
        keep.append(mask)
    return tuple(keep)


def _disjoint_from(L: int, disjoint: dict, keep: tuple) -> int:
    """The bits of a cell whose label sets miss L; memoised in `disjoint`."""
    d = disjoint.get(L)
    if d is None:
        low = L & -L
        d = _disjoint_from(L ^ low, disjoint, keep) & keep[low.bit_length() - 1]
        disjoint[L] = d
    return d


def _join(a: int, b: int, disjoint: dict, keep: tuple) -> int:
    """The cell of every L1 | L2 with L1 in a, L2 in b and L1 & L2 == 0."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        L1 = low.bit_length() - 1
        d = disjoint.get(L1)
        if d is None:
            d = _disjoint_from(L1, disjoint, keep)
        out |= (b & d) << L1
        a ^= low
    return out


def _submasks(L: int):
    """Every submask of L, from L down to 0."""
    sub = L
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & L


def _vertex_unions(n: int, ends: list, row: list) -> list:
    """acc[x]: the union of row[e] over the edges e at vertex x."""
    acc = [0] * (n + 1)
    for (u, v), cell in zip(ends, row):
        if cell:
            acc[u] |= cell
            acc[v] |= cell
    return acc


def _holder(row: list, G: RedBlueGraph, vertices, L: int) -> int:
    """The first edge at the given vertices, in adjacency order, whose cell holds L."""
    return next(e for x in vertices for _, e in G.adjacency[x] if row[e] >> L & 1)


def colorful_bcs_dp(G: RedBlueGraph, sigma: EdgeColoring, k: int,
                    stats: Optional[dict] = None) -> Optional[Witness]:
    """[k]-edge-colorful balanced connected subgraph of size k, if any.

    stats["entries"], when given, counts the (anchor, r, b, label set)
    entries the table reached.
    """
    require_even_k(k)
    _check_sigma(G, sigma, k)
    keep = _keep_masks(k)
    half = k // 2
    m = G.m
    ends = [(u, v) for u, v, _ in G.edges]
    red = [c is EdgeColor.RED for _, _, c in G.edges]
    lab = [l - 1 for l in sigma.labels]
    disjoint = {0: (1 << (1 << k)) - 1}
    # cells[r][b][e]: label sets of connected subgraphs with r red and b blue
    # edges that contain e. near[r][b][e]: those that contain an edge at an
    # end of e and lack e's label (a set holding e itself has e's label).
    cells = [[None] * (half + 1) for _ in range(half + 1)]
    near = [[None] * (half + 1) for _ in range(half + 1)]
    cells[1][0] = [1 << (1 << c) if is_red else 0 for c, is_red in zip(lab, red)]
    cells[0][1] = [0 if is_red else 1 << (1 << c) for c, is_red in zip(lab, red)]
    entries = m
    for j in range(2, k + 1):
        for r, b in count_level(j - 1, half):
            acc = _vertex_unions(G.n, ends, cells[r][b])
            near[r][b] = [(acc[u] | acc[v]) & keep[c] for (u, v), c in zip(ends, lab)]
        alive = False
        for r, b in count_level(j, half):
            row = [0] * m
            for e in range(m):
                if red[e]:
                    if not r:
                        continue
                    rc, bc = r - 1, b
                elif not b:
                    continue
                else:
                    rc, bc = r, b - 1
                cell = near[rc][bc][e]
                for (r1, b1), (r2, b2) in count_splits(rc, bc):
                    if (r1, b1) <= (r2, b2):  # the join is symmetric
                        n1, n2 = near[r1][b1][e], near[r2][b2][e]
                        if n1 and n2:
                            cell |= _join(n1, n2, disjoint, keep)
                if cell:
                    row[e] = cell << (1 << lab[e])
                    entries += cell.bit_count()
                    alive = True
            cells[r][b] = row
        if not alive:
            break
    if stats is not None:
        stats["entries"] = entries
    if not alive:
        return None

    full = (1 << k) - 1
    top = cells[half][half]
    anchor = next((e for e in range(m) if top[e] >> full & 1), None)
    if anchor is None:
        return None
    out = []
    stack = [(anchor, half, half, full)]
    while stack:
        e, r, b, L = stack.pop()
        out.append(e)
        if r + b == 1:
            continue
        rc, bc = (r - 1, b) if red[e] else (r, b - 1)
        rest = L ^ (1 << lab[e])
        if near[rc][bc][e] >> rest & 1:
            stack.append((_holder(cells[rc][bc], G, ends[e], rest), rc, bc, rest))
            continue
        for (r1, b1), (r2, b2) in count_splits(rc, bc):
            n1, n2 = near[r1][b1][e], near[r2][b2][e]
            L1 = next((s for s in _submasks(rest) if n1 >> s & 1 and n2 >> (rest ^ s) & 1),
                      None)
            if L1 is not None:
                stack.append((_holder(cells[r1][b1], G, ends[e], L1), r1, b1, L1))
                stack.append((_holder(cells[r2][b2], G, ends[e], rest ^ L1), r2, b2, rest ^ L1))
                break
    return Witness(WitnessKind.SUBGRAPH, tuple(sorted(out)))


def colorful_bt_dp(G: RedBlueGraph, tau: VertexColoring, k: int) -> Optional[Witness]:
    """[k+1]-vertex-colorful balanced tree with k edges, if any."""
    require_even_k(k)
    _check_tau(G, tau, k)
    keep = _keep_masks(k + 1)
    half = k // 2
    m = G.m
    ends = [(u, v) for u, v, _ in G.edges]
    red = [c is EdgeColor.RED for _, _, c in G.edges]
    lab = [l - 1 for l in tau.labels]
    disjoint = {0: (1 << (1 << (k + 1))) - 1}
    # cells[r][b][e]: vertex label sets of colorful trees with r red and b blue
    # edges that contain e; at[r][b][x]: the union over the edges at x. A tree
    # through x holds x's label, which is what keeps e out of its own sides.
    cells = [[None] * (half + 1) for _ in range(half + 1)]
    at = [[None] * (half + 1) for _ in range(half + 1)]
    base = [1 << ((1 << lab[u]) | (1 << lab[v])) if lab[u] != lab[v] else 0 for u, v in ends]
    cells[1][0] = [c if is_red else 0 for c, is_red in zip(base, red)]
    cells[0][1] = [0 if is_red else c for c, is_red in zip(base, red)]
    for j in range(2, k + 1):
        for r, b in count_level(j - 1, half):
            at[r][b] = _vertex_unions(G.n, ends, cells[r][b])
        alive = False
        for r, b in count_level(j, half):
            row = [0] * m
            for e in range(m):
                if red[e]:
                    if not r:
                        continue
                    rc, bc = r - 1, b
                elif not b:
                    continue
                else:
                    rc, bc = r, b - 1
                u, v = ends[e]
                cu, cv = lab[u], lab[v]
                # u or v a pendant leaf, then a u-side and a v-side subtree
                cell = ((at[rc][bc][v] & keep[cu]) << (1 << cu)
                        | (at[rc][bc][u] & keep[cv]) << (1 << cv))
                for (r1, b1), (r2, b2) in count_splits(rc, bc):
                    n1, n2 = at[r1][b1][u], at[r2][b2][v]
                    if n1 and n2:
                        cell |= _join(n1, n2, disjoint, keep)
                if cell:
                    row[e] = cell
                    alive = True
            cells[r][b] = row
        if not alive:
            return None

    full = (1 << (k + 1)) - 1
    top = cells[half][half]
    anchor = next((e for e in range(m) if top[e] >> full & 1), None)
    if anchor is None:
        return None
    out = []
    stack = [(anchor, half, half, full)]
    while stack:
        e, r, b, L = stack.pop()
        out.append(e)
        if r + b == 1:
            continue
        rc, bc = (r - 1, b) if red[e] else (r, b - 1)
        u, v = ends[e]
        bu, bv = 1 << lab[u], 1 << lab[v]
        if at[rc][bc][v] >> (L ^ bu) & 1:
            stack.append((_holder(cells[rc][bc], G, (v,), L ^ bu), rc, bc, L ^ bu))
            continue
        if at[rc][bc][u] >> (L ^ bv) & 1:
            stack.append((_holder(cells[rc][bc], G, (u,), L ^ bv), rc, bc, L ^ bv))
            continue
        rest = L ^ bu ^ bv
        for (r1, b1), (r2, b2) in count_splits(rc, bc):
            n1, n2 = at[r1][b1][u], at[r2][b2][v]
            s = next((s for s in _submasks(rest) if n1 >> (s | bu) & 1
                      and n2 >> (rest ^ s | bv) & 1), None)
            if s is not None:
                L1, L2 = s | bu, rest ^ s | bv
                stack.append((_holder(cells[r1][b1], G, (u,), L1), r1, b1, L1))
                stack.append((_holder(cells[r2][b2], G, (v,), L2), r2, b2, L2))
                break
    return Witness(WitnessKind.TREE, tuple(sorted(out)))


def colorful_ebp_dp(G: RedBlueGraph, tau: VertexColoring, k: int) -> Optional[Witness]:
    """[k+1]-vertex-colorful balanced path with k edges, if any."""
    require_even_k(k)
    _check_tau(G, tau, k)
    keep = _keep_masks(k + 1)
    half = k // 2
    n = G.n
    lab = [l - 1 for l in tau.labels]
    reds = [[] for _ in range(n + 1)]
    blues = [[] for _ in range(n + 1)]
    for u, v, c in G.edges:
        side = reds if c is EdgeColor.RED else blues
        side[u].append(v)
        side[v].append(u)
    # cells[r][b][v]: vertex label sets of colorful paths ending at v
    cells = [[None] * (half + 1) for _ in range(half + 1)]
    cells[0][0] = [0] + [1 << (1 << c) for c in lab[1:]]
    for j in range(1, k + 1):
        alive = False
        for r, b in count_level(j, half):
            from_red = cells[r - 1][b] if r else None
            from_blue = cells[r][b - 1] if b else None
            row = [0] * (n + 1)
            for v in range(1, n + 1):
                acc = 0
                if from_red is not None:
                    for u in reds[v]:
                        acc |= from_red[u]
                if from_blue is not None:
                    for u in blues[v]:
                        acc |= from_blue[u]
                if acc:
                    c = lab[v]
                    acc = (acc & keep[c]) << (1 << c)
                    if acc:
                        row[v] = acc
                        alive = True
            cells[r][b] = row
        if not alive:
            return None

    full = (1 << (k + 1)) - 1
    top = cells[half][half]
    v = next((v for v in range(1, n + 1) if top[v] >> full & 1), None)
    if v is None:
        return None
    # step back through the first neighbour, in adjacency order, holding the rest
    out = []
    r, b, L = half, half, full
    while r + b:
        L ^= 1 << lab[v]
        for u, e in G.adjacency[v]:
            rc, bc = (r - 1, b) if G.edges[e][2] is EdgeColor.RED else (r, b - 1)
            if rc >= 0 and bc >= 0 and cells[rc][bc][u] >> L & 1:
                out.append(e)
                v, r, b = u, rc, bc
                break
    return Witness(WitnessKind.PATH, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# Coloring-family drivers
# ---------------------------------------------------------------------------

_FAMILY_SEED = 987654321
_FAMILY_POOL = 24
_FAMILY_MAX_UNIVERSE = 20
_FAMILY_MAX_LABELS = 6
# family_driver past greedy_hash_family's scale: random colorings at this
# failure probability and seed
_FALLBACK_DELTA = 1e-3
_FALLBACK_SEED = _FAMILY_SEED


@lru_cache(maxsize=None)
def greedy_hash_family(universe_size: int, k: int) -> tuple:
    """Colorings of [universe_size] with [k] labels rainbowing every k-subset.

    Greedy set cover over the explicit k-subsets; deterministic. Test-scale
    only: universe_size <= 20, k <= 6.
    """
    m, kk = universe_size, k
    if m > _FAMILY_MAX_UNIVERSE or kk > _FAMILY_MAX_LABELS:
        raise ValueError("greedy_hash_family scale limit exceeded (m <= 20, k <= 6)")
    if kk < 1 or m < kk:
        raise ValueError("need 1 <= k <= universe_size")
    subsets = [frozenset(c) for c in combinations(range(m), kk)]
    uncovered = set(range(len(subsets)))
    rng = random.Random(_FAMILY_SEED + 1000003 * m + kk)
    family = []

    def coverage(sig):
        return [i for i in uncovered if len({sig[x] for x in subsets[i]}) == kk]

    first = tuple((i % kk) + 1 for i in range(m))
    while uncovered:
        pool = [first] if not family else []
        pool.extend(tuple(rng.randrange(1, kk + 1) for _ in range(m)) for _ in range(_FAMILY_POOL))
        best, best_cov = None, []
        for sig in pool:
            cov = coverage(sig)
            if len(cov) > len(best_cov):
                best, best_cov = sig, cov
        if not best_cov:
            # direct cover of one uncovered subset; guarantees progress
            target = sorted(subsets[min(uncovered)])
            sig = list(first)
            for lab, x in enumerate(target, start=1):
                sig[x] = lab
            best = tuple(sig)
            best_cov = coverage(best)
        family.append(best)
        uncovered.difference_update(best_cov)
    return tuple(family)


def coloring_universe(G: RedBlueGraph, k: int, kind: WitnessKind) -> tuple:
    """(size, labels): k labels on the edges for subgraphs, k + 1 on the vertices otherwise."""
    return (G.m, k) if kind is WitnessKind.SUBGRAPH else (G.n, k + 1)


def random_labels(rng: random.Random, G: RedBlueGraph, k: int, kind: WitnessKind) -> tuple:
    """A uniformly random label tuple over kind's coloring universe."""
    size, labels = coloring_universe(G, k, kind)
    return tuple(rng.randrange(1, labels + 1) for _ in range(size))


def colorful_dp(G: RedBlueGraph, k: int, kind: WitnessKind, labels: tuple) -> Optional[Witness]:
    """kind's colorful DP under labels over coloring_universe (vertices 1..n).

    Looks the DP up in this module at each call, so a rebound colorful_*_dp is used.
    """
    if kind is WitnessKind.SUBGRAPH:
        return colorful_bcs_dp(G, EdgeColoring(k, labels), k)
    tau = VertexColoring(k, (0,) + labels)
    if kind is WitnessKind.TREE:
        return colorful_bt_dp(G, tau, k)
    return colorful_ebp_dp(G, tau, k)


def _feasible(G: RedBlueGraph, k: int, kind: WitnessKind) -> bool:
    """Cheap exact necessary conditions; False means the instance is a No."""
    half = k // 2
    if G.m < k or len(G.red_edges()) < half or len(G.blue_edges()) < half:
        return False
    if kind in (WitnessKind.TREE, WitnessKind.PATH) and G.n < k + 1:
        return False
    # some connected component must carry >= k/2 of each color
    comp = G._component
    reds = [0] * (G.n + 1)
    blues = [0] * (G.n + 1)
    for u, _, c in G.edges:
        if c is EdgeColor.RED:
            reds[comp[u]] += 1
        else:
            blues[comp[u]] += 1
    return any(r >= half and b >= half for r, b in zip(reds, blues))


def family_driver(G: RedBlueGraph, k: int, kind: WitnessKind) -> Optional[Witness]:
    """Run the colorful DP over the greedy hash family; exact at family scale.

    Past greedy_hash_family's scale (more than 20 edges for subgraphs or
    vertices for trees and paths, or more than 6 labels) it returns
    random_coloring_driver(G, k, kind, _FALLBACK_DELTA, _FALLBACK_SEED)
    instead, which is one-sided: a witness is always valid, and a solution is
    missed with probability at most _FALLBACK_DELTA = 1e-3.
    """
    require_even_k(k)
    if not _feasible(G, k, kind):
        return None
    universe, labels = coloring_universe(G, k, kind)
    if universe > _FAMILY_MAX_UNIVERSE or labels > _FAMILY_MAX_LABELS:
        return random_coloring_driver(G, k, kind, _FALLBACK_DELTA, _FALLBACK_SEED)
    for sig in greedy_hash_family(universe, labels):
        w = colorful_dp(G, k, kind, sig)
        if w is not None:
            return w
    return None


def random_coloring_driver(
    G: RedBlueGraph,
    k: int,
    kind: WitnessKind,
    failure_prob: float,
    seed: int,
) -> Optional[Witness]:
    """Monte Carlo driver: ceil(e^k ln(1/delta)) random colorings through the DP.

    One-sided: a returned witness is always valid; when a size-k solution
    exists, absence is reported with probability <= delta.
    """
    require_even_k(k)
    if not (0.0 < failure_prob < 1.0):
        raise ValueError("failure probability must lie in (0, 1)")
    if not _feasible(G, k, kind):
        return None
    trials = math.ceil(math.exp(k) * math.log(1.0 / failure_prob))
    rng = random.Random(seed)
    for _ in range(trials):
        w = colorful_dp(G, k, kind, random_labels(rng, G, k, kind))
        if w is not None:
            return w
    return None
