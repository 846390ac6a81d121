"""Colorful dynamic programs and coloring-family drivers.

An edge coloring sigma: E -> [k] (or vertex coloring tau: V -> [k+1]) turns
the balanced search into a colorful one: the DPs below decide whether some
balanced structure uses every label exactly once, in time ~ 4^k, and
reconstruct a witness through stored predecessors. Two drivers lift the
colorful DPs back to the uncolored problems: a Monte Carlo loop with
ceil(e^k ln(1/delta)) uniformly random colorings, and a greedy-cover hash
family that is exact at test scale.

Label subsets are bitmasks (label i occupies bit i-1); k is capped at 62.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .graphs import EdgeColor, RedBlueGraph, Witness, WitnessKind, require_even_k


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


def _merge_cells(table, anchors, key_rb):
    """Union of {Lmask: anchor} over anchor cells at fixed (r, b); first anchor wins."""
    merged = {}
    for a in anchors:
        cell = table.get((a,) + key_rb)
        if cell:
            for L in cell:
                if L not in merged:
                    merged[L] = a
    return merged


def colorful_bcs_dp(G: RedBlueGraph, sigma: EdgeColoring, k: int,
                    stats: Optional[dict] = None) -> Optional[Witness]:
    """[k]-edge-colorful balanced connected subgraph of size k, if any."""
    require_even_k(k)
    _check_sigma(G, sigma, k)
    if k > 62:
        raise ValueError("k too large for bitmask labels")
    half = k // 2
    sbit = [1 << (l - 1) for l in sigma.labels]
    nbrs = [G.edge_neighbors(e) for e in range(G.m)]
    red = [G.color(e) is EdgeColor.RED for e in range(G.m)]

    table = {}  # (e, r, b) -> {Lmask: backptr}
    for e in range(G.m):
        key = (e, 1, 0) if red[e] else (e, 0, 1)
        table.setdefault(key, {})[sbit[e]] = ("base",)
    for j in range(2, k + 1):
        alive = False
        for r in range(max(0, j - half), min(half, j) + 1):
            b = j - r
            for e in range(G.m):
                if (red[e] and r == 0) or (not red[e] and b == 0):
                    continue
                bit = sbit[e]
                rc, bc = (r - 1, b) if red[e] else (r, b - 1)
                cell = {}
                for e2 in nbrs[e]:
                    child = table.get((e2, rc, bc))
                    if not child:
                        continue
                    for L2 in child:
                        if L2 & bit:
                            continue
                        L = L2 | bit
                        if L not in cell:
                            cell[L] = ("ext", e2, L2, rc, bc)
                for r1 in range(0, rc + 1):
                    for b1 in range(0, bc + 1):
                        if r1 + b1 < 1 or (rc - r1) + (bc - b1) < 1:
                            continue
                        r2, b2 = rc - r1, bc - b1
                        m1 = _merge_cells(table, nbrs[e], (r1, b1))
                        if not m1:
                            continue
                        m2 = _merge_cells(table, nbrs[e], (r2, b2))
                        if not m2:
                            continue
                        for L1, e1 in m1.items():
                            if L1 & bit:
                                continue
                            for L2, e2 in m2.items():
                                if L2 & (L1 | bit):
                                    continue
                                L = L1 | L2 | bit
                                if L not in cell:
                                    cell[L] = ("split", e1, L1, r1, b1, e2, L2, r2, b2)
                if cell:
                    table[(e, r, b)] = cell
                    alive = True
        if not alive:
            if stats is not None:
                stats["entries"] = sum(len(c) for c in table.values())
            return None
    if stats is not None:
        stats["entries"] = sum(len(c) for c in table.values())

    full = (1 << k) - 1

    def edges_of(e, r, b, L):
        out = set()
        stack = [(e, r, b, L)]
        while stack:
            e, r, b, L = stack.pop()
            out.add(e)
            bp = table[(e, r, b)][L]
            if bp[0] == "ext":
                _, e2, L2, rc, bc = bp
                stack.append((e2, rc, bc, L2))
            elif bp[0] == "split":
                _, e1, L1, r1, b1, e2, L2, r2, b2 = bp
                stack.append((e1, r1, b1, L1))
                stack.append((e2, r2, b2, L2))
        return out

    for e in range(G.m):
        cell = table.get((e, half, half))
        if cell and full in cell:
            return Witness(WitnessKind.SUBGRAPH, tuple(sorted(edges_of(e, half, half, full))))
    return None


def colorful_bt_dp(G: RedBlueGraph, tau: VertexColoring, k: int) -> Optional[Witness]:
    """[k+1]-vertex-colorful balanced tree with k edges, if any."""
    require_even_k(k)
    _check_tau(G, tau, k)
    if k + 1 > 62:
        raise ValueError("k too large for bitmask labels")
    half = k // 2
    vbit = [0] + [1 << (l - 1) for l in tau.labels[1:]]
    red = [G.color(e) is EdgeColor.RED for e in range(G.m)]
    # neighbors of edge e incident to a given endpoint
    at = []  # at[e] = (edges at u other than e, edges at v other than e)
    for e in range(G.m):
        u, v, _ = G.edges[e]
        eu = sorted(j for w, j in G.adjacency[u] if j != e and w != v)
        ev = sorted(j for w, j in G.adjacency[v] if j != e and w != u)
        at.append((eu, ev))

    table = {}
    for e in range(G.m):
        u, v, _ = G.edges[e]
        if vbit[u] == vbit[v]:
            continue
        key = (e, 1, 0) if red[e] else (e, 0, 1)
        table.setdefault(key, {})[vbit[u] | vbit[v]] = ("base",)
    for j in range(2, k + 1):
        alive = False
        for r in range(max(0, j - half), min(half, j) + 1):
            b = j - r
            for e in range(G.m):
                if (red[e] and r == 0) or (not red[e] and b == 0):
                    continue
                u, v, _ = G.edges[e]
                bu, bv = vbit[u], vbit[v]
                rc, bc = (r - 1, b) if red[e] else (r, b - 1)
                eu, ev = at[e]
                cell = {}
                # u is a pendant leaf: rest anchored at an edge through v
                for e2 in ev:
                    child = table.get((e2, rc, bc))
                    if not child:
                        continue
                    for L2 in child:
                        if L2 & bu:
                            continue
                        L = L2 | bu
                        if L not in cell:
                            cell[L] = ("pend", e2, L2, rc, bc, u)
                # v is a pendant leaf
                for e2 in eu:
                    child = table.get((e2, rc, bc))
                    if not child:
                        continue
                    for L2 in child:
                        if L2 & bv:
                            continue
                        L = L2 | bv
                        if L not in cell:
                            cell[L] = ("pend", e2, L2, rc, bc, v)
                # split: u-side tree (anchored at e1 through u) + v-side tree
                for r1 in range(0, rc + 1):
                    for b1 in range(0, bc + 1):
                        if r1 + b1 < 1 or (rc - r1) + (bc - b1) < 1:
                            continue
                        r2, b2 = rc - r1, bc - b1
                        m1 = _merge_cells(table, eu, (r1, b1))
                        if not m1:
                            continue
                        m2 = _merge_cells(table, ev, (r2, b2))
                        if not m2:
                            continue
                        for L1, e1 in m1.items():
                            for L2, e2 in m2.items():
                                if L1 & L2:
                                    continue
                                L = L1 | L2
                                if L not in cell:
                                    cell[L] = ("split", e1, L1, r1, b1, e2, L2, r2, b2)
                if cell:
                    table[(e, r, b)] = cell
                    alive = True
        if not alive:
            return None

    full = (1 << (k + 1)) - 1

    def edges_of(e, r, b, L):
        out = set()
        stack = [(e, r, b, L)]
        while stack:
            e, r, b, L = stack.pop()
            out.add(e)
            bp = table[(e, r, b)][L]
            if bp[0] == "pend":
                _, e2, L2, rc, bc, _leaf = bp
                stack.append((e2, rc, bc, L2))
            elif bp[0] == "split":
                _, e1, L1, r1, b1, e2, L2, r2, b2 = bp
                stack.append((e1, r1, b1, L1))
                stack.append((e2, r2, b2, L2))
        return out

    for e in range(G.m):
        cell = table.get((e, half, half))
        if cell and full in cell:
            return Witness(WitnessKind.TREE, tuple(sorted(edges_of(e, half, half, full))))
    return None


def colorful_ebp_dp(G: RedBlueGraph, tau: VertexColoring, k: int) -> Optional[Witness]:
    """[k+1]-vertex-colorful balanced path with k edges, if any."""
    require_even_k(k)
    _check_tau(G, tau, k)
    if k + 1 > 62:
        raise ValueError("k too large for bitmask labels")
    half = k // 2
    vbit = [0] + [1 << (l - 1) for l in tau.labels[1:]]

    table = {}  # (v, r, b) -> {Lmask: backptr}; paths ending at v
    for v in range(1, G.n + 1):
        table[(v, 0, 0)] = {vbit[v]: ("base",)}
    for j in range(1, k + 1):
        alive = False
        for r in range(max(0, j - half), min(half, j) + 1):
            b = j - r
            for v in range(1, G.n + 1):
                bitv = vbit[v]
                cell = {}
                for u, e in G.adjacency[v]:
                    if G.color(e) is EdgeColor.RED:
                        rc, bc = r - 1, b
                    else:
                        rc, bc = r, b - 1
                    if rc < 0 or bc < 0:
                        continue
                    child = table.get((u, rc, bc))
                    if not child:
                        continue
                    for L2 in child:
                        if L2 & bitv:
                            continue
                        L = L2 | bitv
                        if L not in cell:
                            cell[L] = ("step", u, L2, rc, bc, e)
                if cell:
                    table[(v, r, b)] = cell
                    alive = True
        if not alive:
            return None

    full = (1 << (k + 1)) - 1

    def edges_of(v, r, b, L):
        out = []
        while True:
            bp = table[(v, r, b)][L]
            if bp[0] == "base":
                return out
            _, u, L2, rc, bc, e = bp
            out.append(e)
            v, r, b, L = u, rc, bc, L2

    for v in range(1, G.n + 1):
        cell = table.get((v, half, half))
        if cell and full in cell:
            return Witness(WitnessKind.PATH, tuple(sorted(edges_of(v, half, half, full))))
    return None


# ---------------------------------------------------------------------------
# Coloring-family drivers
# ---------------------------------------------------------------------------

_FAMILY_SEED = 987654321
_FAMILY_POOL = 24


@lru_cache(maxsize=None)
def greedy_hash_family(universe_size: int, k: int) -> tuple:
    """Colorings of [universe_size] with [k] labels rainbowing every k-subset.

    Greedy set cover over the explicit k-subsets; deterministic. Test-scale
    only: universe_size <= 20, k <= 6.
    """
    m, kk = universe_size, k
    if m > 20 or kk > 6:
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


def _dp_for(kind):
    return {
        WitnessKind.SUBGRAPH: colorful_bcs_dp,
        WitnessKind.TREE: colorful_bt_dp,
        WitnessKind.PATH: colorful_ebp_dp,
    }[kind]


def _feasible(G: RedBlueGraph, k: int, kind: WitnessKind) -> bool:
    """Cheap exact necessary conditions; False means the instance is a No."""
    half = k // 2
    if G.m < k or len(G.red_edges()) < half or len(G.blue_edges()) < half:
        return False
    if kind in (WitnessKind.TREE, WitnessKind.PATH) and G.n < k + 1:
        return False
    # some connected component must carry >= k/2 of each color
    seen = set()
    for s in range(1, G.n + 1):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y, _ in G.adjacency[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        cr = cb = 0
        for u, v, c in G.edges:
            if u in comp:
                if c is EdgeColor.RED:
                    cr += 1
                else:
                    cb += 1
        if cr >= half and cb >= half and cr + cb >= k:
            return True
    return False


def family_driver(G: RedBlueGraph, k: int, kind: WitnessKind) -> Optional[Witness]:
    """Run the colorful DP over the greedy hash family; exact at family scale."""
    require_even_k(k)
    if not _feasible(G, k, kind):
        return None
    dp = _dp_for(kind)
    if kind is WitnessKind.SUBGRAPH:
        for sig in greedy_hash_family(G.m, k):
            w = dp(G, EdgeColoring(k, sig), k)
            if w is not None:
                return w
    else:
        for sig in greedy_hash_family(G.n, k + 1):
            w = dp(G, VertexColoring(k, (0,) + sig), k)
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
    dp = _dp_for(kind)
    for _ in range(trials):
        if kind is WitnessKind.SUBGRAPH:
            sig = tuple(rng.randrange(1, k + 1) for _ in range(G.m))
            w = dp(G, EdgeColoring(k, sig), k)
        else:
            sig = (0,) + tuple(rng.randrange(1, k + 2) for _ in range(G.n))
            w = dp(G, VertexColoring(k, sig), k)
        if w is not None:
            return w
    return None
