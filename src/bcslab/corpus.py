"""Instance corpora for cross-checks and the acceptance suite.

Small graphs are enumerated up to isomorphism (canonical form = minimum
edge-bitmask over all vertex permutations, vectorized with numpy), then every
red-blue coloring of each class representative is emitted. Random instances
come from seeded generators so a corpus is a pure function of its parameters.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterator, List

import numpy as np

from .graphs import EdgeColor, RedBlueGraph, induced_connected


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple:
    """Edge-list representatives of all isomorphism classes on n vertices."""
    if n > 7:
        raise ValueError("permutation canonicalization is for n <= 7")
    pairs = list(combinations(range(n), 2))
    pidx = {p: i for i, p in enumerate(pairs)}
    perms = []
    from itertools import permutations

    for pm in permutations(range(n)):
        perms.append([pidx[tuple(sorted((pm[a], pm[b])))] for a, b in pairs])
    permbits = np.array(perms, dtype=np.int64)  # (n!, |pairs|) target bit positions
    seen = set()
    reps = []
    for mask in range(1 << len(pairs)):
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        if bits:
            imgs = np.bitwise_or.reduce(1 << permbits[:, bits].astype(np.int64), axis=1)
            canon = int(imgs.min())
        else:
            canon = 0
        if canon in seen:
            continue
        seen.add(canon)
        reps.append(tuple((a + 1, b + 1) for a, b in (pairs[i] for i in bits)))
    return tuple(reps)


def all_colorings(edges: tuple) -> Iterator[tuple]:
    m = len(edges)
    for mask in range(1 << m):
        yield tuple(
            (u, v, EdgeColor.RED if mask >> i & 1 else EdgeColor.BLUE)
            for i, (u, v) in enumerate(edges)
        )


def exhaustive_corpus(max_n: int) -> Iterator[RedBlueGraph]:
    """Every coloring of every graph isomorphism class on 1..max_n vertices."""
    for n in range(1, max_n + 1):
        for edges in nonisomorphic_graphs(n):
            for colored in all_colorings(edges):
                yield RedBlueGraph(n, colored)


def random_graph(n: int, p: float, seed: int) -> RedBlueGraph:
    rng = random.Random(seed)
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < p:
                color = EdgeColor.RED if rng.random() < 0.5 else EdgeColor.BLUE
                edges.append((a, b, color))
    return RedBlueGraph(n, tuple(edges))


def random_corpus(count: int = 200, max_n: int = 8, base_seed: int = 20240) -> List[RedBlueGraph]:
    """Seeded random instances with 4 <= n <= max_n (deterministic in its arguments)."""
    if max_n < 4:
        raise ValueError(f"random corpus sizes start at 4 vertices, got max_n {max_n}")
    out = []
    sizes = list(range(4, max_n + 1))
    probs = [0.25, 0.4, 0.55]
    i = 0
    while len(out) < count:
        n = sizes[i % len(sizes)]
        p = probs[i % len(probs)]
        g = random_graph(n, p, base_seed + i)
        i += 1
        if g.m >= 2:
            out.append(g)
    return out


@lru_cache(maxsize=None)
def split_graph_classes(max_n: int) -> tuple:
    """Iso-class representatives that are split graphs, n <= max_n."""
    from .graphs import split_partition

    out = []
    for n in range(1, max_n + 1):
        for edges in nonisomorphic_graphs(n):
            g = RedBlueGraph(n, tuple((u, v, EdgeColor.RED) for u, v in edges))
            if split_partition(g) is not None:
                out.append((n, edges))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_graph_classes(max_n: int) -> tuple:
    out = []
    for n in range(1, max_n + 1):
        for edges in nonisomorphic_graphs(n):
            if induced_connected(range(1, n + 1), edges):
                out.append((n, edges))
    return tuple(out)
