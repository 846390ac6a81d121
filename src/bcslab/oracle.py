"""Brute-force ground truth for the three balanced problems.

Deliberately exponential: a balanced candidate of size h is assembled as a
choice of h/2 red edges times h/2 blue edges, then checked against the kind
predicate. A configurable node budget (default 10^7 examined candidates)
turns runaway inputs into a clean error instead of a hang. Keep m <= ~22.
"""
from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Optional

from .graphs import RedBlueGraph, Witness, WitnessKind, _edge_set_connected, require_even_k


DEFAULT_BUDGET = 10**7


class OracleBudgetError(RuntimeError):
    """Enumeration budget exceeded."""


class SolveMode(Enum):
    EXACT = "exact"
    AT_LEAST = "at_least"


def _kind_ok(G: RedBlueGraph, idx: tuple, kind: WitnessKind) -> bool:
    """Connected plus the kind-specific shape; balance is enforced by construction."""
    verts = set()
    deg = {}
    for i in idx:
        u, v, _ = G.edges[i]
        verts.add(u)
        verts.add(v)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if kind is not WitnessKind.SUBGRAPH:
        if len(verts) != len(idx) + 1:
            return False
    if kind is WitnessKind.PATH:
        if any(d > 2 for d in deg.values()):
            return False
    return _edge_set_connected(G, idx)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise OracleBudgetError("oracle enumeration budget exceeded")


def _balanced_candidates(G: RedBlueGraph, h: int, budget: _Budget):
    """Yield edge-index tuples with h/2 red + h/2 blue edges, h >= 2 even."""
    half = h // 2
    _, reds, blues = G._edge_lists
    if len(reds) < half or len(blues) < half:
        return
    for rc in combinations(reds, half):
        for bc in combinations(blues, half):
            budget.spend()
            yield rc + bc


def _witness_sets(G: RedBlueGraph, h: int, kind: WitnessKind, budget: _Budget):
    """Yield the valid witnesses of size h as sorted edge-index tuples, in
    enumeration order; a tree or path needs h + 1 vertices."""
    if kind is not WitnessKind.SUBGRAPH and h + 1 > G.n:
        return
    for cand in _balanced_candidates(G, h, budget):
        if _kind_ok(G, cand, kind):
            yield tuple(sorted(cand))


def oracle_solve(
    G: RedBlueGraph,
    k: int,
    kind: WitnessKind,
    mode: SolveMode = SolveMode.EXACT,
    budget: int = DEFAULT_BUDGET,
) -> Optional[Witness]:
    """Smallest valid balanced witness of size exactly k (EXACT) or >= k (AT_LEAST).

    Returned witnesses always pass validate_witness. None when no witness exists.
    """
    require_even_k(k)
    b = _Budget(budget)
    sizes = [k] if mode is SolveMode.EXACT else range(k, G.m + 1, 2)
    for h in sizes:
        for found in _witness_sets(G, h, kind, b):
            return Witness(kind, found)
    return None


def oracle_count(
    G: RedBlueGraph,
    k: int,
    kind: WitnessKind,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of balanced edge subsets of size k satisfying the kind."""
    require_even_k(k)
    return sum(1 for _ in _witness_sets(G, k, kind, _Budget(budget)))


def all_witness_sets(
    G: RedBlueGraph,
    k: int,
    kind: WitnessKind,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """All witness edge sets of size exactly k, as sorted tuples (test helper)."""
    require_even_k(k)
    return list(_witness_sets(G, k, kind, _Budget(budget)))
