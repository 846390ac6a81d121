"""Hardness-construction instance generators, used as adversarial corpora.

steiner_to_ebcs colors the source graph blue and hangs exactly k red pendant
edges off the terminals (extras at the first terminal), so a balanced
connected subgraph of size 2k must pick up every red edge, hence every
terminal. longest_path_split_to_ebp hangs a red path of length k at u0 and
blue-saturates the even-index new vertices against the clique, keeping the
result split. Both emit the intended witness for YES sources, so tests can
compare witnesses and not just decisions.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graphs import EdgeColor, RedBlueGraph, Witness, WitnessKind, induced_connected


@dataclass(frozen=True)
class GeneratedInstance:
    graph: RedBlueGraph
    target: int  # solve for size >= target (equals 2k)
    kind: WitnessKind
    intended: Optional[Witness]
    info: dict


def _steiner_vertices(n: int, edges: list, terminals) -> Optional[set]:
    """The first connected vertex superset of the terminals, by size and then
    in combination order of the other vertices; None if there is none.

    A Steiner tree on vertex set W has |W|-1 edges, and any connected G[W]
    contains one, so this set spans a smallest Steiner tree.
    """
    terminals = set(terminals)
    others = [v for v in range(1, n + 1) if v not in terminals]
    for extra in range(len(others) + 1):
        for add in combinations(others, extra):
            W = terminals | set(add)
            if induced_connected(W, edges):
                return W
    return None


def steiner_min_edges(n: int, edges: list, terminals: set) -> Optional[int]:
    """Fewest edges of a subtree spanning the terminals; None if disconnected."""
    W = _steiner_vertices(n, edges, terminals)
    return None if W is None else len(W) - 1


def steiner_to_ebcs(n: int, edges: list, terminals: list, k: int) -> GeneratedInstance:
    """Steiner source (G, T, k) -> balanced-connected-subgraph instance (H, 2k)."""
    T = list(dict.fromkeys(terminals))
    if not (1 <= len(T) <= k <= len(edges)):
        raise ValueError("need |T| <= k <= |E(G)|")
    if not induced_connected(range(1, n + 1), edges):
        raise ValueError("source graph must be connected")
    hedges = [(u, v, EdgeColor.BLUE) for u, v in edges]
    nn = n
    for t in T:
        nn += 1
        hedges.append((t, nn, EdgeColor.RED))
    for _ in range(k - len(T)):
        nn += 1
        hedges.append((T[0], nn, EdgeColor.RED))
    H = RedBlueGraph(nn, tuple(hedges))

    intended = None
    W = _steiner_vertices(n, edges, T)
    if W is not None and len(W) - 1 <= k:
        # forward witness: a spanning tree of G[W], then greedy padding with
        # adjacent edges to exactly k blue edges
        chosen = []
        seen = {min(W)}
        grew = True
        while grew:
            grew = False
            for i, (u, v) in enumerate(edges):
                if i in chosen:
                    continue
                if (u in seen) != (v in seen) and (u in W and v in W):
                    chosen.append(i)
                    seen |= {u, v}
                    grew = True
        while len(chosen) < k:
            for i, (u, v) in enumerate(edges):
                if i not in chosen and (u in seen or v in seen):
                    chosen.append(i)
                    seen |= {u, v}
                    break
            else:
                raise AssertionError("cannot pad witness; |E| >= k was checked")
        red_part = list(range(len(edges), len(hedges)))
        intended = Witness(WitnessKind.SUBGRAPH, tuple(sorted(chosen + red_part)))
    return GeneratedInstance(
        H, 2 * k, WitnessKind.SUBGRAPH, intended,
        {"reduction": "steiner", "n": n, "terminals": T, "k": k},
    )


def _simple_paths(n: int, edges: list, u0: int):
    """Every simple path from u0 as a vertex list, in depth-first preorder with
    neighbours ascending. Iterative, so path length is not bounded by the
    recursion limit; the list yielded is the search's own, copy it to keep it.
    """
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj.values():
        a.sort()
    path, on_path, untried = [u0], {u0}, [iter(adj[u0])]
    yield path
    while untried:
        y = next((y for y in untried[-1] if y not in on_path), None)
        if y is None:
            untried.pop()
            on_path.discard(path.pop())
        else:
            path.append(y)
            on_path.add(y)
            untried.append(iter(adj[y]))
            yield path


def longest_path_from(n: int, edges: list, u0: int) -> int:
    """Length (edge count) of the longest simple path starting at u0."""
    return max(len(p) for p in _simple_paths(n, edges, u0)) - 1


def longest_path_split_to_ebp(
    n: int,
    edges: list,
    clique: set,
    independent: set,
    u0: int,
    k: int,
) -> GeneratedInstance:
    """Longest-path-from-u0 source on a split graph -> balanced-path instance (H, 2k)."""
    clique, independent = set(clique), set(independent)
    if clique | independent != set(range(1, n + 1)) or clique & independent:
        raise ValueError("clique/independent must partition the vertices")
    # one pass over the edges: count distinct clique pairs, catch independent pairs
    inside, independent_edge = set(), False
    for u, v in edges:
        if u != v and u in clique and v in clique:
            inside.add((min(u, v), max(u, v)))
        elif u != v and u in independent and v in independent:
            independent_edge = True
    if len(inside) != len(clique) * (len(clique) - 1) // 2:
        raise ValueError("clique part is not a clique")
    if independent_edge:
        raise ValueError("independent part is not independent")
    if u0 not in clique:
        raise ValueError("u0 must lie in the clique part")
    if k < 1:
        raise ValueError("k must be positive")

    hedges = [(u, v, EdgeColor.BLUE) for u, v in edges]
    us = [n + i for i in range(1, k + 1)]  # u_1 .. u_k
    hedges.append((u0, us[0], EdgeColor.RED))
    for a, b in zip(us, us[1:]):
        hedges.append((a, b, EdgeColor.RED))
    # Clique side S takes the u_i whose index parity differs from k, so that
    # u_k stays on the independent side: a balanced path must then end at u_k
    # and cannot leak back into the clique past the red spine. (Indexing S by
    # the even positions regardless of k would put u_k in S for even k and
    # break the backward direction of the equivalence.)
    start = 1 if k % 2 == 0 else 2
    S = [us[i - 1] for i in range(start, k + 1, 2)]
    for a, b in combinations(S, 2):
        hedges.append((a, b, EdgeColor.BLUE))
    for c in sorted(clique):
        for s in S:
            if (c, s) == (u0, us[0]):
                continue  # already present as the red attachment edge
            hedges.append((c, s, EdgeColor.BLUE))
    H = RedBlueGraph(n + k, tuple(hedges))

    intended = None
    best = _longest_path_vertices(n, edges, u0, k)
    if best is not None:
        # path u_k .. u_1 u0 x_1 .. x_k: red spine plus k blue source edges
        seq = list(reversed(us)) + best
        eidx = [dict(H.adjacency[a])[b] for a, b in zip(seq, seq[1:])]
        intended = Witness(WitnessKind.PATH, tuple(sorted(eidx)))
    return GeneratedInstance(
        H, 2 * k, WitnessKind.PATH, intended,
        {"reduction": "splitpath", "n": n, "u0": u0, "k": k,
         "clique": sorted(clique | set(S)),
         "independent": sorted(independent | (set(us) - set(S)))},
    )


def _longest_path_vertices(n, edges, u0, k):
    """The first simple path of exactly k edges from u0 in `_simple_paths`
    order, as a vertex list, or None."""
    return next((p[:] for p in _simple_paths(n, edges, u0) if len(p) == k + 1), None)
