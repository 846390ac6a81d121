"""Constructive shrinking of balanced witnesses.

Given a large balanced path/tree/connected subgraph, produce a strictly
smaller balanced witness of size >= k. Paths split at a zero of the running
red-minus-blue profile; trees delete a red+blue pendant pair or rebalance
across a subtree split; connected subgraphs go through the line graph, where
the tree procedure runs in its vertex-colored form.

Two boundary repairs relative to the source construction, both exercised by
the exhaustive small-case sweeps:
  * the subtree split picks the least child prefix reaching k+1 vertices
    (the thirds-based crossing need not exist for small integer sizes); both
    parts then have between k+1 and n-k-1 vertices, which is all the
    rebalancing argument uses;
  * the rebalancing side is always the pendant-color-heavy part, which makes
    the stop-before-exhaustion argument airtight for both orientations.

The steps run on incremental engines. `shrink_to_range` validates its input
once and then steps one engine to the target range; each public single step
(`shrink_path`, `shrink_tree`, `shrink_subgraph`) validates, builds an engine
and takes one step, so a chain of single steps returns exactly what
`shrink_to_range` returns. The engines keep:
  * paths (also trees that have become paths, and line-graph trees that are
    paths): the atoms in path order, prefix sums of the red(+1)/blue(-1)
    profile, the ascending positions of each prefix value and a [lo, hi)
    window. A terminal trim moves both window ends; a split bisects for the
    first interior zero seen from the smaller end vertex. O(log L) a step;
  * trees: vertex degrees, the number of vertices of degree >= 3 and a
    min-heap of pendant edges per color. A pendant edge stays pendant until
    it is deleted, so heap entries never go stale. Case (b) is O(log L);
  * connected subgraphs: the BFS spanning tree of the line graph from the
    minimum edge id, with degrees and a min-heap of leaves per color.
    Deleting two leaves a, b other than the root leaves exactly the BFS tree
    of the subgraph without a and b, so case (b) and terminal trims are
    O(log L) as well.
A tree engine is rebuilt after case (c); a subgraph engine also after a path
split and after case (b) deletes its root. The total cost is O(L log L) plus one
rebuild for each of those steps, where the step-by-step chain revalidated and
rebuilt everything at every step, which is quadratic in L.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import List

from .graphs import (
    EdgeColor,
    RedBlueGraph,
    Witness,
    WitnessKind,
    validate_witness,
)

RED, BLUE = EdgeColor.RED, EdgeColor.BLUE


class ShrinkPreconditionError(ValueError):
    """Input is not a valid balanced witness of the required size/kind."""


@dataclass(frozen=True)
class BalanceProfile:
    """Running red(+1)/blue(-1) totals along a path, in path order.

    Values live in the integers: the construction evaluates -1 on the way to
    its final zero even though the source declares naturals.
    """

    values: tuple

    def __post_init__(self):
        if self.values:
            if self.values[0] not in (1, -1):
                raise ValueError("profile must start at +1 or -1")
            for a, b in zip(self.values, self.values[1:]):
                if abs(a - b) != 1:
                    raise ValueError("consecutive profile values must differ by 1")

    def zeros(self) -> List[int]:
        """1-based positions carrying value 0."""
        return [i + 1 for i, v in enumerate(self.values) if v == 0]


def balance_profile(colors) -> BalanceProfile:
    vals = []
    h = 0
    for c in colors:
        h += 1 if c is RED else -1
        vals.append(h)
    return BalanceProfile(tuple(vals))


def _require_valid(G, w, kind, min_size, k, what):
    if w.kind is not kind:
        raise ShrinkPreconditionError(f"{what}: witness kind must be {kind.value}")
    rep = validate_witness(G, w, w.size)
    if not rep.valid:
        raise ShrinkPreconditionError(f"{what}: {'; '.join(rep.failures)}")
    if w.size < min_size:
        raise ShrinkPreconditionError(f"{what}: needs >= {min_size} edges, got {w.size}")
    if k < 2:
        raise ShrinkPreconditionError(f"{what}: k must be >= 2")


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


class _Path:
    """A balanced path of atoms in a fixed order, shrunk as a [lo, hi) window.

    head[j] and tail[j] are the end vertices of atom j in that order (both
    are the atom itself for vertex atoms); a step reads the window from its
    smaller end vertex, as the step-by-step procedure did.
    """

    def __init__(self, atoms, colors, head, tail):
        self.atoms, self.head, self.tail = atoms, head, tail
        self.weight = [1 if c is RED else -1 for c in colors]
        self.prefix = [0]
        for w in self.weight:
            self.prefix.append(self.prefix[-1] + w)
        self.at = {}  # prefix value -> ascending positions
        for j, h in enumerate(self.prefix):
            self.at.setdefault(h, []).append(j)
        self.lo, self.hi = 0, len(atoms)

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def kept(self):
        return self.atoms[self.lo:self.hi]

    def step(self) -> bool:
        """Trim both terminals if their colors differ, else keep the longer
        half at the first interior zero (ties keep the prefix).

        Returns whether the path was split.
        """
        lo, hi = self.lo, self.hi
        if self.weight[lo] != self.weight[hi - 1]:
            self.lo, self.hi = lo + 1, hi - 1
            return False
        if self.head[lo] < self.tail[hi - 1]:  # read from lo: the prefix is [lo, j)
            at = self.at[self.prefix[lo]]
            j = at[bisect_right(at, lo)]
            keep_low = j - lo >= hi - j
        else:  # read from hi: the prefix is [j, hi)
            at = self.at[self.prefix[hi]]
            j = at[bisect_left(at, hi) - 1]
            keep_low = j - lo > hi - j
        if not lo < j < hi:
            raise AssertionError("balanced same-terminal path must have an interior zero")
        if keep_low:
            self.hi = j
        else:
            self.lo = j
        return True


def _edge_path(G: RedBlueGraph, edge_indices) -> _Path:
    """The edges of a path, in order from its smaller end vertex."""
    inc = {}
    for i in edge_indices:
        u, v, _ = G.edges[i]
        inc.setdefault(u, []).append(i)
        inc.setdefault(v, []).append(i)
    ends = sorted(x for x, a in inc.items() if len(a) == 1)
    if len(ends) != 2:
        raise ShrinkPreconditionError("edge set is not a path")
    verts = [ends[0]]
    order = []
    while len(order) < len(edge_indices):
        cur = verts[-1]
        nxt = [i for i in inc[cur] if not order or i != order[-1]]
        if len(nxt) != 1:
            raise ShrinkPreconditionError("edge set is not a path")
        order.append(nxt[0])
        u, v, _ = G.edges[nxt[0]]
        verts.append(v if u == cur else u)
    return _Path(order, [G.color(i) for i in order], verts[:-1], verts[1:])


def _vertex_path(adj, vcolor) -> _Path:
    """The vertices of a path, in order from its smaller end."""
    cur = min(v for v, a in adj.items() if len(a) == 1)
    prev = None
    order = [cur]
    while len(order) < len(adj):
        nxt = [y for y in adj[cur] if y != prev]
        prev, cur = cur, nxt[0]
        order.append(cur)
    return _Path(order, [vcolor[v] for v in order], order, order)


# ---------------------------------------------------------------------------
# Case (c) tree splitting, shared by the edge-colored and vertex-colored forms.
#
# A tree is given as adjacency {vertex: sorted neighbors}; "surplus" counts
# each atom (edge or vertex) +1 for the pendant color and -1 otherwise.
# ---------------------------------------------------------------------------


def _rooted(adj, root):
    parent = {root: None}
    depth = {root: 0}
    order = [root]
    queue = [root]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
                queue.append(y)
    return parent, depth, order


def _subtree_sizes(adj, parent, order):
    size = {v: 1 for v in order}
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            size[p] += size[v]
    return size


def _bfs_vertex_order(adj, start, allowed):
    """BFS over the induced subgraph on `allowed`, neighbors ascending."""
    seen = {start}
    queue = [start]
    qi = 0
    out = [start]
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y in adj[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                queue.append(y)
                out.append(y)
    return out


def _split_parts(adj, k):
    """Split the tree at a deep vertex u into S (child-subtree prefix) and R.

    Both parts get between k+1 and n-k-1 vertices; requires n >= 3k+3 and a
    vertex of degree >= 3 (the caller has excluded paths).
    """
    n = len(adj)
    root = min(v for v in adj if len(adj[v]) >= 3)
    parent, depth, order = _rooted(adj, root)
    size = _subtree_sizes(adj, parent, order)
    heavy = [v for v in adj if 3 * size[v] > n]
    dmax = max(depth[v] for v in heavy)
    u = min(v for v in heavy if depth[v] == dmax)
    children = sorted(y for y in adj[u] if parent.get(y) == u)
    S = set()
    acc = 0
    for c in children:
        sub = [c]
        stack = [c]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if parent.get(y) == x:
                    sub.append(y)
                    stack.append(y)
        S.update(sub)
        acc += size[c]
        if acc >= k + 1:
            break
    if not (k + 1 <= len(S) <= n - k - 1):
        raise AssertionError("subtree split out of range; tree too small for case (c)")
    R = set(adj) - S
    return u, S, R


def _tree_rebalance(G, idx, adj, cstar, k):
    """Case (c) on an edge-colored tree whose pendant edges all have color cstar.

    Returns the kept edge indices.
    """
    u, S, R = _split_parts(adj, k)

    def part_edges(verts):
        return [i for i in idx if G.edges[i][0] in verts and G.edges[i][1] in verts]

    side_S = part_edges(S | {u})
    side_R = part_edges(R)

    def surplus(es):
        return sum(1 if G.color(i) is cstar else -1 for i in es)

    for es in (side_S, side_R):
        if surplus(es) == 0:
            return es

    if surplus(side_R) > 0:
        base, base_verts, other_verts = side_R, R, S | {u}
    else:
        base, base_verts, other_verts = side_S, S | {u}, R
    # add the other part's edges in breadth-first order from u until balanced
    edge_of = {}
    for i in idx:
        a, b, _ = G.edges[i]
        edge_of[(a, b)] = i
        edge_of[(b, a)] = i
    vorder = _bfs_vertex_order(adj, u, other_verts)
    parent_in_bfs = {}
    seen = {u}
    for x in vorder:
        for y in adj[x]:
            if y in other_verts and y not in seen and y not in parent_in_bfs:
                parent_in_bfs[y] = x
        seen.add(x)
    add_order = [edge_of[(parent_in_bfs[x], x)] for x in vorder[1:]]
    cur = list(base)
    s = surplus(base)
    for i in add_order:
        cur.append(i)
        s += 1 if G.color(i) is cstar else -1
        if s == 0:
            break
    if len(cur) == len(idx):
        raise AssertionError("rebalancing consumed the whole tree")
    return cur


def _vertex_tree_rebalance(adj, vcolor, cstar, k):
    """Case (c) on a vertex-colored tree whose leaves all have color cstar.

    Returns the kept vertex set.
    """

    def surplus(vs):
        return sum(1 if vcolor[v] is cstar else -1 for v in vs)

    u, S, R = _split_parts(adj, k)
    part_S = S | {u}
    part_R = R
    for part in (part_S, part_R):
        if surplus(part) == 0:
            return set(part)
    if surplus(part_R) > 0:
        base, other = part_R, part_S
    else:
        base, other = part_S, part_R
    vorder = _bfs_vertex_order(adj, u, other)
    cur = set(base)
    s = surplus(base)
    for v in vorder:
        if v in cur:
            continue
        cur.add(v)
        s += 1 if vcolor[v] is cstar else -1
        if s == 0:
            break
    if len(cur) == len(adj):
        raise AssertionError("vertex rebalancing consumed the whole tree")
    return cur


# ---------------------------------------------------------------------------
# Trees and connected subgraphs
# ---------------------------------------------------------------------------


class _EdgeTree:
    """A balanced tree, shrunk by pendant pairs, case (c) or as a path."""

    def __init__(self, G: RedBlueGraph, edge_indices, k: int):
        self.G, self.k = G, k
        self._build(edge_indices)

    def _build(self, idx):
        G = self.G
        self.size = len(idx)
        self.inc = {}  # vertex -> incident tree edges
        for i in idx:
            u, v, _ = G.edges[i]
            self.inc.setdefault(u, set()).add(i)
            self.inc.setdefault(v, set()).add(i)
        self.branching = sum(1 for s in self.inc.values() if len(s) >= 3)
        self.path = _edge_path(G, idx) if self.branching == 0 else None
        if self.path is not None:
            return
        self.alive = set(idx)
        self.pendant = {RED: [], BLUE: []}
        for s in self.inc.values():
            if len(s) == 1:
                (i,) = s
                self.pendant[G.color(i)].append(i)
        for heap in self.pendant.values():
            heapify(heap)

    def kept(self):
        return self.path.kept() if self.path is not None else self.alive

    def step(self):
        if self.path is not None:
            self.path.step()
            self.size = self.path.size
            return
        red, blue = self.pendant[RED], self.pendant[BLUE]
        if red and blue:
            for i in (heappop(red), heappop(blue)):
                self._drop_pendant(i)
            self.size -= 2
            if self.branching == 0:
                self.path = _edge_path(self.G, list(self.alive))
            return
        cstar = RED if red else BLUE
        adj = {}
        for v, s in self.inc.items():
            adj[v] = sorted(sum(self.G.endpoints(i)) - v for i in s)
        self._build(_tree_rebalance(self.G, sorted(self.alive), adj, cstar, self.k))

    def _drop_pendant(self, i):
        self.alive.discard(i)
        u, v, _ = self.G.edges[i]
        for x in (u, v):
            s = self.inc[x]
            s.discard(i)
            if not s:
                del self.inc[x]
            elif len(s) == 2:
                self.branching -= 1
            elif len(s) == 1:
                (j,) = s
                heappush(self.pendant[self.G.color(j)], j)


class _LineTree:
    """A balanced connected subgraph, shrunk on the BFS spanning tree of its
    line graph (line-graph vertices are edges of G and keep their colors)."""

    def __init__(self, G: RedBlueGraph, edge_indices, k: int):
        self.G, self.k = G, k
        self.vcolor = {i: G.color(i) for i in edge_indices}
        self._build(edge_indices)

    def _build(self, ids):
        G = self.G
        ids = sorted(ids)
        idset = set(ids)
        self.size = len(ids)
        self.root = ids[0]
        self.tadj = {i: set() for i in ids}
        seen = {self.root}
        queue = [self.root]
        for x in queue:
            for y in G.edge_neighbors(x):
                if y in idset and y not in seen:
                    seen.add(y)
                    queue.append(y)
                    self.tadj[x].add(y)
                    self.tadj[y].add(x)
        self.branching = sum(1 for a in self.tadj.values() if len(a) >= 3)
        self.path = _vertex_path(self.tadj, self.vcolor) if self.branching == 0 else None
        if self.path is not None:
            return
        self.leaves = {RED: [], BLUE: []}
        for v, a in self.tadj.items():
            if len(a) == 1:
                self.leaves[self.vcolor[v]].append(v)
        for heap in self.leaves.values():
            heapify(heap)

    def kept(self):
        if self.path is not None:
            return self.path.kept()
        return self.tadj.keys()

    def step(self):
        if self.path is not None:
            # A trim deletes two leaves. Should one be the root, the BFS tree
            # has one vertex per layer, so the line graph is this same path.
            if not self.path.step():
                self.size = self.path.size
                return
            kept = self.path.kept()
        else:
            red, blue = self.leaves[RED], self.leaves[BLUE]
            if red and blue:
                a, b = heappop(red), heappop(blue)
                if self.root not in (a, b):
                    for x in (a, b):
                        self._drop_leaf(x)
                    self.size -= 2
                    if self.branching == 0:
                        self.path = _vertex_path(self.tadj, self.vcolor)
                    return
                kept = self.tadj.keys() - {a, b}
            else:
                cstar = RED if red else BLUE
                adj = {v: sorted(a) for v, a in self.tadj.items()}
                kept = _vertex_tree_rebalance(adj, self.vcolor, cstar, self.k)
        # a split, a new root or case (c) can change the BFS tree beyond the deleted atoms
        self._build(kept)

    def _drop_leaf(self, x):
        (p,) = self.tadj.pop(x)
        s = self.tadj[p]
        s.discard(x)
        if len(s) == 2:
            self.branching -= 1
        elif len(s) == 1:
            heappush(self.leaves[self.vcolor[p]], p)


def shrink_path(G: RedBlueGraph, P: Witness, k: int) -> Witness:
    """One shrinking step on a balanced path of length >= 2k.

    If the terminal edges differ in color both are deleted; otherwise the path
    is split at the first interior zero of the balance profile and the longer
    half is returned (ties keep the prefix).
    """
    _require_valid(G, P, WitnessKind.PATH, 2 * k, k, "shrink_path")
    return _one_step(_edge_path(G, P.edge_indices), WitnessKind.PATH)


def shrink_tree(G: RedBlueGraph, T: Witness, k: int) -> Witness:
    """One shrinking step on a balanced tree with >= 3k+2 edges.

    (a) a path takes the path step; (b) otherwise the least red and the least
    blue pendant edge are deleted; (c) when all pendant edges share a color
    the tree is split and the pendant-color-heavy part rebalanced.
    """
    _require_valid(G, T, WitnessKind.TREE, 3 * k + 2, k, "shrink_tree")
    return _one_step(_EdgeTree(G, T.edge_indices, k), WitnessKind.TREE)


def shrink_subgraph(G: RedBlueGraph, H: Witness, k: int) -> Witness:
    """One shrinking step on a balanced connected subgraph with >= 3k+3 edges.

    Runs the vertex-balanced tree procedure on the BFS spanning tree (from the
    least edge id, neighbors ascending) of the line graph of H and maps the
    kept vertices back to edges of G.
    """
    _require_valid(G, H, WitnessKind.SUBGRAPH, 3 * k + 3, k, "shrink_subgraph")
    return _one_step(_LineTree(G, H.edge_indices, k), WitnessKind.SUBGRAPH)


def _one_step(engine, kind: WitnessKind) -> Witness:
    engine.step()
    return Witness(kind, tuple(sorted(engine.kept())))


_THRESHOLD = {
    WitnessKind.PATH: lambda k: 2 * k,
    WitnessKind.TREE: lambda k: 3 * k + 2,
    WitnessKind.SUBGRAPH: lambda k: 3 * k + 3,
}

_STEP = {
    WitnessKind.PATH: shrink_path,
    WitnessKind.TREE: shrink_tree,
    WitnessKind.SUBGRAPH: shrink_subgraph,
}

_ENGINE = {
    WitnessKind.PATH: lambda G, idx, k: _edge_path(G, idx),
    WitnessKind.TREE: _EdgeTree,
    WitnessKind.SUBGRAPH: _LineTree,
}


def shrink_to_range(G: RedBlueGraph, W: Witness, k: int) -> Witness:
    """Shrink while the single-step precondition holds; equal to chaining
    `_STEP[W.kind]`, but validated once and stepped on one engine.

    Final sizes land in [k, 2k-1] for paths, [k, 3k+1] for trees and
    [k, 3k+2] for connected subgraphs.
    """
    rep = validate_witness(G, W, W.size)
    if not rep.valid or W.size < k:
        raise ShrinkPreconditionError("shrink_to_range: invalid witness or size < k")
    thresh = _THRESHOLD[W.kind](k)
    if W.size < thresh:
        return W
    if k < 2:
        raise ShrinkPreconditionError("shrink_to_range: k must be >= 2")
    engine = _ENGINE[W.kind](G, W.edge_indices, k)
    while engine.size >= thresh:
        engine.step()
    return Witness(W.kind, tuple(sorted(engine.kept())))
