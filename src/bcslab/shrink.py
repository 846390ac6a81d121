"""Constructive shrinking of balanced witnesses.

Given a large balanced path/tree/connected subgraph, produce a strictly
smaller balanced witness of size >= k. Paths split at a zero of the running
red-minus-blue profile; trees delete a red+blue pendant pair or rebalance
across a subtree split; connected subgraphs go through the line graph, where
the tree procedure runs in its vertex-colored form.

The rebalance, case (c), is one function for both forms. It is told how to
list a part's atoms (edges or vertices), what an atom weighs, and which atom
the breadth-first search from the split vertex gains on reaching a vertex x
from its parent p: the edge (p, x) in the edge-colored form, x itself in the
vertex-colored form. Every graph search here is `graphs.bfs`.

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
from heapq import heapify, heappop, heappush

from .graphs import (
    EdgeColor,
    RedBlueGraph,
    Witness,
    WitnessKind,
    bfs,
    validate_witness,
)

RED, BLUE = EdgeColor.RED, EdgeColor.BLUE


class ShrinkPreconditionError(ValueError):
    """Input is not a valid balanced witness of the required size/kind."""


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
# Case (c) tree splitting, one function for the edge-colored and the
# vertex-colored form.
#
# A tree is given as adjacency {vertex: sorted neighbors}. The atoms are its
# edges or its vertices; "surplus" counts each atom +1 for the pendant color
# and -1 otherwise.
# ---------------------------------------------------------------------------


def _split_parts(adj, k):
    """Split the tree at a deep vertex u into S (child-subtree prefix) and R.

    Both parts get between k+1 and n-k-1 vertices; requires n >= 3k+3 and a
    vertex of degree >= 3 (the caller has excluded paths).
    """
    n = len(adj)
    parent = bfs(min(v for v in adj if len(adj[v]) >= 3), adj)
    depth, size = {}, dict.fromkeys(parent, 1)
    for v, p in parent.items():
        depth[v] = 0 if p is None else depth[p] + 1
    for v in reversed(parent):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    heavy = [v for v in adj if 3 * size[v] > n]
    dmax = max(depth[v] for v in heavy)
    u = min(v for v in heavy if depth[v] == dmax)
    S = set()
    acc = 0
    for c in sorted(y for y in adj[u] if parent[y] == u):
        S.add(c)
        acc += size[c]
        if acc >= k + 1:
            break
    for v, p in parent.items():  # parents come first in visit order
        if p in S:
            S.add(v)
    if not (k + 1 <= len(S) <= n - k - 1):
        raise AssertionError("subtree split out of range; tree too small for case (c)")
    R = set(adj) - S
    return u, S, R


def _rebalance(adj, k, atoms, weight, gained):
    """Case (c) on a tree whose pendant atoms all have one color.

    atoms(vs) lists the atoms of the subtree on the vertex set vs, weight(a)
    is a's surplus, and gained(p, x) is the atom the subtree gains when the
    search reaches x from its parent p. The pendant-color-heavy part of the
    split takes the other part's atoms in breadth-first order from u until
    balanced. Returns the kept atoms.
    """
    u, S, R = _split_parts(adj, k)
    side_S, side_R = atoms(S | {u}), atoms(R)
    s_S, s_R = sum(map(weight, side_S)), sum(map(weight, side_R))
    if s_S == 0:
        return side_S
    if s_R == 0:
        return side_R
    if s_R > 0:
        kept, s, other = list(side_R), s_R, S | {u}
    else:
        kept, s, other = list(side_S), s_S, R
    base = len(kept)
    # the other part is u and whole branches at u, so the search of the tree
    # from u, read only on that part, is the search of that part
    for x, p in bfs(u, adj).items():
        if p is not None and x in other:
            kept.append(gained(p, x))
            s += weight(kept[-1])
            if s == 0:
                break
    if len(kept) - base == len(other) - 1:
        raise AssertionError("rebalancing consumed the whole tree")
    return kept


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
        G, inc = self.G, self.inc
        adj = {v: sorted(sum(G.endpoints(i)) - v for i in s) for v, s in inc.items()}
        self._build(_rebalance(
            adj, self.k,
            lambda vs: [i for i in self.alive if G.edges[i][0] in vs and G.edges[i][1] in vs],
            lambda i: 1 if G.color(i) is cstar else -1,
            lambda p, x: min(inc[p] & inc[x])))  # the one edge at both p and x

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
        nbrs = {i: [j for j in G.edge_neighbors(i) if j in idset] for i in ids}
        for x, p in bfs(self.root, nbrs).items():
            if p is not None:
                self.tadj[x].add(p)
                self.tadj[p].add(x)
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
                kept = _rebalance(adj, self.k, list,
                                  lambda v: 1 if self.vcolor[v] is cstar else -1,
                                  lambda p, x: x)
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
