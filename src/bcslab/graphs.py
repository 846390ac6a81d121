"""Red-blue graphs, witnesses and the basic structural operations.

A red-blue graph is a simple undirected graph whose every edge carries one of
two colors. Vertices are 1-based contiguous integers; an edge's identity is its
index in the input order, which keeps witnesses stable across serialization.

The text format (one record per line, UTF-8):

    # comment            ignored
    graph <n> <m>        header, first non-comment line
    e <u> <v> <R|B>      exactly m edge lines, 1 <= u,v <= n

All types here are immutable after construction and safe to share.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Optional


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class EdgeColor(Enum):
    RED = "R"
    BLUE = "B"

    @property
    def opposite(self) -> "EdgeColor":
        return EdgeColor.BLUE if self is EdgeColor.RED else EdgeColor.RED


class WitnessKind(Enum):
    SUBGRAPH = "subgraph"
    TREE = "tree"
    PATH = "path"


@dataclass(frozen=True)
class RedBlueGraph:
    """Simple undirected graph with a two-valued color per edge.

    edges: tuple of (u, v, color) with u != v, no duplicate undirected pair.
    adjacency[v]: tuple of (neighbor, edge_index), for v in 1..n (index 0 unused).
    """

    n: int
    edges: tuple
    adjacency: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for i, (u, v, color) in enumerate(self.edges):
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {i}: endpoint out of range 1..{self.n}")
            if u == v:
                raise ValueError(f"edge {i}: self-loop at {u}")
            if not isinstance(color, EdgeColor):
                raise ValueError(f"edge {i}: color must be EdgeColor")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"edge {i}: duplicate undirected edge {key}")
            seen.add(key)
        self._index()

    @classmethod
    def _from_checked(cls, n: int, edges: tuple) -> "RedBlueGraph":
        """A graph from edges that already passed the checks of __post_init__."""
        G = cls.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "edges", edges)
        G._index()
        return G

    def _index(self) -> None:
        adj = [[] for _ in range(self.n + 1)]
        for i, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

    @cached_property
    def _component(self) -> list:
        """_component[v]: a label shared by exactly the vertices of v's connected
        component, or 0 when v has no edge. Computed on first use."""
        nbrs = [[y for y, _ in a] for a in self.adjacency]
        comp = [0] * (self.n + 1)
        for u, _, _ in self.edges:
            if not comp[u]:
                for v in bfs(u, nbrs):
                    comp[v] = u
        return comp

    @cached_property
    def _edge_lists(self) -> tuple:
        """(ends, reds, blues): each edge's (u, v), and the red and the blue edge
        indices. Computed on first use."""
        ends = [(u, v) for u, v, _ in self.edges]
        lists = [], []
        for i, (_, _, c) in enumerate(self.edges):
            lists[c is EdgeColor.BLUE].append(i)
        return (ends, *lists)

    @cached_property
    def _neighbor_lists(self) -> tuple:
        """(red_nbrs, blue_nbrs): each vertex's red and blue neighbours (index 0
        unused). Computed on first use."""
        lists = [[] for _ in range(self.n + 1)], [[] for _ in range(self.n + 1)]
        for u, v, c in self.edges:
            nbrs = lists[c is EdgeColor.BLUE]
            nbrs[u].append(v)
            nbrs[v].append(u)
        return lists

    @property
    def m(self) -> int:
        return len(self.edges)

    def color(self, eidx: int) -> EdgeColor:
        return self.edges[eidx][2]

    def endpoints(self, eidx: int) -> tuple:
        u, v, _ = self.edges[eidx]
        return u, v

    def red_edges(self) -> list:
        return [i for i, e in enumerate(self.edges) if e[2] is EdgeColor.RED]

    def blue_edges(self) -> list:
        return [i for i, e in enumerate(self.edges) if e[2] is EdgeColor.BLUE]

    def edge_neighbors(self, eidx: int) -> list:
        """Edges sharing exactly one endpoint with eidx."""
        u, v, _ = self.edges[eidx]
        out = []
        for w, j in self.adjacency[u]:
            if j != eidx and w != v:
                out.append(j)
        for w, j in self.adjacency[v]:
            if j != eidx and w != u:
                out.append(j)
        # an edge sharing both endpoints would be a duplicate, excluded by simplicity,
        # but two edges can meet eidx at both ends in a triangle: each shares one endpoint
        return sorted(set(out))

    def subgraph_of_edges(self, edge_indices: Iterable[int]) -> "RedBlueGraph":
        """Edge-induced subgraph on the same vertex numbering."""
        idx = sorted(set(edge_indices))
        return RedBlueGraph(self.n, tuple(self.edges[i] for i in idx))


@dataclass(frozen=True)
class Witness:
    """An edge subset claimed to solve one of the three balanced problems."""

    kind: WitnessKind
    edge_indices: tuple

    def __post_init__(self):
        if len(set(self.edge_indices)) != len(self.edge_indices):
            raise ValueError("witness edge indices must be distinct")

    @property
    def size(self) -> int:
        return len(self.edge_indices)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind.value, "edges": sorted(self.edge_indices)})

    @staticmethod
    def from_json(text: str) -> "Witness":
        try:
            d = json.loads(text)
        except RecursionError:
            raise ValueError("witness JSON is nested too deeply") from None
        if not isinstance(d, dict) or "kind" not in d or not isinstance(d.get("edges"), list):
            raise ValueError('witness JSON must be an object with "kind" and an "edges" list')
        edges = d["edges"]
        if not all(type(i) is int for i in edges):
            raise ValueError('witness "edges" must hold integer edge indices only')
        return Witness(WitnessKind(d["kind"]), tuple(edges))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple

    def to_json(self) -> str:
        return json.dumps({"valid": self.valid, "failures": list(self.failures)})


def require_even_k(k: int) -> None:
    """k must be a positive even integer >= 2: balanced sets have even size."""
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise ValueError(f"k must be a positive even integer >= 2, got {k!r}")


@lru_cache(maxsize=None)
def count_level(j: int, half: int) -> tuple:
    """The (red, blue) counts of j edges with at most half of each color."""
    return tuple((r, j - r) for r in range(max(0, j - half), min(half, j) + 1))


@lru_cache(maxsize=None)
def count_splits(rc: int, bc: int) -> tuple:
    """Ordered ((r1, b1), (r2, b2)), both parts nonempty, summing to (rc, bc)."""
    return tuple(((r1, b1), (rc - r1, bc - b1))
                 for r1 in range(rc + 1) for b1 in range(bc + 1)
                 if r1 + b1 and rc - r1 + bc - b1)


_COLOR_OF_LETTER = {c.value: c for c in EdgeColor}


def parse_graph(text) -> RedBlueGraph:
    """Parse the graph file format; raises GraphFormatError with a line number.

    Each edge is checked once, here, in file order; the graph is then built
    without repeating the checks.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = None
    edges = []
    seen = set()  # undirected edges as (min, max)
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if not header_seen:
            if parts[0] != "graph" or len(parts) != 3:
                raise GraphFormatError("expected header 'graph <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative header fields", lineno)
            header_seen = True
            continue
        if parts[0] != "e" or len(parts) != 4:
            raise GraphFormatError("expected edge line 'e <u> <v> <R|B>'", lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError("non-integer edge endpoints", lineno) from None
        color = _COLOR_OF_LETTER.get(parts[3])
        if color is None:
            raise GraphFormatError(f"unknown color letter {parts[3]!r}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex out of range 1..{n}", lineno)
        if u == v:
            raise GraphFormatError("self-loop", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"duplicate undirected edge {{{u},{v}}}", lineno)
        seen.add(key)
        edges.append((u, v, color))
    if not header_seen:
        raise GraphFormatError("missing header 'graph <n> <m>'")
    if len(edges) != m:
        raise GraphFormatError(f"header declares m={m} but found {len(edges)} edge lines")
    return RedBlueGraph._from_checked(n, tuple(edges))


def serialize_graph(G: RedBlueGraph) -> str:
    lines = [f"graph {G.n} {G.m}"]
    for u, v, color in G.edges:
        lines.append(f"e {u} {v} {color.value}")
    return "\n".join(lines) + "\n"


def bfs(start, neighbors) -> dict:
    """Breadth-first search from `start`, where `neighbors[x]` lists the
    neighbours of x in the order they are to be tried.

    Returns {vertex: parent} in visit order; the start's parent is None.
    """
    parent = {start: None}
    queue = [start]
    for x in queue:
        for y in neighbors[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return parent


def _spans(adj: dict) -> bool:
    """Whether a graph given as adjacency lists, one key per vertex, is connected
    (the empty graph counts as connected)."""
    return not adj or len(bfs(next(iter(adj)), adj)) == len(adj)


def induced_connected(vertices, edges) -> bool:
    """Whether the subgraph induced on `vertices` by the (u, v) pairs `edges` is
    connected; pairs with an endpoint outside `vertices` are ignored."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    return _spans(adj)


def _edge_set_connected(G: RedBlueGraph, edge_indices) -> bool:
    """Connectivity of the edge-induced subgraph (no edges counts as not connected).

    Walks an incidence map of the chosen edges only, so the cost is linear in
    the edge set whatever the host degrees.
    """
    inc = {}
    for i in edge_indices:
        u, v, _ = G.edges[i]
        inc.setdefault(u, []).append(v)
        inc.setdefault(v, []).append(u)
    return bool(inc) and _spans(inc)


def validate_witness(G: RedBlueGraph, w: Witness, k: int) -> ValidationReport:
    """Check |w| = k, balance, connectivity and the kind-specific shape.

    Failures are report entries, never exceptions.
    """
    failures = []
    idx = list(w.edge_indices)
    for i in idx:
        if not (0 <= i < G.m):
            return ValidationReport(False, (f"edge index {i} out of range",))
    if len(idx) != k:
        failures.append(f"size is {len(idx)}, expected {k}")
    reds = sum(1 for i in idx if G.color(i) is EdgeColor.RED)
    blues = len(idx) - reds
    if reds != blues:
        failures.append(f"not balanced: {reds} red, {blues} blue")
    if not _edge_set_connected(G, idx):
        failures.append("edge-induced subgraph is not connected")
    if w.kind in (WitnessKind.TREE, WitnessKind.PATH):
        verts = set()
        for i in idx:
            u, v, _ = G.edges[i]
            verts.add(u)
            verts.add(v)
        if idx and len(verts) < len(idx) + 1:
            failures.append("contains a cycle")
    if w.kind is WitnessKind.PATH:
        deg = {}
        for i in idx:
            u, v, _ = G.edges[i]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d > 2 for d in deg.values()):
            failures.append("a vertex has degree > 2")
    return ValidationReport(not failures, tuple(failures))


def split_partition(G: RedBlueGraph):
    """Split-graph recognition via the degree-sequence characterization.

    Returns (clique, independent) as frozensets with the clique maximal for the
    degree ordering, or None when G is not split.
    """
    n = G.n
    deg = [0] * (n + 1)
    for u, v, _ in G.edges:
        deg[u] += 1
        deg[v] += 1
    order = sorted(range(1, n + 1), key=lambda v: (-deg[v], v))
    d = [deg[v] for v in order]
    # largest m with d[m-1] >= m-1
    msz = 0
    for i in range(1, n + 1):
        if d[i - 1] >= i - 1:
            msz = i
    lhs = sum(d[:msz])
    rhs = msz * (msz - 1) + sum(d[msz:])
    if lhs != rhs:
        return None
    clique = frozenset(order[:msz])
    independent = frozenset(order[msz:])
    # defensive verification in O(n + m); the characterization guarantees it passes
    inside = 0
    for u, v, _ in G.edges:
        if u in clique and v in clique:
            inside += 1
        elif u in independent and v in independent:
            raise AssertionError("degree characterization produced a non-independent set")
    if inside != msz * (msz - 1) // 2:
        raise AssertionError("degree characterization produced a non-clique")
    return clique, independent
