"""Reference colorful DPs: one dict of {label mask: backpointer} per table cell.

These are the dict-of-masks programs that `bcslab.colorcoding` replaced with
bitset cells. They stay here as the reference the tests compare against:
same decisions, same `stats["entries"]`, and for paths the same witness.
"""
from typing import Optional

from bcslab.graphs import EdgeColor, RedBlueGraph, Witness, WitnessKind, require_even_k


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


def colorful_bcs_dp(G: RedBlueGraph, labels: tuple, k: int,
                    stats: Optional[dict] = None) -> Optional[Witness]:
    """[k]-edge-colorful balanced connected subgraph of size k, if any;
    labels[e] is edge e's label."""
    require_even_k(k)
    if len(labels) != G.m:
        raise ValueError("edge coloring does not match (G, k)")
    if k > 62:
        raise ValueError("k too large for bitmask labels")
    half = k // 2
    sbit = [1 << (l - 1) for l in labels]
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


def colorful_bt_dp(G: RedBlueGraph, labels: tuple, k: int) -> Optional[Witness]:
    """[k+1]-vertex-colorful balanced tree with k edges, if any; labels[v - 1]
    is vertex v's label."""
    require_even_k(k)
    if len(labels) != G.n:
        raise ValueError("vertex coloring does not match (G, k)")
    if k + 1 > 62:
        raise ValueError("k too large for bitmask labels")
    half = k // 2
    vbit = [0] + [1 << (l - 1) for l in labels]
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


def colorful_ebp_dp(G: RedBlueGraph, labels: tuple, k: int) -> Optional[Witness]:
    """[k+1]-vertex-colorful balanced path with k edges, if any, under one
    coloring; labels[v - 1] is vertex v's label."""
    require_even_k(k)
    if len(labels) != G.n:
        raise ValueError("vertex coloring does not match (G, k)")
    if k + 1 > 62:
        raise ValueError("k too large for bitmask labels")
    half = k // 2
    vbit = [0] + [1 << (l - 1) for l in labels]

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
