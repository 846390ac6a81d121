"""Arithmetic-circuit builders for the three balanced-structure polynomials.

Each builder materializes the P_j recurrences as a DAG of input/add/multiply
gates, memoized per cell (j, anchor, r, b), with constant-zero branches pruned
at build time:

* subgraph: variables x_e, anchored at edges; cells split into a neighbor
  part times a same-anchor remainder, or extend by x_e through a neighbor;
  monomials are homogeneous of degree exactly k.
* tree: variables y_v; pendant extensions on either endpoint and two-sided
  splits at the anchor edge; degree exactly k+1.
* path: variables y_v, anchored at the current endpoint; one neighbor
  extension per step; degree exactly k+1.

Every sum term carries a fresh scalar tag variable ('t', i): a degree-0 input
multiplied into that term. Distinct derivations of the same square-free
monomial then pick distinct tag sets (no cell repeats inside one derivation of
a square-free monomial, because a cell's monomials all contain its anchor
variables), so coefficients survive characteristic 2 under random tag values.
With every tag set to one the polynomial is exactly the untagged recurrence
over the non-negative integers, which is what the symbolic expansion checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graphs import EdgeColor, RedBlueGraph, Witness, WitnessKind, require_even_k


@dataclass(frozen=True)
class Circuit:
    """Topologically ordered gate list; gate 0 onward, `output` is a gate id.

    Gates: ('in', var), ('c0',), ('c1',), ('add', i, j), ('mul', i, j) with
    var one of ('x', edge_index), ('y', vertex), ('t', tag_index). Tag inputs
    are scalar fingerprints of degree 0; degree_bound dominates the structural
    degree of every monomial.
    """

    gates: tuple
    output: int
    degree_bound: int
    n_tags: int

    def __post_init__(self):
        for gid, g in enumerate(self.gates):
            if g[0] in ("add", "mul") and not (g[1] < gid and g[2] < gid):
                raise ValueError("gate references must precede the gate")
        if not (0 <= self.output < len(self.gates)):
            raise ValueError("output gate out of range")

    def degrees(self) -> list:
        """Structural degree of every gate; tags and constants have degree 0.

        Runs on every sieve decision, so the common gates are tested first.
        """
        deg = []
        for g in self.gates:
            op = g[0]
            if op == "mul":
                deg.append(deg[g[1]] + deg[g[2]])
            elif op == "add":
                a, b = deg[g[1]], deg[g[2]]
                deg.append(a if a >= b else b)
            else:
                deg.append(1 if op == "in" and g[1][0] != "t" else 0)
        return deg


def dump_circuit(c: Circuit) -> str:
    lines = []
    for gid, g in enumerate(c.gates):
        if g[0] == "in":
            kind, idx = g[1]
            lines.append(f"g{gid} = IN {kind}{idx}")
        elif g[0] == "c0":
            lines.append(f"g{gid} = C0")
        elif g[0] == "c1":
            lines.append(f"g{gid} = C1")
        elif g[0] == "add":
            lines.append(f"g{gid} = ADD g{g[1]} g{g[2]}")
        else:
            lines.append(f"g{gid} = MUL g{g[1]} g{g[2]}")
    lines.append(f"out g{c.output}")
    return "\n".join(lines) + "\n"


class _Builder:
    def __init__(self):
        self.gates: List[tuple] = []
        self.var_gate: Dict[tuple, int] = {}
        self.n_tags = 0

    def gate(self, g: tuple) -> int:
        self.gates.append(g)
        return len(self.gates) - 1

    def var(self, key: tuple) -> int:
        if key not in self.var_gate:
            self.var_gate[key] = self.gate(("in", key))
        return self.var_gate[key]

    def tag(self) -> int:
        t = self.n_tags
        self.n_tags += 1
        return self.gate(("in", ("t", t)))

    def mul(self, a: int, b: int) -> int:
        return self.gate(("mul", a, b))

    def addtree(self, ids: List[int]) -> Optional[int]:
        if not ids:
            return None
        acc = ids[0]
        for x in ids[1:]:
            acc = self.gate(("add", acc, x))
        return acc

    def finish(self, out: Optional[int], degree_bound: int) -> Circuit:
        if out is None:
            out = self.gate(("c0",))
        return Circuit(tuple(self.gates), out, degree_bound, self.n_tags)


def build_circuit_ebcs(G: RedBlueGraph, k: int) -> Circuit:
    """Sum over edges of P_k(e, k/2, k/2) for connected relaxed subgraphs."""
    require_even_k(k)
    half = k // 2
    bld = _Builder()
    nbrs = [G.edge_neighbors(e) for e in range(G.m)]
    red = [G.color(e) is EdgeColor.RED for e in range(G.m)]
    memo: Dict[tuple, Optional[int]] = {}

    def cell(j, e, r, b):
        if r < 0 or b < 0 or r > half or b > half or r + b != j or j < 1:
            return None
        key = (j, e, r, b)
        if key in memo:
            return memo[key]
        if j == 1:
            ok = (red[e] and (r, b) == (1, 0)) or (not red[e] and (r, b) == (0, 1))
            memo[key] = bld.var(("x", e)) if ok else None
            return memo[key]
        rc, bc = (r - 1, b) if red[e] else (r, b - 1)
        if rc < 0 or bc < 0:
            memo[key] = None
            return None
        terms = []
        ext = []
        for e2 in nbrs[e]:
            ch = cell(j - 1, e2, rc, bc)
            if ch is not None:
                ext.append(bld.mul(bld.tag(), ch))
        agg = bld.addtree(ext)
        if agg is not None:
            terms.append(bld.mul(bld.var(("x", e)), agg))
        for r1 in range(rc + 1):
            for b1 in range(bc + 1):
                l1 = r1 + b1
                l2 = (rc - r1) + (bc - b1)
                if l1 < 1 or l2 < 1:
                    continue
                rest = cell(j - l1, e, r - r1, b - b1)
                if rest is None:
                    continue
                left = []
                for e2 in nbrs[e]:
                    ch = cell(l1, e2, r1, b1)
                    if ch is not None:
                        left.append(bld.mul(bld.tag(), ch))
                lagg = bld.addtree(left)
                if lagg is not None:
                    terms.append(bld.mul(lagg, rest))
        memo[key] = bld.addtree(terms)
        return memo[key]

    tops = []
    for e in range(G.m):
        c = cell(k, e, half, half)
        if c is not None:
            tops.append(c)
    del cell  # break the closure's self-reference so the memo and gate list free on return
    return bld.finish(bld.addtree(tops), k)


def build_circuit_ebt(G: RedBlueGraph, k: int) -> Circuit:
    """Sum over edges of P_k(e, k/2, k/2) for relaxed trees; degree k+1."""
    require_even_k(k)
    half = k // 2
    bld = _Builder()
    red = [G.color(e) is EdgeColor.RED for e in range(G.m)]
    at = []
    for e in range(G.m):
        u, v, _ = G.edges[e]
        eu = sorted(j for w, j in G.adjacency[u] if j != e and w != v)
        ev = sorted(j for w, j in G.adjacency[v] if j != e and w != u)
        at.append((eu, ev))
    memo: Dict[tuple, Optional[int]] = {}

    def cell(j, e, r, b):
        if r < 0 or b < 0 or r > half or b > half or r + b != j or j < 1:
            return None
        key = (j, e, r, b)
        if key in memo:
            return memo[key]
        u, v, _ = G.edges[e]
        if j == 1:
            ok = (red[e] and (r, b) == (1, 0)) or (not red[e] and (r, b) == (0, 1))
            memo[key] = (
                bld.mul(bld.var(("y", u)), bld.var(("y", v))) if ok else None
            )
            return memo[key]
        rc, bc = (r - 1, b) if red[e] else (r, b - 1)
        if rc < 0 or bc < 0:
            memo[key] = None
            return None
        eu, ev = at[e]
        terms = []
        # u pendant: remainder hangs at v
        pend = []
        for e2 in ev:
            ch = cell(j - 1, e2, rc, bc)
            if ch is not None:
                pend.append(bld.mul(bld.tag(), ch))
        agg = bld.addtree(pend)
        if agg is not None:
            terms.append(bld.mul(bld.var(("y", u)), agg))
        # v pendant: remainder hangs at u
        pend = []
        for e2 in eu:
            ch = cell(j - 1, e2, rc, bc)
            if ch is not None:
                pend.append(bld.mul(bld.tag(), ch))
        agg = bld.addtree(pend)
        if agg is not None:
            terms.append(bld.mul(bld.var(("y", v)), agg))
        # two-sided split: u-side times v-side, sizes l1 + l2 = j - 1
        for r1 in range(rc + 1):
            for b1 in range(bc + 1):
                l1 = r1 + b1
                l2 = (rc - r1) + (bc - b1)
                if l1 < 1 or l2 < 1:
                    continue
                left = []
                for e2 in eu:
                    ch = cell(l1, e2, r1, b1)
                    if ch is not None:
                        left.append(bld.mul(bld.tag(), ch))
                lagg = bld.addtree(left)
                if lagg is None:
                    continue
                right = []
                for e2 in ev:
                    ch = cell(l2, e2, rc - r1, bc - b1)
                    if ch is not None:
                        right.append(bld.mul(bld.tag(), ch))
                ragg = bld.addtree(right)
                if ragg is not None:
                    terms.append(bld.mul(lagg, ragg))
        memo[key] = bld.addtree(terms)
        return memo[key]

    tops = []
    for e in range(G.m):
        c = cell(k, e, half, half)
        if c is not None:
            tops.append(c)
    del cell  # break the closure's self-reference so the memo and gate list free on return
    return bld.finish(bld.addtree(tops), k + 1)


def build_circuit_ebp(G: RedBlueGraph, k: int) -> Circuit:
    """Sum over vertices of P_k(v, k/2, k/2) for relaxed paths; degree k+1."""
    require_even_k(k)
    half = k // 2
    bld = _Builder()
    memo: Dict[tuple, Optional[int]] = {}

    def cell(j, v, r, b):
        if r < 0 or b < 0 or r > half or b > half or r + b != j:
            return None
        key = (j, v, r, b)
        if key in memo:
            return memo[key]
        if j == 0:
            memo[key] = bld.var(("y", v))
            return memo[key]
        parts = []
        for u, e in G.adjacency[v]:
            if G.color(e) is EdgeColor.RED:
                ch = cell(j - 1, u, r - 1, b)
            else:
                ch = cell(j - 1, u, r, b - 1)
            if ch is not None:
                parts.append(ch)
        agg = bld.addtree(parts)
        if agg is None:
            memo[key] = None
            return None
        memo[key] = bld.mul(bld.tag(), bld.mul(bld.var(("y", v)), agg))
        return memo[key]

    tops = []
    for v in range(1, G.n + 1):
        c = cell(k, v, half, half)
        if c is not None:
            tops.append(c)
    del cell  # break the closure's self-reference so the memo and gate list free on return
    return bld.finish(bld.addtree(tops), k + 1)


def expand_multilinear(c: Circuit, max_degree: int) -> Dict[FrozenSet, int]:
    """Multilinear-truncated expansion over the integers, tags set to one.

    Monomials with a repeated variable or degree beyond max_degree are dropped
    at every product; the surviving dictionary maps frozensets of ('x', i) /
    ('y', v) variables to their exact non-negative integer coefficients. Valid
    because a square or an over-degree factor can never return to the
    multilinear, bounded-degree part.
    """
    vals: List[Dict[FrozenSet, int]] = []
    one = frozenset()
    for g in c.gates:
        if g[0] == "in":
            if g[1][0] == "t":
                vals.append({one: 1})
            else:
                vals.append({frozenset((g[1],)): 1})
        elif g[0] == "c0":
            vals.append({})
        elif g[0] == "c1":
            vals.append({one: 1})
        elif g[0] == "add":
            out = dict(vals[g[1]])
            for mono, coef in vals[g[2]].items():
                out[mono] = out.get(mono, 0) + coef
            vals.append({m: c2 for m, c2 in out.items() if c2})
        else:
            out = {}
            for m1, c1 in vals[g[1]].items():
                for m2, c2 in vals[g[2]].items():
                    if m1 & m2:
                        continue
                    m = m1 | m2
                    if len(m) > max_degree:
                        continue
                    out[m] = out.get(m, 0) + c1 * c2
            vals.append(out)
    return {m: c2 for m, c2 in vals[c.output].items() if c2}
