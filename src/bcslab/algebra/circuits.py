"""Arithmetic-circuit builders for the three balanced-structure polynomials.

Each builder materializes the P_j recurrences as a DAG of input/sum/multiply
gates, memoized per cell (j, anchor, r, b), with constant-zero branches pruned
at build time:

* subgraph: variables x_e, anchored at edges; cells split into a neighbor
  part times a same-anchor remainder, or extend by x_e through a neighbor;
  monomials are homogeneous of degree exactly k.
* tree: variables y_v; pendant extensions on either endpoint and two-sided
  splits at the anchor edge; degree exactly k+1.
* path: variables y_v, anchored at the current endpoint; one neighbor
  extension per step; degree exactly k+1.

The three share one skeleton, `_Builder.circuit`: the memo, the output sum
of every anchor's top-cell terms, and the tagged sums of child cells. A
builder only says which terms make up one cell. Every cell of two or more
terms is one add gate.

Every sum term carries a fresh scalar tag s, a fingerprint of degree 0 that
is not a gate but an index on the term: ('add', (child, s), ...) sums tag s
times each child. A tagged sum of one term rides on the product that reads
it, ('mul', x_e, child, s), and a path cell carries its tag on its product,
('mul', y_v, agg, s). Distinct derivations of the same square-free monomial
then pick distinct tag sets (no cell repeats inside one derivation of a
square-free monomial, because a cell's monomials all contain its anchor
variables), so coefficients survive characteristic 2 under random tag
values. With every tag set to one the polynomial is exactly the untagged
recurrence over the non-negative integers, which is what the tests' symbolic
expansion checks.

A Circuit is analysed once, when it is constructed. The pass that checks the
gate references and tag indices numbers the structural variables and takes
every gate's degree, for the output's homogeneous degree. A second pass, from
the output down, builds the sieve's level schedule (`Schedule`): only the
gates the output reads, grouped by level into multiplies and sums, each with
its tags, with value slots reused once a value's last reader has run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..graphs import EdgeColor, RedBlueGraph, count_splits, require_even_k


@dataclass(frozen=True)
class Circuit:
    """Topologically ordered gate list; gate 0 onward, `output` is a gate id.

    Gates: ('in', var) with var ('x', edge_index) or ('y', vertex);
    ('c0',) and ('c1',); ('add', term, ...), the sum of one or more terms,
    each a gate id i or a pair (i, s), tag s times gate i; ('mul', i, j), and
    ('mul', i, j, s), the product of gates i and j times tag s. Tags are
    scalar fingerprints of degree 0, numbered 0 .. n_tags - 1; degree_bound
    dominates the structural degree of every monomial.

    Construction also stores var_index, each structural variable's number in
    order of first appearance; homogeneous_degree, the output degree if every
    add sums equal degrees; and schedule, the sieve's level schedule.
    """

    gates: tuple
    output: int
    degree_bound: int
    n_tags: int
    var_index: dict = field(init=False, repr=False, compare=False)
    homogeneous_degree: Optional[int] = field(init=False, repr=False, compare=False)
    schedule: "Schedule" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gates = self.gates
        n = len(gates)
        if not (0 <= self.output < n):
            raise ValueError("output gate out of range")
        n_tags = self.n_tags
        var_index: dict = {}
        deg = [0] * n
        homogeneous = True
        # one loop, the common gates first: it runs on every circuit built
        for gid, g in enumerate(gates):
            op = g[0]
            if op == "add":
                if len(g) < 2:
                    raise ValueError("a sum needs a term")
                ds = []
                for i in g[1:]:
                    if type(i) is tuple:
                        i, s = i
                        if not 0 <= s < n_tags:
                            raise ValueError("tag index out of range")
                    if not 0 <= i < gid:
                        raise ValueError("gate references must precede the gate")
                    ds.append(deg[i])
                deg[gid] = max(ds)
                if min(ds) != deg[gid]:
                    homogeneous = False
            elif op == "mul":
                if len(g) == 4:
                    _, i, j, s = g
                    if not 0 <= s < n_tags:
                        raise ValueError("tag index out of range")
                else:
                    _, i, j = g
                if not (0 <= i < gid and 0 <= j < gid):
                    raise ValueError("gate references must precede the gate")
                deg[gid] = deg[i] + deg[j]
            elif op == "in":
                key = g[1]
                if key[0] == "t":
                    raise ValueError("a tag is an index on a sum term or a product, not a gate")
                var_index.setdefault(key, len(var_index))
                deg[gid] = 1
        put = object.__setattr__
        put(self, "var_index", var_index)
        put(self, "homogeneous_degree", deg[self.output] if homogeneous else None)
        put(self, "schedule", _schedule(gates, self.output, var_index))


MUL, SUM = 0, 1


@dataclass(frozen=True)
class Schedule:
    """The gates the output reads, grouped by level and kind, over a buffer of
    n_slots value slots.

    Slot i < len(leaves) starts out holding leaf i, the structural variable
    numbered leaves[i] (c.var_index numbers); each of consts (slot, bit)
    holds the constant c0 or c1. A step sets slot out[g] for every g:

    * (MUL, out, a, b, t, n_leaf): the product of slots a[g] and b[g], times
      tag t[g] where t[g] >= 0; t is None when no product of the step carries
      a tag. The first n_leaf entries have a structural variable as their
      factor a[g]; its slot is then its leaf number, which an evaluator may
      use to read values it keeps per leaf. Other slots below len(leaves) are
      not leaves once they have been reused;
    * (SUM, out, a, b, t): the XOR of slots a[b[g]:b[g + 1]], at least one of
      them, each term a[i] times tag t[i] where t[i] >= 0; t is None when no
      term of the step carries a tag.

    Steps come level by level and a step reads only values of lower levels. A
    slot is given to a new value only after the level of its old value's last
    reader, so the steps of one level may run in any order, stacked or split.
    `output` is the slot that ends up holding the output.
    """

    n_slots: int
    leaves: np.ndarray
    consts: tuple
    steps: tuple
    output: int


def _schedule(gates: tuple, out: int, var_index: dict) -> Schedule:
    """Level the gates the output reads (Circuit.__post_init__ has checked
    them).

    One pass from the output down, so that a gate is reached after every gate
    that reads it. A gate's height is one more than its highest reader's, the
    output's is 0, and the levels run from the greatest height down: each
    value is made just before its first reader needs it.
    """
    height = [0] * (out + 1)
    # the height of the gate's last reader; out + 1 until a reader is reached
    last = [out + 1] * (out + 1)
    # per height: MUL entries flat (gate, factor, factor, tag or -1), SUM
    # entries (gate, terms as (gate, tag or -1)), the MUL entries with a
    # structural variable (taken as the first factor) apart, and the values
    # whose last reader is there
    levels: List[tuple] = []
    leaves: List[int] = []
    consts: List[int] = []
    last[out] = -1
    for gid in range(out, -1, -1):
        h = last[gid]
        if h > out:
            continue
        if h >= 0:
            levels[h][3].append(gid)
        g = gates[gid]
        op = g[0]
        if op != "mul" and op != "add":
            (leaves if op == "in" else consts).append(gid)
            continue
        e = height[gid]
        if e == len(levels):
            levels.append(([], [], [], []))
        if op == "add":
            terms = [i if type(i) is tuple else (i, -1) for i in g[1:]]
            levels[e][SUM].append((gid, terms))
            operands = [i for i, _ in terms]
        else:
            x, y = g[1], g[2]
            if gates[y][0] == "in":
                x, y = y, x
            levels[e][2 if gates[x][0] == "in" else MUL].extend(
                (gid, x, y, g[3] if len(g) == 4 else -1))
            operands = (x, y)
        for x in operands:
            if height[x] <= e:
                height[x] = e + 1
            if last[x] > e:
                last[x] = e
    # slots, level by level: a slot freed after one level is reused from the next
    slot = [-1] * (out + 1)
    n_slots = 0
    for gid in leaves + consts:
        slot[gid] = n_slots
        n_slots += 1
    free: List[int] = []
    mul_flat: List[int] = []  # MUL entries, level by level
    sum_out, sum_len, sum_terms, sum_tags = [], [0], [], []
    spans = []  # (kind, first entry, end, MUL entries with a leaf factor, tagged)
    for muls, sums, leaf_muls, dying in reversed(levels):
        muls = leaf_muls + muls
        sum_gates = [v for v, _ in sums]
        for v in muls[::4] + sum_gates:
            if free:
                slot[v] = free.pop()
            else:
                slot[v] = n_slots
                n_slots += 1
        if muls:
            lo = len(mul_flat) // 4
            spans.append((MUL, lo, lo + len(muls) // 4, len(leaf_muls) // 4,
                          max(muls[3::4]) >= 0))
            mul_flat += muls
        if sums:
            lo = len(sum_tags)
            for _, terms in sums:
                sum_len.append(len(terms))
                for x, s in terms:
                    sum_terms.append(x)
                    sum_tags.append(s)
            spans.append((SUM, len(sum_out), len(sum_out) + len(sums), 0,
                          max(sum_tags[lo:]) >= 0))
            sum_out += sum_gates
        free += [slot[v] for v in dying]
    at = np.array(slot, dtype=np.intp)
    muls = np.array(mul_flat, dtype=np.intp).reshape(-1, 4).T
    muls[:3] = at[muls[:3]]  # a leaf's slot is its number
    sum_slots = at[np.array(sum_out, dtype=np.intp)]
    terms = at[np.array(sum_terms, dtype=np.intp)]
    tags = np.array(sum_tags, dtype=np.intp)
    starts = np.cumsum(sum_len, dtype=np.intp)
    steps = []
    for kind, lo, hi, n_leaf, tagged in spans:
        if kind == SUM:
            steps.append((SUM, sum_slots[lo:hi], terms, starts[lo : hi + 1],
                          tags if tagged else None))
        else:
            steps.append((MUL, muls[0, lo:hi], muls[1, lo:hi], muls[2, lo:hi],
                          muls[3, lo:hi] if tagged else None, n_leaf))
    return Schedule(n_slots, np.array([var_index[gates[v][1]] for v in leaves], dtype=np.intp),
                    tuple((slot[v], gates[v][0] == "c1") for v in consts),
                    tuple(steps), slot[out])


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

    def mul(self, a, b) -> int:
        """The product of a and b, each a gate or a tagged term (gate, tag) as
        `tagged_sum` returns it. One tagged term rides on the product; when
        both are, the first becomes a sum of one term."""
        if type(a) is tuple:
            a, b = b, a
        if type(a) is tuple:
            a = self.gate(("add", a))
        return self.gate(("mul", a, *b) if type(b) is tuple else ("mul", a, b))

    def addtree(self, ids: List[int]) -> Optional[int]:
        """The sum of ids as one gate: None for no terms, the term itself for one."""
        if len(ids) < 2:
            return ids[0] if ids else None
        return self.gate(("add", *ids))

    def tagged_sum(self, cell: Callable, j: int, anchors, r: int, b: int):
        """Sum over anchors a of a fresh tag times cell(j, a, r, b), skipping
        zero cells: one sum gate, the tagged term (child, tag) itself for one
        term, or None for none. Each child's tag is numbered right after the
        child is built."""
        terms = []
        for a in anchors:
            ch = cell(j, a, r, b)
            if ch is not None:
                terms.append((ch, self.n_tags))
                self.n_tags += 1
        if len(terms) < 2:
            return terms[0] if terms else None
        return self.gate(("add", *terms))

    def circuit(self, rule: Callable, anchors, k: int, degree_bound: int) -> Circuit:
        """The sum over anchors of the cell (k, anchor, k/2, k/2).

        rule(cell, j, anchor, r, b) returns the terms of a cell, the gates it
        sums, none when the cell is zero; cell(j, anchor, r, b) looks up a
        child, memoized, and is None for a zero cell or negative counts. Only
        the output reads a top cell, so the output sums the top cells' terms.
        """
        half = k // 2
        memo: Dict[tuple, Optional[int]] = {}

        def cell(j, a, r, b):
            if r < 0 or b < 0:
                return None
            key = (j, a, r, b)
            if key in memo:
                return memo[key]
            memo[key] = out = self.addtree(rule(cell, j, a, r, b))
            return out

        top = self.addtree([t for a in anchors for t in rule(cell, k, a, half, half)])
        del cell  # break the closure's self-reference so the memo frees on return
        if top is None:
            top = self.gate(("c0",))
        return Circuit(tuple(self.gates), top, degree_bound, self.n_tags)


def build_circuit_ebcs(G: RedBlueGraph, k: int) -> Circuit:
    """Sum over edges of P_k(e, k/2, k/2) for connected relaxed subgraphs."""
    require_even_k(k)
    bld = _Builder()
    nbrs = [G.edge_neighbors(e) for e in range(G.m)]
    red = [G.color(e) is EdgeColor.RED for e in range(G.m)]

    def rule(cell, j, e, r, b):
        rc, bc = (r - 1, b) if red[e] else (r, b - 1)
        if j == 1:
            return [bld.var(("x", e))] if rc == bc == 0 else []
        if rc < 0 or bc < 0:
            return []
        terms = []
        agg = bld.tagged_sum(cell, j - 1, nbrs[e], rc, bc)
        if agg is not None:
            terms.append(bld.mul(bld.var(("x", e)), agg))
        for (r1, b1), _ in count_splits(rc, bc):
            rest = cell(j - r1 - b1, e, r - r1, b - b1)
            if rest is None:
                continue
            lagg = bld.tagged_sum(cell, r1 + b1, nbrs[e], r1, b1)
            if lagg is not None:
                terms.append(bld.mul(lagg, rest))
        return terms

    return bld.circuit(rule, range(G.m), k, k)


def build_circuit_ebt(G: RedBlueGraph, k: int) -> Circuit:
    """Sum over edges of P_k(e, k/2, k/2) for relaxed trees; degree k+1."""
    require_even_k(k)
    bld = _Builder()
    red = [G.color(e) is EdgeColor.RED for e in range(G.m)]
    at = []
    for e in range(G.m):
        u, v, _ = G.edges[e]
        eu = sorted(j for w, j in G.adjacency[u] if j != e and w != v)
        ev = sorted(j for w, j in G.adjacency[v] if j != e and w != u)
        at.append((eu, ev))

    def rule(cell, j, e, r, b):
        u, v, _ = G.edges[e]
        rc, bc = (r - 1, b) if red[e] else (r, b - 1)
        if j == 1:
            return [bld.mul(bld.var(("y", u)), bld.var(("y", v)))] if rc == bc == 0 else []
        if rc < 0 or bc < 0:
            return []
        eu, ev = at[e]
        terms = []
        # a pendant endpoint, with the remainder hanging at the other one
        for leaf, side in ((u, ev), (v, eu)):
            agg = bld.tagged_sum(cell, j - 1, side, rc, bc)
            if agg is not None:
                terms.append(bld.mul(bld.var(("y", leaf)), agg))
        # two-sided split: u-side times v-side, sizes l1 + l2 = j - 1
        for (r1, b1), (r2, b2) in count_splits(rc, bc):
            lagg = bld.tagged_sum(cell, r1 + b1, eu, r1, b1)
            if lagg is None:
                continue
            ragg = bld.tagged_sum(cell, r2 + b2, ev, r2, b2)
            if ragg is not None:
                terms.append(bld.mul(lagg, ragg))
        return terms

    return bld.circuit(rule, range(G.m), k, k + 1)


def build_circuit_ebp(G: RedBlueGraph, k: int) -> Circuit:
    """Sum over vertices of P_k(v, k/2, k/2) for relaxed paths; degree k+1."""
    require_even_k(k)
    bld = _Builder()
    red = [G.color(e) is EdgeColor.RED for e in range(G.m)]

    def rule(cell, j, v, r, b):
        if j == 0:
            return [bld.var(("y", v))]
        agg = bld.addtree([ch for ch in (cell(j - 1, u, r - 1, b) if red[e]
                                         else cell(j - 1, u, r, b - 1)
                                         for u, e in G.adjacency[v]) if ch is not None])
        if agg is None:
            return []
        bld.n_tags += 1
        return [bld.gate(("mul", bld.var(("y", v)), agg, bld.n_tags - 1))]

    return bld.circuit(rule, range(1, G.n + 1), k, k + 1)
