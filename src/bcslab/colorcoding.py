"""Colorful dynamic programs and coloring-family drivers.

An edge coloring sigma: E -> [k] (or vertex coloring tau: V -> [k+1]) turns
the balanced search into a colorful one. A coloring is a row, a plain tuple
of labels: sigma(e) at row[e] for edge e, tau(v) at row[v - 1] for vertex v.
The DPs below decide whether some balanced structure uses every label
exactly once, in time ~ 4^k, and rebuild a witness by walking back through
their tables. Two drivers lift the colorful DPs back to the uncolored
problems: a Monte Carlo loop with ceil(e^k ln(1/delta)) uniformly random
colorings, and a greedy-cover hash family that is exact at test scale (Alon,
Yuster, Zwick, "Color-coding", JACM 1995).

A label set is a bitmask (label i occupies bit i-1). A table cell, one per
anchor and (red, blue) edge count, is a Python int whose bit L is set when
label set L is reachable, so a cell over h labels is 2^h bits wide; h is
capped at MAX_LABELS = 20. Adding label bit c to the sets of a cell S that
lack it is (S & keep[c]) << c, and the disjoint-union join of two cells walks
the set bits L1 of the sparser one and ORs in (other & disjoint_from[L1]) << L1.

The three DPs share one frame, `_frame`: the (red, blue) tables, the level
loop with its early exit, the search for a top anchor whose (k/2, k/2) cell
holds every label, and the witness walk. A DP only gives its level-0 cells,
the step that makes a row of the next level from the one below, and the walk
step that splits a popped cell into its children.

The tree and path DPs decide a batch of colorings, a tuple of rows, in one
pass, one coloring being the one-lane case: a cell holds one lane of
2^(k+1) bits per coloring, set up once for both by _lane_cells. The path
recurrence moves no bit from one lane to another. The tree's split join
pairs two cells' label sets; it walks the sets that any lane of one side
holds, and joins each only in the lanes that hold it. Both answer the index
of the first hitting row with the witness walked in that lane, or None. The
drivers run their tree and path colorings in batches that double from one
coloring up to _LANE_BYTES per cell, in the order they draw them, so the
first batch with a hit gives the first coloring with a witness, and its
witness. Subgraph colorings, and tree colorings past k = 4, run one at a
time: there each label set is held by too few lanes for the join to pay.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations, islice
from typing import Optional

from .graphs import (EdgeColor, RedBlueGraph, Witness, WitnessKind, count_level, count_splits,
                     require_even_k)


MAX_LABELS = 20
# _LANE_OF[l]: a bytes.translate table that maps byte l to 1 and every other byte to 0
_LANE_OF = tuple(bytes(l) + b"\x01" + bytes(255 - l) for l in range(MAX_LABELS + 1))


@lru_cache(maxsize=None)
def _keep_masks(labels: int) -> tuple:
    """keep[i]: the bits L of a cell over `labels` labels whose set L lacks bit i.

    Raises ValueError past MAX_LABELS, before any cell is allocated.
    """
    if labels > MAX_LABELS:
        raise ValueError("k too large for bitmask labels")
    width = 1 << labels
    keep = []
    for i in range(labels):
        mask, period = (1 << (1 << i)) - 1, 2 << i
        while period < width:
            mask |= mask << period
            period <<= 1
        keep.append(mask)
    return tuple(keep)


def _check_rows(rows: tuple, k: int, size: int, labels: int) -> None:
    """Raises ValueError unless k is even and rows is a non-empty batch of
    rows of length size (G's m edges or n vertices) over labels 1..labels."""
    require_even_k(k)
    if not rows:
        raise ValueError("a batch holds at least one coloring")
    for row in rows:
        if len(row) != size:
            raise ValueError("coloring does not match (G, k)")
        if row and (min(row) < 1 or max(row) > labels):
            raise ValueError("edge labels must lie in 1..k" if labels == k else
                             "vertex labels must lie in 1..k+1")


def _label_masks(row: tuple, k: int, size: int, labels: int) -> tuple:
    """(keep, disjoint, bit, lacks) for one row, once _check_rows passes it:
    the keep masks, a fresh _disjoint_from memo, and per element its label's
    bit and the keep mask of the sets that lack it."""
    _check_rows((row,), k, size, labels)
    keep = _keep_masks(labels)
    return (keep, {0: (1 << (1 << labels)) - 1}, [1 << l >> 1 for l in row],
            [keep[l - 1] for l in row])


@lru_cache(maxsize=None)
def _one_lane_cells(labels: int) -> tuple:
    """(base, masks, bits) of _lane_cells for one lane, per label l at index l."""
    keep = _keep_masks(labels)
    return ((None, *(1 << (1 << l >> 1) for l in range(1, labels + 1))), (None, *keep),
            (None, *(1 << l >> 1 for l in range(1, labels + 1))))


def _lane_cells(rows: tuple, labels: int) -> tuple:
    """(ones, base, masks, bits, more) for a batch of vertex colorings over
    `labels` labels, once _check_rows passes it. Each row is a lane of
    W = 2^labels bits in a cell, lane c at bits c*W..c*W + W - 1: ones holds
    bit 0 of every lane, and base[v] the set {v's label} in every lane, the
    level-0 cell of vertex v. For each label l that v carries in the batch,
    M[v][l] holds keep[l-1] in exactly the lanes whose coloring gives v label
    l, so adding v's label to the sets of a cell S that lack it is the OR of
    (S & M[v][l]) << 2^(l-1) over those l. masks[v] and bits[v] give the
    first such pair, more[v] the further pairs. One lane builds no byte
    buffer and no masks.
    """
    if len(rows) == 1:
        base, masks, bits = _one_lane_cells(labels)
        row = rows[0]
        return (1, [0, *map(base.__getitem__, row)], [0, *map(masks.__getitem__, row)],
                [0, *map(bits.__getitem__, row)], [()] * (len(row) + 1))
    keep, lanes = _keep_masks(labels), len(rows)
    stride = 1 << labels >> 3  # bytes per lane
    ones = int.from_bytes((b"\x01" + bytes(stride - 1)) * lanes, "little")
    base, masks, bits, more = [0], [0], [0], [()]
    column = bytearray(stride * lanes)
    for col in zip(*rows):
        l = col[0]
        if col.count(l) == lanes:  # one label in every lane
            bit = 1 << l >> 1
            pairs = [(ones * keep[l - 1], bit)]
            base.append(ones << bit)
        else:
            column[::stride] = bytes(col)
            cell, pairs = 0, []
            for l in set(col):
                at, bit = int.from_bytes(column.translate(_LANE_OF[l]), "little"), 1 << l >> 1
                cell |= at << bit
                pairs.append((at * keep[l - 1], bit))
            base.append(cell)
        masks.append(pairs[0][0])
        bits.append(pairs[0][1])
        more.append(tuple(pairs[1:]))
    return ones, base, masks, bits, more


def _disjoint_from(L: int, disjoint: dict, keep: tuple) -> int:
    """The bits of a cell whose label sets miss L; memoised in `disjoint`."""
    d = disjoint.get(L)
    if d is None:
        low = L & -L
        d = _disjoint_from(L ^ low, disjoint, keep) & keep[low.bit_length() - 1]
        disjoint[L] = d
    return d


def _join(a: int, b: int, disjoint: dict, keep: tuple) -> int:
    """The cell of every L1 | L2 with L1 in a, L2 in b and L1 & L2 == 0."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        L1 = low.bit_length() - 1
        d = disjoint.get(L1)
        if d is None:
            d = _disjoint_from(L1, disjoint, keep)
        out |= (b & d) << L1
        a ^= low
    return out


def _lane_join(a: int, sets: int, b: int, disjoint: dict, keep: tuple, ones: int) -> int:
    """_join in every lane of cells of several lanes at once, where sets holds
    the label sets L1 that any lane of a holds. For each, h = (a >> L1) & ones
    holds bit 0 of the lanes that hold L1, and h * disjoint_from[L1] is that
    mask in exactly those lanes, so (b & h * disjoint_from[L1]) << L1 joins
    L1 in every lane that holds it.
    """
    out = 0
    while sets:
        low = sets & -sets
        L1 = low.bit_length() - 1
        d = disjoint.get(L1)
        if d is None:
            d = _disjoint_from(L1, disjoint, keep)
        out |= (b & (a >> L1 & ones) * d) << L1
        sets ^= low
    return out


def _vertex_unions(n: int, ends: list, row: list) -> list:
    """acc[x]: the union of row[e] over the edges e at vertex x."""
    acc = [0] * (n + 1)
    for (u, v), cell in zip(ends, row):
        if cell:
            acc[u] |= cell
            acc[v] |= cell
    return acc


def _child(G: RedBlueGraph, cells, vertices, r: int, b: int, L: int) -> tuple:
    """The walk cell (e, r, b, L) of the first edge e at the given vertices,
    in adjacency order, whose cell (r, b) holds L."""
    row = cells[r][b]
    return next(e for x in vertices for _, e in G.adjacency[x] if row[e] >> L & 1), r, b, L


def _split(G: RedBlueGraph, cells, lower, rc: int, bc: int, rest: int, one, two) -> tuple:
    """The two walk cells of the first split of (rc, bc) edges, in
    count_splits order, and of label set rest into s and rest ^ s, over the
    submasks s from rest down to 0, that the lower tables hold. one and two
    are (index in lower, vertices for _child, label bits the side adds)."""
    (i1, at1, add1), (i2, at2, add2) = one, two
    for (r1, b1), (r2, b2) in count_splits(rc, bc):
        n1, n2 = lower[r1][b1][i1], lower[r2][b2][i2]
        s = rest
        while True:
            L1, L2 = s | add1, rest ^ s | add2
            if n1 >> L1 & 1 and n2 >> L2 & 1:
                return _child(G, cells, at1, r1, b1, L1), _child(G, cells, at2, r2, b2, L2)
            if not s:
                break
            s = (s - 1) & rest


def _frame(kind: WitnessKind, k: int, full: int, base: list, below, step, children,
           stats: Optional[dict] = None) -> tuple:
    """The table, level loop, top-anchor search and witness walk of a colorful DP.

    cells[r][b] is the row of cells, one per anchor, for r red and b blue
    edges. Level j = r + b reads level j - 1 through lower[r][b] =
    below(cells[r][b]) (the rows themselves when below is None), and level
    1 reads lower[0][0] = base: step(lower, r, b) returns row (r, b). A level
    whose rows are all empty ends the loop. `full` holds each lane's full-set
    bit (1 << (2^labels - 1) for one lane); the lowest that a (k/2, k/2) cell
    holds gives the lane, and the first anchor whose cell holds it starts the
    walk: children(cells, lower, out, anchor, r, b, L) appends a popped cell's
    witness edges to out and returns its children, the cells (anchor, r, b, L)
    whose label sets make up L. The answer is (lane, witness), lane counting
    the lanes below the hitting one, or (None, None).
    stats["entries"], when given, counts the (anchor, r, b, label set)
    entries of the finished table.
    """
    half = k // 2
    cells = [[None] * (half + 1) for _ in range(half + 1)]
    lower = cells if below is None else [[None] * (half + 1) for _ in range(half + 1)]
    lower[0][0] = base
    for j in range(1, k + 1):
        if j > 1 and below is not None:
            for r, b in count_level(j - 1, half):
                lower[r][b] = below(cells[r][b])
        alive = False
        for r, b in count_level(j, half):
            row = cells[r][b] = step(lower, r, b)
            alive = alive or any(row)
        if not alive:
            break
    if stats is not None:
        stats["entries"] = sum(c.bit_count() for rows in cells for row in rows if row for c in row)
    top = 0
    if alive:
        for cell in cells[half][half]:
            top |= cell
    top &= full
    if not top:
        return None, None
    L = (top & -top).bit_length() - 1
    anchor = next(a for a, cell in enumerate(cells[half][half]) if cell >> L & 1)
    out, stack = [], [(anchor, half, half, L)]
    while stack:
        stack.extend(children(cells, lower, out, *stack.pop()))
    return (full & (1 << L) - 1).bit_count(), Witness(kind, tuple(sorted(out)))


def colorful_bcs_dp(G: RedBlueGraph, labels: tuple, k: int,
                    stats: Optional[dict] = None) -> Optional[Witness]:
    """[k]-edge-colorful balanced connected subgraph of size k, if any, where
    labels[e] in 1..k is edge e's label.

    stats["entries"], when given, counts the (anchor, r, b, label set)
    entries the table reached.
    """
    keep, disjoint, bit, lacks = _label_masks(labels, k, G.m, k)
    ends, reds, blues = G._edge_lists
    # cells[r][b][e]: label sets of connected subgraphs with r red and b blue
    # edges that contain e. near[r][b][e]: those that contain an edge at an
    # end of e and lack e's label (a set holding e itself has e's label);
    # near[0][0] holds the empty set at every edge, so level 1 is each edge alone.

    def near_row(row):
        acc = _vertex_unions(G.n, ends, row)
        return [(acc[u] | acc[v]) & c for (u, v), c in zip(ends, lacks)]

    def step(near, r, b):
        row = [0] * G.m
        for edges, rc, bc in ((reds, r - 1, b), (blues, r, b - 1)):
            if rc < 0 or bc < 0:
                continue
            extend, parts = near[rc][bc], count_splits(rc, bc)
            # the join is symmetric: each unordered split once
            splits = [(near[r1][b1], near[r2][b2])
                      for (r1, b1), (r2, b2) in parts if (r1, b1) <= (r2, b2)] if parts else ()
            for e in edges:
                cell = extend[e]
                for n1, n2 in splits:
                    a1, a2 = n1[e], n2[e]
                    if a1 and a2:
                        cell |= _join(a1, a2, disjoint, keep)
                row[e] = cell << bit[e]
        return row

    def children(cells, near, out, e, r, b, L):
        out.append(e)
        if r + b == 1:
            return ()
        rc, bc = (r - 1, b) if G.edges[e][2] is EdgeColor.RED else (r, b - 1)
        rest = L ^ bit[e]
        if near[rc][bc][e] >> rest & 1:
            return (_child(G, cells, ends[e], rc, bc, rest),)
        return _split(G, cells, near, rc, bc, rest, (e, ends[e], 0), (e, ends[e], 0))

    return _frame(WitnessKind.SUBGRAPH, k, 1 << (1 << k) - 1, [1] * G.m, near_row, step, children,
                  stats)[1]


def colorful_bt_dp(G: RedBlueGraph, rows: tuple, k: int) -> Optional[tuple]:
    """[k+1]-vertex-colorful balanced tree with k edges, if any, for a batch
    of colorings: rows[c][v - 1] in 1..k+1 is vertex v's label under coloring
    c. The answer is (c, witness) for the first coloring c that has such a
    tree, or None.

    Every coloring is a lane of W = 2^(k+1) bits in each cell, as in
    colorful_ebp_dp. The pendant-leaf step adds the leaf's label with its
    lane masks (_lane_cells). The split join is the one step that pairs two
    cells' label sets; it runs over the label sets that any lane holds and
    masks each to the lanes that hold it (_lane_join). One coloring walks its
    cell's own sets (_join).
    """
    _check_rows(rows, k, G.n, k + 1)
    labels = k + 1
    ones, base, masks, bits, more = _lane_cells(rows, labels)
    keep, disjoint = _keep_masks(labels), {0: (1 << (1 << labels)) - 1}
    # the lane count rounded up to 2^halvings; (shift, low mask) per halving
    halvings, width = (len(rows) - 1).bit_length(), 1 << labels
    folds = halvings and tuple((width << i, (1 << (width << i)) - 1)
                               for i in reversed(range(halvings)))
    folded = {}

    def sets_of(at, r, b):
        """Per vertex x, the label sets that any lane of at[r][b][x] holds:
        its lanes OR-folded onto lane 0."""
        sets = folded.get((r, b))
        if sets is None:
            sets = folded[r, b] = []
            for cell in at[r][b]:
                for shift, low in folds:
                    cell = cell >> shift | cell & low
                sets.append(cell)
        return sets

    ends, reds, blues = G._edge_lists
    # cells[r][b][e]: vertex label sets of colorful trees with r red and b blue
    # edges that contain e; at[r][b][x]: the union over the edges at x. A tree
    # through x holds x's label, which is what keeps e out of its own sides;
    # at[0][0][x] is the one-vertex tree x, so level 1 is each edge whose ends
    # differ in label.

    def step(at, r, b):
        row = [0] * G.m
        for edges, rc, bc in ((reds, r - 1, b), (blues, r, b - 1)):
            if rc < 0 or bc < 0:
                continue
            extend, parts = at[rc][bc], count_splits(rc, bc)
            splits = [(at[r1][b1], at[r2][b2]) for (r1, b1), (r2, b2) in parts] if parts else ()
            joins = () if folds else splits  # lanes join in the pass below
            for e in edges:
                u, v = ends[e]
                # u or v a pendant leaf, then a u-side and a v-side subtree
                cell = (extend[v] & masks[u]) << bits[u] | (extend[u] & masks[v]) << bits[v]
                for n1, n2 in joins:
                    a1, a2 = n1[u], n2[v]
                    if a1 and a2:
                        cell |= _join(a1, a2, disjoint, keep)
                row[e] = cell
            if not folds:
                continue
            # the ends' further labels in the batch, and the split join
            # over the label sets that any lane of the u side holds. This
            # second pass keeps lane tests out of the pass above: behind
            # per-edge and per-join tests there, one-coloring calls (most
            # of crosscheck's) read 1.04-1.05 of the single-coloring DP per
            # call, against 1.02-1.03 with this pass
            splits = [(at[r1][b1], sets_of(at, r1, b1), at[r2][b2])
                      for (r1, b1), (r2, b2) in parts]
            for e in edges:
                u, v = ends[e]
                cell = row[e]
                for mask, bit in more[u]:
                    cell |= (extend[v] & mask) << bit
                for mask, bit in more[v]:
                    cell |= (extend[u] & mask) << bit
                for n1, sets, n2 in splits:
                    a1, a2 = n1[u], n2[v]
                    if a1 and a2:
                        cell |= _lane_join(a1, sets[u], a2, disjoint, keep, ones)
                row[e] = cell
        return row

    # L's lane, at bit offset off, gives the coloring whose labels of the
    # leaf, or of the two sides' ends, leave the set
    def children(cells, at, out, e, r, b, L):
        out.append(e)
        if r + b == 1:
            return ()
        rc, bc = (r - 1, b) if G.edges[e][2] is EdgeColor.RED else (r, b - 1)
        u, v = ends[e]
        row = rows[L >> labels]
        bu, bv = 1 << row[u - 1] >> 1, 1 << row[v - 1] >> 1
        for leaf, x in ((bu, v), (bv, u)):
            if at[rc][bc][x] >> (L ^ leaf) & 1:
                return (_child(G, cells, (x,), rc, bc, L ^ leaf),)
        off = L >> labels << labels
        return _split(G, cells, at, rc, bc, L ^ off ^ bu ^ bv, (u, (u,), off | bu),
                      (v, (v,), off | bv))

    # the full label set is each lane's top bit
    lane, w = _frame(WitnessKind.TREE, k, ones << (1 << labels) - 1, base,
                     lambda row: _vertex_unions(G.n, ends, row), step, children)
    return None if w is None else (lane, w)


def colorful_ebp_dp(G: RedBlueGraph, rows: tuple, k: int) -> Optional[tuple]:
    """[k+1]-vertex-colorful balanced path with k edges, if any, for a batch
    of colorings: rows[c][v - 1] in 1..k+1 is vertex v's label under coloring
    c. The answer is (c, witness) for the first coloring c that has such a
    path, or None.

    Every coloring is a lane of W = 2^(k+1) bits in each cell, lane c at bits
    c*W..c*W + W - 1 (one coloring is the one-lane case). Nothing in the path
    recurrence moves a bit between lanes: the OR over a vertex's neighbours
    is lane-wise, and adding v's label is one masked shift
    (acc & M[v][l]) << 2^(l-1) per label l that v carries in the batch, where
    M[v][l] holds keep[l-1] in exactly the lanes whose coloring gives v label l
    (_lane_cells).
    """
    _check_rows(rows, k, G.n, k + 1)
    labels = k + 1
    # cells[r][b][v]: vertex label sets of colorful paths ending at v;
    # cells[0][0][v] is the one-vertex path v
    ones, base, masks, bits, more = _lane_cells(rows, labels)
    n = G.n
    reds, blues = G._neighbor_lists

    def step(cells, r, b):
        from_red = cells[r - 1][b] if r else None
        from_blue = cells[r][b - 1] if b else None
        row = [0] * (n + 1)
        for v in range(1, n + 1):
            acc = 0
            if from_red is not None:
                for u in reds[v]:
                    acc |= from_red[u]
            if from_blue is not None:
                for u in blues[v]:
                    acc |= from_blue[u]
            if acc:
                out = (acc & masks[v]) << bits[v]
                pairs = more[v]
                if pairs:  # cheaper than an empty loop for a one-label vertex
                    for mask, bit in pairs:
                        out |= (acc & mask) << bit
                row[v] = out
        return row

    # step back through the first neighbour, in adjacency order, holding the
    # rest; L's lane gives the coloring whose label of v leaves the set
    def children(cells, _, out, v, r, b, L):
        if not r + b:
            return ()
        L ^= 1 << rows[L >> labels][v - 1] >> 1
        for u, e in G.adjacency[v]:
            rc, bc = (r - 1, b) if G.edges[e][2] is EdgeColor.RED else (r, b - 1)
            if rc >= 0 and bc >= 0 and cells[rc][bc][u] >> L & 1:
                out.append(e)
                return ((u, rc, bc, L),)

    # the full label set is each lane's top bit
    lane, w = _frame(WitnessKind.PATH, k, ones << (1 << labels) - 1, base, None, step, children)
    return None if w is None else (lane, w)


# ---------------------------------------------------------------------------
# Coloring-family drivers
# ---------------------------------------------------------------------------

_FAMILY_SEED = 987654321
_FAMILY_POOL = 24
_FAMILY_MAX_UNIVERSE = 20
_FAMILY_MAX_LABELS = 6
# family_driver past greedy_hash_family's scale: random colorings at this
# failure probability and seed
_FALLBACK_DELTA = 1e-3
_FALLBACK_SEED = _FAMILY_SEED
# a batch of path or tree colorings holds at most this many bytes in one
# cell: 1024 colorings at k = 4, 256 at k = 6, 64 at k = 8, one from k = 14 up
_LANE_BYTES = 4096
# tree colorings run in lanes up to this k. Past it, each label set that the
# split join walks is held by too few lanes of a batch: on dense NO blocks
# the driver's batches (up to 256 lanes) read 1.2-1.5 of one coloring at a
# time at k = 6, and at k = 8 (up to 64 lanes) 8-13 times
_TREE_LANE_MAX_K = 4


def _draw_labels(rng: random.Random, labels: int, size: int) -> tuple:
    """size draws of rng.randrange(1, labels + 1), as that takes them from rng
    (getrandbits of labels' bit length until one falls below labels), at a
    quarter of the cost."""
    bits, draw, out = labels.bit_length(), rng.getrandbits, []
    while len(out) < size:
        r = draw(bits)
        if r < labels:
            out.append(r + 1)
    return tuple(out)


@lru_cache(maxsize=None)
def greedy_hash_family(universe_size: int, k: int) -> tuple:
    """Colorings of [universe_size] with [k] labels rainbowing every k-subset.

    Greedy set cover over the explicit k-subsets; deterministic. Test-scale
    only: universe_size <= 20, k <= 6.
    """
    m = universe_size
    if m > _FAMILY_MAX_UNIVERSE or k > _FAMILY_MAX_LABELS:
        raise ValueError("greedy_hash_family scale limit exceeded (m <= 20, k <= 6)")
    if k < 1 or m < k:
        raise ValueError("need 1 <= k <= universe_size")
    subsets = [frozenset(c) for c in combinations(range(m), k)]
    uncovered = set(range(len(subsets)))
    rng = random.Random(_FAMILY_SEED + 1000003 * m + k)
    family = []

    def coverage(sig):
        return [i for i in uncovered if len({sig[x] for x in subsets[i]}) == k]

    first = tuple((i % k) + 1 for i in range(m))
    while uncovered:
        pool = [first] if not family else []
        pool.extend(_draw_labels(rng, k, m) for _ in range(_FAMILY_POOL))
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


def coloring_universe(G: RedBlueGraph, k: int, kind: WitnessKind) -> tuple:
    """(size, labels): k labels on the edges for subgraphs, k + 1 on the vertices otherwise."""
    return (G.m, k) if kind is WitnessKind.SUBGRAPH else (G.n, k + 1)


def random_labels(rng: random.Random, G: RedBlueGraph, k: int, kind: WitnessKind) -> tuple:
    """A uniformly random label tuple over kind's coloring universe."""
    size, labels = coloring_universe(G, k, kind)
    return _draw_labels(rng, labels, size)


def colorful_dp(G: RedBlueGraph, k: int, kind: WitnessKind, labels: tuple) -> Optional[Witness]:
    """kind's colorful DP under labels over coloring_universe (vertices 1..n).

    Looks the DP up in this module at each call, so a rebound colorful_*_dp is used.
    """
    if kind is WitnessKind.SUBGRAPH:
        return colorful_bcs_dp(G, labels, k)
    dp = colorful_bt_dp if kind is WitnessKind.TREE else colorful_ebp_dp
    hit = dp(G, (labels,), k)
    return hit and hit[1]


def _first_witness(G: RedBlueGraph, k: int, kind: WitnessKind, colorings) -> Optional[Witness]:
    """The witness of the first label tuple that the iterator `colorings`
    yields under which kind's colorful DP finds one, or None.

    Tree and path colorings run in batches through colorful_bt_dp and
    colorful_ebp_dp: one coloring, then twice as many each time, up to as many
    lanes as fit _LANE_BYTES in a cell. The first batch with a hit answers
    with the witness walked in its first hitting lane. Subgraph colorings,
    and tree colorings past _TREE_LANE_MAX_K, run one at a time: there the
    lane join ran slower than one coloring at a time (at 8 subgraph labels,
    0.1-0.6 of its speed).
    """
    lanes, cap = 1, max(1, _LANE_BYTES << 3 >> (k + 1))
    if kind is WitnessKind.SUBGRAPH or kind is WitnessKind.TREE and k > _TREE_LANE_MAX_K:
        cap = 1
    while rows := tuple(islice(colorings, lanes)):
        if kind is WitnessKind.SUBGRAPH:
            w = colorful_bcs_dp(G, rows[0], k)
        else:
            dp = colorful_bt_dp if kind is WitnessKind.TREE else colorful_ebp_dp
            hit = dp(G, rows, k)
            w = hit and hit[1]
        if w is not None:
            return w
        lanes = min(2 * lanes, cap)
    return None


def _feasible(G: RedBlueGraph, k: int, kind: WitnessKind) -> bool:
    """Cheap exact necessary conditions; False means the instance is a No."""
    half = k // 2
    _, reds, blues = G._edge_lists
    if G.m < k or len(reds) < half or len(blues) < half:
        return False
    if kind in (WitnessKind.TREE, WitnessKind.PATH) and G.n < k + 1:
        return False
    # some connected component must carry >= k/2 of each color
    comp = G._component
    reds = [0] * (G.n + 1)
    blues = [0] * (G.n + 1)
    for u, _, c in G.edges:
        if c is EdgeColor.RED:
            reds[comp[u]] += 1
        else:
            blues[comp[u]] += 1
    return any(r >= half and b >= half for r, b in zip(reds, blues))


def family_driver(G: RedBlueGraph, k: int, kind: WitnessKind) -> Optional[Witness]:
    """Run the colorful DP over the greedy hash family; exact at family scale.

    Tree and path colorings run in batches of lanes (_first_witness); the
    witness is the one walked in the first family coloring with a hit, as one
    coloring at a time would find it.

    Past greedy_hash_family's scale (more than 20 edges for subgraphs or
    vertices for trees and paths, or more than 6 labels) it returns
    random_coloring_driver(G, k, kind, _FALLBACK_DELTA, _FALLBACK_SEED)
    instead, which is one-sided: a witness is always valid, and a solution is
    missed with probability at most _FALLBACK_DELTA = 1e-3.
    """
    require_even_k(k)
    if not _feasible(G, k, kind):
        return None
    universe, labels = coloring_universe(G, k, kind)
    if universe > _FAMILY_MAX_UNIVERSE or labels > _FAMILY_MAX_LABELS:
        return random_coloring_driver(G, k, kind, _FALLBACK_DELTA, _FALLBACK_SEED)
    return _first_witness(G, k, kind, iter(greedy_hash_family(universe, labels)))


def random_coloring_driver(
    G: RedBlueGraph,
    k: int,
    kind: WitnessKind,
    failure_prob: float,
    seed: int,
) -> Optional[Witness]:
    """Monte Carlo driver: ceil(e^k ln(1/delta)) random colorings through the DP.

    One-sided: a returned witness is always valid; when a size-k solution
    exists, absence is reported with probability <= delta. Tree and path
    colorings run in batches of lanes (_first_witness), drawn from the rng in
    the same order as one at a time, and the witness is walked in the first
    hitting lane, so the answer is the same.
    """
    require_even_k(k)
    if not (0.0 < failure_prob < 1.0):
        raise ValueError("failure probability must lie in (0, 1)")
    if not _feasible(G, k, kind):
        return None
    trials = math.ceil(math.exp(k) * math.log(1.0 / failure_prob))
    rng = random.Random(seed)
    return _first_witness(G, k, kind, (random_labels(rng, G, k, kind) for _ in range(trials)))
