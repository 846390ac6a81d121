import hashlib
import json
import random
import sys
from itertools import product

import pytest

from bcslab.graphs import EdgeColor, RedBlueGraph, Witness, WitnessKind, validate_witness
from bcslab import shrink
from bcslab.shrink import (
    ShrinkPreconditionError,
    shrink_path,
    shrink_subgraph,
    shrink_to_range,
    shrink_tree,
)

from conftest import B, R, path_graph, random_redblue


def test_shrink_path_terminal_case():
    g = path_graph([R, B, R, B])
    out = shrink_path(g, Witness(WitnessKind.PATH, (0, 1, 2, 3)), 2)
    assert sorted(out.edge_indices) == [1, 2]


def test_shrink_path_split_case():
    g = path_graph([R, B, B, R])
    out = shrink_path(g, Witness(WitnessKind.PATH, (0, 1, 2, 3)), 2)
    assert out.size == 2 and validate_witness(g, out, 2).valid


def test_shrink_path_longer_half():
    # same-color terminals with an off-center zero: longer half comes back
    g = path_graph([R, R, B, B, B, R])
    out = shrink_path(g, Witness(WitnessKind.PATH, tuple(range(6))), 2)
    assert sorted(out.edge_indices) == [0, 1, 2, 3]


def test_shrink_path_precondition():
    g = path_graph([R, B])
    with pytest.raises(ShrinkPreconditionError):
        shrink_path(g, Witness(WitnessKind.PATH, (0, 1)), 2)  # length < 2k


def test_shrink_path_exhaustive_small():
    # all balanced colorings of paths with length in [2k, 10], k = 2
    k = 2
    for L in range(2 * k, 11):
        for colors in product((R, B), repeat=L):
            if sum(1 for c in colors if c is R) * 2 != L:
                continue
            g = path_graph(list(colors))
            w = Witness(WitnessKind.PATH, tuple(range(L)))
            out = shrink_path(g, w, k)
            assert out.size < L and out.size >= k
            assert validate_witness(g, out, out.size).valid


def test_shrink_tree_pendant_pair():
    edges = [(1, 3, R), (1, 4, R), (1, 5, R), (1, 2, R),
             (2, 6, B), (2, 7, B), (2, 8, B), (2, 9, B)]
    g = RedBlueGraph(9, tuple(edges))
    out = shrink_tree(g, Witness(WitnessKind.TREE, tuple(range(8))), 2)
    assert out.size == 6 and validate_witness(g, out, 6).valid


def test_shrink_tree_path_delegation():
    g = path_graph([R, B] * 4)
    out = shrink_tree(g, Witness(WitnessKind.TREE, tuple(range(8))), 2)
    assert out.kind is WitnessKind.TREE
    assert out.size >= 2 and validate_witness(g, out, out.size).valid


def test_shrink_tree_spider_case_c():
    # three legs of length 4 from a center; all pendant edges red, balanced
    edges = []
    vid = 2
    for leg in range(3):
        prev = 1
        for depth in range(4):
            # outermost edge red on every leg; inner edges chosen to balance
            color = R if depth == 3 else [B, B, R][leg] if depth == 0 else (B if leg < 2 else R)
            edges.append((prev, vid, color))
            prev = vid
            vid += 1
    g = RedBlueGraph(vid - 1, tuple(edges))
    reds = sum(1 for e in edges if e[2] is R)
    if reds * 2 != len(edges):
        pytest.skip("construction not balanced; covered by the sweep")
    out = shrink_tree(g, Witness(WitnessKind.TREE, tuple(range(len(edges)))), 2)
    assert out.size >= 2 and validate_witness(g, out, out.size).valid


def test_shrink_tree_boundary_precondition():
    g = path_graph([R, B, R, B, R, B, B])
    with pytest.raises(ShrinkPreconditionError):
        shrink_tree(g, Witness(WitnessKind.TREE, tuple(range(7))), 2)


def test_shrink_subgraph_cycle():
    g = RedBlueGraph(10, tuple((i + 1, (i + 1) % 10 + 1, R if i % 2 == 0 else B) for i in range(10)))
    out = shrink_subgraph(g, Witness(WitnessKind.SUBGRAPH, tuple(range(10))), 2)
    assert 2 <= out.size <= 9 and validate_witness(g, out, out.size).valid


def test_shrink_subgraph_boundary():
    # 3k+2 edges is below the precondition
    g = path_graph([R, B] * 4)
    with pytest.raises(ShrinkPreconditionError):
        shrink_subgraph(g, Witness(WitnessKind.SUBGRAPH, tuple(range(8))), 2)


def test_shrink_to_range_path():
    g = path_graph([R, B] * 4)
    out = shrink_to_range(g, Witness(WitnessKind.PATH, tuple(range(8))), 2)
    assert 2 <= out.size <= 3 and validate_witness(g, out, out.size).valid


def test_shrink_to_range_identity_below_threshold():
    g = path_graph([R, B])
    w = Witness(WitnessKind.PATH, (0, 1))
    assert shrink_to_range(g, w, 2) == w


def test_shrink_to_range_tree_window():
    # balanced caterpillar with 20 edges
    edges = []
    for i in range(10):
        edges.append((i + 1, i + 2, R if i % 2 == 0 else B))
    vid = 12
    for i in range(10):
        edges.append((i + 1, vid, B if i % 2 == 0 else R))
        vid += 1
    g = RedBlueGraph(vid - 1, tuple(edges))
    w = Witness(WitnessKind.TREE, tuple(range(20)))
    assert validate_witness(g, w, 20).valid
    out = shrink_to_range(g, w, 2)
    assert 2 <= out.size <= 7 and validate_witness(g, out, out.size).valid


# ---------------------------------------------------------------------------
# The incremental shrink_to_range against the chained single steps
# ---------------------------------------------------------------------------

P_, T_, S_ = WitnessKind.PATH, WitnessKind.TREE, WitnessKind.SUBGRAPH


def planted_witness(kind, size, seed, noise=None):
    """A random balanced path/tree/connected subgraph of `size` edges in a host graph.

    Vertex labels and edge ids are shuffled, so path orientation, pendant and
    leaf minima and the line-graph root all vary; `noise` extra random edges
    (size // 4 by default) give the host edges outside the witness.
    """
    rng = random.Random(seed)
    if kind is P_:
        nv = size + 1
        pairs = [(i, i + 1) for i in range(1, size + 1)]
    elif kind is T_:
        nv = size + 1
        pairs = [(rng.randrange(1, i), i) for i in range(2, size + 2)]
    else:
        nv = max(4, (2 * size) // 3 + 1)
        while nv * (nv - 1) // 2 < size:
            nv += 1
        pairs = [(rng.randrange(1, i), i) for i in range(2, nv + 1)]
        have = {frozenset(p) for p in pairs}
        while len(pairs) < size:
            a, b = rng.sample(range(1, nv + 1), 2)
            if frozenset((a, b)) not in have:
                have.add(frozenset((a, b)))
                pairs.append((a, b))
    noise = size // 4 if noise is None else noise
    n = nv + noise
    label = list(range(1, n + 1))
    rng.shuffle(label)
    colors = [R] * (size // 2) + [B] * (size // 2)
    rng.shuffle(colors)
    edges = [(label[u - 1], label[v - 1], c) for (u, v), c in zip(pairs, colors)]
    have = {frozenset(e[:2]) for e in edges}
    while len(edges) < size + noise:
        a, b = rng.sample(range(1, n + 1), 2)
        if frozenset((a, b)) not in have:
            have.add(frozenset((a, b)))
            edges.append((a, b, rng.choice((R, B))))
    perm = list(range(len(edges)))
    rng.shuffle(perm)
    new_id = {old: new for new, old in enumerate(perm)}
    g = RedBlueGraph(n, tuple(edges[old] for old in perm))
    return g, Witness(kind, tuple(new_id[i] for i in range(size)))


def golden_outputs():
    out = []
    for t, kind in enumerate((P_, T_, S_)):
        for size in (50, 120, 300, 600):
            for k in (2, 4, 6):
                g, w = planted_witness(kind, size, 1000 * size + 10 * k + t)
                res = shrink_to_range(g, w, k)
                out.append([kind.value, size, k, sorted(res.edge_indices)])
    return out


# digest of golden_outputs() as the step-by-step shrink_to_range computed it
GOLDEN_DIGEST = "30b5f10c393e3907de5433a224cb35fc62fa37e1b3e15c85fdfdfa52666e297d"


def test_shrink_to_range_golden():
    out = golden_outputs()
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == GOLDEN_DIGEST


def step_fold(g, w, k, seen=None):
    """shrink_to_range as a chain of the public single steps; `seen` collects
    every intermediate witness that was stepped."""
    cur = w
    while cur.size >= shrink._THRESHOLD[w.kind](k):
        if seen is not None:
            seen.append(cur)
        nxt = shrink._STEP[w.kind](g, cur, k)
        assert nxt.size < cur.size
        cur = nxt
    return cur


def _is_path(g, edge_indices):
    deg = {}
    for i in edge_indices:
        for x in g.endpoints(i):
            deg[x] = deg.get(x, 0) + 1
    return max(deg.values()) <= 2


def test_shrink_to_range_equals_step_fold_on_criterion_3_sweeps():
    from test_acceptance import _grow_balanced_subgraph, _nonisomorphic_trees
    from bcslab.corpus import random_graph

    k = 2
    for L in range(2, 13):
        for colors in product((R, B), repeat=L):
            if 2 * colors.count(R) == L:
                g = path_graph(list(colors))
                w = Witness(P_, tuple(range(L)))
                assert shrink_to_range(g, w, k) == step_fold(g, w, k)
    for order in range(3, 12):
        for tedges in _nonisomorphic_trees(order):
            m = len(tedges)
            for mask in range(1 << m):
                colors = [R if mask >> i & 1 else B for i in range(m)]
                if 2 * colors.count(R) == m:
                    g = RedBlueGraph(order, tuple((u, v, c) for (u, v), c in zip(tedges, colors)))
                    w = Witness(T_, tuple(range(m)))
                    assert shrink_to_range(g, w, k) == step_fold(g, w, k)
    rng = random.Random(31337)
    seed = n_sub = 0
    for kk in (2, 4):
        size = 3 * kk + 4
        while n_sub < (250 if kk == 2 else 500):
            seed += 1
            host = random_graph(12, 0.45, 5000 + seed)
            w = _grow_balanced_subgraph(host, size, rng) if host.m >= size else None
            if w is not None:
                assert shrink_to_range(host, w, kk) == step_fold(host, w, kk)
                n_sub += 1


def test_shrink_to_range_equals_step_fold_random(monkeypatch):
    # case (c) calls per form, told apart by the engine that makes the call
    calls = {shrink._EdgeTree: 0, shrink._LineTree: 0}

    def counted(*args, _f=shrink._rebalance):
        calls[type(sys._getframe(1).f_locals["self"])] += 1
        return _f(*args)

    monkeypatch.setattr(shrink, "_rebalance", counted)
    tree_to_path = root_removed = 0
    for kind in (P_, T_, S_):
        for seed in range(400):
            size = 8 + 2 * (seed % 40)
            k = 2 + 2 * (seed % 3)
            g, w = planted_witness(kind, size, 7000 + seed, noise=seed % 5)
            seen = []
            out = step_fold(g, w, k, seen)
            assert shrink_to_range(g, w, k) == out
            if kind is T_ and not _is_path(g, w.edge_indices):
                tree_to_path += any(_is_path(g, x.edge_indices) for x in seen)
            if kind is S_:
                root_removed += sum(1 for x, y in zip(seen, seen[1:] + [out])
                                    if min(x.edge_indices) not in y.edge_indices)
    # each of these forces a rebuild (or a switch to the path window) mid-run
    assert calls[shrink._EdgeTree] > 0 and calls[shrink._LineTree] > 0
    assert tree_to_path > 0 and root_removed > 0


def test_shrink_to_range_validates_once(monkeypatch):
    g = path_graph([R, B] * 1000)
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_witness(*args)

    monkeypatch.setattr(shrink, "validate_witness", counted)
    out = shrink_to_range(g, Witness(P_, tuple(range(2000))), 4)
    assert len(calls) == 1
    assert 4 <= out.size <= 7 and validate_witness(g, out, out.size).valid


def test_shrink_to_range_k_below_two():
    g = path_graph([R, B] * 4)
    with pytest.raises(ShrinkPreconditionError):
        shrink_to_range(g, Witness(P_, tuple(range(8))), 0)
