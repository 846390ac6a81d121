import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcslab.graphs import (
    EdgeColor,
    GraphFormatError,
    RedBlueGraph,
    Witness,
    WitnessKind,
    _edge_set_connected,
    bfs,
    parse_graph,
    serialize_graph,
    split_partition,
    validate_witness,
)
from bcslab.corpus import exhaustive_corpus, nonisomorphic_graphs

from conftest import B, R, path_graph, random_redblue


def test_parse_smallest():
    g = parse_graph("graph 2 1\ne 1 2 R\n")
    assert g.n == 2 and g.m == 1 and g.color(0) is EdgeColor.RED


def test_parse_triangle():
    g = parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n")
    assert g.m == 3 and len(g.red_edges()) == 2 and len(g.blue_edges()) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("graph 2 2\ne 1 2 R\ne 2 1 B\n", "duplicate"),
        ("graph 2 1\ne 1 3 R\n", "out of range"),
        ("graph 2 1\ne 1 1 R\n", "self-loop"),
        ("graph 2 1\ne 1 2 X\n", "unknown color"),
        ("e 1 2 R\n", "header"),
        ("graph 2 2\ne 1 2 R\n", "edge lines"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("# c\ngraph 3 2\ne 1 2 R\ne 3 3 B\n")
    assert exc.value.line == 4


def test_reversed_duplicate_edge_reported_at_its_line():
    text = "graph 4 3\ne 3 4 B\n# a comment\ne 1 2 R\ne 2 4 R\ne 4 3 R\n"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == 6
    assert str(exc.value) == "line 6: duplicate undirected edge {4,3}"


def test_parse_reports_first_error_in_file_order():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 2 1 B\ne 1 3 X\n")
    assert str(exc.value) == "line 4: duplicate undirected edge {2,1}"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("graph 3 3\ne 1 2 R\ne 2 3 Q\ne 2 1 B\n")
    assert str(exc.value) == "line 3: unknown color letter 'Q'"


def test_parse_checks_each_edge_once(monkeypatch):
    text = serialize_graph(random_redblue(9, 0.5, 3))
    expected = parse_graph(text)

    def checked_again(self):
        raise AssertionError("parsed edges checked a second time")

    monkeypatch.setattr(RedBlueGraph, "__post_init__", checked_again)
    g = parse_graph(text)
    assert g == expected and g.adjacency == expected.adjacency


@pytest.mark.parametrize(
    "edges,fragment",
    [
        (((1, 3, R),), "out of range"),
        (((1, 1, R),), "self-loop"),
        (((1, 2, "R"),), "EdgeColor"),
        (((1, 2, R), (2, 1, B)), "duplicate"),
    ],
)
def test_direct_construction_validates(edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        RedBlueGraph(2, edges)


def test_roundtrip_generated():
    for seed in range(40):
        g = random_redblue(6, 0.5, seed)
        assert parse_graph(serialize_graph(g)) == g


def test_validate_witness_examples():
    tri = parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n")
    assert validate_witness(tri, Witness(WitnessKind.SUBGRAPH, (0, 1)), 2).valid
    rep = validate_witness(tri, Witness(WitnessKind.SUBGRAPH, (0, 2)), 2)
    assert not rep.valid and any("balanced" in f for f in rep.failures)
    c4 = parse_graph("graph 4 4\ne 1 2 R\ne 2 3 B\ne 3 4 R\ne 4 1 B\n")
    rep = validate_witness(c4, Witness(WitnessKind.PATH, (0, 1, 2, 3)), 4)
    assert not rep.valid and any("cycle" in f for f in rep.failures)


def _independent_validate(G, idx, kind, k):
    """Re-implementation by plain edge-set predicates."""
    idx = set(idx)
    if len(idx) != k:
        return False
    reds = sum(1 for i in idx if G.color(i) is EdgeColor.RED)
    if reds * 2 != len(idx):
        return False
    verts = set()
    for i in idx:
        u, v, _ = G.edges[i]
        verts |= {u, v}
    # connectivity by closure
    if not idx:
        return False
    comp = set(G.endpoints(next(iter(idx))))
    changed = True
    while changed:
        changed = False
        for i in idx:
            u, v, _ = G.edges[i]
            if (u in comp) != (v in comp):
                comp |= {u, v}
                changed = True
    if comp != verts:
        return False
    if kind in (WitnessKind.TREE, WitnessKind.PATH) and len(verts) != len(idx) + 1:
        return False
    if kind is WitnessKind.PATH:
        deg = {}
        for i in idx:
            u, v, _ = G.edges[i]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d > 2 for d in deg.values()):
            return False
    return True


def test_validate_agrees_with_predicates():
    # all edge subsets of all graphs with m <= 6 (sampled corpus slice)
    graphs = [g for g in exhaustive_corpus(4) if g.m <= 6][::3]
    for G in graphs:
        for size in range(1, G.m + 1):
            for sub in itertools.combinations(range(G.m), size):
                for kind in WitnessKind:
                    w = Witness(kind, sub)
                    got = validate_witness(G, w, size).valid
                    assert got == _independent_validate(G, sub, kind, size)


def _line_graph(G):
    """G's line graph as adjacency lists on the edge indices, read from
    `G.edge_neighbors` as shrink's `_LineTree` and the subgraph builders read it."""
    return [G.edge_neighbors(e) for e in range(G.m)]


def test_line_graph_examples():
    assert _line_graph(parse_graph("graph 2 1\ne 1 2 R\n")) == [[]]
    assert _line_graph(path_graph([R, B])) == [[1], [0]]
    assert _line_graph(path_graph([R, B, R])) == [[1], [0, 2], [1]]
    tri = parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n")
    assert _line_graph(tri) == [[1, 2], [0, 2], [0, 1]]


def test_line_graph_connectivity_preserved():
    # connected G without isolated vertices <-> connected L(G)
    seen_both = set()
    for p, seed in itertools.product((0.3, 0.5), range(30)):
        g = random_redblue(6, p, seed + 100)
        if g.m == 0:
            continue
        touched = set()
        for u, v, _ in g.edges:
            touched |= {u, v}
        if len(touched) != g.n:
            continue
        lg_connected = len(bfs(0, _line_graph(g))) == g.m
        comp = {g.edges[0][0]}
        changed = True
        while changed:
            changed = False
            for u, v, _ in g.edges:
                if (u in comp) != (v in comp):
                    comp |= {u, v}
                    changed = True
        g_connected = comp == touched
        assert g_connected == lg_connected, (p, seed)
        seen_both.add(g_connected)
    assert seen_both == {True, False}


def test_split_partition_recognition():
    # C4 is the forbidden case; K4 and stars are split
    c4 = parse_graph("graph 4 4\ne 1 2 R\ne 2 3 B\ne 3 4 R\ne 4 1 B\n")
    assert split_partition(c4) is None
    k4 = RedBlueGraph(4, tuple((u, v, R) for u in range(1, 5) for v in range(u + 1, 5)))
    part = split_partition(k4)
    assert part is not None and part[0] == frozenset({1, 2, 3, 4}) and part[1] == frozenset()
    star = parse_graph("graph 4 3\ne 1 2 R\ne 1 3 B\ne 1 4 R\n")
    part = split_partition(star)
    # maximal clique part of a star is an edge (center plus one leaf)
    assert part is not None and len(part[0]) == 2 and 1 in part[0]


def test_split_partition_exhaustive_vs_brute():
    # against brute-force split recognition over all partitions, n <= 5
    from itertools import combinations

    for n in range(1, 6):
        for edges in nonisomorphic_graphs(n):
            g = RedBlueGraph(n, tuple((u, v, R) for u, v in edges))
            eset = {(min(u, v), max(u, v)) for u, v in edges}

            def ok(cl):
                cl = set(cl)
                ind = set(range(1, n + 1)) - cl
                for a in cl:
                    for b in cl:
                        if a < b and (a, b) not in eset:
                            return False
                for a in ind:
                    for b in ind:
                        if a < b and (a, b) in eset:
                            return False
                return True

            brute = any(
                ok(cl) for r in range(n + 1) for cl in combinations(range(1, n + 1), r)
            )
            assert (split_partition(g) is not None) == brute


def test_witness_json_roundtrip():
    w = Witness(WitnessKind.PATH, (3, 1, 2))
    assert Witness.from_json(w.to_json()) == Witness(WitnessKind.PATH, (1, 2, 3))


def _is_split_partition(g, clique, independent):
    """Pairwise check: clique is complete, independent has no edge."""
    eset = {frozenset(g.endpoints(i)) for i in range(g.m)}
    if clique | independent != set(range(1, g.n + 1)) or clique & independent:
        return False
    return (all(frozenset((a, b)) in eset for a, b in itertools.combinations(clique, 2))
            and not any(frozenset((a, b)) in eset
                        for a, b in itertools.combinations(independent, 2)))


def _random_split_graph(rng, clique, independent, p):
    pairs = [(a, b) for a in range(1, clique + 1) for b in range(a + 1, clique + 1)]
    pairs += [(c, v) for v in range(clique + 1, clique + independent + 1)
              for c in range(1, clique + 1) if rng.random() < p]
    label = list(range(1, clique + independent + 1))
    rng.shuffle(label)
    return [(label[a - 1], label[b - 1]) for a, b in pairs]


def test_split_partition_random_vs_brute():
    import random

    rng = random.Random(5)
    outcomes = set()
    for trial in range(300):
        n = rng.randrange(1, 9)
        if trial % 2:
            c = rng.randrange(0, n + 1)
            pairs = _random_split_graph(rng, c, n - c, 0.4)
        else:
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                     if rng.random() < 0.5]
        g = RedBlueGraph(n, tuple((a, b, rng.choice((R, B))) for a, b in pairs))
        brute = any(_is_split_partition(g, set(cl), set(range(1, n + 1)) - set(cl))
                    for r in range(n + 1) for cl in itertools.combinations(range(1, n + 1), r))
        part = split_partition(g)
        outcomes.add(brute)
        assert (part is not None) == brute
        if part is not None:
            assert _is_split_partition(g, *part)
    assert outcomes == {True, False}


def test_split_partition_large_independent_side():
    import random

    rng = random.Random(6)
    pairs = _random_split_graph(rng, 30, 600, 0.1)
    g = RedBlueGraph(630, tuple((a, b, R) for a, b in pairs))
    clique, independent = split_partition(g)
    assert _is_split_partition(g, clique, independent) and len(independent) >= 600
    # an induced 2K2 on four independent vertices makes the graph non-split
    a, b, c, d = sorted(independent)[:4]
    g2 = RedBlueGraph(630, g.edges + ((a, b, B), (c, d, B)))
    assert split_partition(g2) is None


def _edge_set_connected_reference(g, edge_indices):
    """The host-adjacency walk that defined witness connectivity."""
    idx = list(edge_indices)
    if not idx:
        return False
    verts = {x for i in idx for x in g.endpoints(i)}
    chosen = set(idx)
    seen = {g.edges[idx[0]][0]}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y, j in g.adjacency[x]:
            if j in chosen and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == verts


@st.composite
def graph_and_edge_subset(draw):
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = RedBlueGraph(n, tuple((a, b, R) for a, b in chosen))
    subset = draw(st.lists(st.sampled_from(range(g.m)), unique=True)) if g.m else []
    return g, subset


@settings(max_examples=300, deadline=None)
@given(graph_and_edge_subset())
def test_edge_set_connected_matches_reference(case):
    g, subset = case
    assert _edge_set_connected(g, subset) == _edge_set_connected_reference(g, subset)


@st.composite
def graph_with_neighbor_order(draw):
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, draw(st.permutations(chosen)), draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(graph_with_neighbor_order())
def test_bfs_matches_networkx(case):
    nx = pytest.importorskip("networkx")
    n, edges, start = case
    H = nx.Graph()
    H.add_nodes_from(range(1, n + 1))
    H.add_edges_from(edges)
    neighbors = {v: list(H.adj[v]) for v in H}
    parent = bfs(start, neighbors)
    order = list(parent)
    assert set(order) == nx.node_connected_component(H, start)
    assert order == [start] + [y for _, y in nx.bfs_edges(H, start)]
    assert parent[start] is None
    position = {v: i for i, v in enumerate(order)}
    for v in order[1:]:
        assert parent[v] == min(neighbors[v], key=position.__getitem__)
