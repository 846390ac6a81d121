import pytest

from bcslab.graphs import WitnessKind, serialize_graph, split_partition, validate_witness
from bcslab.oracle import SolveMode, oracle_solve
from bcslab.reductions import (
    _longest_path_vertices,
    longest_path_from,
    longest_path_split_to_ebp,
    steiner_min_edges,
    steiner_to_ebcs,
)
from bcslab.corpus import connected_graph_classes, split_graph_classes

from conftest import B, R


def test_steiner_path_example():
    gi = steiner_to_ebcs(3, [(1, 2), (2, 3)], [1, 3], 2)
    assert gi.target == 4
    assert len(gi.graph.red_edges()) == 2
    assert gi.intended is not None and validate_witness(gi.graph, gi.intended, 4).valid
    assert oracle_solve(gi.graph, 4, WitnessKind.SUBGRAPH, SolveMode.AT_LEAST) is not None


def test_steiner_star_example():
    gi = steiner_to_ebcs(4, [(1, 2), (1, 3), (1, 4)], [2, 3, 4], 3)
    assert oracle_solve(gi.graph, 6, WitnessKind.SUBGRAPH, SolveMode.AT_LEAST) is not None


def test_steiner_precondition():
    with pytest.raises(ValueError):
        steiner_to_ebcs(3, [(1, 2), (2, 3)], [1, 3], 1)


def test_steiner_red_count_exactly_k():
    for k in (2, 3, 4):
        gi = steiner_to_ebcs(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [1, 3], k)
        assert len(gi.graph.red_edges()) == k


def test_splitpath_triangle():
    gi = longest_path_split_to_ebp(3, [(1, 2), (2, 3), (1, 3)], {1, 2, 3}, set(), 1, 2)
    assert split_partition(gi.graph) is not None
    assert len(gi.graph.red_edges()) == 2
    assert gi.intended is not None and validate_witness(gi.graph, gi.intended, 4).valid


def test_splitpath_single_vertex_no():
    gi = longest_path_split_to_ebp(1, [], {1}, set(), 1, 1)
    assert gi.intended is None
    assert oracle_solve(gi.graph, 2, WitnessKind.PATH, SolveMode.AT_LEAST) is None


def test_splitpath_always_split():
    for (n, edges) in split_graph_classes(5):
        g_part = split_partition(
            __import__("bcslab.graphs", fromlist=["RedBlueGraph"]).RedBlueGraph(
                n, tuple((u, v, R) for u, v in edges)
            )
        )
        clique, independent = g_part
        u0 = min(clique) if clique else None
        if u0 is None:
            continue
        for k in (1, 2, 3):
            gi = longest_path_split_to_ebp(n, list(edges), clique, independent, u0, k)
            assert split_partition(gi.graph) is not None
            assert len(gi.graph.red_edges()) == k


def test_splitpath_large_independent_side():
    # 20000 independent vertices, each hanging off the clique: the partition
    # check is one pass over the edges, not a scan of all independent pairs
    n = 20003
    edges = [(1, 2), (1, 3), (2, 3)] + [(1 + v % 3, v) for v in range(4, n + 1)]
    gi = longest_path_split_to_ebp(n, edges, {1, 2, 3}, set(range(4, n + 1)), 1, 2)
    assert gi.graph.n == n + 2 and split_partition(gi.graph) is not None
    assert gi.intended is not None and validate_witness(gi.graph, gi.intended, 4).valid


def test_splitpath_rejects_bad_partition():
    edges = [(1, 2), (2, 3), (3, 4)]
    with pytest.raises(ValueError, match="clique part is not a clique"):
        longest_path_split_to_ebp(4, edges, {1, 2, 3}, {4}, 1, 1)
    with pytest.raises(ValueError, match="independent part is not independent"):
        longest_path_split_to_ebp(4, edges, {2}, {1, 3, 4}, 2, 1)
    # both faults: the clique is reported first, as before
    with pytest.raises(ValueError, match="clique part is not a clique"):
        longest_path_split_to_ebp(5, [(1, 2), (4, 5)], {1, 2, 3}, {4, 5}, 1, 1)
    # a repeated clique edge does not stand in for a missing one
    with pytest.raises(ValueError, match="clique part is not a clique"):
        longest_path_split_to_ebp(3, [(1, 2), (2, 1), (2, 3)], {1, 2, 3}, set(), 1, 1)


def test_path_search_past_recursion_limit():
    edges = [(i, i + 1) for i in range(1, 2000)]
    assert longest_path_from(2000, edges, 1) == 1999
    assert _longest_path_vertices(2000, edges, 1, 1999) == list(range(1, 2001))
    assert _longest_path_vertices(2000, edges, 1, 2000) is None


def test_path_search_tries_neighbours_ascending():
    # the intended splitpath witness is the first path in this order
    edges = [(1, 3), (3, 4), (1, 2), (3, 2)]
    assert _longest_path_vertices(4, edges, 1, 2) == [1, 2, 3]
    assert _longest_path_vertices(4, edges, 1, 3) == [1, 2, 3, 4]


def test_connected_graph_classes_counts():
    # connected graphs on 1..5 vertices up to isomorphism: 1, 1, 2, 6, 21
    counts = [0] * 6
    for n, _ in connected_graph_classes(5):
        counts[n] += 1
    assert counts[1:] == [1, 1, 2, 6, 21]


def test_brute_helpers():
    assert longest_path_from(3, [(1, 2), (2, 3), (1, 3)], 1) == 2
    assert longest_path_from(4, [(1, 2), (2, 3), (3, 4)], 1) == 3
    assert steiner_min_edges(3, [(1, 2), (2, 3)], {1, 3}) == 2
    assert steiner_min_edges(4, [(1, 2), (3, 4)], {1, 4}) is None


def test_equivalence_small_sweep():
    # decision equivalence on a small slice; the acceptance suite scales up
    import itertools

    count = 0
    for (n, edges) in connected_graph_classes(4):
        if not edges:
            continue
        verts = list(range(1, n + 1))
        for tsize in (1, 2, 3):
            for T in itertools.combinations(verts, tsize):
                for k in range(len(T), min(len(edges), 4) + 1):
                    gi = steiner_to_ebcs(n, list(edges), list(T), k)
                    opt = steiner_min_edges(n, list(edges), set(T))
                    source_yes = opt is not None and opt <= k
                    target_yes = (
                        oracle_solve(gi.graph, 2 * k, WitnessKind.SUBGRAPH, SolveMode.AT_LEAST)
                        is not None
                    )
                    assert source_yes == target_yes, (n, edges, T, k)
                    assert (gi.intended is not None) == source_yes
                    count += 1
    assert count > 100
