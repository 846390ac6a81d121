import itertools

import pytest

from bcslab.graphs import RedBlueGraph, Witness, WitnessKind, parse_graph, validate_witness
from bcslab.oracle import (
    OracleBudgetError,
    SolveMode,
    all_witness_sets,
    oracle_count,
    oracle_solve,
)

from conftest import B, R, path_graph, random_redblue

TRI = parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n")
C4 = parse_graph("graph 4 4\ne 1 2 R\ne 2 3 B\ne 3 4 R\ne 4 1 B\n")


def test_triangle_exact():
    w = oracle_solve(TRI, 2, WitnessKind.SUBGRAPH)
    assert w is not None and validate_witness(TRI, w, 2).valid


def test_no_blue_edge():
    g = path_graph([R, R])
    for kind in WitnessKind:
        assert oracle_solve(g, 2, kind) is None


def test_c4_derived_values():
    # exhaustive enumeration of C4 edge subsets pins these
    assert oracle_solve(C4, 4, WitnessKind.PATH) is None
    w = oracle_solve(C4, 4, WitnessKind.SUBGRAPH)
    assert w is not None and sorted(w.edge_indices) == [0, 1, 2, 3]
    assert oracle_count(C4, 2, WitnessKind.PATH) == 4


def test_counts():
    assert oracle_count(TRI, 2, WitnessKind.SUBGRAPH) == 2
    assert oracle_count(path_graph([R]), 2, WitnessKind.SUBGRAPH) == 0


def test_witnesses_validate_and_monotone():
    for seed in range(30):
        g = random_redblue(6, 0.5, seed + 300)
        for k in (2, 4):
            for kind in WitnessKind:
                w = oracle_solve(g, k, kind)
                if w is not None:
                    assert validate_witness(g, w, k).valid
                    al = oracle_solve(g, k, kind, SolveMode.AT_LEAST)
                    assert al is not None and al.size >= k


def test_kind_counts_ordered():
    for seed in range(30):
        g = random_redblue(6, 0.5, seed + 600)
        for k in (2, 4):
            cp = oracle_count(g, k, WitnessKind.PATH)
            ct = oracle_count(g, k, WitnessKind.TREE)
            cs = oracle_count(g, k, WitnessKind.SUBGRAPH)
            assert cp <= ct <= cs


def test_counts_match_naive_subset_scan():
    # independent ground truth: scan all 2^m subsets
    for seed in (5, 12, 21):
        g = random_redblue(5, 0.6, seed)
        for k in (2, 4):
            for kind in WitnessKind:
                naive = 0
                for size_k in itertools.combinations(range(g.m), k):
                    if validate_witness(g, Witness(kind, size_k), k).valid:
                        naive += 1
                assert oracle_count(g, k, kind) == naive


def test_at_least_returns_smallest():
    g = path_graph([R, B, R, B])
    w = oracle_solve(g, 2, WitnessKind.PATH, SolveMode.AT_LEAST)
    assert w is not None and w.size == 2


def test_budget_error():
    # disjoint red and blue cliques: many balanced candidates, none connected
    edges = [(u, v, R) for u in range(1, 5) for v in range(u + 1, 5)]
    edges += [(u, v, B) for u in range(5, 9) for v in range(u + 1, 9)]
    g = RedBlueGraph(8, tuple(edges))
    with pytest.raises(OracleBudgetError):
        oracle_solve(g, 6, WitnessKind.SUBGRAPH, budget=10)


def test_odd_k_rejected():
    with pytest.raises(ValueError):
        oracle_solve(TRI, 3, WitnessKind.SUBGRAPH)
    with pytest.raises(ValueError):  # used to list the 2-edge paths
        all_witness_sets(C4, 3, WitnessKind.PATH)


@pytest.mark.parametrize("k", [2.0, 4.0])
def test_float_k_rejected(k):
    # 2.0 used to fail inside combinations with a TypeError, 4.0 to answer None
    with pytest.raises(ValueError):
        oracle_solve(C4, k, WitnessKind.PATH)
    with pytest.raises(ValueError):
        oracle_count(C4, k, WitnessKind.PATH)
    with pytest.raises(ValueError):
        all_witness_sets(C4, k, WitnessKind.PATH)


def test_all_witness_sets_distinct():
    sets = all_witness_sets(C4, 2, WitnessKind.PATH)
    assert len(sets) == len(set(sets)) == 4
