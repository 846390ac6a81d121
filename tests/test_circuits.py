import hashlib

import pytest
from hypothesis import given, settings

from bcslab.graphs import RedBlueGraph, WitnessKind, parse_graph
from bcslab.oracle import all_witness_sets
from bcslab.algebra.circuits import (
    Circuit,
    _Builder,
    build_circuit_ebcs,
    build_circuit_ebp,
    build_circuit_ebt,
)

from algebra_reference import expand_multilinear
from conftest import B, R, path_graph, random_circuits, random_redblue

TRI = parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n")


def _support(c, deg, var_kind):
    return {frozenset(i for kind, i in m if kind == var_kind)
            for m in expand_multilinear(c, deg)}


def test_ebcs_zero_on_single_edge():
    g = parse_graph("graph 2 1\ne 1 2 R\n")
    c = build_circuit_ebcs(g, 2)
    assert expand_multilinear(c, 2) == {}
    assert c.gates[c.output][0] == "c0"


def test_ebcs_triangle_monomials():
    c = build_circuit_ebcs(TRI, 2)
    assert _support(c, 2, "x") == {frozenset({0, 1}), frozenset({1, 2})}


def test_ebcs_degree_exactly_k():
    for seed in (3, 14):
        g = random_redblue(5, 0.6, seed)
        for k in (2, 4):
            exp = expand_multilinear(build_circuit_ebcs(g, k), k + 2)
            assert all(len(m) == k for m in exp)


def test_ebt_path_monomial():
    g = path_graph([R, B])
    c = build_circuit_ebt(g, 2)
    assert _support(c, 3, "y") == {frozenset({1, 2, 3})}


def test_ebt_zero_on_single_edge():
    g = parse_graph("graph 2 1\ne 1 2 R\n")
    assert expand_multilinear(build_circuit_ebt(g, 2), 3) == {}


def test_ebt_degree_exactly_k_plus_1():
    g = random_redblue(5, 0.6, 8)
    for k in (2, 4):
        exp = expand_multilinear(build_circuit_ebt(g, k), k + 3)
        assert all(len(m) == k + 1 for m in exp)


def test_ebp_both_orientations_counted():
    g = path_graph([R, B])
    exp = expand_multilinear(build_circuit_ebp(g, 2), 3)
    assert set(exp) == {frozenset((("y", 1), ("y", 2), ("y", 3)))}
    # two orientations contribute with tags set to one
    assert list(exp.values()) == [2]


def test_ebp_all_red_zero():
    assert expand_multilinear(build_circuit_ebp(path_graph([R, R]), 2), 3) == {}


def test_ebp_triangle_matches_oracle_counts():
    exp = expand_multilinear(build_circuit_ebp(TRI, 2), 3)
    # each balanced path counted once per endpoint orientation; the triangle's
    # two paths share their vertex set, so one monomial with coefficient 4
    n_paths = len(all_witness_sets(TRI, 2, WitnessKind.PATH))
    assert sum(exp.values()) == 2 * n_paths
    assert len(exp) == 1


def test_support_equals_oracle_families():
    for seed in range(25):
        g = random_redblue(6, 0.5, seed + 700)
        if not 2 <= g.m <= 8:
            continue
        for k in (2, 4):
            got = _support(build_circuit_ebcs(g, k), k, "x")
            exp = {frozenset(s) for s in all_witness_sets(g, k, WitnessKind.SUBGRAPH)}
            assert got == exp
            for builder, kind in ((build_circuit_ebt, WitnessKind.TREE),
                                  (build_circuit_ebp, WitnessKind.PATH)):
                got = _support(builder(g, k), k + 1, "y")
                exp = set()
                for s in all_witness_sets(g, k, kind):
                    vs = set()
                    for i in s:
                        u, v, _ = g.edges[i]
                        vs |= {u, v}
                    exp.add(frozenset(vs))
                assert got == exp, (seed, k, kind)


def test_expansion_coefficients_positive():
    # over Z with tags at one, coefficients are positive (no cancellation)
    g = random_redblue(5, 0.7, 42)
    for build, k in ((build_circuit_ebcs, 4), (build_circuit_ebt, 2), (build_circuit_ebp, 2)):
        exp = expand_multilinear(build(g, k), 5)
        assert all(v > 0 for v in exp.values())


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit((("add", 0, 1), ("c0",)), 0, 1, 0)  # forward reference
    with pytest.raises(ValueError):
        Circuit((("c0",), ("c1",), ("add", 0, 1, 3)), 2, 1, 0)  # a third operand forward
    with pytest.raises(ValueError):
        Circuit((("c0",), ("add",)), 1, 1, 0)  # a sum needs a term
    Circuit((("c0",), ("add", 0)), 1, 1, 0)  # one term will do
    with pytest.raises(ValueError):
        Circuit((("c0",),), 5, 1, 0)  # output out of range
    # a negative reference would read a gate from the end of the list
    for op in ("add", "mul"):
        with pytest.raises(ValueError):
            Circuit((("in", ("x", 1)), (op, -1, 0)), 1, 1, 0)
        with pytest.raises(ValueError):
            Circuit((("in", ("x", 1)), (op, 0, -2)), 1, 1, 0)
    with pytest.raises(ValueError):
        Circuit((("in", ("x", 1)), ("add", 0, 0, -1)), 1, 1, 0)
    with pytest.raises(ValueError):
        Circuit((("in", ("x", 1)), ("add", 0, (-1, 0))), 1, 1, 1)  # a tagged term too


@pytest.mark.parametrize("gate", [("add", (0, 2)), ("add", 0, (0, -1)), ("mul", 0, 0, 2),
                                  ("mul", 0, 0, -1)])
def test_circuit_rejects_a_tag_out_of_range(gate):
    # two tags, 0 and 1
    x = ("in", ("x", 1))
    Circuit((x, ("add", (0, 1)), ("mul", 0, 1, 1)), 2, 2, 2)
    with pytest.raises(ValueError, match="tag index"):
        Circuit((x, gate), 1, 2, 2)


def test_circuit_rejects_a_tag_input():
    # a tag is an index on a sum term or a product, never a gate
    with pytest.raises(ValueError, match="not a gate"):
        Circuit((("in", ("x", 1)), ("in", ("t", 0)), ("mul", 0, 1)), 2, 1, 1)


def test_circuit_degrees_and_bound():
    c = build_circuit_ebt(TRI, 2)
    assert ref_degrees(c)[c.output] == 3 == c.degree_bound == c.homogeneous_degree


def test_dump_format():
    # the gate list in the form Circuit documents: variables are input gates,
    # tags are not, and each path cell is a product that carries its own tag
    c = build_circuit_ebp(path_graph([R, B]), 2)
    assert any(g[0] == "in" and g[1][0] == "y" for g in c.gates)
    assert not any(g[0] == "in" and g[1][0] == "t" for g in c.gates)
    assert sorted(g[3] for g in c.gates if g[0] == "mul" and len(g) == 4) == list(range(c.n_tags))


def test_gate_sharing():
    # memoized cells keep the circuit polynomial-sized
    g = random_redblue(6, 0.8, 5)
    c = build_circuit_ebcs(g, 4)
    assert len(c.gates) < 12000


# sha256 of repr((gates, output, degree_bound, n_tags)) over BUILDER_CORPUS, first
# 16 hex digits, with each tag carried by its sum term or product and the top
# cells' terms summed by the output
BUILDER_GOLDEN = {
    ("ebcs", 2): "9bb2a5bd253e9e6e",
    ("ebcs", 4): "8d9777460a7052eb",
    ("ebcs", 6): "70f5eae743467d6f",
    ("ebt", 2): "95fc69e72a09225c",
    ("ebt", 4): "f01aae0a1f6ca83f",
    ("ebt", 6): "ac1d6e5e051fcd3b",
    ("ebp", 2): "35574135e62f9cd3",
    ("ebp", 4): "b2aa9d09853bb03b",
    ("ebp", 6): "4bbcd463127ec5f9",
}
BUILDERS = {"ebcs": build_circuit_ebcs, "ebt": build_circuit_ebt, "ebp": build_circuit_ebp}


def builder_corpus():
    return ([random_redblue(n, p, s) for n, p, s in
             ((5, 0.3, 25), (6, 0.5, 21), (7, 0.45, 22), (7, 0.6, 23), (8, 0.4, 24))]
            + [path_graph([R, R, R]), path_graph([R, B, B, R, R, B])])


@pytest.mark.parametrize("name,k", list(BUILDER_GOLDEN))
def test_builder_gates_golden(name, k):
    h = hashlib.sha256()
    for g in builder_corpus():
        c = BUILDERS[name](g, k)
        h.update(repr((c.gates, c.output, c.degree_bound, c.n_tags)).encode())
    assert h.hexdigest()[:16] == BUILDER_GOLDEN[(name, k)]


def _terms(g):
    """The (gate, tag or None) terms of a sum, or the factors of a product."""
    if g[0] == "add":
        return [i if type(i) is tuple else (i, None) for i in g[1:]]
    return [(g[1], None), (g[2], g[3] if len(g) == 4 else None)]


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builder_tags_on_terms_and_products(name):
    unused = 0
    for g in builder_corpus():
        for k in (2, 4):
            c = BUILDERS[name](g, k)
            assert all(gate[0] != "in" or gate[1][0] in "xy" for gate in c.gates)
            used = []
            for gate in c.gates:
                if gate[0] == "add":
                    # a cell's sum is untagged, a sum over anchors tagged throughout
                    tags = [s for _, s in _terms(gate)]
                    assert tags.count(None) in (0, len(tags))
                    used += [s for s in tags if s is not None]
                elif gate[0] == "mul" and len(gate) == 4:
                    used.append(gate[3])
            assert len(set(used)) == len(used) and set(used) <= set(range(c.n_tags))
            unused += c.n_tags - len(used)
            if name == "ebp":  # a path cell's tag rides on its product
                assert used == [gate[3] for gate in c.gates if gate[0] == "mul"]
    # every tag is used once, but for a tree's two-sided split whose second
    # side is zero: a first side of one tagged term is then no gate's term
    assert (unused > 0) == (name == "ebt")


@pytest.mark.parametrize("name", ["ebcs", "ebt"])
def test_output_sums_the_top_cells_terms(name):
    # each anchor's top cell is read by the output only, so it is no gate of
    # its own: the output's terms are the top cells' products
    for g in builder_corpus()[:4]:
        c = BUILDERS[name](g, 4)
        out = c.gates[c.output]
        assert out[0] == "add" and all(c.gates[i][0] == "mul" for i, _ in _terms(out))


def test_addtree_is_one_gate():
    bld = _Builder()
    xs = [bld.var(("x", i)) for i in range(4)]
    assert bld.addtree([]) is None and bld.addtree(xs[:1]) == xs[0]
    assert bld.gates[bld.addtree(xs)] == ("add", *xs) and len(bld.gates) == 5


# Reference analysis: one separate pass over the gates per quantity


def ref_var_order(c):
    order = []
    for g in c.gates:
        if g[0] == "in" and g[1] not in order:
            order.append(g[1])
    return order


def ref_degrees(c):
    deg = []
    for g in c.gates:
        if g[0] == "mul":
            deg.append(deg[g[1]] + deg[g[2]])
        elif g[0] == "add":
            deg.append(max(deg[i] for i, _ in _terms(g)))
        else:
            deg.append(1 if g[0] == "in" else 0)
    return deg


def ref_homogeneous_degree(c):
    deg = ref_degrees(c)
    for g in c.gates:
        if g[0] == "add" and len({deg[i] for i, _ in _terms(g)}) > 1:
            return None
    return deg[c.output]


def check_analysis(c):
    assert list(c.var_index) == ref_var_order(c)
    assert list(c.var_index.values()) == list(range(len(c.var_index)))
    assert c.homogeneous_degree == ref_homogeneous_degree(c)


def test_builder_analysis_matches_reference():
    for g in builder_corpus()[:4]:
        for build in BUILDERS.values():
            for k in (2, 4):
                check_analysis(build(g, k))


@pytest.mark.parametrize("gates,out", [
    # mixed degrees: x1 * x2 + x1
    ([("in", ("x", 1)), ("in", ("x", 2)), ("mul", 0, 1), ("add", 2, 0)], 3),
    # constants, a product that carries a tag and a tagged term
    ([("c1",), ("in", ("x", 0)), ("mul", 1, 0, 0), ("c0",), ("mul", 3, 1), ("add", (2, 0), 4)],
     5),
    # a repeated variable gate, a square and an unread gate
    ([("in", ("y", 3)), ("in", ("x", 0)), ("in", ("y", 3)), ("mul", 0, 2), ("mul", 3, 3)], 4),
    # the output read by a later gate, a one-term sum
    ([("in", ("x", 1)), ("c1",), ("mul", 0, 1, 0), ("add", (2, 0))], 2),
    # an add of four operands, one repeated, of degrees 1, 2 and 1
    ([("in", ("x", 1)), ("in", ("y", 2)), ("mul", 0, 1), ("add", 0, 2, 1, 0)], 3),
])
def test_hand_made_analysis_matches_reference(gates, out):
    check_analysis(Circuit(tuple(gates), out, 2, 1))


@settings(max_examples=300, deadline=None)
@given(random_circuits())
def test_random_circuit_analysis_matches_reference(c):
    check_analysis(c)
