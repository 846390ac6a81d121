import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mldetect_reference as ref
from algebra_reference import expand_multilinear
from bcslab.graphs import RedBlueGraph, WitnessKind, parse_graph, validate_witness
from bcslab.oracle import oracle_solve
from bcslab.algebra.circuits import MUL, SUM, Circuit, build_circuit_ebp
from bcslab.algebra.mldetect import (
    _BUILDERS,
    RandomizedAnswer,
    _eval_fast,
    detect_multilinear,
    draw_substitution,
    randomized_solve,
    run_trials,
)

from conftest import B, R, path_graph, random_circuits, random_redblue

TRI = parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n")


def _tiny(gates, out, deg, tags=0):
    return Circuit(tuple(gates), out, deg, tags)


C_X1X2 = _tiny([("in", ("x", 1)), ("in", ("x", 2)), ("mul", 0, 1)], 2, 2)
C_X1SQ = _tiny([("in", ("x", 1)), ("mul", 0, 0)], 1, 2)
C_SUM = _tiny(
    [("in", ("x", 1)), ("in", ("x", 2)), ("mul", 0, 1), ("mul", 0, 0), ("add", 2, 3)],
    4, 2,
)


@pytest.mark.parametrize("ell", [16, 32, 64])
def test_detect_examples_all_seeds(ell):
    for seed in range(1, 101):
        assert detect_multilinear(C_X1X2, 2, ell, 16, seed)
        assert not detect_multilinear(C_X1SQ, 2, ell, 16, seed)
        assert detect_multilinear(C_SUM, 2, ell, 16, seed)


def test_degree_bound_checked():
    with pytest.raises(ValueError):
        detect_multilinear(C_X1X2, 1, 32, 4, 1)


def test_run_trials_needs_a_trial():
    with pytest.raises(ValueError):
        run_trials(C_X1X2, 2, 64, 0, seed=1)


class _CountingGates(tuple):
    """A gate tuple that counts the passes made over it."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_detect_makes_no_pass_besides_evaluation():
    # a star has relaxed walks with two red and two blue edges but no path of
    # four edges, so both batches of trials run and find nothing
    star = parse_graph("graph 5 4\ne 1 2 R\ne 1 3 R\ne 1 4 B\ne 1 5 B\n")
    c = build_circuit_ebp(star, 4)
    assert c.homogeneous_degree == 5 and c.gates[c.output][0] != "c0"
    gates = _CountingGates(c.gates)
    gates.passes = 0
    object.__setattr__(c, "gates", gates)
    assert not detect_multilinear(c, 5, 16, 4, seed=1)
    assert gates.passes == 0  # both batches run the schedule built with the circuit


def test_output_read_by_a_later_gate():
    # the walk keeps the output's value past the last gate that reads it
    c = _tiny([("in", ("x", 1)), ("in", ("x", 2)), ("mul", 0, 1), ("add", 2, 2)], 2, 2)
    assert run_trials(c, 2, 64, 4, seed=1).all()
    assert expand_multilinear(c, 2) == {frozenset({("x", 1), ("x", 2)}): 1}


def test_detect_deterministic():
    flags1 = run_trials(C_X1X2, 2, 64, 8, seed=42)
    flags2 = run_trials(C_X1X2, 2, 64, 8, seed=42)
    assert np.array_equal(flags1, flags2)


def test_fast_path_matches_exact_ranked_path():
    # same substitution through the vectorized engine and through exact
    # per-gate subset convolution over GroupAlgebraElement
    g = random_redblue(5, 0.6, 31)
    c = build_circuit_ebp(g, 2)
    assert c.homogeneous_degree == 3
    sub = draw_substitution(5 + 1, max(1, c.n_tags), 3, 16, seed=9, batch=4)
    fast = _eval_fast(c, sub) != 0
    exact = ref.eval_exact(c, sub).any(axis=1)
    assert np.array_equal(fast, exact)


@pytest.mark.parametrize("ell", [16, 32, 64])
@pytest.mark.parametrize("kind", list(WitnessKind))
def test_exact_top_coefficient_equals_fast_value(kind, ell):
    # both paths evaluate in the same field, so the exact path's full-mask
    # coefficient is the fast path's value, not just its zero pattern
    build, extra = _BUILDERS[kind]
    c = build(random_redblue(5, 0.6, 31), 2)
    sub = draw_substitution(len(c.var_index), c.n_tags, 2 + extra, ell, seed=9, batch=4)
    fast = _eval_fast(c, sub)
    exact = ref.eval_exact(c, sub)
    assert exact.shape == (4, 1 << (2 + extra))
    assert fast.any() and exact[:, -1].tolist() == fast.tolist()


def test_one_sided_never_yes_on_no():
    checked = 0
    for seed in range(25):
        g = random_redblue(5, 0.5, seed + 1500)
        for k in (2, 4):
            for kind in WitnessKind:
                if oracle_solve(g, k, kind) is None:
                    for s in (1, 2, 3):
                        assert not randomized_solve(g, k, kind, trials=8, seed=s).yes
                    checked += 1
    assert checked > 20


def test_yes_instances_found():
    for seed in range(20):
        g = random_redblue(6, 0.6, seed + 2500)
        for k in (2, 4):
            for kind in WitnessKind:
                if oracle_solve(g, k, kind) is not None:
                    assert randomized_solve(g, k, kind, trials=32, seed=7).yes


def test_witness_extraction():
    for seed, kind in ((1, WitnessKind.SUBGRAPH), (2, WitnessKind.TREE), (3, WitnessKind.PATH)):
        ans = randomized_solve(TRI, 2, kind, trials=32, seed=seed, want_witness=True)
        assert ans.yes and ans.witness is not None
        assert validate_witness(TRI, ans.witness, 2).valid
        assert ans.witness.kind is kind


def test_default_trials():
    ans = randomized_solve(TRI, 2, WitnessKind.SUBGRAPH, seed=5)
    assert isinstance(ans, RandomizedAnswer) and ans.yes


def test_randomized_solve_checks_before_building(monkeypatch):
    # bad arguments raise, and fewer edges than k answer no, with no circuit built
    built = []
    for kind, (build, extra) in list(_BUILDERS.items()):
        monkeypatch.setitem(_BUILDERS, kind, (lambda *a, b=build: built.append(a) or b(*a), extra))
    for k in (2, 4):  # TRI has 3 edges
        for bad in ({"trials": 0}, {"ell": 20}):
            with pytest.raises(ValueError):
                randomized_solve(TRI, k, WitnessKind.PATH, **bad)
    for kind in WitnessKind:
        assert randomized_solve(TRI, 400, kind, want_witness=True) == RandomizedAnswer(False, None)
    assert built == []


def test_substitution_shapes():
    sub = draw_substitution(4, 3, 5, 64, seed=1, batch=7)
    assert sub.vectors.shape == (7, 4, 5)
    assert sub.tags.shape == (7, 3)
    assert int(sub.tags.min()) >= 1 and int(sub.tags.max()) < 1 << 16


def test_run_trials_takes_homogeneous_or_zero_circuits():
    # x1 x2 + x1 mixes degrees 2 and 1: the sieve rejects it
    c = _tiny([("in", ("x", 1)), ("in", ("x", 2)), ("mul", 0, 1), ("add", 2, 0)], 3, 2)
    assert c.homogeneous_degree is None
    with pytest.raises(ValueError):
        run_trials(c, 2, 64, 4, seed=1)
    # so does a homogeneous circuit of a degree below k_dim
    with pytest.raises(ValueError):
        run_trials(C_X1X2, 3, 64, 4, seed=1)
    # the constant zero has degree 0 and gives no positive flag
    zero = _tiny([("in", ("x", 1)), ("c0",)], 1, 0)
    assert run_trials(zero, 2, 64, 4, seed=1).tolist() == [False] * 4


def test_exact_path_constants_are_rank_zero():
    # x1 + 1 + 0 mixes degrees 1 and 0; the exact reference keeps every rank
    c = _tiny([("in", ("x", 1)), ("c1",), ("add", 0, 1), ("c0",), ("add", 2, 3)], 4, 1)
    assert c.homogeneous_degree is None and C_SUM.homogeneous_degree == 2
    sub = draw_substitution(1, 1, 2, 64, seed=3, batch=2)
    out = ref.eval_exact(c, sub)
    assert out[:, 0].tolist() == [1, 1]
    assert out[:, 1:3].tolist() == sub.vectors[:, 0, :].tolist()
    assert not out[:, 3].any()


# run_trials flags and a digest of the raw top coefficients (sha256 of the
# little-endian uint64 values, first 16 hex digits), recorded with the packed
# uint64 Karatsuba kernels that preceded the limb-planar one; any change to the
# field, the draws or the evaluation order shows here
_GOLDEN = {
    32: {
        ("ebcs", 11, 1): ("11111111", "5bad98857c736cbb"),
        ("ebcs", 11, 2): ("11111111", "e8827b83ba42db08"),
        ("ebt", 12, 1): ("11111111", "84d550bcb835cba9"),
        ("ebt", 12, 2): ("11111111", "e133f3033c0ed983"),
        ("ebp", 13, 1): ("11111111", "386c71e64c97a0dd"),
        ("ebp", 13, 2): ("11111111", "9b55d6402fb08e47"),
    },
    64: {
        ("ebcs", 11, 1): ("11111111", "98c7a27bf3a37c82"),
        ("ebcs", 11, 2): ("11111111", "49a8079452ba0ba5"),
        ("ebt", 12, 1): ("11111111", "f47b11706f17562b"),
        ("ebt", 12, 2): ("11111111", "f03c90a03eefb1d3"),
        ("ebp", 13, 1): ("11111111", "b654b378954437e5"),
        ("ebp", 13, 2): ("11111111", "20beefc921342450"),
    },
}
_GOLDEN_GRAPHS = {11: (6, 0.5), 12: (6, 0.5), 13: (7, 0.4), 103: (7, 0.4)}


def _golden_circuit(name, gseed):
    from bcslab.algebra.circuits import build_circuit_ebcs, build_circuit_ebt

    build, extra = {"ebcs": (build_circuit_ebcs, 0), "ebt": (build_circuit_ebt, 1),
                    "ebp": (build_circuit_ebp, 1)}[name]
    return build(random_redblue(*_GOLDEN_GRAPHS[gseed], gseed), 4), 4 + extra


@pytest.mark.parametrize("ell", [32, 64])
def test_golden_decisions(ell):
    import hashlib

    from bcslab.algebra.mldetect import _eval_fast

    for (name, gseed, seed), (flags, digest) in _GOLDEN[ell].items():
        c, k_dim = _golden_circuit(name, gseed)
        got = run_trials(c, k_dim, ell, 8, seed)
        assert "".join("1" if f else "0" for f in got) == flags, (name, gseed, seed)
        sub = draw_substitution(len(c.var_index), c.n_tags, k_dim, ell, seed, 8)
        vals = _eval_fast(c, sub)
        assert hashlib.sha256(vals.astype("<u8").tobytes()).hexdigest()[:16] == digest
    # the same graph has no balanced witness of any kind at k = 4
    for name in ("ebcs", "ebt", "ebp"):
        c, k_dim = _golden_circuit(name, 103)
        for seed in (1, 2):
            assert not run_trials(c, k_dim, ell, 8, seed).any()


# The level schedule against the per-gate reference


def _reachable(c):
    """Gate ids the output depends on, by a search from the output."""
    seen, stack = set(), [c.output]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            gate = c.gates[g]
            if gate[0] == "add":
                stack += [i[0] if type(i) is tuple else i for i in gate[1:]]
            elif gate[0] == "mul":
                stack += gate[1:3]
    return seen


def _same_as_reference(c, k_dim, ell, batch, seed):
    sub = draw_substitution(max(1, len(c.var_index)), max(1, c.n_tags), k_dim, ell, seed, batch)
    got = _eval_fast(c, sub)
    assert got.tolist() == ref.eval_fast(c, sub).tolist()
    return got


@st.composite
def builder_circuits(draw):
    kind = draw(st.sampled_from(list(WitnessKind)))
    k = draw(st.sampled_from([2, 4]))
    g = random_redblue(draw(st.integers(3, 6)), 0.6, draw(st.integers(0, 10**6)))
    build, extra = _BUILDERS[kind]
    return build(g, k), k + extra


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.tuples(random_circuits(), st.integers(1, 9)), builder_circuits()),
       st.sampled_from([16, 32, 64]), st.sampled_from([1, 31]), st.integers(0, 2**32))
def test_level_schedule_matches_per_gate_reference(case, ell, batch, seed):
    # B = 31 at K >= 8 runs gate by gate at l = 64; smaller vectors stack,
    # and a group or sum larger than the byte budget is split
    c, k_dim = case
    _same_as_reference(c, k_dim, ell, batch, seed)


@pytest.mark.parametrize("batch,per_call", [(1, 8), (4, 2), (31, 0)])
def test_level_schedule_on_wide_vectors(batch, per_call):
    # path k = 8 at l = 64 (four limb planes of 2^9-wide vectors): 8 gates a
    # call at B = 1, two at B = 4, and one at a time on slot views at B = 31,
    # where the columns run in two ranges of 2^8
    from bcslab.algebra.mldetect import _BUDGET

    assert _BUDGET // (4 * 2 * batch << 9) == per_call
    g = random_redblue(10, 0.3, 4)
    c = build_circuit_ebp(g, 8)
    assert _same_as_reference(c, 9, 64, batch, seed=5).any()


@pytest.mark.parametrize("gates,out", [
    # a constant one, and a sum of constants, times a variable
    ([("in", ("x", 1)), ("c1",), ("mul", 1, 0)], 2),
    ([("in", ("x", 1)), ("c1",), ("c0",), ("add", 1, 2), ("mul", 0, 3)], 4),
    # tags on constants: a sum of two tagged ones, and a tagged one times a
    # tagged variable
    ([("c1",), ("add", (0, 0), (0, 1)), ("c0",), ("in", ("y", 2)), ("mul", 3, 1)], 4),
    ([("c1",), ("add", (0, 0)), ("c0",), ("in", ("y", 2)), ("mul", 3, 1, 1)], 4),
    # the output a variable, after gates it does not read
    ([("in", ("x", 1)), ("c1",), ("mul", 0, 1, 0), ("in", ("x", 2))], 3),
])
def test_level_schedule_fills_tags_and_constants(gates, out):
    assert _same_as_reference(_tiny(gates, out, 1, 2), 1, 64, 3, seed=4).any()


def test_schedule_holds_only_reachable_gates():
    # builders leave gates the output never reads: a side of a product built
    # before its other factor turned out to be zero
    dead = 0
    for seed in range(6):
        g = random_redblue(6, 0.5, seed + 40)
        for kind, (build, extra) in _BUILDERS.items():
            c = build(g, 4)
            # the sieve's contract: homogeneous of degree k_dim, or zero
            assert c.homogeneous_degree == 4 + extra or c.gates[c.output][0] == "c0"
            live = _reachable(c)
            dead += len(c.gates) - len(live)
            # each multiply and each add gate is one entry of a step of its kind
            for kind, op in ((MUL, "mul"), (SUM, "add")):
                assert (sum(len(s[1]) for s in c.schedule.steps if s[0] == kind)
                        == sum(1 for i in live if c.gates[i][0] == op))
            # no step writes two values to one slot
            assert all(len(set(s[1].tolist())) == len(s[1]) for s in c.schedule.steps)
            if c.gates[c.output][0] != "c0":
                _same_as_reference(c, 4 + extra, 64, 2, seed)
    assert dead > 0


def test_schedule_sums_an_add_in_one_step():
    # x0 + x1 + x2 + x3 is one sum of four terms; an add that a multiply also
    # reads keeps a slot of its own
    x = [("in", ("x", i)) for i in range(4)]
    four = _tiny(x + [("add", 0, 1, 2, 3)], 4, 1)
    (kind, out, terms, starts, tags), = four.schedule.steps
    assert kind == SUM and starts.tolist() == [0, 4] and sorted(terms.tolist()) == [0, 1, 2, 3]
    assert tags is None
    shared = _tiny(x + [("add", 0, 1), ("mul", 4, 3), ("add", 4, 2, 5)], 6, 2)
    assert [(s[0], len(s[1])) for s in shared.schedule.steps] == [(SUM, 1), (MUL, 1), (SUM, 1)]
    for c, k_dim in ((four, 1), (shared, 2)):
        _same_as_reference(c, k_dim, 64, 3, seed=2)


# Column chunks of the subset axis, tagged steps and the leaf logs


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(random_circuits(), st.integers(1, 9)), builder_circuits()),
       st.sampled_from([16, 32, 64]), st.sampled_from([1, 31]), st.integers(0, 2**32),
       st.sampled_from([1, 1 << 12, 1 << 16]), st.sampled_from([1, 64, 1 << 15]))
def test_level_schedule_in_column_chunks_matches_reference(case, ell, batch, seed, budget,
                                                           per_call):
    # a one-byte budget runs every circuit on columns one at a time; the others
    # split the wider ones into ranges of several columns. Small per-call
    # budgets run multiplies gate by gate, reading the leaf logs, or split
    # their groups
    from bcslab.algebra import mldetect

    c, k_dim = case
    saved = mldetect._CHUNK_BUDGET, mldetect._BUDGET
    mldetect._CHUNK_BUDGET, mldetect._BUDGET = budget, per_call
    try:
        if budget == 1:
            assert mldetect._chunk_bits(c, ell, batch, k_dim) == 0
        _same_as_reference(c, k_dim, ell, batch, seed)
    finally:
        mldetect._CHUNK_BUDGET, mldetect._BUDGET = saved


@pytest.mark.parametrize("width", [0, 3, 6])
def test_column_chunks_on_wide_vectors(monkeypatch, width):
    # path k = 8 at l = 64 and B = 31, its 2^9 columns in ranges of 2^width:
    # gate by gate on slot views at width 6 and stacked below it
    from bcslab.algebra import mldetect

    c = build_circuit_ebp(random_redblue(10, 0.3, 4), 8)
    for e in range(40):
        monkeypatch.setattr(mldetect, "_CHUNK_BUDGET", 1 << e)
        if mldetect._chunk_bits(c, 64, 31, 9) == width:
            break
    assert mldetect._chunk_bits(c, 64, 31, 9) == width
    assert _same_as_reference(c, 9, 64, 31, seed=5).any()


def test_chunk_width_fits_the_budget(monkeypatch):
    # the widest power of two whose slots and leaf logs fit the budget
    from bcslab.algebra import mldetect
    from bcslab.algebra.field import VecGF

    c = build_circuit_ebp(random_redblue(10, 0.3, 4), 8)
    assert mldetect._chunk_bits(c, 64, 31, 9) < 9  # B = 31 splits this circuit
    sch = c.schedule
    for ell, batch in ((16, 1), (64, 1), (64, 31)):
        # uint16 slot planes and int32 leaf logs per column of the range
        col = batch * (ell // 8 * sch.n_slots + 4 * VecGF(ell).n_leaves * len(sch.leaves))
        for j in range(11):
            monkeypatch.setattr(mldetect, "_CHUNK_BUDGET", col << j)
            assert mldetect._chunk_bits(c, ell, batch, 9) == min(j, 9)
            monkeypatch.setattr(mldetect, "_CHUNK_BUDGET", (col << j) - 1)
            assert mldetect._chunk_bits(c, ell, batch, 9) == min(max(j - 1, 0), 9)


# x0 x1 x2 x3 two ways: the product of x0 x1 dies after the first level, and
# x0 x1 x2 then takes a leaf's slot, where the output's multiply reads it
# (as the second factor of x3 times it, and as a factor of a product of two
# values, the other a sum of one term, x3 times a tag)
_REUSED = [
    [("in", ("x", i)) for i in range(4)] + [("mul", 0, 1), ("mul", 4, 2), ("mul", 5, 3)],
    [("in", ("x", i)) for i in range(4)] + [("mul", 0, 1), ("add", (3, 0)), ("mul", 4, 2),
                                          ("mul", 6, 5)],
]


@pytest.mark.parametrize("per_call", [1, 1 << 15])
@pytest.mark.parametrize("gates", _REUSED)
def test_leaf_logs_never_stand_for_a_reused_slot(monkeypatch, gates, per_call):
    # gate by gate, every multiply with a structural variable factor reads the
    # leaf logs; with the default budget each group is one call on the slots
    from bcslab.algebra import mldetect

    monkeypatch.setattr(mldetect, "_BUDGET", per_call)
    c = _tiny(gates, len(gates) - 1, 4, 1)
    sch = c.schedule
    kind, out, a, b, t, n_leaf = sch.steps[-1]
    assert kind == MUL and len(out) == 1
    # the output's multiply reads a product from a slot a leaf held before
    if n_leaf:
        assert b[0] < len(sch.leaves)
    else:
        assert min(a[0], b[0]) < len(sch.leaves)
    for batch in (1, 31):
        assert _same_as_reference(c, 4, 64, batch, seed=7).all()


def test_schedule_carries_tags_on_its_steps():
    # t0 (x0 x1): one multiply entry that carries tag 0, x0 read from the leaf
    # logs; t1 x0 + x1 + t0 x2: one sum whose terms carry tags 1, none and 0
    x = [("in", ("x", i)) for i in range(3)]
    prod = _tiny(x + [("mul", 0, 1, 0)], 3, 2, 1)
    (kind, out, a, b, t, n_leaf), = prod.schedule.steps
    assert kind == MUL and n_leaf == 1 and t.tolist() == [0] and len(out) == 1
    terms = _tiny(x + [("add", (0, 1), 1, (2, 0))], 3, 1, 2)
    (kind, out, a, b, t), = terms.schedule.steps
    assert kind == SUM and b.tolist() == [0, 3] and t.tolist() == [1, -1, 0]
    # a tagged sum of one term read by a multiply that carries another tag:
    # a tree's two-sided split of one tagged term a side
    one = _tiny(x + [("add", (1, 0)), ("mul", 3, 0, 1)], 4, 2, 2)
    (kind, _, _, _, t), (kind2, *_, t2, _) = one.schedule.steps
    assert (kind, t.tolist(), kind2, t2.tolist()) == (SUM, [0], MUL, [1])
    assert _same_as_reference(prod, 2, 64, 3, seed=2).all()
    assert _same_as_reference(one, 2, 64, 3, seed=2).all()
    assert _same_as_reference(terms, 1, 64, 3, seed=2).all()


@pytest.mark.parametrize("per_call", [1, 80, 1 << 15])
def test_tagged_sums_in_place_and_stacked(monkeypatch, per_call):
    # four tagged sums of 3, 1, 6 and 2 terms on one level, then a sum of
    # them. At K = 1 and B = 1 a slot holds 16 bytes: a per-call budget of
    # one byte XORs every term in place, times its tag; 80 bytes gather five
    # terms a call, so the sum of two gets a call, the sum of six runs in
    # place and the other two share a call; the default gathers each level in
    # one call. At B = 31 even 80 bytes run every sum in place
    from bcslab.algebra import mldetect

    monkeypatch.setattr(mldetect, "_BUDGET", per_call)
    x = [("in", ("x", i)) for i in range(4)]
    sums = [("add", (0, 0), (1, 1), (2, 2)), ("add", (3, 3)),
            ("add", (0, 4), (1, 5), (2, 6), (3, 7), (0, 8), (1, 9)), ("add", (2, 10), 3),
            ("add", 4, (5, 11), 6, 7)]
    c = _tiny(x + sums, 8, 1, 12)
    # the level's sums, from the last gate down
    assert c.schedule.steps[0][3].tolist() == [0, 2, 8, 9, 12]
    for batch in (1, 31):
        assert _same_as_reference(c, 1, 64, batch, seed=3).all()


@pytest.mark.parametrize("kind,n,p,gseed,width,per_call", [
    # one range of 2^7 columns, one gate a call: multiplies gate by gate
    (WitnessKind.TREE, 10, 0.35, 2, 7, 1),
    # four and two ranges of 2^5 columns, four gates a call
    (WitnessKind.TREE, 7, 0.5, 1, 5, 4),
    (WitnessKind.SUBGRAPH, 7, 0.5, 1, 5, 4),
])
def test_wide_tree_and_subgraph_circuits(kind, n, p, gseed, width, per_call):
    # k = 6 at l = 64 and B = 31 with the default budgets, as the sieve
    # workload runs them: tagged sums of more terms than one call gathers are
    # XORed in place, term by term
    from bcslab.algebra import mldetect

    build, extra = _BUILDERS[kind]
    c, k_dim = build(random_redblue(n, p, gseed), 6), 6 + extra
    assert mldetect._chunk_bits(c, 64, 31, k_dim) == width
    assert mldetect._BUDGET // (4 * 2 * 31 << width) == per_call
    assert any(s[0] == SUM and s[4] is not None and max(s[3][1:] - s[3][:-1]) > per_call
               for s in c.schedule.steps)
    assert _same_as_reference(c, k_dim, 64, 31, seed=6).any()


def test_zero_tag_is_rejected():
    # a multiply that carries a tag adds the tag's log, and zero has none
    from bcslab.algebra.mldetect import Substitution

    x = [("in", ("x", 0)), ("in", ("x", 1))]
    c = _tiny(x + [("mul", 0, 1, 0)], 2, 2, 1)
    sub = draw_substitution(2, 1, 2, 64, seed=2, batch=3)
    assert _eval_fast(c, sub).all()
    tags = sub.tags.copy()
    tags[1, 0] = 0
    with pytest.raises(ValueError, match="nonzero"):
        _eval_fast(c, Substitution(sub.k_dim, sub.ell, sub.vectors, tags))


class _Drift:
    """Witness extraction with a forced one-sided miss: detect_multilinear says
    yes on the whole graph, then no on every smaller one during the first
    `bad` deletion passes, then decides for real. Each pass ends in one
    validate_witness call, which this counts."""

    def __init__(self, monkeypatch, bad):
        from bcslab.algebra import mldetect

        self.real, self.validate = mldetect.detect_multilinear, mldetect.validate_witness
        self.bad, self.passes, self.seeds = bad, [], []
        monkeypatch.setattr(mldetect, "detect_multilinear", self.detect)
        monkeypatch.setattr(mldetect, "validate_witness", self.check)

    def detect(self, c, k_dim, ell, trials, seed):
        self.seeds.append((len(self.passes), seed))
        if len(self.seeds) == 1:
            return True
        if len(self.passes) < self.bad:
            return False
        return self.real(c, k_dim, ell, trials, seed)

    def check(self, G, w, k):
        verdict = self.validate(G, w, k)
        self.passes.append(verdict.valid)
        return verdict


def test_witness_extraction_retries_after_a_miss(monkeypatch):
    drift = _Drift(monkeypatch, bad=1)
    ans = randomized_solve(TRI, 2, WitnessKind.PATH, trials=32, seed=3, want_witness=True)
    assert ans.yes and validate_witness(TRI, ans.witness, 2).valid
    assert drift.passes == [False, True]
    # the second pass decides on seeds of its own
    first = {s for p, s in drift.seeds[1:] if p == 0}
    second = {s for p, s in drift.seeds if p == 1}
    assert first and second and not first & second


def test_witness_extraction_raises_rather_than_answer_none(monkeypatch):
    from bcslab.algebra import mldetect

    drift = _Drift(monkeypatch, bad=10**6)
    with pytest.raises(mldetect.WitnessExtractionError):
        randomized_solve(TRI, 2, WitnessKind.PATH, trials=32, seed=3, want_witness=True)
    assert drift.passes == [False] * mldetect._WITNESS_PASSES
    assert len({s for _, s in drift.seeds}) == len(drift.seeds)
