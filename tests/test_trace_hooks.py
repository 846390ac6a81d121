"""The benchmark's tracer rebinds package names at install time
(perfbench/tracing.py). A caller that binds one of them early escapes the
trace, and the per-layer metrics silently read zero; these tests catch that
in the test suite rather than in the benchmark's numbers."""
import importlib.util
import math
import random
from pathlib import Path

from bcslab import colorcoding
from bcslab.algebra import mldetect
from bcslab.algebra.circuits import SUM
from bcslab.graphs import WitnessKind, parse_graph

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(fn, args):
    """Each fn(arg) as one root op: the spans, and per op the leaf and span
    names recorded under it, with their call counts."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [tracer.root(fn, a) for a in args]
    finally:
        tracer.uninstall()
    ops = []
    for op in [s for s in tracer.spans if s["name"] == tracing.ROOT]:
        ids, calls = {op["id"]}, {}
        for s in tracer.spans:
            if s["parent"] in ids:
                ids.add(s["id"])
                calls[s["name"]] = calls.get(s["name"], 0) + 1
                for name, agg in s["leaves"].items():
                    calls[name] = calls.get(name, 0) + agg["calls"]
                    if "elements" in agg:
                        key = name + ".elements"
                        calls[key] = calls.get(key, 0) + agg["elements"]
        ops.append(calls)
    return results, ops


# a balanced path R B R B, and a star with two red and two blue edges whose
# relaxed walks give a nonzero circuit but which has no path of four edges
YES = parse_graph("graph 5 4\ne 1 2 R\ne 2 3 B\ne 3 4 R\ne 4 5 B\n")
NO = parse_graph("graph 5 4\ne 1 2 R\ne 1 3 R\ne 1 4 B\ne 1 5 B\n")
# a cycle R R B B beside a lone vertex: no tree or path of four edges, though
# the counts pass the driver's screen
CYCLE = parse_graph("graph 5 4\ne 1 2 R\ne 2 3 R\ne 3 4 B\ne 4 1 B\n")


def test_tracer_records_the_algebraic_layers():
    answers, ops = _traced(lambda g: mldetect.randomized_solve(
        g, 4, WitnessKind.PATH, trials=4, seed=1, ell=16), [YES, NO])
    assert [a.yes for a in answers] == [True, False]
    build, _ = mldetect._BUILDERS[WitnessKind.PATH]
    # the first trial decides YES; NO runs both batches, of 1 and 3 trials
    for g, batches, calls in zip((YES, NO), ([1], [1, 3]), ops):
        steps = [s for s in build(g, 4).schedule.steps if s[0] != SUM]
        muls = sum(len(s[1]) for s in steps)
        # each multiply group fits the byte budget at l = 16, B <= 3 and
        # k_dim = 5, so it is one call
        assert max(len(s[1]) for s in steps) * 2 * (3 << 5) <= mldetect._BUDGET
        assert calls["mldetect.randomized_solve"] == calls["circuits.build"] == 1
        assert calls["mldetect.run_trials"] == calls["mldetect.draw_substitution"] == len(batches)
        assert calls["field.mul"] == len(batches) * len(steps)
        # every multiply still goes through VecGF: one element per trial and subset
        assert calls["field.mul.elements"] == muls * sum(batches) << 5


def _dp_calls_expected(g, k, kind, delta, seed):
    """random_coloring_driver's colorful DP calls, replayed untraced: one per
    subgraph coloring up to the first hit, one per tree or path batch of 1, 2,
    4, ... colorings (up to the lane cap) up to the batch holding it."""
    rng = random.Random(seed)
    trials = math.ceil(math.exp(k) * math.log(1 / delta))
    tried = next((i for i in range(1, trials + 1) if colorcoding.colorful_dp(
        g, k, kind, colorcoding.random_labels(rng, g, k, kind)) is not None), trials)
    if kind is WitnessKind.SUBGRAPH:
        return tried
    cap = max(1, colorcoding._LANE_BYTES * 8 >> (k + 1))
    batches, lanes = 0, 1
    while tried > 0:
        batches, tried, lanes = batches + 1, tried - lanes, min(2 * lanes, cap)
    return batches


def test_one_traced_dp_call_per_subgraph_coloring_or_lane_batch():
    # colorcoding.colorings counts DP calls: a subgraph call decides one
    # coloring, a tree or path call a batch
    cases = [(g, kind, seed) for g in (YES, NO, CYCLE) for kind in WitnessKind
             for seed in (1, 2, 3)]
    want = [_dp_calls_expected(g, 4, kind, 0.1, seed) for g, kind, seed in cases]
    _, ops = _traced(lambda case: colorcoding.random_coloring_driver(
        case[0], 4, case[1], 0.1, case[2]), cases)
    assert [calls.get("colorcoding.dp", 0) for calls in ops] == want
    # some subgraph run tries several colorings, and the tree and path runs
    # that find nothing send all 126 in batches of 1, 2, 4, ..., 32, 63
    assert max(n for (_, kind, _), n in zip(cases, want) if kind is WitnessKind.SUBGRAPH) > 1
    assert want[cases.index((CYCLE, WitnessKind.TREE, 1))] == 7
    assert want[cases.index((NO, WitnessKind.PATH, 1))] == 7


def test_tracer_records_the_colorful_dps():
    # colorful_dp must look the DPs up in the module, where the tracer rebinds them
    kinds = list(WitnessKind)
    found, ops = _traced(lambda kind: colorcoding.random_coloring_driver(YES, 4, kind, 0.1, 1),
                         kinds)
    assert all(w is not None for w in found)
    assert all(calls.get("colorcoding.dp", 0) >= 1 for calls in ops)
