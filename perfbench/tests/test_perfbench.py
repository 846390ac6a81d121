"""Tests of the benchmark's own code: the percentile rule, span arithmetic and
failure counting. Run with ``python -m pytest perfbench/tests``."""
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bcslab import colorcoding, shrink  # noqa: E402
from bcslab.algebra import field, mldetect  # noqa: E402
from bcslab.graphs import WitnessKind  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_ms([0.001] * 99, 90) is None
    assert run.tail_ms([0.001] * 100, 90) == pytest.approx(1.0)
    assert run.tail_ms([0.001] * 19, 50) is None
    samples = [i / 1000.0 for i in range(1, 101)]
    assert run.tail_ms(samples, 90) == pytest.approx(90.1)
    assert run.tail_ms(samples, 50) == pytest.approx(50.5)


def _span(sid, parent, name, start, end, **leaves):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "leaves": {n: {"calls": 1, "s": s} for n, s in leaves.items()}, "attrs": {}}


def test_self_times_of_nested_spans():
    spans = [
        _span(0, None, "op", 0.0, 10.0, **{"graphs.parse_graph": 1.0}),
        _span(1, 0, "mldetect.run_trials", 1.0, 6.0, **{"field.mul": 2.0}),
        _span(2, 1, "shrink.step", 2.0, 4.0),
    ]
    agg = tracing.summarize(spans)
    assert agg["op"]["self_s"] == pytest.approx(4.0)  # 10 - 5 (child) - 1 (leaf)
    assert agg["mldetect.run_trials"]["self_s"] == pytest.approx(1.0)  # 5 - 2 - 2
    assert agg["shrink.step"]["self_s"] == pytest.approx(2.0)
    assert agg["field.mul"]["self_s"] == pytest.approx(2.0)
    assert agg["graphs.parse_graph"]["self_s"] == pytest.approx(1.0)
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(10.0)
    layers = tracing.layer_metrics(spans, overhead_ratio=1.0)
    assert layers["trace.unattributed_share"] == pytest.approx(0.4)
    assert layers["mldetect.eval_s"] == pytest.approx(5.0)


def test_tracer_records_parents_and_leaves():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = tracing.Tracer(clock=lambda: now[0])
    leaf = tracer.leaf("field.mul", lambda: tick(1.0))
    inner = tracer.span("shrink.step", lambda: (tick(2.0), leaf()))
    outer = tracer.span("mldetect.run_trials", lambda: (inner(), leaf()))
    tracer.root(outer)
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("op", None), ("mldetect.run_trials", 0), ("shrink.step", 1)]
    assert tracer.spans[1]["leaves"]["field.mul"] == {"calls": 1, "s": 1.0}
    agg = tracing.summarize(tracer.spans)
    assert agg["shrink.step"]["self_s"] == pytest.approx(2.0)
    assert agg["field.mul"]["calls"] == 2


def test_install_wraps_callers_names_and_uninstall_restores():
    def originals():
        return (mldetect.randomized_solve, dict(mldetect._BUILDERS), workloads.cli.oracle_solve,
                colorcoding.greedy_hash_family, field.VecGF.mul, shrink.shrink_path,
                dict(shrink._STEP))

    before = originals()
    text = workloads.graph_text(4, [(1, 2, "R"), (2, 3, "B"), (3, 4, "R")])
    inst = workloads.Instance("witness", text, workloads.op_randomized, WitnessKind.PATH, 2,
                              True, params={"witness": True})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.root(workloads.run_op, inst) is None
    finally:
        tracer.uninstall()
    assert originals() == before
    solve = [s for s in tracer.spans if s["name"] == "mldetect.randomized_solve"]
    assert solve and solve[0]["attrs"]["witness"]
    builds = solve[0]["leaves"]["circuits.build"]["calls"]
    assert tracing.layer_metrics(tracer.spans, 1.0)["mldetect.witness_decisions"] == builds - 1


def _no_instance():
    rng = random.Random(5)
    n, edges = workloads.dense_blocks(rng, 1, 4, 5)
    return workloads.Instance("no", workloads.graph_text(n, edges), workloads.op_randomized,
                              WitnessKind.PATH, 4, False)


def test_wrong_answer_from_stub_solver_is_a_failure(monkeypatch):
    inst = _no_instance()
    _, reasons, _ = run.measure([inst], workloads.run_op, 0, 3)
    assert reasons == []
    monkeypatch.setattr(mldetect, "randomized_solve",
                        lambda *a, **kw: mldetect.RandomizedAnswer(True, None))
    times, reasons, _ = run.measure([inst], workloads.run_op, 0, 3)
    assert len(times) == 3 and len(reasons) == 3
    assert "truth False" in reasons[0]


def test_exception_in_op_is_a_failure(monkeypatch):
    def boom(*a, **kw):
        raise ValueError("stub")

    monkeypatch.setattr(mldetect, "randomized_solve", boom)
    _, reasons, _ = run.measure([_no_instance()], workloads.run_op, 0, 2)
    assert len(reasons) == 2 and "ValueError: stub" in reasons[0]
