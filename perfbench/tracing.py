"""Layer spans recorded from outside the program.

The traced run rebinds public functions of each bcslab module at the name
their callers look up (``bcslab.cli.oracle_solve``, ``mldetect._BUILDERS``,
``VecGF.mul``) and restores them afterwards. Two kinds of wrapper:

* a *span* records name, start, end and parent for every call; used where
  wrapped calls happen inside (solvers, drivers, detection);
* a *leaf* adds its calls, time and counters to the enclosing span; used for
  functions with no wrapped callee that run too often to keep one record per
  call (field multiplies, colorful DPs, family reduction).

Install and uninstall may alternate, so that the same ops run untraced and
traced in turn. Spans stay in memory and are written out once at the end. Self times and
per-layer metrics are computed from the recorded spans afterwards, so the
arithmetic is the same for a live trace and for synthetic spans in tests.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from bcslab import cli, colorcoding, graphs, repsets, shrink, splitsolver
from bcslab.algebra import field, mldetect

ROOT = "op"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._in_leaf = False
        self._restore: List[Callable[[], None]] = []
        # the traced ops get a cache of their own that, like the module's, starts cold
        self._hash_family = functools.lru_cache(maxsize=None)(
            colorcoding.greedy_hash_family.__wrapped__)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": self.clock(), "end": None, "leaves": {}, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def root(self, fn, *args):
        """Run one op under a root span."""
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def span(self, name: str, fn, note: Optional[Callable] = None):
        """Wrapper recording a span per call; note(args, kwargs, result) -> attrs."""

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["attrs"]["error"] = True
                raise
            finally:
                self._close(span)
            if note is not None:
                span["attrs"].update(note(args, kwargs, result))
            return result

        return wrapper

    def leaf(self, name: str, fn, note: Optional[Callable] = None):
        """Wrapper adding calls, seconds and note(args, kwargs, result) sums to the
        enclosing span. A leaf called inside another leaf counts as the outer one's time."""

        def wrapper(*args, **kwargs):
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self._in_leaf = False
                agg = self._stack[-1]["leaves"].setdefault(name, {"calls": 0, "s": 0.0})
                agg["calls"] += 1
                agg["s"] += dt
            if note is not None:
                for key, val in note(args, kwargs, result).items():
                    agg[key] = agg.get(key, 0) + val
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, key, wrapped) -> None:
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = wrapped
            self._restore.append(lambda: owner.__setitem__(key, old))
        else:
            old = getattr(owner, key)
            setattr(owner, key, wrapped)
            self._restore.append(lambda: setattr(owner, key, old))

    def install(self) -> None:
        """Wrap every layer's entry points at the names their callers use."""
        S, L = self.span, self.leaf

        def at(name, wrap, fn, owners, note=None):
            wrapped = wrap(name, fn, note)
            for owner in owners:
                self._patch(owner, fn.__name__, wrapped)

        at("graphs.parse_graph", L, graphs.parse_graph, [graphs])
        at("graphs.validate_witness", L, graphs.validate_witness, [graphs, cli, shrink, mldetect])
        at("graphs.split_partition", L, graphs.split_partition, [cli, splitsolver])
        at("oracle.oracle_solve", L, cli.oracle_solve, [cli])
        at("splitsolver.solve_split_ebcs", S, splitsolver.solve_split_ebcs, [cli, splitsolver])
        at("shrink.shrink_to_range", S, shrink.shrink_to_range, [shrink])
        steps = {kind: S("shrink.step", fn) for kind, fn in shrink._STEP.items()}
        self._patch(shrink, "shrink_path", steps[graphs.WitnessKind.PATH])
        for kind, wrapped in steps.items():
            self._patch(shrink._STEP, kind, wrapped)
        at("colorcoding.family_driver", S, cli.family_driver, [cli])
        at("colorcoding.random_coloring_driver", S, colorcoding.random_coloring_driver,
           [colorcoding])
        for dp in (colorcoding.colorful_bcs_dp, colorcoding.colorful_bt_dp,
                   colorcoding.colorful_ebp_dp):
            at("colorcoding.dp", L, dp, [colorcoding], _dp_note)
        self._patch(colorcoding, "greedy_hash_family",
                    L("colorcoding.greedy_hash_family", self._hash_family))
        at("repsets.solve_ebp_repsets", S, repsets.solve_ebp_repsets, [cli, repsets])
        at("repsets.reduce_family", L, repsets.reduce_family, [repsets], _reduce_note)
        at("repsets.convolve_extend", L, repsets.convolve_extend, [repsets])
        for kind, (build, extra) in list(mldetect._BUILDERS.items()):
            self._patch(mldetect._BUILDERS, kind, (L("circuits.build", build), extra))
        at("mldetect.randomized_solve", S, mldetect.randomized_solve, [cli, mldetect],
           lambda a, kw, r: {"witness": bool(kw.get("want_witness"))})
        at("mldetect.detect_multilinear", S, mldetect.detect_multilinear, [mldetect],
           lambda a, kw, r: {"gates": len(a[0].gates), "tags": a[0].n_tags, "yes": bool(r)})
        at("mldetect.run_trials", S, mldetect.run_trials, [mldetect],
           lambda a, kw, r: {"trials": a[3]})
        at("mldetect.draw_substitution", L, mldetect.draw_substitution, [mldetect])
        at("field.mul", L, field.VecGF.mul, [field.VecGF], _mul_note)
        at("field.mul", L, field.VecGF.mul_scalar16, [field.VecGF], _mul_note)
        at("cli.crosscheck_corpus", S, cli.crosscheck_corpus, [cli])
        at("cli.check_instance", S, cli.check_instance, [cli])

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _dp_note(args, kwargs, result):
    return {"hits": int(result is not None)}


def _reduce_note(args, kwargs, result):
    return {"sets_in": len(args[0].sets), "sets_out": len(result.sets)}


def _mul_note(args, kwargs, result):
    # operands and result, as held in memory: a lower bound on bytes moved
    return {"elements": result.size,
            "bytes": args[1].nbytes + getattr(args[2], "nbytes", 8) + result.nbytes}


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------


def summarize(spans: List[dict]) -> Dict[str, dict]:
    """Per name: calls, self seconds, inclusive seconds and summed counters.

    A span's self time is its duration minus its child spans' durations and
    its leaves' seconds; a leaf's self time is its own seconds.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        dur = s["end"] - s["start"]
        leaf_s = sum(agg["s"] for agg in s["leaves"].values())
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += dur - child[s["id"]] - leaf_s
        row["incl_s"] += dur
        for name, agg in s["leaves"].items():
            lrow = out[name]
            for key, val in agg.items():
                lrow[key] += val
            lrow["self_s"] += agg["s"]
            lrow["incl_s"] += agg["s"]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: List[dict], overhead_ratio: float) -> Dict[str, float]:
    """The per-layer metrics, per op of the traced phase (ratios as plain ratios)."""
    agg = summarize(spans)
    ops = agg[ROOT]["calls"] or 1

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names) / ops

    def calls(name):
        return agg[name]["calls"] / ops

    detects = [s for s in spans if s["name"] == "mldetect.detect_multilinear"]
    trial_runs = defaultdict(int)
    eval_s = 0.0
    for s in spans:
        if s["name"] == "mldetect.run_trials":
            trial_runs[s["parent"]] += 1
            draw = s["leaves"].get("mldetect.draw_substitution", {"s": 0.0})["s"]
            eval_s += s["end"] - s["start"] - draw
    first = sum(1 for s in detects if s["attrs"].get("yes") and trial_runs[s["id"]] == 1)
    decisions = sum(
        s["leaves"].get("circuits.build", {"calls": 0})["calls"] - 1
        for s in spans if s["name"] == "mldetect.randomized_solve" and s["attrs"].get("witness"))
    dp, red, mul = agg["colorcoding.dp"], agg["repsets.reduce_family"], agg["field.mul"]
    wall = agg[ROOT]["incl_s"]
    return {
        "graphs.parse_s": self_s("graphs.parse_graph"),
        "graphs.parse_calls": calls("graphs.parse_graph"),
        "graphs.validate_s": self_s("graphs.validate_witness"),
        "graphs.validate_calls": calls("graphs.validate_witness"),
        "graphs.split_partition_s": self_s("graphs.split_partition"),
        "oracle.solve_s": self_s("oracle.oracle_solve"),
        "oracle.calls": calls("oracle.oracle_solve"),
        "splitsolver.solve_s": self_s("splitsolver.solve_split_ebcs"),
        "splitsolver.calls": calls("splitsolver.solve_split_ebcs"),
        "shrink.shrink_s": self_s("shrink.shrink_to_range", "shrink.step"),
        "shrink.steps": calls("shrink.step"),
        "colorcoding.driver_s": self_s("colorcoding.family_driver",
                                       "colorcoding.random_coloring_driver"),
        "colorcoding.dp_s": self_s("colorcoding.dp"),
        "colorcoding.colorings": calls("colorcoding.dp"),
        "colorcoding.hit_ratio": _ratio(dp["hits"], dp["calls"]),
        "colorcoding.hash_family_s": self_s("colorcoding.greedy_hash_family"),
        "repsets.solve_s": self_s("repsets.solve_ebp_repsets"),
        "repsets.reduce_s": self_s("repsets.reduce_family"),
        "repsets.reduce_calls": calls("repsets.reduce_family"),
        "repsets.extend_s": self_s("repsets.convolve_extend"),
        "repsets.kept_ratio": _ratio(red["sets_out"], red["sets_in"]),
        "circuits.build_s": self_s("circuits.build"),
        "circuits.gates": sum(s["attrs"].get("gates", 0) for s in detects) / ops,
        "circuits.tags": sum(s["attrs"].get("tags", 0) for s in detects) / ops,
        "mldetect.solve_s": self_s("mldetect.randomized_solve", "mldetect.detect_multilinear"),
        "mldetect.detect_calls": len(detects) / ops,
        "mldetect.trials": sum(s["attrs"].get("trials", 0) for s in spans
                               if s["name"] == "mldetect.run_trials") / ops,
        "mldetect.draw_s": self_s("mldetect.draw_substitution"),
        "mldetect.eval_s": eval_s / ops,
        "mldetect.first_trial_ratio": _ratio(first, len(detects)),
        "mldetect.witness_decisions": decisions / ops,
        "field.mul_calls": calls("field.mul"),
        "field.mul_s": self_s("field.mul"),
        "field.mul_elements": mul["elements"] / ops,
        "field.bytes_computed": mul["bytes"] / ops,
        "cli.check_s": self_s("cli.check_instance"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_share": _ratio(agg[ROOT]["self_s"], wall),
    }


def shares(spans: List[dict], names: Dict[str, str]) -> Dict[str, float]:
    """Inclusive time of each named function as a share of the traced op wall time."""
    agg = summarize(spans)
    wall = agg[ROOT]["incl_s"]
    return {label: _ratio(agg[name]["incl_s"], wall) for label, name in names.items()}
