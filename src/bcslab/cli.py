"""Command-line front end: solve, oracle, shrink, generate, crosscheck, bench.

JSON/CSV outputs are versioned ("format": 1) and deterministic for identical
flags and seed, except for wall-clock fields (millis, median_ms). Exit codes:
0 yes, 1 no, 2 error.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional

from .graphs import (
    GraphFormatError,
    RedBlueGraph,
    Witness,
    WitnessKind,
    parse_graph,
    serialize_graph,
    split_partition,
    validate_witness,
)
from .oracle import OracleBudgetError, SolveMode, oracle_count, oracle_solve
from .colorcoding import colorful_dp, family_driver, random_coloring_driver, random_labels
from .repsets import solve_ebp_repsets
from .splitsolver import NotASplitGraphError, solve_split_ebcs
from .algebra.mldetect import _BUILDERS, WitnessExtractionError, randomized_solve, run_trials
from .shrink import ShrinkPreconditionError, shrink_to_range
from .reductions import longest_path_split_to_ebp, steiner_to_ebcs
from . import corpus as corpus_mod

KINDS = {k.value: k for k in WitnessKind}


def _load_graph(path: str) -> RedBlueGraph:
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _require_repsets_kind(kind):
    if kind is not WitnessKind.PATH:
        raise ValueError("repsets solver handles kind=path only")


# solvers that decide exactly k edges; oracle and split also answer --mode atleast
_EXACT_ONLY = ("colorcoding", "repsets", "algebraic")


def run_solver(G, algo, kind, k, args):
    """Returns (yes: bool, witness or None).

    Raises ValueError for --mode atleast on a solver that decides exactly k
    edges, rather than answer a question it was not asked.
    """
    if args.mode == "atleast" and algo in _EXACT_ONLY:
        raise ValueError(f"--algo {algo} decides exactly k edges; --mode atleast "
                         "needs --algo oracle, or split on split graphs")
    if algo == "oracle":
        mode = SolveMode.AT_LEAST if args.mode == "atleast" else SolveMode.EXACT
        w = oracle_solve(G, k, kind, mode, budget=args.budget)
        return w is not None, w
    if algo == "split":
        if kind is not WitnessKind.SUBGRAPH:
            raise ValueError("split solver handles kind=subgraph only")
        w = solve_split_ebcs(G, k)
        return w is not None, w
    if algo == "colorcoding":
        w = random_coloring_driver(G, k, kind, args.delta, args.seed)
        return w is not None, w
    if algo == "repsets":
        _require_repsets_kind(kind)
        w = solve_ebp_repsets(G, k)
        return w is not None, w
    if algo == "algebraic":
        ans = randomized_solve(
            G, k, kind, trials=args.trials, seed=args.seed,
            want_witness=args.witness, ell=args.ell,
        )
        return ans.yes, ans.witness
    raise ValueError(f"unknown algo {algo!r}")


def cmd_solve(args) -> int:
    G = _load_graph(args.graph)
    kind = KINDS[args.kind]
    t0 = time.perf_counter()
    yes, w = run_solver(G, args.algo, kind, args.k, args)
    millis = int((time.perf_counter() - t0) * 1000)
    _emit({
        "format": 1,
        "answer": "yes" if yes else "no",
        "witness": sorted(w.edge_indices) if w else None,
        "algo": args.algo,
        "kind": args.kind,
        "k": args.k,
        "seed": args.seed,
        "millis": millis,
    })
    return 0 if yes else 1


def cmd_oracle(args) -> int:
    """`solve --algo oracle`, or with --count the number of witnesses."""
    if not args.count:
        return cmd_solve(args)
    if args.mode != "exact":
        raise ValueError("oracle --count counts witnesses of exactly k edges; "
                         "--mode atleast does not apply")
    G = _load_graph(args.graph)
    c = oracle_count(G, args.k, KINDS[args.kind], budget=args.budget)
    _emit({"format": 1, "count": c, "kind": args.kind, "k": args.k})
    return 0


def cmd_shrink(args) -> int:
    G = _load_graph(args.graph)
    with open(args.witness, "r", encoding="utf-8") as fh:
        w = Witness.from_json(fh.read())
    out = shrink_to_range(G, w, args.k)
    sys.stdout.write(out.to_json() + "\n")
    return 0


def cmd_generate(args) -> int:
    G = _load_graph(args.graph)  # colors ignored for the source
    edges = [(u, v) for u, v, _ in G.edges]
    if args.reduction == "steiner":
        terms = [int(x) for x in args.terminals.split(",")]
        gi = steiner_to_ebcs(G.n, edges, terms, args.k)
    else:
        part = split_partition(G)
        if part is None:
            raise NotASplitGraphError("splitpath generation needs a split source")
        clique, independent = part
        u0 = args.u0
        if u0 not in clique:
            raise ValueError("u0 must lie in the clique part of the source")
        gi = longest_path_split_to_ebp(G.n, edges, clique, independent, u0, args.k)
    with open(args.out + ".graph", "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(gi.graph))
    sidecar = {
        "format": 1,
        "target": gi.target,
        "kind": gi.kind.value,
        "intended_witness": sorted(gi.intended.edge_indices) if gi.intended else None,
        "source": gi.info,
    }
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True) + "\n")
    _emit({"format": 1, "written": [args.out + ".graph", args.out + ".json"]})
    return 0


# ---------------------------------------------------------------------------
# crosscheck: every applicable solver against the oracle
# ---------------------------------------------------------------------------


def check_instance(G: RedBlueGraph, ks, trials: int, ell: int, seed: int) -> dict:
    """Solver-vs-oracle verdicts for one instance; see crosscheck_corpus."""
    out = {"disagreements": [], "alg_fp": 0, "alg_fn": 0, "alg_yes": 0, "combos": 0}
    is_split = split_partition(G) is not None
    for k in ks:
        for kind in WitnessKind:
            truth = oracle_solve(G, k, kind) is not None
            out["combos"] += 1

            def flag(algo, got, expected=truth):
                if got != expected:
                    out["disagreements"].append(
                        {"algo": algo, "kind": kind.value, "k": k,
                         "graph": serialize_graph(G), "got": got, "expected": expected}
                    )

            w = family_driver(G, k, kind)
            if w is not None and not validate_witness(G, w, k).valid:
                flag("colorcoding-witness", False, True)
            flag("colorcoding", w is not None)
            if kind is WitnessKind.PATH:
                wr = solve_ebp_repsets(G, k)
                if wr is not None and not validate_witness(G, wr, k).valid:
                    flag("repsets-witness", False, True)
                flag("repsets", wr is not None)
            if kind is WitnessKind.SUBGRAPH and is_split:
                truth_al = oracle_solve(G, k, kind, SolveMode.AT_LEAST) is not None
                ws = solve_split_ebcs(G, k)
                if ws is not None and not validate_witness(G, ws, k).valid:
                    flag("split-witness", False, True)
                flag("split", ws is not None, truth_al)
            ans = randomized_solve(G, k, kind, trials=trials, seed=seed, ell=ell)
            if ans.yes and not truth:
                out["alg_fp"] += 1
                flag("algebraic", True)
            elif truth:
                out["alg_yes"] += 1
                if not ans.yes:
                    out["alg_fn"] += 1
                    flag("algebraic", False)
    return out


def crosscheck_corpus(instances, ks=(2, 4), trials=32, ell=64, seed=1) -> dict:
    results = [check_instance(G, ks, trials, ell, seed) for G in instances]
    report = {
        "format": 1,
        "instances": len(results),
        "combos": sum(r["combos"] for r in results),
        "disagreements": [d for r in results for d in r["disagreements"]],
        "algebraic": {
            "false_positives": sum(r["alg_fp"] for r in results),
            "false_negatives": sum(r["alg_fn"] for r in results),
            "yes_instances": sum(r["alg_yes"] for r in results),
        },
    }
    return report


def cmd_crosscheck(args) -> int:
    instances: List[RedBlueGraph] = []
    if args.dir:
        for name in sorted(os.listdir(args.dir)):
            if name.endswith(".graph"):
                instances.append(_load_graph(os.path.join(args.dir, name)))
    if args.max_n:
        instances.extend(corpus_mod.exhaustive_corpus(args.max_n))
    if args.random:
        instances.extend(corpus_mod.random_corpus(args.random, args.random_n))
    ks = tuple(int(x) for x in args.ks.split(","))
    report = crosscheck_corpus(instances, ks, args.trials, args.ell, args.seed)
    _emit(report)
    return 0 if not report["disagreements"] else 1


def cmd_bench(args) -> int:
    ks = [int(x) for x in args.ks.split(",") if x.strip()]
    rows = bench_rows(args.algo, args.kind, ks, args.n, args.p, args.seed, args.runs,
                      trials=args.trials, ell=args.ell)
    sys.stdout.write("algo,kind,k,n,m,median_ms,runs\n")
    for r in rows:
        sys.stdout.write("%s,%s,%d,%d,%d,%.3f,%d\n" % r)
    return 0


def bench_rows(algo, kind_name, ks, n, p, seed, runs, trials=8, ell=32):
    if runs < 1:
        raise ValueError(f"bench needs at least one run, got {runs}")
    kind = KINDS[kind_name]
    if algo == "repsets":
        _require_repsets_kind(kind)
    G = corpus_mod.random_graph(n, p, seed)
    times = [[] for _ in ks]
    # run r of every row before run r + 1 of any, so that a change in the
    # machine's speed during the call reaches every row alike
    for r in range(runs):
        for k, row in zip(ks, times):
            t0 = time.perf_counter()
            if algo == "algebraic":
                # fixed trial count (no early exit) so rows reflect engine scaling
                build, extra = _BUILDERS[kind]
                run_trials(build(G, k), k + extra, ell, trials, seed + r)
            elif algo == "colorcoding":
                colorful_dp(G, k, kind, random_labels(random.Random(seed + r), G, k, kind))
            elif algo == "repsets":
                solve_ebp_repsets(G, k)
            else:
                raise ValueError(f"bench does not cover algo {algo!r}")
            row.append((time.perf_counter() - t0) * 1000)
    return [(algo, kind_name, k, G.n, G.m, sorted(row)[runs // 2], runs)
            for k, row in zip(ks, times)]


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(prog="bcslab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        """The flags `solve --algo oracle` reads, which `oracle` shares."""
        p.add_argument("--kind", default="subgraph", choices=list(KINDS))
        p.add_argument("-k", type=int, required=True)
        p.add_argument("--mode", default="exact", choices=["exact", "atleast"])
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--budget", type=int, default=10**7)

    ps = sub.add_parser("solve")
    ps.add_argument("--algo", required=True,
                    choices=["oracle", "split", "colorcoding", "repsets", "algebraic"])
    common(ps)
    ps.add_argument("--trials", type=int, default=32)
    ps.add_argument("--delta", type=float, default=0.01)
    ps.add_argument("--ell", type=int, default=64, choices=[16, 32, 64])
    ps.add_argument("--witness", action="store_true")
    ps.add_argument("graph")
    ps.set_defaults(fn=cmd_solve)

    po = sub.add_parser("oracle")
    common(po)
    po.add_argument("--count", action="store_true")
    po.add_argument("graph")
    po.set_defaults(fn=cmd_oracle, algo="oracle")

    ph = sub.add_parser("shrink")
    ph.add_argument("-k", type=int, required=True)
    ph.add_argument("graph")
    ph.add_argument("witness")
    ph.set_defaults(fn=cmd_shrink)

    pg = sub.add_parser("generate")
    pg.add_argument("reduction", choices=["steiner", "splitpath"])
    pg.add_argument("-k", type=int, required=True)
    pg.add_argument("--terminals", default="")
    pg.add_argument("--u0", type=int, default=1)
    pg.add_argument("--out", required=True)
    pg.add_argument("graph")
    pg.set_defaults(fn=cmd_generate)

    pc = sub.add_parser("crosscheck")
    pc.add_argument("--dir", default=None)
    pc.add_argument("--max-n", type=int, default=0)
    pc.add_argument("--random", type=int, default=0)
    pc.add_argument("--random-n", type=int, default=8)
    pc.add_argument("--ks", default="2,4")
    pc.add_argument("--trials", type=int, default=32)
    pc.add_argument("--ell", type=int, default=64, choices=[16, 32, 64])
    pc.add_argument("--seed", type=int, default=1)
    pc.set_defaults(fn=cmd_crosscheck)

    pb = sub.add_parser("bench")
    pb.add_argument("--algo", required=True)
    pb.add_argument("--kind", default="path", choices=list(KINDS))
    pb.add_argument("--ks", default="4,6,8")
    pb.add_argument("--n", type=int, default=30)
    pb.add_argument("--p", type=float, default=0.1)
    pb.add_argument("--seed", type=int, default=1)
    pb.add_argument("--runs", type=int, default=3)
    pb.add_argument("--trials", type=int, default=8)
    pb.add_argument("--ell", type=int, default=32, choices=[16, 32, 64])
    pb.set_defaults(fn=cmd_bench)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphFormatError, ValueError, NotASplitGraphError, ShrinkPreconditionError,
            OracleBudgetError, WitnessExtractionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # the sieve's vectors grow as 2^k; a run that cannot hold them has no answer
        sys.stderr.write("error: out of memory for this instance; try a smaller k\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
