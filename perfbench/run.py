"""bcslab benchmark: end-to-end solve metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. One
process drives the package in-process through the functions that
``bcslab solve`` and ``bcslab crosscheck`` call, as one closed-loop caller.
Ops cycle through the workload's instances until S seconds have passed and at
least MIN_OPS ops have completed. Every answer is checked against its known
truth; a wrong answer, a bad witness or an exception is a failed op.

--trace 0 prints setup_s, ops_per_s, op_ms_p50, op_ms_p90 and peak_rss_mb.
--trace 1 runs each block of ops twice, untraced and with every layer wrapped,
for S/2 seconds of untraced time, and prints the per-layer metrics with the
overhead ratio (traced wall / untraced wall) and the share of traced wall no
layer accounts for.
The last stdout line is the JSON result; a JSON record with the run's
conditions (and the spans, when traced) goes to perfbench/results/.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("crosscheck", "sieve", "combinatorial", "large_graph")
MIN_OPS = 100  # op_ms_p90 needs ten samples beyond it
HARD_LIMIT_S = 120.0  # stop adding ops past this, even below MIN_OPS
SETUP_SAMPLES = 5  # this process plus four fresh ones
TRACE_BLOCK = 4  # ops per untraced/traced block of a traced run
# ROADMAP crosscheck breakdown at l = 64, for the attribution check
ROADMAP_SHARES = {"randomized_solve": 0.84, "repsets": 0.12, "family_driver": 0.03,
                  "oracle": 0.004}
SHARE_NAMES = {"randomized_solve": "mldetect.randomized_solve",
               "repsets": "repsets.solve_ebp_repsets",
               "family_driver": "colorcoding.family_driver", "oracle": "oracle.oracle_solve"}


def tail_ms(samples_s, q):
    """q-th percentile in ms, or None when fewer than ten samples lie beyond it."""
    n = len(samples_s)
    if n * (100 - q) < 1000:
        return None
    return statistics.quantiles([s * 1000.0 for s in samples_s], n=100, method="inclusive")[q - 1]


def setup(workload, seed):
    """Import the package from src/ and build the workload's inputs as graph text."""
    if not (SRC / "bcslab" / "__init__.py").is_file():
        raise SystemExit(f"error: no bcslab package under {SRC}; run from a checkout")
    os.environ["BCSLAB_THREADS"] = "1"  # crosscheck_corpus would fork a pool otherwise
    sys.path[:0] = [str(SRC), str(HERE)]
    import bcslab

    if Path(bcslab.__file__).resolve().parent != (SRC / "bcslab").resolve():
        raise SystemExit(f"error: bcslab imported from {bcslab.__file__}, not {SRC}")
    import workloads

    return workloads, workloads.WORKLOADS[workload](seed)


def measure(instances, run_op, seconds, min_ops, wrap=None, count=None):
    """Closed loop over the instances; returns (op seconds, failure reasons, wall)."""
    times, reasons = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        inst = instances[i % len(instances)]
        a = time.perf_counter()
        why = run_op(inst) if wrap is None else wrap(run_op, inst)
        times.append(time.perf_counter() - a)
        if why is not None:
            reasons.append(f"{inst.group} #{i % len(instances)}: {why}")
        i += 1
        wall = time.perf_counter() - t0
        if count is not None:
            if i >= count:
                break
        elif (wall >= seconds and i >= min_ops) or wall >= HARD_LIMIT_S:
            break
    return times, reasons, wall


def setup_samples(args):
    """Setup seconds of fresh processes doing this run's setup, then exiting."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def conditions(args, instances):
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "BCSLAB_THREADS": os.environ.get("BCSLAB_THREADS"),
        "instances": [dict(inst.params, group=inst.group, kind=inst.kind.value if inst.kind
                           else None, k=inst.k, expect=inst.expect) for inst in instances],
    }


def run_plain(args, wl, instances, setup_s):
    times, reasons, wall = measure(instances, wl.run_op, args.seconds, MIN_OPS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50, p90 = tail_ms(times, 50), tail_ms(times, 90)
    if p90 is None:
        raise SystemExit(f"error: {len(times)} ops in {wall:.1f} s, too few for op_ms_p90")
    setups = [setup_s] + setup_samples(args)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / wall, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"ops": len(times), "wall_s": wall, "setup_samples_s": setups,
             "fail_rate": len(reasons) / len(times)}
    return metrics, len(times), reasons, extra


def run_traced(args, wl, instances):
    """Same ops untraced and traced, in alternating blocks, so drift in machine speed
    falls on both sides of the overhead ratio alike."""
    import tracing

    tracer = tracing.Tracer()
    walls = {False: 0.0, True: 0.0}
    attempted, reasons = 0, []
    start = 0
    while walls[False] < args.seconds / 2:
        block = [instances[(start + j) % len(instances)] for j in range(TRACE_BLOCK)]
        order = (False, True) if (start // TRACE_BLOCK) % 2 == 0 else (True, False)
        start += TRACE_BLOCK
        for traced in order:
            if traced:
                tracer.install()
            try:
                times, why, wall = measure(block, wl.run_op, 0, 0,
                                           wrap=tracer.root if traced else None,
                                           count=len(block))
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced] += wall
            attempted += len(times)
            reasons += why
    layers = tracing.layer_metrics(tracer.spans, walls[True] / walls[False])
    units = {"_s": "s/op", "ratio": "ratio", "share": "ratio", "bytes_computed": "B/op"}
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count/op")
        metrics[name] = (value, unit)
    shares = tracing.shares(tracer.spans, SHARE_NAMES)
    extra = {"ops": start, "traced_wall_s": walls[True], "untraced_wall_s": walls[False],
             "solver_shares": shares, "roadmap_shares": ROADMAP_SHARES, "spans": tracer.spans}
    return metrics, attempted, reasons, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, instances = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        metrics, attempted, reasons, extra = run_traced(args, wl, instances)
    else:
        metrics, attempted, reasons, extra = run_plain(args, wl, instances, setup_s)

    record = {"conditions": conditions(args, instances),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": attempted, "failed": len(reasons), "failures": reasons[:20], **extra}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")

    cond = record["conditions"]
    print(f"# {args.workload} seed={args.seed} instances={len(instances)} nproc={cond['nproc']} "
          f"python={cond['python']} numpy={cond['numpy']} record={out.relative_to(HERE.parent)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({extra['ops']} ops)" if name == "op_ms_p50" else ""
        print(f"{name:28s} {value:14.6g} {unit}{note}")
    print(f"{'fail_rate':28s} {len(reasons) / attempted:14.6g} ratio  "
          f"({len(reasons)} of {attempted} ops)")
    if args.workload == "crosscheck" and args.trace:
        for label, share in extra["solver_shares"].items():
            gap = share - ROADMAP_SHARES[label]
            print(f"share {label:22s} {share:14.1%}  ROADMAP {ROADMAP_SHARES[label]:.1%}"
                  f"  gap {gap:+.1%}")
    for why in reasons[:5]:
        print(f"FAILED {why}")
    print(json.dumps({"correct": not reasons, "attempted": attempted, "failed": len(reasons),
                      "metrics": record["metrics"]}))
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
