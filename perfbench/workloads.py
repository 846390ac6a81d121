"""The benchmark's four workloads: seeded inputs as graph text, and the ops.

Every instance reaches the program as graph text through ``parse_graph``.
Each generated workload repeats a fixed round of instance slots; the seed
only changes the random structure inside a slot (colors, vertex labels, edge
order, planted positions), never the slot's size parameters, so every seed
runs the same workload. For crosscheck the seed picks the corpus offset and
relabels vertices. Each op knows its truth by construction and returns a
failure reason, or None when the answer is right.

Program functions are looked up through their module at call time
(``graphs.parse_graph``, ``mldetect.randomized_solve``), so the traced run's
wrappers see the benchmark's own calls too.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from bcslab import cli, colorcoding, corpus, graphs, repsets, shrink, splitsolver
from bcslab.algebra import mldetect
from bcslab.graphs import WitnessKind

# CLI defaults of `bcslab solve` / `bcslab crosscheck`.
TRIALS = 32
ELL = 64
DELTA = 0.01
SOLVER_SEED = 1
CROSSCHECK_KS = (2, 4)
# Every 8th instance of the criterion-1 corpus (3657 instances -> 457 or 458),
# the sample of the ROADMAP crosscheck breakdown.
CROSSCHECK_STRIDE = 8

SHRINK_RANGE = {
    WitnessKind.PATH: lambda k: (k, 2 * k - 1),
    WitnessKind.TREE: lambda k: (k, 3 * k + 1),
    WitnessKind.SUBGRAPH: lambda k: (k, 3 * k + 2),
}


@dataclass
class Instance:
    """One input: graph text plus what the op does with it and the known truth."""

    group: str
    text: str
    run: Callable[["Instance"], Optional[str]]
    kind: Optional[WitnessKind] = None
    k: int = 0
    expect: Optional[bool] = None
    witness: Tuple[int, ...] = ()
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Graph text from edge lists
# ---------------------------------------------------------------------------


def graph_text(n: int, edges) -> str:
    """Serialize (u, v, 'R'|'B') edges in the program's text format."""
    lines = [f"graph {n} {len(edges)}"]
    lines.extend(f"e {u} {v} {c}" for u, v, c in edges)
    return "\n".join(lines) + "\n"


def scramble(rng: random.Random, n: int, edges, marked=()):
    """Random vertex relabelling and edge order; returns (edges, new indices of `marked`)."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    new_edges = []
    where = {}
    for pos, old in enumerate(order):
        u, v, c = edges[old]
        new_edges.append((perm[u - 1], perm[v - 1], c))
        where[old] = pos
    return new_edges, tuple(sorted(where[i] for i in marked))


def balanced_colors(rng: random.Random, count: int, reds: int):
    cols = ["R"] * reds + ["B"] * (count - reds)
    rng.shuffle(cols)
    return cols


def dense_blocks(rng: random.Random, blocks: int, size: int, per_block: int):
    """Disjoint connected blocks of `size` vertices with `per_block` edges each.

    Each block is a random spanning tree plus random chords, with half its
    edges (rounded down) red. A block of k vertices holds no tree or path with
    k edges.
    """
    edges = []
    for b in range(blocks):
        verts = [b * size + x for x in range(1, size + 1)]
        pairs = random_tree_edges(rng, verts)
        have = {frozenset(p) for p in pairs}
        chords = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
                  if frozenset((u, v)) not in have]
        pairs += rng.sample(chords, per_block - len(pairs))
        cols = balanced_colors(rng, len(pairs), len(pairs) // 2)
        edges.extend((u, v, c) for (u, v), c in zip(pairs, cols))
    return blocks * size, edges


def random_tree_edges(rng: random.Random, verts: List[int]):
    """Uniform-attachment spanning tree on the listed vertices."""
    out = []
    for i in range(1, len(verts)):
        out.append((verts[rng.randrange(i)], verts[i]))
    return out


def planted(rng: random.Random, kind: WitnessKind, size: int, n: int, noise: int):
    """A balanced structure of `size` edges among n vertices, plus `noise` random edges.

    Returns (edges, indices of the planted structure).
    """
    if kind is WitnessKind.PATH:
        verts = list(range(1, size + 2))
        pairs = list(zip(verts, verts[1:]))
    elif kind is WitnessKind.TREE:
        pairs = random_tree_edges(rng, list(range(1, size + 2)))
    else:
        nv = max(3, (2 * size) // 3 + 1)
        while nv * (nv - 1) // 2 < size:
            nv += 1
        pairs = random_tree_edges(rng, list(range(1, nv + 1)))
        have = {frozenset(p) for p in pairs}
        while len(pairs) < size:
            a, b = rng.sample(range(1, nv + 1), 2)
            if frozenset((a, b)) not in have:
                have.add(frozenset((a, b)))
                pairs.append((a, b))
    if kind is WitnessKind.PATH:
        # alternating colors: the slowest case for path shrinking
        cols = ["R" if i % 2 == 0 else "B" for i in range(size)]
    else:
        cols = balanced_colors(rng, size, size // 2)
    edges = [(u, v, c) for (u, v), c in zip(pairs, cols)]
    have = {frozenset((u, v)) for u, v, _ in edges}
    while len(edges) < size + noise:
        a, b = rng.sample(range(1, n + 1), 2)
        if frozenset((a, b)) not in have:
            have.add(frozenset((a, b)))
            edges.append((a, b, rng.choice("RB")))
    return edges, tuple(range(size))


def color_starved_blocks(rng: random.Random, blocks: int, size: int, k: int):
    """Complete blocks with k/2 - 1 red edges each: no balanced k-subgraph exists."""
    edges = []
    for b in range(blocks):
        base = b * size
        pairs = [(base + x, base + y) for x in range(1, size + 1) for y in range(x + 1, size + 1)]
        cols = balanced_colors(rng, len(pairs), k // 2 - 1)
        edges.extend((u, v, c) for (u, v), c in zip(pairs, cols))
    return blocks * size, edges


# ---------------------------------------------------------------------------
# Ops: each returns None when the answer is right, else a reason
# ---------------------------------------------------------------------------


def _check_witness(G, w, k, kind) -> Optional[str]:
    if w is None:
        return "requested witness missing"
    if w.kind is not kind:
        return f"witness kind {w.kind.value}, expected {kind.value}"
    rep = graphs.validate_witness(G, w, k)
    if not rep.valid:
        return "invalid witness: " + "; ".join(rep.failures)
    return None


def op_crosscheck(inst: Instance) -> Optional[str]:
    G = graphs.parse_graph(inst.text)
    report = cli.crosscheck_corpus([G], ks=CROSSCHECK_KS, trials=TRIALS, ell=ELL, seed=SOLVER_SEED)
    alg = report["algebraic"]
    if report["instances"] != 1:
        return f"report covers {report['instances']} instances"
    if report["disagreements"] or alg["false_positives"] or alg["false_negatives"]:
        return f"{len(report['disagreements'])} disagreements with the oracle"
    return None


def op_randomized(inst: Instance) -> Optional[str]:
    G = graphs.parse_graph(inst.text)
    want = inst.params.get("witness", False)
    ans = mldetect.randomized_solve(G, inst.k, inst.kind, trials=TRIALS, seed=SOLVER_SEED,
                                    want_witness=want, ell=ELL)
    if ans.yes != inst.expect:
        return f"answered {ans.yes}, truth {inst.expect}"
    return _check_witness(G, ans.witness, inst.k, inst.kind) if want else None


def _check_answer(G, w, inst: Instance) -> Optional[str]:
    """A solver that answers with a witness or None: decision, then witness."""
    if (w is not None) != inst.expect:
        return f"answered {w is not None}, truth {inst.expect}"
    return _check_witness(G, w, inst.k, inst.kind) if w is not None else None


def op_color_driver(inst: Instance) -> Optional[str]:
    G = graphs.parse_graph(inst.text)
    w = colorcoding.random_coloring_driver(G, inst.k, inst.kind, DELTA, SOLVER_SEED)
    return _check_answer(G, w, inst)


def op_repsets(inst: Instance) -> Optional[str]:
    G = graphs.parse_graph(inst.text)
    return _check_answer(G, repsets.solve_ebp_repsets(G, inst.k), inst)


def op_split(inst: Instance) -> Optional[str]:
    G = graphs.parse_graph(inst.text)
    return _check_answer(G, splitsolver.solve_split_ebcs(G, inst.k), inst)


def op_shrink(inst: Instance) -> Optional[str]:
    G = graphs.parse_graph(inst.text)
    W = graphs.Witness(inst.kind, inst.witness)
    out = shrink.shrink_to_range(G, W, inst.k)
    lo, hi = SHRINK_RANGE[inst.kind](inst.k)
    if not lo <= out.size <= hi:
        return f"shrunk to {out.size} edges, outside [{lo}, {hi}]"
    if not set(out.edge_indices) <= set(inst.witness):
        return "shrunk witness leaves the input witness"
    return _check_witness(G, out, out.size, inst.kind)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


# Distinct instances per slot. Runs cover a prefix of the list without
# repeating an instance, so a run averages over many random structures, and
# every prefix holds each slot in the same proportion.
ROUNDS = 32


def golden_order(items: list) -> list:
    """Reorder so that every prefix samples the list evenly from end to end."""
    phi = 0.6180339887498949
    return [items[i] for i in sorted(range(len(items)), key=lambda i: (i * phi) % 1.0)]


def crosscheck_instances(seed: int) -> List[Instance]:
    """Criterion-1 corpus, every CROSSCHECK_STRIDE-th instance from a seeded offset.

    The corpus grows in n, and so does an instance's cost; golden_order keeps
    each prefix's size mix that of the whole sample.
    """
    rng = random.Random(seed)
    offset = rng.randrange(CROSSCHECK_STRIDE)
    full = list(corpus.exhaustive_corpus(5)) + corpus.random_corpus(200, 8)
    out = []
    for G in full[offset::CROSSCHECK_STRIDE]:
        edges, _ = scramble(rng, G.n, [(u, v, c.value) for u, v, c in G.edges])
        out.append(Instance("crosscheck", graph_text(G.n, edges), op_crosscheck,
                            params={"n": G.n, "m": G.m}))
    return golden_order(out)


def _instance(rng, group, n, edges, run, kind, k, expect, marked=(), **params):
    edges, wit = scramble(rng, n, edges, marked)
    params.update(n=n, m=len(edges))
    return Instance(group, graph_text(n, edges), run, kind, k, expect, wit, params)


P, T, S = WitnessKind.PATH, WitnessKind.TREE, WitnessKind.SUBGRAPH


def sieve_instances(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = []
    for _ in range(ROUNDS):
        # provable NO, all 32 trials run: (kind, k, blocks, edges per block). The
        # two path k=8 ops are the costliest sixth of the round, so op_ms_p90
        # falls inside their cost cluster rather than on its edge.
        for kind, k, blocks, per_block in ((P, 8, 1, 11), (P, 8, 1, 11), (T, 4, 2, 6),
                                           (T, 6, 1, 6)):
            n, edges = dense_blocks(rng, blocks, k, per_block)
            out.append(_instance(rng, "no", n, edges, op_randomized, kind, k, False,
                                 blocks=blocks))
        n, edges = color_starved_blocks(rng, 1, 4, 6)
        out.append(_instance(rng, "no", n, edges, op_randomized, S, 6, False, blocks=1))
        # planted YES, the first trial decides: (kind, k, n, noise edges)
        for kind, k, n, noise in ((P, 8, 20, 20), (T, 6, 12, 10), (S, 6, 9, 4)):
            edges, marked = planted(rng, kind, k, n, noise)
            out.append(_instance(rng, "yes", n, edges, op_randomized, kind, k, True, marked))
        # witness extraction, one decision per edge
        for kind, k, n, noise in ((P, 4, 9, 6), (T, 4, 8, 5), (S, 4, 8, 5)):
            edges, marked = planted(rng, kind, k, n, noise)
            out.append(_instance(rng, "witness", n, edges, op_randomized, kind, k, True, marked,
                                 witness=True))
    return out


def combinatorial_instances(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = []
    for _ in range(ROUNDS):
        # provable NO, all ceil(e^k ln(1/delta)) colorings run
        for kind, k, blocks, per_block in ((P, 6, 2, 8), (T, 4, 2, 6)):
            n, edges = dense_blocks(rng, blocks, k, per_block)
            out.append(_instance(rng, "driver_no", n, edges, op_color_driver, kind, k, False,
                                 blocks=blocks))
        # the number of colorings before a hit is geometric: keep its share small
        edges, marked = planted(rng, S, 8, 10, 2)
        out.append(_instance(rng, "driver_yes", 10, edges, op_color_driver, S, 8, True, marked))
        for _ in range(2):
            edges, marked = planted(rng, P, 6, 10, 6)
            out.append(_instance(rng, "repsets_yes", 10, edges, op_repsets, P, 6, True, marked))
            n, edges = dense_blocks(rng, 2, 6, 8)
            out.append(_instance(rng, "repsets_no", n, edges, op_repsets, P, 6, False, blocks=2))
    return out


def split_instance(rng: random.Random, clique: int, independent: int, yes: bool) -> Instance:
    """Clique plus an independent side with one or two edges per vertex into the clique."""
    n = clique + independent
    pairs = [(a, b) for a in range(1, clique + 1) for b in range(a + 1, clique + 1)]
    for v in range(clique + 1, n + 1):
        for c in rng.sample(range(1, clique + 1), 1 + v % 2):
            pairs.append((c, v))
    m = len(pairs)
    k = 2 * (m // 8)
    reds = rng.randrange(m // 3, 2 * m // 3) if yes else m - (k // 2 - 1)
    cols = balanced_colors(rng, m, reds)
    edges = [(u, v, c) for (u, v), c in zip(pairs, cols)]
    # on split graphs the counting condition decides the instance
    truth = reds >= k // 2 and m - reds >= k // 2
    return _instance(rng, "split", n, edges, op_split, S, k, truth,
                     clique=clique, independent=independent)


def shrink_instance(rng: random.Random, kind: WitnessKind, size: int, k: int, noise: int):
    n = size + 1 + noise // 2
    edges, marked = planted(rng, kind, size, n, noise)
    return _instance(rng, "shrink_" + kind.value, n, edges, op_shrink, kind, k, True, marked,
                     size=size)


def large_graph_instances(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = []
    for r in range(ROUNDS):
        for clique, independent in ((16, 200), (24, 400), (32, 700), (20, 300)):
            out.append(split_instance(rng, clique, independent, yes=r % 2 == 0))
        for kind, size in ((P, 300), (T, 300), (S, 120), (P, 400), (T, 600), (S, 200)):
            out.append(shrink_instance(rng, kind, size, 4, 100))
    return out


WORKLOADS = {
    "crosscheck": crosscheck_instances,
    "sieve": sieve_instances,
    "combinatorial": combinatorial_instances,
    "large_graph": large_graph_instances,
}


def run_op(inst: Instance) -> Optional[str]:
    """Run one op; an exception is a failure like a wrong answer."""
    try:
        return inst.run(inst)
    except Exception as exc:  # every op failure is counted, never dropped
        return f"{type(exc).__name__}: {exc}"
