"""Acceptance suite: one test per criterion, each printing a PASS line.

Corpora:
  (a) every edge 2-coloring of every graph isomorphism class on <= 5 vertices,
  (b) 200 seeded random graphs with n <= 8.
Run with -s (or read captured output) to see the per-criterion lines.
"""
import math
import random
import time
from itertools import combinations, product
from math import comb

import pytest

from algebra_reference import (
    Backend,
    Basis,
    GroupAlgebraElement,
    change_basis,
    expand_multilinear,
    ga_multiply,
    one_plus_v,
)
from bcslab.graphs import (
    EdgeColor,
    RedBlueGraph,
    Witness,
    WitnessKind,
    validate_witness,
)
from bcslab.oracle import SolveMode, all_witness_sets, oracle_solve
from bcslab.shrink import shrink_path, shrink_subgraph, shrink_to_range, shrink_tree
from bcslab.splitsolver import solve_split_ebcs
from bcslab.repsets import solve_ebp_repsets
from bcslab.algebra.circuits import build_circuit_ebcs, build_circuit_ebp, build_circuit_ebt
from bcslab.algebra.mldetect import randomized_solve, run_trials
from bcslab.reductions import (
    longest_path_from,
    longest_path_split_to_ebp,
    steiner_min_edges,
    steiner_to_ebcs,
)
from bcslab.corpus import (
    all_colorings,
    connected_graph_classes,
    exhaustive_corpus,
    random_corpus,
    random_graph,
    split_graph_classes,
)
from bcslab.cli import bench_rows, crosscheck_corpus

from conftest import B, R

R_ = EdgeColor.RED
B_ = EdgeColor.BLUE


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    instances = list(exhaustive_corpus(5)) + random_corpus(200, 8)
    report = crosscheck_corpus(instances, ks=(2, 4), trials=32, ell=64, seed=1)
    elapsed = time.perf_counter() - t0
    assert report["disagreements"] == [], report["disagreements"][:3]
    assert report["algebraic"]["false_positives"] == 0
    assert report["algebraic"]["false_negatives"] == 0
    assert elapsed < 600.0, f"criterion 1 runtime {elapsed:.0f}s exceeds 10 minutes"
    print(
        f"\nACCEPTANCE 1 PASS - oracle equivalence on {report['instances']} instances, "
        f"{report['combos']} combos, algebraic yes={report['algebraic']['yes_instances']}, "
        f"fp=0 fn=0, {elapsed:.0f}s"
    )


def test_criterion_2_split_characterization():
    t0 = time.perf_counter()
    n_checked = 0
    for n, edges in split_graph_classes(6):
        for colored in all_colorings(edges):
            g = RedBlueGraph(n, colored)
            reds = len(g.red_edges())
            blues = g.m - reds
            for k in (2, 4):
                half = k // 2
                w = solve_split_ebcs(g, k)
                assert (w is not None) == (reds >= half and blues >= half)
                if w is not None:
                    assert w.size == k
                    assert validate_witness(g, w, k).valid
                n_checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 2 PASS - split characterization exact on {n_checked} "
        f"(coloring, k) pairs, {elapsed:.0f}s"
    )


def _nonisomorphic_trees(order):
    nx = pytest.importorskip("networkx")
    for t in nx.nonisomorphic_trees(order):
        yield [(u + 1, v + 1) for u, v in t.edges()]


def _grow_balanced_subgraph(host, size, rng):
    """Connected balanced edge set of the given size in host, or None."""
    for _ in range(60):
        start = rng.randrange(host.m)
        chosen = [start]
        used = {start}
        r = int(host.color(start) is R_)
        b = 1 - r
        while len(chosen) < size:
            frontier = set()
            for e in chosen:
                frontier.update(host.edge_neighbors(e))
            frontier -= used
            if not frontier:
                break
            remaining = size - len(chosen)
            need_r = size // 2 - r
            need_b = size // 2 - b
            pool = [e for e in frontier
                    if (host.color(e) is R_ and need_r > 0) or (host.color(e) is B_ and need_b > 0)]
            if not pool:
                break
            e = rng.choice(sorted(pool))
            chosen.append(e)
            used.add(e)
            if host.color(e) is R_:
                r += 1
            else:
                b += 1
        if len(chosen) == size and r == b:
            w = Witness(WitnessKind.SUBGRAPH, tuple(sorted(chosen)))
            if validate_witness(host, w, size).valid:
                return w
    return None


def test_criterion_3_shrinking():
    t0 = time.perf_counter()
    k = 2
    # paths of length <= 12, all colorings
    n_path = 0
    for L in range(2, 13):
        for colors in product((R_, B_), repeat=L):
            if 2 * sum(1 for c in colors if c is R_) != L:
                continue
            g = RedBlueGraph(L + 1, tuple((i + 1, i + 2, c) for i, c in enumerate(colors)))
            w = Witness(WitnessKind.PATH, tuple(range(L)))
            if L >= 2 * k:
                out = shrink_path(g, w, k)
                assert out.size < L and out.size >= k
                assert validate_witness(g, out, out.size).valid
                n_path += 1
            final = shrink_to_range(g, w, k)
            assert k <= final.size <= 2 * k - 1
            assert validate_witness(g, final, final.size).valid
    # trees with <= 10 edges, all colorings
    n_tree = 0
    for order in range(3, 12):
        for tedges in _nonisomorphic_trees(order):
            m = len(tedges)
            for mask in range(1 << m):
                colors = [R_ if mask >> i & 1 else B_ for i in range(m)]
                if 2 * sum(1 for c in colors if c is R_) != m:
                    continue
                g = RedBlueGraph(order, tuple((u, v, c) for (u, v), c in zip(tedges, colors)))
                w = Witness(WitnessKind.TREE, tuple(range(m)))
                if m >= 3 * k + 2:
                    out = shrink_tree(g, w, k)
                    assert out.size < m and out.size >= k
                    assert validate_witness(g, out, out.size).valid
                    n_tree += 1
                final = shrink_to_range(g, w, k)
                assert k <= final.size <= 3 * k + 1
                assert validate_witness(g, final, final.size).valid
    # 500 generated balanced connected subgraphs with >= 3k+3 edges, k in {2,4}
    n_sub = 0
    rng = random.Random(31337)
    seed = 0
    for kk in (2, 4):
        size = 3 * kk + 4  # smallest even size above 3k+3
        while n_sub < (250 if kk == 2 else 500):
            seed += 1
            host = random_graph(12, 0.45, 5000 + seed)
            if host.m < size:
                continue
            w = _grow_balanced_subgraph(host, size, rng)
            if w is None:
                continue
            out = shrink_subgraph(host, w, kk)
            assert out.size < size and out.size >= kk
            assert validate_witness(host, out, out.size).valid
            final = shrink_to_range(host, w, kk)
            assert kk <= final.size <= 3 * kk + 2
            assert validate_witness(host, final, final.size).valid
            n_sub += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 3 PASS - shrink sweeps: {n_path} path steps, {n_tree} tree steps, "
        f"{n_sub} generated subgraphs, {elapsed:.0f}s"
    )


def _brute_path_families(G, k):
    """masks of vertex sets of paths, keyed (u, v, r, b), by DFS."""
    out = {}
    for u in range(1, G.n + 1):
        stack = [(u, 1 << u, 0, 0, u)]
        while stack:
            x, mask, r, b, start = stack.pop()
            for y, e in G.adjacency[x]:
                if mask >> y & 1:
                    continue
                nr = r + (G.color(e) is R_)
                nb = b + (G.color(e) is B_)
                if nr + nb > k:
                    continue
                key = (start, y, nr, nb)
                out.setdefault(key, set()).add(mask | (1 << y))
                stack.append((y, mask | (1 << y), nr, nb, start))
    return out


def test_criterion_4_representative_families():
    t0 = time.perf_counter()
    corpus = [
        (6, 0.6, 11, 2), (6, 0.6, 12, 4), (6, 0.7, 13, 6),
        (8, 0.5, 21, 2), (8, 0.5, 22, 4), (8, 0.5, 23, 6),
        (10, 0.4, 31, 2), (10, 0.4, 32, 4), (10, 0.35, 33, 6),
    ]
    n_fams = 0
    for n, p, seed, k in corpus:
        G = random_graph(n, p, seed)
        rec = []
        solve_ebp_repsets(G, k, record=rec)
        true_fams = _brute_path_families(G, k)
        kcap = k + 1
        for (u, v, r, b, cand, red) in rec:
            pset = r + b + 1
            assert len(red.sets) <= comb(kcap, pset)
            true_masks = sorted(true_fams.get((u, v, r, b), ()))
            red_masks = [m for m, _ in red.sets]
            q = kcap - pset
            for ysize in range(q + 1):
                for Y in combinations(range(1, n + 1), ysize):
                    ym = 0
                    for y in Y:
                        ym |= 1 << y
                    if any(m & ym == 0 for m in true_masks):
                        assert any(m & ym == 0 for m in red_masks), (u, v, r, b, Y)
            n_fams += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 4 PASS - representation property verified for {n_fams} reduced "
        f"families over {len(corpus)} instances, {elapsed:.0f}s"
    )


def test_criterion_5_algebra_engine():
    t0 = time.perf_counter()
    # (i) annihilation for all v, k_dim <= 10
    lam = 0xDEADBEEFCAFEF00D
    for k in range(1, 11):
        for v in range(1 << k):
            e = one_plus_v(k, 64, v, lam)
            assert ga_multiply(e, e, Backend.XOR_CONVOLUTION).is_zero()
    # (ii) backend equivalence: 1000 random pairs per k_dim <= 8 at l=16,
    # plus 100 pairs per k_dim <= 6 at l in {32, 64}
    rng = random.Random(271828)
    pairs = 0
    for k in range(1, 9):
        for _ in range(1000):
            a = GroupAlgebraElement(k, 16, Basis.GROUP,
                                    tuple(rng.randrange(1 << 16) for _ in range(1 << k)))
            b = GroupAlgebraElement(k, 16, Basis.GROUP,
                                    tuple(rng.randrange(1 << 16) for _ in range(1 << k)))
            lhs = change_basis(ga_multiply(a, b, Backend.XOR_CONVOLUTION))
            rhs = ga_multiply(change_basis(a), change_basis(b), Backend.SUBSET_CONVOLUTION)
            assert lhs == rhs
            pairs += 1
    for ell in (32, 64):
        M = (1 << ell) - 1
        for k in range(1, 7):
            for _ in range(100):
                a = GroupAlgebraElement(k, ell, Basis.GROUP,
                                        tuple(rng.randrange(M + 1) for _ in range(1 << k)))
                b = GroupAlgebraElement(k, ell, Basis.GROUP,
                                        tuple(rng.randrange(M + 1) for _ in range(1 << k)))
                lhs = change_basis(ga_multiply(a, b, Backend.XOR_CONVOLUTION))
                rhs = ga_multiply(change_basis(a), change_basis(b), Backend.SUBSET_CONVOLUTION)
                assert lhs == rhs
                pairs += 1
    # (iii) circuit/oracle support agreement for corpus instances, m <= 8, k <= 4
    n_inst = 0
    corpus = [g for g in exhaustive_corpus(5) if g.m <= 8]
    corpus += [g for g in random_corpus(200, 8) if g.m <= 8]
    for G in corpus:
        for k in (2, 4):
            sup = {frozenset(i for _, i in mono)
                   for mono in expand_multilinear(build_circuit_ebcs(G, k), k)}
            exp = {frozenset(s) for s in all_witness_sets(G, k, WitnessKind.SUBGRAPH)}
            assert sup == exp
            for build, kind in ((build_circuit_ebt, WitnessKind.TREE),
                                (build_circuit_ebp, WitnessKind.PATH)):
                sup = {frozenset(v for _, v in mono)
                       for mono in expand_multilinear(build(G, k), k + 1)}
                want = set()
                for s in all_witness_sets(G, k, kind):
                    vs = set()
                    for i in s:
                        u, v, _ = G.edges[i]
                        vs |= {u, v}
                    want.add(frozenset(vs))
                assert sup == want
        n_inst += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 5 PASS - annihilation k<=10, {pairs} backend pairs equal, "
        f"support agreement on {n_inst} instances, {elapsed:.0f}s"
    )


def test_criterion_6_reduction_equivalence():
    t0 = time.perf_counter()
    n_steiner = 0
    for n, edges in connected_graph_classes(6):
        if not edges:
            continue
        m = len(edges)
        for tsize in range(1, n + 1):
            for T in combinations(range(1, n + 1), tsize):
                opt = steiner_min_edges(n, list(edges), set(T))
                for k in range(tsize, min(m, 5) + 1):
                    gi = steiner_to_ebcs(n, list(edges), list(T), k)
                    source_yes = opt is not None and opt <= k
                    target_yes = oracle_solve(
                        gi.graph, 2 * k, WitnessKind.SUBGRAPH, SolveMode.AT_LEAST
                    ) is not None
                    assert source_yes == target_yes, (n, edges, T, k)
                    assert len(gi.graph.red_edges()) == k
                    if gi.intended is not None:
                        assert validate_witness(gi.graph, gi.intended, 2 * k).valid
                    n_steiner += 1
    n_path = 0
    for n, edges in split_graph_classes(6):
        g0 = RedBlueGraph(n, tuple((u, v, R_) for u, v in edges))
        from bcslab.graphs import split_partition

        part = split_partition(g0)
        clique, independent = part
        for u0 in sorted(clique):
            for k in range(1, min(n - 1, 4) + 1):
                gi = longest_path_split_to_ebp(n, list(edges), clique, independent, u0, k)
                source_yes = longest_path_from(n, list(edges), u0) >= k
                target_yes = oracle_solve(
                    gi.graph, 2 * k, WitnessKind.PATH, SolveMode.AT_LEAST
                ) is not None
                assert source_yes == target_yes, (n, edges, u0, k)
                assert len(gi.graph.red_edges()) == k
                if gi.intended is not None:
                    assert validate_witness(gi.graph, gi.intended, 2 * k).valid
                n_path += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 6 PASS - reduction equivalence: {n_steiner} steiner and "
        f"{n_path} longest-path instances, {elapsed:.0f}s"
    )


def test_criterion_7_scaling_smoke():
    from bcslab.colorcoding import colorful_bcs_dp

    # colorful DP, single coloring, n=30, k=10
    G = random_graph(30, 0.25, 42)
    rng = random.Random(7)
    sig = tuple(rng.randrange(1, 11) for _ in range(G.m))
    t0 = time.perf_counter()
    colorful_bcs_dp(G, sig, 10)
    dp_s = time.perf_counter() - t0
    assert dp_s < 60.0, f"DP smoke took {dp_s:.1f}s"

    # algebraic path decision, n=30, k=12, l=32, t=8 (plus a full-trial engine run)
    G2 = random_graph(30, 0.1, 42)
    t0 = time.perf_counter()
    randomized_solve(G2, 12, WitnessKind.PATH, trials=8, seed=3, ell=32)
    dec_s = time.perf_counter() - t0
    c = build_circuit_ebp(G2, 12)
    t0 = time.perf_counter()
    run_trials(c, 13, 32, 8, seed=3)
    full_s = time.perf_counter() - t0
    assert dec_s < 60.0 and full_s < 60.0, (dec_s, full_s)

    # bench growth ratios for the algebraic engine, k -> k+2 within [1.5, 4];
    # a row's median moves only when 11 of its 21 runs are slow
    rows = bench_rows("algebraic", "path", [4, 6, 8], 30, 0.1, 11, 21, trials=4, ell=16)
    meds = [r[5] for r in rows]
    ratios = [meds[i + 1] / meds[i] for i in range(len(meds) - 1)]
    assert all(1.5 <= r <= 4.0 for r in ratios), ratios
    print(
        f"\nACCEPTANCE 7 PASS - DP smoke {dp_s:.1f}s, algebraic decision {dec_s:.1f}s "
        f"(full trials {full_s:.1f}s), bench ratios {[round(r, 2) for r in ratios]}"
    )
