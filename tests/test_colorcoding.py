import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colorcoding_reference as ref
from bcslab.graphs import RedBlueGraph, WitnessKind, parse_graph, validate_witness
from bcslab.oracle import all_witness_sets, oracle_solve
from bcslab import colorcoding
from bcslab.colorcoding import (
    colorful_bcs_dp,
    colorful_bt_dp,
    colorful_ebp_dp,
    family_driver,
    greedy_hash_family,
    random_coloring_driver,
)

from conftest import B, R, path_graph, random_redblue

TRI = parse_graph("graph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n")


def _one_row(dp, g, tau, k):
    """dp on the one-row batch (tau,): the witness, or None."""
    hit = dp(g, (tau,), k)
    assert hit is None or hit[0] == 0
    return hit and hit[1]


def _one_path(g, tau, k):
    return _one_row(colorful_ebp_dp, g, tau, k)


def _one_tree(g, tau, k):
    return _one_row(colorful_bt_dp, g, tau, k)


def test_bcs_dp_examples():
    w = colorful_bcs_dp(TRI, (1, 2, 1), 2)
    assert w is not None and sorted(w.edge_indices) == [0, 1]
    assert colorful_bcs_dp(TRI, (1, 1, 1), 2) is None
    single = path_graph([R])
    assert colorful_bcs_dp(single, (1,), 2) is None


def test_bt_dp_examples():
    pg = path_graph([R, B])
    hit = colorful_bt_dp(pg, ((1, 2, 3),), 2)
    assert hit is not None and hit[0] == 0 and sorted(hit[1].edge_indices) == [0, 1]
    assert colorful_bt_dp(pg, ((1, 2, 1),), 2) is None
    allred = path_graph([R, R])
    assert colorful_bt_dp(allred, ((1, 2, 3),), 2) is None


def test_ebp_dp_examples():
    pg = path_graph([R, B])
    hit = colorful_ebp_dp(pg, ((1, 2, 3),), 2)
    assert hit is not None and hit[0] == 0 and sorted(hit[1].edge_indices) == [0, 1]
    c4 = parse_graph("graph 4 4\ne 1 2 R\ne 2 3 B\ne 3 4 R\ne 4 1 B\n")
    assert colorful_ebp_dp(c4, ((1, 2, 3, 4),), 4) is None


def test_dp_witnesses_are_colorful():
    rng = random.Random(0)
    for seed in range(25):
        g = random_redblue(6, 0.5, seed + 900)
        if g.m < 4:
            continue
        k = 4
        sig = tuple(rng.randrange(1, k + 1) for _ in range(g.m))
        w = colorful_bcs_dp(g, sig, k)
        if w is not None:
            assert validate_witness(g, w, k).valid
            assert len({sig[i] for i in w.edge_indices}) == k
        tau = tuple(rng.randrange(1, k + 2) for _ in range(g.n))
        for w in (_one_tree(g, tau, k), _one_path(g, tau, k)):
            if w is not None:
                assert validate_witness(g, w, k).valid
                verts = set()
                for i in w.edge_indices:
                    u, v, _ = g.edges[i]
                    verts |= {u, v}
                assert len({tau[v - 1] for v in verts}) == k + 1


def test_dp_completeness_under_injectivity():
    # if the coloring is injective on a witness, the DP must find something
    for seed in range(20):
        g = random_redblue(6, 0.6, seed + 50)
        for k in (2, 4):
            sets = all_witness_sets(g, k, WitnessKind.SUBGRAPH)
            if not sets:
                continue
            target = sets[0]
            labels = [1] * g.m
            for lab, e in enumerate(target, start=1):
                labels[e] = lab
            w = colorful_bcs_dp(g, tuple(labels), k)
            assert w is not None


def test_table_size_bound():
    # nonzero keys <= m k^2 2^k
    for seed in (123, 321, 7):
        g = random_redblue(7, 0.6, seed)
        if g.m < 4:
            continue
        k = 4
        sig = tuple((i % k) + 1 for i in range(g.m))
        stats = {}
        colorful_bcs_dp(g, sig, k, stats=stats)
        assert stats["entries"] <= g.m * k * k * (1 << k)


def _assert_colorful(g, w, k, sigma=None, tau=None):
    assert validate_witness(g, w, k).valid
    if sigma is not None:
        assert len({sigma[i] for i in w.edge_indices}) == k
    else:
        verts = {x for i in w.edge_indices for x in g.edges[i][:2]}
        assert len({tau[x - 1] for x in verts}) == k + 1


def _check_against_reference(g, k, sigma, tau):
    """Bitset DPs against the dict DPs on one coloring; returns the three decisions."""
    stats, ref_stats = {}, {}
    w = colorful_bcs_dp(g, sigma, k, stats=stats)
    assert (w is None) == (ref.colorful_bcs_dp(g, sigma, k, stats=ref_stats) is None)
    assert stats == ref_stats
    found = [w is not None]
    if w is not None:
        _assert_colorful(g, w, k, sigma=sigma)
        assert colorful_bcs_dp(g, sigma, k) == w
    w = _one_tree(g, tau, k)
    assert (w is None) == (ref.colorful_bt_dp(g, tau, k) is None)
    found.append(w is not None)
    if w is not None:
        _assert_colorful(g, w, k, tau=tau)
        assert _one_tree(g, tau, k) == w
    w = _one_path(g, tau, k)
    assert w == ref.colorful_ebp_dp(g, tau, k)
    found.append(w is not None)
    if w is not None:
        _assert_colorful(g, w, k, tau=tau)
    return found


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(3, 9))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=16, unique=True))
    colors = draw(st.lists(st.sampled_from([R, B]), min_size=len(chosen), max_size=len(chosen)))
    g = RedBlueGraph(n, tuple((a, b, c) for (a, b), c in zip(chosen, colors)))
    k = draw(st.sampled_from([2, 4, 6]))
    sigma = draw(st.lists(st.integers(1, k), min_size=g.m, max_size=g.m))
    tau = draw(st.lists(st.integers(1, k + 1), min_size=n, max_size=n))
    return g, k, tuple(sigma), tuple(tau)


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
def test_bitset_dps_match_reference(case):
    _check_against_reference(*case)


def test_bitset_dps_match_reference_seeded():
    rng = random.Random(11)
    found = [0, 0, 0]
    for _ in range(150):
        g = random_redblue(rng.randrange(4, 10), rng.choice([0.4, 0.7]), rng.randrange(10**6))
        for k in (2, 4, 6):
            sigma = tuple(rng.randrange(1, k + 1) for _ in range(g.m))
            tau = tuple(rng.randrange(1, k + 2) for _ in range(g.n))
            for i, hit in enumerate(_check_against_reference(g, k, sigma, tau)):
                found[i] += hit
    assert min(found) >= 50  # every DP rebuilt many witnesses


def test_label_cap():
    g = path_graph([R, B])
    with pytest.raises(ValueError, match="too large"):
        colorful_bcs_dp(g, (1, 2), 22)
    with pytest.raises(ValueError, match="too large"):
        colorful_bt_dp(g, ((1, 2, 3),), 20)
    with pytest.raises(ValueError, match="too large"):
        colorful_ebp_dp(g, ((1, 2, 3),), 20)
    # 20 labels is the widest cell
    assert colorful_bcs_dp(g, (1, 2), 20) is None
    assert colorful_ebp_dp(g, ((1, 2, 3),), 18) is None


@pytest.mark.parametrize("labels,size", [(1, 5), (2, 9), (3, 12), (5, 20), (7, 12), (8, 10),
                                         (9, 30), (20, 4)])
def test_draw_labels_is_randrange_stream(labels, size):
    # the same labels as randrange draws, and the generator left in the same state
    from bcslab.colorcoding import _draw_labels

    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        assert _draw_labels(a, labels, size) == tuple(b.randrange(1, labels + 1)
                                                      for _ in range(size))
        assert a.getstate() == b.getstate()


def test_lane_batch_checks_every_row():
    g = path_graph([R, B, R])
    good = (1, 2, 3, 1)
    for bad in (0, 4, -1):
        for at in range(3):
            rows = [good, good, good]
            rows[at] = (1, bad, 2, 3)
            with pytest.raises(ValueError, match="vertex labels must lie in 1..k\\+1"):
                colorful_ebp_dp(g, tuple(rows), 2)
    with pytest.raises(ValueError, match="at least one"):
        colorful_ebp_dp(g, (), 2)
    with pytest.raises(ValueError, match="does not match"):
        colorful_ebp_dp(g, (good, (1, 2, 3)), 2)
    assert colorful_ebp_dp(g, ((1, 1, 2, 2), good, good), 2) == (
        1, ref.colorful_ebp_dp(g, good, 2))


@pytest.mark.parametrize("case", ["empty batch", "wrong length", "label 0",
                                  "label one past the top"])
@pytest.mark.parametrize("dp", [colorful_bcs_dp, colorful_bt_dp, colorful_ebp_dp])
def test_dps_reject_bad_colorings(dp, case):
    # one check for the three DPs: a subgraph call takes one row, so an empty
    # batch is an empty row there; a tree or path call takes a batch, checked
    # row by row behind a good one
    g, k = path_graph([R, B, R]), 2
    size, top = (g.m, k) if dp is colorful_bcs_dp else (g.n, k + 1)
    good = tuple(i % top + 1 for i in range(size))
    bad = {"empty batch": (), "wrong length": good[:-1], "label 0": (0,) + good[1:],
           "label one past the top": good[:-1] + (top + 1,)}[case]
    if dp is not colorful_bcs_dp:
        dp(g, (good,), k)
        arg, empty = (good, bad) if bad else (), "at least one coloring"
    else:
        dp(g, good, k)
        arg, empty = bad, "does not match"
    match = {"empty batch": empty, "wrong length": "does not match"}.get(
        case, "edge labels must lie in 1..k$" if top == k else "vertex labels must lie in 1..k\\+1")
    with pytest.raises(ValueError, match=match):
        dp(g, arg, k)


# on the path R B R B R: lane 2 hits at a lower anchor than lane 1
LANE_ORDER_ROWS = ((2, 2, 2, 2, 2, 2),  # misses; labels the lane-1 witness 2, 2, 2
                   (1, 1, 1, 1, 2, 3),  # colorful only on 4-5-6: anchors 4 and 6
                   (2, 3, 1, 1, 1, 1),  # colorful only on 1-2-3: anchors 1 and 3
                   (3, 3, 3, 3, 3, 3))  # misses


def test_lane_order_and_lane_labels():
    # the first hitting lane answers even where a later lane hits at a lower
    # anchor, and its witness is walked with its own labels
    g, rows = path_graph([R, B, R, B, R]), LANE_ORDER_ROWS
    want = ref.colorful_ebp_dp(g, rows[1], 2)
    assert want is not None and want.edge_indices == (3, 4)
    assert colorful_ebp_dp(g, rows, 2) == (1, want)
    assert colorful_ebp_dp(g, rows[2:], 2) == (0, ref.colorful_ebp_dp(g, rows[2], 2))
    assert colorful_ebp_dp(g, rows[::3], 2) is None


# two paths R B R B, 6-7-8-9-10 on edges 0-3 and 1-2-3-4-5 on edges 4-7, each
# listing its middle edge first, so that the tree walk from it splits
TWO_PATHS = parse_graph("graph 10 8\ne 7 8 B\ne 6 7 R\ne 8 9 R\ne 9 10 B\n"
                        "e 2 3 B\ne 1 2 R\ne 3 4 R\ne 4 5 B\n")


@pytest.mark.parametrize("g,k,rows,edges", [
    (path_graph([R, B, R, B, R]), 2, LANE_ORDER_ROWS, (3, 4)),
    (TWO_PATHS, 4,
     ((1,) * 10,                           # misses; labels the lane-1 witness 1, ..., 1
      (1, 2, 3, 4, 5, 1, 1, 1, 1, 1),      # colorful only on 1-..-5: edges 4-7
      (2, 2, 2, 2, 2, 3, 1, 4, 5, 2),      # colorful only on 6-..-10: edges 0-3
      (5,) * 10),                          # misses
     (4, 5, 6, 7)),
])
def test_tree_lane_order_and_lane_labels(g, k, rows, edges):
    # as test_lane_order_and_lane_labels, for trees: lane 2 hits at a lower
    # anchor than lane 1, and lane 0's labels cannot walk lane 1's witness;
    # at k = 4 the walk from the middle edge splits into two sides
    want = ref.colorful_bt_dp(g, rows[1], k)
    assert want is not None and want.edge_indices == edges
    assert colorful_bt_dp(g, rows, k) == (1, want)
    assert colorful_bt_dp(g, rows[2:], k) == (0, ref.colorful_bt_dp(g, rows[2], k))
    assert colorful_bt_dp(g, rows[::3], k) is None


def test_tree_lanes_match_reference_one_coloring_at_a_time():
    # random batches of 1 to 39 rows: the first row under which the reference
    # DP, one coloring at a time, finds a tree, and that row's one-row witness
    rng = random.Random(2101)
    hits = later = 0
    for _ in range(150):
        g = random_redblue(rng.randrange(4, 11), rng.choice([0.35, 0.6]), rng.randrange(10**6))
        k = rng.choice([2, 4, 4, 6])
        rows = tuple(tuple(rng.randrange(1, k + 2) for _ in range(g.n))
                     for _ in range(rng.randrange(1, 40)))
        want = _first_hit(g, k, rows, WitnessKind.TREE)
        assert colorful_bt_dp(g, rows, k) == want
        hits += want is not None
        later += want is not None and want[0] > 0
    assert hits >= 50 and later >= 20


# per kind that runs in lanes: its DP's name in colorcoding and the reference DP
_LANE_DPS = {WitnessKind.PATH: ("colorful_ebp_dp", ref.colorful_ebp_dp),
             WitnessKind.TREE: ("colorful_bt_dp", ref.colorful_bt_dp)}


def _lane_cap(kind, k):
    """The most colorings a driver sends in one batch of kind's DP."""
    if kind is WitnessKind.TREE and k > colorcoding._TREE_LANE_MAX_K:
        return 1
    return max(1, colorcoding._LANE_BYTES * 8 >> (k + 1))


def _record_calls(monkeypatch, kind):
    """Rebind kind's DP to record each call as (lanes, answer): every tree or
    path call is a batch, and its cells, 2^(k+1) bits per lane, must fit the
    byte cap."""
    name, _ = _LANE_DPS[kind]
    dp, calls = getattr(colorcoding, name), []

    def recorder(G, rows, k):
        hit = dp(G, rows, k)
        assert len(rows) <= _lane_cap(kind, k)
        assert len(rows) << (k + 1) >> 3 <= colorcoding._LANE_BYTES
        calls.append((len(rows), hit))
        return hit

    monkeypatch.setattr(colorcoding, name, recorder)
    return calls


def _first_hit(G, k, colorings, kind):
    """(index, witness) of the first coloring under which kind's reference DP
    finds a witness, or None. A path's witness is the reference's. A tree's
    is the one-row call's on that coloring, checked colorful, since the tree
    reference at times walks another colorful tree."""
    name, ref_dp = _LANE_DPS[kind]
    for i, labels in enumerate(colorings):
        w = ref_dp(G, labels, k)
        if w is not None:
            if kind is WitnessKind.TREE:
                w = _one_row(getattr(colorcoding, name), G, labels, k)
                _assert_colorful(G, w, k, tau=labels)
            return i, w
    return None


def _check_driver(calls, got, expect, count, cap):
    """A driver's recorded batches and answer against one coloring at a time:
    batches of 1, 2, 4, ... colorings up to the cap, and the last one's answer
    the first hitting coloring with its witness. True when that coloring was
    not the first."""
    schedule, lanes = [], 1
    while count > 0:
        schedule.append(min(lanes, count))
        count -= schedule[-1]
        lanes = min(2 * lanes, cap)
    sizes = [size for size, _ in calls]
    if expect is None:
        assert got is None and sizes == schedule
        assert all(hit is None for _, hit in calls)
        return False
    i, w = expect
    assert sizes == schedule[:len(sizes)] and all(hit is None for _, hit in calls[:-1])
    assert got == w and calls[-1][1] == (i - sum(sizes[:-1]), w)
    return i > 0


def _lanes_against_one_at_a_time(monkeypatch, kind, seed, ks, fallback_runs, lane_bytes=None):
    """Both drivers, kind's colorings in batches of lanes, against the
    reference DP over the same colorings, one at a time, in the same order,
    on 150 random graphs: (runs whose first hit was not the first coloring,
    runs that sent a full batch of more than one lane, family_driver runs
    past the hash family's scale). lane_bytes, when given, replaces the byte
    cap."""
    rng = random.Random(seed)
    later = capped = fallbacks = 0
    for _ in range(150):
        n = rng.randrange(3, 13)
        g = random_redblue(n, rng.choice([0.3, 0.45, 0.7]), rng.randrange(10**6))
        k = rng.choice(ks)
        if not colorcoding._feasible(g, k, kind):
            continue
        # 1 to a few hundred colorings
        delta = math.exp(-rng.randrange(1, 400) / math.exp(k))
        seed = rng.randrange(10**6)
        runs = [(delta, seed, lambda: random_coloring_driver(g, k, kind, delta, seed))]
        if k <= 4:
            runs.append((None, None, lambda: family_driver(g, k, kind)))
        elif k == 6 and fallbacks < fallback_runs:
            fallbacks += 1
            runs.append((colorcoding._FALLBACK_DELTA, colorcoding._FALLBACK_SEED,
                         lambda: family_driver(g, k, kind)))
        for delta, seed, driver in runs:
            if delta is None:
                colorings = colorcoding.greedy_hash_family(n, k + 1)
            else:
                draws = random.Random(seed)
                colorings = [colorcoding._draw_labels(draws, k + 1, n)
                             for _ in range(math.ceil(math.exp(k) * math.log(1 / delta)))]
            expect = _first_hit(g, k, colorings, kind)
            if lane_bytes is not None:
                monkeypatch.setattr(colorcoding, "_LANE_BYTES", lane_bytes)
            calls = _record_calls(monkeypatch, kind)
            got = driver()
            cap = _lane_cap(kind, k)
            monkeypatch.undo()
            later += _check_driver(calls, got, expect, len(colorings), cap)
            capped += cap > 1 and cap in [size for size, _ in calls]
    return later, capped, fallbacks


def test_path_lanes_match_one_coloring_at_a_time(monkeypatch):
    # both drivers, their path colorings in batches of lanes, against the
    # reference DP over the same colorings, one at a time, in the same order
    later, capped, fallbacks = _lanes_against_one_at_a_time(
        monkeypatch, WitnessKind.PATH, 1301, [2, 4, 6, 8], 8)
    assert later >= 20 and capped >= 5 and fallbacks == 8


def test_tree_lanes_match_one_coloring_at_a_time(monkeypatch):
    # the same for trees, under a byte cap of 64 (16 lanes at k = 4, 64 at
    # k = 2) that these runs reach; past _TREE_LANE_MAX_K (k = 6) every
    # batch holds one coloring
    later, capped, fallbacks = _lanes_against_one_at_a_time(
        monkeypatch, WitnessKind.TREE, 2102, [2, 4, 4, 6], 2, lane_bytes=64)
    assert later >= 20 and capped >= 5 and fallbacks == 2


def test_greedy_family_identity_case():
    fam = greedy_hash_family(3, 3)
    assert len(fam) == 1 and sorted(fam[0]) == [1, 2, 3]


def test_greedy_family_m4_k2():
    fam = greedy_hash_family(4, 2)
    assert len(fam) <= 3
    for sub in combinations(range(4), 2):
        assert any(len({f[x] for x in sub}) == 2 for f in fam)


def test_greedy_family_m6_k3_exhaustive():
    fam = greedy_hash_family(6, 3)
    for sub in combinations(range(6), 3):
        assert any(len({f[x] for x in sub}) == 3 for f in fam)


def test_greedy_family_scale_limit():
    with pytest.raises(ValueError):
        greedy_hash_family(21, 4)


def test_family_driver_matches_oracle():
    for seed in range(30):
        g = random_redblue(6, 0.5, seed + 2000)
        for k in (2, 4):
            for kind in WitnessKind:
                got = family_driver(g, k, kind)
                exp = oracle_solve(g, k, kind)
                assert (got is None) == (exp is None), (seed, k, kind)
                if got is not None:
                    assert validate_witness(g, got, k).valid


def test_feasible_counts_colors_per_component():
    from bcslab.colorcoding import _feasible

    # two red edges in one component and two blue in another: no component
    # carries both halves of a k = 4 witness
    split = parse_graph("graph 6 4\ne 1 2 R\ne 2 3 R\ne 4 5 B\ne 5 6 B\n")
    joined = parse_graph("graph 5 4\ne 1 2 R\ne 2 3 R\ne 3 4 B\ne 4 5 B\n")
    for kind in WitnessKind:
        assert not _feasible(split, 4, kind)
        assert _feasible(joined, 4, kind)


def _feasible_reference(g, k, kind):
    nx = pytest.importorskip("networkx")
    half = k // 2
    if g.m < k or len(g.red_edges()) < half or len(g.blue_edges()) < half:
        return False
    if kind in (WitnessKind.TREE, WitnessKind.PATH) and g.n < k + 1:
        return False
    H = nx.Graph()
    H.add_nodes_from(range(1, g.n + 1))
    H.add_edges_from(g.endpoints(i) for i in range(g.m))
    for comp in nx.connected_components(H):
        colors = [c for u, _, c in g.edges if u in comp]
        if colors.count(R) >= half and colors.count(B) >= half:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
def test_feasible_matches_networkx_components(case):
    from bcslab.colorcoding import _feasible

    g = case[0]
    for k in (2, 4, 6):
        for kind in WitnessKind:
            assert _feasible(g, k, kind) == _feasible_reference(g, k, kind)


def _sized_graph(n, m, seed):
    rng = random.Random(seed)
    pairs = rng.sample([(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)], m)
    return RedBlueGraph(n, tuple((a, b, rng.choice((R, B))) for a, b in pairs))


@pytest.mark.parametrize("kind,k,n,m", [
    (WitnessKind.SUBGRAPH, 4, 9, 21),
    (WitnessKind.TREE, 6, 7, 9),
    (WitnessKind.PATH, 6, 7, 9),
])
def test_family_driver_past_hash_family_scale(kind, k, n, m):
    # greedy_hash_family covers at most 20 elements and 6 labels; past that
    # the family driver runs the seeded Monte Carlo driver instead of raising
    answers = set()
    for seed in range(4):
        g = _sized_graph(n, m, seed)
        got = family_driver(g, k, kind)
        exp = oracle_solve(g, k, kind)
        assert (got is None) == (exp is None), seed
        if got is not None:
            assert validate_witness(g, got, k).valid
        answers.add(got is None)
    assert kind is WitnessKind.SUBGRAPH or answers == {True, False}


# random_coloring_driver(random_redblue(7, 0.5, graph_seed), 4, kind, 0.1, seed),
# as the dict-of-masks DPs returned it
DRIVER_GOLDEN = {
    ("subgraph", 11): [(0, 2, 3, 7), (0, 5, 6, 8), (0, 3, 4, 7)],
    ("subgraph", 12): [(0, 1, 2, 6), (0, 3, 4, 10), (0, 3, 5, 7)],
    ("subgraph", 13): [(0, 1, 2, 5), (0, 2, 6, 8), (0, 4, 6, 7)],
    ("tree", 11): [(0, 3, 4, 9), (3, 4, 5, 6), (0, 3, 5, 6)],
    ("tree", 12): [(0, 3, 5, 7), (5, 8, 9, 10), (0, 3, 9, 10)],
    ("tree", 13): [(0, 3, 4, 6), (3, 4, 5, 6), (0, 3, 4, 6)],
    ("path", 11): [(0, 4, 7, 9), (1, 2, 8, 9), (1, 3, 5, 6)],
    ("path", 12): [(0, 3, 5, 7), (5, 8, 9, 10), (0, 4, 7, 10)],
    ("path", 13): [(2, 4, 5, 8), (4, 6, 7, 9), (2, 5, 6, 8)],
}


@pytest.mark.parametrize("kind,graph_seed", list(DRIVER_GOLDEN))
def test_mc_driver_golden_witnesses(kind, graph_seed):
    g = random_redblue(7, 0.5, graph_seed)
    got = [random_coloring_driver(g, 4, WitnessKind(kind), 0.1, seed).edge_indices
           for seed in (1, 2, 3)]
    assert got == DRIVER_GOLDEN[(kind, graph_seed)]


def test_mc_driver_examples():
    # YES instances with k=4 and delta .01 found across seeds; NO never found
    g = parse_graph("graph 4 5\ne 1 2 R\ne 2 3 B\ne 3 4 R\ne 4 1 B\ne 1 3 R\n")
    assert oracle_solve(g, 4, WitnessKind.SUBGRAPH) is not None
    hits = sum(
        1
        for s in range(1, 21)
        if random_coloring_driver(g, 4, WitnessKind.SUBGRAPH, 0.01, seed=s) is not None
    )
    assert hits == 20
    allred = path_graph([R, R, R])
    for s in range(1, 6):
        assert random_coloring_driver(allred, 2, WitnessKind.PATH, 0.01, seed=s) is None


def test_mc_driver_deterministic_per_seed():
    g = random_redblue(6, 0.5, 77)
    a = random_coloring_driver(g, 2, WitnessKind.SUBGRAPH, 0.1, seed=5)
    b = random_coloring_driver(g, 2, WitnessKind.SUBGRAPH, 0.1, seed=5)
    assert a == b


def _garbage_after(fn):
    """Unreachable objects a call leaves for the cycle collector."""
    import gc

    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def test_colorful_dps_leave_no_cyclic_garbage():
    g = random_redblue(8, 0.6, 5)
    k = 4
    rng = random.Random(1)
    found = []

    def run(dp, coloring):
        def calls():
            for _ in range(20):
                found.append(dp(g, coloring(), k) is not None)
        return calls

    sigma = lambda: tuple(rng.randrange(1, k + 1) for _ in range(g.m))
    tau = lambda: tuple(rng.randrange(1, k + 2) for _ in range(g.n))
    assert _garbage_after(run(colorful_bcs_dp, sigma)) == 0
    taus = lambda: tuple(tau() for _ in range(8))
    for dp in (colorful_bt_dp, colorful_ebp_dp):
        assert _garbage_after(run(dp, lambda: (tau(),))) == 0
        assert _garbage_after(run(dp, taus)) == 0
    assert any(found)  # the witness reconstructions ran


@pytest.mark.parametrize("kind", list(WitnessKind))
def test_randomized_solve_leaves_no_cyclic_garbage(kind):
    from bcslab.algebra.mldetect import randomized_solve

    g = random_redblue(8, 0.6, 5)
    answers = []
    garbage = _garbage_after(lambda: answers.append(
        randomized_solve(g, 4, kind, trials=4, seed=1, want_witness=True, ell=16)))
    assert garbage == 0 and answers[0].witness is not None


def _dp_witness_digest():
    """sha256 over the three DPs' witnesses and colorful_bcs_dp's entries on a
    seeded corpus, with the number of hits per DP."""
    rng = random.Random(1201)
    h = hashlib.sha256()
    hits = [0, 0, 0]
    for _ in range(60):
        g = random_redblue(rng.randrange(6, 12), rng.choice([0.35, 0.6]), rng.randrange(10**6))
        for k in (2, 4, 6):
            for _ in range(4):
                sigma = tuple(rng.randrange(1, k + 1) for _ in range(g.m))
                tau = tuple(rng.randrange(1, k + 2) for _ in range(g.n))
                stats = {}
                ws = (colorful_bcs_dp(g, sigma, k, stats=stats), _one_tree(g, tau, k),
                      _one_path(g, tau, k))
                for i, w in enumerate(ws):
                    hits[i] += w is not None
                h.update(repr(([None if w is None else w.edge_indices for w in ws],
                               stats["entries"])).encode())
    return h.hexdigest(), hits


# the three DPs' witnesses and the subgraph entries on this corpus; a change here
# changes which witness a coloring yields
DP_WITNESS_GOLDEN = ("50540bbe6d61edef1d967f0cf59ecd5cf7468a41bf38f8d466ffe02fcb38ab33",
                     [529, 279, 276])


def test_dp_witnesses_golden():
    assert _dp_witness_digest() == DP_WITNESS_GOLDEN
