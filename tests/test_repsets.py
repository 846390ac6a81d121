import hashlib
import random
from itertools import combinations
from math import comb

import pytest

from bcslab.graphs import EdgeColor, RedBlueGraph, WitnessKind, validate_witness
from bcslab.oracle import oracle_solve
from bcslab.repsets import (
    SetFamily,
    _colex_row_subsets,
    _smallest_prime_above,
    convolve_extend,
    minor_vector,
    reduce_family,
    solve_ebp_repsets,
)

from conftest import B, R, path_graph, random_redblue
from repsets_reference import reduce_sets


def _mask(*verts):
    m = 0
    for v in verts:
        m |= 1 << v
    return m


def _represents(reduced_masks, original_masks, universe, q):
    """Brute-force q-representation check over all Y with |Y| <= q."""
    for ysize in range(q + 1):
        for Y in combinations(universe, ysize):
            ym = _mask(*Y)
            if any(m & ym == 0 for m in original_masks):
                if not any(m & ym == 0 for m in reduced_masks):
                    return False
    return True


def test_reduce_singletons():
    S = SetFamily(4, 1, ((_mask(1), (1,)), (_mask(2), (2,)), (_mask(3), (3,))))
    Sh = reduce_family(S, 2)
    assert len(Sh.sets) <= 2
    assert _represents([m for m, _ in Sh.sets], [m for m, _ in S.sets], range(1, 5), 1)


def test_reduce_single_set_identity():
    S = SetFamily(4, 2, ((_mask(1, 2), (1, 2)),))
    assert reduce_family(S, 2).sets == S.sets


def test_distinct_sets_below_k_cap_have_independent_minor_vectors():
    # the lemma behind reduce_family's two-set short-cut: over ground 7, so
    # GF(11), two distinct p-sets with p < k_cap span different subspaces,
    # so the full elimination keeps both
    assert _smallest_prime_above(7) == 11
    pairs = 0
    for k_cap in range(2, 6):
        for p in range(1, k_cap):
            sets = [(_mask(*s), s) for s in combinations(range(1, 8), p)]
            for pair in combinations(sets, 2):
                assert reduce_sets(pair, p, 7, k_cap) == pair, (k_cap, p)
                pairs += 1
    assert pairs == 2499


def test_reduce_one_or_two_sets_builds_no_wedge():
    one = SetFamily(7, 3, ((_mask(1, 2, 3), (1, 2, 3)),))
    two = SetFamily(7, 3, ((_mask(1, 2, 3), (1, 2, 3)), (_mask(2, 3, 4), (4, 3, 2))))
    for S, k_cap in ((one, 3), (one, 5), (two, 4)):
        wedges = {}
        assert reduce_family(S, k_cap, wedges=wedges) is S
        assert wedges == {}


def test_reduce_two_sets_at_p_equal_k_cap_keeps_first():
    S = SetFamily(7, 3, ((_mask(1, 2, 3), (1, 2, 3)), (_mask(2, 3, 4), (2, 3, 4))))
    assert reduce_family(S, 3).sets == S.sets[:1]


def test_reduce_two_sets_with_equal_masks_keeps_one():
    S = SetFamily(7, 2, ((_mask(1, 2), (1, 2)), (_mask(1, 2), (2, 1))))
    for k_cap in (2, 3, 5):
        assert reduce_family(S, k_cap).sets == S.sets[:1]


def test_reduce_q_zero_keeps_one():
    allp = tuple((_mask(a, b), (a, b)) for a, b in combinations(range(1, 5), 2))
    S = SetFamily(4, 2, allp)
    Sh = reduce_family(S, 2)
    assert len(Sh.sets) == 1


def test_reduce_size_bound_and_representation():
    # random families over n = 7, several (p, k_cap)
    import random

    rng = random.Random(9)
    for trial in range(12):
        p = rng.choice([1, 2, 3])
        k_cap = p + rng.choice([0, 1, 2])
        universe = range(1, 8)
        pool = list(combinations(universe, p))
        rng.shuffle(pool)
        sets = tuple((_mask(*s), tuple(s)) for s in pool[: rng.randrange(1, len(pool) + 1)])
        S = SetFamily(7, p, sets)
        Sh = reduce_family(S, k_cap)
        assert len(Sh.sets) <= comb(k_cap, p)
        assert set(Sh.sets) <= set(S.sets)
        assert _represents(
            [m for m, _ in Sh.sets], [m for m, _ in S.sets], universe, k_cap - p
        )


def test_reduce_union_law():
    # reducing a union of reduced families still represents the union
    import random

    rng = random.Random(4)
    universe = range(1, 8)
    pool = list(combinations(universe, 2))
    half = len(pool) // 2
    S1 = SetFamily(7, 2, tuple((_mask(*s), tuple(s)) for s in pool[:half]))
    S2 = SetFamily(7, 2, tuple((_mask(*s), tuple(s)) for s in pool[half:]))
    R1 = reduce_family(S1, 4)
    R2 = reduce_family(S2, 4)
    union = SetFamily(7, 2, R1.sets + R2.sets)
    RU = reduce_family(union, 4)
    all_masks = [m for m, _ in S1.sets] + [m for m, _ in S2.sets]
    assert _represents([m for m, _ in RU.sets], all_masks, universe, 2)


def test_minor_vector_independence():
    # any k_cap moment columns are independent: single-column vectors differ
    q = 11
    vecs = [tuple(minor_vector(_mask(v), 3, q)) for v in range(1, 8)]
    assert len(set(vecs)) == len(vecs)


def _det_mod(rows, q):
    """Determinant over GF(q) by elimination, pivoting on the lowest row index."""
    a = [row[:] for row in rows]
    n = len(a)
    det = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] % q:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = (-det) % q
        inv = pow(a[col][col], -1, q)
        det = det * a[col][col] % q
        for r in range(col + 1, n):
            f = a[r][col] * inv % q
            if f:
                for c in range(col, n):
                    a[r][c] = (a[r][c] - f * a[col][c]) % q
    return det % q


def _minor_vector_by_determinants(mask, k_cap, q):
    cols = [v for v in range(1, mask.bit_length() + 1) if mask >> v & 1]
    colvecs = [[pow(a, r, q) for r in range(k_cap)] for a in cols]
    return [_det_mod([[colvecs[c][r] for c in range(len(cols))] for r in rows], q)
            for rows in _colex_row_subsets(k_cap, len(cols))]


@pytest.mark.parametrize("k_cap", [3, 5, 7, 9])
def test_minor_vector_matches_determinants(k_cap):
    rng = random.Random(k_cap)
    for _ in range(150):
        n = rng.randrange(1, 30)
        q = _smallest_prime_above(n)
        verts = rng.sample(range(1, n + 1), min(n, rng.randrange(k_cap + 2)))
        mask = sum(1 << v for v in verts) | rng.randrange(2)  # bit 0 is no vertex
        assert minor_vector(mask, k_cap, q) == _minor_vector_by_determinants(mask, k_cap, q)


def _repsets_corpus():
    rng = random.Random(2024)
    for _ in range(40):
        yield random_redblue(rng.randrange(6, 12), rng.choice([0.3, 0.45, 0.6]),
                             rng.randrange(10**6))


def test_solver_golden():
    # witnesses and every reduced family on a seeded corpus, as the
    # determinant-per-minor reduction produced them
    h = hashlib.sha256()
    yes = 0
    for g in _repsets_corpus():
        for k in (2, 4, 6):
            rec = []
            w = solve_ebp_repsets(g, k, record=rec)
            yes += w is not None
            h.update(repr((w and w.edge_indices,
                           [(u, v, r, b, red.sets) for u, v, r, b, _, red in rec])).encode())
    assert yes == 106
    assert h.hexdigest() == "83f26f4dc0799bca0893c8e00557e4c51f22c0debf2bb077f585b98c1dbfd294"


def test_reduce_errors():
    S = SetFamily(4, 2, ((_mask(1, 2), (1, 2)),))
    with pytest.raises(ValueError):
        reduce_family(S, 1)  # p > k_cap


@pytest.mark.parametrize("p, mask, wit", [
    (1, _mask(9), (9,)),  # above the ground size: over GF(5), 9 is 4
    (2, _mask(0, 2), (0, 2)),  # bit 0 is no vertex
    (2, _mask(1, 2), (1, 2, 1)),  # a witness longer than p
    (1, _mask(1, 2), (1, 2)),  # a set larger than p
    (1, _mask(1), (2,)),  # a witness off the set
], ids=["above_ground", "bit_zero", "long_witness", "large_set", "witness_off_set"])
def test_set_family_rejects_bad_members(p, mask, wit):
    with pytest.raises(ValueError):
        SetFamily(4, p, ((mask, wit),))


def _planted_path(rng, n, k, noise):
    """An alternating k-edge path on random vertices of 1..n plus `noise` random edges."""
    verts = rng.sample(range(1, n + 1), k + 1)
    edges = {frozenset(e): (*e, R if i % 2 else B) for i, e in enumerate(zip(verts, verts[1:]))}
    while len(edges) < k + noise:
        a, b = rng.sample(range(1, n + 1), 2)
        edges.setdefault(frozenset((a, b)), (a, b, rng.choice((R, B))))
    return RedBlueGraph(n, tuple(edges.values()))


def test_reductions_match_reference_elimination():
    # every recorded candidate family, re-reduced by the full greedy
    # elimination, keeps the same sets in the same order: the one- and
    # two-set short-cuts change no reduction
    rng = random.Random(2020)
    sizes = set()
    yes = 0
    for trial in range(24):
        n = rng.randrange(8, 13)
        for k in (4, 6):
            if trial % 2:
                g = _planted_path(rng, n, k, rng.randrange(4, 10))
            else:
                g = random_redblue(n, rng.choice([0.3, 0.45]), rng.randrange(10**6))
            rec = []
            yes += solve_ebp_repsets(g, k, record=rec) is not None
            for _, _, _, _, cand, red in rec:
                sizes.add(min(len(cand.sets), 3))
                assert red.sets == reduce_sets(cand.sets, cand.p, cand.ground_size, k + 1)
    assert sizes == {1, 2, 3} and yes == 47


def test_convolve_extend_rejects_vertices_off_the_ground():
    S = SetFamily(5, 1, ((_mask(1), (1,)),))
    for v in (0, 6):
        with pytest.raises(ValueError):
            convolve_extend(S, v)


def test_convolve_extend():
    S = SetFamily(5, 2, ((_mask(1, 2), (1, 2)),))
    out = convolve_extend(S, 3)
    assert out.p == 3 and out.sets == ((_mask(1, 2, 3), (1, 2, 3)),)
    assert convolve_extend(S, 2).sets == ()
    S2 = SetFamily(5, 1, ((_mask(1), (1,)), (_mask(2), (2,))))
    assert len(convolve_extend(S2, 3).sets) == 2


def test_solver_base_example():
    g = path_graph([R, B])
    w = solve_ebp_repsets(g, 2)
    assert w is not None and sorted(w.edge_indices) == [0, 1]


def test_solver_all_red_absent():
    assert solve_ebp_repsets(path_graph([R, R]), 2) is None


def test_solver_agrees_with_oracle():
    for seed in range(40):
        g = random_redblue(7, 0.5, seed + 4000)
        for k in (2, 4):
            got = solve_ebp_repsets(g, k)
            exp = oracle_solve(g, k, WitnessKind.PATH)
            assert (got is None) == (exp is None), (seed, k)
            if got is not None:
                assert validate_witness(g, got, k).valid


def test_recorded_reductions_represent_true_families():
    # the reduced family must represent the brute-force path family, not just
    # its own input candidates
    g = random_redblue(7, 0.6, 99)
    k = 4
    rec = []
    solve_ebp_repsets(g, k, record=rec)
    kcap = k + 1

    def brute_paths(u, v, r, b):
        out = set()
        adj = g.adjacency

        def dfs(x, seen, cr, cb):
            if cr > r or cb > b:
                return
            if x == v and (cr, cb) == (r, b):
                out.add(frozenset(seen))
                return
            for y, e in adj[x]:
                if y in seen:
                    continue
                nc = g.color(e)
                dfs(y, seen | {y}, cr + (nc is EdgeColor.RED), cb + (nc is EdgeColor.BLUE))

        dfs(u, {u}, 0, 0)
        return [
            sum(1 << x for x in s) for s in out if len(s) == r + b + 1
        ]

    checked = 0
    for (u, v, r, b, cand, red) in rec[:20]:
        true_masks = brute_paths(u, v, r, b)
        if not true_masks:
            continue
        q = kcap - (r + b + 1)
        assert _represents([m for m, _ in red.sets], true_masks, range(1, g.n + 1), q)
        assert len(red.sets) <= comb(kcap, r + b + 1)
        checked += 1
    assert checked > 0


def test_smallest_prime_above():
    assert [_smallest_prime_above(n) for n in (0, 1, 2, 4, 7, 10, 13, 24)] == \
        [2, 2, 3, 5, 11, 11, 17, 29]
