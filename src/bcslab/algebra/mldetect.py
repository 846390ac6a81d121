"""Randomized multilinear-monomial detection and the solvers built on it.

Substitution: every structural variable x_i (or y_v) receives a rank-one
nilpotent element A_i = sum_j c_ij u_j with c_ij uniform in GF(2^l); every
tag receives a nonzero scalar from the GF(2^16) subfield. Squares vanish
(A_i^2 = 0 in characteristic 2), so only multilinear monomials can survive;
a surviving set of d <= k_dim variables contributes a determinant of a random
d x k_dim matrix over GF(2^l), nonzero except with probability ~ d/2^l. One
trial is one joint draw; the answer is one-sided: a zero polynomial
evaluates to zero on every draw.

Evaluation is vectorized across trials. The sieve takes circuits that are
homogeneous of degree k_dim, as every builder circuit is, and the constant
zero; `run_trials` rejects any other. Each gate holds one subset-zeta vector
and a product is a single pointwise field multiplication: lower-rank junk
introduced by overlapping unions can never reach the full mask, whose Moebius
coefficient (the XOR of the whole vector) is therefore the exact top-rank
ring coefficient. An exact ranked evaluator per gate is kept with the tests,
as the reference this one is compared against.

The sieve runs the level schedule built with the circuit
(`Circuit.schedule`) in one buffer of value slots, each (P, B, W) limb
planes. A group of a level, its multiplies or its sums, is one stacked
`VecGF.mul` or one XOR-reduce over gathered operands. A multiply's tag joins
its product's log constant; a sum's tagged terms are multiplied by their
tags in one `mul_scalar16` before the XOR. No call gathers more than a fixed
byte budget per operand. A multiply group that exceeds it is split into
several calls, and where one gate's vectors alone fill it (B = 31 at K = 9)
the gates run one at a time on slot views; there the Karatsuba leaf logs of
every variable are taken once per column range, and a multiply with a
variable as a factor reads them in its place. A sum group that exceeds it is
XORed in place, term by term, each tagged term times its tag; but tagged sums
whose calls would take more than four terms are split into calls of whole
sums. Small circuits are then a few calls per level instead of one per gate,
and wide vectors cost what one call per gate costs. Nothing is analysed per
call, so a `run_trials` call makes no pass over the gates.

Every zeta entry is the circuit evaluated at one subset S, so the 2^K
columns are independent (the polynomial-space argument of inclusion and
exclusion). The buffer is W = 2^w columns wide, the widest power of two at
which the slots and the leaf logs fit a byte budget, and the schedule runs
once per range of W columns. A range starts from the XOR of the
coefficients of its high bits, and the output is the XOR of the ranges'
partial reductions, the same bits as one run over all 2^K columns.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Optional

import numpy as np

from ..graphs import RedBlueGraph, Witness, WitnessKind, require_even_k, validate_witness
from .circuits import MUL, SUM, Circuit, build_circuit_ebcs, build_circuit_ebp, build_circuit_ebt
from .field import VecGF

_TAG_ELL = 16  # tags live in the GF(2^16) subfield; cheap limb-wise products


@dataclass(frozen=True)
class Substitution:
    """One batch of independent trials.

    vectors[t, i, j]: coefficient of u_j in the value of structural variable i
    (trial t); tags[t, s]: nonzero scalar for tag s.
    """

    k_dim: int
    ell: int
    vectors: np.ndarray  # (B, nvars, k_dim) uint64
    tags: np.ndarray  # (B, ntags) uint64, values in [1, 2^16)


def draw_substitution(
    nvars: int, ntags: int, k_dim: int, ell: int, seed: int, batch: int,
    batch_index: int = 0,
) -> Substitution:
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), batch_index]))
    vectors = gen.integers(0, 2**ell, size=(batch, nvars, k_dim), dtype=np.uint64)
    tags = gen.integers(1, 2**_TAG_ELL, size=(batch, max(1, ntags)), dtype=np.uint64)
    return Substitution(k_dim, ell, vectors, tags)


# Bytes of limb planes one stacked call may gather per operand; the module
# docstring says how larger groups run. At l = 64 a field multiply's
# temporaries take about 25 times its operand bytes, so one call's working set
# stays under 1 MB, within a 2 MB L2 cache.
_BUDGET = 1 << 15
# Bytes of value slots and leaf logs one run of the schedule may hold. A
# circuit that needs more at full width runs over column ranges of the subset
# axis, one after another, each the widest power of two that fits.
_CHUNK_BUDGET = 1 << 23


@lru_cache(maxsize=None)
def _field(ell: int) -> VecGF:
    return VecGF(ell)


def _chunk_bits(c: Circuit, ell: int, batch: int, k_dim: int) -> int:
    """log2 of the width of the column ranges `_eval_fast` runs c over."""
    sch = c.schedule
    # per column: every slot's uint16 limb planes, and every leaf's int32 leaf
    # logs, counted whether or not they are taken
    col = batch * (ell // 8 * sch.n_slots + 4 * _field(ell).n_leaves * len(sch.leaves))
    return min(k_dim, max(0, (_CHUNK_BUDGET // col).bit_length() - 1))


def _eval_fast(c: Circuit, sub: Substitution) -> np.ndarray:
    """(B,) output top-rank coefficients of a circuit homogeneous of degree K,
    or zeros for the constant zero, by running c.schedule on subset-zeta
    vectors of shape (B, 2^K), over column ranges of the subset axis that fit
    _CHUNK_BUDGET."""
    K = sub.k_dim
    B = sub.vectors.shape[0]
    if not sub.tags.all():
        # a multiply that carries a tag adds the tag's log, which zero lacks
        raise ValueError("tags must be nonzero")
    if K == 0:
        # degree 0: no monomial of positive degree
        return np.zeros(B, dtype=np.uint64)
    sch = c.schedule
    vf = _field(sub.ell)
    w = _chunk_bits(c, sub.ell, B, K)
    # slot s holds limb planes buf[s] of shape (P, B, 2^w)
    buf = np.empty((sch.n_slots, sub.ell // 16, B, 1 << w), dtype=np.uint16)
    z = buf[: len(sch.leaves)]
    cv = vf.to_planes(sub.vectors[:, sch.leaves, :].transpose(1, 0, 2)).transpose(1, 0, 2, 3)
    # tags and constants are constant vectors: (P, ntags + 1, B, 1) broadcasts;
    # the last tag is one, for the untagged products and terms of a step with tags
    tags = np.ones((sub.tags.shape[1] + 1, B, 1), dtype=np.uint64)
    tags[:-1, :, 0] = sub.tags.T
    tags = vf.to_planes(tags)
    # sums XOR the same bytes in words of up to 64 bits
    xv = buf.view(np.uint64 if w >= 2 else np.uint32 if w == 1 else np.uint16)
    chunk = _BUDGET // buf[0].nbytes
    mul, mul16, xor = vf.mul, vf.mul_scalar16, np.bitwise_xor
    # Leaf logs pay where work per element dominates: gate by gate. Stacked
    # calls are bound by their count, and gathering logs, 4.5 times the bytes
    # of planes, would only raise their peak memory.
    logs, acc = None, 0
    if chunk <= 1 and any(s[0] == MUL and s[5] for s in sch.steps):
        # leaf i's logs are logs[i], of shape (3^L, B, 2^w)
        logs = np.empty((len(sch.leaves), vf.n_leaves) + z.shape[2:], dtype=np.int32)
    for r in range(1 << (K - w)):
        # the variables' subset-zeta vectors on columns r * 2^w + lo: entry S is
        # the XOR of coefficients j in S, those of the high bits j >= w first
        high = [w + j for j in range(K - w) if r >> j & 1]
        z[..., 0] = xor.reduce(cv[..., high], axis=-1) if high else 0
        for j in range(w):
            blk = 1 << j
            xor(z[..., :blk], cv[..., j : j + 1], out=z[..., blk : 2 * blk])
        # each leaf's logs once, which the multiplies with that leaf as their
        # factor a read by its leaf number in place of its slot
        if logs is not None:
            for leaf, out in zip(z, logs):  # one leaf a call keeps the temporaries small
                vf.leaf_logs(leaf, out)
        for slot, bit in sch.consts:
            buf[slot] = 0
            buf[slot, 0] = bit
        for kind, out, a, b, tg, *rest in sch.steps:
            if kind == SUM:
                s, n, b = 0, len(out), b.tolist()
                # past the budget a call a term costs less than a call for every
                # few sums, for untagged terms or calls of four terms or fewer
                # (in-process timing of the sieve's tree and subgraph circuits)
                calls = b[n] - b[0] <= chunk or tg is not None and chunk > 4
                while s < n:
                    # the sums from s on whose terms fit one call, or none
                    e = bisect_right(b, b[s] + chunk) - 1 if calls else s
                    lo, hi = b[s], b[e]
                    if e > s:
                        # limb by limb: the terms' tags broadcast over their planes
                        ys = xv[a[lo:hi]] if tg is None else mul16(
                            buf[a[lo:hi]], tags[:, tg[lo:hi], None]).view(xv.dtype)
                        xv[out[s:e]] = xor.reduceat(ys, np.subtract(b[s:e], lo))
                    else:
                        # XOR each term, times its tag, into the sum's slot in place
                        e, lo, hi = s + 1, b[s], b[s + 1]
                        xs = a[lo:hi].tolist()
                        ys = map(xv.__getitem__, xs) if tg is None else (
                            xv[x] if t < 0 else mul16(buf[x], tags[:, t]).view(xv.dtype)
                            for x, t in zip(xs, tg[lo:hi].tolist()))
                        v, y = xv[out[s]], next(ys)
                        if hi - lo == 1:
                            v[...] = y
                        else:
                            xor(y, next(ys), out=v)
                            for y in ys:
                                xor(v, y, out=v)
                    s = e
                continue
            n_leaf, = rest
            if chunk <= 1:
                # the first n_leaf multiplies read their leaf factor's logs
                ts = repeat(None) if tg is None else tg.tolist()
                for g, (o, x, y, t) in enumerate(zip(out.tolist(), a.tolist(), b.tolist(), ts)):
                    x, y = logs[x] if g < n_leaf else buf[x], buf[y]
                    buf[o] = mul(x, y) if t is None else mul(x, y, tags[:, t])
                continue
            for s in range(0, len(out), chunk):
                part = slice(s, s + chunk)
                x, y = buf[a[part]].swapaxes(0, 1), buf[b[part]].swapaxes(0, 1)
                p = mul(x, y) if tg is None else mul(x, y, tags[:, tg[part]])
                buf[out[part]] = p.swapaxes(0, 1)
        acc ^= xor.reduce(buf[sch.output], axis=-1)
    return vf.from_planes(acc)


def run_trials(c: Circuit, k_dim: int, ell: int, trials: int, seed: int,
               batch_index: int = 0) -> np.ndarray:
    """Per-trial positive flags; one-sided (never positive on zero polynomials).

    c must be homogeneous of degree k_dim, as every builder circuit is, or the
    constant zero, which gives no positive flag.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if c.degree_bound > k_dim:
        raise ValueError("circuit degree bound exceeds k_dim")
    if c.homogeneous_degree != k_dim and c.gates[c.output][0] != "c0":
        raise ValueError("circuit is neither homogeneous of degree k_dim nor zero")
    sub = draw_substitution(max(1, len(c.var_index)), c.n_tags, k_dim, ell, seed, trials,
                            batch_index)
    return _eval_fast(c, sub) != 0


def detect_multilinear(c: Circuit, k_dim: int, ell: int, trials: int, seed: int) -> bool:
    """True iff any trial evaluates the substituted circuit to nonzero."""
    if trials < 1:
        raise ValueError("need at least one trial")
    # first trial alone: on yes-instances it almost always decides
    if bool(run_trials(c, k_dim, ell, 1, seed, batch_index=0).any()):
        return True
    if trials == 1:
        return False
    return bool(run_trials(c, k_dim, ell, trials - 1, seed, batch_index=1).any())


_BUILDERS = {
    WitnessKind.SUBGRAPH: (build_circuit_ebcs, 0),
    WitnessKind.TREE: (build_circuit_ebt, 1),
    WitnessKind.PATH: (build_circuit_ebp, 1),
}


@dataclass(frozen=True)
class RandomizedAnswer:
    yes: bool
    witness: Optional[Witness]


class WitnessExtractionError(RuntimeError):
    """The sieve answered yes, but no deletion pass left a valid witness."""


# Deletion passes of witness extraction, each on fresh seeds, before it gives up
_WITNESS_PASSES = 3
# The largest k randomized_solve admits for a path. One l = 64 path trial on a
# 30-vertex, 43-edge graph (random_graph(30, 0.1, 42)) took 0.64 s of CPU at
# k = 12, 3.4 s at k = 14 and 18.6 s at k = 16 on a 2-vCPU x86-64 VM: about 5x
# per step of 2, as the 2^(k+1) columns and the gates grow. At k = 18 one trial
# would take some 90 s, and a default 32-trial "no" most of an hour.
MAX_K = 16
# The largest k for a tree or a subgraph, whose split joins make far larger
# circuits: on the same graph one trial took 2.7 s for a tree at k = 10, and at
# k = 12 20 s for a tree (41,608 gates against the path's 2,125) and 12.6 s
# for a subgraph, about what a path trial costs at k = 16.
MAX_K_TREE_SUBGRAPH = 12


def randomized_solve(
    G: RedBlueGraph,
    k: int,
    kind: WitnessKind,
    trials: Optional[int] = None,
    seed: int = 0,
    want_witness: bool = False,
    ell: int = 64,
) -> RandomizedAnswer:
    """One-sided randomized decision (and optional witness by self-reduction).

    The arguments are checked, and a graph of fewer than k edges is answered
    no, before any circuit is built; otherwise a k past MAX_K = 16 (a path)
    or MAX_K_TREE_SUBGRAPH = 12 (a tree or a subgraph) raises ValueError.
    The witness is found by deleting each edge whose removal keeps the answer
    yes. A one-sided miss keeps an edge the witness does not need, so a pass
    whose edges do not validate is run again on fresh seeds, and after
    _WITNESS_PASSES such passes WitnessExtractionError is raised.
    """
    require_even_k(k)
    if trials is None:
        trials = max(16, k)
    if trials < 1:
        raise ValueError("need at least one trial")
    if ell not in (16, 32, 64):
        raise ValueError("l must be one of 16, 32, 64")
    if G.m < k:
        return RandomizedAnswer(False, None)
    cap = MAX_K if kind is WitnessKind.PATH else MAX_K_TREE_SUBGRAPH
    if k > cap:
        raise ValueError(f"k = {k} is past the sieve's cap of k = {cap} for a {kind.value}")
    build, extra = _BUILDERS[kind]
    k_dim = k + extra

    def decide(graph, s):
        # extraction decides only edge sets of at least k edges
        c = build(graph, k)
        if c.gates[c.output][0] == "c0":
            return False
        return detect_multilinear(c, k_dim, ell, trials, s)

    if not decide(G, seed):
        return RandomizedAnswer(False, None)
    if not want_witness:
        return RandomizedAnswer(True, None)

    step = 0  # every decision of every pass draws from its own seed
    for _ in range(_WITNESS_PASSES):
        kept = list(range(G.m))
        for e in range(G.m):
            cand = [i for i in kept if i != e]
            step += 1
            sub = G.subgraph_of_edges(cand)
            if len(cand) >= k and decide(sub, seed * 1_000_003 + step):
                kept = cand
        w = Witness(kind, tuple(kept))
        if validate_witness(G, w, k).valid:
            return RandomizedAnswer(True, w)
    raise WitnessExtractionError(
        f"the sieve answered yes, but {_WITNESS_PASSES} deletion passes left no valid "
        "witness; rerun with more trials or another seed")
