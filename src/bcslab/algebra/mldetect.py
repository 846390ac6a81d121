"""Randomized multilinear-monomial detection and the solvers built on it.

Substitution: every structural variable x_i (or y_v) receives a rank-one
nilpotent element A_i = sum_j c_ij u_j with c_ij uniform in GF(2^l); every
tag variable receives a nonzero scalar from the GF(2^16) subfield. Squares
vanish (A_i^2 = 0 in characteristic 2), so only multilinear monomials can
survive; a surviving set of d <= k_dim variables contributes a determinant
of a random d x k_dim matrix over GF(2^l), nonzero except with probability
~ d/2^l. One trial is one joint draw; the answer is one-sided: a zero
polynomial evaluates to zero on every draw.

Evaluation is vectorized across trials. The sieve takes circuits that are
homogeneous of degree k_dim, as every builder circuit is, and the constant
zero; `run_trials` rejects any other. Each gate holds one subset-zeta vector
and a product is a single pointwise field multiplication: lower-rank junk
introduced by overlapping unions can never reach the full mask, whose Moebius
coefficient (the XOR of the whole vector) is therefore the exact top-rank
ring coefficient. An exact ranked evaluator per gate is kept with the tests,
as the reference this one is compared against.

The sieve runs the level schedule built with the circuit
(`Circuit.schedule`) in one buffer of value slots, each (P, B, 2^K) limb
planes. A group of a level, its general multiplies, its multiplies by a
GF(2^16) tag or its sums, is one stacked `VecGF.mul`, one `mul_scalar16` or
one XOR-reduce over gathered operands. No call gathers more than a fixed
byte budget per operand. A multiply group that exceeds it is split into
several calls, and where one gate's vectors alone fill it (B = 31 at K = 9)
the gates run one at a time on slot views. A sum group that
exceeds it is XORed in place, term by term. Small circuits are then a few
calls per level instead of one per gate, and wide vectors cost what one
call per gate costs. Nothing is analysed per call, so a `run_trials` call
makes no pass over the gates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    (trial t); tags[t, s]: nonzero scalar for tag variable s.
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


# Bytes of limb planes one stacked call may gather per operand. A larger
# multiply group is split into calls of this size, and where one gate's
# vectors alone fill it the multiplies run one at a time on slot views; a
# sum group that exceeds it is XORed in place, term by term. At l = 64 a field multiply's temporaries take about 25 times its operand
# bytes, so one call's working set stays under 1 MB, within a 2 MB L2 cache.
_BUDGET = 1 << 15


@lru_cache(maxsize=None)
def _field(ell: int) -> VecGF:
    return VecGF(ell)


def _eval_fast(c: Circuit, sub: Substitution) -> np.ndarray:
    """(B,) output top-rank coefficients of a circuit homogeneous of degree K,
    or zeros for the constant zero, by running c.schedule on subset-zeta
    vectors of shape (B, 2^K)."""
    K = sub.k_dim
    B = sub.vectors.shape[0]
    if K == 0:
        # degree 0: no monomial of positive degree
        return np.zeros(B, dtype=np.uint64)
    sch = c.schedule
    vf = _field(sub.ell)
    # slot s holds limb planes buf[s] of shape (P, B, 2^K)
    buf = np.empty((sch.n_slots, sub.ell // 16, B, 1 << K), dtype=np.uint16)
    # the variables' subset-zeta vectors: entry S is the XOR of coefficients j in S
    z = buf[: len(sch.leaves)]
    cv = vf.to_planes(sub.vectors[:, sch.leaves, :].transpose(1, 0, 2)).transpose(1, 0, 2, 3)
    z[..., 0] = 0
    for j in range(K):
        blk = 1 << j
        np.bitwise_xor(z[..., :blk], cv[..., j : j + 1], out=z[..., blk : 2 * blk])
    # tags and constants are constant vectors: (P, ntags, B, 1) broadcasts
    tags = vf.to_planes(sub.tags.T[..., None])
    for slot, kind, x in sch.fills:
        buf[slot] = tags[:, x] if kind == "t" else 0
        if kind == "c" and x:
            buf[slot, 0] = 1
    # sums XOR the same bytes in words of up to 64 bits
    xv = buf.view(np.uint64 if K >= 2 else np.uint32)
    chunk = _BUDGET // buf[0].nbytes
    mul, mul16, xor = vf.mul, vf.mul_scalar16, np.bitwise_xor
    for kind, out, a, b in sch.steps:
        if kind == SUM:
            lo, hi = int(b[0]), int(b[-1])
            if hi - lo <= chunk:
                xv[out] = xor.reduceat(xv[a[lo:hi]], b[:-1] - lo)
                continue
            # too many terms to gather: XOR each into its sum's slot in place
            for o, first, end in zip(out.tolist(), b[:-1].tolist(), b[1:].tolist()):
                terms = a[first:end].tolist()
                acc = xv[o]
                xor(xv[terms[0]], xv[terms[1]], out=acc)
                for t in terms[2:]:
                    xor(acc, xv[t], out=acc)
        elif chunk <= 1:
            if kind == MUL:
                for o, x, y in zip(out.tolist(), a.tolist(), b.tolist()):
                    buf[o] = mul(buf[x], buf[y])
            else:
                for o, x, t in zip(out.tolist(), a.tolist(), b.tolist()):
                    buf[o] = mul16(buf[x], tags[:, t])
        else:
            for s in range(0, len(out), chunk):
                # gathered as (g, P, B, 2^K); the field wants the limb axis first
                x, y = buf[a[s : s + chunk]].swapaxes(0, 1), b[s : s + chunk]
                p = mul(x, buf[y].swapaxes(0, 1)) if kind == MUL else mul16(x, tags[:, y])
                buf[out[s : s + chunk]] = p.swapaxes(0, 1)
    return vf.from_planes(xor.reduce(buf[sch.output], axis=-1))


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


def randomized_solve(
    G: RedBlueGraph,
    k: int,
    kind: WitnessKind,
    trials: Optional[int] = None,
    seed: int = 0,
    want_witness: bool = False,
    ell: int = 64,
) -> RandomizedAnswer:
    """One-sided randomized decision (and optional witness by self-reduction)."""
    require_even_k(k)
    if trials is None:
        trials = max(16, k)
    build, extra = _BUILDERS[kind]
    k_dim = k + extra

    def decide(graph, s):
        c = build(graph, k)
        if graph.m < k or c.gates[c.output][0] == "c0":
            return False
        return detect_multilinear(c, k_dim, ell, trials, s)

    if not decide(G, seed):
        return RandomizedAnswer(False, None)
    if not want_witness:
        return RandomizedAnswer(True, None)

    kept = list(range(G.m))
    step = 0
    for e in list(kept):
        cand = [i for i in kept if i != e]
        step += 1
        sub = G.subgraph_of_edges(cand)
        if len(cand) >= k and decide(sub, seed * 1_000_003 + step):
            kept = cand
    w = Witness(kind, tuple(kept))
    if validate_witness(G, w, k).valid:
        return RandomizedAnswer(True, w)
    return RandomizedAnswer(True, None)
