"""Reference sieve evaluators, one call per gate through `algebra_reference.walk`.

`eval_fast` is the per-gate program that `bcslab.algebra.mldetect._eval_fast`
replaced with the level schedule: the same substitution gives the same values,
bit for bit. `eval_exact` keeps every rank, by exact ranked subset
convolution over `GroupAlgebraElement`, so it also evaluates circuits that are
not homogeneous; on a homogeneous circuit of degree K its full-mask
coefficient is the sieve's value.
"""
import numpy as np

from algebra_reference import Backend, Basis, GroupAlgebraElement, ga_multiply, walk
from bcslab.algebra.field import VecGF


def eval_fast(c, sub) -> np.ndarray:
    """(B,) output top-rank coefficients for homogeneous circuits."""
    K = sub.k_dim
    B = sub.vectors.shape[0]
    vf = VecGF(sub.ell)
    # values are field vectors over the trailing axes (B, 2^K); constants and
    # tags are (B, 1) and broadcast
    vectors = vf.to_planes(sub.vectors)
    tags = vf.to_planes(sub.tags)
    consts = (vf.to_planes(np.zeros((B, 1), dtype=np.uint64)),
              vf.to_planes(np.ones((B, 1), dtype=np.uint64)))

    def leaf_vec(i):
        cv = vectors[..., i, :]
        z = np.zeros(cv.shape[:-1] + (1 << K,), dtype=cv.dtype)
        for j in range(K):
            blk = 1 << j
            z[..., blk : 2 * blk] = z[..., :blk] ^ cv[..., j : j + 1]
        return z

    out = walk(c, leaf_vec, consts.__getitem__, np.bitwise_xor, vf.mul,
               lambda v, s: vf.mul_scalar16(v, tags[..., s : s + 1]))
    if out.shape[-1] == 1:
        # constant circuit: degree 0 means no monomial of positive degree
        return np.zeros(B, dtype=np.uint64)
    return vf.from_planes(np.bitwise_xor.reduce(out, axis=-1))


def eval_exact(c, sub) -> np.ndarray:
    """(B, 2^K) output coefficients in the nilpotent basis, one exact ranked
    subset convolution per gate and trial."""
    K = sub.k_dim
    B = sub.vectors.shape[0]

    def elem(coeffs: dict) -> GroupAlgebraElement:
        full = [0] * (1 << K)
        for mask, x in coeffs.items():
            full[mask] = int(x)
        return GroupAlgebraElement(K, sub.ell, Basis.NILPOTENT, tuple(full))

    def mul(a, b):
        return ga_multiply(a, b, Backend.SUBSET_CONVOLUTION)

    out = np.zeros((B, 1 << K), dtype=np.uint64)
    for t in range(B):
        # tags and constants have rank 0
        out[t] = walk(c, lambda i: elem({1 << j: x for j, x in enumerate(sub.vectors[t, i])}),
                      lambda bit: elem({0: bit}), GroupAlgebraElement.add, mul,
                      lambda v, s: mul(v, elem({0: sub.tags[t, s]}))).coeffs
    return out
