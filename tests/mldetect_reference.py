"""Reference sieve evaluator: one field call per gate, through `circuits.walk`.

This is the per-gate program that `bcslab.algebra.mldetect._eval_fast`
replaced with the level schedule. It stays here as the reference the tests
compare against: the same substitution gives the same values, bit for bit.
"""
import numpy as np

from bcslab.algebra.circuits import walk
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

    def mul(a, b, scalar):
        return vf.mul_scalar16(a, b) if scalar else vf.mul(a, b)

    out = walk(c, leaf_vec, lambda s: tags[..., s : s + 1], consts.__getitem__,
               np.bitwise_xor, mul)
    if out.shape[-1] == 1:
        # constant circuit: degree 0 means no monomial of positive degree
        return np.zeros(B, dtype=np.uint64)
    return vf.from_planes(np.bitwise_xor.reduce(out, axis=-1))
