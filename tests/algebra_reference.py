"""Reference algebra the tests check the package against.

None of this runs in a solver: the sieve (`bcslab.algebra.mldetect`) works on
subset-zeta vectors through the level schedule. These are the slow, direct
forms of the same algebra.

* `walk` evaluates a circuit in one loop over its gates for any choice of
  value rules; `expand_multilinear` and the reference evaluators in
  `mldetect_reference` go through it.
* `expand_multilinear` is the symbolic multilinear expansion over the
  integers, tags set to one.
* `mul_scalar` is the tower multiply on Python ints, one Karatsuba level at a
  time, against which the limb-planar `VecGF.mul` is checked.
* Dense group-algebra elements over GF(2^l) indexed by Z2^k bit-vectors, in
  the field the sieve evaluates in, so these products check the sieve value
  for value. Each product runs as a handful of vectorized VecGF multiplies.
  Two bases for the same ring:

  - GroupBasis: coefficients on group elements; multiplication is XOR
    convolution, (ab)_w = sum_{u^v=w} a_u b_v, as one multiply over all pairs
    of nonzero coefficients.
  - NilpotentBasis: coefficients on square-free monomials in u_1..u_k with
    u_j^2 = 0; multiplication is disjoint-union (subset) convolution,
    computed through ranked zeta/Moebius transforms in 2^k k^2 field
    operations, one multiply per output rank.

  change_basis is the ring isomorphism sending the group element with support
  V to prod_{j in V}(1 + u_j); concretely a superset-zeta transform, which is
  an involution in characteristic 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Callable, Dict, FrozenSet

import numpy as np

from bcslab.algebra.circuits import Circuit
from bcslab.algebra.field import _EXP, _LOG, TOWER_C, VecGF

# GF(2^16) exp and log tables of generator 3 as Python lists, read from the
# package's tables: EXP16[i] = 3^i for i < 65535, LOG16[EXP16[i]] = i
EXP16 = _EXP[:65535].tolist()
LOG16 = _LOG.tolist()


def mul_scalar(ell: int, a: int, b: int) -> int:
    """The tower product of two packed ints of width l."""
    if ell == 16:
        return EXP16[(LOG16[a] + LOG16[b]) % 65535] if a and b else 0
    half = ell // 2
    m = (1 << half) - 1
    a0, a1 = a & m, a >> half
    b0, b1 = b & m, b >> half
    m0 = mul_scalar(half, a0, b0)
    m2 = mul_scalar(half, a1, b1)
    m1 = mul_scalar(half, a0 ^ a1, b0 ^ b1)
    if ell == 32:
        cm2 = mul_scalar(half, m2, TOWER_C)
    else:
        cm2 = mul_scalar(half, m2, TOWER_C << 16)  # D = C*y in GF(2^32)
    return (m0 ^ cm2) | ((m1 ^ m0) << half)


def walk(c: Circuit, var: Callable, const: Callable, add: Callable, mul: Callable,
         tag: Callable):
    """The output value of c under one set of value rules.

    var(i) gives variable number i (c.var_index), const(bit) c0 or c1;
    mul(a, b) multiplies two values, tag(v, s) multiplies value v by tag s,
    and add(a, b) is folded left over a sum's terms. A first pass finds each
    value's last reader; the value is dropped once that gate has run.
    """
    gates, var_index = c.gates, c.var_index
    reads = [[i[0] if type(i) is tuple else i for i in g[1:]] if g[0] == "add"
             else g[1:3] if g[0] == "mul" else () for g in gates]
    last = {i: gid for gid, rs in enumerate(reads) for i in rs}
    last[c.output] = len(gates)
    vals: list = [None] * len(gates)
    for gid, g in enumerate(gates):
        op = g[0]
        if op == "add":
            v = reduce(add, [tag(vals[i[0]], i[1]) if type(i) is tuple else vals[i]
                             for i in g[1:]])
        elif op == "mul":
            v = mul(vals[g[1]], vals[g[2]])
            if len(g) == 4:
                v = tag(v, g[3])
        elif op == "in":
            v = var(var_index[g[1]])
        else:
            v = const(op == "c1")
        for x in reads[gid]:
            if last[x] == gid:
                vals[x] = None
        vals[gid] = v
    return vals[c.output]


def expand_multilinear(c: Circuit, max_degree: int) -> Dict[FrozenSet, int]:
    """Multilinear-truncated expansion over the integers, tags set to one.

    Monomials with a repeated variable or degree beyond max_degree are dropped
    at every product; the surviving dictionary maps frozensets of ('x', i) /
    ('y', v) variables to their exact non-negative integer coefficients. Valid
    because a square or an over-degree factor can never return to the
    multilinear, bounded-degree part.
    """
    one = frozenset()
    names = list(c.var_index)

    def add(a, b):
        out = dict(a)
        for mono, coef in b.items():
            out[mono] = out.get(mono, 0) + coef
        return {m: c2 for m, c2 in out.items() if c2}

    def mul(a, b):
        out: Dict[FrozenSet, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                if len(m) > max_degree:
                    continue
                out[m] = out.get(m, 0) + c1 * c2
        return out

    value = walk(c, lambda i: {frozenset((names[i],)): 1},
                 lambda bit: {one: 1} if bit else {}, add, mul, lambda v, s: v)
    return {m: c2 for m, c2 in value.items() if c2}


_FIELDS = {ell: VecGF(ell) for ell in (16, 32, 64)}


class Basis(Enum):
    GROUP = "group"
    NILPOTENT = "nilpotent"


class Backend(Enum):
    XOR_CONVOLUTION = "xor"
    SUBSET_CONVOLUTION = "subset"


@dataclass(frozen=True)
class GroupAlgebraElement:
    k_dim: int
    ell: int
    basis: Basis
    coeffs: tuple  # 2^k_dim ints, each < 2^ell

    def __post_init__(self):
        if len(self.coeffs) != 1 << self.k_dim:
            raise ValueError("coefficient vector must have length 2^k_dim")
        if self.ell not in _FIELDS:
            raise ValueError("l must be one of 16, 32, 64")
        top = 1 << self.ell
        if not all(0 <= c < top for c in self.coeffs):
            raise ValueError("coefficients must be integers in [0, 2^l)")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def add(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        _check_compat(self, other)
        return GroupAlgebraElement(
            self.k_dim, self.ell, self.basis,
            tuple(a ^ b for a, b in zip(self.coeffs, other.coeffs)),
        )


def _check_compat(a: GroupAlgebraElement, b: GroupAlgebraElement):
    if a.k_dim != b.k_dim or a.ell != b.ell or a.basis != b.basis:
        raise ValueError("mismatched k_dim/ell/basis")


def ga_zero(k_dim: int, ell: int, basis: Basis = Basis.GROUP) -> GroupAlgebraElement:
    return GroupAlgebraElement(k_dim, ell, basis, (0,) * (1 << k_dim))


def ga_identity(k_dim: int, ell: int, basis: Basis = Basis.GROUP) -> GroupAlgebraElement:
    c = [0] * (1 << k_dim)
    c[0] = 1
    return GroupAlgebraElement(k_dim, ell, basis, tuple(c))


def ga_group_element(k_dim: int, ell: int, v: int, coeff: int = 1) -> GroupAlgebraElement:
    c = [0] * (1 << k_dim)
    c[v] = coeff
    return GroupAlgebraElement(k_dim, ell, Basis.GROUP, tuple(c))


def one_plus_v(k_dim: int, ell: int, v: int, lam: int = 1) -> GroupAlgebraElement:
    """lambda * (identity + v) in the group basis; zero when v = 0 (char 2)."""
    c = [0] * (1 << k_dim)
    c[0] ^= lam
    c[v] ^= lam
    return GroupAlgebraElement(k_dim, ell, Basis.GROUP, tuple(c))


def _xor_convolution(a: GroupAlgebraElement, b: GroupAlgebraElement) -> tuple:
    f = _FIELDS[a.ell]
    av = np.array(a.coeffs, dtype=np.uint64)
    bv = np.array(b.coeffs, dtype=np.uint64)
    u, v = np.flatnonzero(av), np.flatnonzero(bv)
    # every product of nonzero coefficients, XORed into coefficient u ^ v
    prod = f.mul(f.to_planes(av[u, None]), f.to_planes(bv[None, v]))
    out = np.zeros(len(av), dtype=np.uint64)
    np.bitwise_xor.at(out, u[:, None] ^ v[None, :], f.from_planes(prod))
    return tuple(int(x) for x in out)


def _zeta_inplace(arr: np.ndarray, k: int):
    """Subset-sum transform over XOR scalars on the last axis; self-inverse in char 2."""
    for j in range(k):
        halves = arr.reshape(arr.shape[:-1] + (-1, 2, 1 << j))
        halves[..., 1, :] ^= halves[..., 0, :]


def _subset_convolution(a: GroupAlgebraElement, b: GroupAlgebraElement) -> tuple:
    k = a.k_dim
    n = 1 << k
    f = _FIELDS[a.ell]
    rank = np.array([bin(m).count("1") for m in range(n)])
    by_rank = rank == np.arange(k + 1)[:, None]  # (k + 1, n)
    za = np.where(by_rank, np.array(a.coeffs, dtype=np.uint64), np.uint64(0))
    zb = np.where(by_rank, np.array(b.coeffs, dtype=np.uint64), np.uint64(0))
    _zeta_inplace(za, k)
    _zeta_inplace(zb, k)
    pa, pb = f.to_planes(za), f.to_planes(zb)
    zc = np.empty_like(pa)
    for r in range(k + 1):  # rank r of the product: sum over i of za[i] * zb[r - i]
        zc[:, r] = np.bitwise_xor.reduce(f.mul(pa[:, : r + 1], pb[:, r::-1]), axis=1)
    out = f.from_planes(zc)
    _zeta_inplace(out, k)  # Moebius: same transform in char 2
    return tuple(int(x) for x in out[rank, np.arange(n)])


def ga_multiply(
    a: GroupAlgebraElement,
    b: GroupAlgebraElement,
    backend: Backend,
) -> GroupAlgebraElement:
    """Ring product; backend must match the basis the operands live in."""
    _check_compat(a, b)
    if backend is Backend.XOR_CONVOLUTION:
        if a.basis is not Basis.GROUP:
            raise ValueError("XOR convolution needs GroupBasis operands")
        return GroupAlgebraElement(a.k_dim, a.ell, Basis.GROUP, _xor_convolution(a, b))
    if a.basis is not Basis.NILPOTENT:
        raise ValueError("subset convolution needs NilpotentBasis operands")
    return GroupAlgebraElement(a.k_dim, a.ell, Basis.NILPOTENT, _subset_convolution(a, b))


def change_basis(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Superset-zeta transform; flips the basis tag. Involution in char 2."""
    k = a.k_dim
    arr = np.array(a.coeffs, dtype=np.uint64)
    for j in range(k):
        halves = arr.reshape(-1, 2, 1 << j)
        halves[:, 0] ^= halves[:, 1]
    other = Basis.NILPOTENT if a.basis is Basis.GROUP else Basis.GROUP
    return GroupAlgebraElement(k, a.ell, other, tuple(int(x) for x in arr))
