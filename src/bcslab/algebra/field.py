"""GF(2^l) arithmetic for l in {16, 32, 64}, vectorized on numpy arrays.

One field per width: the tower GF(2^16) -> GF(2^32) -> GF(2^64) built from
y^2+y+C and z^2+z+C*y with C = 0x800 (trace 1, so both quadratics are
irreducible). GF(2^16) itself is the polynomial basis modulo
x^16+x^5+x^3+x+1. An element is l/16 limbs in GF(2^16), limb p holding bits
16p..16p+15 of the packed integer; the basis is 1, y (l = 32) and
1, y, z, yz (l = 64). Vectors are stored limb-planar: an array of shape
(l/16, ...) of uint16, one contiguous plane per limb.

The tower multiply, unrolled down to GF(2^16), is a fixed set of Karatsuba
leaves (XORs of limbs: 1, 3 and 9 of them at l = 16, 32, 64), a fixed set of
products C^e * leaf(a) * leaf(b) with e in {0, 1, 2} (1, 3 and 10), and for
each output limb the products XORed into it (_tower_terms derives all three
from the tower). In log/exp form every product is one sum of two logs and
the constant e*log(C), so a whole multiply is two log gathers, one exp gather
and an XOR reduction over planes at every width.

Tables use generator 3 of GF(2^16)* (order 65535): an int32 log table
(256 KB) whose zero entry is a marker that sends every sum involving a zero
into the zero region of a uint16 exp table (0.9 MB, of which the first
0.4 MB hold the periodic exp values).
"""
from __future__ import annotations

import numpy as np

POLY = {16: (1 << 16) | (1 << 5) | (1 << 3) | (1 << 1) | 1}

_GEN16 = 3
TOWER_C = 0x800  # trace-1 constant for both quadratic extensions


def _mul16(a: int, b: int) -> int:
    """GF(2^16) product of two ints in the polynomial basis."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> 16:
            a ^= POLY[16]
    return r


def _clmul16v(a, b):
    """GF(2^16) products of uint32 arrays in the polynomial basis (carry-less, reduced)."""
    r = np.zeros(np.broadcast(a, b).shape, dtype=np.uint32)
    for i in range(16):
        r ^= (a << i) * ((b >> i) & 1)
    for i in range(30, 15, -1):
        r ^= ((r >> i) & 1) * np.uint32(POLY[16] << (i - 16))
    return r


def _build_tables16():
    """exp[i] = 3^i for i < 65535 and its inverse log, as numpy arrays.

    3^0..3^255 come from scalar steps; 3^(256q + r) = 3^r * (3^256)^q fills the
    rest in one vectorized product.
    """
    low = [1]
    for _ in range(255):
        low.append(_mul16(low[-1], _GEN16))
    step = _mul16(low[-1], _GEN16)  # 3^256
    high = [1]
    for _ in range(255):
        high.append(_mul16(high[-1], step))
    exp = _clmul16v(np.array(high, dtype=np.uint32)[:, None],
                    np.array(low, dtype=np.uint32)[None, :]).ravel()[:65535]
    log = np.zeros(65536, dtype=np.int32)
    log[exp] = np.arange(65535)
    return exp.astype(np.uint16), log


_exp16, _LOG = _build_tables16()
_LOGC = int(_LOG[TOWER_C])

# A nonzero log sum is at most 3 * 65534 (two logs and the constant C^2).
# log(0) = _ZERO puts any sum involving a zero at or past _ZERO, which reads 0.
_ZERO = 3 * 65535
_LOG[0] = _ZERO
_EXP = np.resize(_exp16, 2 * _ZERO + 65535)
_EXP[_ZERO:] = 0
del _exp16


def _tower_terms(ell: int) -> list:
    """The tower product ab as, per output limb, the set of terms (leaf, e) that are
    XORed into it, each term being C^e * leaf(a) * leaf(b) in GF(2^16).

    Leaves are numbered as VecGF._leaves stacks them: a width-l operand
    X0 + X1 z splits into the leaves of X0, of X1 and of X0 + X1, in that order.
    """
    if ell == 16:
        return [{(0, 0)}]
    half = _tower_terms(ell // 2)
    n = 3 ** (len(half).bit_length() - 1)  # leaves of a half-width operand
    # Karatsuba: m0 = X0 Y0, m2 = X1 Y1, m1 = (X0 + X1)(Y0 + Y1)
    m0, m2, m1 = ([{(t * n + leaf, e) for leaf, e in limb} for limb in half] for t in range(3))

    def times_c(limb, k=1):
        return {(leaf, e + k) for leaf, e in limb}

    if ell == 32:  # y^2 = y + C
        cm2 = [times_c(m2[0])]
    else:  # z^2 = z + C y, and C y (u + v y) = C^2 v + C (u + v) y
        cm2 = [times_c(m2[1], 2), times_c(m2[0]) ^ times_c(m2[1])]
    # (X0 + X1 z)(Y0 + Y1 z) = (m0 + c m2) + (m1 + m0) z
    return [p ^ q for p, q in zip(m0, cm2)] + [p ^ q for p, q in zip(m1, m0)]


class VecGF:
    """Vectorized tower-field arithmetic on limb planes: uint16 arrays of shape
    (l/16, ...). Operands broadcast over the trailing axes."""

    def __init__(self, ell: int):
        if ell not in (16, 32, 64):
            raise ValueError("l must be one of 16, 32, 64")
        self.ell = ell
        self._levels = (ell // 16).bit_length() - 1  # tower levels above GF(2^16)
        self.n_leaves = 3 ** self._levels  # Karatsuba leaves of one operand
        terms = _tower_terms(ell)
        products = sorted(set().union(*terms))
        # product -> leaf; per product the log of C^e; per output limb its products
        self._leaf = np.array([leaf for leaf, _ in products])
        self._clog = np.array([e * _LOGC % 65535 for _, e in products], dtype=np.int32)
        self._out = np.array([[products.index(t) for t in sorted(limb)] for limb in terms])
        self._shifts = np.arange(0, ell, 16, dtype=np.uint64)
        # per level d: where X0, X1 and X0 ^ X1 sit on axis d, over the halves
        # of the levels below it
        L = self._levels
        self._xor_steps = [tuple((slice(None),) * d + (k,) + (slice(0, 2),) * (L - d - 1)
                                 for k in range(3)) for d in range(L)]

    def to_planes(self, x):
        """Packed uint64 elements (...) -> limb planes (l/16, ...)."""
        return (x >> self._shifts.reshape((-1,) + (1,) * x.ndim)).astype(np.uint16)

    def from_planes(self, v):
        """Limb planes (l/16, ...) -> packed uint64 elements (...)."""
        shifts = self._shifts.reshape((-1,) + (1,) * (v.ndim - 1))
        return np.bitwise_or.reduce(v.astype(np.uint64) << shifts, axis=0)

    def _leaves(self, a):
        """Limb planes (2^L, ...) -> Karatsuba leaves (3^L, ...): along each tower
        level's axis, X0 ^ X1 is stored after the halves (X0, X1)."""
        x = np.empty((3,) * self._levels + a.shape[1:], dtype=np.uint16)
        x[(slice(0, 2),) * self._levels] = a.reshape((2,) * self._levels + a.shape[1:])
        for x0, x1, x01 in self._xor_steps:
            np.bitwise_xor(x[x0], x[x1], out=x[x01])
        return x.reshape((3 ** self._levels,) + a.shape[1:])

    def leaf_logs(self, a, out):
        """Limb planes (2^L, ...) -> the logs of their Karatsuba leaves, written
        to out, int32 of shape (n_leaves = 3^L, ...), which `mul` takes in
        place of the planes."""
        # every uint16 leaf indexes the table: clip never acts, and unlike the
        # default mode it writes to out without a buffer
        _LOG.take(self._leaves(a), out=out, mode="clip")

    def mul(self, a, b, s=None):
        """Product of a and b, times s when s is given.

        b is limb planes; a is limb planes, or their leaf logs as `leaf_logs`
        writes them (int32), which spares taking its leaves again. s is a
        nonzero element of the GF(2^16) subfield as limb planes, of which only
        s[0] is read, as in `mul_scalar16`: its log joins each product's
        constant log(C^e), mod 65535, so that s a b costs what a b costs.
        """
        # one expression, so that both operands' logs die at the sum
        t = ((a if a.dtype is _LOG.dtype else _LOG.take(self._leaves(a)))
             + _LOG.take(self._leaves(b)))
        t = t.take(self._leaf, axis=0)
        c = self._clog.reshape((-1,) + (1,) * (t.ndim - 1))
        if s is not None:
            c = (c + _LOG.take(s[0])) % 65535
        t += c
        p = _EXP.take(t)
        return np.bitwise_xor.reduce(p.take(self._out, axis=0), axis=1)

    def mul_scalar16(self, a, s):
        """Multiply by elements of the GF(2^16) subfield: s is limb planes whose
        limbs above limb 0 are zero, and only s[0] is read."""
        t = _LOG.take(a)
        t += _LOG.take(s[0])
        return _EXP.take(t)
