import random

import numpy as np
import pytest

from algebra_reference import (
    EXP16,
    LOG16,
    Backend,
    Basis,
    GroupAlgebraElement,
    change_basis,
    ga_group_element,
    ga_identity,
    ga_multiply,
    ga_zero,
    mul_scalar,
    one_plus_v,
)
from bcslab.algebra.field import POLY, TOWER_C, VecGF


def _gf2_irreducible(poly, deg):
    def mulmod(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> deg & 1:
                a ^= poly
        return r

    def polygcd(a, b):
        while b:
            while a and a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        return a

    t = 2
    for _ in range(deg):
        t = mulmod(t, t)
    if t != 2:
        return False
    n, primes, d = deg, [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    for p in primes:
        t = 2
        for _ in range(deg // p):
            t = mulmod(t, t)
        if polygcd(poly, t ^ 2) != 1:
            return False
    return True


def test_reduction_polynomials_irreducible():
    for ell, poly in POLY.items():
        assert _gf2_irreducible(poly, ell), ell


def _gf16_mul(a, b):
    """Scalar GF(2^16) product in the polynomial basis, independent of the package tables."""
    r = 0
    for i in range(16):
        if b >> i & 1:
            r ^= a << i
    for i in range(30, 15, -1):
        if r >> i & 1:
            r ^= POLY[16] << (i - 16)
    return r


def _pow(mul, a, e):
    r = 1
    while e:
        if e & 1:
            r = mul(r, a)
        a = mul(a, a)
        e >>= 1
    return r


def _planar_mul(vf, a, b):
    """Packed uint64 operands through the limb-planar kernel, back to packed."""
    return vf.from_planes(vf.mul(vf.to_planes(a), vf.to_planes(b)))


@pytest.mark.parametrize("ell", [16, 32, 64])
def test_tower_field(ell):
    vf = VecGF(ell)
    rng = random.Random(ell * 7)
    M = (1 << ell) - 1
    a = np.array([rng.randrange(0, M + 1) for _ in range(128)], dtype=np.uint64)
    b = np.array([rng.randrange(0, M + 1) for _ in range(128)], dtype=np.uint64)
    c = _planar_mul(vf, a, b)
    for i in range(128):
        assert int(c[i]) == mul_scalar(ell, int(a[i]), int(b[i]))
    for _ in range(40):
        x, y, z = (rng.randrange(1, M) for _ in range(3))
        assert mul_scalar(ell, x, mul_scalar(ell, y, z)) == mul_scalar(ell, mul_scalar(ell, x, y), z)
        assert mul_scalar(ell, x, y ^ z) == mul_scalar(ell, x, y) ^ mul_scalar(ell, x, z)
        assert mul_scalar(ell, x, 1) == x
    # 16-bit subfield action is limb-wise
    s = np.array([rng.randrange(1, 65536) for _ in range(128)], dtype=np.uint64)
    ap, sp = vf.to_planes(a), vf.to_planes(s)
    assert np.array_equal(vf.mul_scalar16(ap, sp), vf.mul(ap, sp))


@pytest.mark.parametrize("ell", [16, 32, 64])
def test_tower_kernel_edge_cases(ell):
    # zero and all-ones limbs, the GF(2^16) subfield, and the (P,B,1) x (P,B,W)
    # broadcasting the sieve uses for constants and tags, against mul_scalar
    vf = VecGF(ell)
    rng = random.Random(ell * 11)
    M = (1 << ell) - 1
    special = {0, 1, M, 0xFFFF, 0xFFFE, TOWER_C, TOWER_C << 16}
    for _ in range(6):
        x = rng.randrange(M + 1)
        for limb in range(ell // 16):
            special.add(x & ~(0xFFFF << (16 * limb)))  # one zero limb
            special.add(x | (0xFFFF << (16 * limb)))  # one all-ones limb
            special.add(0xFFFF << (16 * limb))
    special |= {rng.randrange(1, 1 << 16) for _ in range(6)}
    vals = sorted(v & M for v in special)
    a = np.array([x for x in vals for _ in vals], dtype=np.uint64)
    b = np.array([y for _ in vals for y in vals], dtype=np.uint64)
    c = _planar_mul(vf, a, b)
    for i in range(a.size):
        assert int(c[i]) == mul_scalar(ell, int(a[i]), int(b[i]))

    B, W = 5, 7
    col = np.array([[rng.randrange(M + 1)] for _ in range(B - 2)] + [[0], [1]], dtype=np.uint64)
    vec = np.array([[rng.randrange(M + 1) for _ in range(W - 1)] + [0] for _ in range(B)],
                   dtype=np.uint64)
    tags = np.array([[rng.randrange(1, 1 << 16)] for _ in range(B)], dtype=np.uint64)
    want = [[mul_scalar(ell, int(col[i, 0]), int(vec[i, j])) for j in range(W)] for i in range(B)]
    colp, vecp = vf.to_planes(col), vf.to_planes(vec)
    assert colp.shape == (ell // 16, B, 1) and vecp.shape == (ell // 16, B, W)
    for prod in (vf.mul(colp, vecp), vf.mul(vecp, colp)):
        assert prod.shape == vecp.shape
        assert vf.from_planes(prod).tolist() == want
    want = [[mul_scalar(ell, int(tags[i, 0]), int(vec[i, j])) for j in range(W)] for i in range(B)]
    assert vf.from_planes(vf.mul_scalar16(vecp, vf.to_planes(tags))).tolist() == want


def _trace(ell, x):
    """Absolute trace x + x^2 + x^4 + ... + x^(2^(l-1)) in GF(2^l)."""
    t = 0
    for _ in range(ell):
        t ^= x
        x = mul_scalar(ell, x, x)
    return t


def test_tower_is_a_field():
    # x^2 + x + a has a root in GF(2^m) iff the absolute trace of a is 0, so
    # trace 1 makes y^2 + y + C irreducible over GF(2^16) and z^2 + z + C y
    # irreducible over GF(2^32)
    assert _trace(16, TOWER_C) == 1
    assert _trace(32, TOWER_C << 16) == 1
    # the first directly: no x in GF(2^16) satisfies x^2 + x = C
    vf = VecGF(16)
    x = vf.to_planes(np.arange(1 << 16, dtype=np.uint64))
    assert not np.any(vf.from_planes(vf.mul(x, x) ^ x) == TOWER_C)
    # and every sampled nonzero x has the inverse x^(2^l - 2)
    rng = random.Random(17)
    for ell in (16, 32, 64):
        for x in [1, (1 << ell) - 1] + [rng.randrange(1, 1 << ell) for _ in range(5)]:
            inverse = _pow(lambda a, b: mul_scalar(ell, a, b), x, (1 << ell) - 2)
            assert mul_scalar(ell, x, inverse) == 1, (ell, x)


@pytest.mark.parametrize("ell", [16, 32, 64])
def test_tower_mul_accepts_empty_operands(ell):
    vf = VecGF(ell)
    P = ell // 16
    a = np.zeros((P, 0, 1), dtype=np.uint16)
    b = np.ones((P, 1, 3), dtype=np.uint16)
    assert vf.mul(a, b).shape == (P, 0, 3)
    assert vf.mul(b, a).shape == (P, 0, 3)
    assert vf.mul(a, a).shape == (P, 0, 1)
    assert vf.from_planes(vf.mul(a, b)).shape == (0, 3)


def test_gf16_tables_are_exp_and_log_of_generator_3():
    assert sorted(EXP16) == list(range(1, 1 << 16))
    assert all(LOG16[e] == i for i, e in enumerate(EXP16))
    rng = random.Random(3)
    for i in [0, 1, 255, 256, 257, 65534] + [rng.randrange(65535) for _ in range(200)]:
        assert EXP16[i] == _pow(_gf16_mul, 3, i)


def test_tower_l16_matches_reference_field():
    # single-limb tower representation coincides with the polynomial-basis GF(2^16)
    rng = random.Random(5)
    a = np.array([rng.randrange(0, 65536) for _ in range(200)], dtype=np.uint64)
    b = np.array([rng.randrange(0, 65536) for _ in range(200)], dtype=np.uint64)
    c = _planar_mul(VecGF(16), a, b)
    for i in range(200):
        assert int(c[i]) == _gf16_mul(int(a[i]), int(b[i]))


def test_annihilation_all_v():
    # (1+v)^2 = 0 for every v, k_dim <= 10
    for k in range(1, 11):
        for v in range(1 << k):
            e = one_plus_v(k, 64, v, lam=0x9E3779B97F4A7C15 & ((1 << 64) - 1))
            assert ga_multiply(e, e, Backend.XOR_CONVOLUTION).is_zero()


def test_annihilation_nilpotent_route():
    rng = random.Random(8)
    for k in (2, 4, 6):
        for _ in range(10):
            v = rng.randrange(1 << k)
            e = change_basis(one_plus_v(k, 64, v, lam=rng.randrange(1, 1 << 64)))
            assert ga_multiply(e, e, Backend.SUBSET_CONVOLUTION).is_zero()


def test_identity_unit_both_bases():
    rng = random.Random(13)
    for k in (2, 5):
        coeffs = tuple(rng.randrange(1 << 32) for _ in range(1 << k))
        a = GroupAlgebraElement(k, 32, Basis.GROUP, coeffs)
        assert ga_multiply(a, ga_identity(k, 32), Backend.XOR_CONVOLUTION) == a
        an = change_basis(a)
        assert ga_multiply(an, ga_identity(k, 32, Basis.NILPOTENT), Backend.SUBSET_CONVOLUTION) == an


def test_change_basis_examples():
    cb = change_basis(ga_identity(3, 16))
    assert cb.basis is Basis.NILPOTENT
    assert cb.coeffs[0] == 1 and not any(cb.coeffs[1:])
    cb = change_basis(ga_group_element(3, 16, 0b011))
    assert tuple(cb.coeffs) == (1, 1, 1, 1, 0, 0, 0, 0)
    rng = random.Random(2)
    a = GroupAlgebraElement(4, 64, Basis.GROUP, tuple(rng.randrange(1 << 64) for _ in range(16)))
    assert change_basis(change_basis(a)) == a


def test_backend_mismatch_errors():
    a = ga_identity(2, 16)
    with pytest.raises(ValueError):
        ga_multiply(a, a, Backend.SUBSET_CONVOLUTION)
    an = change_basis(a)
    with pytest.raises(ValueError):
        ga_multiply(an, an, Backend.XOR_CONVOLUTION)
    with pytest.raises(ValueError):
        ga_multiply(a, ga_identity(3, 16), Backend.XOR_CONVOLUTION)


@pytest.mark.parametrize("ell", [16, 32, 64])
def test_backend_equivalence(ell):
    rng = random.Random(40 + ell)
    M = (1 << ell) - 1
    for k in (1, 2, 4, 6):
        for _ in range(8):
            a = GroupAlgebraElement(k, ell, Basis.GROUP,
                                    tuple(rng.randrange(M + 1) for _ in range(1 << k)))
            b = GroupAlgebraElement(k, ell, Basis.GROUP,
                                    tuple(rng.randrange(M + 1) for _ in range(1 << k)))
            lhs = change_basis(ga_multiply(a, b, Backend.XOR_CONVOLUTION))
            rhs = ga_multiply(change_basis(a), change_basis(b), Backend.SUBSET_CONVOLUTION)
            assert lhs == rhs


def test_independence_survival():
    rng = random.Random(77)
    for k in (3, 6):
        basis_vecs = [1 << i for i in range(k)]
        prod = ga_identity(k, 64)
        for d, v in enumerate(basis_vecs, start=1):
            prod = ga_multiply(prod, one_plus_v(k, 64, v, rng.randrange(1, 1 << 64)),
                               Backend.XOR_CONVOLUTION)
            assert sum(1 for c in prod.coeffs if c) == 1 << d
        # a dependent extra vector annihilates
        dep = basis_vecs[0] ^ basis_vecs[1]
        assert ga_multiply(prod, one_plus_v(k, 64, dep, 1), Backend.XOR_CONVOLUTION).is_zero()


def test_element_rejects_bad_width_and_coefficients():
    with pytest.raises(ValueError, match="l must be"):
        GroupAlgebraElement(1, 20, Basis.GROUP, (1, 0))
    for bad in (1 << 16, -1):
        with pytest.raises(ValueError, match="coefficients"):
            GroupAlgebraElement(1, 16, Basis.GROUP, (bad, 0))
    GroupAlgebraElement(1, 16, Basis.GROUP, ((1 << 16) - 1, 0))


def test_zero_element():
    z = ga_zero(3, 16)
    assert z.is_zero()
    assert ga_multiply(z, ga_identity(3, 16), Backend.XOR_CONVOLUTION).is_zero()
