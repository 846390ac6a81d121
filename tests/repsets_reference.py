"""Reference reduction: the greedy elimination with no short-cut for small families.

`reduce_sets` is the elimination `bcslab.repsets.reduce_family` runs on every
family it cannot pass through as it is: each set's minor vector, in insertion
order, is kept when it extends the row basis over GF(q). It takes and returns
plain (mask, witness) tuples, so it builds no `SetFamily`.
"""
from math import comb

from bcslab.repsets import _smallest_prime_above, minor_vector


def reduce_sets(sets, p, ground_size, k_cap):
    """The kept (mask, witness) pairs of `sets`, in their order."""
    q = _smallest_prime_above(ground_size)
    dim = comb(k_cap, p)
    basis = []  # (pivot, row from the pivot on, scaled to 1 there), in insertion order
    kept = []
    for mask, wit in sets:
        if len(basis) == dim:
            break
        row = minor_vector(mask, k_cap, q)
        for piv, tail in basis:
            f = row[piv]
            if f:
                row[piv:] = [(x - f * y) % q for x, y in zip(row[piv:], tail)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], -1, q)
            basis.append((piv, [x * inv % q for x in row[piv:]]))
            kept.append((mask, wit))
    return tuple(kept)
