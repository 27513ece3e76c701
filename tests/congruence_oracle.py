"""Brute-force oracles for the congruence subgroups that chevlab lists.

``sweep_congruence`` tries every 1 + d M mod n against the group equations:
(n/d)^(dim^2) candidates, so it serves small levels only.
``sweep_central_scalars`` tries every scalar s 1 mod q the same way.

``full_congruence_by_closure`` is the closure route to C(R, I), the
preimage of the centre of G(R/I).  Here the whole reduced group E(Z/d)
(which is G(Z/d) over the semilocal ring Z/d) is closed from its elementary
generators, its centre is read off as the elements that commute with every
generator, and each central element is lifted to a scalar mod n and
multiplied into G(R, I).  A central class with no scalar lift is dropped,
which is why this route is only an oracle: it is exact on the small cases
the tests give it, where every class has a scalar lift.
"""
from __future__ import annotations

import numpy as np

from chevlab.rings import Ring
from chevlab.subgroups import (
    _CHUNK,
    EnumeratedSubgroup,
    _group_equation_mask,
    _word_matrices,
    absolute_elementary_words,
    closure,
    enumerate_congruence_subgroup,
)


def sweep_congruence(rep, n: int, d: int) -> np.ndarray:
    """Every 1 + d M mod n satisfying the group equations, in the order of
    the mixed-radix index of M: (n/d)^(dim^2) candidates."""
    dim = rep.block_dims[0]
    radix = n // d
    count = radix ** (dim * dim)
    ident = np.eye(dim, dtype=np.int64)
    weights = radix ** np.arange(dim * dim, dtype=np.int64)
    kept = []
    for start in range(0, count, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % radix
        cand = (ident[None] + d * digits.reshape(-1, dim, dim)) % n
        kept.append(cand[_group_equation_mask(rep, cand, n)])
    return np.concatenate(kept)


def sweep_central_scalars(rep, q: int) -> np.ndarray:
    """The scalar matrices s 1 mod q, ascending in s, that satisfy the
    group equations mod q: the centre of G(Z/q), from q candidates."""
    ident = np.eye(rep.block_dims[0], dtype=np.int64)
    kept = []
    for start in range(0, q, _CHUNK):
        cand = np.arange(start, min(start + _CHUNK, q), dtype=np.int64)[:, None, None] * ident
        kept.append(cand[_group_equation_mask(rep, cand, q)])
    return np.concatenate(kept)


def reduced_elementary_group(rep, ring, bound):
    """Closure of all elementary generators over a finite ring."""
    return closure(absolute_elementary_words(rep.system.type_tag, ring), rep, ring, bound)


def central_mask(stack: np.ndarray, gen_stack: np.ndarray, m: int) -> np.ndarray:
    """Which matrices of the stack commute mod m with every generator."""
    reduced = stack % m
    mask = np.ones(len(stack), dtype=bool)
    for g in gen_stack % m:
        mask &= np.all(reduced @ g % m == g @ reduced % m, axis=(1, 2))
    return mask


def _scalar_lift(rep, n: int, d: int, scalar: int) -> np.ndarray | None:
    dim = rep.block_dims[0]
    for k in range(n // d):
        cand = ((scalar + k * d) % n * np.eye(dim, dtype=np.int64)) % n
        if _group_equation_mask(rep, cand[None], n)[0]:
            return cand
    return None


def full_congruence_by_closure(rep, ring, ideal, bound=10**6):
    """(C(R, I), the centre of E(Z/d)) by the closure route."""
    n = ring.modulus
    (d,) = ideal.gens
    kernel = enumerate_congruence_subgroup(rep, ring, ideal)
    quot = Ring.mod(d)
    reduced = reduced_elementary_group(rep, quot, bound)
    gen_stack = _word_matrices(absolute_elementary_words(rep.system.type_tag, quot), rep, quot)
    center = reduced.stack[central_mask(reduced.stack, gen_stack, d)]
    dim = rep.block_dims[0]
    sub = EnumeratedSubgroup(rep, ring, [])
    for c in center:
        scalar = int(c[0, 0])
        assert np.array_equal(c % d, (scalar * np.eye(dim, dtype=np.int64)) % d)
        lift = _scalar_lift(rep, n, d, scalar)
        if lift is not None:
            coset = (lift @ kernel.stack) % n
            assert central_mask(coset, gen_stack, d).all()
            sub._add_batch(coset, bound)
    return sub, center
