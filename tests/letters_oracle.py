"""A letter as a whole matrix, kept as the oracle.

This is how an exact group element took an elementary letter x_a(c)
before letters became column operations: ``Representation.x`` built the
whole matrix 1 + sum_k c^k e^(k) by scanning the dense divided powers
entry by entry, and the running product took it as a full sparse product.
``Representation.x`` and ``GroupElement.times_x``, which read the sparse
power index instead, must give the same matrices.
"""
from __future__ import annotations

from chevlab.linalg import ExactMatrix
from chevlab.reps import GroupElement, Representation
from chevlab.rings import RingElement
from chevlab.roots import Root


def dense_x(rep: Representation, root: Root, coeff: RingElement) -> GroupElement:
    """x_root(coeff) over an exact ring, from the dense divided powers."""
    ring = coeff.ring
    blocks = []
    for b, d in enumerate(rep.block_dims):
        entries: dict = {}
        ck = ring.one
        for mats in rep.powers[root]:
            ck = ck * coeff
            if ck.is_zero:
                break
            for i, row in enumerate(mats[b]):
                for j, v in enumerate(row):
                    if v:
                        prev = entries.get((i, j))
                        term = ck * v
                        entries[(i, j)] = term if prev is None else prev + term
        for i in range(d):
            prev = entries.get((i, i))
            entries[(i, i)] = ring.one if prev is None else prev + ring.one
        blocks.append(ExactMatrix.build(ring, d, entries))
    return GroupElement(rep, ring, "exact", tuple(blocks))


def times_x_by_product(g: GroupElement, root: Root, coeff: RingElement) -> GroupElement:
    """g * x_root(coeff) as the full product with the whole letter."""
    return g * dense_x(g.rep, root, coeff)
