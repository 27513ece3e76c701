"""A letter as a whole matrix, kept as the oracle.

This is how an exact group element took an elementary letter x_a(c)
before letters became column and row operations: ``Representation.x``
built the whole matrix 1 + sum_k c^k e^(k) by scanning the dense divided
powers entry by entry, and the running product took it as a full sparse
product, on the right or, in the peel, on the left.
``Representation.x``, ``GroupElement.times_x``, ``GroupElement.x_times``
and ``reps.unipotent_coordinates``, which read the sparse power index
instead, must give the same matrices and coordinates.
"""
from __future__ import annotations

from chevlab.linalg import ExactMatrix
from chevlab.reps import GroupElement, PeelError, Representation, _leading_coefficient
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


def x_times_by_product(g: GroupElement, root: Root, coeff: RingElement) -> GroupElement:
    """x_root(coeff) * g as the full product with the whole letter."""
    return dense_x(g.rep, root, coeff) * g


def unipotent_coordinates_by_product(g: GroupElement, roots_in_order: list[Root]) -> list:
    """The peel of ``reps.unipotent_coordinates``, taking each letter
    x_root(-t) off as a full product from the left."""
    residual = g
    coords = []
    for root in roots_in_order:
        t = _leading_coefficient(residual, root)
        coords.append((root, t))
        if not t.is_zero:
            residual = x_times_by_product(residual, root, -t)
    if not residual.is_identity:
        raise PeelError("element does not factor through " + ",".join(r.name for r in roots_in_order))
    return coords
