"""Symbol-by-symbol word evaluation, kept as the oracle.

This is how ``chevlab.words.evaluate`` worked before it multiplied the
word's elementary letters as one flat product: the product starts from the
identity and multiplies one matrix per symbol, a z symbol through
``z_matrix`` and a conjugate as the product of the three evaluated words
by, base and by^-1.  Both must give the same matrix for every word.
"""
from __future__ import annotations

from chevlab.reps import GroupElement, Representation
from chevlab.rings import MixedRings, Ring, RingElement
from chevlab.roots import Root
from chevlab.words import ConjSym, Word, WordError, XSym, ZSym


def z_matrix(rep: Representation, root: Root, xi: RingElement, eta: RingElement) -> GroupElement:
    """Conjugated generator x_{-a}(eta) x_a(xi) x_{-a}(-eta)."""
    return rep.x(-root, eta) * rep.x(root, xi) * rep.x(-root, -eta)


def evaluate_by_symbols(word: Word, rep: Representation, ring: Ring) -> GroupElement:
    out = rep.identity(ring)
    for sym in word.letters:
        out = out * _symbol_matrix(sym, rep, ring)
    return out


def _symbol_matrix(sym, rep: Representation, ring: Ring) -> GroupElement:
    if isinstance(sym, XSym):
        if sym.coeff.ring != ring:
            raise MixedRings(f"{sym.coeff.ring} vs {ring}")
        return rep.x(sym.root, sym.coeff)
    if isinstance(sym, ZSym):
        if sym.xi.ring != ring or sym.eta.ring != ring:
            raise MixedRings("z-symbol coefficients outside the ring")
        return z_matrix(rep, sym.root, sym.xi, sym.eta)
    if isinstance(sym, ConjSym):
        by = evaluate_by_symbols(sym.by, rep, ring)
        by_inv = evaluate_by_symbols(sym.by.inverse(), rep, ring)
        return by * evaluate_by_symbols(sym.base, rep, ring) * by_inv
    raise WordError(f"unknown symbol {sym!r}")
