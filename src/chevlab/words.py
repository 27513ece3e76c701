"""Group words over elementary and conjugated generators, plus membership
certificates.

Words store symbols, never matrices, so one factorization can be evaluated
over many coefficient rings.  A word evaluates as one flat product of its
elementary letters, with z symbols and conjugates expanded in place.  Over
Z/n, ``letter_stack_product`` multiplies many runs of letters, given as
root indices and residues, together: the k-th letters of all runs that
long are applied as one batched numpy product.  ``evaluate_stack`` reads
words into such runs; a caller that draws its letters directly, as the
Levi sampler does, feeds the runs in with no words built.
``evaluate_all`` gives many words' values as group elements: the rows of
one stack over Z/n, ``evaluate`` word by word over exact rings.  It is the
one place where the ring picks the evaluator.  Evaluations are not cached;
a certificate check whose predicted word is the certified word itself
skips both evaluations.

Certificates are small proof trees whose leaves are checkable by ideal
membership and congruence tests; the composite tags lean on the licensing
facts that level-IJ elementary subgroups sit inside the mixed commutator
subgroup and that the latter is normalized by every elementary element.
A level leaf must therefore name an ideal inside IJ.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .reps import GroupElement, Representation, RepresentationError, congruence_level_test
from .rings import (
    Ideal,
    InfiniteRing,
    MixedRings,
    Ring,
    RingElement,
    element_to_string,
    parse_element,
)
from .roots import Root, RootSystem, parse_root, root_name


class WordError(Exception):
    pass


@dataclass(frozen=True)
class XSym:
    root: Root
    coeff: RingElement


@dataclass(frozen=True)
class ZSym:
    root: Root
    xi: RingElement
    eta: RingElement


@dataclass(frozen=True)
class ConjSym:
    """by * base * by^-1."""

    base: "Word"
    by: "Word"


@dataclass(frozen=True)
class Word:
    letters: tuple

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def inverse(self) -> "Word":
        return Word(tuple(_invert_symbol(s) for s in reversed(self.letters)))

    def free_reduce(self) -> "Word":
        letters = list(self.letters)
        changed = True
        while changed:
            changed = False
            out: list = []
            for sym in letters:
                sym = _reduce_symbol(sym)
                if sym is None:
                    changed = True
                    continue
                if out:
                    merged = _merge_symbols(out[-1], sym)
                    if merged is not None:
                        out.pop()
                        if merged != ():
                            out.append(merged)
                        changed = True
                        continue
                out.append(sym)
            letters = out
        return Word(tuple(letters))

    def walk_x_letters(self, include_conjugators: bool = True):
        """Yield every X symbol in the tree (optionally conjugators too)."""
        for sym in self.letters:
            yield from _walk_x(sym, include_conjugators)

    def __str__(self) -> str:
        return word_to_sexpr(self)


def x_word(root: Root, coeff: RingElement) -> Word:
    return Word((XSym(root, coeff),))


def z_word(root: Root, xi: RingElement, eta: RingElement) -> Word:
    return Word((ZSym(root, xi, eta),))


def conj_word(base: Word, by: Word) -> Word:
    if by.is_empty:
        return base
    if base.is_empty:
        return base
    return Word((ConjSym(base, by),))


def commutator(a: Word, b: Word) -> Word:
    return (a * b * a.inverse() * b.inverse()).free_reduce()


def _invert_symbol(sym):
    if isinstance(sym, XSym):
        return XSym(sym.root, -sym.coeff)
    if isinstance(sym, ZSym):
        return ZSym(sym.root, -sym.xi, sym.eta)
    if isinstance(sym, ConjSym):
        return ConjSym(sym.base.inverse(), sym.by)
    raise WordError(f"unknown symbol {sym!r}")


def _reduce_symbol(sym):
    """None to drop, otherwise a (possibly rewritten) symbol."""
    if isinstance(sym, XSym):
        return None if sym.coeff.is_zero else sym
    if isinstance(sym, ZSym):
        return None if sym.xi.is_zero else sym
    if isinstance(sym, ConjSym):
        base = sym.base.free_reduce()
        if base.is_empty:
            return None
        return ConjSym(base, sym.by.free_reduce())
    raise WordError(f"unknown symbol {sym!r}")


def _merge_symbols(a, b):
    """Merged symbol, () to cancel both, or None when not mergeable."""
    if isinstance(a, XSym) and isinstance(b, XSym) and a.root == b.root:
        total = a.coeff + b.coeff
        return () if total.is_zero else XSym(a.root, total)
    if (
        isinstance(a, ZSym)
        and isinstance(b, ZSym)
        and a.root == b.root
        and a.eta == b.eta
    ):
        total = a.xi + b.xi
        return () if total.is_zero else ZSym(a.root, total, a.eta)
    if isinstance(a, ConjSym) and isinstance(b, ConjSym) and a.by == b.by:
        base = (a.base * b.base).free_reduce()
        return () if base.is_empty else ConjSym(base, a.by)
    return None


def _walk_x(sym, include_conjugators):
    if isinstance(sym, XSym):
        yield sym, False
    elif isinstance(sym, ZSym):
        yield XSym(-sym.root, sym.eta), False
        yield XSym(sym.root, sym.xi), False
        yield XSym(-sym.root, -sym.eta), False
    elif isinstance(sym, ConjSym):
        for letter in sym.base.letters:
            yield from _walk_x(letter, include_conjugators)
        if include_conjugators:
            for letter in sym.by.letters:
                for xs, _ in _walk_x(letter, include_conjugators):
                    yield xs, True


# ---------------------------------------------------------------------------
# evaluation


def evaluate(word: Word, rep: Representation, ring: Ring) -> GroupElement:
    """Left-to-right product of the word's elementary letters.

    Z symbols and conjugates are expanded in place (see ``_elementary``),
    so the running product, which starts from the first letter, only ever
    takes one elementary letter at a time (``GroupElement.times_x``).
    """
    out = None
    for sym in _elementary(word.letters, ring):
        if out is None:
            out = rep.x(sym.root, sym.coeff)
        else:
            out = out.times_x(sym.root, sym.coeff)
    if out is None:
        out = rep.identity(ring)
    return out


def evaluate_all(words: Iterable[Word], rep: Representation, ring: Ring) -> list[GroupElement]:
    """The values of many words, in order: over Z/n the rows of one
    ``evaluate_stack``, each equal to what ``evaluate`` gives; over exact
    rings ``evaluate`` of each word."""
    if ring.kind != "Zn":
        return [evaluate(word, rep, ring) for word in words]
    return [GroupElement(rep, ring, "np", row) for row in zip(*evaluate_stack(words, rep, ring))]


def evaluate_stack(words: Iterable[Word], rep: Representation, ring: Ring) -> tuple[np.ndarray, ...]:
    """The values of many words over Z/n at once, one (len(words), d, d)
    array of residues per block.

    Each word is read into the root indices and coefficients of its
    elementary letters as the iterable yields it, so the words need not be
    held together; ``letter_stack_product`` then multiplies the letters.
    """
    if ring.kind != "Zn":
        raise InfiniteRing(f"stacked evaluation needs a ring Z/n, not {ring}")
    index = rep._root_index
    roots, coeffs, ends = [], [], []
    for word in words:
        for sym in _elementary(word.letters, ring):
            if sym.root not in index:
                raise RepresentationError(f"{sym.root} does not belong to {rep.name}")
            roots.append(index[sym.root])
            coeffs.append(sym.coeff.payload)
        ends.append(len(roots))
    return letter_stack_product(roots, coeffs, ends, rep, ring.modulus)


def letter_stack_product(
    roots: list[int], coeffs: list[int], ends: list[int], rep: Representation, n: int
) -> tuple[np.ndarray, ...]:
    """The products over Z/n of many runs of letters x_root(coeff), one
    (len(ends), d, d) array of residues per block.

    All runs are one flat sequence of letters, run w ending at ends[w];
    roots index ``rep.system.roots`` and coeffs are residues mod n.  The
    runs are taken longest first, so that those with more than k letters
    are a prefix: position k is applied to that prefix at once, one
    batched product per block, and no run is padded.  The rows are put
    back in the order of ends at the end.
    """
    dtype = rep.np_dtype(n)
    ends = np.array(ends, dtype=np.intp)
    lengths = np.diff(ends, prepend=0)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    owner = np.repeat(rank, lengths)
    position = np.arange(len(roots)) - np.repeat(ends - lengths, lengths)
    root_table = np.zeros((len(ends), lengths.max(initial=0)), dtype=np.intp)
    coeff_table = np.zeros(root_table.shape, dtype=dtype)
    root_table[owner, position] = roots
    coeff_table[owner, position] = coeffs
    # active[k]: how many runs have more than k letters
    active = np.searchsorted(-lengths[order], -np.arange(root_table.shape[1]), side="left")
    out = tuple(np.tile(np.eye(d, dtype=dtype), (len(ends), 1, 1)) for d in rep.block_dims)
    for k, m in enumerate(active.tolist()):
        letters = rep.x_stack(root_table[:m, k], coeff_table[:m, k], n)
        for block, letter in zip(out, letters):
            block[:m] = (block[:m] @ letter) % n
    return tuple(block[rank] for block in out)


def _elementary(letters, ring: Ring):
    """The X symbols of the letters in product order: a z symbol as its
    three x letters (see ``_walk_x``), a conjugate as by, base, by^-1."""
    for sym in letters:
        if isinstance(sym, XSym):
            if sym.coeff.ring != ring:
                raise MixedRings(f"{sym.coeff.ring} vs {ring}")
            yield sym
        elif isinstance(sym, ZSym):
            if sym.xi.ring != ring or sym.eta.ring != ring:
                raise MixedRings("z-symbol coefficients outside the ring")
            yield from (xsym for xsym, _ in _walk_x(sym, False))
        elif isinstance(sym, ConjSym):
            yield from _elementary(sym.by.letters, ring)
            yield from _elementary(sym.base.letters, ring)
            yield from _elementary(sym.by.inverse().letters, ring)
        else:
            raise WordError(f"unknown symbol {sym!r}")


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LevelElement:
    """Every letter is elementary with coefficient in the ideal."""

    ideal: Ideal


@dataclass(frozen=True)
class GenCommutator:
    """word = [a, b] with a's letters of level I and b's of level J
    (or the two roles swapped when flipped is set)."""

    a: Word
    b: Word
    flipped: bool = False


@dataclass(frozen=True)
class ConjugateOf:
    inner: object
    inner_word: Word
    by: Word


@dataclass(frozen=True)
class ProductOf:
    parts: tuple  # of (Word, certificate)


LICENSED_TAGS = (GenCommutator, ConjugateOf, ProductOf, LevelElement)


def validate_certificate(
    cert,
    word: Word,
    ideal_i: Ideal,
    ideal_j: Ideal,
    rep: Representation,
    ring: Ring,
) -> bool:
    """Check a certificate's leaves and shape against its word.  Where the
    word the certificate predicts is the word itself, the two evaluations
    are skipped: equal words have equal values."""
    if isinstance(cert, LevelElement):
        if not ideal_i.product(ideal_j).contains_ideal(cert.ideal):
            return False
        for sym in word.letters:
            if not isinstance(sym, XSym):
                return False
        for xsym, _ in word.walk_x_letters(include_conjugators=False):
            if not cert.ideal.contains(xsym.coeff):
                return False
        return congruence_level_test(evaluate(word, rep, ring), cert.ideal)
    if isinstance(cert, GenCommutator):
        side_a, side_b = (ideal_j, ideal_i) if cert.flipped else (ideal_i, ideal_j)
        for xsym, _ in cert.a.walk_x_letters(include_conjugators=False):
            if not side_a.contains(xsym.coeff):
                return False
        for xsym, _ in cert.b.walk_x_letters(include_conjugators=False):
            if not side_b.contains(xsym.coeff):
                return False
        return _same_value(commutator(cert.a, cert.b), word, rep, ring)
    if isinstance(cert, ConjugateOf):
        if not validate_certificate(cert.inner, cert.inner_word, ideal_i, ideal_j, rep, ring):
            return False
        return _same_value(conj_word(cert.inner_word, cert.by), word, rep, ring)
    if isinstance(cert, ProductOf):
        for part_word, part_cert in cert.parts:
            if not validate_certificate(part_cert, part_word, ideal_i, ideal_j, rep, ring):
                return False
        parts = Word(tuple(sym for part_word, _ in cert.parts for sym in part_word.letters))
        return _same_value(parts, word, rep, ring)
    raise WordError(f"unknown certificate {cert!r}")


def _same_value(expect: Word, word: Word, rep: Representation, ring: Ring) -> bool:
    return expect == word or evaluate(expect, rep, ring) == evaluate(word, rep, ring)


def certificate_tags(cert) -> set[str]:
    """The set of tag names appearing in a certificate tree."""
    out = {type(cert).__name__}
    if isinstance(cert, ConjugateOf):
        out |= certificate_tags(cert.inner)
    if isinstance(cert, ProductOf):
        for _, sub in cert.parts:
            out |= certificate_tags(sub)
    return out


def certificate_to_json(cert) -> dict:
    if isinstance(cert, LevelElement):
        return {"tag": "LevelElement", "ideal": str(cert.ideal)}
    if isinstance(cert, GenCommutator):
        return {
            "tag": "GenCommutator",
            "a": word_to_sexpr(cert.a),
            "b": word_to_sexpr(cert.b),
            "flipped": cert.flipped,
        }
    if isinstance(cert, ConjugateOf):
        return {
            "tag": "ConjugateOf",
            "inner": certificate_to_json(cert.inner),
            "inner_word": word_to_sexpr(cert.inner_word),
            "by": word_to_sexpr(cert.by),
        }
    if isinstance(cert, ProductOf):
        return {
            "tag": "ProductOf",
            "parts": [
                {"word": word_to_sexpr(w), "certificate": certificate_to_json(c)}
                for w, c in cert.parts
            ],
        }
    raise WordError(f"unknown certificate {cert!r}")


# ---------------------------------------------------------------------------
# serialization


def _symbol_to_sexpr(sym) -> str:
    if isinstance(sym, XSym):
        return f"(x {root_name(sym.root)} {element_to_string(sym.coeff)})"
    if isinstance(sym, ZSym):
        return (
            f"(z {root_name(sym.root)} {element_to_string(sym.xi)} "
            f"{element_to_string(sym.eta)})"
        )
    if isinstance(sym, ConjSym):
        return f"(conj {word_to_sexpr(sym.base)} {word_to_sexpr(sym.by)})"
    raise WordError(f"unknown symbol {sym!r}")


def word_to_sexpr(word: Word) -> str:
    if len(word.letters) == 1:
        return _symbol_to_sexpr(word.letters[0])
    return "(w " + " ".join(_symbol_to_sexpr(s) for s in word.letters) + ")" if word.letters else "(w)"


def _tokenize_sexpr(text: str) -> list[str]:
    out = []
    cur = ""
    for ch in text:
        if ch in "()":
            if cur:
                out.append(cur)
                cur = ""
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append(cur)
                cur = ""
        else:
            cur += ch
    if cur:
        out.append(cur)
    return out


def parse_word(ring: Ring, system: RootSystem, text: str) -> Word:
    tokens = _tokenize_sexpr(text)
    pos = 0

    def parse_node():
        nonlocal pos
        if tokens[pos] != "(":
            raise WordError(f"expected '(' at token {pos} of {text!r}")
        pos += 1
        head = tokens[pos]
        pos += 1
        if head == "x":
            root = parse_root(system, tokens[pos]); pos += 1
            coeff = parse_element(ring, tokens[pos]); pos += 1
            node = XSym(root, coeff)
        elif head == "z":
            root = parse_root(system, tokens[pos]); pos += 1
            xi = parse_element(ring, tokens[pos]); pos += 1
            eta = parse_element(ring, tokens[pos]); pos += 1
            node = ZSym(root, xi, eta)
        elif head == "inv":
            node = _node_to_word(parse_node()).inverse()
        elif head == "conj":
            base = _node_to_word(parse_node())
            by = _node_to_word(parse_node())
            node = ConjSym(base, by)
        elif head == "w":
            symbols = []
            while tokens[pos] != ")":
                symbols.extend(_node_to_word(parse_node()).letters)
            node = Word(tuple(symbols))
        else:
            raise WordError(f"unknown head {head!r} in {text!r}")
        if tokens[pos] != ")":
            raise WordError(f"missing ')' in {text!r}")
        pos += 1
        return node

    node = parse_node()
    if pos != len(tokens):
        raise WordError(f"trailing tokens in {text!r}")
    return _node_to_word(node)


def _node_to_word(node) -> Word:
    if isinstance(node, Word):
        return node
    return Word((node,))
