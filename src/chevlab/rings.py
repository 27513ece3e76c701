"""Exact arithmetic for Z, Z/n and polynomial rings over them.

Every ring has one coefficient modulus ``_cmod``: 0 for Z, n for Z/n, and
its base's for a polynomial ring.  It alone decides reduction: arithmetic
on integers and coefficients is one path, which reduces into [0, n) when
the modulus n is nonzero and leaves the integer as it is when it is 0.

Elements are immutable.  A scalar is one integer; a polynomial is a map
from packed monomial to nonzero coefficient.  A packed monomial is one int
holding the exponent of variable i in the field of ``FIELD_BITS`` bits that
starts at bit ``FIELD_BITS * i``; the top bit of each field is a guard bit,
so an exponent is at most ``MAX_EXPONENT``.  Multiplying two monomials is
one integer addition.  Each field of such a sum stays below 2^FIELD_BITS, so
an exponent that outgrows its field sets that field's guard bit without
carrying into the next one, and the product is refused with
:class:`DegreeOverflow` instead of wrapping.  The layout is that of Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors" (CASC
2007); no other module knows it.

Equality and hashing are on the term map, whatever order the terms were
inserted in.  The canonical order -- graded lexicographic, highest first --
is a property of display: only ``RingElement.terms``, the read-only
(exponents, coefficient) view that other code reads, and
``element_to_string`` sort.  Anything built from elements (matrices, words)
therefore still hashes and prints deterministically.

Ideals are finitely generated and kept in a normal form for which
membership is decidable by inspection:

* in Z and Z/n, a single generator: the gcd of the inputs and the
  coefficient modulus (non-negative in Z, a divisor of n in Z/n);
* in a polynomial ring, a list of *terms* c*x^e (this covers variables,
  base-ring constants, and products of such, which is everything the
  symbolic verification needs).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


class RingError(Exception):
    """Base class for ring-layer errors."""


class MixedRings(RingError):
    """Operands belong to different rings."""


class InfiniteRing(RingError):
    """Operation requires a finite ring."""


class UnsupportedIdealShape(RingError):
    """Ideal generators outside the supported term shape."""


class ParseError(RingError):
    """Malformed ring / element / ideal specification string."""


class DegreeOverflow(RingError):
    """An exponent above MAX_EXPONENT, which a packed monomial cannot hold."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


@dataclass(frozen=True)
class Ring:
    """A commutative ring with 1: Z, Z/n, or polynomials over one of those.
    Its ``zero`` and ``one`` are built once, with the ring."""

    kind: str  # "Z" | "Zn" | "poly"
    modulus: int | None = None
    base: "Ring | None" = None
    variables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # the coefficient modulus of the module docstring; a plain attribute,
        # not a field, like the packed layout below
        if self.kind == "Z":
            if self.modulus is not None or self.base is not None or self.variables:
                raise ValueError("malformed integer ring")
            object.__setattr__(self, "_cmod", 0)
        elif self.kind == "Zn":
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
            if self.base is not None or self.variables:
                raise ValueError("malformed modular ring")
            object.__setattr__(self, "_cmod", self.modulus)
        elif self.kind == "poly":
            if self.base is None or self.base.kind not in ("Z", "Zn"):
                raise ValueError("polynomial base must be Z or Z/n")
            if not self.variables:
                raise ValueError("polynomial ring needs at least one variable")
            if len(set(self.variables)) != len(self.variables):
                raise ValueError("duplicate variable names")
            for name in self.variables:
                if not _NAME_RE.match(name):
                    raise ValueError(f"bad variable name {name!r}")
            object.__setattr__(self, "_cmod", self.base._cmod)
            # the packed layout; plain attributes, not fields, so equality,
            # hashing and repr of rings ignore them
            shifts = tuple(FIELD_BITS * i for i in range(len(self.variables)))
            object.__setattr__(self, "_shifts", shifts)
            object.__setattr__(self, "_guards", sum(1 << (s + FIELD_BITS - 1) for s in shifts))
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        # zero and one are built once, as plain attributes too
        poly = self.kind == "poly"
        object.__setattr__(self, "zero", RingElement(self, {} if poly else 0))
        object.__setattr__(self, "one", RingElement(self, {0: 1} if poly else 1))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def integers() -> "Ring":
        return Ring("Z")

    @staticmethod
    def mod(n: int) -> "Ring":
        return Ring("Zn", modulus=n)

    @staticmethod
    def polynomial(base: "Ring", variables: tuple[str, ...] | list[str]) -> "Ring":
        return Ring("poly", base=base, variables=tuple(variables))

    # -- elements ----------------------------------------------------------

    def element(self, value: int) -> "RingElement":
        """Canonical element from an integer (constant for poly rings)."""
        if self.kind == "poly":
            return self._poly({0: int(value)})
        n = self._cmod
        return RingElement(self, int(value) % n if n else int(value))

    def var(self, name: str) -> "RingElement":
        if self.kind != "poly":
            raise RingError(f"{self} has no variables")
        i = self.variables.index(name)
        return RingElement(self, {1 << self._shifts[i]: 1})

    def vars(self) -> tuple["RingElement", ...]:
        return tuple(self.var(v) for v in self.variables)

    def term(self, coeff: int, exponents: tuple[int, ...]) -> "RingElement":
        if self.kind != "poly":
            raise RingError(f"{self} has no monomials")
        return self._poly({self._pack(exponents): coeff})

    def from_dict(self, d: dict) -> "RingElement":
        """Element from an exponent-tuple -> coefficient dict (poly rings only)."""
        if self.kind != "poly":
            raise RingError(f"{self} has no monomials")
        return self._poly({self._pack(exp): c for exp, c in d.items()})

    def sum_of_products(self, pairs, start: "RingElement | None" = None) -> "RingElement":
        """start + sum(a * b for a, b in pairs) over elements of this ring,
        with no start taken as zero: the accumulator begins as a copy of the
        start's terms, every product goes into it, and one element is built.
        Of each pair the shorter polynomial is the outer loop."""
        if self.kind != "poly":
            s = sum(a.payload * b.payload for a, b in pairs)
            if start is not None:
                s += start.payload
            n = self._cmod
            return RingElement(self, s % n if n else s)
        acc: dict[int, int] = {} if start is None else dict(start.payload)
        get = acc.get
        for a, b in pairs:
            outer, inner = a.payload, b.payload
            if len(outer) > len(inner):
                outer, inner = inner, outer
            inner = inner.items()
            for m1, c1 in outer.items():
                for m2, c2 in inner:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
        return self._poly(acc)

    def combination(self, ints, elements) -> "RingElement":
        """sum(v * e for v, e in zip(ints, elements)) for plain integers v:
        each element's terms scaled into one accumulator, which is then
        reduced as a product is."""
        if self.kind != "poly":
            s, n = sum(v * e.payload for v, e in zip(ints, elements)), self._cmod
            return RingElement(self, s % n if n else s)
        acc: dict[int, int] = {}
        get = acc.get
        for v, e in zip(ints, elements):
            if v:
                for m, c in e.payload.items():
                    acc[m] = get(m, 0) + v * c
        return self._poly(acc)

    # -- packed monomials (poly rings) ----------------------------------------

    def _pack(self, exponents) -> int:
        exps = tuple(exponents)
        if len(exps) != len(self.variables):
            raise RingError(f"{self} needs {len(self.variables)} exponents, got {exps}")
        m = 0
        for name, e, s in zip(self.variables, exps, self._shifts):
            if e < 0:
                raise RingError(f"negative exponent {name}^{e} in {self}")
            if e > MAX_EXPONENT:
                raise DegreeOverflow(
                    f"{name}^{e} exceeds the largest exponent {MAX_EXPONENT} of {self}"
                )
            m |= e << s
        return m

    def _unpack(self, m: int) -> tuple[int, ...]:
        return tuple((m >> s) & ((1 << FIELD_BITS) - 1) for s in self._shifts)

    def _poly(self, acc: dict) -> "RingElement":
        """Element from a packed monomial -> coefficient map: coefficients
        reduced, zero terms dropped, and a surviving monomial with a guard
        bit set refused.  It takes ownership of ``acc``: every caller passes
        a dict it built for this call, and over Z one without a zero
        coefficient becomes the payload as it is."""
        n = self._cmod
        if n:
            d = {m: r for m, c in acc.items() if (r := c % n)}
        elif 0 in acc.values():
            d = {m: c for m, c in acc.items() if c}
        else:
            d = acc
        if d and reduce(or_, d) & self._guards:
            # the fields of a sum of two packed monomials hold its true
            # exponents, so repacking them raises DegreeOverflow
            self._pack(self._unpack(next(m for m in d if m & self._guards)))
        return RingElement(self, d)

    def __str__(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Zn":
            return f"Z/{self.modulus}"
        return f"{self.base}[{','.join(self.variables)}]"


class RingElement:
    """Immutable element of a :class:`Ring`.

    ``payload`` is the residue for Z and Z/n, and for a polynomial the packed
    monomial -> coefficient map, which is never mutated; other modules read
    polynomial terms through :attr:`terms`.
    """

    __slots__ = ("ring", "payload", "_hash")

    def __init__(self, ring: Ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RingElement is immutable")

    # -- plumbing ----------------------------------------------------------

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise MixedRings(f"{other.ring} vs {self.ring}")
            return other
        if isinstance(other, int):
            return self.ring.element(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.element(other)
        return (
            isinstance(other, RingElement)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        if self._hash is None:
            p = self.payload
            items = frozenset(p.items()) if isinstance(p, dict) else p
            object.__setattr__(self, "_hash", hash((self.ring, items)))
        return self._hash

    @property
    def is_zero(self) -> bool:
        return not self.payload

    @property
    def terms(self) -> tuple:
        """The (exponents, coefficient) pairs of a polynomial in canonical
        graded lexicographic order, highest first."""
        r = self.ring
        if r.kind != "poly":
            raise RingError(f"{r} has no monomials")
        items = [(r._unpack(m), c) for m, c in self.payload.items()]
        items.sort(key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return tuple(items)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r = self.ring
        if r.kind == "poly":
            d = dict(self.payload)
            for m, c in other.payload.items():
                d[m] = d.get(m, 0) + c
            return r._poly(d)
        s, n = self.payload + other.payload, r._cmod
        return RingElement(r, s % n if n else s)

    __radd__ = __add__

    def __neg__(self):
        r = self.ring
        if r.kind == "poly":
            return r._poly({m: -c for m, c in self.payload.items()})
        n = r._cmod
        return RingElement(r, -self.payload % n if n else -self.payload)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.element(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r = self.ring
        if r.kind == "poly":
            return r.sum_of_products(((self, other),))
        s, n = self.payload * other.payload, r._cmod
        return RingElement(r, s % n if n else s)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise RingError("negative powers are not defined")
        if k == 0:
            return self.ring.one
        # square and multiply; the base is squared only while bits of k
        # remain, so no power above self ** k is formed
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else base * out
            k >>= 1
            if not k:
                return out
            base = base * base

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return element_to_string(self)

    def __repr__(self) -> str:
        return f"<{self.ring}: {element_to_string(self)}>"


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal in normal form (see module docstring)."""

    ring: Ring
    gens: tuple

    @staticmethod
    def of(ring: Ring, elements) -> "Ideal":
        """Build an ideal from ring elements (or ints), normalizing."""
        elems = [e if isinstance(e, RingElement) else ring.element(e) for e in elements]
        for e in elems:
            if e.ring != ring:
                raise MixedRings(f"{e.ring} vs {ring}")
        if ring.kind != "poly":
            return Ideal(ring, (math.gcd(ring._cmod, *(e.payload for e in elems)),))
        terms = []
        for e in elems:
            if e.is_zero:
                continue
            single = e.terms
            if len(single) != 1:
                raise UnsupportedIdealShape(
                    f"generator {e} is not a term (monomial times constant)"
                )
            terms.append(single[0])
        return Ideal(ring, _normalize_terms(ring, terms))

    # -- membership ----------------------------------------------------------

    def contains(self, x: RingElement) -> bool:
        if x.ring != self.ring:
            raise MixedRings(f"{x.ring} vs {self.ring}")
        if self.ring.kind != "poly":
            (g,) = self.gens
            g = math.gcd(g, self.ring._cmod)
            return x.payload % g == 0 if g else x.payload == 0
        for exp, c in x.terms:
            g = 0
            for gexp, gc in self.gens:
                if all(a >= b for a, b in zip(exp, gexp)):
                    g = math.gcd(g, gc)
            g = math.gcd(g, self.ring._cmod)
            if g == 0 or c % g:
                return False
        return True

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(e) for e in other.generator_elements())

    def same_as(self, other: "Ideal") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    # -- operations -----------------------------------------------------------

    def product(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise MixedRings(f"{other.ring} vs {self.ring}")
        pairs = [
            a * b
            for a in self.generator_elements()
            for b in other.generator_elements()
        ]
        return Ideal.of(self.ring, pairs)

    def generator_elements(self) -> list[RingElement]:
        r = self.ring
        if r.kind != "poly":
            return [r.element(self.gens[0])]
        return [r.term(c, exp) for exp, c in self.gens]

    def element_values(self) -> list[RingElement]:
        """All elements of the ideal (finite rings only), ascending."""
        r = self.ring
        if r.kind != "Zn":
            raise InfiniteRing(str(r))
        (d,) = self.gens
        if d % r.modulus == 0:
            return [r.zero]
        return [r.element(k) for k in range(0, r.modulus, d)]

    def __str__(self) -> str:
        gens = ",".join(element_to_string(e) for e in self.generator_elements())
        return f"({gens})"


def _normalize_terms(ring: Ring, terms: list) -> tuple:
    """Canonical generator list for a term ideal in a polynomial ring."""
    n = ring._cmod
    by_exp: dict = {}
    for exp, c in terms:
        c = c % n if n else abs(c)
        if c:
            by_exp[exp] = math.gcd(by_exp.get(exp, 0), c)
    items = list(by_exp.items())
    # drop a term when the others already generate it
    changed = True
    while changed:
        changed = False
        for i, (exp, c) in enumerate(items):
            g = 0
            for j, (oexp, oc) in enumerate(items):
                if j != i and all(a >= b for a, b in zip(exp, oexp)):
                    g = math.gcd(g, oc)
            g = math.gcd(g, n)
            if g and c % g == 0:
                items.pop(i)
                changed = True
                break
    items.sort(key=lambda kv: ((sum(kv[0]), kv[0]), kv[1]))
    return tuple(items)


# ---------------------------------------------------------------------------
# ring predicates and enumeration


def has_residue_field_f2(ring: Ring) -> bool:
    """Whether some maximal ideal of the ring has a 2-element residue field:
    whether 2 divides the coefficient modulus (0 for Z and Z[...])."""
    return ring._cmod % 2 == 0


def theta_condition_holds(ring: Ring) -> bool:
    """Whether every theta lies in theta^2*R + 2*theta*R.

    Over Z/n this holds iff 4 does not divide n.  By the Chinese remainder
    theorem it is enough to look at each Z/p^k: at odd p, 2 is a unit, so
    theta = (2 theta) * 2^-1; in Z/2 every theta is theta^2; in Z/2^k with
    k >= 2, theta = 2^(k-1) has theta^2 = 2 theta = 0.  Only decidable here
    for finite rings; refuses to guess otherwise.
    """
    if ring.kind != "Zn":
        raise InfiniteRing(f"cannot decide theta condition over {ring}")
    return ring.modulus % 4 != 0


def enumerate_elements(ring: Ring) -> Iterator[RingElement]:
    """Each element exactly once, in a deterministic order."""
    if ring.kind != "Zn":
        raise InfiniteRing(str(ring))
    for k in range(ring.modulus):
        yield ring.element(k)


# ---------------------------------------------------------------------------
# parsing and printing


def parse_ring(spec: str) -> Ring:
    """Parse ring spec strings like "Z", "Z/8", "Z[xi,zeta]", "Z/9[t]"."""
    s = spec.strip().replace(" ", "")
    m = re.fullmatch(r"Z(?:/(\d+))?(?:\[([A-Za-z_0-9,]+)\])?", s)
    if not m:
        raise ParseError(f"bad ring spec {spec!r}")
    base = Ring.integers()
    if m.group(1) is not None:
        n = int(m.group(1))
        if n < 2:
            raise ParseError(f"modulus must be >= 2 in {spec!r}")
        base = Ring.mod(n)
    if m.group(2) is None:
        return base
    names = tuple(v for v in m.group(2).split(",") if v)
    if not names:
        raise ParseError(f"empty variable list in {spec!r}")
    return Ring.polynomial(base, names)


def element_to_string(e: RingElement) -> str:
    """Canonical, re-parseable text form of an element."""
    r = e.ring
    if r.kind != "poly":
        return str(e.payload)
    if e.is_zero:
        return "0"
    parts = []
    for exp, c in e.terms:
        factors = []
        for name, k in zip(r.variables, exp):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        if not factors:
            term = str(c)
        elif c == 1:
            term = "*".join(factors)
        elif c == -1:
            term = "-" + "*".join(factors)
        else:
            term = str(c) + "*" + "*".join(factors)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^()]")


def parse_element(ring: Ring, text: str) -> RingElement:
    """Parse an element expression: ints, variables, + - * ^ and parens."""
    tokens = _TOKEN_RE.findall(text.replace(" ", ""))
    if "".join(tokens) != text.replace(" ", ""):
        raise ParseError(f"bad element expression {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ParseError(f"unexpected end of {text!r}")
        pos += 1
        return tokens[pos - 1]

    def parse_expr() -> RingElement:
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> RingElement:
        node = parse_factor()
        while peek() == "*":
            take()
            node = node * parse_factor()
        return node

    def parse_factor() -> RingElement:
        node = parse_atom()
        if peek() == "^":
            take()
            tok = take()
            if not tok.isdigit():
                raise ParseError(f"bad exponent in {text!r}")
            node = node ** int(tok)
        return node

    def parse_atom() -> RingElement:
        tok = take()
        if tok == "-":
            return -parse_factor()
        if tok == "+":
            return parse_factor()
        if tok == "(":
            node = parse_expr()
            if peek() != ")":
                raise ParseError(f"missing ')' in {text!r}")
            take()
            return node
        if tok.isdigit():
            return ring.element(int(tok))
        if ring.kind == "poly" and tok in ring.variables:
            return ring.var(tok)
        raise ParseError(f"unknown name {tok!r} in {text!r}")

    out = parse_expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input in {text!r}")
    return out


def parse_ideal(ring: Ring, text: str) -> Ideal:
    """Parse comma-separated ideal generators, e.g. "2", "xi", "3,t"."""
    parts = [p for p in text.replace(" ", "").split(",") if p]
    return Ideal.of(ring, [parse_element(ring, p) for p in parts])
