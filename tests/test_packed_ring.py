"""The packed polynomial ring against a plain reference, and its degree bound.

``RefPoly`` is the representation the ring used before monomials were
packed: exponent tuples mapped to coefficients, reduced into [0, n) over Z/n,
no zero terms.  Every arithmetic operation of ``chevlab.rings`` on polynomials
must agree with it term by term, in the canonical display order.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from chevlab.rings import (
    MAX_EXPONENT,
    DegreeOverflow,
    Ring,
    RingError,
    element_to_string,
    parse_element,
)


class RefPoly:
    def __init__(self, nvars: int, modulus: int, terms: dict):
        self.nvars = nvars
        self.modulus = modulus
        self.terms = {}
        for exp, c in terms.items():
            if modulus:
                c %= modulus
            if c:
                self.terms[exp] = c

    def _new(self, terms: dict) -> "RefPoly":
        return RefPoly(self.nvars, self.modulus, terms)

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return self._new(out)

    def __neg__(self):
        return self._new({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return self._new(out)

    def __pow__(self, k: int):
        out = self._new({(0,) * self.nvars: 1})
        for _ in range(k):
            out = out * self
        return out

    def canonical(self) -> tuple:
        return tuple(sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True))


NAMES = ("xi", "zeta", "eta")


@st.composite
def ring_and_polys(draw, count: int):
    nvars = draw(st.integers(1, 3))
    modulus = draw(st.sampled_from([0, 2, 3, 4, 6, 9, 12, 97]))
    base = Ring.mod(modulus) if modulus else Ring.integers()
    ring = Ring.polynomial(base, NAMES[:nvars])
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    poly = st.dictionaries(exps, st.integers(-30, 30), max_size=6)
    refs = [RefPoly(nvars, modulus, draw(poly)) for _ in range(count)]
    return ring, refs


def packed(ring: Ring, ref: RefPoly):
    return ring.from_dict(ref.terms)


def same(e, ref: RefPoly) -> bool:
    return e.terms == ref.canonical() and e == packed(e.ring, ref)


@settings(max_examples=150, deadline=None)
@given(ring_and_polys(2), st.integers(0, 4))
def test_packed_arithmetic_matches_reference(data, k):
    ring, (p, q) = data
    a, b = packed(ring, p), packed(ring, q)
    assert same(a, p) and same(b, q)
    assert same(a + b, p + q)
    assert same(a - b, p - q)
    assert same(-a, -p)
    assert same(a * b, p * q)
    assert same(a ** k, p ** k)


@settings(max_examples=100, deadline=None)
@given(ring_and_polys(1), st.randoms(use_true_random=False))
def test_equality_and_hash_ignore_insertion_order(data, rnd):
    ring, (p,) = data
    items = list(p.terms.items())
    a = ring.from_dict(dict(items))
    rnd.shuffle(items)
    b = ring.from_dict(dict(items))
    # the same polynomial again, summed term by term in the shuffled order
    c = ring.zero
    for exp, coeff in items:
        c = c + ring.term(coeff, exp)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert element_to_string(a) == element_to_string(b) == element_to_string(c)


@settings(max_examples=100, deadline=None)
@given(ring_and_polys(1))
def test_string_round_trip(data):
    ring, (p,) = data
    e = packed(ring, p)
    assert parse_element(ring, str(e)) == e


PZ = Ring.polynomial(Ring.integers(), NAMES)


def test_degree_bound_on_terms_and_dicts():
    top = (MAX_EXPONENT, 0, MAX_EXPONENT)
    assert PZ.term(3, top).terms == ((top, 3),)
    assert PZ.from_dict({top: 1, (0, 0, 0): 2}).terms == ((top, 1), ((0, 0, 0), 2))
    with pytest.raises(DegreeOverflow, match=rf"zeta\^{MAX_EXPONENT + 1} .*Z\[xi,zeta,eta\]"):
        PZ.term(1, (0, MAX_EXPONENT + 1, 0))
    with pytest.raises(DegreeOverflow, match=r"eta\^"):
        PZ.from_dict({(0, 0, MAX_EXPONENT + 1): 1})
    with pytest.raises(RingError, match="negative exponent"):
        PZ.term(1, (0, -1, 0))
    with pytest.raises(RingError, match="needs 3 exponents"):
        PZ.term(1, (1, 1))


def test_degree_bound_on_products():
    half = MAX_EXPONENT // 2 + 1
    low = PZ.term(1, (0, half - 1, 0))
    high = PZ.term(1, (0, half, 0))
    assert low * high == PZ.term(1, (0, MAX_EXPONENT, 0))
    # the carry stops at zeta's guard bit: it neither wraps nor reaches eta
    with pytest.raises(DegreeOverflow, match=rf"zeta\^{2 * half} "):
        high * high
    with pytest.raises(DegreeOverflow):
        PZ.sum_of_products([(PZ.one, PZ.one), (high, high + 1)])
    # a product term whose coefficient vanishes mod n is exact, not refused
    Z4X = Ring.polynomial(Ring.mod(4), ("xi",))
    two_high = Z4X.term(2, (half,))
    assert (two_high * two_high).is_zero


def test_degree_bound_through_the_parser():
    assert parse_element(PZ, f"xi^{MAX_EXPONENT}") == PZ.term(1, (MAX_EXPONENT, 0, 0))
    with pytest.raises(DegreeOverflow, match=rf"xi\^{MAX_EXPONENT + 1} "):
        parse_element(PZ, f"xi^{MAX_EXPONENT + 1}")
    with pytest.raises(DegreeOverflow):
        parse_element(PZ, "xi^40000")
    assert parse_element(PZ, "2^40000") == PZ.element(2**40000)


EVERY_RING_KIND = (Ring.integers(), Ring.mod(12), PZ, Ring.polynomial(Ring.mod(9), ("t",)))


def _elements(ring, rng) -> list:
    if ring.kind == "poly":
        gens = list(ring.vars()) + [ring.element(3)]
        return [ring.element(rng.randrange(-9, 9)) + rng.choice(gens) * rng.choice(gens)
                for _ in range(8)]
    return [ring.element(rng.randrange(-99, 99)) for _ in range(8)]


def test_sum_of_products_every_ring_kind():
    rng = random.Random(5)
    for ring in EVERY_RING_KIND:
        elems = _elements(ring, rng)
        pairs = list(zip(elems[:4], elems[4:]))
        plain = ring.zero
        for a, b in pairs:
            plain = plain + a * b
        assert ring.sum_of_products(pairs) == plain
        assert ring.sum_of_products([]) == ring.zero


def test_sum_of_products_from_a_start_every_ring_kind():
    rng = random.Random(6)
    for ring in EVERY_RING_KIND:
        elems = _elements(ring, rng)
        pairs = list(zip(elems[:4], elems[4:]))
        start = elems[0] - elems[5]
        before = start.payload.copy() if ring.kind == "poly" else start.payload
        total = ring.sum_of_products(pairs, start)
        assert total == ring.sum_of_products([(start, ring.one)] + pairs)
        assert ring.sum_of_products([], start) == start
        # total cancellation to zero
        assert ring.sum_of_products(pairs, -ring.sum_of_products(pairs)).is_zero
        assert start.payload == before
        if ring.kind == "poly":
            assert 0 not in total.payload.values()


def test_start_cancellation_and_degree_guard():
    xi, zeta, eta = PZ.vars()
    start = xi + zeta
    before = dict(start.payload)
    # xi cancels: its monomial leaves the term map instead of keeping a 0
    partial = PZ.sum_of_products([(xi, PZ.element(-1)), (eta, eta)], start)
    assert partial == zeta + eta * eta and 0 not in partial.payload.values()
    assert start.payload == before
    half = MAX_EXPONENT // 2 + 1
    high = PZ.term(1, (0, half, 0))
    with pytest.raises(DegreeOverflow):
        PZ.sum_of_products([(high, high)], PZ.one)
    # a guard-bit monomial whose coefficient vanishes mod n is exact
    Z4X = Ring.polynomial(Ring.mod(4), ("xi",))
    two_high = Z4X.term(2, (half,))
    assert Z4X.sum_of_products([(two_high, two_high)], Z4X.one) == Z4X.one


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([0, 4, 9]), st.integers(1, 3), st.data())
def test_combination_matches_reference(modulus, nvars, data):
    base = Ring.mod(modulus) if modulus else Ring.integers()
    ring = Ring.polynomial(base, NAMES[:nvars])
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    refs = [RefPoly(nvars, modulus, data.draw(st.dictionaries(exps, st.integers(-30, 30), max_size=6)))
            for _ in range(3)]
    ints = data.draw(st.lists(st.integers(-12, 12), min_size=3, max_size=3))
    expect = RefPoly(nvars, modulus, {})
    for v, p in zip(ints, refs):
        expect = expect + RefPoly(nvars, modulus, {(0,) * nvars: v}) * p
    assert same(ring.combination(ints, [packed(ring, p) for p in refs]), expect)


def test_combination_every_ring_kind_and_vanishing_multiples():
    for ring in (Ring.integers(), Ring.mod(12)):
        a, b = ring.element(7), ring.element(-5)
        assert ring.combination((3, -2), (a, b)) == 3 * a - 2 * b
    # v * c == 0: 3 * 3xi over Z/9 and 2 * 2xi over Z/4
    for n, v in ((9, 3), (4, 2)):
        ring = Ring.polynomial(Ring.mod(n), ("xi",))
        (xi,) = ring.vars()
        assert ring.combination((v,), (v * xi,)).is_zero
        assert ring.combination((v, 1), (v * xi, xi * xi)) == xi * xi
    xi, zeta, _ = PZ.vars()
    # the zip stops at the shorter argument, and a zero multiple adds nothing
    assert PZ.combination((1, 0, 5), (xi, zeta)) == xi
    cancelled = PZ.combination((1, -1), (xi + zeta, xi))
    assert cancelled == zeta and 0 not in cancelled.payload.values()
