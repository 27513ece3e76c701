import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chevlab.rings import (
    Ideal,
    InfiniteRing,
    MixedRings,
    ParseError,
    Ring,
    UnsupportedIdealShape,
    element_to_string,
    enumerate_elements,
    has_residue_field_f2,
    parse_element,
    parse_ideal,
    parse_ring,
    theta_condition_holds,
)

Z8 = Ring.mod(8)
Z9 = Ring.mod(9)
Z27 = Ring.mod(27)
PZ = Ring.polynomial(Ring.integers(), ("xi", "zeta", "eta"))


def test_modular_arithmetic_examples():
    assert Z8.element(5) + Z8.element(5) == Z8.element(2)
    assert Z9.element(3) * Z9.element(3) == Z9.element(0)
    assert -Z8.element(3) == Z8.element(5)


def test_polynomial_monomial_product():
    xi, zeta, _ = PZ.vars()
    assert xi * zeta == PZ.term(1, (1, 1, 0))
    assert element_to_string(xi * zeta) == "xi*zeta"


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_mod8_ring_axioms(a, b, c):
    x, y, z = Z8.element(a), Z8.element(b), Z8.element(c)
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2))
def test_poly_ring_axioms(a, b, e1, e2):
    xi, zeta, eta = PZ.vars()
    p = PZ.element(a) + xi ** e1 * zeta
    q = PZ.element(b) + eta ** e2
    assert p * q == q * p
    assert (p + q) - q == p


def test_mixed_rings_raises():
    with pytest.raises(MixedRings):
        Z8.element(1) + Z9.element(1)


def test_ideal_membership_examples():
    assert Ideal.of(Z8, [2]).contains(Z8.element(6))
    xi, zeta, eta = PZ.vars()
    assert Ideal.of(PZ, [xi * zeta]).contains(xi * zeta * zeta)
    assert not Ideal.of(Z27, [9]).contains(Z27.element(3))
    assert not Ideal.of(PZ, [xi * zeta]).contains(xi)
    assert Ideal.of(PZ, [PZ.element(2), zeta]).contains(2 * xi)


def test_ideal_membership_against_linear_combination_oracle():
    # exhaustive oracle over all R-linear combinations of the generators
    for n in (6, 8, 9, 12):
        ring = Ring.mod(n)
        for gens in [(2,), (3,), (4,), (2, 3), (6, 4)]:
            ideal = Ideal.of(ring, [ring.element(g) for g in gens])
            reachable = set()
            for coeffs in itertools.product(range(n), repeat=len(gens)):
                reachable.add(sum(c * g for c, g in zip(coeffs, gens)) % n)
            for x in range(n):
                assert ideal.contains(ring.element(x)) == (x in reachable)


def test_poly_ideal_membership_soundness_on_random_combinations():
    import random

    rng = random.Random(7)
    xi, zeta, eta = PZ.vars()
    ideal = Ideal.of(PZ, [xi, PZ.element(3) * zeta])
    gens = ideal.generator_elements()
    for _ in range(50):
        combo = PZ.zero
        for g in gens:
            coeff = PZ.element(rng.randint(-3, 3)) + eta ** rng.randint(0, 2)
            combo = combo + coeff * g
        assert ideal.contains(combo)


def _zero_ideal(ideal: Ideal) -> bool:
    """Whether the ideal holds 0 and none of 1..7: exactly the zero ideal
    over Z/8, and over Z for the generators used here."""
    return ideal.contains(ideal.ring.zero) and not any(
        ideal.contains(ideal.ring.element(k)) for k in range(1, 8)
    )


def test_scalar_ideals_over_z_and_zn():
    Z = Ring.integers()
    # the generator is the gcd of the inputs and the coefficient modulus
    assert Ideal.of(Z, [6, -4]).gens == (2,)
    assert Ideal.of(Z, []).gens == (0,)
    assert Ideal.of(Z8, [6, 12]).gens == (2,)
    assert Ideal.of(Z8, []).gens == (8,)
    assert Ideal.of(Z27, [18]).gens == (9,)
    even = Ideal.of(Z, [6, -4])
    for x in range(-20, 21):
        assert even.contains(Z.element(x)) == (x % 2 == 0)
    assert not Ideal.of(Z, [0]).contains(Z.one)
    for ring in (Z, Z8):
        assert _zero_ideal(Ideal.of(ring, [0])) and not _zero_ideal(Ideal.of(ring, [2]))
        # built by hand, outside the normal form
        hand = Ideal(ring, (0,))
        assert _zero_ideal(hand) and not hand.contains(ring.element(2))
    assert _zero_ideal(Ideal(Z8, (16,))) and not _zero_ideal(Ideal(Z8, (3,)))


def test_hand_built_scalar_generator_reduced_by_modulus():
    # (3) is the unit ideal of Z/8 and (6) is (2); membership reads gcd(g, n)
    assert all(Ideal(Z8, (3,)).contains(Z8.element(x)) for x in range(8))
    assert [x for x in range(8) if Ideal(Z8, (6,)).contains(Z8.element(x))] == [0, 2, 4, 6]
    assert [x for x in range(27) if Ideal(Z27, (12,)).contains(Z27.element(x))] == list(range(0, 27, 3))
    for zero in (0, 8, 16):
        assert [x for x in range(8) if Ideal(Z8, (zero,)).contains(Z8.element(x))] == [0]
    Z = Ring.integers()
    assert [x for x in range(-6, 7) if Ideal(Z, (3,)).contains(Z.element(x))] == [-6, -3, 0, 3, 6]
    assert not Ideal(Z, (0,)).contains(Z.one) and Ideal(Z, (0,)).contains(Z.zero)
    # Ideal.of already stores gcd(n, ...), unchanged
    assert Ideal.of(Z8, [3]).gens == (1,) and Ideal.of(Z8, [6]).gens == (2,)
    assert Ideal.of(Z8, [0]).gens == (8,) and Ideal.of(Z27, [12]).gens == (3,)


def test_ideal_shape_restriction():
    xi, zeta, _ = PZ.vars()
    with pytest.raises(UnsupportedIdealShape):
        Ideal.of(PZ, [xi + zeta])


def test_ideal_product_examples():
    assert _zero_ideal(Ideal.of(Z8, [2]).product(Ideal.of(Z8, [4])))
    assert Ideal.of(Z27, [3]).product(Ideal.of(Z27, [3])).same_as(
        Ideal.of(Z27, [9])
    )
    xi, zeta, _ = PZ.vars()
    assert Ideal.of(PZ, [xi]).product(Ideal.of(PZ, [zeta])).same_as(
        Ideal.of(PZ, [xi * zeta])
    )


def test_ideal_product_commutative_associative():
    ideals = [Ideal.of(Z27, [g]) for g in (3, 9, 27, 1)]
    for a in ideals:
        for b in ideals:
            assert a.product(b).same_as(b.product(a))
            for c in ideals:
                assert a.product(b).product(c).same_as(a.product(b.product(c)))


def test_residue_field_f2():
    assert has_residue_field_f2(Ring.integers())
    for n in range(2, 65):
        assert has_residue_field_f2(Ring.mod(n)) == (n % 2 == 0)
    assert has_residue_field_f2(Ring.polynomial(Z8, ("t",)))
    assert not has_residue_field_f2(Ring.polynomial(Z9, ("t",)))
    assert has_residue_field_f2(Ring.polynomial(Ring.integers(), ("t",)))


def _theta_oracle(n: int) -> bool:
    # literal exhaustive search for theta = a*theta^2 + 2*b*theta mod n
    for t in range(n):
        hit = any(
            (a * t * t + 2 * b * t) % n == t for a in range(n) for b in range(n)
        )
        if not hit:
            return False
    return True


def test_theta_condition():
    assert theta_condition_holds(Z9) is True
    assert theta_condition_holds(Z27) is True
    assert theta_condition_holds(Z8) is False
    for n in range(2, 28):
        assert theta_condition_holds(Ring.mod(n)) == _theta_oracle(n)
    with pytest.raises(InfiniteRing):
        theta_condition_holds(Ring.integers())
    with pytest.raises(InfiniteRing):
        theta_condition_holds(PZ)


def test_enumerate_elements():
    assert [e.payload for e in enumerate_elements(Ring.mod(4))] == [0, 1, 2, 3]
    assert len(list(enumerate_elements(Z27))) == 27
    assert len(list(enumerate_elements(Z9))) == 9
    with pytest.raises(InfiniteRing):
        list(enumerate_elements(Ring.integers()))


def test_ring_parsing():
    assert str(parse_ring("Z")) == "Z"
    assert str(parse_ring("Z/8")) == "Z/8"
    assert str(parse_ring("Z[xi,zeta,eta]")) == "Z[xi,zeta,eta]"
    assert str(parse_ring("Z/9[t]")) == "Z/9[t]"
    with pytest.raises(ParseError):
        parse_ring("Z/1")
    with pytest.raises(ParseError):
        parse_ring("Q")


def test_element_string_round_trip():
    xi, zeta, eta = PZ.vars()
    samples = [
        PZ.zero,
        PZ.element(-7),
        xi,
        2 * xi * zeta ** 2 - zeta + 5,
        -xi + eta ** 3,
        Z8.element(5),
        Z27.element(26),
    ]
    for e in samples:
        assert parse_element(e.ring, element_to_string(e)) == e


def test_ideal_parsing():
    assert parse_ideal(Z8, "2").same_as(Ideal.of(Z8, [2]))
    ideal = parse_ideal(parse_ring("Z/9[t]"), "3,t")
    assert len(ideal.gens) == 2

