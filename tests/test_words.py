import random

import pytest

from chevlab.reps import congruence_level_test, get_representation
from chevlab.rings import Ideal, Ring
from chevlab.words import (
    ConjugateOf,
    GenCommutator,
    LevelElement,
    ProductOf,
    Word,
    commutator,
    conj_word,
    evaluate,
    parse_word,
    validate_certificate,
    word_to_sexpr,
    x_word,
    z_word,
)

Z8 = Ring.mod(8)
A2 = get_representation("A2")
C2 = get_representation("C2")


def _random_word(rng, rep, ring, depth=0):
    letters = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        root = rng.choice(rep.system.roots)
        t = ring.element(rng.randrange(ring.modulus))
        s = ring.element(rng.randrange(ring.modulus))
        if kind < 0.5 or depth > 1:
            letters.extend(x_word(root, t).letters)
        elif kind < 0.8:
            letters.extend(z_word(root, t, s).letters)
        else:
            base = _random_word(rng, rep, ring, depth + 1)
            by = _random_word(rng, rep, ring, depth + 1)
            letters.extend(conj_word(base, by).letters)
    return Word(tuple(letters))


def test_empty_word_is_identity():
    assert evaluate(Word(()), A2, Z8).is_identity


def test_opposite_pair_commutator_is_nontrivial():
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta"))
    xi, zeta = ring.vars()
    root = A2.system.root((1, 0))
    w = commutator(x_word(root, xi), x_word(-root, zeta))
    assert not evaluate(w, A2, ring).is_identity


def test_conj_evaluation_definition():
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta"))
    xi, zeta = ring.vars()
    a = A2.system.root((1, 0))
    b = A2.system.root((0, 1))
    lhs = evaluate(conj_word(x_word(a, xi), x_word(b, zeta)), A2, ring)
    rhs = A2.x(b, zeta) * A2.x(a, xi) * A2.x(b, -zeta)
    assert lhs == rhs


def test_evaluate_is_multiplicative():
    rng = random.Random(3)
    for _ in range(30):
        w1 = _random_word(rng, A2, Z8)
        w2 = _random_word(rng, A2, Z8)
        assert evaluate(w1 * w2, A2, Z8) == evaluate(w1, A2, Z8) * evaluate(w2, A2, Z8)


def test_free_reduction_preserves_evaluation():
    rng = random.Random(4)
    for _ in range(40):
        w = _random_word(rng, C2, Z8)
        padded = w * w.inverse() * w
        reduced = padded.free_reduce()
        assert evaluate(reduced, C2, Z8) == evaluate(w, C2, Z8)


def test_commutator_with_empty_reduces_to_empty():
    rng = random.Random(5)
    w = _random_word(rng, A2, Z8)
    assert commutator(w, Word(())).is_empty


def test_commutator_identities_on_random_words():
    # [x, yz] = [x, y] * ^y [x, z] and [xy, z] = ^x [y, z] * [x, z]
    rng = random.Random(6)
    for _ in range(25):
        x = _random_word(rng, A2, Z8)
        y = _random_word(rng, A2, Z8)
        z = _random_word(rng, A2, Z8)
        lhs = evaluate(commutator(x, y * z), A2, Z8)
        rhs = evaluate(commutator(x, y) * conj_word(commutator(x, z), y), A2, Z8)
        assert lhs == rhs
        lhs = evaluate(commutator(x * y, z), A2, Z8)
        rhs = evaluate(conj_word(commutator(y, z), x) * commutator(x, z), A2, Z8)
        assert lhs == rhs


def test_serialization_round_trip_bit_exact():
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta", "eta"))
    xi, zeta, eta = ring.vars()
    system = A2.system
    a1, a2 = system.simple_roots
    w = conj_word(x_word(a1, xi), z_word(a2, zeta, eta))
    text = word_to_sexpr(w)
    assert text == "(conj (x a1 xi) (z a2 zeta eta))"
    assert parse_word(ring, system, text) == w
    rng = random.Random(9)
    for _ in range(25):
        w = _random_word(rng, C2, Z8)
        text = word_to_sexpr(w)
        again = parse_word(Z8, C2.system, text)
        assert again == w
        assert word_to_sexpr(again) == text


def test_inverse_folded_at_parse_time():
    ring = Ring.polynomial(Ring.integers(), ("xi",))
    (xi,) = ring.vars()
    a1, a2 = A2.system.simple_roots
    assert parse_word(ring, A2.system, "(inv (x a1 xi))") == x_word(a1, -xi)
    w = parse_word(Z8, A2.system, "(w (x a1 1) (x a2 1))")
    inv = parse_word(Z8, A2.system, "(inv (w (x a1 1) (x a2 1)))")
    assert inv == w.inverse()
    assert evaluate(inv, A2, Z8) * evaluate(w, A2, Z8) == A2.identity(Z8)
    assert parse_word(Z8, A2.system, word_to_sexpr(inv)) == inv


def test_certificates_validate():
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta", "eta"))
    xi, zeta, eta = ring.vars()
    ideal_i = Ideal.of(ring, [xi])
    ideal_j = Ideal.of(ring, [zeta])
    ideal_ij = ideal_i.product(ideal_j)
    rep = A2
    a1, a2 = rep.system.simple_roots

    w = x_word(a1, xi * zeta * eta)
    assert validate_certificate(LevelElement(ideal_ij), w, ideal_i, ideal_j, rep, ring)

    comm = commutator(x_word(a1, xi), x_word(a2, zeta))
    cert = GenCommutator(x_word(a1, xi), x_word(a2, zeta))
    assert validate_certificate(cert, comm, ideal_i, ideal_j, rep, ring)
    wrong = GenCommutator(x_word(a1, zeta), x_word(a2, zeta))
    assert not validate_certificate(wrong, comm, ideal_i, ideal_j, rep, ring)

    inner = x_word(a1, xi * zeta)
    conj = conj_word(inner, x_word(a2, eta))
    cert = ConjugateOf(LevelElement(ideal_ij), inner, x_word(a2, eta))
    assert validate_certificate(cert, conj, ideal_i, ideal_j, rep, ring)

    prod = inner * conj
    cert = ProductOf(
        ((inner, LevelElement(ideal_ij)),
         (conj, ConjugateOf(LevelElement(ideal_ij), inner, x_word(a2, eta))))
    )
    assert validate_certificate(cert, prod, ideal_i, ideal_j, rep, ring)


def test_level_certificate_needs_congruence():
    # letters outside the claimed ideal fail
    ideal = Ideal.of(Z8, [4])
    w = x_word(A2.system.root((1, 0)), Z8.element(2))
    assert not validate_certificate(LevelElement(ideal), w, ideal, ideal, A2, Z8)
    assert congruence_level_test(evaluate(w, A2, Z8), Ideal.of(Z8, [2]))
