import random

import pytest

from chevlab.factorize import main_lemma_word
from chevlab.reps import GroupElement, Representation, congruence_level_test, get_representation
from chevlab.rings import Ideal, InfiniteRing, MixedRings, Ring
from chevlab.roots import MainLemmaCase
from chevlab.words import (
    ConjSym,
    ConjugateOf,
    GenCommutator,
    LevelElement,
    ProductOf,
    Word,
    ZSym,
    commutator,
    conj_word,
    evaluate,
    evaluate_all,
    evaluate_stack,
    letter_stack_product,
    parse_word,
    validate_certificate,
    word_to_sexpr,
    x_word,
    z_word,
)
from words_oracle import evaluate_by_symbols

Z8 = Ring.mod(8)
A2 = get_representation("A2")
C2 = get_representation("C2")
G2 = get_representation("G2")
ZXZ = Ring.polynomial(Ring.integers(), ("xi", "zeta"))


def _random_coeff(rng, ring):
    if ring.kind == "Zn":
        return ring.element(rng.randrange(ring.modulus))
    # a small linear polynomial in the ring's variables
    out = ring.element(rng.randint(-2, 2))
    for v in ring.vars():
        out = out + rng.randint(-2, 2) * v
    return out


def _random_word(rng, rep, ring, depth=0):
    letters = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        root = rng.choice(rep.system.roots)
        t = _random_coeff(rng, ring)
        s = _random_coeff(rng, ring)
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


def test_certificates_compare_values_when_words_differ():
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta", "eta"))
    xi, zeta, eta = ring.vars()
    ideal_i, ideal_j = Ideal.of(ring, [xi]), Ideal.of(ring, [zeta])
    level = LevelElement(ideal_i.product(ideal_j))
    a1, a2 = A2.system.simple_roots

    def check(cert, word):
        return validate_certificate(cert, word, ideal_i, ideal_j, A2, ring)

    # letters in the right ideals, but the word has another value
    cert = GenCommutator(x_word(a1, xi), x_word(a2, zeta))
    assert not check(cert, commutator(x_word(a1, xi), x_word(a2, zeta + zeta)))
    inner = x_word(a1, xi * zeta)
    cert = ConjugateOf(level, inner, x_word(a2, eta))
    assert not check(cert, conj_word(inner, x_word(a2, eta + eta)))
    cert = ProductOf(((inner, level), (inner, level)))
    assert not check(cert, inner)
    # another word with the same value passes
    padded = commutator(x_word(a1, xi), x_word(a2, zeta)) * x_word(a1, ring.zero)
    assert check(GenCommutator(x_word(a1, xi), x_word(a2, zeta)), padded)
    assert check(cert, x_word(a1, xi * zeta + xi * zeta))


def test_level_certificate_needs_congruence():
    # letters outside the claimed ideal fail, though it lies inside IJ
    ideal = Ideal.of(Z8, [2])
    level = ideal.product(ideal)
    assert level == Ideal.of(Z8, [4])
    w = x_word(A2.system.root((1, 0)), Z8.element(2))
    assert not validate_certificate(LevelElement(level), w, ideal, ideal, A2, Z8)
    assert congruence_level_test(evaluate(w, A2, Z8), ideal)
    w4 = x_word(A2.system.root((1, 0)), Z8.element(4))
    assert validate_certificate(LevelElement(level), w4, ideal, ideal, A2, Z8)


def test_level_certificate_needs_an_ideal_inside_ij():
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta"))
    xi, zeta = ring.vars()
    ideal_i, ideal_j = Ideal.of(ring, [xi]), Ideal.of(ring, [zeta])
    w = x_word(A2.system.root((1, 0)), xi * zeta)
    assert validate_certificate(LevelElement(ideal_i.product(ideal_j)), w, ideal_i, ideal_j, A2, ring)
    # the letters lie in I, but level I does not license [E(I), E(J)]
    assert congruence_level_test(evaluate(w, A2, ring), ideal_i)
    assert not validate_certificate(LevelElement(ideal_i), w, ideal_i, ideal_j, A2, ring)
    # inside IJ, but the letters are not of that level
    narrow = Ideal.of(ring, [xi * xi * zeta])
    assert not validate_certificate(LevelElement(narrow), w, ideal_i, ideal_j, A2, ring)


def _symbols(word):
    """Every symbol of the word, those inside conjugates included."""
    for sym in word.letters:
        yield sym
        if isinstance(sym, ConjSym):
            yield from _symbols(sym.base)
            yield from _symbols(sym.by)


def _has_nested_conjugate(word):
    return any(
        isinstance(sym, ConjSym) and any(isinstance(t, ConjSym) for t in _symbols(sym.base * sym.by))
        for sym in word.letters
    )


@pytest.mark.parametrize(
    "rep, ring",
    [(A2, Z8), (A2, Ring.mod(27)), (A2, ZXZ), (C2, Z8), (C2, Ring.mod(27)), (C2, ZXZ), (G2, Ring.mod(9))],
    ids=["A2-Z8", "A2-Z27", "A2-Zxz", "C2-Z8", "C2-Z27", "C2-Zxz", "G2-Z9"],
)
def test_flat_evaluation_matches_symbol_oracle(rep, ring):
    rng = random.Random(11)
    words = [_random_word(rng, rep, ring) for _ in range(12 if rep is G2 else 20)]
    assert any(_has_nested_conjugate(w) for w in words)
    assert any(isinstance(sym, ZSym) for w in words for sym in _symbols(w))
    words += [words[1] * words[2], words[2].inverse()]
    for w in words:
        assert evaluate(w, rep, ring) == evaluate_by_symbols(w, rep, ring)


def test_flat_evaluation_matches_symbol_oracle_on_g2_symbolic_words():
    # the G2Short main lemma's words, and random words whose conjugates
    # hold x letters only: nested conjugates over Z[xi,zeta] reach
    # polynomials that take the oracle seconds a word
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta", "eta"))
    xi, zeta, eta = ring.vars()
    fact = main_lemma_word(
        MainLemmaCase.G2_SHORT, xi, zeta, eta, Ideal.of(ring, [xi]), Ideal.of(ring, [zeta])
    )
    words = [fact.target] + [word for word, _ in fact.factors]
    rng = random.Random(11)
    words += [_random_word(rng, G2, ring, depth=1) for _ in range(12)]
    assert any(isinstance(sym, ConjSym) for w in words for sym in w.letters)
    assert any(isinstance(sym, ZSym) for w in words for sym in _symbols(w))
    for w in words:
        assert evaluate(w, G2, ring) == evaluate_by_symbols(w, G2, ring)


def test_flat_evaluation_checks_the_ring():
    root = A2.system.root((1, 0))
    z27 = Ring.mod(27)
    for word in (
        x_word(root, z27.one),
        z_word(root, Z8.one, z27.one),
        conj_word(x_word(root, Z8.one), x_word(-root, z27.one)),
    ):
        with pytest.raises(MixedRings):
            evaluate(word, A2, Z8)


# C2 over Z/3e9 is past the int64 rule: its stacks hold Python ints
@pytest.mark.parametrize(
    "rep, ring",
    [
        (A2, Z8), (A2, Ring.mod(27)), (A2, Ring.mod(3_000_000_000)),
        (C2, Z8), (C2, Ring.mod(27)), (C2, Ring.mod(3_000_000_000)),
        (G2, Ring.mod(9)),
    ],
    ids=["A2-Z8", "A2-Z27", "A2-Z3e9", "C2-Z8", "C2-Z27", "C2-Z3e9", "G2-Z9"],
)
def test_evaluate_stack_matches_scalar_and_symbol_oracle(rep, ring):
    rng = random.Random(12)
    words = [_random_word(rng, rep, ring) for _ in range(10 if rep is G2 else 20)]
    assert any(_has_nested_conjugate(w) for w in words)
    assert any(isinstance(sym, ZSym) for w in words for sym in _symbols(w))
    # mixed lengths in one stack, empty words at either end and inside
    words = [Word(())] + words[:5] + [Word(()), words[5] * words[6] * words[7]] + words[8:] + [Word(())]
    stack = evaluate_stack(iter(words), rep, ring)
    assert len(stack) == len(rep.block_dims)
    assert [block.shape for block in stack] == [(len(words), d, d) for d in rep.block_dims]
    for w, word in enumerate(words):
        value = GroupElement(rep, ring, "np", tuple(block[w] for block in stack))
        assert value == evaluate(word, rep, ring) == evaluate_by_symbols(word, rep, ring)
    assert all(block.max() < ring.modulus and block.min() >= 0 for block in stack)
    assert [block.shape for block in evaluate_stack([], rep, ring)] == [(0, d, d) for d in rep.block_dims]
    (only,) = zip(*evaluate_stack([Word(())], rep, ring))
    assert GroupElement(rep, ring, "np", only).is_identity


# int64 and object moduli (C2 over Z/3e9, the G2 14-block over Z/(1e9+7))
# and an exact ring, where each word is evaluated on its own
@pytest.mark.parametrize(
    "rep, ring",
    [
        (A2, Z8), (C2, Ring.mod(27)), (C2, Ring.mod(3_000_000_000)),
        (G2, Ring.mod(9)), (G2, Ring.mod(1_000_000_007)), (C2, ZXZ),
    ],
    ids=["A2-Z8", "C2-Z27", "C2-Z3e9", "G2-Z9", "G2-Z1e9+7", "C2-Zxz"],
)
def test_evaluate_all_matches_evaluate(rep, ring):
    rng = random.Random(13)
    words = [_random_word(rng, rep, ring) for _ in range(6 if rep is G2 else 12)]
    words = [Word(())] + words[:3] + [Word(()), words[3] * words[4]] + words[5:] + [Word(())]
    got = evaluate_all(iter(words), rep, ring)
    want = [evaluate(word, rep, ring) for word in words]
    assert got == want
    assert [value.backend for value in got] == [value.backend for value in want]
    if ring.kind == "Zn":
        dtype = rep.np_dtype(ring.modulus)
        assert all(block.dtype == dtype for value in got for block in value.blocks)
    assert evaluate_all([], rep, ring) == []


def test_letter_stack_product_pads_no_run(monkeypatch):
    # runs of 3, 0, 5, 1, 5 and 2 letters: position k is applied to the runs
    # with more than k letters only, and the rows keep the order of the runs
    sizes = []
    x_stack = Representation.x_stack

    def spy(self, roots, coeffs, n):
        sizes.append(len(roots))
        return x_stack(self, roots, coeffs, n)

    monkeypatch.setattr(Representation, "x_stack", spy)
    rng = random.Random(14)
    z27 = Ring.mod(27)
    runs = [
        [(rng.randrange(len(C2.system.roots)), rng.randrange(27)) for _ in range(length)]
        for length in (3, 0, 5, 1, 5, 2)
    ]
    flat = [letter for run in runs for letter in run]
    ends = [sum(map(len, runs[: w + 1])) for w in range(len(runs))]
    (stack,) = letter_stack_product([r for r, _ in flat], [c for _, c in flat], ends, C2, 27)
    assert sizes == [5, 4, 3, 2, 2]
    for run, value in zip(runs, stack, strict=True):
        word = Word(tuple(
            letter for r, c in run for letter in x_word(C2.system.roots[r], z27.element(c)).letters
        ))
        assert GroupElement(C2, z27, "np", (value,)) == evaluate(word, C2, z27)


def test_evaluate_stack_checks_the_ring():
    root = A2.system.root((1, 0))
    z27 = Ring.mod(27)
    good = x_word(root, Z8.one)
    for word in (
        x_word(root, z27.one),
        z_word(root, Z8.one, z27.one),
        conj_word(x_word(root, Z8.one), x_word(-root, z27.one)),
    ):
        with pytest.raises(MixedRings):
            evaluate_stack([good, word], A2, Z8)
    xi, _ = ZXZ.vars()
    with pytest.raises(InfiniteRing):
        evaluate_stack([x_word(root, xi)], A2, ZXZ)
    with pytest.raises(InfiniteRing):
        evaluate_stack([x_word(root, Ring.integers().one)], A2, Ring.integers())
