import time
from dataclasses import replace

import numpy as np
import pytest

from chevlab import cli, constants, factorize, words
from chevlab.factorize import (
    CaseMismatch,
    ConditionStar,
    FactorizationError,
    NotShortRoot,
    ParabolicData,
    ResidueFieldF2,
    condition_star,
    levi_commutator_check,
    levi_sample_letters,
    long_root_decomposition,
    long_word_factor_count,
    main_lemma_word,
    main_lemma_words,
    mixed_commutator_generators,
    relative_generators,
    unit_decompose,
    verify_factorizations,
)
from chevlab.constants import compute_table
from chevlab.reps import get_representation
from chevlab.rings import Ideal, Ring, enumerate_elements
from chevlab.roots import MainLemmaCase, get_system
from chevlab.subgroups import BoundExceeded
from levi_oracle import levi_check_by_samples, levi_sample_words
from main_lemma_oracle import main_lemma_by_triples, verify_one
from chevlab.words import (
    LICENSED_TAGS,
    ConjSym,
    ConjugateOf,
    GenCommutator,
    LevelElement,
    ProductOf,
    Word,
    XSym,
    certificate_tags,
    evaluate,
    evaluate_stack,
    letter_stack_product,
)

SYMBOLIC = Ring.polynomial(Ring.integers(), ("xi", "zeta", "eta"))
XI, ZETA, ETA = SYMBOLIC.vars()
IDEAL_I = Ideal.of(SYMBOLIC, [XI])
IDEAL_J = Ideal.of(SYMBOLIC, [ZETA])


@pytest.mark.parametrize("case", list(MainLemmaCase))
def test_main_lemma_symbolic(case):
    rep = get_representation(case.system_tag)
    fact = main_lemma_word(case, XI, ZETA, ETA, IDEAL_I, IDEAL_J)
    assert fact.verify(rep, SYMBOLIC, IDEAL_I, IDEAL_J)
    allowed = {t.__name__ for t in LICENSED_TAGS}
    for _, cert in fact.factors:
        assert certificate_tags(cert) <= allowed


def test_main_lemma_trivial_inputs():
    fact = main_lemma_word(MainLemmaCase.A2, SYMBOLIC.zero, ZETA, ETA, IDEAL_I, IDEAL_J)
    assert fact.factors == ()
    rep = get_representation("A2")
    assert evaluate(fact.target, rep, SYMBOLIC).is_identity
    fact = main_lemma_word(MainLemmaCase.A2, XI, ZETA, SYMBOLIC.zero, IDEAL_I, IDEAL_J)
    assert fact.factors == ()
    assert evaluate(fact.target, rep, SYMBOLIC).is_identity


def test_main_lemma_requires_membership():
    with pytest.raises(Exception):
        main_lemma_word(MainLemmaCase.A2, ETA, ZETA, XI, IDEAL_I, IDEAL_J)


def test_main_lemma_finite_ring_c2():
    ring = Ring.mod(9)
    ideal = Ideal.of(ring, [3])
    rep = get_representation("C2")
    for case in (MainLemmaCase.C2_LONG, MainLemmaCase.C2_SHORT):
        for xi in ideal.element_values():
            for zeta in ideal.element_values():
                for eta in enumerate_elements(ring):
                    fact = main_lemma_word(case, xi, zeta, eta, ideal, ideal)
                    assert fact.verify(rep, ring, ideal, ideal)


def test_main_lemma_signs_kept_per_table_and_case(monkeypatch):
    calls = []
    normalize = constants.normalize_signs
    monkeypatch.setattr(
        constants, "normalize_signs", lambda table, case: calls.append(case) or normalize(table, case)
    )
    ring = Ring.mod(9)
    ideal = Ideal.of(ring, [3])
    three, six = ring.element(3), ring.element(6)
    for case in (MainLemmaCase.C2_LONG, MainLemmaCase.C2_SHORT):
        for xi in (three, six):
            main_lemma_word(case, xi, three, ring.one, ideal, ideal)
    # at most once per case, whatever ran before in this process
    assert len(calls) == len(set(calls)) <= 2
    # a table built anew, as after compute_table.cache_clear(), computes them anew
    table = compute_table(get_representation("C2"))
    before = len(calls)
    assert replace(table).signs(MainLemmaCase.C2_LONG) == table.signs(MainLemmaCase.C2_LONG)
    assert calls[before:] == [MainLemmaCase.C2_LONG]


def _perturb_first_letter(word):
    """The word with one more unit on the coefficient of its first x letter."""
    sym = word.letters[0]
    if isinstance(sym, XSym):
        sym = XSym(sym.root, sym.coeff + sym.coeff.ring.one)
    else:
        sym = ConjSym(_perturb_first_letter(sym.base), sym.by)
    return Word((sym,) + word.letters[1:])


def _wrong_certificates(cert, outside_ij=IDEAL_I, too_small=Ideal.of(SYMBOLIC, [XI * XI * ZETA * ZETA])):
    """Certificates that differ from cert in one leaf, none of them valid:
    outside_ij holds the level letters but is not inside IJ, and too_small
    misses them."""
    if isinstance(cert, LevelElement):
        yield LevelElement(outside_ij)
        yield LevelElement(too_small)
    elif isinstance(cert, GenCommutator):
        yield replace(cert, flipped=not cert.flipped)  # a's letters on the wrong side
    elif isinstance(cert, ConjugateOf):
        for inner in _wrong_certificates(cert.inner, outside_ij, too_small):
            yield replace(cert, inner=inner)
    elif isinstance(cert, ProductOf):
        for k, (word, part) in enumerate(cert.parts):
            for wrong in _wrong_certificates(part, outside_ij, too_small):
                yield ProductOf(cert.parts[:k] + ((word, wrong),) + cert.parts[k + 1:])


@pytest.mark.parametrize("case", [MainLemmaCase.A2, MainLemmaCase.C2_SHORT])
def test_wrong_factorizations_fail_verification(case):
    rep = get_representation(case.system_tag)
    fact = main_lemma_word(case, XI, ZETA, ETA, IDEAL_I, IDEAL_J)

    def verify(factors):
        return replace(fact, factors=tuple(factors)).verify(rep, SYMBOLIC, IDEAL_I, IDEAL_J)

    assert len(fact.factors) >= 2
    wrong = []
    for k, (word, cert) in enumerate(fact.factors):
        others = list(fact.factors)
        del others[k]
        wrong.append(others)  # one factor dropped
        perturbed = list(fact.factors)
        perturbed[k] = (_perturb_first_letter(word), cert)
        wrong.append(perturbed)  # one coefficient perturbed
        certs = list(_wrong_certificates(cert))
        assert certs
        for bad in certs:  # one certificate replaced
            swapped = list(fact.factors)
            swapped[k] = (word, bad)
            wrong.append(swapped)
    for factors in wrong:
        assert not verify(factors)
        # nothing of a failed verification carries over to the next call
        assert verify(fact.factors)
        assert not verify(factors)


def _finite(case, n, i, j):
    ring = Ring.mod(n)
    return MainLemmaCase.from_string(case), ring, Ideal.of(ring, [i]), Ideal.of(ring, [j])


def test_wrong_finite_factorizations_fail_in_a_batch():
    # C2Short over Z/9, (3),(1): the full factorizations have three factors,
    # two level leaves among them.  One batch holds every pair of xi = 3;
    # some of its factorizations are corrupted, each in one way.
    case, ring, ideal_i, ideal_j = _finite("C2Short", 9, 3, 1)
    rep = get_representation("C2")
    zero = Ideal.of(ring, [0])
    pairs = [(zeta, eta) for zeta in ideal_j.element_values() for eta in enumerate_elements(ring)]
    facts = main_lemma_words(case, ring.element(3), pairs, ideal_i, ideal_j)
    full = [k for k, fact in enumerate(facts) if len(fact.factors) == 3]
    slots = iter(full)
    batch = list(facts)
    corrupted = set()

    def corrupt(p, factor):
        k = next(slots)
        factors = list(facts[k].factors)
        if factor is None:
            del factors[p]
        else:
            factors[p] = factor(*factors[p])
        batch[k] = replace(facts[k], factors=tuple(factors))
        corrupted.add(k)

    def wrong_certificate(t):
        return lambda word, cert: (word, list(_wrong_certificates(cert, ideal_j, zero))[t])

    for p, (_, cert) in enumerate(facts[full[0]].factors):
        corrupt(p, None)  # one factor dropped
        corrupt(p, lambda word, cert: (_perturb_first_letter(word), cert))
        for t in range(len(list(_wrong_certificates(cert, ideal_j, zero)))):
            corrupt(p, wrong_certificate(t))
    assert len(corrupted) == 13
    want = [k not in corrupted for k in range(len(batch))]
    assert [verify_one(fact, rep, ring, ideal_i, ideal_j) for fact in batch] == want
    assert verify_factorizations(batch, rep, ring, ideal_i, ideal_j) == want
    # nothing of a failed batch carries over to the next call
    assert all(verify_factorizations(facts, rep, ring, ideal_i, ideal_j))


@pytest.mark.parametrize(
    "zeta, eta",
    [(1, 0), (2, 5), (3, "Z/27"), ("Z/27", 1)],
    ids=["zeta-outside-J", "zeta-outside-J-live", "eta-other-ring", "zeta-other-ring"],
)
def test_main_lemma_words_bad_pair_raises_like_main_lemma_word(zeta, eta):
    case, ring, ideal_i, ideal_j = _finite("C2Long", 9, 3, 3)
    z27 = Ring.mod(27)
    zeta = z27.element(3) if zeta == "Z/27" else ring.element(zeta)
    eta = z27.one if eta == "Z/27" else ring.element(eta)
    xi = ring.element(3)
    with pytest.raises(FactorizationError) as want:
        main_lemma_word(case, xi, zeta, eta, ideal_i, ideal_j)
    good = [(ring.element(3), ring.one), (ring.element(6), ring.element(2))]
    with pytest.raises(FactorizationError) as got:
        main_lemma_words(case, xi, good + [(zeta, eta)] + good, ideal_i, ideal_j)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# (case, n, I, J): the kernel workload's three finite cases, and cases with
# nonzero residues
FINITE_CASES = [
    ("A2", 8, 2, 4),
    ("A2", 12, 2, 3),
    ("C2Long", 27, 9, 9),
    ("C2Short", 27, 9, 9),
    ("C2Short", 9, 3, 1),
    ("C2Long", 25, 5, 5),
    ("G2Short", 9, 3, 3),
]


def _finite_task_and_oracle(monkeypatch, case, n, i, j, block):
    """The verify-main-lemma result and the oracle's, with the pairs taken
    in blocks of the given size; the targets each side verified, in order,
    must agree too."""
    if block is not None:
        monkeypatch.setattr(cli, "STACK_BLOCK", block)
    verified = []

    def spy(facts, *args):
        verified.extend(fact.target for fact in facts)
        return verify_factorizations(facts, *args)

    monkeypatch.setattr(cli, "verify_factorizations", spy)
    params = {"case": case, "ring": f"Z/{n}", "ideal_i": str(i), "ideal_j": str(j)}
    args = cli.validate_task("verify-main-lemma", params)
    got = cli.task_verify_main_lemma(args)
    targets = []
    want = main_lemma_by_triples(args["case"], args["ring"], args["ideal_i"], args["ideal_j"], targets)
    assert verified == targets
    return got, want


@pytest.mark.parametrize("block", [3, None], ids=["block3", "default"])
@pytest.mark.parametrize("case, n, i, j", FINITE_CASES, ids=[f"{c[0]}-Z{c[1]}-{c[2]}-{c[3]}" for c in FINITE_CASES])
def test_finite_main_lemma_matches_triple_oracle(case, n, i, j, block, monkeypatch):
    (result, ok), want = _finite_task_and_oracle(monkeypatch, case, n, i, j, block)
    assert result == want
    assert ok and not result["failures"]


@pytest.mark.parametrize("block", [3, None], ids=["block3", "default"])
@pytest.mark.parametrize("case", ["C2Short", "C2Long"])
def test_finite_main_lemma_failures_match_triple_oracle(case, block, monkeypatch):
    # every level leaf whose value has an entry sum divisible by 5 is taken
    # as failing, in the task and in the oracle alike: the failures must be
    # the same triples in the same order
    level_test = words.congruence_level_test
    monkeypatch.setattr(
        words, "congruence_level_test",
        lambda g, ideal: level_test(g, ideal) and sum(int(b.sum()) for b in g.blocks) % 5 != 0,
    )
    (result, ok), want = _finite_task_and_oracle(monkeypatch, case, 9, 3, 1, block)
    assert result == want
    assert not ok and 0 < len(result["failures"]) < result["triples_checked"]


def test_finite_main_lemma_evaluates_no_word_per_triple(monkeypatch):
    # z, its inverse, the targets and the products are evaluated as stacks,
    # and what depends on xi alone once per xi: no scalar evaluation runs per
    # triple but for the certificates' level leaves
    calls = {"outside": 0, "in certificates": 0, "level leaves": 0, "stacks": 0}
    inside = []
    evaluate_word, validate, evaluate_stack_ = words.evaluate, words.validate_certificate, words.evaluate_stack

    def counting_evaluate(*args):
        calls["in certificates" if inside else "outside"] += 1
        return evaluate_word(*args)

    def counting_validate(cert, *args):
        calls["level leaves"] += isinstance(cert, LevelElement)
        inside.append(cert)
        try:
            return validate(cert, *args)
        finally:
            inside.pop()

    def counting_stack(*args):
        calls["stacks"] += 1
        return evaluate_stack_(*args)

    for name, fn in [
        ("evaluate", counting_evaluate),
        ("validate_certificate", counting_validate),
        ("evaluate_stack", counting_stack),
    ]:
        for module in (words, factorize, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    args = cli.validate_task(
        "verify-main-lemma", {"case": "C2Short", "ring": "Z/9", "ideal_i": "3", "ideal_j": "1"}
    )
    result, ok = cli.task_verify_main_lemma(args)
    assert ok and result["triples_checked"] == 243
    size_i = len(args["ideal_i"].element_values())
    assert calls["outside"] <= size_i
    assert 0 < calls["in certificates"] <= calls["level leaves"]
    # per xi and block: the expansion identity, the residual bases, z and
    # its inverse, and the verification
    assert calls["stacks"] <= 4 * size_i
    # xi = 0 factors nothing, so it evaluates nothing
    case, ring, ideal_i, ideal_j = _finite("C2Short", 9, 3, 1)
    before = calls["stacks"]
    facts = main_lemma_words(case, ring.zero, [(ring.one, ring.one)], ideal_i, ideal_j)
    assert facts[0].factors == () and calls["stacks"] == before


def test_unit_decompose_examples():
    z9 = Ring.mod(9)
    pairs = unit_decompose(z9)
    assert [(t.payload, r.payload) for t, r in pairs] == [(2, 5)]
    z27 = Ring.mod(27)
    pairs = unit_decompose(z27)
    assert [(t.payload, r.payload) for t, r in pairs] == [(2, 14)]
    with pytest.raises(ResidueFieldF2):
        unit_decompose(Ring.mod(4))


def test_unit_decompose_closed_form_over_odd_moduli():
    for n in range(3, 2000, 2):
        ring = Ring.mod(n)
        ((theta, r),) = unit_decompose(ring)
        assert r * (theta * theta - theta) == ring.one


def test_long_root_c2_symbolic():
    ring = Ring.polynomial(Ring.integers(), ("xi",))
    (xi,) = ring.vars()
    ideal = Ideal.of(ring, [xi])
    rep = get_representation("C2")
    system = rep.system
    for beta in system.short_roots:
        word = long_root_decomposition(beta, xi, ideal, ring)
        assert evaluate(word, rep, ring) == rep.x(beta, xi)
        assert long_word_factor_count(word) <= 3
    with pytest.raises(NotShortRoot):
        long_root_decomposition(system.root((0, 1)), xi, ideal, ring)


def test_long_root_zero_coefficient():
    ring = Ring.polynomial(Ring.integers(), ("xi",))
    ideal = Ideal.of(ring, [ring.vars()[0]])
    system = get_system("C2")
    word = long_root_decomposition(system.root((1, 0)), ring.zero, ideal, ring)
    assert word.is_empty


def test_long_root_g2_exhaustive_z9():
    ring = Ring.mod(9)
    ideal = Ideal.of(ring, [3])
    rep = get_representation("G2")
    system = rep.system
    assert len(ideal.element_values()) == 3
    for beta in system.short_roots:
        for xi in ideal.element_values():
            word = long_root_decomposition(beta, xi, ideal, ring)
            assert evaluate(word, rep, ring) == rep.x(beta, xi)
            assert long_word_factor_count(word) <= 6


def test_long_root_g2_needs_odd_ring():
    ring = Ring.mod(4)
    ideal = Ideal.of(ring, [2])
    system = get_system("G2")
    with pytest.raises(ResidueFieldF2):
        long_root_decomposition(system.root((1, 0)), ring.element(2), ideal, ring)


def test_relative_generator_grid():
    ring = Ring.mod(8)
    ideal = Ideal.of(ring, [2])
    words = relative_generators("A2", ideal)
    assert len(words) == 6 * 4 * 8
    zero_ideal = Ideal.of(ring, [0])
    rep = get_representation("A2")
    for w in relative_generators("A2", zero_ideal):
        assert evaluate(w, rep, ring).is_identity


def test_relative_generators_stay_in_congruence_subgroup():
    from chevlab.reps import congruence_level_test
    from chevlab.subgroups import closure

    ring = Ring.mod(8)
    ideal = Ideal.of(ring, [2])
    rep = get_representation("A2")
    sub = closure(relative_generators("A2", ideal), rep, ring, bound=10**6)
    import numpy as np

    for mat in sub.stack:
        assert not np.any((mat - np.eye(3, dtype=np.int64)) % 2)


def test_mixed_generator_family():
    ring = Ring.mod(8)
    fam = mixed_commutator_generators("A2", Ideal.of(ring, [2]), Ideal.of(ring, [4]))
    per_bullet = {b: 0 for b in (1, 2, 3)}
    for item in fam.items:
        per_bullet[item.bullet] += 1
    assert per_bullet == {1: 384, 2: 384, 3: 384}  # 6*4*2*8 grid entries each
    rep = get_representation("A2")
    ideal_i, ideal_j = Ideal.of(ring, [2]), Ideal.of(ring, [4])
    from chevlab.words import validate_certificate

    for item in fam.items:
        if item.bullet == 1:
            assert item.certificate is None
        else:
            assert validate_certificate(
                item.certificate, item.word, ideal_i, ideal_j, rep, ring
            )


def test_mixed_generators_refused_before_listing_them():
    # 3 * 6 * n^3 words over a ring where n is about 1.1e12
    ring = Ring.mod(1099511627791)
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match=r"A2 over Z/1099511627791 list \d+ words \(> 1000000\)"):
        mixed_commutator_generators("A2", Ideal.of(ring, [1]), Ideal.of(ring, [1]))
    assert time.perf_counter() - start < 1


def test_condition_star_values():
    star = condition_star("C2", Ring.mod(27))
    assert star.satisfied is True
    star = condition_star("C2", Ring.mod(8))
    assert star.satisfied is False
    star = condition_star("G2", Ring.mod(9))
    assert star.satisfied is True
    star = condition_star("A2", Ring.mod(8))
    assert star.satisfied is True and not star.applies


def test_mixed_generators_warn_when_star_fails():
    ring = Ring.mod(4)
    fam = mixed_commutator_generators("C2", Ideal.of(ring, [2]), Ideal.of(ring, [2]))
    assert fam.warnings


def test_parabolic_data_shape():
    system = get_system("G2")
    p = ParabolicData.for_simple(system, 2)
    assert len(p.U_roots) == 5 and len(p.U_minus_roots) == 5
    assert set(p.levi_roots) == {system.root((0, 1)), system.root((0, -1))}


def test_levi_check_small_runs():
    ring = Ring.mod(8)
    ideal = Ideal.of(ring, [2])
    system = get_system("A2")
    for r in (1, 2):
        p = ParabolicData.for_simple(system, r)
        for minus in (False, True):
            rep = levi_commutator_check(p, ideal, ideal, ring, 50, seed=1, minus_side=minus)
            assert rep.passed


@pytest.mark.parametrize("samples", [0, -5])
def test_levi_check_refuses_no_samples(samples):
    ring = Ring.mod(8)
    ideal = Ideal.of(ring, [2])
    p = ParabolicData.for_simple(get_system("A2"), 1)
    with pytest.raises(FactorizationError, match=f"at least one sample, got {samples}"):
        levi_commutator_check(p, ideal, ideal, ring, samples)


def test_levi_check_c2_z27_sample():
    ring = Ring.mod(27)
    ideal = Ideal.of(ring, [3])
    p = ParabolicData.for_simple(get_system("C2"), 1)
    rep = levi_commutator_check(p, ideal, ideal, ring, 100, seed=2)
    assert rep.passed


# (system, modulus, I, J): int64 stacks, and object stacks past the int64
# rule (C2 over Z/3e9; the 14-block of G2 over Z/(1e9+7))
LEVI_CASES = [
    ("A2", 8, 2, 2),
    ("A2", 12, 2, 3),
    ("A2", 1_000_000_007, 1, 1),
    ("C2", 27, 3, 3),
    ("C2", 12, 6, 2),
    ("C2", 1_000_000_007, 1, 1),
    ("C2", 3_000_000_000, 3, 10),
    ("G2", 9, 1, 3),
    ("G2", 1_000_000_007, 1, 1),
]


def _levi_reports(check, tag, n, i, j, samples, parabolic=lambda p: p):
    ring = Ring.mod(n)
    ideal_i, ideal_j = Ideal.of(ring, [i]), Ideal.of(ring, [j])
    return [
        check(
            parabolic(ParabolicData.for_simple(get_system(tag), r)),
            ideal_i, ideal_j, ring, samples, seed=7, minus_side=minus,
        )
        for r in (1, 2)
        for minus in (False, True)
    ]


@pytest.mark.parametrize("tag, n, i, j", LEVI_CASES, ids=[f"{c[0]}-Z{c[1]}" for c in LEVI_CASES])
def test_stacked_levi_check_matches_sample_oracle(tag, n, i, j):
    samples = 12 if tag == "G2" else 40
    reports = _levi_reports(levi_commutator_check, tag, n, i, j, samples)
    assert reports == _levi_reports(levi_check_by_samples, tag, n, i, j, samples)
    assert all(report.passed for report in reports)


def _drop_first(p):
    # a radical without its first root: samples with that coordinate do not peel
    return replace(p, U_roots=p.U_roots[1:], U_minus_roots=p.U_minus_roots[1:])


@pytest.mark.parametrize("tag, n, i, j", [LEVI_CASES[0], LEVI_CASES[3], LEVI_CASES[6], LEVI_CASES[7]])
def test_stacked_levi_records_match_oracle_outside_the_radical(tag, n, i, j):
    samples = 12 if tag == "G2" else 40
    reports = _levi_reports(levi_commutator_check, tag, n, i, j, samples, _drop_first)
    assert reports == _levi_reports(levi_check_by_samples, tag, n, i, j, samples, _drop_first)
    records = [v for report in reports for v in report.violations]
    assert records and all(v["reason"] == "outside the radical" for v in records)
    assert all(len(report.violations) < samples for report in reports)


@pytest.mark.parametrize("tag, n, i, j", [LEVI_CASES[0], LEVI_CASES[3], LEVI_CASES[6], LEVI_CASES[7]])
def test_stacked_levi_records_match_oracle_outside_ij(tag, n, i, j, monkeypatch):
    # IJ taken as the zero ideal: every nonzero coordinate is a violation
    monkeypatch.setattr(Ideal, "product", lambda self, other: Ideal.of(self.ring, [0]))
    samples = 12 if tag == "G2" else 40
    reports = _levi_reports(levi_commutator_check, tag, n, i, j, samples)
    assert reports == _levi_reports(levi_check_by_samples, tag, n, i, j, samples)
    records = [v for report in reports for v in report.violations]
    assert records and all(set(v) == {"sample", "root", "coefficient"} for v in records)


@pytest.mark.parametrize("tag, n, i, j", LEVI_CASES, ids=[f"{c[0]}-Z{c[1]}" for c in LEVI_CASES])
def test_levi_sample_letters_match_oracle_words(tag, n, i, j):
    # every sample, passing or not, has the value of the oracle's freely
    # reduced word, also for a run of indices that starts inside the stream
    ring = Ring.mod(n)
    ideal_i, ideal_j = Ideal.of(ring, [i]), Ideal.of(ring, [j])
    rep = get_representation(tag)
    samples = 12 if tag == "G2" else 40
    for r in (1, 2):
        p = ParabolicData.for_simple(get_system(tag), r)
        for minus in (False, True):
            words = list(levi_sample_words(p, ideal_i, ideal_j, ring, samples, 7, minus))
            for indices in (range(samples), range(5, samples - 3)):
                letters = levi_sample_letters(p, ideal_i, ideal_j, ring, indices, 7, minus)
                got = letter_stack_product(*letters, rep, n)
                want = evaluate_stack(words[indices.start:indices.stop], rep, ring)
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype == rep.np_dtype(n)
                    assert np.array_equal(a, b)


@pytest.mark.parametrize("tag, n, i, j", [LEVI_CASES[0], LEVI_CASES[3], LEVI_CASES[6], LEVI_CASES[7]])
def test_levi_blocks_match_oracle(tag, n, i, j, monkeypatch):
    # blocks of 3 samples: no stack holds more, and the records of every
    # block keep their global sample indices
    sizes = []

    def spy(roots, coeffs, ends, rep, n):
        sizes.append(len(ends))
        return letter_stack_product(roots, coeffs, ends, rep, n)

    monkeypatch.setattr(factorize, "STACK_BLOCK", 3)
    monkeypatch.setattr(factorize, "letter_stack_product", spy)
    samples = 12 if tag == "G2" else 40
    for parabolic in (lambda p: p, _drop_first):
        reports = _levi_reports(levi_commutator_check, tag, n, i, j, samples, parabolic)
        assert reports == _levi_reports(levi_check_by_samples, tag, n, i, j, samples, parabolic)
    assert max(sizes) == 3 and sum(sizes) == 2 * 4 * samples
    assert max(v["sample"] for report in reports for v in report.violations) >= 3
    # IJ taken as the zero ideal: every nonzero coordinate is a violation
    monkeypatch.setattr(Ideal, "product", lambda self, other: Ideal.of(self.ring, [0]))
    reports = _levi_reports(levi_commutator_check, tag, n, i, j, samples)
    assert reports == _levi_reports(levi_check_by_samples, tag, n, i, j, samples)
    assert max(v["sample"] for report in reports for v in report.violations) >= 3


def test_levi_check_never_lists_ideal_elements(monkeypatch):
    # samples are drawn as d*k, so a huge ring costs no more than a small one
    def refuse(self):
        raise AssertionError("element_values must not be called")

    monkeypatch.setattr(Ideal, "element_values", refuse)
    ring = Ring.mod(1_000_000_007)
    unit = Ideal.of(ring, [1])
    p = ParabolicData.for_simple(get_system("A2"), 1)
    rep = levi_commutator_check(p, unit, unit, ring, 3, seed=0)
    assert rep.samples == 3
    assert rep.passed
