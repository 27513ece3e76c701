import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevlab import subgroups
from chevlab.factorize import mixed_commutator_generators, relative_generators
from chevlab.reps import congruence_level_test, get_representation
from chevlab.rings import Ideal, Ring
from chevlab.subgroups import (
    BoundExceeded,
    EnumerationError,
    EnumeratedSubgroup,
    UnsupportedType,
    _CONJ_CHUNK,
    _batch_inverse,
    _codes,
    _congruence_order,
    _generated_order,
    _normal_closure,
    _word_matrices,
    closure,
    commutator_subgroup,
    elementary_level_words,
    enumerate_congruence_subgroup,
    enumerate_full_congruence,
    full_congruence_generators,
    verify_theorem,
)
from chevlab.words import Word, x_word
from cofactor_oracle import batch_det
from congruence_oracle import full_congruence_by_closure, sweep_central_scalars, sweep_congruence
from membership_oracle import ByteKeySubgroup

Z4 = Ring.mod(4)
Z8 = Ring.mod(8)
Z9 = Ring.mod(9)
A2 = get_representation("A2")
C2 = get_representation("C2")


def test_trivial_closure():
    sub = closure([], A2, Z8)
    assert sub.cardinality == 1


def test_closure_respects_bound():
    words = elementary_level_words("A2", Ideal.of(Z8, [1]))
    with pytest.raises(BoundExceeded):
        closure(words, A2, Z8, bound=100)


def test_g2_enumeration_unsupported():
    g2 = get_representation("G2")
    with pytest.raises(UnsupportedType):
        closure([], g2, Z9)


def test_elementary_closure_inside_congruence_kernel():
    ideal = Ideal.of(Z8, [2])
    sub = closure(elementary_level_words("A2", ideal), A2, Z8)
    kernel = enumerate_congruence_subgroup(A2, Z8, ideal)
    assert kernel.cardinality == 2 ** 16
    assert sub.is_subset_of(kernel)


def test_congruence_enumeration_against_small_filters():
    # C2 over Z/4 at level (2): the form condition on 1 + 2M is linear,
    # giving the 2^dim(sp4) = 2^10 kernel; the generic filter must agree
    ideal = Ideal.of(Z4, [2])
    kernel = enumerate_congruence_subgroup(C2, Z4, ideal)
    assert kernel.cardinality == 2 ** 10
    mats = kernel.stack
    form = np.array(C2.symplectic_form, dtype=np.int64)
    lhs = np.einsum("nji,jk,nkl->nil", mats, form, mats) % 4
    assert np.all(lhs == form % 4)


def _oracle_cases():
    # every level small enough for the full sweep to stay cheap
    for rep in (A2, C2):
        dim = rep.block_dims[0]
        for n in [*range(2, 13), 16, 25, 27]:
            for d in range(1, n + 1):
                if n % d == 0 and (n // d) ** (dim * dim) <= 2**18:
                    yield pytest.param(rep, n, d, id=f"{rep.name}-Z{n}-({d})")


def _code_set(stack, n):
    return set(_codes(stack, n).tolist())


@pytest.mark.parametrize("rep,n,d", list(_oracle_cases()))
def test_lifted_congruence_matches_sweep(rep, n, d):
    # the closure of the certified generators against the brute-force sweep,
    # as sets: the closure lists in BFS order, the sweep by index
    ring = Ring.mod(n)
    listed = enumerate_congruence_subgroup(rep, ring, Ideal.of(ring, [d]))
    swept = sweep_congruence(rep, n, d)
    assert listed.cardinality == len(swept)
    assert _code_set(listed.stack, n) == _code_set(swept, n)


@pytest.mark.parametrize(
    "rep,p,k,a",
    [
        pytest.param(rep, p, k, a, id=f"{rep.name}-Z{p**k}-({p**a})")
        for rep, p, k, a in [
            (A2, 2, 2, 1), (A2, 2, 3, 1), (A2, 2, 4, 2), (A2, 3, 3, 2), (A2, 5, 2, 1),
            (C2, 2, 3, 2), (C2, 2, 5, 4), (C2, 3, 2, 1), (C2, 3, 3, 2),
        ]
    ],
)
def test_congruence_kernel_closed_form(rep, p, k, a):
    # |G(Z/p^k, (p^a))| = p^((k-a) dim G) for a >= 1: each filtration layer
    # is the Lie algebra mod p (dim sl3 = 8, dim sp4 = 10)
    dim_g = {"A2": 8, "C2": 10}[rep.name]
    ring = Ring.mod(p**k)
    kernel = enumerate_congruence_subgroup(rep, ring, Ideal.of(ring, [p**a]))
    assert kernel.cardinality == p ** ((k - a) * dim_g)


def test_congruence_kernel_composite_modulus_past_int32():
    # 100000 = 2^5 5^5 and (50000) = (2^4 5^5): the kernel is G(Z/32, (16))
    ring = Ring.mod(100000)
    ideal = Ideal.of(ring, [50000])
    kernel = enumerate_congruence_subgroup(C2, ring, ideal)
    assert kernel.cardinality == 2**10
    assert kernel.audit_direct()
    assert closure(elementary_level_words("C2", ideal), C2, ring).is_subset_of(kernel)


def test_congruence_kernel_refused_past_int64_products():
    # 4 (n - 1)^2 < 2^63 exactly up to n = 1518500250; each kernel here is
    # Sp4(F_2) placed at the prime 2
    ring = Ring.mod(1518500250)
    kernel = enumerate_congruence_subgroup(C2, ring, Ideal.of(ring, [759250125]))
    assert kernel.cardinality == 720
    ring = Ring.mod(1518500252)
    with pytest.raises(EnumerationError, match="Z/1518500252"):
        enumerate_congruence_subgroup(C2, ring, Ideal.of(ring, [759250126]))


def test_normal_closure_plain_when_no_conjugators():
    ideal = Ideal.of(Z4, [2])
    words = elementary_level_words("A2", ideal)
    plain = closure(words, A2, Z4)
    normal = _normal_closure(A2, Z4, words, _word_matrices(words, A2, Z4), 10**6)
    assert plain.same_elements(normal)


def test_relative_subgroup_equals_normal_closure():
    # closure(z-generators) == normal closure of the level generators
    ideal = Ideal.of(Z8, [2])
    rel = closure(relative_generators("A2", ideal), A2, Z8)
    from chevlab.subgroups import absolute_elementary_words

    seed = _word_matrices(elementary_level_words("A2", ideal), A2, Z8)
    conj = _word_matrices(absolute_elementary_words("A2", Z8), A2, Z8)
    normal = _normal_closure(A2, Z8, [], seed, 10**6, conj, _batch_inverse(conj, 8))
    assert rel.same_elements(normal)


def test_commutator_subgroup_symmetry_and_levels():
    ideal = Ideal.of(Z8, [2])
    e_words = elementary_level_words("A2", ideal)
    hk = commutator_subgroup(e_words, e_words, A2, Z8)
    kh = commutator_subgroup(e_words, e_words[::-1], A2, Z8)
    assert hk.same_elements(kh)
    # [E((2)), E((2))] lands inside the level-(4) congruence subgroup
    level4 = Ideal.of(Z8, [4])
    for mat in hk.stack:
        assert not np.any((mat - np.eye(3, dtype=np.int64)) % 4)
    assert hk.cardinality > 1


def test_commutator_trivial_cases():
    e_words = elementary_level_words("A2", Ideal.of(Z8, [2]))
    trivial = commutator_subgroup(e_words, [], A2, Z8)
    assert trivial.cardinality == 1
    # C2 over Z/9: commutators of level-3 elements vanish mod 9
    e3 = elementary_level_words("C2", Ideal.of(Z9, [3]))
    sub = commutator_subgroup(e3, e3, C2, Z9)
    assert sub.cardinality == 1


def test_certificate_bridge_into_commutator_subgroup():
    # every certified mixed generator lands in the enumerated [E(I),E(J)]
    ideal_i = Ideal.of(Z4, [2])
    ideal_j = Ideal.of(Z4, [2])
    target = commutator_subgroup(
        elementary_level_words("A2", ideal_i),
        elementary_level_words("A2", ideal_j),
        A2,
        Z4,
    )
    fam = mixed_commutator_generators("A2", ideal_i, ideal_j)
    from chevlab.words import evaluate

    for item in fam.items:
        if item.certificate is None:
            continue
        arr = evaluate(item.word, A2, Z4).blocks[0]
        assert target.contains_array(arr % 4)


def test_missing_conjugates_against_plain_conjugation():
    # x_a(1) conjugated by all of SL3(Z/4), placed after a full batch of
    # identities: the images outside <x_a(1)>, recomputed without batches or
    # dedupe
    root = A2.system.roots[0]
    sub = closure([x_word(root, Z4.element(1))], A2, Z4)
    g = sub.generator_stack()[:1]
    k = enumerate_congruence_subgroup(A2, Z4, Ideal.of(Z4, [1])).stack
    pad = np.repeat(np.eye(3, dtype=np.int64)[None], _CONJ_CHUNK, axis=0)
    images = k @ g[0] % 4 @ _batch_inverse(k, 4) % 4
    weights = 4 ** np.arange(9, dtype=np.int64)
    expected = set((images[~sub.contains_batch(images)].reshape(-1, 9) @ weights).tolist())
    outside = sub.missing_conjugates(np.concatenate([pad, k]), g)
    codes = (outside.reshape(-1, 9) @ weights).tolist()
    assert len(codes) == len(set(codes)) and set(codes) == expected
    assert len(expected) > 0


def test_commutator_with_enumerated_set_matches_all_pairs():
    # oracle for [E(I), C] with C given as a stack: the subgroup generated by
    # every commutator [h, k], h in H and k in K, with no conjugation step
    ideal = Ideal.of(Z4, [2])
    h_words = elementary_level_words("A2", ideal)
    h = closure(h_words, A2, Z4)
    k = enumerate_congruence_subgroup(A2, Z4, Ideal.of(Z4, [1]))
    assert (h.cardinality, k.cardinality) == (64, 43008)
    k_inv = _batch_inverse(k.stack, 4)
    weights = 4 ** np.arange(9, dtype=np.int64)
    codes = set()
    for g, g_inv in zip(h.stack, _batch_inverse(h.stack, 4)):
        comm = g @ k.stack % 4 @ g_inv % 4 @ k_inv % 4
        codes.update(np.unique(comm.reshape(-1, 9) @ weights).tolist())
    digits = np.array(sorted(codes))[:, None] // weights % 4
    oracle = EnumeratedSubgroup(A2, Z4, [])
    oracle.close_over(digits.reshape(-1, 3, 3), bound=10**6)
    merged = commutator_subgroup(h_words, k.stack, A2, Z4)
    assert merged.cardinality == oracle.cardinality == 256
    assert merged.same_elements(oracle)


def test_full_congruence_a2_z8():
    ideal = Ideal.of(Z8, [2])
    cfull = enumerate_full_congruence(A2, Z8, ideal)
    kernel = enumerate_congruence_subgroup(A2, Z8, ideal)
    # SL3(F2) has trivial centre, so C(R,I) = G(R,I)
    assert cfull.same_elements(kernel)


def test_full_congruence_c2_z9():
    ideal = Ideal.of(Z9, [3])
    cfull = enumerate_full_congruence(C2, Z9, ideal)
    kernel = enumerate_congruence_subgroup(C2, Z9, ideal)
    assert cfull.cardinality == 2 * kernel.cardinality == 2 * 3 ** 10


# levels whose C(R, I) the closure route can reach; Z/6 and Z/12 have a
# prime not dividing d, where the base layer is G(F_p)
_FULL_CONGRUENCE_CASES = [
    pytest.param(rep, n, d, id=f"{rep.name}-Z{n}-({d})")
    for rep, n, d in [
        (A2, 4, 2), (A2, 6, 2), (A2, 6, 3), (A2, 8, 2), (A2, 8, 4), (A2, 9, 3),
        (A2, 12, 4), (C2, 4, 2), (C2, 6, 3), (C2, 9, 3),
    ]
]


@pytest.mark.parametrize("rep,n,d", _FULL_CONGRUENCE_CASES)
def test_lifted_full_congruence_matches_closure_route(rep, n, d):
    ring = Ring.mod(n)
    ideal = Ideal.of(ring, [d])
    lifted = enumerate_full_congruence(rep, ring, ideal)
    oracle, centre = full_congruence_by_closure(rep, ring, ideal)
    kernel = enumerate_congruence_subgroup(rep, ring, ideal)
    assert lifted.same_elements(oracle)
    assert lifted.cardinality == len(centre) * kernel.cardinality


# the two central-lift shapes past the closure route's reach: the Sp4 centre
# {+-1, q/2 +- 1} over Z/8, and a three-element centre of SL3 at p = 7
_CENTRAL_LIFT_CASES = [
    pytest.param(rep, n, d, id=f"{rep.name}-Z{n}-({d})") for rep, n, d in [(C2, 16, 8), (A2, 28, 14)]
]


@pytest.mark.parametrize("central", [False, True], ids=["G", "C"])
@pytest.mark.parametrize("rep,n,d", _FULL_CONGRUENCE_CASES + _CENTRAL_LIFT_CASES)
def test_lifted_generators_generate_the_set(monkeypatch, rep, n, d, central):
    # the listing closes the certified generators by right products alone;
    # the oracle closes them and their inverses with a plain set of codes
    monkeypatch.setattr(subgroups, "_CONGRUENCE_CACHE", {})
    ring = Ring.mod(n)
    ideal = Ideal.of(ring, [d])
    build = enumerate_full_congruence if central else enumerate_congruence_subgroup
    listed = build(rep, ring, ideal)
    size = subgroups._congruence_order(rep, n, d, central)
    gens = subgroups._certify_generators(rep, n, d, central, subgroups._congruence_generators(rep, n, d, central))
    assert listed.cardinality == size
    weights = n ** np.arange(gens.shape[1] ** 2, dtype=np.int64)
    codes = (listed.stack.reshape(size, -1) @ weights).tolist()
    assert set(codes) == _closure_with_inverses(gens, n)


def _all_conjugates_inside(sub, conj, gens):
    return not len(sub.missing_conjugates(conj, gens))


@pytest.mark.parametrize(
    "stmt,tag,n,di,dj",
    [
        # A2/Z8 and A2/Z16 have nontrivial [E(I), E(J)]; J = (3) over Z/6
        # and I = (4) over Z/12 have a prime where the base layer is G(F_p)
        ("T2", "A2", 8, 2, 2), ("T2", "A2", 16, 2, 4), ("T2", "C2", 9, 3, 3), ("T2", "A2", 6, 2, 3),
        ("T3", "A2", 8, 2, 2), ("T3", "A2", 16, 4, 4), ("T3", "C2", 9, 3, 3), ("T3", "A2", 12, 4, 4),
    ],
)
def test_T2_T3_by_generators_match_all_elements(stmt, tag, n, di, dj):
    # the oracle passes every element of C, as K of [E(I), C(R, J)] and as
    # the conjugators of E(I)
    rep, ring = get_representation(tag), Ring.mod(n)
    ideal_i, ideal_j = Ideal.of(ring, [di]), Ideal.of(ring, [dj])
    e_i = elementary_level_words(tag, ideal_i)
    report = verify_theorem(stmt, tag, ring, ideal_i, ideal_j)
    assert report.error is None
    if stmt == "T2":
        lhs = commutator_subgroup(e_i, elementary_level_words(tag, ideal_j), rep, ring)
        cfull = enumerate_full_congruence(rep, ring, ideal_j)
        by_gens = commutator_subgroup(e_i, cfull.generator_stack(), rep, ring)
        by_all = commutator_subgroup(e_i, cfull.stack, rep, ring)
        assert by_gens.same_elements(by_all)
        assert report.cardinalities["[E(I),C(R,J)]"] == by_all.cardinality
        assert report.verdict == by_all.same_elements(lhs)
        return
    cfull = enumerate_full_congruence(rep, ring, ideal_i)
    e_sub = closure(e_i, rep, ring)
    gens = _word_matrices(e_i, rep, ring)
    assert report.verdict == _all_conjugates_inside(e_sub, cfull.stack, gens)
    # one root subgroup of level I, which C(R, I) need not normalise
    root = closure(e_i[:1], rep, ring)
    assert _all_conjugates_inside(root, cfull.generator_stack(), root.generator_stack()) == (
        _all_conjugates_inside(root, cfull.stack, root.generator_stack())
    )


def test_full_congruence_lifts_classes_without_scalar_lift():
    # the centre of SL3(Z/9) is {1, 4, 7} 1, but s^3 = 1 mod 27 has no
    # solution s = 4 or 7 mod 9: those two classes lift only to non-scalars
    ring = Ring.mod(27)
    cfull = enumerate_full_congruence(A2, ring, Ideal.of(ring, [9]), bound=10**6)
    assert not any(pow(s, 3, 27) == 1 for s in range(27) if s % 9 in (4, 7))
    assert cfull.cardinality == 19683 == 3 * 3**8
    residues = {tuple((m % 9).ravel()) for m in cfull.stack}
    assert residues == {tuple((s * np.eye(3, dtype=np.int64)).ravel()) for s in (1, 4, 7)}
    assert np.all(batch_det(cfull.stack, 27) == 1)


def test_verify_theorem_small_ring_all_statements():
    ideal = Ideal.of(Z4, [2])
    for stmt in ("T1", "T2", "T3", "O1", "O2"):
        report = verify_theorem(stmt, "A2", Z4, ideal, ideal)
        assert report.error is None and report.verdict is True


def test_verify_theorem_reports_bounds():
    ideal = Ideal.of(Z8, [2])
    report = verify_theorem("T1", "A2", Z8, ideal, ideal, bound=10)
    assert report.verdict is None
    assert "BoundExceeded" in report.error


def test_oldie6_generators_reproduce_relative_commutator():
    # closing the three bullet families equals the normal-closure route
    ideal = Ideal.of(Z4, [2])
    fam = mixed_commutator_generators("A2", ideal, ideal)
    bullets = closure([item.word for item in fam.items], A2, Z4)
    rel = relative_generators("A2", ideal)
    reference = commutator_subgroup(rel, rel, A2, Z4)
    assert bullets.same_elements(reference)


def test_congruence_refusal_counts_the_sweeps_lifting_runs(monkeypatch):
    # the listing is refused by the closed-form order before anything is
    # closed, also at a prime of n that d misses (SL3(F_3) inside G(Z/6, (2)))
    monkeypatch.setattr(subgroups, "_CONGRUENCE_CACHE", {})
    audits = []
    audit = EnumeratedSubgroup.audit_direct
    monkeypatch.setattr(EnumeratedSubgroup, "audit_direct", lambda self: audits.append(1) or audit(self))
    ideal = Ideal.of(Z8, [2])
    with pytest.raises(BoundExceeded, match="65536 elements"):
        enumerate_congruence_subgroup(A2, Z8, ideal, bound=65535)
    kernel = enumerate_congruence_subgroup(A2, Z8, ideal, bound=100000)
    assert kernel.cardinality == 2**16 and audits == [1]
    # the bound still caps a kernel taken from the cache
    with pytest.raises(BoundExceeded, match="65536 elements"):
        enumerate_congruence_subgroup(A2, Z8, ideal, bound=65535)
    ring = Ring.mod(6)
    with pytest.raises(BoundExceeded, match="5616 elements"):
        enumerate_congruence_subgroup(A2, ring, Ideal.of(ring, [2]), bound=5615)
    assert enumerate_congruence_subgroup(A2, ring, Ideal.of(ring, [2]), bound=5616).cardinality == 5616


def test_enumerators_default_to_the_element_bound():
    # 3^16 elements in G(Z/27, (3)), refused from the closed form at once
    ring = Ring.mod(27)
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match=f"{3**16} elements"):
        enumerate_congruence_subgroup(A2, ring, Ideal.of(ring, [3]))
    assert time.perf_counter() - start < 1


def test_full_congruence_c2_z6_listed_in_seconds(monkeypatch):
    # C(Z/6, (2)) is Sp4(F_3) at 3: 51,840 of the 3^16 matrices mod 3
    monkeypatch.setattr(subgroups, "_CONGRUENCE_CACHE", {})
    ring = Ring.mod(6)
    start = time.perf_counter()
    cfull = enumerate_full_congruence(C2, ring, Ideal.of(ring, [2]))
    assert time.perf_counter() - start < 2
    assert cfull.cardinality == 51840


def _replace_last(stack, matrix):
    return np.concatenate([stack[:-1], matrix[None] % 9])


_EYE4 = np.eye(4, dtype=np.int64)
_CERTIFY = subgroups._certify_generators
# each corruption of the certified generators of C2/Z9/(3) -- for C the lift
# of -1 and then the ten layer-1 lifts, for G the ten alone -- and the listing
# check that must refuse their closure.  The first layer-1 lift x = 1 + 3 z is
# the one changed or dropped: the lift of -1 squares to 1 + 3 h, h diagonal,
# whose coordinates do not involve z, so it cannot stand in for x
_CORRUPTIONS = {
    "off-the-group": (
        lambda g: np.concatenate([g[:-10], (g[-10:-9] + 3 * _EYE4) % 9, g[-9:]]),
        "group equations",
    ),
    "dropped": (lambda g: np.delete(g, len(g) - 10, axis=0), "count"),
    "root-element": (
        lambda g: _replace_last(g, _word_matrices([x_word(C2.system.roots[0], Z9.one)], C2, Z9)[0]),
        "count",
    ),
    "minus-one": (lambda g: _replace_last(g, -_EYE4), "level"),
    "G-as-C": (lambda g: g[1:], "count"),
}


@pytest.mark.parametrize(
    "central,corruption",
    [
        (False, "off-the-group"), (True, "off-the-group"), (False, "dropped"), (True, "dropped"),
        (True, "root-element"), (False, "minus-one"), (True, "G-as-C"),
    ],
)
def test_lifted_congruence_audit_refuses_corruption(monkeypatch, central, corruption):
    # the certificate is bypassed, so only the listing checks stand between
    # the corrupted generators and the cache
    monkeypatch.setattr(subgroups, "_CONGRUENCE_CACHE", {})
    corrupt, check = _CORRUPTIONS[corruption]
    monkeypatch.setattr(subgroups, "_certify_generators", lambda *args: corrupt(_CERTIFY(*args)))
    build = enumerate_full_congruence if central else enumerate_congruence_subgroup
    kind = "C" if central else "G"
    with pytest.raises(EnumerationError, match=rf"listed {kind}\(Z/9, \(3\)\) of C2: {check} check failed"):
        build(C2, Z9, Ideal.of(Z9, [3]))
    assert not any(isinstance(v, EnumeratedSubgroup) for v in subgroups._CONGRUENCE_CACHE.values())


def test_audit_direct_refuses_a_set_not_closed():
    # G(Z/4, (2)) of C2 with its last listed element dropped
    kernel = enumerate_congruence_subgroup(C2, Z4, Ideal.of(Z4, [2]))
    partial = EnumeratedSubgroup(C2, Z4, [])
    partial._add_batch(kernel.stack[:-1], 10**6)
    partial._min_gens = list(kernel.generator_stack())
    with pytest.raises(EnumerationError, match="closure check failed"):
        partial.audit_direct()


@pytest.mark.parametrize(
    "rep,n,d",
    [
        pytest.param(rep, n, d, id=f"{rep.name}-Z{n}-({d})")
        for rep, n, d in [(C2, 9, 3), (A2, 27, 9), (A2, 8, 2), (A2, 12, 4), (C2, 6, 3)]
    ]
    + _CENTRAL_LIFT_CASES,
)
def test_kernel_from_cached_full_congruence_matches_lifting(monkeypatch, rep, n, d):
    # G(R, I) is the part of C(R, I) that is 1 mod d, and its certified
    # generators are those of C but the central lifts; |C|/|G| is the number
    # of central scalars of G(Z/p^a) at each p^a exactly dividing d
    monkeypatch.setattr(subgroups, "_CONGRUENCE_CACHE", {})
    ring = Ring.mod(n)
    ideal = Ideal.of(ring, [d])
    cfull = enumerate_full_congruence(rep, ring, ideal)
    kernel = enumerate_congruence_subgroup(rep, ring, ideal)
    ident = np.eye(rep.block_dims[0], dtype=np.int64)

    def at_one(stack):
        return stack[np.all((stack - ident) % d == 0, axis=(1, 2))]

    assert _code_set(kernel.stack, n) == _code_set(at_one(cfull.stack), n)
    scalars = math.prod(len(subgroups._central_scalars(rep, p, a)) for p, _, a in subgroups._filtration(n, d) if a)
    assert kernel.cardinality == cfull.cardinality // scalars
    g_gens = subgroups._certify_generators(rep, n, d, False, subgroups._congruence_generators(rep, n, d, False))
    c_gens = full_congruence_generators(rep, ring, ideal)[1]
    assert np.array_equal(at_one(c_gens), g_gens)


def test_huge_ring_refused_before_listing_words():
    ring = Ring.mod(1099511627791)
    start = time.perf_counter()
    report = verify_theorem("T1", "A2", ring, Ideal.of(ring, [1]), Ideal.of(ring, [1]))
    assert time.perf_counter() - start < 1
    assert report.verdict is None
    assert report.error.startswith("EnumerationError: Z/1099511627791 is too large")
    assert report.condition_star["theta_condition"] is True


def test_many_words_refused_before_listing_them():
    # 6 * 100002 * 2 level words and 6 * 100003^2 * 2 relative words
    ring = Ring.mod(100003)
    start = time.perf_counter()
    report = verify_theorem("T1", "A2", ring, Ideal.of(ring, [1]), Ideal.of(ring, [1]))
    assert time.perf_counter() - start < 1
    assert report.verdict is None
    assert report.error == (
        "BoundExceeded: T1 for A2 over Z/100003 lists 120008400132 generator words (> 1000000)"
    )


@pytest.mark.parametrize(
    "stmt,words",
    # A2/Z8, |I| = 4, |J| = 2, IJ = 0: 6 * 3 + 6 * 1 level words, then T1's
    # 6 * (4 + 2) * 8 relative words, O1's 6 * 1 * 8 and O2's 6 * 7 absolute
    [("T1", 312), ("T2", 24), ("T3", 24), ("O1", 72), ("O2", 66)],
)
def test_listed_words_counted_against_the_bound(stmt, words):
    ideal_i, ideal_j = Ideal.of(Z8, [2]), Ideal.of(Z8, [4])
    report = verify_theorem(stmt, "A2", Z8, ideal_i, ideal_j, bound=words - 1)
    assert report.error == (
        f"BoundExceeded: {stmt} for A2 over Z/8 lists {words} generator words (> {words - 1})"
    )
    report = verify_theorem(stmt, "A2", Z8, ideal_i, ideal_j, bound=words)
    assert "generator words" not in (report.error or "")


# moduli on both sides of the one-word limit n^(dim^2) <= 2^64, and wide ones
_MEMBERSHIP_CASES = [(A2, 138), (A2, 139), (C2, 16), (C2, 17), (C2, 27), (A2, 243)]


@pytest.mark.parametrize(
    "rep,n",
    [
        pytest.param(rep, n, id=f"{rep.name}-Z{n}")
        for rep, n in _MEMBERSHIP_CASES + [(A2, 257), (C2, 65537)]
    ],
)
def test_codes_decode_to_the_residues(rep, n):
    # one uint64 word up to the limit, then the residues in the narrowest
    # unsigned dtype (uint16 past 256, uint32 past 65536) as a byte string
    dim = rep.block_dims[0]
    rng = np.random.default_rng(n)
    extremes = np.stack([np.full((dim, dim), n - 1), np.zeros((dim, dim), dtype=np.int64)])
    stack = np.concatenate([extremes, rng.integers(0, n, (50, dim, dim))])
    codes = _codes(stack, n)
    flat = stack.reshape(len(stack), -1)
    if n ** (dim * dim) <= 2**64:
        assert codes.dtype == np.uint64 and int(codes[0]) == n ** (dim * dim) - 1
        digits = [[int(c) // n**i % n for i in range(dim * dim)] for c in codes]
    else:
        narrow = np.min_scalar_type(n - 1)
        assert codes.dtype.kind == "V" and codes.itemsize == dim * dim * narrow.itemsize
        digits = np.frombuffer(codes.tobytes(), dtype=narrow).reshape(len(stack), -1).tolist()
    assert digits == flat.tolist()
    for bad in (-1, n):
        with pytest.raises(EnumerationError, match=f"mod {n}"):
            _codes(stack[:1] * 0 + bad, n)


@st.composite
def _membership_script(draw):
    rep, n = draw(st.sampled_from(_MEMBERSHIP_CASES))
    dim = rep.block_dims[0]
    entries = st.lists(st.integers(0, n - 1), min_size=dim * dim, max_size=dim * dim)
    pool = draw(st.lists(entries, min_size=1, max_size=10))
    pool += [[0] * dim * dim, [n - 1] * dim * dim]
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=16)
    return (
        rep,
        n,
        np.array(pool, dtype=np.int64).reshape(-1, dim, dim),
        draw(st.lists(picks, min_size=1, max_size=5)),
        draw(st.lists(picks, min_size=1, max_size=5)),
        draw(picks),
        draw(st.integers(1, len(pool))),
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(script=_membership_script())
def test_sorted_codes_match_byte_key_oracle(script):
    rep, n, pool, batches, other_batches, queries, bound = script
    ring = Ring.mod(n)

    def build(cls, picks, bound):
        sub, added = cls(rep, ring, []), []
        for idx in picks:
            added.append(sub._add_batch(pool[np.array(idx, dtype=np.intp)], bound))
        return sub, added

    def bound_error(cls):
        try:
            build(cls, batches, bound)
        except BoundExceeded as exc:
            return str(exc), exc.partial
        return None

    assert bound_error(EnumeratedSubgroup) == bound_error(ByteKeySubgroup)
    (fast, fast_added), (slow, slow_added) = (
        build(cls, batches, len(pool)) for cls in (EnumeratedSubgroup, ByteKeySubgroup)
    )
    assert [a.tolist() for a in fast_added] == [a.tolist() for a in slow_added]
    assert np.array_equal(fast.stack, slow.stack)
    assert fast.cardinality == slow.cardinality == len(fast.stack)
    probe = pool[np.array(queries, dtype=np.intp)]
    assert np.array_equal(fast.contains_batch(probe), slow.contains_batch(probe))
    fast_other = build(EnumeratedSubgroup, other_batches, len(pool))[0]
    slow_other = build(ByteKeySubgroup, other_batches, len(pool))[0]
    assert fast.same_elements(fast_other) == slow.same_elements(slow_other)
    assert fast.is_subset_of(fast_other) == slow.is_subset_of(slow_other)
    assert fast_other.is_subset_of(fast) == slow_other.is_subset_of(slow)


@pytest.mark.parametrize(
    "rep,n,d,size",
    [
        pytest.param(rep, n, d, size, id=f"{rep.name}-Z{n}-({d})")
        for rep, n, d, size in [(A2, 8, 2, 2**14), (A2, 243, 81, 3**6), (C2, 27, 9, 3**8)]
    ],
)
def test_closure_order_matches_byte_key_oracle(rep, n, d, size):
    # E(R, (d)) keyed by one word (Z/8) and by byte strings (Z/243, Z/27)
    ring = Ring.mod(n)
    gens = _word_matrices(elementary_level_words(rep.name, Ideal.of(ring, [d])), rep, ring)
    fast, slow = EnumeratedSubgroup(rep, ring, []), ByteKeySubgroup(rep, ring, [])
    for sub in (fast, slow):
        sub.close_over(gens, bound=10**6)
    assert fast.cardinality == slow.cardinality == size
    assert np.array_equal(fast.stack, slow.stack)
    assert fast.audit_closure() and slow.audit_closure()


def test_comparing_subgroups_over_different_rings_refused():
    a2_z4, a2_z8, c2_z4 = closure([], A2, Z4), closure([], A2, Z8), closure([], C2, Z4)
    for this, other, pattern in [
        (a2_z4, a2_z8, "A2 over Z/4 .* A2 over Z/8"),
        (a2_z4, c2_z4, "A2 over Z/4 .* C2 over Z/4"),
    ]:
        with pytest.raises(EnumerationError, match=pattern):
            this.same_elements(other)
        with pytest.raises(EnumerationError, match=pattern):
            this.is_subset_of(other)
    assert a2_z4.same_elements(closure([], A2, Z4))


def test_close_over_refuses_non_invertible_generators():
    # no inverse is multiplied in, so the invertibility check (a unit pivot
    # in every column at each prime) is what keeps out a matrix no power of
    # which is 1, for which the monoid argument fails
    ident = np.eye(3, dtype=np.int64)
    unit = ident.copy()
    unit[0, 1] = 1
    singular = ident.copy()
    singular[0, 0] = 2
    for bad in (singular, 2 * ident):
        sub = EnumeratedSubgroup(A2, Z4, [])
        with pytest.raises(EnumerationError, match="non-invertible matrix"):
            sub.close_over(np.stack([unit, bad]), bound=10**6)


def _closure_with_inverses(gens, n):
    """Codes of the group the matrices generate, by a BFS over them and their
    inverses that keeps one Python set of codes."""
    dim = gens.shape[1]
    steps = np.concatenate([gens, _batch_inverse(gens, n)])
    weights = n ** np.arange(dim * dim, dtype=np.int64)
    frontier = np.eye(dim, dtype=np.int64)[None]
    seen = set((frontier.reshape(1, -1) @ weights).tolist())
    while len(frontier):
        prods = (frontier[:, None] @ steps[None] % n).reshape(-1, dim, dim)
        codes, first = np.unique(prods.reshape(len(prods), -1) @ weights, return_index=True)
        new = np.array([c not in seen for c in codes.tolist()], dtype=bool)
        seen.update(codes[new].tolist())
        frontier = prods[first[new]]
    return seen


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "rep,n,d",
    [pytest.param(rep, n, d, id=f"{rep.name}-Z{n}-({d})") for rep, n, d in [(A2, 4, 1), (C2, 4, 2), (A2, 8, 2)]],
)
def test_generators_only_bfs_matches_closure_with_inverses(rep, n, d, seed):
    # two or three random elements of G(Z/n, (d)) and x_a(n/4) for a random
    # root a as generators
    ring = Ring.mod(n)
    pool = enumerate_congruence_subgroup(rep, ring, Ideal.of(ring, [d])).stack
    rng = np.random.default_rng(seed)
    root = rep.system.roots[rng.integers(len(rep.system.roots))]
    gens = np.concatenate([
        pool[rng.choice(len(pool), size=2 + seed % 2, replace=False)],
        _word_matrices([x_word(root, ring.element(n // 4))], rep, ring),
    ])
    sub = EnumeratedSubgroup(rep, ring, [])
    sub.close_over(gens, bound=10**6)
    weights = n ** np.arange(gens.shape[1] ** 2, dtype=np.int64)
    codes = (sub.stack.reshape(len(sub.stack), -1) @ weights).tolist()
    assert len(codes) == sub.cardinality and set(codes) == _closure_with_inverses(gens, n)
    assert sub.audit_closure()


@pytest.mark.parametrize("rep", [A2, C2], ids=["A2", "C2"])
def test_centre_order_closed_form_matches_scalar_sweep(rep):
    # the constructed centre of G(Z/p^a) and its closed-form order against
    # a sweep of all p^a scalars
    levels = [(2, a) for a in range(1, 10)] + [(3, a) for a in range(1, 8)]
    levels += [(5, a) for a in range(1, 5)] + [(7, a) for a in range(1, 4)]
    levels += [(13, 1), (13, 2), (19, 1), (19, 2), (31, 1), (31, 2), (37, 1), (1000003, 1)]
    for p, a in levels:
        swept = sweep_central_scalars(rep, p**a)
        assert np.array_equal(subgroups._central_scalars(rep, p, a), swept)
        assert subgroups._centre_order(rep, p, a) == len(swept)


@pytest.mark.parametrize("rep,p,order", [(A2, 2, 168), (A2, 3, 5616), (C2, 2, 720)])
def test_group_order_mod_p_closed_form_matches_sweep(rep, p, order):
    # G(F_p) listed as the closure of the x_a(1), against Steinberg's order
    # and the sweep of all p^(dim^2) matrices
    ring = Ring.mod(p)
    listed = enumerate_congruence_subgroup(rep, ring, Ideal.of(ring, [1])).stack
    swept = sweep_congruence(rep, p, 1)
    assert subgroups._group_order_mod_p(rep, p) == len(swept) == len(listed) == order
    assert _code_set(listed, p) == _code_set(swept, p)


@pytest.mark.parametrize(
    "stmt,di,dj,verdict,cards",
    [
        ("O1", 2, 2, False, {"E(R,IJ)": 1024, "[E(I),E(J)]": 64}),
        ("T1", 2, 2, True, {"[E(I),E(J)]": 64, "[E(R,I),E(R,J)]": 64}),
        ("O2", 2, 2, True, {"[E(I),E(J)]": 64, "conjugators": 56}),
        ("T2", 2, 2, True, {"[E(I),E(J)]": 64, "C(R,J)": 2**20, "[E(I),C(R,J)]": 64}),
        ("T3", 4, 4, True, {"E(I)": 256, "C(R,I)": 2048}),
    ],
)
def test_c2_z8_verdicts_outside_condition_star(stmt, di, dj, verdict, cards):
    # Z/8 has residue field F_2, so condition (*) fails for C2; O1 is false
    # there, while T1, O2, T2 and T3 still hold
    report = verify_theorem(stmt, "C2", Z8, Ideal.of(Z8, [di]), Ideal.of(Z8, [dj]))
    assert report.condition_star["satisfied"] is False
    assert report.error is None and report.verdict is verdict
    assert report.cardinalities == cards


@pytest.mark.parametrize(
    "n,di,dj,c_size,mixed",
    # C(R, J) from 2^20 to 9,360,000 elements, none listed; over Z/10 the
    # listing was refused, as its base layer Sp4(F_5) sweeps 5^16 matrices
    [(16, 2, 4, 2**21, 64), (8, 2, 2, 2**20, 64), (6, 3, 2, 51840, 1), (10, 5, 2, 9360000, 1)],
)
def test_T2_by_certified_generators_on_large_levels(n, di, dj, c_size, mixed):
    ring = Ring.mod(n)
    start = time.perf_counter()
    report = verify_theorem("T2", "C2", ring, Ideal.of(ring, [di]), Ideal.of(ring, [dj]))
    assert time.perf_counter() - start < 1
    assert report.error is None and report.verdict is True
    assert report.cardinalities == {"[E(I),E(J)]": mixed, "C(R,J)": c_size, "[E(I),C(R,J)]": mixed}


def test_theorem_path_lists_no_congruence_subgroup(monkeypatch):
    cases = [(stmt, tag, n, d) for stmt in ("T1", "T2", "T3") for tag, n, d in [("C2", 9, 3), ("A2", 8, 2)]]

    def run(stmt, tag, n, d):
        ring = Ring.mod(n)
        return verify_theorem(stmt, tag, ring, Ideal.of(ring, [d]), Ideal.of(ring, [d])).to_json()

    expected = [run(*case) for case in cases]
    assert all("G(R,I)" in r["cardinalities"] for r in expected if r["statement"] == "T1")

    def refuse(*args, **kwargs):
        raise AssertionError("a congruence subgroup was listed")

    for name in ("_congruence", "enumerate_congruence_subgroup", "enumerate_full_congruence"):
        monkeypatch.setattr(subgroups, name, refuse)
    assert [run(*case) for case in cases] == expected


_BUILD = subgroups._congruence_generators
_X1 = _word_matrices([x_word(C2.system.roots[0], Z9.one)], C2, Z9)


def _with_block(blocks, m, change):
    """The blocks of C2/Z9/(3), with change applied to the one of layer m."""
    return [(p, bm, change(g) if bm == m else g) for p, bm, g in blocks]


# each corruption of the generators of C2/Z9/(3), which are blocks (3, 0, the
# lifts of the central scalars, or 1 for G) and (3, 1, the ten layer-1
# lifts), and the certificate check that must refuse it
_GENERATOR_CORRUPTIONS = {
    "off-the-group": (lambda b: _with_block(b, 1, lambda g: _replace_last(g, g[-1] + 3 * _EYE4)), "group equations"),
    "off-the-level": (lambda b: _with_block(b, 1, lambda g: _replace_last(g, _X1[0])), "level"),
    "minus-one": (lambda b: _with_block(b, 0, lambda g: -_EYE4[None] % 9), "level"),
    "layer-dropped": (lambda b: _with_block(b, 1, lambda g: g[:-1]), "rank"),
    "layer-doubled": (lambda b: _with_block(b, 1, lambda g: np.concatenate([g[:-1], g[:1] @ g[:1] % 9])), "rank"),
    "central-lift-dropped": (lambda b: _with_block(b, 0, lambda g: g[:1]), "central lift"),
}


@pytest.mark.parametrize(
    "central,corruption",
    [
        (True, "off-the-group"), (False, "off-the-group"), (True, "off-the-level"), (False, "minus-one"),
        (True, "layer-dropped"), (False, "layer-dropped"), (True, "layer-doubled"), (True, "central-lift-dropped"),
    ],
)
def test_generator_certificate_refuses_corruption(monkeypatch, central, corruption):
    monkeypatch.setattr(subgroups, "_CONGRUENCE_CACHE", {})
    corrupt, check = _GENERATOR_CORRUPTIONS[corruption]
    monkeypatch.setattr(subgroups, "_congruence_generators", lambda *args: corrupt(_BUILD(*args)))
    kind = "C" if central else "G"
    message = rf"generators of {kind}\(Z/9, \(3\)\) of C2: {check} check failed"
    ideal = Ideal.of(Z9, [3])
    if central:
        with pytest.raises(EnumerationError, match=message):
            full_congruence_generators(C2, Z9, ideal)
        report = verify_theorem("T3", "C2", Z9, ideal, ideal)
        assert report.verdict is None and re.search(message, report.error)
    else:
        with pytest.raises(EnumerationError, match=message):
            enumerate_congruence_subgroup(C2, Z9, ideal)
    assert not subgroups._CONGRUENCE_CACHE


def test_t1_side_data_gated_on_the_closed_form():
    # |G(Z/7, (1))| = |SL3(F_7)| = 5,630,688 is past the element bound, so T1
    # reports no E(R,I)/G(R,I) side data instead of losing its verdict to
    # the closure of E(R, R)
    ring = Ring.mod(7)
    report = verify_theorem("T1", "A2", ring, Ideal.of(ring, [1]), Ideal.of(ring, [0]))
    assert report.error is None and report.verdict is True
    assert report.cardinalities == {"[E(I),E(J)]": 1, "[E(R,I),E(R,J)]": 1}
    assert report.notes == []


# every proper level of A2 and C2 over Z/4, 8, 9, 16, 27 with |G(R,I)| <= 10^5,
# and three composite levels, where every prime of n divides d
_SIFT_LEVELS = [
    (rep, n, d)
    for rep in (A2, C2)
    for n in (4, 8, 9, 16, 27)
    for d in range(2, n)
    if n % d == 0 and _congruence_order(rep, n, d, False) <= 10**5
] + [(A2, 12, 6), (C2, 12, 6), (A2, 18, 6)]


@pytest.mark.parametrize(
    "rep,n,d", [pytest.param(rep, n, d, id=f"{rep.name}-Z{n}-({d})") for rep, n, d in _SIFT_LEVELS]
)
def test_generated_order_matches_closure(rep, n, d):
    # E(R,I), E(I) and three seeded subsets of 1-4 relative generators; no
    # subset reaches G(R,I), whose layer at the level alone needs dim G
    # generators
    ring = Ring.mod(n)
    ideal = Ideal.of(ring, [d])
    rel = relative_generators(rep.name, ideal)
    rng = np.random.default_rng(n * d)
    subsets = [[rel[i] for i in rng.choice(len(rel), size=rng.integers(1, 5), replace=False)] for _ in range(3)]
    orders = []
    for words in [rel, elementary_level_words(rep.name, ideal), *subsets]:
        orders.append(_generated_order(_word_matrices(words, rep, ring), n))
        assert orders[-1] == closure(words, rep, ring).cardinality
    assert max(orders[2:]) < _congruence_order(rep, n, d, False)


@pytest.mark.parametrize("n,t,prime", [(8, 1, 2), (12, 2, 3)])
def test_generated_order_refuses_a_matrix_off_one(n, t, prime):
    # x_a(2) over Z/12 is 1 mod 2 but not mod 3
    ring = Ring.mod(n)
    mats = _word_matrices([x_word(A2.system.roots[0], ring.element(t))], A2, ring)
    with pytest.raises(EnumerationError, match=f"not 1 mod {prime}$"):
        _generated_order(mats, n)


def test_t1_side_data_inside_the_radical_lists_nothing(monkeypatch):
    cases = [("A2", 8, 2), ("C2", 9, 3)]

    def run(tag, n, d):
        ring = Ring.mod(n)
        return verify_theorem("T1", tag, ring, Ideal.of(ring, [d]), Ideal.of(ring, [d])).to_json()

    expected = [run(*case) for case in cases]
    assert [r["cardinalities"]["E(R,I)"] for r in expected] == [65536, 59049]

    def refuse(*args, **kwargs):
        raise AssertionError("E(R,I) was listed")

    monkeypatch.setattr(subgroups, "closure", refuse)
    assert [run(*case) for case in cases] == expected


def test_t1_side_data_outside_the_radical_through_the_closure(monkeypatch):
    # 3 does not divide the level (2) of Z/6, so E(R,I) = SL3(F_3) is listed
    listed = []
    monkeypatch.setattr(subgroups, "closure", lambda *args: listed.append(1) or closure(*args))
    ring = Ring.mod(6)
    report = verify_theorem("T1", "A2", ring, Ideal.of(ring, [2]), Ideal.of(ring, [2]))
    assert report.error is None and listed
    assert report.cardinalities["E(R,I)"] == report.cardinalities["G(R,I)"] == 5616


def test_t1_side_data_on_a_large_level():
    # E(R,I) = G(R,I) has 5^8 elements; its closure took over a second
    ring = Ring.mod(25)
    ideal = Ideal.of(ring, [5])
    start = time.perf_counter()
    report = verify_theorem("T1", "A2", ring, ideal, ideal)
    assert time.perf_counter() - start < 1
    assert report.error is None and report.verdict is True
    assert report.cardinalities["E(R,I)"] == report.cardinalities["G(R,I)"] == 390625


def test_full_congruence_listed_at_a_large_prime_level(monkeypatch):
    # C(Z/2000006, (1000003)) is Sp4(F_2) x {+-1}: its centre at 1000003 is
    # constructed, so only the 1,440 elements count against the bound
    monkeypatch.setattr(subgroups, "_CONGRUENCE_CACHE", {})
    ring = Ring.mod(2000006)
    ideal = Ideal.of(ring, [1000003])
    for stmt in ("T2", "T3"):
        report = verify_theorem(stmt, "C2", ring, ideal, ideal)
        assert report.error is None and report.verdict is True
    assert full_congruence_generators(C2, ring, ideal)[0] == 1440
    listed = enumerate_full_congruence(C2, ring, ideal, bound=10**6)
    assert listed.cardinality == 1440
    with pytest.raises(BoundExceeded, match=r"congruence subgroup has 1440 elements \(> 1439\)"):
        enumerate_full_congruence(C2, ring, ideal, bound=1439)


@pytest.mark.parametrize(
    "stmt,n,d,cards,seconds",
    [
        ("T2", 200000014, 100000007, {"[E(I),E(J)]": 360, "C(R,J)": 1440, "[E(I),C(R,J)]": 360}, 1),
        ("T3", 200000014, 100000007, {"E(I)": 720, "C(R,I)": 1440}, 1),
        ("T2", 27, 3, {"[E(I),E(J)]": 59049, "C(R,J)": 6973568802, "[E(I),C(R,J)]": 59049}, 20),
    ],
    ids=["T2-Z200000014", "T3-Z200000014", "T2-Z27"],
)
def test_statements_past_the_scalar_sweep(stmt, n, d, cards, seconds):
    # refused while the p^a central scalars were swept under a second bound
    # of 10^8: at Z/200000014 for the 100000007 candidates, at Z/27 for
    # |C(R,J)|; C(R,J) is not listed
    ring = Ring.mod(n)
    ideal = Ideal.of(ring, [d])
    start = time.perf_counter()
    report = verify_theorem(stmt, "C2", ring, ideal, ideal)
    assert time.perf_counter() - start < seconds
    assert report.error is None and report.verdict is True
    assert report.cardinalities == cards


def test_benchmark_tracer_finds_the_names_it_wraps():
    # the traced benchmark wraps chevlab functions by name and clears the
    # congruence cache between rounds
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "from spans import Tracer, install\n"
        "from chevlab import subgroups\n"
        "install(Tracer())\n"
        "subgroups._CONGRUENCE_CACHE.clear()\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
