"""Sample-by-sample Levi check over words, kept as the oracle.

This is how ``chevlab.factorize.levi_commutator_check`` worked before it
drew its samples as runs of letters and evaluated and peeled them in
stacked blocks: each sample is built as the word ``commutator(l, u)`` from
z and x symbols, evaluated on its own, peeled over the radical roots with
``unipotent_coordinates``, and every coordinate is tested against IJ.  Both
must return the same report, violation records included, and
``levi_sample_words`` gives the words themselves, so that each sample's
value can be compared too.
"""
from __future__ import annotations

import random
from collections.abc import Iterator

from chevlab.factorize import FactorizationError, LeviReport, ParabolicData
from chevlab.reps import PeelError, get_representation, unipotent_coordinates
from chevlab.rings import Ideal, InfiniteRing, Ring
from chevlab.words import Word, commutator, evaluate, x_word, z_word


def levi_sample_words(
    parabolic: ParabolicData,
    ideal_i: Ideal,
    ideal_j: Ideal,
    ring: Ring,
    samples: int,
    seed: int = 0,
    minus_side: bool = False,
) -> Iterator[Word]:
    """The freely reduced words [l, u] of samples 0 .. samples - 1."""
    radical = parabolic.U_minus_roots if minus_side else parabolic.U_roots
    alpha_r = parabolic.levi_roots[0]
    n = ring.modulus
    (d_i,), (d_j,) = ideal_i.gens, ideal_j.gens

    def draw(rng, d):
        return ring.element(d * rng.randrange(n // d))

    for idx in range(samples):
        rng = random.Random(seed * 1_000_003 + idx)
        l_letters = []
        for _ in range(rng.randint(0, 4)):
            root = alpha_r if rng.random() < 0.5 else -alpha_r
            l_letters.extend(
                z_word(root, draw(rng, d_i), ring.element(rng.randrange(n))).letters
            )
        u_letters = []
        for _ in range(rng.randint(0, 4)):
            u_letters.extend(
                x_word(rng.choice(radical), draw(rng, d_j)).letters
            )
        yield commutator(Word(tuple(l_letters)), Word(tuple(u_letters)))


def levi_check_by_samples(
    parabolic: ParabolicData,
    ideal_i: Ideal,
    ideal_j: Ideal,
    ring: Ring,
    samples: int,
    seed: int = 0,
    minus_side: bool = False,
) -> LeviReport:
    if ring.kind != "Zn":
        raise InfiniteRing("the sampled check needs a finite ring")
    if samples < 1:
        raise FactorizationError(f"the sampled Levi check needs at least one sample, got {samples}")
    rep = get_representation(parabolic.system.type_tag)
    radical = parabolic.U_minus_roots if minus_side else parabolic.U_roots
    ideal_ij = ideal_i.product(ideal_j)
    words = levi_sample_words(parabolic, ideal_i, ideal_j, ring, samples, seed, minus_side)

    violations = []
    for idx, word in enumerate(words):
        mat = evaluate(word, rep, ring)
        try:
            coords = unipotent_coordinates(mat, list(radical))
        except PeelError:
            violations.append({"sample": idx, "reason": "outside the radical"})
            continue
        for root, c in coords:
            if not ideal_ij.contains(c):
                violations.append(
                    {"sample": idx, "root": root.name, "coefficient": str(c)}
                )
    return LeviReport(
        parabolic.system.type_tag, parabolic.r, minus_side, samples, violations, seed
    )
