"""Triple-by-triple finite main lemma, kept as the oracle.

This is how ``chevlab.cli.task_verify_main_lemma`` checked a ring Z/n
before it factored each xi's pairs (zeta, eta) in blocks: every triple is
factored on its own by ``main_lemma_word``, and verified as
``CertifiedFactorization.verify`` did then, by evaluating the target and
the product of the factors word by word, comparing them, and only then
validating the certificates.  Both must give the same result.
"""
from __future__ import annotations

from chevlab.factorize import CertifiedFactorization, condition_star, main_lemma_word
from chevlab.reps import Representation, get_representation
from chevlab.rings import Ideal, Ring, enumerate_elements
from chevlab.roots import MainLemmaCase
from chevlab.words import Word, evaluate, validate_certificate


def verify_one(
    fact: CertifiedFactorization, rep: Representation, ring: Ring, ideal_i: Ideal, ideal_j: Ideal
) -> bool:
    product = Word(tuple(sym for word, _ in fact.factors for sym in word.letters))
    if evaluate(fact.target, rep, ring) != evaluate(product, rep, ring):
        return False
    return all(
        validate_certificate(cert, word, ideal_i, ideal_j, rep, ring)
        for word, cert in fact.factors
    )


def main_lemma_by_triples(
    case: MainLemmaCase, ring: Ring, ideal_i: Ideal, ideal_j: Ideal, targets: list | None = None
) -> dict:
    """The finite verify-main-lemma result; the target of every triple
    verified is appended to targets, in order, when a list is given."""
    rep = get_representation(case.system_tag)
    checked = 0
    failures = []
    for xi in ideal_i.element_values():
        for zeta in ideal_j.element_values():
            for eta in enumerate_elements(ring):
                fact = main_lemma_word(case, xi, zeta, eta, ideal_i, ideal_j)
                checked += 1
                if targets is not None:
                    targets.append(fact.target)
                if not verify_one(fact, rep, ring, ideal_i, ideal_j):
                    failures.append([str(xi), str(zeta), str(eta)])
    return {
        "case": case.value,
        "mode": "finite",
        "ring": str(ring),
        "ideal_i": str(ideal_i),
        "ideal_j": str(ideal_j),
        "triples_checked": checked,
        "failures": failures,
        "condition_star": condition_star(case.system_tag, ring).to_json(),
    }
