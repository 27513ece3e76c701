"""Constructive factorizations: the four-case commutator lemma, long-root
decompositions, Levi-lemma sampling, and the generator families.

The central routine rewrites [x_a(xi), z_a(zeta, eta)] as an explicit,
certificate-carrying product.  Conjugation residues are never assumed:
each one is computed exactly in the representation, split off the
predicted leading factor, re-expressed in unipotent coordinates, and its
level is then asserted.  The resulting identity is checked by evaluation,
so it holds over whatever coefficient ring the inputs live in; run over
Z[xi, zeta, eta] with ideals (xi), (zeta) it holds universally.

Over a ring Z/n the lemma is checked for every triple of I x J x R, many
pairs (zeta, eta) to each xi.  ``main_lemma_words`` factors one xi's pairs
together: what depends on xi alone (the signs, the expansion's tails and
its identity, the residual bases and their inverses) is done once, and the
z_a(zeta, eta) of all pairs and their inverses are evaluated as one stack.
``verify_factorizations`` evaluates the targets and the factor products of
many factorizations as one stack too.  ``main_lemma_word`` and
``CertifiedFactorization.verify`` are their one-element cases, which the
symbolic check runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .constants import compute_table
from .reps import (
    GroupElement,
    PeelError,
    Representation,
    get_representation,
    unipotent_coordinates,
    unipotent_coordinates_stack,
)
from .rings import (
    Ideal,
    InfiniteRing,
    Ring,
    RingElement,
    enumerate_elements,
    has_residue_field_f2,
    theta_condition_holds,
)
from .roots import MainLemmaCase, Root, RootSystem, canonical_case_root, get_system
from .words import (
    ConjSym,
    ConjugateOf,
    GenCommutator,
    LevelElement,
    ProductOf,
    Word,
    XSym,
    commutator,
    conj_word,
    evaluate_all,
    letter_stack_product,
    validate_certificate,
    x_word,
    z_word,
)


class FactorizationError(Exception):
    pass


class CaseMismatch(FactorizationError):
    pass


class SignMismatch(FactorizationError):
    """A computed residue or expansion contradicts the normalized signs."""


class NotShortRoot(FactorizationError):
    pass


class ResidueFieldF2(FactorizationError):
    pass


# ---------------------------------------------------------------------------
# parabolic frames


@dataclass(frozen=True)
class ParabolicData:
    """Rank-1 standard parabolic data for a simple root index r (1-based)."""

    system: RootSystem
    r: int
    U_roots: tuple[Root, ...]
    U_minus_roots: tuple[Root, ...]
    levi_roots: tuple[Root, Root]

    @staticmethod
    def for_simple(system: RootSystem, r: int) -> "ParabolicData":
        if r not in (1, 2):
            raise FactorizationError("simple root index must be 1 or 2")
        alpha = system.simple_roots[r - 1]
        frame = RadicalFrame.for_root(alpha)
        upper = frame.upper if set(frame.upper) <= set(system.positive_roots) else frame.lower
        lower = frame.lower if upper == frame.upper else frame.upper
        expected = tuple(p for p in system.positive_roots if p != alpha)
        if set(upper) != set(expected):
            raise FactorizationError("parabolic frame mismatch")
        _check_addition_closed(system, upper)
        return ParabolicData(system, r, tuple(upper), tuple(lower), (alpha, -alpha))


def _check_addition_closed(system: RootSystem, roots: tuple[Root, ...]) -> None:
    members = set(roots)
    for a in roots:
        for b in roots:
            s = a.plus(b)
            if s is not None and s not in members:
                raise FactorizationError(f"{[r.name for r in roots]} not closed")


@dataclass(frozen=True)
class RadicalFrame:
    """Roots strictly on each side of the line through +-alpha.

    Both sides are unipotent-radical root sets for the rank-1 parabolic
    attached to alpha (in a positive order making alpha simple); they are
    ordered by the defining linear functional so that unipotent
    coordinates can be peeled front-to-back.
    """

    alpha: Root
    upper: tuple[Root, ...]
    lower: tuple[Root, ...]

    @staticmethod
    def for_root(alpha: Root) -> "RadicalFrame":
        system = get_system(alpha.system)
        am, an = alpha.coords

        def phi(root: Root) -> int:
            return am * root.coords[1] - an * root.coords[0]

        upper = tuple(
            sorted((r for r in system.roots if phi(r) > 0), key=lambda r: (phi(r), r.coords))
        )
        lower = tuple(
            sorted((r for r in system.roots if phi(r) < 0), key=lambda r: (-phi(r), r.coords))
        )
        return RadicalFrame(alpha, upper, lower)

    def side_of(self, root: Root) -> tuple[Root, ...]:
        if root in self.upper:
            return self.upper
        if root in self.lower:
            return self.lower
        raise FactorizationError(f"{root.name} lies on the {self.alpha.name} axis")


# ---------------------------------------------------------------------------
# condition (*) bookkeeping


@dataclass(frozen=True)
class ConditionStar:
    system_tag: str
    no_residue_field_f2: bool | None
    theta_condition: bool | None

    @property
    def applies(self) -> bool:
        return self.system_tag in ("C2", "G2")

    @property
    def satisfied(self) -> bool | None:
        if not self.applies:
            return True
        if self.no_residue_field_f2 is None:
            return None
        if self.system_tag == "C2":
            if self.theta_condition is None:
                return None
            return self.no_residue_field_f2 and self.theta_condition
        return self.no_residue_field_f2

    def to_json(self) -> dict:
        return {
            "applies": self.applies,
            "no_residue_field_F2": self.no_residue_field_f2,
            "theta_condition": self.theta_condition,
            "satisfied": self.satisfied,
        }


def condition_star(system_tag: str, ring: Ring) -> ConditionStar:
    f2 = not has_residue_field_f2(ring)
    try:
        theta = theta_condition_holds(ring)
    except InfiniteRing:
        theta = None
    return ConditionStar(system_tag, f2, theta)


# ---------------------------------------------------------------------------
# the main factorization


@dataclass(frozen=True)
class CertifiedFactorization:
    target: Word
    factors: tuple  # of (Word, certificate)
    case: MainLemmaCase
    alpha: Root

    def verify(self, rep: Representation, ring: Ring, ideal_i: Ideal, ideal_j: Ideal) -> bool:
        """The target equals the product of the factors, and each factor's
        certificate holds: ``verify_factorizations`` of this one."""
        (ok,) = verify_factorizations([self], rep, ring, ideal_i, ideal_j)
        return ok


def verify_factorizations(
    facts: list[CertifiedFactorization],
    rep: Representation,
    ring: Ring,
    ideal_i: Ideal,
    ideal_j: Ideal,
) -> list[bool]:
    """For each factorization, whether its target equals the product of its
    factors and each factor's certificate holds.  The targets and the
    products are evaluated together (``evaluate_all``); the certificates of
    a factorization whose values differ are not checked."""
    products = [Word(tuple(sym for word, _ in f.factors for sym in word.letters)) for f in facts]
    values = evaluate_all([f.target for f in facts] + products, rep, ring)
    return [
        target == product
        and all(
            validate_certificate(cert, word, ideal_i, ideal_j, rep, ring)
            for word, cert in f.factors
        )
        for f, target, product in zip(facts, values, values[len(facts):])
    ]


def main_lemma_word(
    case: MainLemmaCase,
    xi: RingElement,
    zeta: RingElement,
    eta: RingElement,
    ideal_i: Ideal | None = None,
    ideal_j: Ideal | None = None,
) -> CertifiedFactorization:
    """Factor [x_a(xi), z_a(zeta, eta)] into certified members of the
    mixed commutator subgroup, following the case's rewriting recipe: the
    one-pair case of ``main_lemma_words``, with the ideals (xi) and (zeta)
    unless given."""
    ring = xi.ring
    if zeta.ring != ring or eta.ring != ring:
        raise FactorizationError("coefficients must share one ring")
    if ideal_i is None:
        ideal_i = Ideal.of(ring, [xi])
    if ideal_j is None:
        ideal_j = Ideal.of(ring, [zeta])
    (fact,) = main_lemma_words(case, xi, [(zeta, eta)], ideal_i, ideal_j)
    return fact


def main_lemma_words(
    case: MainLemmaCase,
    xi: RingElement,
    pairs: list[tuple[RingElement, RingElement]],
    ideal_i: Ideal,
    ideal_j: Ideal,
) -> list[CertifiedFactorization]:
    """Factor [x_a(xi), z_a(zeta, eta)] for each pair (zeta, eta), in order.

    Everything that depends on xi alone is done once, and only when some
    pair is nontrivial: the normalized signs and the expansion's tails, the
    expansion identity, which is asserted, and the values of the residual
    bases and of their inverses.  The z_a(zeta, eta) of the nontrivial
    pairs and their inverses are evaluated together (``evaluate_all``);
    each pair's residues are then split off, peeled and level-checked on
    their own.  A bad pair raises what ``main_lemma_word`` raises for it.
    """
    ring = xi.ring
    for zeta, eta in pairs:
        if zeta.ring != ring or eta.ring != ring:
            raise FactorizationError("coefficients must share one ring")
    if not ideal_i.contains(xi):
        raise FactorizationError("xi must lie in the first ideal")
    for zeta, _ in pairs:
        if not ideal_j.contains(zeta):
            raise FactorizationError("zeta must lie in the second ideal")
    rep = get_representation(case.system_tag)
    alpha = canonical_case_root(case)
    if case.alpha_is_long != rep.system.is_long(alpha):
        raise CaseMismatch(f"{alpha.name} vs case {case.value}")
    x_alpha = x_word(alpha, xi)
    targets = [commutator(x_alpha, z_word(alpha, zeta, eta)) for zeta, eta in pairs]
    facts = [CertifiedFactorization(target, (), case, alpha) for target in targets]
    live = [
        k for k, (zeta, eta) in enumerate(pairs)
        if not (xi.is_zero or zeta.is_zero or eta.is_zero)
    ]
    if not live:
        return facts

    ideal_ij = ideal_i.product(ideal_j)
    signs = compute_table(rep).signs(case)
    beta, gamma = signs.pair
    frame = RadicalFrame.for_root(alpha)

    # normalized expansion [x'_gamma(1), x'_beta(u)] = T_left x'_alpha(u) T_right
    u = -signs.sign(alpha) * xi
    k0 = next(
        k for k, (i, j, root, n) in enumerate(signs.display) if root == alpha
    )
    left_letters = []
    right_letters = []
    for k, (i, j, root, n) in enumerate(signs.display):
        if k == k0:
            continue
        coeff = signs.sign(root) * n * u ** j
        letter = x_word(root, coeff)
        (left_letters if k < k0 else right_letters).append(letter)
    t_left = Word(tuple(sym for w in left_letters for sym in w.letters))
    t_right = Word(tuple(sym for w in right_letters for sym in w.letters))

    gamma_one = x_word(gamma, signs.sign(gamma) * ring.one)
    beta_u = x_word(beta, signs.sign(beta) * u)
    alpha_u = x_word(alpha, signs.sign(alpha) * u)  # evaluates to x_alpha(-xi)

    # sanity: the carried-over expansion identity must hold exactly
    lhs, rhs = evaluate_all(
        [commutator(gamma_one, beta_u), t_left * alpha_u * t_right], rep, ring
    )
    if lhs != rhs:
        raise SignMismatch(f"{case.value}: normalized expansion identity failed")

    def tail_side(letters) -> tuple[Root, ...]:
        roots = [sym.root for w in letters for sym in w.letters]
        side = frame.side_of(roots[0])
        if any(r not in side for r in roots):
            raise SignMismatch(f"{case.value}: tail straddles the {alpha.name} axis")
        return side

    # the residual bases by name: the base, the side its residue peels over,
    # whether the residue is split off on the left, and its level
    bases = {
        "gamma": (gamma_one, frame.side_of(gamma), False, ideal_j),
        "beta": (beta_u, frame.side_of(beta), False, ideal_ij),
    }
    if not t_left.is_empty:
        bases["left tail"] = (t_left.inverse(), tail_side(left_letters), True, ideal_ij)
    if not t_right.is_empty:
        bases["right tail"] = (t_right.inverse(), tail_side(right_letters), False, ideal_ij)
    words = [base for base, *_ in bases.values()]
    values = evaluate_all(words + [base.inverse() for base in words], rep, ring)
    base_values = dict(zip(bases, zip(values, values[len(words):])))

    def residual(z_mat: GroupElement, z_inv: GroupElement, what: str) -> Word:
        _, side, left, level = bases[what]
        base_mat, base_inv = base_values[what]
        conj = z_mat * base_mat * z_inv
        mat = conj * base_inv if left else base_inv * conj
        try:
            coords = unipotent_coordinates(mat, list(side))
        except PeelError as exc:
            raise SignMismatch(f"{case.value}: {what} residue: {exc}") from exc
        letters = []
        for root, c in coords:
            if c.is_zero:
                continue
            if not level.contains(c):
                raise SignMismatch(
                    f"{case.value}: {what} residue coefficient {c} at "
                    f"{root.name} is not of level {level}"
                )
            letters.append(XSym(root, c))
        return Word(tuple(letters))

    z_words = [z_word(alpha, *pairs[k]) for k in live]
    z_values = evaluate_all(z_words + [w.inverse() for w in z_words], rep, ring)
    for k, z_mat, z_inv in zip(live, z_values, z_values[len(live):]):
        res = {what: residual(z_mat, z_inv, what) for what in bases}
        w_res, v_res = res["gamma"], res["beta"]
        z_l = res.get("left tail", Word(()))
        z_r = res.get("right tail", Word(()))

        factors = []
        if not z_l.is_empty:
            factors.append(
                (conj_word(z_l, x_alpha), ConjugateOf(LevelElement(ideal_ij), z_l, x_alpha))
            )
        bv = beta_u * v_res
        core1 = commutator(w_res, bv)
        if not core1.is_empty:
            by = x_alpha * t_left.inverse() * gamma_one
            factors.append(
                (
                    conj_word(core1, by),
                    ConjugateOf(GenCommutator(w_res, bv, flipped=True), core1, by),
                )
            )
        if not v_res.is_empty:
            core2 = conj_word(v_res, gamma_one) * v_res.inverse()
            cert2 = ProductOf(
                (
                    (conj_word(v_res, gamma_one), ConjugateOf(LevelElement(ideal_ij), v_res, gamma_one)),
                    (v_res.inverse(), LevelElement(ideal_ij)),
                )
            )
            by = t_right * beta_u
            factors.append((conj_word(core2, by), ConjugateOf(cert2, core2, by)))
        if not z_r.is_empty:
            factors.append((z_r, LevelElement(ideal_ij)))
        facts[k] = CertifiedFactorization(targets[k], tuple(factors), case, alpha)
    return facts


# ---------------------------------------------------------------------------
# long root decompositions


def unit_decompose(ring: Ring) -> list[tuple[RingElement, RingElement]]:
    """Pairs (theta, r) with sum r*(theta^2 - theta) = 1, minimal count: one
    pair, since n is odd once F2 residue fields are refused, and then theta = 2
    has theta^2 - theta = 2, a unit with inverse (n + 1) / 2."""
    if ring.kind != "Zn":
        raise InfiniteRing(f"unit decomposition needs a finite ring, got {ring}")
    n = ring.modulus
    if has_residue_field_f2(ring):
        raise ResidueFieldF2(
            f"{ring} has a residue field of two elements; theta^2 - theta "
            "never generates the unit ideal"
        )
    return [(ring.element(2), ring.element((n + 1) // 2))]


def _commutator_with_conjugate(delta: Root, t: RingElement, gamma: Root, s: RingElement) -> Word:
    """[x_delta(t), x_gamma(s)] written as x_delta(t) * ^{x_gamma(s)} x_delta(-t)."""
    return x_word(delta, t) * conj_word(x_word(delta, -t), x_word(gamma, s))


def long_root_decomposition(
    beta: Root, xi: RingElement, ideal: Ideal, ring: Ring | None = None
) -> Word:
    """Express the short root element x_beta(xi) through long root elements.

    Letters are long-root symbols or conjugates of such by elementary
    words; every coefficient is a multiple of xi (level I).  For G2 the
    construction runs once per unit-decomposition term, six long factors
    per term.
    """
    ring = ring or xi.ring
    system = get_system(beta.system)
    rep = get_representation(beta.system)
    table = compute_table(rep)
    if system.is_long(beta):
        raise NotShortRoot(f"{beta.name} is not short in {beta.system}")
    if not ideal.contains(xi):
        raise FactorizationError("xi must lie in the given ideal")
    if xi.is_zero:
        return Word(())
    if beta.system == "C2":
        delta, gamma = _search_pair(system, beta, gamma_mult=1, need_second=2)
        n11 = table.get(delta, gamma, 1, 1)
        n12 = table.get(delta, gamma, 1, 2)
        t = n11 * xi
        tail_root = delta.times_plus(1, gamma, 2)
        word = _commutator_with_conjugate(delta, t, gamma, ring.one) * x_word(
            tail_root, -n11 * n12 * xi
        )
        _assert_long_word(system, word)
        return word
    # G2: beta = delta + 2*gamma with delta long, gamma short
    if has_residue_field_f2(ring):
        raise ResidueFieldF2(f"{ring} has residue field F2; G2 construction unavailable")
    terms = unit_decompose(ring)
    delta, gamma = _search_pair(system, beta, gamma_mult=2, need_second=None)
    n11 = table.get(delta, gamma, 1, 1)
    n12 = table.get(delta, gamma, 1, 2)
    n13 = table.get(delta, gamma, 1, 3)
    n23 = table.get(delta, gamma, 2, 3)
    a_root = delta.plus(gamma)
    b_root = delta.times_plus(1, gamma, 3)
    c_root = delta.times_plus(2, gamma, 3)
    letters: list = []
    for theta, r in terms:
        xi_p = n12 * xi * r
        six = (
            x_word(delta, xi_p)
            * conj_word(x_word(delta, -xi_p), x_word(gamma, theta))
            * x_word(c_root, n23 * xi_p * xi_p * (theta ** 2 - theta ** 3))
            * x_word(b_root, n13 * xi_p * (theta - theta ** 3))
            * conj_word(x_word(delta, xi_p * theta), x_word(gamma, ring.one))
            * x_word(delta, -xi_p * theta)
        ).free_reduce()
        term_word = conj_word(six, x_word(a_root, -n11 * xi_p * theta))
        letters.extend(term_word.letters)
    word = Word(tuple(letters))
    _assert_long_word(system, word)
    return word


def _search_pair(system: RootSystem, beta: Root, gamma_mult: int, need_second):
    """Deterministic (delta long, gamma short) with beta = delta + m*gamma."""
    for delta in sorted(system.long_roots, key=lambda r: r.coords):
        for gamma in sorted(system.short_roots, key=lambda r: r.coords):
            if delta.times_plus(1, gamma, gamma_mult) != beta:
                continue
            if need_second is not None and delta.times_plus(1, gamma, need_second) is None:
                continue
            return delta, gamma
    raise FactorizationError(f"no long+short decomposition of {beta.name}")


def _assert_long_word(system: RootSystem, word: Word) -> None:
    for xsym, in_conjugator in word.walk_x_letters(include_conjugators=True):
        if not in_conjugator and system.is_short(xsym.root):
            raise SignMismatch(f"short-root letter {xsym.root.name} in long-root word")


def long_word_factor_count(word: Word) -> int:
    """Top-level factors, counting each unit-decomposition term's base."""
    count = 0
    for sym in word.letters:
        if isinstance(sym, ConjSym) and len(sym.base.letters) > 1:
            count = max(count, len(sym.base.letters))
        else:
            count += 1
    return count


# ---------------------------------------------------------------------------
# generator families


def relative_generators(system_tag: str, ideal: Ideal) -> list[Word]:
    """All z_a(xi, eta) words, deterministic grid order."""
    ring = ideal.ring
    if ring.kind != "Zn":
        raise InfiniteRing("relative generators need a finite ring")
    system = get_system(system_tag)
    out = []
    for alpha in system.roots:
        for xi in ideal.element_values():
            for eta in enumerate_elements(ring):
                out.append(z_word(alpha, xi, eta))
    return out


@dataclass(frozen=True)
class MixedGenerator:
    word: Word
    bullet: int
    certificate: object | None  # None = membership pending the main lemma


@dataclass(frozen=True)
class MixedGeneratorFamily:
    items: tuple[MixedGenerator, ...]
    star: ConditionStar
    warnings: tuple[str, ...]


def mixed_commutator_generators(
    system_tag: str, ideal_i: Ideal, ideal_j: Ideal
) -> MixedGeneratorFamily:
    """The three generator families of the mixed commutator subgroup.

    Bullets two and three carry immediate certificates; bullet one is the
    main lemma's subject and is emitted unproven.  Refused with
    BoundExceeded, before anything is listed, when the 3 |Phi| |I| |J| n
    words exceed the default element bound of subgroup enumeration.
    """
    from .subgroups import DEFAULT_ELEMENT_BOUND, BoundExceeded

    ring = ideal_i.ring
    if ring.kind != "Zn":
        raise InfiniteRing("mixed generators need a finite ring")
    system = get_system(system_tag)
    n = ring.modulus
    words = 3 * len(system.roots) * (n // ideal_i.gens[0]) * (n // ideal_j.gens[0]) * n
    if words > DEFAULT_ELEMENT_BOUND:
        raise BoundExceeded(
            f"mixed generators for {system_tag} over {ring} list {words} words "
            f"(> {DEFAULT_ELEMENT_BOUND})",
            0,
        )
    star = condition_star(system_tag, ring)
    warnings = []
    if star.applies and star.satisfied is False:
        warnings.append(
            f"condition (*) fails over {ring}: the generation theorem's "
            "hypotheses are not met; words are still emitted"
        )
    ideal_ij = ideal_i.product(ideal_j)
    items = []
    for alpha in system.roots:
        for xi in ideal_i.element_values():
            for zeta in ideal_j.element_values():
                for eta in enumerate_elements(ring):
                    items.append(
                        MixedGenerator(
                            commutator(x_word(alpha, xi), z_word(alpha, zeta, eta)),
                            1,
                            None,
                        )
                    )
                    items.append(
                        MixedGenerator(
                            commutator(x_word(alpha, xi), x_word(-alpha, zeta)),
                            2,
                            GenCommutator(x_word(alpha, xi), x_word(-alpha, zeta)),
                        )
                    )
                    prod = xi * zeta
                    items.append(
                        MixedGenerator(
                            z_word(alpha, prod, eta),
                            3,
                            ConjugateOf(
                                LevelElement(ideal_ij),
                                x_word(alpha, prod),
                                x_word(-alpha, eta),
                            ),
                        )
                    )
    return MixedGeneratorFamily(tuple(items), star, tuple(warnings))


# ---------------------------------------------------------------------------
# Levi lemma sampling


@dataclass
class LeviReport:
    system_tag: str
    r: int
    minus_side: bool
    samples: int
    violations: list
    seed: int

    @property
    def passed(self) -> bool:
        return not self.violations


# the Levi samples, or the finite main lemma's (zeta, eta) pairs, evaluated
# as one stack; it bounds a check's memory whatever the check's size
STACK_BLOCK = 4096


def levi_commutator_check(
    parabolic: ParabolicData,
    ideal_i: Ideal,
    ideal_j: Ideal,
    ring: Ring,
    samples: int,
    seed: int = 0,
    minus_side: bool = False,
) -> LeviReport:
    """Sample pairs (l, u) from the Levi and radical congruence pieces and
    confirm each commutator lands in the radical at level I*J.

    The samples run in blocks of ``STACK_BLOCK``.  Each block's commutators
    are drawn as runs of letters (``levi_sample_letters``), evaluated as one
    stack (``letter_stack_product``) and peeled over the radical roots all
    at once (``unipotent_coordinates_stack``).  A sample whose peeled
    residual is not the identity is recorded as outside the radical;
    otherwise each of its coordinates outside IJ is recorded with its root.
    """
    if ring.kind != "Zn":
        raise InfiniteRing("the sampled check needs a finite ring")
    if samples < 1:
        raise FactorizationError(f"the sampled Levi check needs at least one sample, got {samples}")
    rep = get_representation(parabolic.system.type_tag)
    radical = parabolic.U_minus_roots if minus_side else parabolic.U_roots
    ideal_ij = ideal_i.product(ideal_j)
    n = ring.modulus

    violations = []
    for start in range(0, samples, STACK_BLOCK):
        indices = range(start, min(start + STACK_BLOCK, samples))
        letters = levi_sample_letters(parabolic, ideal_i, ideal_j, ring, indices, seed, minus_side)
        stack = letter_stack_product(*letters, rep, n)
        stack_coords, peeled = unipotent_coordinates_stack(stack, rep, list(radical), n)
        outside_ij = {
            t for t in np.unique(stack_coords).tolist() if not ideal_ij.contains(ring.element(t))
        }
        clean = peeled & ~np.isin(stack_coords, list(outside_ij)).any(axis=1)
        for k in np.flatnonzero(~clean).tolist():
            idx = start + k
            if not peeled[k]:
                violations.append({"sample": idx, "reason": "outside the radical"})
                continue
            for root, t in zip(radical, stack_coords[k].tolist()):
                if t in outside_ij:
                    violations.append(
                        {"sample": idx, "root": root.name, "coefficient": str(ring.element(t))}
                    )
    return LeviReport(
        parabolic.system.type_tag, parabolic.r, minus_side, samples, violations, seed
    )


def levi_sample_letters(
    parabolic: ParabolicData,
    ideal_i: Ideal,
    ideal_j: Ideal,
    ring: Ring,
    indices: range,
    seed: int = 0,
    minus_side: bool = False,
) -> tuple[list[int], list[int], list[int]]:
    """The commutators [l, u] of the Levi samples with the given indices,
    as runs of letters for ``letter_stack_product``: root indices into
    ``system.roots``, residues mod n, and where each sample's run ends.

    Sample idx draws from ``random.Random(seed * 1_000_003 + idx)``: l is
    0 to 4 letters z_g(xi, eta) with g = +-alpha_r, xi in I and eta in R,
    and u is 0 to 4 letters x_b(c) with b a radical root and c in J.  An
    ideal element d*k is drawn as k = randrange(n / d), which consumes the
    stream exactly as a choice from the list of all n / d of them.  A z
    letter is written as x_{-g}(eta) x_g(xi) x_{-g}(-eta), and [l, u] as
    the letters of l, then u, then those of l and of u reversed with
    negated residues.  Nothing cancels letters: the runs are longer than
    the freely reduced words but have the same values.
    """
    n = ring.modulus
    index = {root: k for k, root in enumerate(parabolic.system.roots)}
    radical = parabolic.U_minus_roots if minus_side else parabolic.U_roots
    radical = [index[root] for root in radical]
    alpha_r = parabolic.levi_roots[0]
    plus, minus = index[alpha_r], index[-alpha_r]
    (d_i,), (d_j,) = ideal_i.gens, ideal_j.gens
    span_i, span_j = n // d_i, n // d_j

    roots, coeffs, ends = [], [], []
    for idx in indices:
        rng = random.Random(seed * 1_000_003 + idx)
        l_roots, l_coeffs = [], []
        for _ in range(rng.randint(0, 4)):
            g, h = (plus, minus) if rng.random() < 0.5 else (minus, plus)
            xi = d_i * rng.randrange(span_i)
            eta = rng.randrange(n)
            l_roots += (h, g, h)
            l_coeffs += (eta, xi, -eta % n)
        u_roots, u_coeffs = [], []
        for _ in range(rng.randint(0, 4)):
            u_roots.append(rng.choice(radical))
            u_coeffs.append(d_j * rng.randrange(span_j))
        roots += l_roots
        roots += u_roots
        roots += reversed(l_roots)
        roots += reversed(u_roots)
        coeffs += l_coeffs
        coeffs += u_coeffs
        coeffs += [-c % n for c in reversed(l_coeffs)]
        coeffs += [-c % n for c in reversed(u_coeffs)]
        ends.append(len(roots))
    return roots, coeffs, ends
