"""Structure constants of the commutator formula, derived from the matrices.

For each ordered non-opposite pair (a, b) the symbolic matrix commutator
[x_a(xi), x_b(zeta)] over Z[xi, zeta] is peeled by
``reps.unipotent_coordinates`` against the product of root subgroups
x_{ia+jb} taken in a fixed order (increasing i+j, ties broken by the root's
coordinates).  The extracted coefficients must be integer multiples of
xi^i zeta^j exactly; anything else means the representation is broken and
raises.

Constants are computed, not copied from tables, so the signs are whatever
the fixed matrices dictate; ``normalize_signs`` then produces the
per-case reparametrization that makes the displayed constants positive;
``StructureConstantTable.signs`` keeps it with the table, so a fresh table
from a cleared ``compute_table`` cache computes it anew.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .reps import PeelError, Representation, get_representation, unipotent_coordinates
from .rings import Ring, RingElement
from .roots import MainLemmaCase, OppositeRoots, Root, canonical_case_root


class ExtractionFailure(Exception):
    """Symbolic commutator did not factor through the expected subgroups."""


class NormalizationImpossible(Exception):
    """No sign choice reproduces the expected positive constants."""


@dataclass(frozen=True)
class StructureConstantTable:
    rep_name: str
    system_tag: str
    entries: dict  # (alpha, beta, i, j) -> int
    # case -> normalize_signs(self, case), filled in by ``signs``
    _signs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def signs(self, case: MainLemmaCase) -> SignNormalization:
        """``normalize_signs(self, case)``, computed once per table and case."""
        if case not in self._signs:
            self._signs[case] = normalize_signs(self, case)
        return self._signs[case]

    def get(self, alpha: Root, beta: Root, i: int, j: int) -> int:
        return self.entries[(alpha, beta, i, j)]

    def pair_expansion(self, alpha: Root, beta: Root) -> list[tuple[int, int, Root, int]]:
        """Ordered [(i, j, root, N)] for the pair's commutator expansion."""
        out = []
        for (a, b, i, j), n in self.entries.items():
            if a == alpha and b == beta:
                root = alpha.times_plus(i, beta, j)
                out.append((i, j, root, n))
        out.sort(key=lambda item: (item[0] + item[1], item[2].coords))
        return out

    def to_records(self) -> list[dict]:
        recs = []
        for (a, b, i, j), n in sorted(
            self.entries.items(),
            key=lambda kv: (kv[0][0].coords, kv[0][1].coords, kv[0][2], kv[0][3]),
        ):
            recs.append({"alpha": a.name, "beta": b.name, "i": i, "j": j, "N": n})
        return recs


def cone_roots(alpha: Root, beta: Root) -> list[tuple[int, int, Root]]:
    """Roots i*alpha + j*beta with i, j >= 1, in the fixed product order."""
    out = []
    for i in range(1, 4):
        for j in range(1, 4):
            root = alpha.times_plus(i, beta, j)
            if root is not None:
                out.append((i, j, root))
    out.sort(key=lambda item: (item[0] + item[1], item[2].coords))
    return out


@lru_cache(maxsize=None)
def compute_table(rep: Representation) -> StructureConstantTable:
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta"))
    xi, zeta = ring.vars()
    entries: dict = {}
    for alpha in rep.system.roots:
        x_alpha = rep.x(alpha, xi)
        for beta in rep.system.roots:
            if beta == alpha or beta == -alpha:
                continue
            cone = cone_roots(alpha, beta)
            target = x_alpha.times_x(beta, zeta).times_x(alpha, -xi).times_x(beta, -zeta)
            try:
                coords = unipotent_coordinates(target, [root for _, _, root in cone])
            except PeelError as exc:
                raise ExtractionFailure(
                    f"{rep.name}: [x_{alpha.name}, x_{beta.name}] does not "
                    "factor through its root cone"
                ) from exc
            for (i, j, root), (_, coeff) in zip(cone, coords):
                n = _as_integer_multiple(coeff, i, j)
                if n is None:
                    raise ExtractionFailure(
                        f"{rep.name}: [x_{alpha.name}, x_{beta.name}] has a "
                        f"non-monomial {root.name} coordinate {coeff}"
                    )
                if n == 0:
                    raise ExtractionFailure(
                        f"{rep.name}: vanishing constant at "
                        f"({alpha.name}, {beta.name}, {i}, {j})"
                    )
                entries[(alpha, beta, i, j)] = n
    return StructureConstantTable(rep.name, rep.system.type_tag, entries)


def _as_integer_multiple(coeff: RingElement, i: int, j: int) -> int | None:
    """coeff == n * xi^i * zeta^j exactly, returning n (0 allowed)."""
    if coeff.is_zero:
        return 0
    terms = coeff.terms
    if len(terms) != 1:
        return None
    exp, c = terms[0]
    if exp != (i, j):
        return None
    return c


def chevalley_commutator_word(
    table: StructureConstantTable,
    alpha: Root,
    beta: Root,
    xi: RingElement,
    zeta: RingElement,
):
    """Right-hand side of the commutator formula as a word, fixed order."""
    from .words import Word, XSym

    if beta == -alpha:
        raise OppositeRoots("the commutator formula needs beta != -alpha")
    if beta == alpha:
        return Word(())
    letters = []
    for i, j, root, n in table.pair_expansion(alpha, beta):
        coeff = (xi ** i) * (zeta ** j) * n
        if not coeff.is_zero:
            letters.append(XSym(root, coeff))
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# sign normalization


_DISPLAY = {
    # case -> ordered expected positive constants for the case's pair,
    # one per (i, j) in the fixed product order of the expansion
    MainLemmaCase.A2: (1,),
    MainLemmaCase.C2_LONG: (1, 1),
    MainLemmaCase.C2_SHORT: (1, 1),
    MainLemmaCase.G2_SHORT: (1, 1, 1, 2),
}


@dataclass(frozen=True)
class SignNormalization:
    """Reparametrization x_a(t) -> x_a(eps_a * t) for one lemma case.

    The displayed expansion is the commutator of the pair taken with the
    gamma-parameter first: in the fixed increasing-height product order
    this orientation reproduces the displayed coefficient shapes
    (t, t^2, t^3 on the gamma side, the final constant 2 for G2) exactly.
    ``display`` lists (i, j, root, N) where i is the gamma-power and j the
    beta-power.  For G2, ``aux_constant`` is the normalized single
    constant of [x_{b+2g}(eta), x_{b+g}(xi)], which must equal 3.
    """

    case: MainLemmaCase
    pair: tuple[Root, Root]  # (beta, gamma)
    eps: dict
    display: tuple[tuple[int, int, Root, int], ...]
    aux_constant: int | None

    def sign(self, root: Root) -> int:
        return self.eps.get(root, 1)


def normalize_signs(table: StructureConstantTable, case: MainLemmaCase) -> SignNormalization:
    system = get_representation(table.system_tag).system
    alpha = canonical_case_root(case)
    beta, gamma = system.decompose_for_case(alpha, case)
    expansion = table.pair_expansion(gamma, beta)
    expected = _DISPLAY[case]
    if len(expansion) != len(expected):
        raise NormalizationImpossible(
            f"{case.value}: expansion has {len(expansion)} factors, "
            f"expected {len(expected)}"
        )
    eps = {beta: 1, gamma: 1}
    display = []
    for (i, j, root, n), want in zip(expansion, expected):
        if abs(n) != want:
            raise NormalizationImpossible(
                f"{case.value}: |N_{{{gamma.name},{beta.name},{i},{j}}}| = "
                f"{abs(n)}, display requires {want}"
            )
        eps[root] = 1 if n > 0 else -1
        display.append((i, j, root, abs(n)))
    aux = None
    if case is MainLemmaCase.G2_SHORT:
        a_root = beta.plus(gamma)
        b2g = beta.times_plus(1, gamma, 2)
        target = beta.times_plus(2, gamma, 3)
        raw = table.get(b2g, a_root, 1, 1)
        aux = eps[target] * eps[a_root] * eps[b2g] * raw
        if aux != 3:
            raise NormalizationImpossible(
                f"G2 auxiliary constant normalizes to {aux}, expected 3"
            )
    return SignNormalization(case, (beta, gamma), eps, tuple(display), aux)


def constants_magnitudes(table: StructureConstantTable) -> set[int]:
    return {abs(n) for n in table.entries.values()}
