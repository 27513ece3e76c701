import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chevlab import constants
from chevlab.constants import compute_table
from chevlab.linalg import ExactMatrix
from chevlab.reps import (
    GroupElement,
    PeelError,
    RepresentationError,
    _divided_powers,
    _mat,
    _unit_entry,
    congruence_level_test,
    get_representation,
    unipotent_coordinates,
    unipotent_coordinates_stack,
    verify_steinberg,
)
from chevlab.rings import MAX_EXPONENT, DegreeOverflow, Ideal, MixedRings, Ring, enumerate_elements
from chevlab.words import Word, XSym, evaluate, evaluate_stack, x_word
from letters_oracle import dense_x, times_x_by_product, unipotent_coordinates_by_product, x_times_by_product
from reps_oracle import oracle_representation
from words_oracle import z_matrix


Z8 = Ring.mod(8)
Z27 = Ring.mod(27)


def test_x_of_zero_is_identity():
    for tag in ("A2", "C2", "G2"):
        rep = get_representation(tag)
        for root in rep.system.roots:
            assert rep.x(root, Z8.zero).is_identity


def test_a2_generator_shape():
    rep = get_representation("A2")
    ring = Ring.polynomial(Ring.integers(), ("xi",))
    (xi,) = ring.vars()
    g = rep.x(rep.system.root((1, 0)), xi)
    assert g.entry(0, 0, 1) == xi and g.entry(0, 0, 0) == ring.one
    assert all(g.entry(0, i, j).is_zero for i in range(3) for j in range(3)
               if i != j and (i, j) != (0, 1))


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
def test_additivity_symbolic(tag):
    rep = get_representation(tag)
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta"))
    xi, zeta = ring.vars()
    for root in rep.system.roots:
        assert rep.x(root, xi) * rep.x(root, zeta) == rep.x(root, xi + zeta)


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
def test_inverse_identity(tag):
    rep = get_representation(tag)
    ring = Ring.polynomial(Ring.integers(), ("xi",))
    (xi,) = ring.vars()
    for root in rep.system.roots:
        assert (rep.x(root, xi) * rep.x(root, -xi)).is_identity


@pytest.mark.parametrize("tag,adds,pairs", [("A2", 6, 24), ("C2", 8, 48), ("G2", 12, 120)])
def test_steinberg_full(tag, adds, pairs):
    report = verify_steinberg(get_representation(tag))
    assert report.passed
    counts = report.counts()
    assert counts["additivity"] == adds and counts["pairs"] == pairs


def test_c2_preserves_symplectic_form():
    rep = get_representation("C2")
    ring = Ring.polynomial(Ring.integers(), ("xi",))
    (xi,) = ring.vars()
    form = [[ring.element(v) for v in row] for row in rep.symplectic_form]
    for root in rep.system.roots:
        g = rep.x(root, xi)
        m = [[g.entry(0, i, j) for j in range(4)] for i in range(4)]
        lhs = [[sum((m[k][i] * form[k][l] * m[l][j] for k in range(4) for l in range(4)),
                    ring.zero) for j in range(4)] for i in range(4)]
        assert lhs == form


def test_g2_blocks_detect_identity_together():
    rep = get_representation("G2")
    root = rep.system.root((1, 0))
    g = rep.x(root, Z27.element(9))
    assert not g.is_identity
    assert np.any(g.blocks[0] != np.eye(7, dtype=np.int64)) or np.any(
        g.blocks[1] != np.eye(14, dtype=np.int64)
    )


def test_z_generator_identities():
    rep = get_representation("C2")
    ring = Ring.polynomial(Ring.integers(), ("xi", "eta"))
    xi, eta = ring.vars()
    root = rep.system.root((0, 1))
    assert z_matrix(rep, root, xi, ring.zero) == rep.x(root, xi)
    assert z_matrix(rep, root, ring.zero, eta).is_identity
    # z lies in the level-(xi) congruence subgroup
    assert congruence_level_test(z_matrix(rep, root, xi, eta), Ideal.of(ring, [xi]))


def test_congruence_level():
    rep = get_representation("A2")
    root = rep.system.root((1, 1))
    ideal = Ideal.of(Z8, [2])
    assert congruence_level_test(rep.x(root, Z8.element(4)), ideal)
    assert not congruence_level_test(rep.x(root, Z8.element(1)), ideal)
    # only 0 is in the zero ideal of Z/8
    zero = Ideal.of(Z8, [0])
    assert not congruence_level_test(rep.x(root, Z8.element(4)), zero)
    assert congruence_level_test(rep.identity(Z8), zero)


def test_congruence_level_subgroup_property():
    rep = get_representation("A2")
    ideal = Ideal.of(Z8, [2])
    rng = random.Random(5)
    roots = rep.system.roots
    for _ in range(60):
        g = rep.x(rng.choice(roots), Z8.element(rng.choice([0, 2, 4, 6])))
        h = rep.x(rng.choice(roots), Z8.element(rng.choice([0, 2, 4, 6])))
        assert congruence_level_test(g * h, ideal)


def _reduced_generators(rep, ring):
    from chevlab.subgroups import _word_matrices

    return _word_matrices(
        [x_word(r, t) for r in rep.system.roots for t in enumerate_elements(ring)
         if not t.is_zero], rep, ring)


def test_central_mod():
    from congruence_oracle import central_mask

    rep = get_representation("A2")
    gens = _reduced_generators(rep, Ring.mod(2))
    root = rep.system.root((1, 0))
    # anything congruent to the identity is central mod I = (2)
    assert central_mask(rep.x(root, Z8.element(2)).blocks[0][None], gens, 2).all()
    assert not central_mask(rep.x(root, Z8.element(1)).blocks[0][None], gens, 2).any()


def test_centralizer_matches_center_bruteforce():
    # the centre of the reduced elementary group really is the centralizer
    # of the elementary generators: SL3(F2) trivial, Sp4(F3) = {+-1}
    from congruence_oracle import central_mask, reduced_elementary_group

    rep = get_representation("A2")
    ring = Ring.mod(2)
    grp = reduced_elementary_group(rep, ring, bound=10**6)
    assert grp.cardinality == 168
    center = grp.stack[central_mask(grp.stack, _reduced_generators(rep, ring), 2)]
    assert center.shape[0] == 1

    rep = get_representation("C2")
    ring = Ring.mod(3)
    grp = reduced_elementary_group(rep, ring, bound=10**6)
    assert grp.cardinality == 51840
    center = grp.stack[central_mask(grp.stack, _reduced_generators(rep, ring), 3)]
    assert center.shape[0] == 2


def test_unipotent_coordinates_round_trip():
    rep = get_representation("C2")
    ring = Ring.polynomial(Ring.integers(), ("a", "b", "c"))
    a, b, c = ring.vars()
    system = rep.system
    roots = [system.root((1, 0)), system.root((1, 1)), system.root((2, 1))]
    g = rep.x(roots[0], a) * rep.x(roots[1], b) * rep.x(roots[2], c)
    coords = unipotent_coordinates(g, roots)
    assert [t for _, t in coords] == [a, b, c]


def test_unipotent_coordinates_rejects_outsiders():
    rep = get_representation("C2")
    system = rep.system
    g = rep.x(system.root((0, 1)), Z8.element(1))
    with pytest.raises(PeelError):
        unipotent_coordinates(g, [system.root((1, 0))])


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
def test_every_root_has_a_unit_entry(tag):
    # the coordinate of each root is read at its first entry +-1 of e^(1)
    rep = get_representation(tag)
    for root in rep.system.roots:
        b, i, j, v = rep._unit_entries[root]
        assert rep.powers[root][0][b][i][j] == v in (1, -1)
    root = rep.system.roots[0]
    with pytest.raises(RepresentationError, match="no entry"):
        _unit_entry(root, (((0, 1, (2,)), (1, 2, (0, 1))),))


def test_unipotent_coordinates_stack_matches_scalar_peel():
    rep = get_representation("C2")
    rng = random.Random(5)
    roots = list(rep.system.positive_roots)
    # elements of the positive unipotent subgroup, and some outside it
    words = [
        Word(tuple(XSym(rng.choice(roots), Z27.element(rng.randrange(27))) for _ in range(rng.randint(0, 6))))
        for _ in range(30)
    ] + [x_word(-roots[0], Z27.element(3)), x_word(-roots[1], Z27.one)]
    order = sorted(roots, key=lambda r: (sum(r.coords), r.coords))
    stack = evaluate_stack(words, rep, Z27)
    coords, peeled = unipotent_coordinates_stack(stack, rep, order, 27)
    for w, word in enumerate(words):
        try:
            expect = [t.payload for _, t in unipotent_coordinates(evaluate(word, rep, Z27), order)]
        except PeelError:
            assert not peeled[w]
            continue
        assert peeled[w] and coords[w].tolist() == expect
    assert not peeled[-2:].any() and peeled[:-2].all()


def _exact_mul(a: list, b: list, n: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*b)] for row in a]


# 3 (n - 1)^2 < 2^63 exactly up to n = 1753413057 and 14 (n - 1)^2 up to
# n = 811672526: int64 up to there, Python ints past it
@pytest.mark.parametrize(
    "tag, n",
    [("A2", 1753413057), ("A2", 1753413058), ("A2", 2**40 + 15), ("A2", 2**64 + 13),
     ("G2", 811672526), ("G2", 811672527)],
)
def test_modular_products_exact_past_int64(tag, n):
    rep = get_representation(tag)
    ring = Ring.mod(n)
    dtype = np.int64 if n <= {"A2": 1753413057, "G2": 811672526}[tag] else object
    assert rep.np_dtype(n) is dtype
    rng = random.Random(n)
    prod = rep.identity(ring)
    exact = [b.tolist() for b in prod.blocks]
    for _ in range(50 if tag == "A2" else 6):
        g = rep.x(rng.choice(rep.system.roots), ring.element(rng.randrange(n)))
        assert all(b.dtype == dtype for b in g.blocks)
        prod = prod * g
        exact = [_exact_mul(e, b.tolist(), n) for e, b in zip(exact, g.blocks)]
        assert [b.tolist() for b in prod.blocks] == exact
    # equality keys depend on the residues only, not on the dtype
    same = GroupElement(rep, ring, "np", tuple(np.array(e, dtype=object) for e in exact))
    assert same == prod and hash(same) == hash(prod)


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
def test_identity_blocks_in_np_dtype(tag):
    # the identity is built in the representation's dtype, so a product
    # with it never computes residues past int64 in int64
    rep = get_representation(tag)
    for n in (8, 2**64 + 13):
        assert all(b.dtype == rep.np_dtype(n) for b in rep.identity(Ring.mod(n)).blocks)
    assert all(b.dtype == object for b in rep.identity(Ring.mod(2**64 + 13)).blocks)


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
def test_integer_build_matches_fraction_oracle(tag):
    rep, oracle = get_representation(tag), oracle_representation(tag)
    assert rep.block_dims == oracle.block_dims
    assert rep.symplectic_form == oracle.symplectic_form
    assert rep.powers == oracle.powers
    assert all(type(x) is int for mats in rep.powers.values() for blocks in mats
               for block in blocks for row in block for x in row)
    assert compute_table(rep).to_records() == compute_table(oracle).to_records()


def test_non_integral_divided_power_refused():
    # (e_12 + e_23)^2 / 2! = e_13 / 2
    with pytest.raises(RepresentationError, match="2 does not divide"):
        _divided_powers(_mat(3, {(0, 1): 1, (1, 2): 1}), "test")


def _word(rep, letters, ring) -> Word:
    roots = rep.system.roots
    return Word(tuple(XSym(roots[i % len(roots)], ring.element(t)) for i, t in letters))


# moduli below, around and past the int64 threshold of np_dtype (about
# 1.5e9 for 4x4 blocks, 1.75e9 for 3x3) and past 2^64
_MODULI = st.one_of(
    st.integers(2, 10**4),
    st.integers(10**9, 3 * 10**9),
    st.integers(2**62, 2**66),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    tag=st.sampled_from(["A2", "C2"]),
    letters=st.lists(
        st.tuples(st.integers(0, 7), st.integers(-(2**70), 2**70)), min_size=1, max_size=5
    ),
    n=_MODULI,
)
@example(tag="A2", letters=[(0, 2**64 + 12), (3, 3)], n=2**64 + 13)
def test_exact_reduction_matches_numpy_backend(tag, letters, n):
    rep = get_representation(tag)
    Z, ring = Ring.integers(), Ring.mod(n)
    exact = evaluate(_word(rep, letters, Z), rep, Z)
    modular = evaluate(_word(rep, letters, ring), rep, ring)
    assert exact.backend == "exact" and modular.backend == "np"
    for b, block in enumerate(modular.blocks):
        assert block.dtype == rep.np_dtype(n)
        d = rep.block_dims[b]
        assert [[exact.entry(b, i, j).payload % n for j in range(d)] for i in range(d)] == [
            [int(block[i, j]) for j in range(d)] for i in range(d)
        ]


# ---------------------------------------------------------------------------
# letters as column operations


ZXZ = Ring.polynomial(Ring.integers(), ("xi", "zeta"))
Z9X = Ring.polynomial(Ring.mod(9), ("xi",))
# G2's index values +-2 send 2*xi to zero here
Z4X = Ring.polynomial(Ring.mod(4), ("xi",))
EXACT_RINGS = pytest.mark.parametrize(
    "ring", [Ring.integers(), ZXZ, Z9X, Z4X], ids=["Z", "Zxz", "Z9x", "Z4x"]
)


def _letter_coefficients(rng, ring) -> list:
    """Zero, single terms and multi-term polynomials (integers over Z); over
    Z/9[xi] also 3*xi, whose square is zero, and over Z/4[xi] 2*xi."""
    if ring.kind == "Z":
        return [ring.zero, ring.one, ring.element(-2), ring.element(rng.randint(-9, 9))]
    nvars = len(ring.variables)

    def term():
        return ring.term(rng.choice([-2, -1, 1, 2, 3]), tuple(rng.randint(0, 2) for _ in range(nvars)))

    out = [ring.zero, term(), term() + term(), term() + term() + term()]
    if ring == Z9X:
        out.append(3 * ring.var("xi"))
    if ring == Z4X:
        out.append(2 * ring.var("xi"))
    return out


def _oracle_product(rng, rep, ring, letters: int):
    g = dense_x(rep, rng.choice(rep.system.roots), rng.choice(_letter_coefficients(rng, ring)))
    for _ in range(letters - 1):
        g = times_x_by_product(g, rng.choice(rep.system.roots), rng.choice(_letter_coefficients(rng, ring)))
    return g


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
@EXACT_RINGS
def test_letter_application_matches_full_product(tag, ring):
    rep = get_representation(tag)
    rng = random.Random(f"{tag}-{ring}")
    if tag == "G2":
        # the short roots' letters reach their third divided power
        assert max(len(rep.powers[root]) for root in rep.system.roots) == 3
    products = [rep.identity(ring)] + [_oracle_product(rng, rep, ring, k) for k in (1, 2, 3)]
    for root in rep.system.roots:
        for c in _letter_coefficients(rng, ring):
            assert rep.x(root, c) == dense_x(rep, root, c)
            g = rng.choice(products)
            after = g.times_x(root, c)
            assert after == times_x_by_product(g, root, c)
            # the inverse letter takes every changed entry back, zeros included
            assert after.times_x(root, -c) == g


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
@EXACT_RINGS
def test_left_letter_matches_full_product(tag, ring):
    rep = get_representation(tag)
    rng = random.Random(f"left-{tag}-{ring}")
    if ring == Z4X and tag == "G2":
        # some entry of some letter vanishes: v * 2*xi = 0 for v = +-2
        two_xi = 2 * ring.var("xi")
        assert any(
            len(b.rows[i]) < len(a.rows[i])
            for root in rep.system.roots
            for a, b in zip(rep.x(root, ring.var("xi")).blocks, rep.x(root, two_xi).blocks)
            for i in range(a.dim)
        )
    products = [rep.identity(ring)] + [_oracle_product(rng, rep, ring, k) for k in (1, 2, 3)]
    for root in rep.system.roots:
        for c in _letter_coefficients(rng, ring):
            g = rng.choice(products)
            after = g.x_times(root, c)
            assert after == x_times_by_product(g, root, c)
            assert after.x_times(root, -c) == g


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
@EXACT_RINGS
def test_peel_matches_full_product_peel(tag, ring):
    rep = get_representation(tag)
    rng = random.Random(f"peel-{tag}-{ring}")
    cone = sorted(rep.system.positive_roots, key=lambda r: (sum(r.coords), r.coords))

    def random_word(roots, letters):
        g = rep.identity(ring)
        for _ in range(letters):
            g = g.times_x(rng.choice(roots), rng.choice(_letter_coefficients(rng, ring)))
        return g

    # words in the positive roots lie in the cone; words in all roots mostly
    # do not, and x_{-a}(1) never does
    elements = [random_word(cone, k) for k in (0, 1, 3, 6, 10)]
    elements += [random_word(list(rep.system.roots), k) for k in (1, 2, 4)]
    elements.append(rep.x(-cone[0], ring.one))
    peeled = []
    for g in elements:
        try:
            expect = unipotent_coordinates_by_product(g, cone)
        except PeelError:
            with pytest.raises(PeelError):
                unipotent_coordinates(g, cone)
            peeled.append(False)
            continue
        assert unipotent_coordinates(g, cone) == expect
        peeled.append(True)
    assert peeled[:5] == [True] * 5 and not peeled[-1]


def test_letter_keeps_the_rows_it_does_not_touch():
    rep = get_representation("G2")
    xi, zeta = ZXZ.vars()
    alpha, beta = rep.system.roots[0], rep.system.roots[1]
    g = rep.x(alpha, xi)
    after = g.times_x(beta, zeta)
    for before_block, after_block in zip(g.blocks, after.blocks):
        kept = [a is b for a, b in zip(before_block.rows, after_block.rows)]
        assert any(kept) and not all(kept)
    # on the left, exactly the rows where N is nonzero change
    left = after.x_times(alpha, zeta)
    for b, (before_block, left_block) in enumerate(zip(after.blocks, left.blocks)):
        touched = set(rep._nilpotent(alpha, zeta)[b])
        for i, (r, s) in enumerate(zip(before_block.rows, left_block.rows)):
            assert (r is s) == (i not in touched)


def test_g2_letters_and_peels_take_no_full_product_and_few_ring_constants(monkeypatch):
    # a peel by full products made 312 ExactMatrix products in the G2 table,
    # and an element per index entry 9,974 and 10,916 Ring.element calls;
    # a zero per entry read and a one per power then left 408 and 684, and a
    # one per identity check and identity matrix 252 and 372; with each
    # ring's zero and one built once, only verify_steinberg's integer
    # structure constants are still coerced, 156 of them
    rep = get_representation("G2")
    compute_table(rep)
    counts = {"mul": 0, "element": 0}
    mul, element = ExactMatrix.__mul__, Ring.element

    def counting_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    def counting_element(ring, value):
        counts["element"] += 1
        return element(ring, value)

    monkeypatch.setattr(ExactMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(Ring, "element", counting_element)
    assert compute_table.__wrapped__(rep).entries == compute_table(rep).entries
    assert counts["mul"] == 0 and counts["element"] == 0
    counts.update(mul=0, element=0)
    assert verify_steinberg(rep).passed
    assert counts["element"] <= 156


def test_letter_past_the_largest_exponent_raises():
    rep = get_representation("G2")
    ring = Ring.polynomial(Ring.integers(), ("xi",))
    (xi,) = ring.vars()
    g = rep.x(rep.system.roots[0], xi)
    cube = next(r for r in rep.system.roots if len(rep.powers[r]) == 3)
    # c^3 is past the field, c^2 is not
    c = ring.term(1, (MAX_EXPONENT // 3 + 1,))
    with pytest.raises(DegreeOverflow):
        g.times_x(cube, c)
    with pytest.raises(DegreeOverflow):
        rep.x(cube, c)
    # the letter is fine, the product with the running matrix is not
    a2 = get_representation("A2")
    top = a2.x(a2.system.root((1, 0)), ring.term(1, (MAX_EXPONENT,)))
    with pytest.raises(DegreeOverflow):
        top.times_x(a2.system.root((0, 1)), xi)


def test_letter_from_another_ring_refused():
    rep = get_representation("C2")
    xi, _ = ZXZ.vars()
    g = rep.x(rep.system.roots[0], xi)
    for coeff in (Z8.one, Ring.integers().one, Z9X.var("xi"), Ring.polynomial(Ring.integers(), ("xi",)).var("xi")):
        with pytest.raises(MixedRings):
            g.times_x(rep.system.roots[1], coeff)
    with pytest.raises(RepresentationError):
        g.times_x(get_representation("A2").system.roots[0], xi)


@pytest.mark.parametrize("tag", ["A2", "C2", "G2"])
def test_steinberg_fails_on_a_perturbed_commutator_word(tag, monkeypatch):
    original = constants.chevalley_commutator_word
    flipped = []

    def perturbed(table, alpha, beta, xi, zeta):
        word = original(table, alpha, beta, xi, zeta)
        if word.letters and not flipped:
            flipped.append(f"[x_{alpha.name}, x_{beta.name}]")
            first, *rest = word.letters
            return Word((XSym(first.root, -first.coeff), *rest))
        return word

    monkeypatch.setattr(constants, "chevalley_commutator_word", perturbed)
    report = verify_steinberg(get_representation(tag))
    assert len(flipped) == 1
    assert not report.passed
    assert report.counts()["failures"] == flipped
