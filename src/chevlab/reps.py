"""Faithful integer matrix representations of the rank-2 elementary groups.

* A2 acts on the natural 3-dimensional module (unimodular matrices),
* C2 on the natural 4-dimensional symplectic module,
* G2 on the direct sum of its 7-dimensional module and the 14-dimensional
  adjoint module, so that identity checks never depend on the coefficient
  ring's characteristic.

The root-vector matrices form an integral lattice basis on which every
divided power e^k/k! is again integral, so the one-parameter subgroups
x_a(t) = sum t^k e^(k) are polynomial with integer matrices and make sense
over any coefficient ring.

The matrices are built over plain Python ints, so integrality is enforced
at each division rather than assumed: a composite root vector
[e_s, e_d]/(p+1), a divided power e^k/k! and each coordinate of the G2
adjoint block read off the basis are exact divisions, and a nonzero
remainder raises RepresentationError naming the root and the divisor.

Each representation also keeps, per root and block, the sparse power
index: the entries (i, j) where some divided power is nonzero, with their
values (v_1, ..., v_K) in e^(1), ..., e^(K).  Over an exact ring a letter
x_a(c) is read off it as N = x_a(c) - 1, N_ij = sum_k c^k v_k, a handful
of entries per block (for G2, 2 or 5 of the 49 in the 7-block and 8 to 17
of the 196 in the 14-block).  ``Representation.x`` adds the identity to
N; ``GroupElement.times_x`` applies the letter to a running product M as
the column operations M + M N, so a word builds only its first letter as
a matrix.  N is read off with no ring constants: its entries with the same
values (v_1, ..., v_K) share one integer combination of the powers c^k
(``Ring.combination``).

Over Z/n letters are numpy matrices of residues, the identity with the
index's entries N_ij mod n written in, and ``times_x`` is the plain
product.  Every such matrix has the dtype of ``Representation.np_dtype``:
int64 while it holds a product of two residue matrices, Python ints
(object) past that, so one product ``(a @ b) % n`` serves every modulus.
``Representation.x_stack`` builds many letters at once from the same index
as one (m, d, d) array per block; ``words.letter_stack_product`` multiplies
such stacks position by position, for runs of letters given as root
indices and residues (read off words by ``words.evaluate_stack``, or drawn
directly by the Levi sampler).

``unipotent_coordinates`` peels an element root by root, and
``unipotent_coordinates_stack`` a stack of them.  Each root's coordinate is
read at its first entry v = +-1 of e^(1), as v times that entry, which
every root of A2, C2 and G2 has; the build refuses a root without one.
The scalar peel takes each letter x_root(-t) off on the left with
``GroupElement.x_times``: over an exact ring that is the row operations
(1 + N) M = M + N M, which keep every row N does not touch, and over Z/n
the numpy product.
Membership in a congruence subgroup is tested entrywise against the ideal
(``congruence_level_test``); no element is ever reduced to a quotient ring.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ExactMatrix
from .rings import Ideal, MixedRings, Ring, RingElement
from .roots import Root, RootSystem, get_system


class RepresentationError(Exception):
    pass


class PeelError(RepresentationError):
    """A matrix did not factor through the expected root subgroups."""


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrix model of one rank-2 elementary Chevalley group.

    Instances are singletons (one per system); identity comparison is fine.
    """

    name: str
    system: RootSystem
    block_dims: tuple[int, ...]
    # root -> tuple of integer block-matrix tuples, one entry per divided
    # power e^(k) = e^k/k! for k = 1 .. nilpotency-1
    powers: dict
    symplectic_form: tuple | None = None

    def __post_init__(self) -> None:
        # the sparse power index of the module docstring and what is read
        # off it; plain attributes, not fields
        sparse = {
            root: tuple(_sparse_block(mats) for mats in zip(*power_blocks))
            for root, power_blocks in self.powers.items()
        }
        object.__setattr__(self, "_sparse_powers", sparse)
        object.__setattr__(self, "_unit_entries", {
            root: _unit_entry(root, blocks) for root, blocks in sparse.items()
        })
        roots = self.system.roots
        depth = max(len(p) for p in self.powers.values())
        object.__setattr__(self, "_root_index", {root: k for k, root in enumerate(roots)})
        object.__setattr__(self, "_stack_index", tuple(
            _stack_block([sparse[root][b] for root in roots], depth)
            for b in range(len(self.block_dims))
        ))

    def identity(self, ring: Ring) -> "GroupElement":
        if ring.kind == "Zn":
            dtype = self.np_dtype(ring.modulus)
            blocks = tuple(np.eye(d, dtype=dtype) for d in self.block_dims)
            return GroupElement(self, ring, "np", blocks)
        blocks = tuple(ExactMatrix.identity(ring, d) for d in self.block_dims)
        return GroupElement(self, ring, "exact", blocks)

    def x(self, root: Root, coeff: RingElement) -> "GroupElement":
        """Elementary generator exp(coeff * e_root)."""
        if root.system != self.system.type_tag:
            raise RepresentationError(f"{root} does not belong to {self.name}")
        ring = coeff.ring
        if ring.kind == "Zn":
            # the identity with N_ij = sum_k c^k v_k mod n written in; a
            # one-letter x_stack does the same at about 4x the cost a call
            n = ring.modulus
            dtype = self.np_dtype(n)
            cks, ck = [], 1
            for _ in self.powers[root]:
                ck = ck * coeff.payload % n
                cks.append(ck)
            blocks = []
            for d, block in zip(self.block_dims, self._sparse_powers[root]):
                acc = np.eye(d, dtype=dtype)
                for i, j, vals in block:
                    acc[i, j] = sum(c * v for c, v in zip(cks, vals)) % n
                blocks.append(acc)
            return GroupElement(self, ring, "np", tuple(blocks))
        # N has a zero diagonal: a root vector moves each vector of the
        # weight bases here to another weight
        one = ring.one
        blocks = []
        for d, nil in zip(self.block_dims, self._nilpotent(root, coeff)):
            rows = [{i: one} for i in range(d)]
            for i, cols in nil.items():
                rows[i].update(cols)
            blocks.append(ExactMatrix(ring, d, tuple(rows)))
        return GroupElement(self, ring, "exact", tuple(blocks))

    def _nilpotent(self, root: Root, coeff: RingElement) -> tuple[dict, ...]:
        """N = x_root(coeff) - 1 over an exact ring, one {i: ((j, N_ij), ...)}
        per block with nonzero N_ij = sum_k coeff^k e^(k)_ij, read off the
        sparse power index."""
        ring = coeff.ring
        depth = len(self.powers[root])
        powers = [coeff]
        while len(powers) < depth and not powers[-1].is_zero:
            powers.append(powers[-1] * coeff)
        # entries with the same values share one element; G2 has 20
        # distinct value tuples in all
        combos: dict[tuple, RingElement] = {}
        out = []
        for block in self._sparse_powers[root]:
            nil: dict[int, list] = {}
            for i, j, vals in block:
                n = combos.get(vals)
                if n is None:
                    n = combos[vals] = ring.combination(vals, powers)
                if not n.is_zero:
                    nil.setdefault(i, []).append((j, n))
            out.append(nil)
        return tuple(out)

    def np_dtype(self, n: int):
        """The numpy dtype of this representation's matrices over Z/n: int64
        when it holds every entry of a product of two residue matrices, at
        most d (n - 1)^2 for the largest block dimension d, else Python ints
        (object).  Letters, identities and stacks are all built in it."""
        return np.int64 if max(self.block_dims) * (n - 1) ** 2 < 1 << 63 else object

    def x_stack(self, roots: np.ndarray, coeffs: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
        """The letters x_{roots[w]}(coeffs[w]) over Z/n, one (m, d, d) array
        per block.  roots index ``system.roots``; coeffs are residues mod n.
        Each letter is the identity with the entries of the sparse power
        index written in, as in ``x``."""
        dtype = self.np_dtype(n)
        m = len(roots)
        coeffs = np.asarray(coeffs, dtype=dtype)
        cks = [coeffs % n]
        for _ in range(1, self._stack_index[0][2].shape[2]):
            cks.append(cks[-1] * coeffs % n)
        cks = np.stack(cks, axis=1)
        blocks = []
        for d, (rows, cols, vals) in zip(self.block_dims, self._stack_index):
            vals = vals[roots].astype(dtype, copy=False)
            out = np.zeros((m, d, d), dtype=dtype)
            # padded slots write 0 at (0, 0), which the diagonal then covers
            out[np.arange(m)[:, None], rows[roots], cols[roots]] = (
                (cks[:, None, :] * vals).sum(axis=2) % n
            )
            out[:, np.arange(d), np.arange(d)] = 1
            blocks.append(out)
        return tuple(blocks)


class GroupElement:
    """Immutable matrix group element, block-diagonal over its ring.

    Finite modular rings use a numpy backend; symbolic rings use exact
    sparse matrices of ring elements.  Equality and hashing go through a
    canonical key: the residue bytes of the numpy blocks, or the term maps of
    the exact blocks' entries.
    """

    __slots__ = ("rep", "ring", "backend", "blocks", "_key")

    def __init__(self, rep: Representation, ring: Ring, backend: str, blocks: tuple):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("GroupElement is immutable")

    def key(self) -> bytes | tuple:
        if self._key is None:
            n = self.ring.modulus
            if self.backend == "exact":
                raw = tuple(b.key() for b in self.blocks)
            elif n <= 1 << 63:
                raw = b"".join(
                    np.ascontiguousarray(b % n, dtype=np.int64).tobytes()
                    for b in self.blocks
                )
            else:
                # residues past int64: their values, not the object pointers
                raw = repr([(b % n).tolist() for b in self.blocks]).encode()
            object.__setattr__(self, "_key", raw)
        return self._key

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.ring != self.ring:
            raise MixedRings(f"{other.ring} vs {self.ring}")
        if self.backend == "np":
            n = self.ring.modulus
            blocks = tuple((a @ b) % n for a, b in zip(self.blocks, other.blocks))
            return GroupElement(self.rep, self.ring, "np", blocks)
        blocks = tuple(a * b for a, b in zip(self.blocks, other.blocks))
        return GroupElement(self.rep, self.ring, "exact", blocks)

    def times_x(self, root: Root, coeff: RingElement) -> "GroupElement":
        """self * rep.x(root, coeff).  Over an exact ring the letter is not
        built: each block takes N = x_root(coeff) - 1 as column operations
        (``ExactMatrix.times_one_plus``)."""
        if self.backend == "np":
            return self * self.rep.x(root, coeff)
        blocks = tuple(
            b.times_one_plus(nil) for b, nil in zip(self.blocks, self._nilpotent(root, coeff))
        )
        return GroupElement(self.rep, self.ring, "exact", blocks)

    def x_times(self, root: Root, coeff: RingElement) -> "GroupElement":
        """rep.x(root, coeff) * self, the left twin of ``times_x``: over an
        exact ring each block takes N as row operations
        (``ExactMatrix.one_plus_times``)."""
        if self.backend == "np":
            return self.rep.x(root, coeff) * self
        blocks = tuple(
            b.one_plus_times(nil) for b, nil in zip(self.blocks, self._nilpotent(root, coeff))
        )
        return GroupElement(self.rep, self.ring, "exact", blocks)

    def _nilpotent(self, root: Root, coeff: RingElement) -> tuple[dict, ...]:
        """The letter's N per block, refused for a coefficient of another
        ring or a root of another system."""
        if coeff.ring != self.ring:
            raise MixedRings(f"{coeff.ring} vs {self.ring}")
        if root.system != self.rep.system.type_tag:
            raise RepresentationError(f"{root} does not belong to {self.rep.name}")
        return self.rep._nilpotent(root, coeff)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.ring == other.ring
            and self.rep.name == other.rep.name
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((self.rep.name, self.ring, self.key()))

    @property
    def is_identity(self) -> bool:
        if self.backend == "np":
            n = self.ring.modulus
            return all(
                np.array_equal(b % n, np.eye(len(b), dtype=np.int64))
                for b in self.blocks
            )
        return all(b.is_identity for b in self.blocks)

    def entry(self, block: int, i: int, j: int) -> RingElement:
        if self.backend == "np":
            return self.ring.element(int(self.blocks[block][i, j]))
        return self.blocks[block].entry(i, j)


# ---------------------------------------------------------------------------
# representation builders


def _sparse_block(mats: tuple) -> tuple:
    """The nonzero (i, j, (v_1, ..., v_K)) of one block's divided powers
    e^(1), ..., e^(K), row by row."""
    dim = len(mats[0])
    return tuple(
        (i, j, vals)
        for i in range(dim)
        for j in range(dim)
        if any(vals := tuple(m[i][j] for m in mats))
    )


def _unit_entry(root: Root, blocks: tuple) -> tuple[int, int, int, int]:
    """(block, i, j, v): the first entry, block by block and row by row,
    where e^(1) of the root is v = +-1.  The root's coordinate is read
    there, exactly over any ring; every root of A2, C2 and G2 has one."""
    for b, block in enumerate(blocks):
        for i, j, vals in block:
            if abs(vals[0]) == 1:
                return b, i, j, vals[0]
    raise RepresentationError(f"e_{root.name} has no entry +-1 to read its coordinate at")


def _stack_block(per_root: list, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's sparse power index as arrays indexed by root: rows and
    columns (roots, slots) and values (roots, slots, depth), zero-padded to
    the most entries of any root and to the deepest divided power."""
    slots = max(len(entries) for entries in per_root)
    rows = np.zeros((len(per_root), slots), dtype=np.intp)
    cols = np.zeros_like(rows)
    vals = np.zeros((len(per_root), slots, depth), dtype=np.int64)
    for r, entries in enumerate(per_root):
        for s, (i, j, v) in enumerate(entries):
            rows[r, s], cols[r, s] = i, j
            vals[r, s, : len(v)] = v
    return rows, cols, vals


def _mat(dim: int, entries: dict) -> tuple:
    """Dense integer matrix with the given {(i, j): value} entries."""
    rows = [[0] * dim for _ in range(dim)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return tuple(tuple(row) for row in rows)


def _mul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _bracket(a: tuple, b: tuple) -> tuple:
    ab, ba = _mul(a, b), _mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def _exact(x: int, divisor: int, what: str) -> int:
    q, r = divmod(x, divisor)
    if r:
        raise RepresentationError(f"{what} is not integral: {divisor} does not divide {x}")
    return q


def _divide(mat: tuple, divisor: int, what: str) -> tuple:
    """mat / divisor, refused unless the divisor divides every entry."""
    return tuple(tuple(_exact(x, divisor, what) for x in row) for row in mat)


def _close_positive_vectors(system: RootSystem, seeds: dict) -> dict:
    """Extend simple root vectors to all roots of one sign via brackets.

    Composite vectors are defined recursively through the simple step
    e_(d+s) = [e_s, e_d] / (p+1), where p is the length of the s-string
    below d; the division must be exact.
    """
    simple1, simple2 = system.simple_roots
    vectors = dict(seeds)
    pending = True
    while pending:
        pending = False
        for root in system.positive_roots:
            if root.coords in vectors:
                continue
            for step in (simple1, simple2):
                rest = root.times_plus(1, step, -1)
                if rest is None or rest.coords not in vectors:
                    continue
                p, _ = system.root_string(step, rest)
                vectors[root.coords] = _divide(
                    _bracket(vectors[step.coords], vectors[rest.coords]),
                    p + 1,
                    f"e_{root.name} = [e_{step.name}, e_{rest.name}]/{p + 1}",
                )
                pending = True
                break
    return vectors


def _divided_powers(mat: tuple, name: str) -> list[tuple]:
    """[e, e^2/2!, e^3/3!, ...] until zero; each division must be exact."""
    out = []
    power = mat
    k = 1
    fact = 1
    while any(any(row) for row in power):
        out.append(_divide(power, fact, f"e_{name}^{k}/{k}!"))
        k += 1
        fact *= k
        power = _mul(power, mat)
        if k > 8:  # non-nilpotent would be a construction bug
            raise RepresentationError(f"e_{name} is not nilpotent")
    return out


def _build_block_vectors(system: RootSystem, e1, e2, f1, f2) -> dict:
    s1, s2 = system.simple_roots
    pos = _close_positive_vectors(system, {s1.coords: e1, s2.coords: e2})
    mirrored = RootSystem(
        system.type_tag,
        system.roots,
        (-s1, -s2),
        tuple(-r for r in system.positive_roots),
    )
    neg = _close_positive_vectors(mirrored, {(-s1).coords: f1, (-s2).coords: f2})
    return {**pos, **neg}


def _adjoint_block(system: RootSystem, vectors: dict) -> dict:
    """14- (or dim-of-algebra) dimensional adjoint block from a 7-dim block.

    Basis: the root vectors in the fixed root order, then the two Cartan
    elements h1 = [e1, f1], h2 = [e2, f2].  The root vectors have pairwise
    disjoint supports off the diagonal and h1, h2 are diagonal, so each
    root coordinate of a bracket is one exact division at a pivot entry of
    its root vector, and the (h1, h2) part is a 2x2 Cramer solve on two
    diagonal entries.  Every bracket must equal the combination read off.
    """
    s1, s2 = system.simple_roots
    h1 = _bracket(vectors[s1.coords], vectors[(-s1).coords])
    h2 = _bracket(vectors[s2.coords], vectors[(-s2).coords])
    roots = system.roots
    basis = [vectors[r.coords] for r in roots] + [h1, h2]
    names = [f"e_{r.name}" for r in roots] + ["h1", "h2"]
    dim = len(h1)
    pivots = [
        next((i, j) for i in range(dim) for j in range(dim) if m[i][j])
        for m in basis[:-2]
    ]
    i, j = next(
        (i, j)
        for i in range(dim)
        for j in range(i + 1, dim)
        if h1[i][i] * h2[j][j] != h1[j][j] * h2[i][i]
    )
    det = h1[i][i] * h2[j][j] - h1[j][j] * h2[i][i]

    def coordinates(target: tuple, what: str) -> list[int]:
        out = [
            _exact(target[pi][pj], m[pi][pj], f"{what} at {name}")
            for m, (pi, pj), name in zip(basis, pivots, names)
        ]
        ti, tj = target[i][i], target[j][j]
        out.append(_exact(ti * h2[j][j] - tj * h2[i][i], det, f"{what} at h1"))
        out.append(_exact(h1[i][i] * tj - h1[j][j] * ti, det, f"{what} at h2"))
        combo = tuple(
            tuple(sum(a * m[r][c] for a, m in zip(out, basis) if a) for c in range(dim))
            for r in range(dim)
        )
        if combo != target:
            raise RepresentationError(f"{what} is not the combination read off the basis")
        return out

    ad = {}
    for root in roots:
        e = vectors[root.coords]
        cols = [
            coordinates(_bracket(e, b), f"[e_{root.name}, {name}]")
            for b, name in zip(basis, names)
        ]
        ad[root.coords] = tuple(zip(*cols))
    return ad


@lru_cache(maxsize=None)
def get_representation(tag: str) -> Representation:
    if tag == "A2":
        return _build_a2()
    if tag == "C2":
        return _build_c2()
    if tag == "G2":
        return _build_g2()
    raise RepresentationError(f"unknown system {tag!r}")


def _powers(system: RootSystem, *blocks: dict) -> dict:
    """root -> its divided powers, zipped across the blocks' root vectors;
    a block whose powers end early is padded with zero matrices."""
    powers = {}
    for root in system.roots:
        per_block = [_divided_powers(b[root.coords], root.name) for b in blocks]
        depth = max(len(p) for p in per_block)
        padded = [p + [_mat(len(p[0]), {})] * (depth - len(p)) for p in per_block]
        powers[root] = tuple(zip(*padded))
    return powers


def _build_a2() -> Representation:
    system = get_system("A2")
    pos_entries = {
        (1, 0): {(0, 1): 1},          # e_12
        (0, 1): {(1, 2): 1},          # e_23
        (1, 1): {(0, 2): 1},          # e_13
    }
    vectors = {}
    for (a, b), entries in pos_entries.items():
        vectors[(a, b)] = _mat(3, entries)
        vectors[(-a, -b)] = _mat(3, {(j, i): v for (i, j), v in entries.items()})
    return Representation("A2", system, (3,), _powers(system, vectors))


def _build_c2() -> Representation:
    # basis (e1, e2, f1, f2); form <e_i, f_i> = 1
    system = get_system("C2")
    e1 = _mat(4, {(0, 1): 1, (3, 2): -1})   # eps1 - eps2
    e2 = _mat(4, {(1, 3): 1})               # 2 eps2
    f1 = _mat(4, {(1, 0): 1, (2, 3): -1})
    f2 = _mat(4, {(3, 1): 1})
    vectors = _build_block_vectors(system, e1, e2, f1, f2)
    form = _mat(4, {(0, 2): 1, (1, 3): 1, (2, 0): -1, (3, 1): -1})
    return Representation("C2", system, (4,), _powers(system, vectors), symplectic_form=form)


def _build_g2() -> Representation:
    # 7-dim block: weight basis v1..v7 with weights
    # 2a1+a2, a1+a2, a1, 0, -a1, -(a1+a2), -(2a1+a2); the four simple
    # generator matrices realize the Kostant lattice of the module.
    system = get_system("G2")
    e1 = _mat(7, {(0, 1): 1, (2, 3): 2, (3, 4): 1, (5, 6): 1})
    f1 = _mat(7, {(1, 0): 1, (3, 2): 1, (4, 3): 2, (6, 5): 1})
    e2 = _mat(7, {(1, 2): 1, (4, 5): 1})
    f2 = _mat(7, {(2, 1): 1, (5, 4): 1})
    vectors7 = _build_block_vectors(system, e1, e2, f1, f2)
    ad = _adjoint_block(system, vectors7)
    return Representation("G2", system, (7, 14), _powers(system, vectors7, ad))


# ---------------------------------------------------------------------------
# congruence test


def congruence_level_test(g: GroupElement, ideal: Ideal) -> bool:
    """Whether g is congruent to the identity entrywise modulo the ideal."""
    if ideal.ring != g.ring:
        raise MixedRings(f"{ideal.ring} vs {g.ring}")
    one = g.ring.one
    for b, dim in enumerate(g.rep.block_dims):
        for i in range(dim):
            for j in range(dim):
                v = g.entry(b, i, j)
                if i == j:
                    v = v - one
                if not ideal.contains(v):
                    return False
    return True


# ---------------------------------------------------------------------------
# unipotent coordinates (peeling)


def unipotent_coordinates(
    g: GroupElement, roots_in_order: list[Root]
) -> list[tuple[Root, RingElement]]:
    """Factor g as prod x_root(t_root) over the given ordered root list.

    The order must list each root before any root expressible as a sum of
    later ones (ordering by any linear functional positive on the set
    works).  Raises PeelError when g does not live in that product.
    """
    residual = g
    coords = []
    for root in roots_in_order:
        t = _leading_coefficient(residual, root)
        coords.append((root, t))
        if not t.is_zero:
            residual = residual.x_times(root, -t)
    if not residual.is_identity:
        raise PeelError(
            "element does not factor through "
            + ",".join(r.name for r in roots_in_order)
        )
    return coords


def unipotent_coordinates_stack(
    stack: tuple[np.ndarray, ...], rep: Representation, roots_in_order: list[Root], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``unipotent_coordinates`` over Z/n for a stack of m elements, one
    (m, d, d) array of residues per block.  Returns the (m, len(roots))
    coordinates and, per element, whether the peeled residual is the
    identity; where it is not, the scalar peel raises PeelError."""
    m = len(stack[0])
    residual = stack
    coords = []
    for root in roots_in_order:
        b, i, j, v = rep._unit_entries[root]
        t = residual[b][:, i, j] * v % n
        coords.append(t)
        letters = rep.x_stack(np.full(m, rep._root_index[root]), -t % n, n)
        residual = tuple((x @ r) % n for x, r in zip(letters, residual))
    identity = np.ones(m, dtype=bool)
    for d, r in zip(rep.block_dims, residual):
        identity &= (r == np.eye(d, dtype=np.int64)).all(axis=(1, 2))
    return np.stack(coords, axis=1), identity


def _leading_coefficient(g: GroupElement, root: Root) -> RingElement:
    """The root's coordinate of g, read at its unit entry of e^(1)."""
    b, i, j, v = g.rep._unit_entries[root]
    t = g.entry(b, i, j)
    return t if v == 1 else -t


# ---------------------------------------------------------------------------
# Steinberg verification


@dataclass
class SteinbergReport:
    rep_name: str
    additivity: list[tuple[str, bool]]
    commutators: list[tuple[str, bool]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.additivity) and all(
            ok for _, ok in self.commutators
        )

    def counts(self) -> dict:
        return {
            "additivity": len(self.additivity),
            "pairs": len(self.commutators),
            "failures": [
                name
                for name, ok in self.additivity + self.commutators
                if not ok
            ],
        }


def verify_steinberg(rep: Representation) -> SteinbergReport:
    """Check additivity and every non-opposite Chevalley commutator
    relation symbolically over Z[xi, zeta].

    Each commutator is rebuilt and compared with the value of the table's
    word, not read off the peel ``compute_table`` made of it: that peel is
    how the table was found, so only an evaluation apart from it can catch
    a wrong word."""
    # deferred: constants and words build on this module
    from . import constants
    from .words import evaluate

    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta"))
    xi, zeta = ring.vars()
    additivity = []
    for root in rep.system.roots:
        lhs = rep.x(root, xi).times_x(root, zeta)
        rhs = rep.x(root, xi + zeta)
        additivity.append((f"x_{root.name} additive", lhs == rhs))
    table = constants.compute_table(rep)
    commutators = []
    for alpha in rep.system.roots:
        x_alpha = rep.x(alpha, xi)
        for beta in rep.system.roots:
            if beta == alpha or beta == -alpha:
                continue
            lhs = x_alpha.times_x(beta, zeta).times_x(alpha, -xi).times_x(beta, -zeta)
            word = constants.chevalley_commutator_word(table, alpha, beta, xi, zeta)
            rhs = evaluate(word, rep, ring)
            commutators.append(
                (f"[x_{alpha.name}, x_{beta.name}]", lhs == rhs)
            )
    return SteinbergReport(rep.name, additivity, commutators)
