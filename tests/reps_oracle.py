"""The dense ``Fraction`` build of the representations, kept as the oracle.

This is the construction ``chevlab.reps`` used before it built over plain
integers: dense matrices of ``Fraction`` entries, composite root vectors
divided by p + 1 without a check, divided powers checked integral only at
the end, and the coordinates of the adjoint block found by exact Gaussian
elimination instead of being read off the basis.  The integer build must
give the same matrices entry for entry.
"""
from __future__ import annotations

from fractions import Fraction

from chevlab.reps import Representation, RepresentationError
from chevlab.roots import RootSystem, get_system


def imat_from_entries(dim: int, entries: dict) -> tuple:
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), v in entries.items():
        rows[i][j] = Fraction(v)
    return tuple(tuple(row) for row in rows)


def imat_mul(a: tuple, b: tuple) -> tuple:
    dim = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim))
        for i in range(dim)
    )


def imat_scale(a: tuple, c) -> tuple:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def imat_bracket(a: tuple, b: tuple) -> tuple:
    ab, ba = imat_mul(a, b), imat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(ab, ba))


def imat_to_int(a: tuple) -> tuple:
    """Assert all entries are integers and strip the Fractions."""
    for row in a:
        for x in row:
            if x.denominator != 1:
                raise ValueError(f"non-integral entry {x}")
    return tuple(tuple(int(x) for x in row) for row in a)


def close_positive_vectors(system: RootSystem, seeds: dict) -> dict:
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
                vectors[root.coords] = imat_scale(
                    imat_bracket(vectors[step.coords], vectors[rest.coords]),
                    Fraction(1, p + 1),
                )
                pending = True
                break
    return vectors


def divided_powers(mat: tuple) -> list[tuple]:
    out = []
    power = mat
    k = 1
    fact = 1
    while not all(x == 0 for row in power for x in row):
        out.append(imat_to_int(imat_scale(power, Fraction(1, fact))))
        k += 1
        fact *= k
        power = imat_mul(power, mat)
        if k > 8:
            raise RepresentationError("root vector is not nilpotent")
    return out


def block_vectors(system: RootSystem, e1, e2, f1, f2) -> dict:
    s1, s2 = system.simple_roots
    pos = close_positive_vectors(system, {s1.coords: e1, s2.coords: e2})
    mirrored = RootSystem(
        system.type_tag,
        system.roots,
        (-s1, -s2),
        tuple(-r for r in system.positive_roots),
    )
    neg = close_positive_vectors(mirrored, {(-s1).coords: f1, (-s2).coords: f2})
    return {**pos, **neg}


def adjoint_block(system: RootSystem, vectors: dict) -> dict:
    order = [r.coords for r in system.roots]
    s1, s2 = system.simple_roots
    h1 = imat_bracket(vectors[s1.coords], vectors[(-s1).coords])
    h2 = imat_bracket(vectors[s2.coords], vectors[(-s2).coords])
    basis = [vectors[c] for c in order] + [h1, h2]
    dim_alg = len(basis)
    flat = [[x for row in m for x in row] for m in basis]

    def solve_coords(mat) -> list[Fraction]:
        target = [x for row in mat for x in row]
        rows = [list(f) + [t] for f, t in zip(zip(*flat), target)]
        sol = [Fraction(0)] * dim_alg
        pivots = []
        r = 0
        for c in range(dim_alg):
            pivot = next((rr for rr in range(r, len(rows)) if rows[rr][c] != 0), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            pv = rows[r][c]
            rows[r] = [x / pv for x in rows[r]]
            for rr in range(len(rows)):
                if rr != r and rows[rr][c] != 0:
                    f = rows[rr][c]
                    rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
            pivots.append(c)
            r += 1
        if any(rows[rr][-1] != 0 for rr in range(r, len(rows))):
            raise RepresentationError("bracket outside the algebra span")
        for row, c in zip(rows, pivots):
            sol[c] = row[-1]
        return sol

    ad = {}
    for coords in order:
        cols = [solve_coords(imat_bracket(vectors[coords], b)) for b in basis]
        ad[coords] = tuple(
            tuple(cols[j][i] for j in range(dim_alg)) for i in range(dim_alg)
        )
    return ad


def oracle_representation(tag: str) -> Representation:
    """The representation ``tag`` as the Fraction build made it."""
    system = get_system(tag)
    form = None
    if tag == "A2":
        pos_entries = {(1, 0): {(0, 1): 1}, (0, 1): {(1, 2): 1}, (1, 1): {(0, 2): 1}}
        powers = {}
        for coords, entries in pos_entries.items():
            root = system.root(coords)
            mat = imat_from_entries(3, entries)
            neg = imat_from_entries(3, {(j, i): v for (i, j), v in entries.items()})
            powers[root] = tuple((blk,) for blk in divided_powers(mat))
            powers[-root] = tuple((blk,) for blk in divided_powers(neg))
        return Representation("A2", system, (3,), powers)
    if tag == "C2":
        vectors = block_vectors(
            system,
            imat_from_entries(4, {(0, 1): 1, (3, 2): -1}),
            imat_from_entries(4, {(1, 3): 1}),
            imat_from_entries(4, {(1, 0): 1, (2, 3): -1}),
            imat_from_entries(4, {(3, 1): 1}),
        )
        powers = {
            root: tuple((blk,) for blk in divided_powers(vectors[root.coords]))
            for root in system.roots
        }
        form = imat_to_int(
            imat_from_entries(4, {(0, 2): 1, (1, 3): 1, (2, 0): -1, (3, 1): -1})
        )
        return Representation("C2", system, (4,), powers, symplectic_form=form)
    vectors7 = block_vectors(
        system,
        imat_from_entries(7, {(0, 1): 1, (2, 3): 2, (3, 4): 1, (5, 6): 1}),
        imat_from_entries(7, {(1, 2): 1, (4, 5): 1}),
        imat_from_entries(7, {(1, 0): 1, (3, 2): 1, (4, 3): 2, (6, 5): 1}),
        imat_from_entries(7, {(2, 1): 1, (5, 4): 1}),
    )
    ad = adjoint_block(system, vectors7)
    zero7 = tuple((0,) * 7 for _ in range(7))
    zero14 = tuple((0,) * 14 for _ in range(14))
    powers = {}
    for root in system.roots:
        p7 = divided_powers(vectors7[root.coords])
        p14 = divided_powers(ad[root.coords])
        powers[root] = tuple(
            (p7[k] if k < len(p7) else zero7, p14[k] if k < len(p14) else zero14)
            for k in range(max(len(p7), len(p14)))
        )
    return Representation("G2", system, (7, 14), powers)
