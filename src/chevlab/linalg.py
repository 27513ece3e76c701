"""Small exact-matrix helpers.

Two layers live here: sparse matrices of ring elements (used for all
symbolic work, where entries are multivariate polynomials) and dense
integer matrices over Fractions (used once, while constructing the
representations and their divided powers).
"""
from __future__ import annotations

from fractions import Fraction

from .rings import MixedRings, Ring, RingElement


class ExactMatrix:
    """Immutable square matrix over a Ring, stored as sparse rows."""

    __slots__ = ("ring", "dim", "rows", "_key")

    def __init__(self, ring: Ring, dim: int, rows: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)
        key = tuple(tuple(sorted(r.items(), key=lambda kv: kv[0])) for r in rows)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def build(ring: Ring, dim: int, entries: dict) -> "ExactMatrix":
        rows: list[dict] = [dict() for _ in range(dim)]
        for (i, j), v in entries.items():
            if not v.is_zero:
                rows[i][j] = v
        return ExactMatrix(ring, dim, tuple(rows))

    @staticmethod
    def identity(ring: Ring, dim: int) -> "ExactMatrix":
        one = ring.one
        return ExactMatrix(ring, dim, tuple({i: one} for i in range(dim)))

    def entry(self, i: int, j: int) -> RingElement:
        return self.rows[i].get(j, self.ring.zero)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.ring != self.ring:
            raise MixedRings(f"{other.ring} vs {self.ring}")
        sum_of_products = self.ring.sum_of_products
        out_rows = []
        for row in self.rows:
            pairs: dict[int, list] = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    pairs.setdefault(j, []).append((a, b))
            out = {}
            for j, ab in pairs.items():
                v = sum_of_products(ab)
                if not v.is_zero:
                    out[j] = v
            out_rows.append(out)
        return ExactMatrix(self.ring, self.dim, tuple(out_rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.ring == other.ring
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash((self.ring, self._key))

    @property
    def is_identity(self) -> bool:
        one = self.ring.one
        for i, row in enumerate(self.rows):
            if len(row) != 1 or row.get(i) != one:
                return False
        return True

    def to_nested(self) -> list[list[RingElement]]:
        zero = self.ring.zero
        return [
            [self.rows[i].get(j, zero) for j in range(self.dim)]
            for i in range(self.dim)
        ]


# ---------------------------------------------------------------------------
# dense integer/Fraction matrices for representation building


def imat_identity(dim: int) -> tuple:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
    )


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


def imat_add(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def imat_scale(a: tuple, c) -> tuple:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def imat_bracket(a: tuple, b: tuple) -> tuple:
    return imat_add(imat_mul(a, b), imat_scale(imat_mul(b, a), -1))

def imat_is_zero(a: tuple) -> bool:
    return all(x == 0 for row in a for x in row)


def imat_to_int(a: tuple) -> tuple:
    """Assert all entries are integers and strip the Fractions."""
    out = []
    for row in a:
        new_row = []
        for x in row:
            if x.denominator != 1:
                raise ValueError(f"non-integral entry {x}")
            new_row.append(int(x))
        out.append(tuple(new_row))
    return tuple(out)
