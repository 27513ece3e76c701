"""Sparse exact matrices over a Ring.

``ExactMatrix`` is the exact backend of every group element over a ring
other than Z/n: over Z and over the polynomial rings of the symbolic
checks, whose entries are multivariate polynomials.
The representations themselves are built over plain Python ints in
``reps``; there is no second matrix layer here.

Besides the full product, a matrix takes one letter x_a(c) for the few
nonzeros of N = x_a(c) - 1, on either side:

* on the right as column operations: ``times_one_plus`` computes
  M (1 + N) = M + M N, and a row of M that meets no row of N is kept;
* on the left as row operations: ``one_plus_times`` computes
  (1 + N) M = M + N M, reading N M off the old rows, and a row that N does
  not touch is kept.

A kept row is the same dict.  Every entry that changes is one
``Ring.sum_of_products`` of its products with N, started at its old value.
The canonical key behind ``==`` and ``hash`` is built on first use, since
most products are only ever multiplied further.
"""
from __future__ import annotations

from .rings import MixedRings, Ring, RingElement


class ExactMatrix:
    """Immutable square matrix over a Ring, stored as sparse rows; a row
    dict may be shared by several matrices, and none is ever changed."""

    __slots__ = ("ring", "dim", "rows", "_key")

    def __init__(self, ring: Ring, dim: int, rows: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_key", None)

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
        e = self.rows[i].get(j)
        return self.ring.zero if e is None else e

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

    def times_one_plus(self, nil: dict) -> "ExactMatrix":
        """self * (1 + N) for a sparse N over the same ring, given as
        {i: ((j, N_ij), ...)} with nonzero N_ij."""
        sum_of_products = self.ring.sum_of_products
        out_rows = []
        for row in self.rows:
            changed: dict[int, list] = {}
            for i, cols in nil.items():
                a = row.get(i)
                if a is None:
                    continue
                for j, n in cols:
                    changed.setdefault(j, []).append((a, n))
            if changed:
                row = _updated(row, changed, sum_of_products)
            out_rows.append(row)
        return ExactMatrix(self.ring, self.dim, tuple(out_rows))

    def one_plus_times(self, nil: dict) -> "ExactMatrix":
        """(1 + N) * self for N given as in ``times_one_plus``: row i gains
        sum_j N_ij times the old row j, and a row N does not touch is kept."""
        sum_of_products = self.ring.sum_of_products
        rows = self.rows
        out_rows = list(rows)
        for i, cols in nil.items():
            changed: dict[int, list] = {}
            for j, n in cols:
                for k, b in rows[j].items():
                    changed.setdefault(k, []).append((n, b))
            if changed:
                out_rows[i] = _updated(rows[i], changed, sum_of_products)
        return ExactMatrix(self.ring, self.dim, tuple(out_rows))

    def key(self) -> tuple:
        """The rows' entries sorted by column: equal matrices, equal keys."""
        if self._key is None:
            key = tuple(tuple(sorted(r.items(), key=lambda kv: kv[0])) for r in self.rows)
            object.__setattr__(self, "_key", key)
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.ring == other.ring
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.key()))

    @property
    def is_identity(self) -> bool:
        one = self.ring.one
        for i, row in enumerate(self.rows):
            if len(row) != 1 or row.get(i) != one:
                return False
        return True


def _updated(row: dict, changed: dict, sum_of_products) -> dict:
    """A copy of the row with each entry of ``changed``, {column: pairs},
    replaced by its old value plus the sum of the pairs' products; an entry
    that becomes zero is dropped."""
    out = dict(row)
    for j, pairs in changed.items():
        v = sum_of_products(pairs, row.get(j))
        if v.is_zero:
            out.pop(j, None)
        else:
            out[j] = v
    return out
