"""Cofactor linear algebra mod n, kept as the oracle for the elimination.

``batch_det`` expands each determinant along its first row, recursively, so
a d x d matrix costs d! products; ``batch_inverse`` builds the adjugate from
d^2 such determinants and scales it by the inverse of the determinant.
``solve_mod_p`` row-reduces one matrix over F_p on Python lists; the number
of its null-space basis rows gives the rank the elimination must find.  All
three are slow and plainly correct, which is what an oracle on small cases
needs.
"""
from __future__ import annotations

import math

import numpy as np

from chevlab.subgroups import EnumerationError


def batch_inverse(stack: np.ndarray, n: int) -> np.ndarray:
    """Inverses mod n via the adjugate; determinants must be units."""
    dim = stack.shape[1]
    out = np.zeros_like(stack)
    dets, where = unit_determinants(stack, n, "inverse batch")
    unit_inv = np.array([pow(int(d), -1, n) for d in dets], dtype=np.int64)[where]
    minor_rows = [np.array([r for r in range(dim) if r != i]) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            minor = stack[:, minor_rows[j][:, None], minor_rows[i]]
            cof = batch_det(minor, n) * ((-1) ** (i + j))
            out[:, i, j] = cof % n
    return (out * unit_inv[:, None, None]) % n


def unit_determinants(stack: np.ndarray, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct determinants mod n of the stack and the index of each
    matrix's among them; EnumerationError naming what when one is not a unit."""
    dets, where = np.unique(batch_det(stack, n), return_inverse=True)
    if any(math.gcd(int(d), n) != 1 for d in dets):
        raise EnumerationError(f"non-invertible matrix in {what}")
    return dets, where


def batch_det(stack: np.ndarray, n: int) -> np.ndarray:
    dim = stack.shape[1]
    if dim == 1:
        return stack[:, 0, 0] % n
    if dim == 2:
        return (stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]) % n
    total = np.zeros(stack.shape[0], dtype=np.int64)
    rows = np.arange(1, dim)[:, None]
    for j in range(dim):
        cols = np.array([c for c in range(dim) if c != j])
        minor = stack[:, rows, cols]
        total = (total + ((-1) ** j) * stack[:, 0, j] * batch_det(minor, n)) % n
    return total % n


def solve_mod_p(lin: np.ndarray, p: int) -> np.ndarray:
    """Row-reduce the r x c matrix over F_p.  Returns B, whose rows span the
    solutions of lin z = 0: one row per column without a pivot."""
    r, c = lin.shape
    rows = [[int(x) % p for x in row] for row in lin]
    pivots: list[int] = []
    for col in range(c):
        top = len(pivots)
        found = next((i for i in range(top, r) if rows[i][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        inv = pow(rows[top][col], -1, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for i in range(r):
            if i != top and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
    reduced = np.array(rows, dtype=np.int64).reshape(r, c)
    free = [col for col in range(c) if col not in pivots]
    basis = np.zeros((len(free), c), dtype=np.int64)
    for i, col in enumerate(free):
        basis[i, col] = 1
        basis[i, pivots] = (-reduced[: len(pivots), col]) % p
    return basis
