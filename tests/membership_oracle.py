"""Byte-key membership, kept as the oracle for the sorted integer codes.

Each matrix is keyed by the raw bytes of its int64 residues, and the set is a
dict from key to insertion index, probed one element at a time.  That is
slow but needs no encoding: two canonical residue matrices have the same key
exactly when they are equal, whatever the modulus.  ``ByteKeySubgroup``
swaps this storage into ``EnumeratedSubgroup``, so closures, audits and
comparisons run unchanged on top of it.
"""
from __future__ import annotations

import numpy as np

from chevlab.subgroups import BoundExceeded, EnumeratedSubgroup


class ByteKeySubgroup(EnumeratedSubgroup):
    def __init__(self, rep, ring, generators):
        super().__init__(rep, ring, generators)
        self._keys: dict[bytes, int] = {}

    @property
    def cardinality(self) -> int:
        return len(self._keys)

    def contains_array(self, arr: np.ndarray) -> bool:
        return arr.tobytes() in self._keys

    @staticmethod
    def _row_keys(stack: np.ndarray) -> list[bytes]:
        blob = np.ascontiguousarray(stack).tobytes()
        size = stack.itemsize * stack.shape[1] * stack.shape[2]
        return [blob[i : i + size] for i in range(0, len(blob), size)]

    def contains_batch(self, stack: np.ndarray) -> np.ndarray:
        keys = self._row_keys(stack)
        return np.fromiter((k in self._keys for k in keys), dtype=bool, count=len(keys))

    def _add_batch(self, stack: np.ndarray, bound: int) -> np.ndarray:
        fresh = []
        for m, key in zip(stack, self._row_keys(stack)):
            if key not in self._keys:
                self._keys[key] = len(self._keys)
                fresh.append(m)
        if not fresh:
            return stack[:0]
        if len(self._keys) > bound:
            raise BoundExceeded(f"closure exceeded the element bound {bound}", len(self._keys))
        rows = np.stack(fresh)
        self._stack = np.concatenate([self._stack, rows])
        return rows

    def same_elements(self, other: "ByteKeySubgroup") -> bool:
        return self._keys.keys() == other._keys.keys()

    def is_subset_of(self, other: "ByteKeySubgroup") -> bool:
        return all(k in other._keys for k in self._keys)
