"""Rank-2 root systems A2, C2, G2 in fixed simple-root coordinates.

A root m*a1 + n*a2 is stored as the integer pair (m, n).  The constant
tables below pin the geometry once and for all, so decompositions and sign
conventions downstream are reproducible:

* A2: positives (1,0), (0,1), (1,1); all roots one length.
* C2: a1 short, a2 long; positives (1,0), (0,1), (1,1), (2,1).
* G2: a1 short, a2 long; positives (1,0), (0,1), (1,1), (2,1), (3,1), (3,2).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class RootSystemError(Exception):
    pass


class OppositeRoots(RootSystemError):
    """The requested operation is undefined for a pair (a, -a)."""


class NoDecomposition(RootSystemError):
    """No root decomposition of the requested shape exists."""


_SYSTEM_DATA = {
    "A2": {
        "positives": ((1, 0), (0, 1), (1, 1)),
        "gram": ((2, -1), (-1, 2)),
    },
    "C2": {
        "positives": ((1, 0), (0, 1), (1, 1), (2, 1)),
        "gram": ((2, -2), (-2, 4)),
    },
    "G2": {
        "positives": ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        "gram": ((2, -3), (-3, 6)),
    },
}


@dataclass(frozen=True, order=True)
class Root:
    coords: tuple[int, int]
    system: str

    def __post_init__(self) -> None:
        if self.system not in _SYSTEM_DATA:
            raise RootSystemError(f"unknown system {self.system!r}")
        m, n = self.coords
        if (m, n) not in _root_set(self.system):
            raise RootSystemError(f"{self.coords} is not a root of {self.system}")

    def __neg__(self) -> "Root":
        m, n = self.coords
        return Root((-m, -n), self.system)

    def plus(self, other: "Root") -> "Root | None":
        """Root sum if it is again a root, else None."""
        m = self.coords[0] + other.coords[0]
        n = self.coords[1] + other.coords[1]
        if (m, n) in _root_set(self.system):
            return Root((m, n), self.system)
        return None

    def times_plus(self, k: int, other: "Root", j: int = 1) -> "Root | None":
        m = k * self.coords[0] + j * other.coords[0]
        n = k * self.coords[1] + j * other.coords[1]
        if (m, n) in _root_set(self.system):
            return Root((m, n), self.system)
        return None

    @property
    def norm(self) -> int:
        g = _SYSTEM_DATA[self.system]["gram"]
        m, n = self.coords
        return g[0][0] * m * m + 2 * g[0][1] * m * n + g[1][1] * n * n

    @property
    def height(self) -> int:
        return self.coords[0] + self.coords[1]

    @property
    def name(self) -> str:
        return root_name(self)

    def __repr__(self) -> str:
        return f"Root({self.name}, {self.system})"


@lru_cache(maxsize=None)
def _root_set(tag: str) -> frozenset:
    pos = _SYSTEM_DATA[tag]["positives"]
    return frozenset(pos) | frozenset((-m, -n) for m, n in pos)


@dataclass(frozen=True)
class RootSystem:
    type_tag: str
    roots: tuple[Root, ...]
    simple_roots: tuple[Root, Root]
    positive_roots: tuple[Root, ...]

    @property
    def rank(self) -> int:
        return 2

    def root(self, coords: tuple[int, int]) -> Root:
        return Root(tuple(coords), self.type_tag)

    def is_long(self, root: Root) -> bool:
        """Length classification; in A2 every root counts as long."""
        return root.norm == max(r.norm for r in self.roots)

    def is_short(self, root: Root) -> bool:
        return not self.is_long(root)

    @property
    def long_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if self.is_long(r))

    @property
    def short_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if self.is_short(r))

    def root_string(self, alpha: Root, beta: Root) -> tuple[int, int]:
        """(p, q) with p = max{k : beta - k*alpha root}, q = max for +."""
        if beta == alpha or beta == -alpha:
            raise OppositeRoots("root strings need beta != +-alpha")
        p = 0
        while beta.times_plus(1, alpha, -(p + 1)) is not None:
            p += 1
        q = 0
        while beta.times_plus(1, alpha, q + 1) is not None:
            q += 1
        return p, q

    def decompose_for_case(self, alpha: Root, case: "MainLemmaCase") -> tuple[Root, Root]:
        """Roots (beta, gamma) with alpha = beta + gamma (or beta + 2*gamma
        in the C2 long case), with the length classes the case demands.

        Prefers decompositions through simple roots; remaining ties break on
        lexicographic coordinate order (larger beta first).
        """
        if case.system_tag != self.type_tag:
            raise NoDecomposition(f"case {case.value} is not a {self.type_tag} case")
        if case.alpha_is_long != self.is_long(alpha):
            raise NoDecomposition(
                f"{alpha.name} has the wrong length class for case {case.value}"
            )
        gamma_mult = 2 if case is MainLemmaCase.C2_LONG else 1
        candidates = []
        for beta in self.roots:
            for gamma in self.roots:
                if beta == gamma or beta == -gamma:
                    continue
                m = beta.coords[0] + gamma_mult * gamma.coords[0]
                n = beta.coords[1] + gamma_mult * gamma.coords[1]
                if (m, n) != alpha.coords:
                    continue
                if case is MainLemmaCase.A2:
                    ok = True  # all of A2 is one length class
                else:
                    ok = self.is_long(beta) and self.is_short(gamma)
                if ok:
                    candidates.append((beta, gamma))
        if not candidates:
            raise NoDecomposition(f"no ({case.value}) decomposition of {alpha.name}")
        simples = set(self.simple_roots)

        def rank_key(bg):
            beta, gamma = bg
            non_simple = (beta not in simples) + (gamma not in simples)
            return (
                non_simple,
                tuple(-c for c in beta.coords),
                tuple(-c for c in gamma.coords),
            )

        return min(candidates, key=rank_key)


class MainLemmaCase(Enum):
    """The four rank-2 cases of the central commutator factorization."""

    A2 = "A2"
    C2_LONG = "C2Long"
    C2_SHORT = "C2Short"
    G2_SHORT = "G2Short"

    @property
    def system_tag(self) -> str:
        return {"A2": "A2", "C2Long": "C2", "C2Short": "C2", "G2Short": "G2"}[self.value]

    @property
    def alpha_is_long(self) -> bool:
        # A2 has a single length class, reported as long by convention
        return self.value in ("A2", "C2Long")

    @staticmethod
    def from_string(s: str) -> "MainLemmaCase":
        for case in MainLemmaCase:
            if case.value.lower() == s.lower():
                return case
        raise RootSystemError(f"unknown case {s!r}")


def canonical_case_root(case: MainLemmaCase) -> Root:
    """Deterministic root used when a case is exercised without one."""
    system = get_system(case.system_tag)
    coords = (2, 1) if case is MainLemmaCase.C2_LONG else (1, 1)
    return system.root(coords)


@lru_cache(maxsize=None)
def get_system(tag: str) -> RootSystem:
    if tag not in _SYSTEM_DATA:
        raise RootSystemError(f"unknown system {tag!r}")
    pos = tuple(
        sorted(
            (Root(c, tag) for c in _SYSTEM_DATA[tag]["positives"]),
            key=lambda r: (r.height, r.coords),
        )
    )
    roots = pos + tuple(-r for r in pos)
    return RootSystem(tag, roots, (Root((1, 0), tag), Root((0, 1), tag)), pos)


# ---------------------------------------------------------------------------
# names


def root_name(root: Root) -> str:
    """Names like "a1", "a1+2a2", "-a1-a2"."""
    m, n = root.coords
    out = ""
    if m:
        if m == 1:
            out = "a1"
        elif m == -1:
            out = "-a1"
        else:
            out = f"{m}a1"
    if n:
        piece = "a2" if abs(n) == 1 else f"{abs(n)}a2"
        if n > 0:
            out += ("+" if out else "") + piece
        else:
            out += "-" + piece
    return out


_ROOT_NAME_RE = re.compile(r"([+-]?\d*)a([12])")


def parse_root(system: RootSystem, text: str) -> Root:
    s = text.replace(" ", "")
    coeffs = [0, 0]
    consumed = 0
    for m in _ROOT_NAME_RE.finditer(s):
        sign_num = m.group(1)
        if sign_num in ("", "+"):
            k = 1
        elif sign_num == "-":
            k = -1
        else:
            k = int(sign_num)
        coeffs[int(m.group(2)) - 1] += k
        consumed += len(m.group(0))
    if consumed != len(s) or s == "":
        raise RootSystemError(f"bad root name {text!r}")
    return system.root((coeffs[0], coeffs[1]))
