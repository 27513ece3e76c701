"""Finite matrix subgroup enumeration and brute-force theorem checking.

Everything here runs over Z/n with the natural A2 (3x3) and C2 (4x4)
representations; G2 is deliberately unsupported at subgroup scale (the
smallest admissible congruence kernels are far beyond desk scale) and the
reports say so.  Elements are canonical residue matrices; membership works
through packed byte keys, products through batched numpy arithmetic, and
closures through breadth-first search over a minimal generating subset, so
verdicts are deterministic and independent of chunk sizes.

Principal congruence subgroups G(Z/n, (d)) are built prime by prime along
the filtration G(p^m) > G(p^(m+1)): the base layer is {1} mod p^a, or G(F_p)
swept from the p^(dim^2) matrices mod p when p does not divide d, and each
element of layer m lifts to g (1 + p^m Z) with Z running over the solutions
mod p of the group equations linearised at 1.  The primes are joined by the
Chinese remainder theorem.  The full sweep over 1 + dM survives only as
``_sweep_congruence``, the base-layer step and the tests' oracle.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .factorize import condition_star, relative_generators
from .reps import GroupElement, Representation, get_representation
from .rings import Ideal, InfiniteRing, Ring, enumerate_elements
from .roots import get_system
from .words import Word, word_to_sexpr, x_word, evaluate


class EnumerationError(Exception):
    pass


class BoundExceeded(EnumerationError):
    def __init__(self, message: str, partial: int):
        super().__init__(message)
        self.partial = partial


class UnsupportedType(EnumerationError):
    pass


DEFAULT_ELEMENT_BOUND = 10**6
DEFAULT_CANDIDATE_BOUND = 10**8
_CHUNK = 1 << 18


def _word_matrices(words: list[Word], rep: Representation, ring: Ring) -> np.ndarray:
    """Evaluate words to a deduplicated stack of matrices (identity kept)."""
    seen = {}
    mats = []
    for w in words:
        g = evaluate(w, rep, ring)
        arr = g.np_single()
        key = arr.tobytes()
        if key not in seen:
            seen[key] = len(mats)
            mats.append(arr)
    if not mats:
        dim = rep.block_dims[0]
        return np.eye(dim, dtype=np.int64)[None, :, :]
    return np.stack(mats)


def _batch_inverse(stack: np.ndarray, n: int) -> np.ndarray:
    """Inverses mod n via the adjugate; determinants must be units."""
    dim = stack.shape[1]
    out = np.zeros_like(stack)
    det = _batch_det(stack, n)
    unit_inv = np.array([pow(int(d), -1, n) if math.gcd(int(d), n) == 1 else -1 for d in det])
    if np.any(unit_inv < 0):
        raise EnumerationError("non-invertible matrix in inverse batch")
    minor_rows = [[r for r in range(dim) if r != i] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            rows = minor_rows[j]
            cols = minor_rows[i]
            minor = stack[:, rows][:, :, cols]
            cof = _batch_det(minor, n) * ((-1) ** (i + j))
            out[:, i, j] = cof % n
    return (out * unit_inv[:, None, None]) % n


def _batch_det(stack: np.ndarray, n: int) -> np.ndarray:
    dim = stack.shape[1]
    if dim == 1:
        return stack[:, 0, 0] % n
    if dim == 2:
        return (stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]) % n
    total = np.zeros(stack.shape[0], dtype=np.int64)
    rows = list(range(1, dim))
    for j in range(dim):
        cols = [c for c in range(dim) if c != j]
        minor = stack[:, rows][:, :, cols]
        total = (total + ((-1) ** j) * stack[:, 0, j] * _batch_det(minor, n)) % n
    return total % n


class EnumeratedSubgroup:
    """A finite, fully closed set of canonical matrices with provenance."""

    def __init__(self, rep: Representation, ring: Ring, generators: list[Word]):
        self.rep = rep
        self.ring = ring
        self.generators = list(generators)
        self._keys: dict[bytes, int] = {}
        dim = rep.block_dims[0]
        self._stack = np.zeros((0, dim, dim), dtype=np.int64)
        self._min_gens: list[np.ndarray] = []

    # -- storage -------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self._keys)

    @property
    def stack(self) -> np.ndarray:
        return self._stack

    def contains_array(self, arr: np.ndarray) -> bool:
        return arr.tobytes() in self._keys

    @staticmethod
    def _row_keys(stack: np.ndarray) -> list[bytes]:
        blob = np.ascontiguousarray(stack).tobytes()
        size = stack.itemsize * stack.shape[1] * stack.shape[2]
        return [blob[i : i + size] for i in range(0, len(blob), size)]

    def contains_batch(self, stack: np.ndarray) -> np.ndarray:
        keys = self._row_keys(stack)
        return np.fromiter(
            (k in self._keys for k in keys), dtype=bool, count=len(keys)
        )

    def _add_batch(self, stack: np.ndarray, bound: int) -> list[int]:
        fresh = []
        for m, key in zip(stack, self._row_keys(stack)):
            if key not in self._keys:
                self._keys[key] = len(self._keys)
                fresh.append(m)
        if fresh:
            if len(self._keys) > bound:
                raise BoundExceeded(
                    f"closure exceeded the element bound {bound}", len(self._keys)
                )
            self._stack = np.concatenate([self._stack, np.stack(fresh)])
        return fresh

    def same_elements(self, other: "EnumeratedSubgroup") -> bool:
        return self._keys.keys() == other._keys.keys()

    def is_subset_of(self, other: "EnumeratedSubgroup") -> bool:
        return all(k in other._keys for k in self._keys)

    def audit_closure(self) -> bool:
        """Full pass: every element times every minimal generator stays in."""
        n = self.ring.modulus
        if not self._keys:
            return False
        ident = np.eye(self.rep.block_dims[0], dtype=np.int64)
        if ident.tobytes() not in self._keys:
            return False
        for g in self._min_gens:
            for start in range(0, len(self._stack), _CHUNK):
                prods = (self._stack[start : start + _CHUNK] @ g) % n
                if not self.contains_batch(prods).all():
                    return False
        return True

    def audit_direct(self, probe: np.ndarray, seed: int = 0, pairs: int = 20000) -> bool:
        """Audit for exhaustively enumerated sets: identity and all inverses
        present, closed under the probe generators, and under a seeded
        sample of internal products."""
        n = self.ring.modulus
        ident = np.eye(self.rep.block_dims[0], dtype=np.int64)
        if ident.tobytes() not in self._keys:
            return False
        for start in range(0, len(self._stack), _CHUNK):
            invs = _batch_inverse(self._stack[start : start + _CHUNK], n)
            if not self.contains_batch(invs).all():
                return False
        for g in probe:
            for start in range(0, len(self._stack), _CHUNK):
                prods = (self._stack[start : start + _CHUNK] @ g) % n
                if not self.contains_batch(prods).all():
                    return False
        rng = np.random.default_rng(seed)
        size = self.cardinality
        left = self._stack[rng.integers(0, size, pairs)]
        right = self._stack[rng.integers(0, size, pairs)]
        prods = np.einsum("nij,njk->nik", left, right) % n
        return bool(self.contains_batch(prods).all())

    def generators_hash(self) -> str:
        payload = "\n".join(word_to_sexpr(w) for w in self.generators).encode()
        return hashlib.sha256(payload).hexdigest()

    # -- closure -------------------------------------------------------------

    def close_over(self, gen_stack: np.ndarray, bound: int) -> None:
        """Add generators one at a time, BFS-closing after each new one.

        The set stays closed under all previously added generators, so each
        extension only needs to explore products involving the new one.
        """
        n = self.ring.modulus
        dim = self.rep.block_dims[0]
        ident = np.eye(dim, dtype=np.int64)
        self._add_batch(ident[None, :, :], bound)
        inverses = _batch_inverse(gen_stack, n)
        for g, ginv in zip(gen_stack, inverses):
            if self.contains_array(g % n):
                continue
            self._min_gens.append(g % n)
            self._min_gens.append(ginv)
            seed: list[np.ndarray] = []
            for new_gen in (g % n, ginv):
                for start in range(0, len(self._stack), _CHUNK):
                    prods = (self._stack[start : start + _CHUNK] @ new_gen) % n
                    seed.extend(self._add_batch(prods, bound))
            self._bfs(seed, bound)

    def _bfs(self, seed: list[np.ndarray], bound: int) -> None:
        n = self.ring.modulus
        frontier = np.stack(seed) if seed else np.zeros((0,) + self._stack.shape[1:], dtype=np.int64)
        while len(frontier):
            fresh: list[np.ndarray] = []
            for g in self._min_gens:
                for start in range(0, len(frontier), _CHUNK):
                    prods = (frontier[start : start + _CHUNK] @ g) % n
                    fresh.extend(self._add_batch(prods, bound))
            frontier = np.stack(fresh) if fresh else np.zeros((0,) + self._stack.shape[1:], dtype=np.int64)

    def close_under_conjugation(self, conj_stack: np.ndarray, bound: int) -> None:
        """Extend until stable under conjugation by the given matrices."""
        n = self.ring.modulus
        conj_inv = _batch_inverse(conj_stack, n)
        stable = False
        while not stable:
            stable = True
            gens = np.stack(self._min_gens) if self._min_gens else self._stack[:1]
            missing: list[np.ndarray] = []
            seen: set[bytes] = set()
            for c, cinv in zip(conj_stack, conj_inv):
                for images in ((c @ gens @ cinv) % n, (cinv @ gens @ c) % n):
                    fresh = images[~self.contains_batch(images)]
                    for m, key in zip(fresh, self._row_keys(fresh) if len(fresh) else []):
                        if key not in seen:
                            seen.add(key)
                            missing.append(m)
            if missing:
                stable = False
                self.close_over(np.stack(missing), bound)


# ---------------------------------------------------------------------------
# public constructors


def closure(
    gens: list[Word],
    rep: Representation,
    ring: Ring,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> EnumeratedSubgroup:
    """Subgroup generated by the words (BFS until fixpoint)."""
    _require_enumerable(rep, ring)
    sub = EnumeratedSubgroup(rep, ring, gens)
    sub.close_over(_word_matrices(gens, rep, ring), bound)
    if not sub.audit_closure():
        raise EnumerationError("closure audit failed")
    return sub


def normal_closure(
    seed: list[Word],
    conjugators: list[Word],
    rep: Representation,
    ring: Ring,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> EnumeratedSubgroup:
    """Smallest subgroup containing the seed and stable under the
    conjugators (and their inverses)."""
    _require_enumerable(rep, ring)
    sub = EnumeratedSubgroup(rep, ring, list(seed) + list(conjugators))
    sub.close_over(_word_matrices(seed, rep, ring), bound)
    if conjugators:
        sub.close_under_conjugation(_word_matrices(conjugators, rep, ring), bound)
    if not sub.audit_closure():
        raise EnumerationError("closure audit failed")
    return sub


def commutator_subgroup(
    h_gens: list[Word],
    k_gens: list[Word],
    rep: Representation,
    ring: Ring,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> EnumeratedSubgroup:
    """[H, K] as the normal closure in <H, K> of generator commutators."""
    _require_enumerable(rep, ring)
    n = ring.modulus
    h_stack = _word_matrices(h_gens, rep, ring)
    k_stack = _word_matrices(k_gens, rep, ring)
    h_inv = _batch_inverse(h_stack, n)
    k_inv = _batch_inverse(k_stack, n)
    seen = set()
    seeds = []
    for h, hi in zip(h_stack, h_inv):
        comm = (h @ k_stack @ hi @ k_inv) % n
        for m in comm:
            key = m.tobytes()
            if key not in seen:
                seen.add(key)
                seeds.append(m)
    sub = EnumeratedSubgroup(rep, ring, list(h_gens) + list(k_gens))
    if seeds:
        sub.close_over(np.stack(seeds), bound)
    else:
        sub.close_over(np.eye(rep.block_dims[0], dtype=np.int64)[None], bound)
    conj_stack = np.concatenate([h_stack, k_stack])
    sub.close_under_conjugation(conj_stack, bound)
    if not sub.audit_closure():
        raise EnumerationError("closure audit failed")
    return sub


def _require_enumerable(rep: Representation, ring: Ring) -> None:
    if rep.system.type_tag == "G2":
        raise UnsupportedType(
            "G2 is out of desk scale for subgroup enumeration: the smallest "
            "condition-(*)-compliant congruence kernel has about 3^14 "
            "elements of 21x21 matrices"
        )
    if ring.kind != "Zn":
        raise InfiniteRing("subgroup enumeration needs Z/n")


# ---------------------------------------------------------------------------
# direct congruence enumerations


_CONGRUENCE_CACHE: dict = {}


def enumerate_congruence_subgroup(
    rep: Representation,
    ring: Ring,
    ideal: Ideal,
    bound: int = DEFAULT_CANDIDATE_BOUND,
) -> EnumeratedSubgroup:
    """The principal congruence subgroup G(R, I): all matrices congruent to
    1 mod the ideal that satisfy the group equations.  Built by lifting along
    the p-adic filtration of each prime power of the modulus (see the module
    docstring), refused when the (n/d)^(dim^2) matrices 1 + dM exceed the
    bound, and audited for closure before it is cached."""
    cache_key = (rep.name, ring, ideal)
    cached = _CONGRUENCE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    sub = _enumerate_congruence_uncached(rep, ring, ideal, bound)
    _CONGRUENCE_CACHE[cache_key] = sub
    return sub


def _enumerate_congruence_uncached(
    rep: Representation,
    ring: Ring,
    ideal: Ideal,
    bound: int,
) -> EnumeratedSubgroup:
    _require_enumerable(rep, ring)
    n = ring.modulus
    (d,) = ideal.gens
    if d % n == 0:
        sub = EnumeratedSubgroup(rep, ring, [])
        sub.close_over(np.eye(rep.block_dims[0], dtype=np.int64)[None], bound)
        return sub
    dim = rep.block_dims[0]
    radix = n // d
    count = radix ** (dim * dim)
    if count > bound:
        raise BoundExceeded(
            f"congruence enumeration needs {count} candidates (> {bound})", 0
        )
    sub = EnumeratedSubgroup(rep, ring, [])
    sub._add_batch(_lift_congruence(rep, n, d), bound)
    # every lift of every layer element is listed exactly once, so the set is
    # the full kernel of reduction mod d; audit with the level generators
    # plus sampled internal products
    probe = _word_matrices(elementary_level_words(rep.system.type_tag, ideal), rep, ring)
    if not sub.audit_direct(probe):
        raise EnumerationError("congruence set is not closed (bad filter?)")
    return sub


def _lift_congruence(rep: Representation, n: int, d: int) -> np.ndarray:
    """G(Z/n, (d)) for d | n, d != n, as canonical residue matrices sorted by
    the mixed-radix index of ((g - 1) mod n)/d, the order of the sweep."""
    dim = rep.block_dims[0]
    if dim * (n - 1) ** 2 >= 1 << 63:
        raise EnumerationError(
            f"Z/{n} is too large for int64 products of {dim}x{dim} matrices"
        )
    ident = np.eye(dim, dtype=np.int64)
    stack, modulus = ident[None], 1
    for p, k in _prime_powers(n):
        a = 0
        while a < k and d % p ** (a + 1) == 0:
            a += 1
        if a:
            layer, level = ident[None], a
        else:
            layer, level = _sweep_congruence(rep, p, 1), 1
        if level < k:
            solver = _solve_mod_p(_linearised_equations(rep, p), p)
        for m in range(level, k):
            layer = _lift_layer(rep, layer, p, m, solver)
        # Chinese remainder: x = s mod modulus, x = t mod p^k
        q, joint = p ** k, modulus * p ** k
        e_old = q * pow(q, -1, modulus) % joint
        e_new = modulus * pow(modulus, -1, q) % joint
        stack = (
            (stack[:, None] * e_old) % joint + (layer[None, :] * e_new) % joint
        ).reshape(-1, dim, dim) % joint
        modulus = joint
    digits = (((stack - ident) % n) // d).reshape(len(stack), -1)
    return stack[np.lexsort(digits.T)]


def _sweep_congruence(rep: Representation, n: int, d: int) -> np.ndarray:
    """Every 1 + d*M mod n satisfying the group equations, in the order of
    the mixed-radix index of M: (n/d)^(dim^2) candidates.  Production calls
    it only for the base layer G(F_p); the tests use it as the oracle."""
    dim = rep.block_dims[0]
    radix = n // d
    count = radix ** (dim * dim)
    ident = np.eye(dim, dtype=np.int64)
    weights = radix ** np.arange(dim * dim, dtype=np.int64)
    kept = []
    for start in range(0, count, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % radix
        cand = (ident[None] + d * digits.reshape(-1, dim, dim)) % n
        kept.append(cand[_group_equation_mask(rep, cand, n)])
    return np.concatenate(kept)


def _lift_layer(rep: Representation, layer: np.ndarray, p: int, m: int, solver) -> np.ndarray:
    """All lifts to G(Z/p^(m+1)) of the elements of G(Z/p^m) in the layer.

    g (1 + p^m Z) satisfies the equations mod p^(m+1) exactly when
    L(Z) = -C(g) mod p, with L the equations linearised at 1 and
    C(g) = (f(g) - f(1))/p^m; an element whose constant is inconsistent has
    no lift and is dropped."""
    particular, consistency, basis = solver
    dim = layer.shape[1]
    step, q = p ** m, p ** (m + 1)
    ident = np.eye(dim, dtype=np.int64)
    defect = (_group_equations(rep, layer, q) - _group_equations(rep, ident[None], q)) % q
    rhs = (-(defect // step)) % p
    solvable = np.all((rhs @ consistency) % p == 0, axis=1)
    layer = layer[solvable]
    shift = (rhs[solvable] @ particular) % p
    size = p ** len(basis)
    weights = p ** np.arange(len(basis), dtype=np.int64)
    total = len(layer) * size
    lifts = [np.zeros((0, dim, dim), dtype=np.int64)]
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        g_idx, z_idx = np.divmod(idx, size)
        coeffs = (z_idx[:, None] // weights[None, :]) % p
        z = (shift[g_idx] + coeffs @ basis) % p
        lifts.append(np.matmul(layer[g_idx], ident + step * z.reshape(-1, dim, dim)) % q)
    return np.concatenate(lifts)


def _linearised_equations(rep: Representation, p: int) -> np.ndarray:
    """The matrix of the group equations linearised at 1, mod p: column i is
    (f(1 + p E_i) - f(1))/p mod p, since f(1 + pZ) = f(1) + p L(Z) mod p^2
    for a polynomial f (L is tr Z for A2 and Z^T Omega + Omega Z for C2)."""
    dim = rep.block_dims[0]
    ident = np.eye(dim, dtype=np.int64)
    units = np.eye(dim * dim, dtype=np.int64).reshape(-1, dim, dim)
    q = p * p
    diff = (_group_equations(rep, ident + p * units, q) - _group_equations(rep, ident[None], q)) % q
    return ((diff // p) % p).T


def _solve_mod_p(lin: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-reduce the r x c matrix over F_p.  Returns (P, Q, B): a row b with
    b @ Q = 0 mod p is the right-hand side of a solvable system lin z = b,
    b @ P is one solution, and the rows of B span the solutions of lin z = 0."""
    r, c = lin.shape
    rows = [[int(x) % p for x in row] + [int(i == j) for j in range(r)] for i, row in enumerate(lin)]
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
    rank = len(pivots)
    reduced = np.array([row[:c] for row in rows], dtype=np.int64).reshape(r, c)
    transform = np.array([row[c:] for row in rows], dtype=np.int64).reshape(r, r)
    particular = np.zeros((r, c), dtype=np.int64)
    particular[:, pivots] = transform[:rank].T
    free = [col for col in range(c) if col not in pivots]
    basis = np.zeros((len(free), c), dtype=np.int64)
    for i, col in enumerate(free):
        basis[i, col] = 1
        basis[i, pivots] = (-reduced[:rank, col]) % p
    return particular, transform[rank:].T, basis


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, k) for each p^k exactly dividing n, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _group_equations(rep: Representation, stack: np.ndarray, n: int) -> np.ndarray:
    """The defining equations of the group at each matrix, mod n, one row per
    matrix: the determinant for A2, the entries of g^T Omega g for C2."""
    if rep.system.type_tag == "A2":
        return _batch_det(stack, n)[:, None]
    form = np.array(rep.symplectic_form, dtype=np.int64)
    lhs = np.matmul(np.matmul(stack.transpose(0, 2, 1), form) % n, stack) % n
    return lhs.reshape(len(stack), -1)


def _group_equation_mask(rep: Representation, cand: np.ndarray, n: int) -> np.ndarray:
    ident = np.eye(cand.shape[1], dtype=np.int64)
    return np.all(_group_equations(rep, cand, n) == _group_equations(rep, ident[None], n), axis=1)


def reduced_elementary_group(rep: Representation, ring: Ring, bound: int) -> EnumeratedSubgroup:
    """Closure of all elementary generators over a finite ring."""
    gens = [
        x_word(root, t)
        for root in rep.system.roots
        for t in enumerate_elements(ring)
        if not t.is_zero
    ]
    return closure(gens, rep, ring, bound)


def brute_center(group: EnumeratedSubgroup, gen_stack: np.ndarray) -> np.ndarray:
    """Elements commuting with every generator (= the centre here)."""
    n = group.ring.modulus
    mask = np.ones(group.cardinality, dtype=bool)
    for g in gen_stack:
        left = (group.stack @ g) % n
        right = (g @ group.stack) % n
        mask &= np.all(left == right, axis=(1, 2))
    return group.stack[mask]


def enumerate_full_congruence(
    rep: Representation,
    ring: Ring,
    ideal: Ideal,
    bound: int = DEFAULT_CANDIDATE_BOUND,
) -> EnumeratedSubgroup:
    """Pre-image of the centre of the reduced group: central lifts times
    the congruence kernel, re-filtered by the central-mod test."""
    _require_enumerable(rep, ring)
    n = ring.modulus
    (d,) = ideal.gens
    if d % n == 0 or d == 1:
        raise EnumerationError("full congruence enumeration needs a proper nonzero level")
    kernel = enumerate_congruence_subgroup(rep, ring, ideal, bound)
    quot = Ring.mod(d)
    reduced = reduced_elementary_group(rep, quot, bound)
    gen_stack = _word_matrices(
        [
            x_word(root, t)
            for root in rep.system.roots
            for t in enumerate_elements(quot)
            if not t.is_zero
        ],
        rep,
        quot,
    )
    center = brute_center(reduced, gen_stack)
    dim = rep.block_dims[0]
    lifts = []
    for c in center:
        scalar = c[0, 0]
        if not np.array_equal(c % d, (scalar * np.eye(dim, dtype=np.int64)) % d):
            raise EnumerationError("non-scalar central element; lifting unsupported")
        lift = _scalar_lift(rep, n, d, int(scalar))
        if lift is not None:
            lifts.append(lift)
    if not lifts:
        raise EnumerationError("no central element lifted")
    sub = EnumeratedSubgroup(rep, ring, [])
    for lift in lifts:
        coset = (lift @ kernel.stack) % n
        keep = _central_mask(rep, coset, gen_stack, n, d)
        if not keep.all():
            raise EnumerationError("central lift produced non-central elements")
        sub._add_batch(coset, bound)
    if sub.cardinality != len(lifts) * kernel.cardinality:
        raise EnumerationError("full congruence cosets overlap unexpectedly")
    probe = np.stack(lifts) if lifts else kernel.stack[:1]
    if not sub.audit_direct(probe):
        raise EnumerationError("full congruence subgroup is not closed")
    return sub


def _scalar_lift(rep: Representation, n: int, d: int, scalar: int) -> np.ndarray | None:
    dim = rep.block_dims[0]
    for k in range(n // d):
        s = (scalar + k * d) % n
        cand = (s * np.eye(dim, dtype=np.int64)) % n
        if _group_equation_mask(rep, cand[None], n)[0]:
            return cand
    return None


def _central_mask(rep, stack: np.ndarray, gen_stack: np.ndarray, n: int, d: int) -> np.ndarray:
    reduced = stack % d
    mask = np.ones(len(stack), dtype=bool)
    for g in gen_stack:
        left = (reduced @ g) % d
        right = (g @ reduced) % d
        mask &= np.all(left == right, axis=(1, 2))
    return mask


# ---------------------------------------------------------------------------
# theorem verification


@dataclass
class TheoremReport:
    statement: str
    system_tag: str
    ring_spec: str
    ideal_i: str
    ideal_j: str
    verdict: bool | None
    cardinalities: dict = field(default_factory=dict)
    condition_star: dict = field(default_factory=dict)
    generator_hashes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "system": self.system_tag,
            "ring": self.ring_spec,
            "ideal_i": self.ideal_i,
            "ideal_j": self.ideal_j,
            "verdict": self.verdict,
            "cardinalities": self.cardinalities,
            "condition_star": self.condition_star,
            "generator_hashes": self.generator_hashes,
            "notes": self.notes,
            "error": self.error,
        }


def elementary_level_words(system_tag: str, ideal: Ideal) -> list[Word]:
    """x_a(t) for every root and nonzero ideal element, grid order."""
    system = get_system(system_tag)
    return [
        x_word(root, t)
        for root in system.roots
        for t in ideal.element_values()
        if not t.is_zero
    ]


def absolute_elementary_words(system_tag: str, ring: Ring) -> list[Word]:
    system = get_system(system_tag)
    return [
        x_word(root, t)
        for root in system.roots
        for t in enumerate_elements(ring)
        if not t.is_zero
    ]


def verify_theorem(
    statement: str,
    system_tag: str,
    ring: Ring,
    ideal_i: Ideal,
    ideal_j: Ideal,
    bound: int = DEFAULT_ELEMENT_BOUND,
    candidate_bound: int = DEFAULT_CANDIDATE_BOUND,
) -> TheoremReport:
    """Brute-force one of the subgroup statements T1, T2, T3, O1, O2."""
    report = TheoremReport(
        statement,
        system_tag,
        str(ring),
        str(ideal_i),
        str(ideal_j),
        verdict=None,
        condition_star=condition_star(system_tag, ring).to_json(),
    )
    try:
        _dispatch_theorem(statement, system_tag, ring, ideal_i, ideal_j, bound, candidate_bound, report)
    except (BoundExceeded, EnumerationError, UnsupportedType, InfiniteRing) as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        report.verdict = None
    return report


def _dispatch_theorem(statement, system_tag, ring, ideal_i, ideal_j, bound, candidate_bound, report):
    rep = get_representation(system_tag)
    e_i = elementary_level_words(system_tag, ideal_i)
    e_j = elementary_level_words(system_tag, ideal_j)
    if statement == "T1":
        lhs = commutator_subgroup(e_i, e_j, rep, ring, bound)
        rel_i = relative_generators(system_tag, ideal_i)
        rel_j = relative_generators(system_tag, ideal_j)
        rhs = commutator_subgroup(rel_i, rel_j, rep, ring, bound)
        report.cardinalities = {
            "[E(I),E(J)]": lhs.cardinality,
            "[E(R,I),E(R,J)]": rhs.cardinality,
        }
        report.generator_hashes = {
            "unrelativised": lhs.generators_hash(),
            "relative": rhs.generators_hash(),
        }
        report.verdict = lhs.same_elements(rhs)
        # side data, no verdict attached: how the relative elementary group
        # compares to the principal congruence subgroup at this level
        (d,) = ideal_i.gens
        dim = rep.block_dims[0]
        if d % ring.modulus and (ring.modulus // d) ** (dim * dim) <= candidate_bound:
            rel_sub = closure(rel_i, rep, ring, bound)
            kernel = enumerate_congruence_subgroup(rep, ring, ideal_i, candidate_bound)
            report.cardinalities["E(R,I)"] = rel_sub.cardinality
            report.cardinalities["G(R,I)"] = kernel.cardinality
            report.notes.append(
                "E(R,I) vs G(R,I) cardinalities reported as data; equality at "
                "this level is not asserted by any verified statement"
            )
    elif statement == "O1":
        lhs = commutator_subgroup(e_i, e_j, rep, ring, bound)
        ij = ideal_i.product(ideal_j)
        rel_ij = relative_generators(system_tag, ij)
        sub = closure(rel_ij, rep, ring, bound)
        report.cardinalities = {
            "E(R,IJ)": sub.cardinality,
            "[E(I),E(J)]": lhs.cardinality,
        }
        report.verdict = sub.is_subset_of(lhs)
    elif statement == "O2":
        lhs = commutator_subgroup(e_i, e_j, rep, ring, bound)
        conj = _word_matrices(absolute_elementary_words(system_tag, ring), rep, ring)
        n = ring.modulus
        conj_inv = _batch_inverse(conj, n)
        verdict = True
        for c, cinv in zip(conj, conj_inv):
            images = (c @ lhs.stack @ cinv) % n
            if not lhs.contains_batch(images).all():
                verdict = False
                break
        report.cardinalities = {"[E(I),E(J)]": lhs.cardinality, "conjugators": len(conj)}
        report.verdict = verdict
    elif statement == "T2":
        lhs = commutator_subgroup(e_i, e_j, rep, ring, bound)
        cfull = enumerate_full_congruence(rep, ring, ideal_j, candidate_bound)
        mixed = _commutator_with_set(e_i, cfull, rep, ring, bound)
        report.cardinalities = {
            "[E(I),E(J)]": lhs.cardinality,
            "C(R,J)": cfull.cardinality,
            "[E(I),C(R,J)]": mixed.cardinality,
        }
        report.verdict = mixed.same_elements(lhs)
    elif statement == "T3":
        e_sub = closure(e_i, rep, ring, bound)
        cfull = enumerate_full_congruence(rep, ring, ideal_i, candidate_bound)
        n = ring.modulus
        gen_stack = _word_matrices(e_i, rep, ring)
        c_inv = _batch_inverse(cfull.stack, n)
        verdict = True
        for g in gen_stack:
            images = (cfull.stack @ g @ c_inv) % n
            if not e_sub.contains_batch(images).all():
                verdict = False
                break
        report.cardinalities = {
            "E(I)": e_sub.cardinality,
            "C(R,I)": cfull.cardinality,
        }
        report.notes.append(
            "normality checked by conjugating each generator of E(I) by every "
            "element of C(R,I); C is inverse-closed, so this is equivalent to "
            "conjugating every element"
        )
        report.verdict = verdict
    else:
        raise EnumerationError(f"unknown statement {statement!r}")


def _commutator_with_set(
    gen_words: list[Word],
    big: EnumeratedSubgroup,
    rep: Representation,
    ring: Ring,
    bound: int,
) -> EnumeratedSubgroup:
    """[<gen_words>, big] with the enumerated set acting as its own
    generating list; seeds are all pairwise commutators."""
    n = ring.modulus
    gen_stack = _word_matrices(gen_words, rep, ring)
    gen_inv = _batch_inverse(gen_stack, n)
    big_inv = _batch_inverse(big.stack, n)
    sub = EnumeratedSubgroup(rep, ring, list(gen_words))
    seen = set()
    seeds = []
    for g, gi in zip(gen_stack, gen_inv):
        for start in range(0, big.cardinality, _CHUNK):
            b = big.stack[start : start + _CHUNK]
            bi = big_inv[start : start + _CHUNK]
            comm = (g @ b @ gi @ bi) % n
            for m in comm:
                key = m.tobytes()
                if key not in seen:
                    seen.add(key)
                    seeds.append(m)
    if seeds:
        sub.close_over(np.stack(seeds), bound)
    else:
        sub.close_over(np.eye(rep.block_dims[0], dtype=np.int64)[None], bound)
    # normal closure under both generating families
    sub.close_under_conjugation(gen_stack, bound)
    stable = False
    while not stable:
        stable = True
        gens = np.stack(sub._min_gens) if sub._min_gens else sub.stack[:1]
        for start in range(0, big.cardinality, _CHUNK):
            b = big.stack[start : start + _CHUNK]
            bi = big_inv[start : start + _CHUNK]
            for g in gens:
                images = (b @ g @ bi) % n
                missing = ~sub.contains_batch(images)
                if missing.any():
                    stable = False
                    sub.close_over(images[missing], bound)
    if not sub.audit_closure():
        raise EnumerationError("closure audit failed")
    return sub
