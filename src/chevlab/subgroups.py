"""Finite matrix subgroup enumeration and brute-force theorem checking.

Everything here runs over Z/n with the natural A2 (3x3) and C2 (4x4)
representations; G2 is deliberately unsupported at subgroup scale (the
smallest admissible congruence kernels are far beyond desk scale) and the
reports say so.  Elements are canonical residue matrices, products run
through batched numpy arithmetic, and closures through breadth-first search
over a minimal generating subset, so verdicts are deterministic and
independent of chunk sizes.  A closure multiplies by the generators alone,
never by their inverses: in a finite group g^-1 = g^(ord g - 1), so the
submonoid a set of invertible matrices spans is the subgroup it generates.
``close_over`` checks that each generator is invertible with ``_eliminate``,
Gauss-Jordan mod p^k with unit pivots only: joined over the p^k exactly
dividing n by the Chinese remainder theorem it gives every inverse, and over
F_p the rank that the generator certificate checks.

Membership and deduplication go through one code per matrix (``_codes``).
When n^(dim^2) <= 2^64, which holds for A2 up to n = 138 and for C2 up to
n = 16, the code is the uint64 mixed-radix number of the residues; past that
limit it is the row of residues cast to the narrowest unsigned dtype that
holds n - 1, viewed as one opaque byte string (16 bytes for C2 over Z/27).
Both kinds sort, so a set is its insertion-ordered stack plus the sorted
array of its codes: a lookup is one ``np.searchsorted`` and each batch of
new elements is merged in one step.

The statements are all about normal closures, and one engine serves them.
``closure`` and ``commutator_subgroup`` share one body, ``_normal_closure``:
close the seed under products, extend it until it is stable under the
conjugators, audit.  The only conjugation loop is
``EnumeratedSubgroup.missing_conjugates``, the distinct c g c^-1 outside the
set: the closure loops on it, and T3 and O2 are one call each (nothing
missing is the verdict).  It conjugates the generators only, since
c g^-1 c^-1 is the inverse of c g c^-1.  ``commutator_subgroup`` takes K as
generator words or as a stack of generating matrices.  T2 and T3 pass
C(R, J) and C(R, I) by a certified generating set and list none of their
elements: [H, K] is the normal closure in <H, K> of the commutators of
generators, and in a finite group c E c^-1 inside E for each generator c of
C puts C in the normaliser.

Principal congruence subgroups G(Z/n, (d)) and full congruence subgroups
C(Z/n, (d)), the preimage of the centre of G(Z/d), are taken prime by prime
along the filtration G(p^m) > G(p^(m+1)) at each p^k exactly dividing n, and
the primes are joined by the Chinese remainder theorem.  SL3 and Sp4 are
smooth over Z_p: every element of G(Z/p^m) lifts, and each layer
G(p^m)/G(p^(m+1)) is the Lie algebra mod p, of order p^(dim G) with
dim G = |roots| + 2.  So the orders have closed forms (``_congruence_order``).
When p^a exactly divides d, a >= 1, the factor at p is |base| p^(dim G (k - a)),
the base being 1 for G and for C the centre of G(Z/p^a), the scalars s
with s^3 = 1 (SL3) or s^2 = 1 (Sp4) mod p^a, counted by ``_centre_order``;
every central class lifts, so |C(R, I)| = |Z(G(Z/d))| |G(R, I)|.  When p does not
divide d it is |G(F_p)| p^(dim G (k - 1)), with |SL3(F_p)| =
p^3 (p^2 - 1)(p^3 - 1) and |Sp4(F_p)| = p^4 (p^2 - 1)(p^4 - 1) (Steinberg,
Lectures on Chevalley groups).  T1 reports |G(R, I)| and T2 and T3 report
|C(R, I)| from these forms.

The generating set (``_congruence_generators``) lists no layer, and each
generator is the value of a word in elementary letters, so it lies in G by
construction.  At each p^k exactly dividing n the coefficients are taken
mod p^k and 1 at the other primes.  The base at p is the x_a(1), which
generate G(F_p) = E(F_p), when p does not divide d; when p^a exactly
divides d, a >= 1, it is 1 for G, and for C one word
h_a1(s) h_a2(s^2) = s 1 mod p^a for each central scalar s, where
h_a(u) = w_a(u) w_a(-1) and w_a(u) = x_a(u) x_-a(-u^-1) x_a(u) (Steinberg,
Lectures on Chevalley groups).  Each layer m is x_a(p^m) for every root a
and h_a(1 + p^m) for each simple root a, dim G words whose images are the
root vectors and the simple coroots.  ``_certify_generators`` checks them
without listing anything: (1) each satisfies the group equations mod n, a
witness independent of the words; (2) each is 1 mod d, or for C a scalar
mod d; (3) at each p and each layer m, the layer-m generators are 1 mod p^m
there and 1 at the other primes, and their images (g - 1)/p^m mod p have
rank dim G over F_p, so they span the layer and, by descending induction on
m, generate the kernel at p; (4) for C, the base at each p^a exactly
dividing d holds |Z(G(Z/p^a))| matrices, distinct mod p^a and 1 at the
other primes; by checks 1 and 2 they are central scalars there, so they are
one lift of each.  With the base at the primes not dividing d, the
generators then generate the group whose order is the closed form.  A
failed check raises EnumerationError naming it, G or C, the ring and the
level.  The central scalars are constructed, not searched
(``_central_scalars``): 1 alone, the four s = +-1, q/2 +- 1 for Sp4 over
Z/q, q = 2^a with a >= 3, or else the powers of one s != 1 with s^e = 1 in
the cyclic group (Z/q)^*; check 4 counts them apart.

``enumerate_congruence_subgroup`` and ``enumerate_full_congruence`` list
every element, for the tests and for callers that want the sets; no
statement calls them.  A listed set S is the closure of the certified
generators, bounded by the closed-form order, so generators that reach past
the group fail at that size, not at the caller's bound.  S is audited before
it is cached: (1) every element satisfies the group equations, and S is
closed under its minimal generators (``audit_direct``); (2) each element is
1 mod d, or for C a scalar mod d; (3) |S| is the closed form.  A set stores
each matrix once, so checks 1-3 put |G(R, I)| distinct elements in G(R, I),
or |C(R, I)| in C(R, I), and S is the group.  A failed check raises
EnumerationError naming it, G or C, the ring and the level.

T1 also reports |E(R, I)| next to |G(R, I)|, as data no verdict depends on.
When every prime p of n divides d, I lies in the Jacobson radical, each
generator is 1 mod every p, and E(R, I) is a p-group at each p^k exactly
dividing n.  ``_generated_order`` counts it without listing an element, by
sifting along the filtration N_m = {g = 1 mod p^m}: each layer
N_m/N_(m+1) is F_p^(dim^2) through (g - 1)/p^m mod p, a matrix is cleared
against a semi-echelon list of elements at each layer, and one it does not
clear joins the list, its p-th power and its commutators with the earlier
elements sifted in turn.  By downward induction on m, the elements at layers
>= m generate a group of order p to their number: their p-th powers and
commutators lie in the group of the higher layers, so each quotient is
elementary abelian with independent images in the layer.  The orders at the
primes multiply (induced polycyclic sequences: Sims, Computation with Finitely
Presented Groups, ch. 9; Holt, Eick and O'Brien, Handbook of Computational
Group Theory, ch. 8).  When a prime of n does not divide d, ``closure`` lists
E(R, I).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .factorize import condition_star, relative_generators
from .reps import Representation, RepresentationError, get_representation
from .rings import Ideal, InfiniteRing, Ring, enumerate_elements
from .roots import Root, get_system
from .words import Word, evaluate_stack, word_to_sexpr, x_word


class EnumerationError(Exception):
    pass


class BoundExceeded(EnumerationError):
    def __init__(self, message: str, partial: int):
        super().__init__(message)
        self.partial = partial


class UnsupportedType(EnumerationError):
    pass


DEFAULT_ELEMENT_BOUND = 10**6
_CHUNK = 1 << 18
# images per batch of the conjugation loop: its product temporaries and
# membership keys stay below those of one product over a 10^5-element stack
_CONJ_CHUNK = 1 << 15


def _word_matrices(words: list[Word], rep: Representation, ring: Ring) -> np.ndarray:
    """Evaluate words to a deduplicated stack of matrices (identity if none)."""
    if not words:
        dim = rep.block_dims[0]
        return np.eye(dim, dtype=np.int64)[None, :, :]
    if len(rep.block_dims) != 1:
        raise RepresentationError(f"word matrices need a one-block representation, not {rep.name}")
    (mats,) = evaluate_stack(words, rep, ring)
    return _unique_rows(mats, ring.modulus)


def _codes(stack: np.ndarray, n: int) -> np.ndarray:
    """One sortable key per residue matrix mod n, equal exactly when the
    matrices are: the uint64 mixed-radix number of the residues when
    n^(dim^2) <= 2^64, else the residues in the narrowest unsigned dtype
    that holds n - 1, viewed as one byte string."""
    width = stack.shape[1] * stack.shape[2]
    flat = np.ascontiguousarray(stack, dtype=np.int64).reshape(len(stack), width)
    # negative entries wrap past n in the unsigned view
    if len(flat) and flat.view(np.uint64).max() >= n:
        raise EnumerationError(f"matrices are not canonical residues mod {n}")
    if n**width <= 1 << 64:
        weights = np.array([n**i for i in range(width)], dtype=np.uint64)
        return flat.view(np.uint64) @ weights
    narrow = flat.astype(np.min_scalar_type(n - 1))
    return narrow.view(np.dtype((np.void, narrow.itemsize * width))).ravel()


def _unique_rows(stack: np.ndarray, n: int) -> np.ndarray:
    """The distinct matrices of the stack, in order of first occurrence."""
    return stack if len(stack) < 2 else stack[_first_rows(stack, n)]


def _first_rows(stack: np.ndarray, n: int) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct matrix."""
    _, first = np.unique(_codes(stack, n), return_index=True)
    return np.sort(first)


def _batch_inverse(stack: np.ndarray, n: int, what: str = "inverse batch") -> np.ndarray:
    """Inverses mod n: ``_eliminate`` at each p^k exactly dividing n, joined
    by the Chinese remainder theorem; EnumerationError naming what when a
    matrix is not invertible."""
    out = np.zeros_like(stack)
    for p, k in _prime_powers(n):
        q = p**k
        _, inv, pivoted = _eliminate(stack, p, q)
        if not pivoted.all():
            raise EnumerationError(f"non-invertible matrix in {what}")
        # inv mod q and 0 mod n/q
        out = (out + inv * ((n // q) * pow(n // q, -1, q) % n)) % n
    return out


def _eliminate(mats: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of each r x c matrix mod q = p^k, each pivot
    the first unit at or below the next pivot row.  Returns (reduced,
    transform, pivoted) with transform @ mat = reduced mod q; pivoted[b, j]
    marks the columns of matrix b that hold a pivot.  A square matrix is
    invertible mod q exactly when all do, its inverse then the transform."""
    count, r, c = mats.shape
    rows = np.concatenate([mats % q, np.broadcast_to(np.eye(r, dtype=np.int64), (count, r, r))], axis=2)
    top = np.zeros(count, dtype=np.int64)
    pivoted = np.zeros((count, c), dtype=bool)
    for col in range(c):
        units = (rows[:, :, col] % p != 0) & (np.arange(r) >= top[:, None])
        sel = np.flatnonzero(units.any(axis=1))
        at, found, i = top[sel], units[sel].argmax(axis=1), np.arange(len(sel))
        block = rows[sel]
        pivot = block[i, found]
        block[i, found] = block[i, at]
        # u^-1 = u^(phi(q) - 1) for a unit u mod q
        unit, inv, e = pivot[:, col], np.ones(len(sel), dtype=np.int64), q // p * (p - 1) - 1
        while e:
            inv = inv * unit % q if e & 1 else inv
            unit, e = unit * unit % q, e >> 1
        pivot = pivot * inv[:, None] % q
        block = (block - block[:, :, col, None] * pivot[:, None, :]) % q
        block[i, at] = pivot
        rows[sel] = block
        pivoted[sel, col] = True
        top[sel] += 1
    return rows[:, :, :c], rows[:, :, c:], pivoted


class EnumeratedSubgroup:
    """A finite, fully closed set of canonical matrices with provenance."""

    def __init__(self, rep: Representation, ring: Ring, generators: list[Word]):
        self.rep = rep
        self.ring = ring
        self.generators = list(generators)
        dim = rep.block_dims[0]
        self._stack = np.zeros((0, dim, dim), dtype=np.int64)
        # the codes of the elements of _stack, ascending
        self._sorted = _codes(self._stack, ring.modulus)
        self._min_gens: list[np.ndarray] = []

    # -- storage -------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self._sorted)

    @property
    def stack(self) -> np.ndarray:
        return self._stack

    def _lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insertion points of the codes in the sorted set, and which of
        them are members.  Ascending codes make the search cache-friendly."""
        pos = np.searchsorted(self._sorted, codes)
        if not len(self._sorted):
            return pos, np.zeros(len(codes), dtype=bool)
        return pos, self._sorted[np.minimum(pos, len(self._sorted) - 1)] == codes

    def contains_array(self, arr: np.ndarray) -> bool:
        return bool(self._lookup(_codes(arr[None], self.ring.modulus))[1][0])

    def contains_batch(self, stack: np.ndarray) -> np.ndarray:
        codes = _codes(stack, self.ring.modulus)
        order = np.argsort(codes)
        found = np.empty(len(codes), dtype=bool)
        found[order] = self._lookup(codes[order])[1]
        return found

    def _add_batch(self, stack: np.ndarray, bound: int) -> np.ndarray:
        """Add the matrices not yet in the set, each once, in batch order;
        returns them."""
        codes, first = np.unique(_codes(stack, self.ring.modulus), return_index=True)
        pos, found = self._lookup(codes)
        fresh = ~found
        if not fresh.any():
            return stack[:0]
        size = self.cardinality + int(fresh.sum())
        if size > bound:
            raise BoundExceeded(f"closure exceeded the element bound {bound}", size)
        self._sorted = np.insert(self._sorted, pos[fresh], codes[fresh])
        rows = stack[np.sort(first[fresh])]
        self._stack = np.concatenate([self._stack, rows])
        return rows

    def _require_same_ring(self, other: "EnumeratedSubgroup") -> None:
        if (self.rep.name, self.ring) != (other.rep.name, other.ring):
            raise EnumerationError(
                f"cannot compare a subgroup of {self.rep.name} over {self.ring} "
                f"with one of {other.rep.name} over {other.ring}"
            )

    def same_elements(self, other: "EnumeratedSubgroup") -> bool:
        self._require_same_ring(other)
        return bool(np.array_equal(self._sorted, other._sorted))

    def is_subset_of(self, other: "EnumeratedSubgroup") -> bool:
        self._require_same_ring(other)
        return bool(other._lookup(self._sorted)[1].all())

    def _closed_under(self, gens) -> bool:
        """The identity is in, and every element times every one of the
        matrices stays in."""
        n = self.ring.modulus
        if not self.contains_array(np.eye(self.rep.block_dims[0], dtype=np.int64)):
            return False
        for g in gens:
            for start in range(0, len(self._stack), _CHUNK):
                prods = (self._stack[start : start + _CHUNK] @ g) % n
                if not self.contains_batch(prods).all():
                    return False
        return True

    def audit_closure(self) -> bool:
        """Full pass: every element times every minimal generator stays in,
        which puts the group they generate inside the set."""
        return self._closed_under(self._min_gens)

    def audit_direct(self) -> bool:
        """Audit of a listed congruence subgroup: every element satisfies the
        group equations, and the set passes ``audit_closure``.  True, or
        EnumerationError naming the check that failed."""
        n = self.ring.modulus
        for start in range(0, len(self._stack), _CHUNK):
            if not _group_equation_mask(self.rep, self._stack[start : start + _CHUNK], n).all():
                raise EnumerationError(f"group equations check failed (an element is not in {self.rep.name})")
        if not self.audit_closure():
            raise EnumerationError("closure check failed (1 or a product with a minimal generator is missing)")
        return True

    def generators_hash(self) -> str:
        payload = "\n".join(word_to_sexpr(w) for w in self.generators).encode()
        return hashlib.sha256(payload).hexdigest()

    # -- closure -------------------------------------------------------------

    def close_over(self, gen_stack: np.ndarray, bound: int) -> None:
        """Add generators one at a time, BFS-closing after each new one.

        Only right products with the generators themselves are formed, never
        with their inverses: in a finite group g^-1 = g^(ord g - 1), so the
        submonoid the generators span is the subgroup they generate.  Each
        generator must be invertible mod n, which is what makes it an
        element of finite order.  The set stays closed under all previously
        added generators, so each extension only needs to explore products
        involving the new one.
        """
        n = self.ring.modulus
        dim = self.rep.block_dims[0]
        self._add_batch(np.eye(dim, dtype=np.int64)[None], bound)
        gen_stack = gen_stack % n
        _batch_inverse(gen_stack, n, "generator batch")
        for g in gen_stack:
            if self.contains_array(g):
                continue
            self._min_gens.append(g)
            seed = [
                self._add_batch((self._stack[start : start + _CHUNK] @ g) % n, bound)
                for start in range(0, len(self._stack), _CHUNK)
            ]
            self._bfs(np.concatenate(seed), bound)

    def _bfs(self, frontier: np.ndarray, bound: int) -> None:
        n = self.ring.modulus
        while len(frontier):
            fresh = []
            for g in self._min_gens:
                for start in range(0, len(frontier), _CHUNK):
                    prods = (frontier[start : start + _CHUNK] @ g) % n
                    fresh.append(self._add_batch(prods, bound))
            frontier = np.concatenate(fresh)

    def missing_conjugates(
        self, conj: np.ndarray, gens: np.ndarray, conj_inv: np.ndarray | None = None
    ) -> np.ndarray:
        """The distinct c g c^-1 outside the set, for c in conj and g in gens.

        This is the one conjugation loop of the module.  Only c g c^-1 is
        formed: for a finite subgroup S, c S c^-1 inside S forces equality,
        so c^-1 S c = S follows and the inverse direction adds nothing.
        """
        n = self.ring.modulus
        if conj_inv is None:
            conj_inv = _batch_inverse(conj, n)
        dim = self.rep.block_dims[0]
        step = max(1, _CONJ_CHUNK // len(gens))
        outside = [np.zeros((0, dim, dim), dtype=np.int64)]
        for start in range(0, len(conj), step):
            c = conj[start : start + step, None]
            c_inv = conj_inv[start : start + step, None]
            images = (c @ gens[None] % n @ c_inv % n).reshape(-1, dim, dim)
            outside.append(_unique_rows(images[~self.contains_batch(images)], n))
        return _unique_rows(np.concatenate(outside), n)

    def close_under_conjugation(
        self, conj_stack: np.ndarray, bound: int, conj_inv: np.ndarray
    ) -> None:
        """Extend until stable under conjugation by the given matrices.

        Conjugates of generators already checked stay inside as the set
        grows, so each round conjugates only the generators added since; no
        inverse of a generator is conjugated, as c g^-1 c^-1 = (c g c^-1)^-1."""
        done = 0
        while done < len(self._min_gens):
            gens = np.stack(self._min_gens[done:])
            done = len(self._min_gens)
            missing = self.missing_conjugates(conj_stack, gens, conj_inv)
            if len(missing):
                self.close_over(missing, bound)

    def generator_stack(self) -> np.ndarray:
        """The minimal generators, or the identity for the trivial group."""
        return np.stack(self._min_gens) if self._min_gens else self._stack[:1]


# ---------------------------------------------------------------------------
# public constructors


def _normal_closure(
    rep: Representation,
    ring: Ring,
    words: list[Word],
    seed: np.ndarray,
    bound: int,
    conj: np.ndarray | None = None,
    conj_inv: np.ndarray | None = None,
) -> EnumeratedSubgroup:
    """Close the seed, make it stable under conjugation, audit the result."""
    sub = EnumeratedSubgroup(rep, ring, words)
    sub.close_over(seed, bound)
    if conj is not None:
        sub.close_under_conjugation(conj, bound, conj_inv)
    if not sub.audit_closure():
        raise EnumerationError("closure audit failed")
    return sub


def closure(
    gens: list[Word],
    rep: Representation,
    ring: Ring,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> EnumeratedSubgroup:
    """Subgroup generated by the words (BFS until fixpoint)."""
    _require_enumerable(rep, ring)
    return _normal_closure(rep, ring, gens, _word_matrices(gens, rep, ring), bound)


def commutator_subgroup(
    h_gens: list[Word],
    k: list[Word] | np.ndarray,
    rep: Representation,
    ring: Ring,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> EnumeratedSubgroup:
    """[H, K] as the normal closure in <H, K> of the commutators [h, k],
    h and k over the generators of H and K.  K is given by generator words,
    or as a stack of matrices that generate it (all its elements will do)."""
    _require_enumerable(rep, ring)
    n = ring.modulus
    words = list(h_gens)
    if isinstance(k, np.ndarray):
        k_stack = k
    else:
        k_stack = _word_matrices(k, rep, ring)
        words += list(k)
    h_stack = _word_matrices(h_gens, rep, ring)
    h_inv = _batch_inverse(h_stack, n)
    k_inv = _batch_inverse(k_stack, n)
    seeds = []
    for h, hi in zip(h_stack, h_inv):
        for start in range(0, len(k_stack), _CHUNK):
            kc, kc_inv = k_stack[start : start + _CHUNK], k_inv[start : start + _CHUNK]
            seeds.append(_unique_rows(h @ kc % n @ hi % n @ kc_inv % n, n))
    seed = _unique_rows(np.concatenate(seeds), n)
    conj, conj_inv = np.concatenate([h_stack, k_stack]), np.concatenate([h_inv, k_inv])
    return _normal_closure(rep, ring, words, seed, bound, conj, conj_inv)


def _require_enumerable(rep: Representation, ring: Ring) -> None:
    if rep.system.type_tag == "G2":
        raise UnsupportedType(
            "G2 is out of desk scale for subgroup enumeration: the smallest "
            "condition-(*)-compliant congruence kernel has about 3^14 "
            "elements of 21x21 matrices"
        )
    if ring.kind != "Zn":
        raise InfiniteRing("subgroup enumeration needs Z/n")
    dim = rep.block_dims[0]
    if rep.np_dtype(ring.modulus) is object:
        raise EnumerationError(
            f"{ring} is too large for int64 products of {dim}x{dim} matrices"
        )


# ---------------------------------------------------------------------------
# congruence subgroups: closed-form orders, certified generators, listing


# listed sets under (type, ring, ideal), with "C" appended for C(R, I)
_CONGRUENCE_CACHE: dict = {}


def full_congruence_generators(rep: Representation, ring: Ring, ideal: Ideal) -> tuple[int, np.ndarray]:
    """|C(R, I)| in closed form and a generating set of C(R, I), certified
    by the generator checks of the module docstring; no element of C is
    listed, so no size is refused.  Refused for the zero and unit ideals."""
    _require_enumerable(rep, ring)
    n, (d,) = ring.modulus, ideal.gens
    _require_proper_level(rep, ring, ideal)
    gens = _certify_generators(rep, n, d, True, _congruence_generators(rep, n, d, True))
    return _congruence_order(rep, n, d, True), gens


def enumerate_congruence_subgroup(
    rep: Representation,
    ring: Ring,
    ideal: Ideal,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> EnumeratedSubgroup:
    """The principal congruence subgroup G(R, I), every element listed: all
    matrices congruent to 1 mod the ideal that satisfy the group equations.
    The closure of the certified generators, audited before it is cached by
    the listing checks of the module docstring.  Refused when the
    closed-form order exceeds the bound."""
    return _congruence(rep, ring, ideal, bound, central=False)


def enumerate_full_congruence(
    rep: Representation,
    ring: Ring,
    ideal: Ideal,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> EnumeratedSubgroup:
    """The full congruence subgroup C(R, I), the preimage of the centre of
    G(R/I), every element listed.  Closed from the generators of G(R, I)
    and one lift of each central scalar of G(Z/p^a) at each p^a exactly
    dividing d; cached, bounded and audited like G(R, I).  Refused for the
    zero and unit ideals, and when the closed-form order exceeds the
    bound."""
    _require_enumerable(rep, ring)
    _require_proper_level(rep, ring, ideal)
    return _congruence(rep, ring, ideal, bound, central=True)


def _require_proper_level(rep: Representation, ring: Ring, ideal: Ideal) -> None:
    if ideal.gens[0] % ring.modulus == 0 or ideal.gens[0] == 1:
        raise EnumerationError(f"C({ring}, {ideal}) of {rep.name}: the level is not a proper nonzero ideal")


def _congruence(
    rep: Representation, ring: Ring, ideal: Ideal, bound: int, central: bool
) -> EnumeratedSubgroup:
    """G(R, I), or C(R, I) when central: from the cache, or closed from its
    certified generators, audited and cached.  The bound is checked against
    the closed form on every call, so a cached set is refused as a new one."""
    _require_enumerable(rep, ring)
    n, (d,) = ring.modulus, ideal.gens
    size = _congruence_order(rep, n, d, central)
    if size > bound:
        raise BoundExceeded(f"congruence subgroup has {size} elements (> {bound})", 0)
    cache_key = (rep.name, ring, ideal) + (("C",) if central else ())
    if cache_key in _CONGRUENCE_CACHE:
        return _CONGRUENCE_CACHE[cache_key]
    gens = _certify_generators(rep, n, d, central, _congruence_generators(rep, n, d, central))
    where = f"listed {'C' if central else 'G'}({ring}, {ideal}) of {rep.name}"
    # the audit of the module docstring; a closure past the closed form is
    # stopped there and fails check 3
    sub = EnumeratedSubgroup(rep, ring, [])
    try:
        sub.close_over(gens, size)
        sub.audit_direct()
    except BoundExceeded:
        raise EnumerationError(f"{where}: count check failed (more than {size} elements)") from None
    except EnumerationError as exc:
        raise EnumerationError(f"{where}: {exc}") from None
    # for the level, one element of each class mod d
    _check_level(where, "an element", sub.stack[_first_rows(sub.stack % d, d)], d, central)
    if sub.cardinality != size:
        raise EnumerationError(f"{where}: count check failed ({sub.cardinality}, not {size})")
    _CONGRUENCE_CACHE[cache_key] = sub
    return sub


def _group_order_mod_p(rep: Representation, p: int) -> int:
    """|G(F_p)| in closed form: p^3 (p^2 - 1)(p^3 - 1) for SL3 and
    p^4 (p^2 - 1)(p^4 - 1) for Sp4."""
    if rep.system.type_tag == "A2":
        return p**3 * (p**2 - 1) * (p**3 - 1)
    return p**4 * (p**2 - 1) * (p**4 - 1)


def _centre_order(rep: Representation, p: int, a: int) -> int:
    """|Z(G(Z/p^a))|, the number of s mod p^a with s^e = 1, where e = 3 for
    SL3 (det s1 = s^3) and e = 2 for Sp4 (s1 scales the form by s^2): it is
    gcd(e, |(Z/p^a)^*|), as (Z/p^a)^* is cyclic, except that (Z/2^a)^* for
    a >= 3 is C_2 x C_(2^(a-2))."""
    e = 3 if rep.system.type_tag == "A2" else 2
    if p == 2 and a >= 3:
        return math.gcd(e, 2) * math.gcd(e, 2 ** (a - 2))
    return math.gcd(e, p ** (a - 1) * (p - 1))


def _filtration(n: int, d: int) -> list[tuple[int, int, int]]:
    """(p, k, a) for each p^k exactly dividing n, where p^a, a <= k, is the
    largest power of p dividing d.  The layers at p run from max(a, 1) to k."""
    out = []
    for p, k in _prime_powers(n):
        a = 0
        while a < k and d % p ** (a + 1) == 0:
            a += 1
        out.append((p, k, a))
    return out


def _congruence_order(rep: Representation, n: int, d: int, central: bool) -> int:
    """|G(Z/n, (d))|, or |C(Z/n, (d))| when central, in closed form.

    At each p^k exactly dividing n the factor is |base| p^(dim G (k - level)):
    the base is {1}, or for C the centre of G(Z/p^a), at level a >= 1, and
    G(F_p) at level 1 when p does not divide d."""
    dim_g = len(rep.system.roots) + rep.system.rank
    size = 1
    for p, k, a in _filtration(n, d):
        if a:
            base = _centre_order(rep, p, a) if central else 1
        else:
            base = _group_order_mod_p(rep, p)
        size *= base * p ** (dim_g * (k - max(a, 1)))
    return size


def _congruence_generators(
    rep: Representation, n: int, d: int, central: bool
) -> list[tuple[int, int, np.ndarray]]:
    """A generating set of G(Z/n, (d)), or of C(Z/n, (d)) when central, as
    blocks (p, m, matrices mod n).  Each matrix is the value of a word in
    elementary letters, so it lies in the group by construction; at p^k
    exactly dividing n its coefficients are taken mod q = p^k and 1 mod n/q,
    through e_q = 1 mod q and 0 mod n/q, so it is 1 at the other primes.  No
    layer is listed.

    Block m = 0 at p is the base.  When p^a exactly divides d, a >= 1, it is
    the empty word for G, and for C the word h_a1(u1) h_a2(u2), u1 = s and
    u2 = s^2 mod q, for each central scalar s of G(Z/p^a): a1^v + 2 a2^v
    pairs to 1 mod e with every weight of the natural representation (1, 1
    and -2 for SL3, e = 3; +-1 for Sp4), so the word is s 1 mod p^a.  When p
    does not divide d it is the x_a(e_q), which generate G(F_p).  Block
    m >= max(a, 1) is x_a(p^m e_q) for every root a and h_a(1 + p^m e_q) for
    each simple root a: their images mod p^(m+1) are the root vectors and
    the two simple coroots, a basis of the Lie algebra mod p."""
    system = rep.system
    ring = Ring.mod(n)
    blocks = []
    for p, k, a in _filtration(n, d):
        q = p**k
        e_q = (n // q) * pow(n // q, -1, q) % n

        def at_p(u: int) -> int:
            # u mod q and 1 mod n/q
            return (u * e_q + 1 - e_q) % n

        if not a:
            base = [x_word(root, ring.element(e_q)) for root in system.roots]
        elif central:
            a1, a2 = system.simple_roots
            scalars = _central_scalars(rep, p, a)[:, 0, 0].tolist()
            base = [_h_word(a1, at_p(s), ring) * _h_word(a2, at_p(s * s), ring) for s in scalars]
        else:
            base = [Word(())]
        blocks.append((p, 0, evaluate_stack(base, rep, ring)[0]))
        for m in range(max(a, 1), k):
            t = ring.element(p**m * e_q)
            layer = [x_word(root, t) for root in system.roots]
            layer += [_h_word(root, at_p(1 + p**m), ring) for root in system.simple_roots]
            blocks.append((p, m, evaluate_stack(layer, rep, ring)[0]))
    return blocks


def _h_word(root: Root, u: int, ring: Ring) -> Word:
    """h_a(u) = w_a(u) w_a(-1), w_a(t) = x_a(t) x_-a(-t^-1) x_a(t), for a
    unit u of Z/n (Steinberg, Lectures on Chevalley groups, ch. 3); it acts
    on a weight lambda as u^<lambda, a^v>."""

    def w(t: int) -> Word:
        x = x_word(root, ring.element(t))
        return x * x_word(-root, ring.element(-pow(t, -1, ring.modulus))) * x

    return w(u) * w(-1)


def _check_level(where: str, what: str, mats: np.ndarray, d: int, central: bool) -> None:
    """EnumerationError unless every matrix is 1 mod d, or a scalar mod d
    when central."""
    scalars = (mats[:, :1, :1] if central else 1) * np.eye(mats.shape[-1], dtype=np.int64)
    if np.any(mats % d != scalars % d):
        kind = "scalar" if central else "1"
        raise EnumerationError(f"{where}: level check failed ({what} is not {kind} mod {d})")


def _certify_generators(rep: Representation, n: int, d: int, central: bool, blocks) -> np.ndarray:
    """The matrices of the blocks in order, identities dropped, once they
    pass the four generator checks of the module docstring; EnumerationError
    naming the check that fails.  The checks read the matrices alone, not
    the words they are values of, so the group equations of check 1 witness
    membership in G independently of the letters."""
    where = f"generators of {'C' if central else 'G'}(Z/{n}, ({d})) of {rep.name}"
    dim = rep.block_dims[0]
    dim_g = len(rep.system.roots) + rep.system.rank
    ident = np.eye(dim, dtype=np.int64)

    def block(p, m):
        return np.concatenate([ident[None][:0]] + [g for bp, bm, g in blocks if (bp, bm) == (p, m)])

    gens = np.concatenate([ident[None][:0]] + [g for _, _, g in blocks])
    if not _group_equation_mask(rep, gens, n).all():
        raise EnumerationError(f"{where}: group equations check failed (a generator is not in {rep.name})")
    _check_level(where, "a generator", gens, d, central)
    for p, k, a in _filtration(n, d):
        rest = n // p**k
        for m in range(max(a, 1), k):
            layer = block(p, m)
            # g - 1 is p^m times the image at p, and 0 at the other primes
            steps = (layer - ident) % n
            rank = 0
            if not np.any(steps % (rest * p**m)):
                images = (steps // (rest * p**m)) % p
                rank = int(_eliminate(images.reshape(1, len(layer), -1), p, p)[2].sum())
            if rank != dim_g:
                raise EnumerationError(
                    f"{where}: rank check failed (layer {m} at {p} spans {rank} dimensions, not {dim_g})"
                )
        if central and a:
            # scalars mod p^a by the level check, in G by the group equations
            base = block(p, 0)
            distinct = len(np.unique(base[:, 0, 0] % p**a))
            if np.any((base - ident) % rest) or not distinct == len(base) == _centre_order(rep, p, a):
                raise EnumerationError(
                    f"{where}: central lift check failed (not one lift of each central scalar mod {p**a})"
                )
    return gens[np.any(gens != ident, axis=(1, 2))]


def _central_scalars(rep: Representation, p: int, a: int) -> np.ndarray:
    """The centre of G(Z/q), q = p^a: the scalar matrices s 1 with s^e = 1
    mod q, ascending in s, built from their number ``_centre_order``.  One
    is 1 alone; four is Sp4 over Z/2^a, a >= 3, with s = +-1 and q/2 +- 1;
    otherwise the number is the prime e and (Z/q)^* is cyclic of order
    phi(q), so the powers of any b^(phi(q)/e) != 1 are the e-th roots of 1."""
    q = p**a
    count = _centre_order(rep, p, a)
    if count == 1:
        roots = [1]
    elif count == 4:
        roots = [1, q // 2 - 1, q // 2 + 1, q - 1]
    else:
        phi = q // p * (p - 1)
        s = next(t for t in (pow(b, phi // count, q) for b in range(2, q) if b % p) if t != 1)
        roots = sorted(pow(s, i, q) for i in range(count))
    return np.array(roots, dtype=np.int64)[:, None, None] * np.eye(rep.block_dims[0], dtype=np.int64)


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


def _det3(stack: np.ndarray, n: int) -> np.ndarray:
    """The determinant of each 3x3 matrix mod n by cofactors of the first
    row; each product is of two residues, so int64 holds it."""
    g = stack % n
    cof = [(g[:, 1, j] * g[:, 2, k] - g[:, 1, k] * g[:, 2, j]) % n for j, k in ((1, 2), (2, 0), (0, 1))]
    return sum(g[:, 0, i] * cof[i] % n for i in range(3)) % n


def _group_equation_mask(rep: Representation, cand: np.ndarray, n: int) -> np.ndarray:
    """Whether each matrix satisfies the defining equations of the group
    mod n: det g = 1 for A2, g^T Omega g = Omega for C2."""
    if rep.system.type_tag == "A2":
        return _det3(cand, n) == 1 % n
    form = np.array(rep.symplectic_form, dtype=np.int64)
    lhs = np.matmul(np.matmul(cand.transpose(0, 2, 1), form) % n, cand) % n
    return np.all(lhs == form % n, axis=(1, 2))


# ---------------------------------------------------------------------------
# orders of p-groups by sifting along the filtration


def _generated_order(mats: np.ndarray, n: int) -> int:
    """The order of the group the matrices generate mod n, each 1 mod every
    prime p of n; EnumerationError naming p for any other matrix.

    At each p^k exactly dividing n the group lies in N_1, N_m = {g = 1 mod
    p^m}.  Each layer N_m/N_(m+1), 1 <= m < k, is F_p^(dim^2) through
    g -> (g - 1)/p^m mod p, and [N_a, N_b] lies in N_(a+b), g^p in N_(m+1)
    for g in N_m.  Each layer keeps a semi-echelon list of sequence elements
    with pivot coordinate 1; ``_sift`` clears a matrix against them, and one
    it leaves off 1, scaled by a power prime to p, is a new element whose
    p-th power and commutators with every earlier element are sifted in turn.
    The order at p is p^r, r the length of the sequence.

    Proof, downward in m, that T_m, generated by the r_m elements at layers
    >= m, has order p^(r_m): each p-th power and commutator of an element at
    layer m sifted to 1, so it is a product of elements at layers above m.
    So T_(m+1) is normal in T_m, and T_m/T_(m+1) is spanned by the c elements
    at layer m, commuting and of order p: at most p^c.  Their images are
    independent and T_(m+1) lies in N_(m+1), so it is exactly p^c.  Each
    generator sifted to 1 or to a power of a sequence element, so T_1 is the
    group generated.  The orders at the primes multiply: a subgroup of a
    product of p-groups for distinct p is nilpotent, the product of its
    Sylow subgroups, and each maps onto its image mod p^k.
    """
    order = 1
    ident = np.eye(mats.shape[-1], dtype=np.int64)
    for p, k in _prime_powers(n):
        q = p**k
        pending = mats % q
        if np.any((pending - ident) % p):
            raise EnumerationError(f"generated order: a matrix is not 1 mod {p}")
        layers: list[list[tuple[np.ndarray, int]]] = [[] for _ in range(k)]
        sequence: list[tuple[np.ndarray, np.ndarray]] = []
        while True:
            pending, level = _sift(pending, layers, p, k)
            stuck = np.flatnonzero(level < k)
            if not len(stuck):
                break
            g, m = pending[stuck[0]], int(level[stuck[0]])
            image = _layer_image(g[None], p, m)[0]
            pivot = int(np.flatnonzero(image)[0])
            s = _power(g, pow(int(image[pivot]), -1, p), q)
            s_inv = _batch_inverse(s[None], q)[0]
            pushed = [_power(s, p, q)] + [s @ t % q @ s_inv % q @ t_inv % q for t, t_inv in sequence]
            layers[m].append((s_inv, pivot))
            sequence.append((s, s_inv))
            pending = np.concatenate([pending[stuck[1:]], np.stack(pushed)])
        order *= p ** len(sequence)
    return order


def _sift(stack: np.ndarray, layers, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix g of the stack, 1 mod p, sifted layer by layer: at each
    element b of layer m, g times b^-c, c the coordinate of g's image at b's
    pivot, until the first layer whose image stays nonzero.  Returns the
    residues and that layer, or k for a residue 1."""
    q = p**k
    level = np.full(len(stack), k)
    for m in range(1, k):
        live = level == k
        for b_inv, pivot in layers[m]:
            coord = np.where(live, _layer_image(stack, p, m)[:, pivot], 0)
            stack = stack @ _power(b_inv, coord, q) % q
        level[live & _layer_image(stack, p, m).any(axis=1)] = m
    return stack, level


def _layer_image(stack: np.ndarray, p: int, m: int) -> np.ndarray:
    """(g - 1)/p^m mod p, flattened, for each g of the stack 1 mod p^m."""
    ident = np.eye(stack.shape[-1], dtype=np.int64)
    return ((stack - ident) // p**m % p).reshape(len(stack), -1)


def _power(g: np.ndarray, e, q: int) -> np.ndarray:
    """g^e mod q by squaring, one power for each exponent of the array e."""
    e = np.asarray(e)
    out = np.broadcast_to(np.eye(g.shape[-1], dtype=np.int64), e.shape + g.shape[-2:])
    while e.any():
        out = np.where((e & 1)[..., None, None], out @ g % q, out)
        g, e = g @ g % q, e >> 1
    return out


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


def _root_words(system_tag: str, values) -> list[Word]:
    """x_a(t) for every root a and every nonzero value t, grid order."""
    values = [t for t in values if not t.is_zero]
    return [x_word(root, t) for root in get_system(system_tag).roots for t in values]


def elementary_level_words(system_tag: str, ideal: Ideal) -> list[Word]:
    """x_a(t) for every root and nonzero ideal element, grid order."""
    return _root_words(system_tag, ideal.element_values())


def absolute_elementary_words(system_tag: str, ring: Ring) -> list[Word]:
    return _root_words(system_tag, enumerate_elements(ring))


def verify_theorem(
    statement: str,
    system_tag: str,
    ring: Ring,
    ideal_i: Ideal,
    ideal_j: Ideal,
    bound: int = DEFAULT_ELEMENT_BOUND,
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
        _dispatch_theorem(statement, system_tag, ring, ideal_i, ideal_j, bound, report)
    except (EnumerationError, InfiniteRing) as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        report.verdict = None
    return report


def _dispatch_theorem(statement, system_tag, ring, ideal_i, ideal_j, bound, report):
    rep = get_representation(system_tag)
    # refuse a ring too large for int64 products, then more words than the
    # bound: the level words, and T1's relative, O1's of IJ or O2's absolute
    _require_enumerable(rep, ring)
    n, roots = ring.modulus, len(rep.system.roots)
    size_i, size_j = n // ideal_i.gens[0], n // ideal_j.gens[0]
    size_ij = n // ideal_i.product(ideal_j).gens[0]
    listed = {"T1": (size_i + size_j) * n, "O1": size_ij * n, "O2": n - 1}
    words = roots * (size_i - 1 + size_j - 1 + listed.get(statement, 0))
    if words > bound:
        message = f"{statement} for {system_tag} over {ring} lists {words} generator words"
        raise BoundExceeded(f"{message} (> {bound})", 0)
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
        # at a nonzero level whose closed-form |G(R,I)| is within the bound
        (d,) = ideal_i.gens
        g_size = _congruence_order(rep, n, d, central=False)
        if d % n and g_size <= bound:
            # inside the Jacobson radical E(R,I) is a p-group at each p,
            # counted by sifting; elsewhere it is listed
            if all(a for _, _, a in _filtration(n, d)):
                e_size = _generated_order(_word_matrices(rel_i, rep, ring), n)
            else:
                e_size = closure(rel_i, rep, ring, bound).cardinality
            report.cardinalities["E(R,I)"] = e_size
            report.cardinalities["G(R,I)"] = g_size
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
        outside = lhs.missing_conjugates(conj, lhs.generator_stack())
        report.cardinalities = {"[E(I),E(J)]": lhs.cardinality, "conjugators": len(conj)}
        report.verdict = not len(outside)
    elif statement == "T2":
        c_size, c_gens = full_congruence_generators(rep, ring, ideal_j)
        lhs = commutator_subgroup(e_i, e_j, rep, ring, bound)
        mixed = commutator_subgroup(e_i, c_gens, rep, ring, bound)
        report.cardinalities = {
            "[E(I),E(J)]": lhs.cardinality,
            "C(R,J)": c_size,
            "[E(I),C(R,J)]": mixed.cardinality,
        }
        report.verdict = mixed.same_elements(lhs)
    elif statement == "T3":
        c_size, c_gens = full_congruence_generators(rep, ring, ideal_i)
        e_sub = closure(e_i, rep, ring, bound)
        outside = e_sub.missing_conjugates(c_gens, _word_matrices(e_i, rep, ring))
        report.cardinalities = {
            "E(I)": e_sub.cardinality,
            "C(R,I)": c_size,
        }
        report.notes.append(
            "normality checked by conjugating each generator of E(I) by each "
            "generator of C(R,I); in a finite group this suffices, since "
            "c E(I) c^-1 inside E(I) forces equality for each generator c"
        )
        report.verdict = not len(outside)
    else:
        raise EnumerationError(f"unknown statement {statement!r}")
