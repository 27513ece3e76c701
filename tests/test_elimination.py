"""The one elimination mod p^k of ``subgroups`` against the cofactor oracle.

Inverses are compared with the adjugate, ranks over F_p with the list-based
row reduction, and the SL3 determinant with the cofactor expansion, over
random moduli up to the largest one subgroup enumeration admits.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevlab.reps import get_representation
from chevlab.rings import Ring
from chevlab.subgroups import (
    EnumerationError,
    EnumeratedSubgroup,
    _batch_inverse,
    _det3,
    _eliminate,
    absolute_elementary_words,
)
from chevlab.words import evaluate_stack
from cofactor_oracle import batch_det, batch_inverse, solve_mod_p

C2 = get_representation("C2")
A2 = get_representation("A2")


def _largest_modulus(dim: int) -> int:
    """The largest n with int64 products of dim x dim residue matrices,
    the bound ``Representation.np_dtype`` and ``_require_enumerable`` use."""
    return math.isqrt(((1 << 63) - 1) // dim) + 1


N_MAX_4 = _largest_modulus(4)
N_MAX_3 = _largest_modulus(3)
MODULI = st.one_of(
    st.sampled_from([6, 12, 35]),
    st.sampled_from([2, 3, 5, 7, 97, 10**9 + 7]),
    st.sampled_from([4, 8, 9, 25, 27, 49, 2**30, 3**19]),
    st.integers(2, N_MAX_4),
    st.just(N_MAX_4),
)


def test_largest_modulus_is_the_int64_bound():
    assert C2.block_dims == (4,) and A2.block_dims == (3,)
    assert C2.np_dtype(N_MAX_4) is np.int64 and C2.np_dtype(N_MAX_4 + 1) is object
    assert A2.np_dtype(N_MAX_3) is np.int64 and A2.np_dtype(N_MAX_3 + 1) is object


@settings(max_examples=80, deadline=None)
@given(n=MODULI, dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_inverse_matches_adjugate(n, dim, seed):
    mats = np.random.default_rng(seed).integers(0, n, (8, dim, dim))
    units = np.array([math.gcd(int(d), n) == 1 for d in batch_det(mats, n)])
    assert np.array_equal(_batch_inverse(mats[units], n), batch_inverse(mats[units], n))
    for bad in mats[~units]:
        with pytest.raises(EnumerationError, match="non-invertible matrix in inverse batch"):
            _batch_inverse(bad[None], n)


@pytest.mark.parametrize("n", [8, 9, 35])
def test_inverse_of_g2_products(n):
    # products of six letters x_a(t) of G2 on both blocks, dims 7 and 14
    ring = Ring.mod(n)
    g2 = get_representation("G2")
    letters = evaluate_stack(absolute_elementary_words("G2", ring), g2, ring)
    picks = np.random.default_rng(n).integers(0, len(letters[0]), (100, 6))
    for block in letters:
        prods = block[picks[:, 0]]
        for k in range(1, 6):
            prods = prods @ block[picks[:, k]] % n
        inv = _batch_inverse(prods, n)
        eye = np.eye(block.shape[1], dtype=np.int64)
        assert np.all(prods @ inv % n == eye) and np.all(inv @ prods % n == eye)


def test_non_invertible_refused_with_what():
    # over Z/6 each is invertible at one prime and not at the other
    for diagonal in ((2, 1, 1), (3, 1, 1), (1, 5, 0)):
        stack = np.stack([np.eye(3, dtype=np.int64), np.diag(diagonal)])
        with pytest.raises(EnumerationError, match="non-invertible matrix in conjugator batch"):
            _batch_inverse(stack, 6, "conjugator batch")
        with pytest.raises(EnumerationError, match="non-invertible matrix in generator batch"):
            EnumeratedSubgroup(A2, Ring.mod(6), []).close_over(stack, bound=10**6)


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    r=st.integers(1, 8),
    c=st.integers(1, 10),
    rank=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_eliminate_rank_matches_row_reduction(p, r, c, rank, seed):
    # the rank over F_p that the generator certificate's rank check reads;
    # at most min(r, c) - 1, so every matrix is rank-deficient
    rank = min(rank, r - 1, c - 1)
    rng = np.random.default_rng(seed)
    lin = rng.integers(0, p, (r, rank)) @ rng.integers(0, p, (rank, c)) % p
    basis = solve_mod_p(lin, p)
    assert int(_eliminate(lin[None], p, p)[2].sum()) == c - len(basis)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(1, 4),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_eliminate_transform_reduces(p, k, shape, seed):
    q = p**k
    mats = np.random.default_rng(seed).integers(0, q, (5, *shape))
    reduced, transform, pivoted = _eliminate(mats, p, q)
    assert np.array_equal(transform @ mats % q, reduced)
    for red, cols in zip(reduced, pivoted):
        # each pivot column is a unit vector, the pivots fill the top rows
        assert np.array_equal(red[:, cols], np.eye(*red.shape, dtype=np.int64)[:, : cols.sum()])
    # the transform is invertible mod q
    assert _eliminate(transform, p, q)[2].all()


@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(st.integers(2, 100), st.integers(2, N_MAX_3), st.just(N_MAX_3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_det3_matches_cofactor_expansion(n, seed):
    mats = np.random.default_rng(seed).integers(0, n, (16, 3, 3))
    assert np.array_equal(_det3(mats, n), batch_det(mats, n))
