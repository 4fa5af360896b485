"""Monomial basis: enumeration order, indexing, products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrack.basis import (MonomialBasis, ORDERING_TAG, enumerate_monomials,
                             get_basis, n_monomials)


def test_enumeration_two_vars_degree_two():
    assert enumerate_monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_enumeration_two_vars_degree_three():
    assert enumerate_monomials(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_enumeration_three_vars_degree_two():
    assert enumerate_monomials(3, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                                         (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_enumeration_degree_zero():
    assert enumerate_monomials(3, 0) == [(0, 0, 0)]


def test_block_sizes_match_combinatorics():
    for n in (1, 2, 3, 4, 5):
        for d in range(5):
            assert len(enumerate_monomials(n, d)) == n_monomials(n, d)


def test_ordering_tag():
    assert ORDERING_TAG == "graded-revlex-v1"


@given(n=st.integers(1, 5), order=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_index_exponent_bijection(n, order):
    basis = MonomialBasis(n, order)
    for j in range(basis.size):
        assert basis.index_of(basis.exponents_of(j)) == j


def test_degree_of_tracks_blocks():
    basis = MonomialBasis(2, 3)
    degrees = [basis.degree_of(j) for j in range(basis.size)]
    assert degrees == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]


def test_eval_flat_lists_all_monomials():
    basis = MonomialBasis(3, 2)
    x = np.array([0.001, 0.002, 0.5])
    flat = basis.eval_flat(x)
    expect = [np.prod(x ** np.array(basis.exponents_of(j)))
              for j in range(basis.size)]
    np.testing.assert_allclose(flat, expect, rtol=1e-15)
    # degree-2 block in the documented (3,2) ordering
    np.testing.assert_allclose(flat[4:], [1e-6, 2e-6, 5e-4, 4e-6, 1e-3, 0.25],
                               rtol=1e-12)


def test_multiply_is_truncated_polynomial_product(rng):
    basis = MonomialBasis(2, 2)
    a = rng.standard_normal(basis.size)
    b = rng.standard_normal(basis.size)
    c = basis.multiply(a, b)
    for x in rng.uniform(-0.1, 0.1, size=(20, 2)):
        flat = basis.eval_flat(x)
        full = (a @ flat) * (b @ flat)
        trunc = c @ flat
        # they differ only by the truncated (degree > 2) monomials
        assert abs(full - trunc) < 0.3 * np.max(np.abs(x)) ** 3 * 100


def test_multiply_exact_when_no_truncation(rng):
    basis = MonomialBasis(2, 4)
    a = np.zeros(basis.size)
    b = np.zeros(basis.size)
    a[basis.index_of((1, 0))] = 2.0  # 2 x1
    b[basis.index_of((0, 2))] = 3.0  # 3 x2^2
    c = basis.multiply(a, b)
    expect = np.zeros(basis.size)
    expect[basis.index_of((1, 2))] = 6.0
    np.testing.assert_array_equal(c, expect)


# -- the per-monomial code the growth table replaced, kept as references ----------

def _reference_eval_flat(basis, x):
    out = np.empty(basis.size)
    for d in range(basis.max_order + 1):
        off = basis.offsets[d]
        out[off:off + basis.block_size(d)] = np.prod(x[None, :] ** basis.blocks[d], axis=1)
    return out


def _one_point_eval_flat(basis, x):
    """The growth loop as it ran on one point only, before it took batches."""
    out = np.empty(basis.size)
    out[0] = 1.0
    if basis.max_order:
        out[1:basis.n_vars + 1] = x
    for d in range(2, basis.max_order + 1):
        s = slice(basis.offsets[d], basis.offsets[d] + basis.block_size(d))
        np.multiply(out[basis.parent[s]], x[basis.var[s]], out=out[s])
    return out


def _reference_multiply(basis, a, b):
    out = np.zeros(basis.size)
    nza, nzb = np.nonzero(a)[0], np.nonzero(b)[0]
    if len(nza) == 0 or len(nzb) == 0:
        return out
    idx = basis.product_table[np.ix_(nza, nzb)]
    vals = np.outer(a[nza], b[nzb])
    keep = idx >= 0
    np.add.at(out, idx[keep], vals[keep])
    return out


def test_growth_table_factors_every_monomial():
    basis = MonomialBasis(4, 3)
    for j in range(1, basis.size):
        e = np.array(basis.exponents_of(j))
        v = basis.var[j]
        assert e[v] > 0 and not e[v + 1:].any()
        e[v] -= 1
        assert basis.parent[j] == basis.index_of(e)


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4, 5, 6])
def test_eval_flat_matches_power_reference(rng, n_vars):
    for order in range(5):
        basis = MonomialBasis(n_vars, order)
        for _ in range(10):
            x = rng.uniform(-1, 1, n_vars) * 10.0 ** rng.uniform(-4, 1, n_vars)
            np.testing.assert_allclose(basis.eval_flat(x), _reference_eval_flat(basis, x),
                                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4, 5, 6])
def test_eval_flat_batch_columns_bit_equal_to_single_points(rng, n_vars):
    for order in range(5):
        basis = MonomialBasis(n_vars, order)
        xs = rng.uniform(-1, 1, (n_vars, 7)) * 10.0 ** rng.uniform(-4, 1, (n_vars, 7))
        batch = basis.eval_flat(xs)
        assert batch.shape == (basis.size, 7)
        for c in range(7):
            single = basis.eval_flat(xs[:, c])
            assert single.shape == (basis.size,)
            assert single.tobytes() == _one_point_eval_flat(basis, xs[:, c]).tobytes()
            assert batch[:, c].tobytes() == single.tobytes()
        assert basis.eval_flat(xs[:, :0]).shape == (basis.size, 0)


@pytest.mark.parametrize("n_vars, order", [(1, 4), (2, 3), (4, 3), (5, 2), (6, 2)])
def test_multiply_rows_bit_equal_to_per_row_calls(rng, n_vars, order):
    basis = MonomialBasis(n_vars, order)
    a = rng.standard_normal((2, 3, basis.size))
    b = rng.standard_normal((2, 3, basis.size))
    a[rng.random(a.shape) < 0.4] = 0.0  # sparse rows, as in composition
    b[0, 0] = 0.0
    rows = basis.multiply(a, b)
    assert rows.shape == a.shape
    per_row = np.array([basis.multiply(x, y) for x, y in zip(a.reshape(6, -1), b.reshape(6, -1))])
    assert rows.tobytes() == per_row.tobytes()
    ref = np.array([_reference_multiply(basis, x, y)
                    for x, y in zip(a.reshape(6, -1), b.reshape(6, -1))])
    assert per_row.tobytes() == ref.tobytes()


def test_get_basis_caches():
    assert get_basis(4, 2) is get_basis(4, 2)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        MonomialBasis(0, 2)
    with pytest.raises(ValueError):
        enumerate_monomials(2, -1)
