"""Taylor map algebra: evaluation, composition, Jacobians, batching."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrack.basis import MonomialBasis, get_basis, n_monomials
from polytrack.elements import KINDS, ElementSpec, drift_map, element_map, parametric_quad_map
from polytrack.polymap import (ShapeError, TaylorMap, compose, compose_chain,
                               evaluate, evaluate_batch, jacobian, kron_power)
from conftest import full_evaluate, random_map


# -- kron_power ------------------------------------------------------------------

def test_kron_power_two_vars():
    np.testing.assert_allclose(kron_power(np.array([2.0, 3.0]), 2), [4, 6, 9])


def test_kron_power_unit_vector_degree_three():
    np.testing.assert_allclose(kron_power(np.array([1.0, 0.0]), 3), [1, 0, 0, 0])


def test_kron_power_three_vars():
    x = np.array([0.001, 0.002, 0.5])
    np.testing.assert_allclose(kron_power(x, 2),
                               [1e-6, 2e-6, 5e-4, 4e-6, 1e-3, 0.25], rtol=1e-12)


def test_kron_power_degree_zero_is_one():
    np.testing.assert_array_equal(kron_power(np.array([5.0, -2.0]), 0), [1.0])


# -- construction / validation ----------------------------------------------------

def test_weight_shapes_validated():
    good = TaylorMap.zero_weights(3, 2, 2)
    TaylorMap(3, 2, 2, tuple(good))
    bad = [np.array(w) for w in good]
    bad[2] = bad[2][:, :-1]
    with pytest.raises(ShapeError):
        TaylorMap(3, 2, 2, tuple(bad))


def test_nonfinite_weights_rejected():
    w = TaylorMap.zero_weights(2, 2, 1)
    w[1] = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        TaylorMap(2, 2, 1, tuple(w))


def test_weights_are_immutable():
    m = drift_map(1.0, n=2, order=1)
    with pytest.raises(ValueError):
        m.weights[1][0, 0] = 7.0
    with pytest.raises(ValueError):
        m.flat_coefficients()[0, 1] = 7.0
    with pytest.raises(AttributeError):
        m.order = 2


@pytest.mark.parametrize("duplicate", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy,
                                       copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_copies_are_read_only_and_carry_no_cache(rng, duplicate):
    m = random_map(rng, 4, 4, order=2)
    m.weights, jacobian(m)  # fill both caches on the original
    again = duplicate(m)
    assert again is not m and type(again) is TaylorMap
    assert (again.n_in, again.n_out, again.order) == (m.n_in, m.n_out, m.order)
    assert again.flat_coefficients().tobytes() == m.flat_coefficients().tobytes()
    assert not again.flat_coefficients().flags.writeable
    assert "weights" not in vars(again) and "_jacobian" not in vars(again)
    with pytest.raises(ValueError):
        again.flat_coefficients()[0, 0] = 7.0
    with pytest.raises(AttributeError):
        again.order = 3


def test_flat_coefficients_roundtrip(rng):
    m = random_map(rng, 3, 2, order=2)
    again = TaylorMap.from_flat(m.flat_coefficients(), m.n_in, m.order)
    for a, b in zip(m.weights, again.weights):
        np.testing.assert_array_equal(a, b)


# -- evaluation -------------------------------------------------------------------

def test_drift_evaluation():
    m = drift_map(2.0, n=2, order=1)
    np.testing.assert_allclose(evaluate(m, [0.001, 0.0005]), [0.002, 0.0005])


def test_identity_evaluation(rng):
    m = TaylorMap.identity(4, 2)
    x = rng.standard_normal(4)
    np.testing.assert_array_equal(evaluate(m, x), x)


def test_parametric_quad_zero_strength_is_identity_row():
    m = parametric_quad_map(1.0, order=2, phase_dim=2)
    np.testing.assert_allclose(evaluate(m, [0.001, 0.0, 0.0]), [0.001, 0.0])


def test_evaluate_shape_error():
    m = drift_map(1.0, n=2, order=1)
    with pytest.raises(ShapeError):
        evaluate(m, [1.0, 2.0, 3.0])


def test_linearity_in_weights(rng):
    m = random_map(rng, 2, 2, order=2)
    x = rng.uniform(-0.1, 0.1, 2)
    base = evaluate(m, x)
    eps = 1e-3
    for d in range(3):
        for j in range(m.weights[d].shape[1]):
            w = [np.array(b) for b in m.weights]
            w[d][0, j] += eps
            bumped = evaluate(m.with_weights(w), x)
            mono = kron_power(x, d, 2)[j]
            assert abs((bumped - base)[0] - eps * mono) < 1e-15
            assert (bumped - base)[1] == 0.0


def _reference_evaluate(tmap, x0):
    """Per-degree evaluation with monomials from powers, as before the growth table."""
    y = tmap.weights[0][:, 0].copy()
    for d in range(1, tmap.order + 1):
        exps = get_basis(tmap.n_in, d).blocks[d]
        y += tmap.weights[d] @ np.prod(x0[None, :] ** exps, axis=1)
    return y


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n_in, n_out", [(1, 1), (2, 2), (4, 4), (5, 4), (6, 6)])
def test_evaluate_matches_reference(rng, n_in, n_out, order):
    m = random_map(rng, n_in, n_out, order=order)
    for _ in range(10):
        x = rng.uniform(-1e-2, 1e-2, n_in)
        ref = _reference_evaluate(m, x)
        assert np.max(np.abs(evaluate(m, x) - ref)) <= 1e-14 * np.max(np.abs(ref))


def _assert_matches_full(m, rng):
    for _ in range(10):
        x = rng.uniform(-1e-2, 1e-2, m.n_in)
        y, ref = evaluate(m, x), full_evaluate(m, x)
        assert np.max(np.abs(y - ref)) <= 1e-14 * np.max(np.abs(ref))


@given(seed=st.integers(0, 10_000), n_in=st.integers(1, 6), order=st.integers(0, 3),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_evaluate_runs_only_up_to_the_top_degree(seed, n_in, order, data):
    top = data.draw(st.integers(0, order))
    rng = np.random.default_rng(seed)
    flat = np.array(random_map(rng, n_in, order=order).flat_coefficients())
    flat[:, get_basis(n_in, top).size:] = 0.0  # trailing degrees zeroed
    m = TaylorMap.from_flat(flat, n_in, order)
    _assert_matches_full(m, rng)
    basis, coeffs = m._live
    assert basis is get_basis(n_in, top)
    assert coeffs.tobytes() == flat[:, :basis.size].tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_all_zero_map_evaluates_to_zero(rng, order):
    m = TaylorMap.from_flat(np.zeros((3, get_basis(4, order).size)), 4, order)
    assert m._live[0].max_order == 0
    np.testing.assert_array_equal(evaluate(m, rng.uniform(-1, 1, 4)), np.zeros(3))
    with pytest.raises(ShapeError):
        evaluate(m, np.zeros(3))


_SPECS = [ElementSpec("d", "drift", length=0.6), ElementSpec("q", "quadrupole", 0.5, k1=0.6),
          ElementSpec("kq", "quadrupole", 0.5, parametric=True),
          ElementSpec("b", "sbend", 1.0, angle=0.05), ElementSpec("s", "sextupole", 0.2, k2=3.0),
          ElementSpec("ch", "hcorrector", kick=2e-4), ElementSpec("cv", "vcorrector", kick=-1e-4),
          ElementSpec("m", "monitor"), ElementSpec("mk", "marker"),
          ElementSpec("qx", "quadrupole", 0.3, k1=-1.5, dx=1e-4, dy=-2e-4),
          ElementSpec("sx", "sextupole", 0.2, k2=-3.0, dx=2e-4)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_every_element_kind_matches_full_evaluation(rng, order):
    assert {s.kind for s in _SPECS} == set(KINDS)
    for spec in _SPECS:
        if spec.parametric and order < 2:
            continue
        m = element_map(spec, 4, order)
        _assert_matches_full(m, rng)
        top = max(d for d, w in enumerate(m.weights) if w.any())
        if spec.kind != "sextupole" and not spec.parametric:
            assert top == 1, spec.name  # a linear element is one affine step
        assert m._live[0].max_order == top, spec.name


@pytest.mark.parametrize("duplicate", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy,
                                       copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_copies_rebuild_a_read_only_live_pair(rng, duplicate):
    flat = np.array(random_map(rng, 4, 4, order=3).flat_coefficients())
    flat[:, get_basis(4, 1).size:] = 0.0
    m = TaylorMap.from_flat(flat, 4, 3)
    x = rng.uniform(-1e-2, 1e-2, 4)
    y = evaluate(m, x)  # fills the live pair on the original
    again = duplicate(m)
    assert "_live" not in vars(again)
    assert evaluate(again, x).tobytes() == y.tobytes()
    basis, coeffs = again._live
    assert basis is get_basis(4, 1) and coeffs is not m._live[1]
    assert not coeffs.flags.writeable
    with pytest.raises(ValueError):
        coeffs[0, 0] = 7.0


# -- batch evaluation -------------------------------------------------------------

def test_batch_repeats_single(rng):
    m = random_map(rng, 4, 4, order=2)
    x = rng.uniform(-0.01, 0.01, 4)
    out = evaluate_batch(m, np.tile(x, (3, 1)))
    for row in out:
        np.testing.assert_array_equal(row, out[0])
    np.testing.assert_allclose(out[0], evaluate(m, x), rtol=1e-14, atol=1e-18)


def test_batch_empty(rng):
    m = random_map(rng, 3, 3, order=2)
    out = evaluate_batch(m, np.zeros((0, 3)))
    assert out.shape == (0, 3)


def test_batch_matches_per_row(rng):
    m = random_map(rng, 4, 4, order=2, scale=0.3)
    xs = rng.uniform(-0.01, 0.01, size=(1000, 4))
    batch = evaluate_batch(m, xs)
    for i in range(0, 1000, 97):
        np.testing.assert_allclose(batch[i], evaluate(m, xs[i]),
                                   rtol=1e-14, atol=1e-20)


# -- composition ------------------------------------------------------------------

def test_drift_composition_is_exact():
    c = compose(drift_map(1.0, n=2, order=1), drift_map(2.0, n=2, order=1))
    np.testing.assert_allclose(c.weights[1], drift_map(3.0, n=2, order=1).weights[1],
                               atol=1e-15)


def test_identity_composition(rng):
    m = random_map(rng, 3, 3, order=2)
    left = compose(TaylorMap.identity(3, 2), m)
    right = compose(m, TaylorMap.identity(3, 2))
    for a, b, c in zip(m.weights, left.weights, right.weights):
        np.testing.assert_allclose(b, a, atol=1e-15)
        np.testing.assert_allclose(c, a, atol=1e-15)


def test_kick_then_drift_by_hand():
    # x' += a x^2 (thin kick), then drift L=1, at order 2
    a = -0.3
    kick = TaylorMap.zero_weights(2, 2, 2)
    kick[1] = np.eye(2)
    kick[2] = np.array([[0.0, 0.0, 0.0], [a, 0.0, 0.0]])
    kick_map = TaylorMap(2, 2, 2, tuple(kick))
    c = compose(kick_map, drift_map(1.0, n=2, order=2))
    # x = x0 + x0' + a x0^2 ; x' = x0' + a x0^2
    np.testing.assert_allclose(c.weights[1], [[1, 1], [0, 1]], atol=1e-15)
    np.testing.assert_allclose(c.weights[2], [[a, 0, 0], [a, 0, 0]], atol=1e-15)


def _origin_preserving(m):
    w = [np.array(b) for b in m.weights]
    w[0][:] = 0.0
    return m.with_weights(w)


def test_composition_associativity(rng):
    # associativity of truncated composition is exact for origin-preserving
    # maps; a constant part feeds truncated high-degree intermediate
    # monomials back into low degrees and breaks it
    for _ in range(5):
        a = _origin_preserving(random_map(rng, 2, 2, order=2))
        b = _origin_preserving(random_map(rng, 2, 2, order=2))
        c = _origin_preserving(random_map(rng, 2, 2, order=2))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        for x in rng.uniform(-0.1, 0.1, size=(10, 2)):
            np.testing.assert_allclose(evaluate(left, x), evaluate(right, x),
                                       atol=1e-12)


def test_composition_evaluation_consistency_scaling(rng):
    # discrepancy between compose-then-evaluate and evaluate-then-evaluate
    # is the truncated tail, O(|X|^{k+1}); halving the amplitude should
    # shrink it by at least 2^{k+1} * 0.8.
    k = 2
    a = random_map(rng, 2, 2, order=k)
    b = random_map(rng, 2, 2, order=k)
    c = compose(a, b)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)

    def gap(amp):
        x = amp * direction
        return np.linalg.norm(evaluate(c, x) - evaluate(b, evaluate(a, x)))

    g1, g2 = gap(0.1), gap(0.05)
    assert g1 > 0
    assert g1 / g2 >= 2 ** (k + 1) * 0.8


def test_compose_chain_matches_pairwise(rng):
    maps = [random_map(rng, 2, 2, order=2) for _ in range(4)]
    chained = compose_chain(maps)
    paired = maps[0]
    for m in maps[1:]:
        paired = compose(paired, m)
    for a, b in zip(chained.weights, paired.weights):
        np.testing.assert_allclose(a, b, atol=1e-13)


def _reference_compose(first, second):
    """One truncated product per monomial combination, as before the growth table."""
    k = first.order
    basis = get_basis(first.n_in, k)
    coords = first.flat_coefficients()
    polys = {(): np.eye(1, basis.size)[0]}
    result = np.zeros((second.n_out, basis.size))
    result[:, 0] = second.weights[0][:, 0]
    for d in range(1, k + 1):
        wd = second.weights[d]
        for j, combo in enumerate(itertools.combinations_with_replacement(range(first.n_out), d)):
            p = basis.multiply(coords[combo[0]], polys[combo[1:]])
            polys[combo] = p
            result += np.outer(wd[:, j], p)
    return result


@pytest.mark.parametrize("order", [1, 2, 3])
def test_compose_matches_reference_loop(rng, order):
    pairs = [(random_map(rng, n, n, order=order), random_map(rng, n, n, order=order))
             for n in (1, 2, 4, 6)]
    # n_in != n_mid: a 5-input map into a 4-input one, and a parameter
    # embedding (4 -> 5) into a parametric quadrupole (5 -> 4)
    pairs.append((random_map(rng, 5, 4, order=order), random_map(rng, 4, 4, order=order)))
    if order >= 2:
        embed = TaylorMap.zero_weights(4, 5, order)
        embed[0][4, 0] = 0.8
        embed[1][:4] = np.eye(4)
        pairs.append((TaylorMap(4, 5, order, tuple(embed)),
                      parametric_quad_map(0.5, order=order, phase_dim=4)))
    for first, second in pairs:
        ref = _reference_compose(first, second)
        got = compose(first, second).flat_coefficients()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _block_compose(first, second):
    """Composition as written before the flat layout: grown from `first.weights`,
    returned as blocks split from the product and rejoined by the block constructor."""
    k = first.order
    basis, mid = first.basis, second.basis
    p = np.zeros((mid.size, basis.size))
    p[0, 0] = 1.0
    if k:
        p[1:mid.n_vars + 1] = np.concatenate(first.weights, axis=1)
    for d in range(2, k + 1):
        s = slice(mid.offsets[d], mid.offsets[d] + mid.block_size(d))
        p[s] = basis.multiply(p[1 + mid.var[s]], p[mid.parent[s]])
    coeffs = np.concatenate(second.weights, axis=1) @ p
    return TaylorMap(first.n_in, second.n_out, k,
                     tuple(np.split(coeffs, basis.offsets[1:], axis=1)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_compose_bit_equal_to_block_reference(rng, order):
    embed = TaylorMap.zero_weights(4, 5, order)
    embed[0][4, 0] = 0.8
    embed[1][:4] = np.eye(4)
    pairs = [(random_map(rng, n, n, order=order), random_map(rng, n, n, order=order))
             for n in (1, 2, 4, 6)]
    pairs += [(random_map(rng, 5, 4, order=order), random_map(rng, 4, 4, order=order)),
              (TaylorMap(4, 5, order, tuple(embed)), random_map(rng, 5, 4, order=order))]
    for first, second in pairs:
        got, want = compose(first, second), _block_compose(first, second)
        assert got.flat_coefficients().tobytes() == want.flat_coefficients().tobytes()
        for a, b in zip(got.weights, want.weights):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_compose_into_a_map_of_lower_live_degree_bit_equal_to_block_reference(
        rng, monkeypatch, order):
    """Outer maps whose top degrees are zero (a constant, an affine map, ...) grow only the
    middle monomials they use; the result still has every bit of the full growth."""
    products = []
    original = MonomialBasis.multiply

    def counted(self, a, b):
        products.append(None)
        return original(self, a, b)

    for n in range(1, 7):
        for top in range(order):
            flat = np.array(random_map(rng, n, order=order).flat_coefficients())
            flat[:, get_basis(n, top).size:] = 0.0
            second = TaylorMap.from_flat(flat, n, order)
            assert second._live[0].max_order == top
            first = random_map(rng, n, order=order)
            want = _block_compose(first, second)
            with monkeypatch.context() as patch:
                patch.setattr(MonomialBasis, "multiply", counted)
                products.clear()
                got = compose(first, second)
            assert len(products) == max(top - 1, 0)  # one per grown degree >= 2
            assert got.flat_coefficients().tobytes() == want.flat_coefficients().tobytes()


def test_from_flat_neither_freezes_nor_aliases(rng):
    coeffs = rng.standard_normal((3, get_basis(2, 2).size))
    before = coeffs.copy()
    m = TaylorMap.from_flat(coeffs, 2, 2)
    assert coeffs.flags.writeable
    assert not np.shares_memory(coeffs, m.flat_coefficients())
    assert not m.flat_coefficients().flags.writeable
    assert all(not w.flags.writeable for w in m.weights)
    coeffs[0, 0] += 1.0  # the caller edits its array; the map keeps its own copy
    assert np.array_equal(m.flat_coefficients(), before)
    again = TaylorMap.from_flat(m.flat_coefficients(), 2, 2)
    assert not np.shares_memory(again.flat_coefficients(), m.flat_coefficients())


def test_from_flat_validates_shape_and_values():
    size = get_basis(2, 2).size
    with pytest.raises(ShapeError):
        TaylorMap.from_flat(np.zeros((2, size + 1)), 2, 2)
    with pytest.raises(ShapeError):
        TaylorMap.from_flat(np.zeros(size), 2, 2)
    bad = np.zeros((2, size))
    bad[1, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        TaylorMap.from_flat(bad, 2, 2)


@pytest.mark.parametrize("top", [1, 2], ids=["live-prefix", "full"])
def test_constant_column_update_matches_from_flat(rng, top):
    flat = np.array(random_map(rng, 5, 4, order=2).flat_coefficients())
    flat[:, get_basis(5, top).size:] = 0.0
    m = TaylorMap.from_flat(flat, 5, 2)
    x = rng.uniform(-1e-2, 1e-2, 5)
    evaluate(m, x), jacobian(m)  # fill the caches the update carries over
    w0 = rng.standard_normal(4)
    got = m.with_constant(w0)
    flat[:, 0] = w0
    want = TaylorMap.from_flat(flat, 5, 2)
    assert vars(got)["_jacobian"] is vars(m)["_jacobian"]
    assert got._live[0] is m._live[0] and not got._live[1].flags.writeable
    assert not got.flat_coefficients().flags.writeable
    assert got.flat_coefficients().tobytes() == want.flat_coefficients().tobytes()
    assert evaluate(got, x).tobytes() == evaluate(want, x).tobytes()
    assert jacobian(got).coeffs.tobytes() == jacobian(want).coeffs.tobytes()
    again = pickle.loads(pickle.dumps(got))
    assert "_jacobian" not in vars(again) and "_live" not in vars(again)
    assert again.flat_coefficients().tobytes() == want.flat_coefficients().tobytes()
    assert evaluate(again, x).tobytes() == evaluate(want, x).tobytes()
    assert jacobian(again).coeffs.tobytes() == jacobian(want).coeffs.tobytes()
    for bad in (np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ShapeError):
            m.with_constant(bad)
    bad = np.zeros(4)
    bad[2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        m.with_constant(bad)


def test_compose_dimension_mismatch(rng):
    with pytest.raises(ShapeError):
        compose(random_map(rng, 2, 3, order=2), random_map(rng, 2, 2, order=2))


# -- jacobian ---------------------------------------------------------------------

def test_jacobian_of_linear_map_is_w1(rng):
    w1 = rng.standard_normal((3, 3))
    m = TaylorMap.from_linear(w1, order=2)
    jac = jacobian(m)
    np.testing.assert_allclose(jac(rng.standard_normal(3)), w1, atol=1e-15)


def test_jacobian_of_square_output():
    w = TaylorMap.zero_weights(2, 1, 2)
    w[2] = np.array([[1.0, 0.0, 0.0]])  # y = x1^2
    m = TaylorMap(2, 1, 2, tuple(w))
    row = jacobian(m)(np.array([0.3, 0.7]))
    np.testing.assert_allclose(row, [[0.6, 0.0]], atol=1e-15)


def _reference_jacobian_coeffs(tmap, wrt=None):
    """Differentiate monomial by monomial, variable by variable."""
    n_cols = tmap.n_in if wrt is None else wrt
    k = tmap.order
    jbasis = get_basis(tmap.n_in, max(k - 1, 0))
    coeffs = np.zeros((tmap.n_out, n_cols, jbasis.size))
    src = get_basis(tmap.n_in, k)
    for d in range(1, k + 1):
        exps = src.blocks[d]
        wd = tmap.weights[d]
        for j in range(exps.shape[0]):
            e = exps[j]
            for v in range(n_cols):
                if e[v] == 0:
                    continue
                de = e.copy()
                de[v] -= 1
                coeffs[:, v, jbasis.index_of(de)] += e[v] * wd[:, j]
    return coeffs


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n_in", [1, 2, 3, 4, 5])
def test_jacobian_bit_equal_to_reference_loop(rng, n_in, order):
    m = random_map(rng, n_in, 3, order=order)
    for wrt in [None, *range(n_in)]:
        jac = jacobian(m, wrt=wrt)
        assert jac.basis is get_basis(n_in, order - 1)
        assert jac.coeffs.tobytes() == _reference_jacobian_coeffs(m, wrt).tobytes()


def test_jacobian_is_one_read_only_cache_per_map(rng):
    m = random_map(rng, 5, 4, order=3)
    full = jacobian(m).coeffs
    with pytest.raises(ValueError):
        full[0, 0, 0] = 7.0
    for wrt in range(6):
        part = jacobian(m, wrt=wrt).coeffs
        assert part.shape == (4, wrt, full.shape[2]) and np.shares_memory(part, full) == (wrt > 0)
        with pytest.raises(ValueError):
            part[...] = 0.0
    with pytest.raises(ShapeError):
        jacobian(m, wrt=6)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_jacobian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    m = random_map(rng, 3, 3, order=2, scale=0.5)
    x = rng.uniform(-0.1, 0.1, 3)
    jac = jacobian(m)(x)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (evaluate(m, x + e) - evaluate(m, x - e)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-9)


def test_jacobian_of_parametric_quad_restricted_to_phase(rng):
    m = parametric_quad_map(1.0, order=2, phase_dim=2)
    x = np.array([1e-3, 2e-4, 0.8])
    jac = jacobian(m)(x)[:, :2]
    h = 1e-6
    for j in range(2):
        e = np.zeros(3)
        e[j] = h
        fd = (evaluate(m, x + e) - evaluate(m, x - e)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], fd, rtol=1e-7, atol=1e-12)
