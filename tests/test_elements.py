"""Element map construction: closed forms, ODE integration, misalignment."""

import numpy as np
import pytest

from polytrack.basis import get_basis
from polytrack.elements import (DivergenceError, ElementError, ElementSpec, OdeRhs,
                                _plane_indices, _quad_blocks, apply_misalignment,
                                corrector_map, drift_map, element_map, ode_to_map,
                                parametric_quad_map, quad_map, sbend_map, sextupole_kick,
                                sextupole_map, shift_map)
from polytrack.polymap import TaylorMap, compose, evaluate
from polytrack.symplectic import symplectic_penalty


# -- drift -------------------------------------------------------------------

def test_drift_blocks():
    m = drift_map(2.0, n=2, order=2)
    np.testing.assert_array_equal(m.weights[1], [[1.0, 2.0], [0.0, 1.0]])
    assert np.all(m.weights[0] == 0) and np.all(m.weights[2] == 0)


def test_drift_zero_length_is_identity(rng):
    m = drift_map(0.0, n=4, order=2)
    x = rng.standard_normal(4)
    np.testing.assert_array_equal(evaluate(m, x), x)


def test_drift_group_property():
    c = compose(drift_map(1.0, n=4, order=2), drift_map(1.0, n=4, order=2))
    np.testing.assert_allclose(c.weights[1], drift_map(2.0, n=4, order=2).weights[1],
                               atol=1e-15)


def test_drift_negative_length_rejected():
    with pytest.raises(ElementError):
        drift_map(-1.0, n=2, order=1)


# -- quadrupole --------------------------------------------------------------

def test_quad_focusing_matrix():
    m = quad_map(1.0, 1.0, n=2, order=1)
    expect = [[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]]
    np.testing.assert_allclose(m.weights[1], expect, rtol=1e-15)


def test_quad_defocusing_plane_is_hyperbolic():
    m = quad_map(1.0, 1.0, n=4, order=1)
    y_block = m.weights[1][2:, 2:]
    np.testing.assert_allclose(y_block, [[np.cosh(1.0), np.sinh(1.0)],
                                         [np.sinh(1.0), np.cosh(1.0)]], rtol=1e-15)


def test_quad_zero_strength_degrades_to_drift():
    np.testing.assert_allclose(quad_map(1.3, 0.0, n=4, order=2).weights[1],
                               drift_map(1.3, n=4, order=2).weights[1], atol=1e-15)


def test_quad_unit_determinant():
    m = quad_map(0.5, 2.3, n=4, order=1).weights[1]
    assert abs(np.linalg.det(m[:2, :2]) - 1) <= 1e-14
    assert abs(np.linalg.det(m[2:, 2:]) - 1) <= 1e-14


# -- bend --------------------------------------------------------------------

def test_sbend_small_angle_limit():
    m = sbend_map(1.5, 1e-9, n=4, order=2)
    np.testing.assert_allclose(m.weights[1], drift_map(1.5, n=4, order=2).weights[1],
                               atol=1e-9)


def test_sbend_is_weak_focusing_quad():
    m = sbend_map(2.0, 0.1, n=4, order=2)
    q = quad_map(2.0, 0.05 ** 2, n=4, order=2)
    np.testing.assert_allclose(m.weights[1][:2, :2], q.weights[1][:2, :2], atol=1e-14)
    np.testing.assert_allclose(m.weights[1][2:, 2:], drift_map(2.0, n=4, order=2).weights[1][2:, 2:],
                               atol=1e-15)


def test_sbend_unit_determinants():
    m = sbend_map(2.0, 0.1, n=4, order=1).weights[1]
    assert abs(np.linalg.det(m[:2, :2]) - 1) <= 1e-14
    assert abs(np.linalg.det(m[2:, 2:]) - 1) <= 1e-14


# -- corrector ---------------------------------------------------------------

def test_corrector_kicks_origin():
    m = corrector_map(kick_x=1e-4, n=4, order=2)
    np.testing.assert_allclose(evaluate(m, np.zeros(4)), [0, 1e-4, 0, 0], atol=1e-18)


def test_zero_corrector_is_identity(rng):
    m = corrector_map(n=4, order=2)
    x = rng.standard_normal(4)
    np.testing.assert_array_equal(evaluate(m, x), x)


def test_correctors_compose_to_summed_kick():
    c = compose(corrector_map(kick_x=1e-4, n=4, order=2),
                corrector_map(kick_x=2e-4, kick_y=-1e-4, n=4, order=2))
    np.testing.assert_allclose(evaluate(c, np.zeros(4)), [0, 3e-4, 0, -1e-4],
                               atol=1e-18)


# -- sextupole ---------------------------------------------------------------

def test_sextupole_zero_strength_is_drift():
    m = sextupole_map(0.4, 0.0, n=4, order=2)
    np.testing.assert_allclose(m.weights[1], drift_map(0.4, n=4, order=2).weights[1],
                               atol=1e-15)
    assert np.max(np.abs(m.weights[2])) == 0


def test_sextupole_single_slice_kick():
    # drift(L/2) . kick . drift(L/2) with the kick at x=1e-2:
    # the angle change is -0.5 k2 L x^2 evaluated at the kick point
    L, k2 = 0.1, 10.0
    m = sextupole_map(L, k2, n=4, order=2, slices=1)
    out = evaluate(m, [1e-2, 0, 0, 0])
    kick = -0.5 * k2 * L * 1e-4  # x at the kick equals 1e-2 (no slope)
    assert abs(out[1] - kick) < 1e-12
    assert abs(out[0] - (1e-2 + kick * L / 2)) < 1e-12


def test_sextupole_couples_planes():
    m = sextupole_map(0.1, 10.0, n=4, order=2, slices=1)
    out = evaluate(m, [1e-2, 0, 1e-2, 0])
    assert out[3] > 0  # y' kick = k2 l x y > 0


def test_sextupole_requires_four_dimensions():
    with pytest.raises(ElementError):
        sextupole_map(0.1, 1.0, n=2, order=2)


def sextupole_rhs(k2: float) -> OdeRhs:
    """x'' = -0.5 k2 (x^2 - y^2), y'' = k2 x y as a degree-2 polynomial RHS."""
    p0 = np.zeros((4, 1))
    p1 = np.array([[0.0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    p2 = np.zeros((4, 10))
    # degree-2 monomials of (x, x', y, y') in basis order:
    # x2, xx', xy, xy', x'2, x'y, x'y', y2, yy', y'2
    p2[1, 0] = -0.5 * k2
    p2[1, 7] = +0.5 * k2
    p2[3, 2] = k2
    return OdeRhs(4, 2, [p0, p1, p2])


def test_sextupole_slices_converge_to_ode():
    # the split-step construction converges quadratically in the slice count
    # toward the integrated weight ODE; 2048 slices reach 1e-8
    m_ode = ode_to_map(sextupole_rhs(5.0), 0.3, order=2, rk4_steps=256)

    def err(slices):
        m = sextupole_map(0.3, 5.0, n=4, order=2, slices=slices)
        return max(np.max(np.abs(a - b)) for a, b in zip(m.weights, m_ode.weights))

    assert err(2048) <= 1e-8
    ratio = err(64) / err(128)
    assert 3.0 <= ratio <= 5.0  # second-order splitting


# -- parametric quadrupole -----------------------------------------------------

def test_parametric_quad_weights_L1():
    m = parametric_quad_map(1.0, order=2, phase_dim=2)
    np.testing.assert_allclose(m.weights[1], [[1, 1, 0], [0, 1, 0]], atol=1e-15)
    # second row: x*k -> -L, x'*k -> -L^2/2 in the (x,x',k) degree-2 ordering
    np.testing.assert_allclose(m.weights[2][1], [0, 0, -1.0, 0, -0.5, 0], atol=1e-15)
    # first row: x*k -> -L^2/2, x'*k -> -L^3/6 (analytic value)
    np.testing.assert_allclose(m.weights[2][0], [0, 0, -0.5, 0, -1.0 / 6, 0],
                               atol=1e-15)


def test_parametric_quad_compat_flag_zeroes_cubic_term():
    m = parametric_quad_map(1.0, order=2, phase_dim=2, paper_compat=True)
    np.testing.assert_allclose(m.weights[2][0], [0, 0, -0.5, 0, 0.0, 0], atol=1e-15)


def test_parametric_quad_thin_kick_row():
    out = evaluate(parametric_quad_map(1.0, order=2, phase_dim=2), [1e-3, 0.0, 2.0])
    assert abs(out[1] - (-2e-3)) < 1e-12  # x' = -L k x


def test_parametric_quad_matches_closed_form_at_small_strength():
    m = parametric_quad_map(0.7, order=2, phase_dim=2)
    q = quad_map(0.7, 0.01, n=2, order=2)
    for x in ([1e-3, 0.0], [0.0, 1e-3], [5e-4, -5e-4]):
        para = evaluate(m, [*x, 0.01])
        exact = evaluate(q, x)
        assert np.max(np.abs(para - exact)) <= 1e-8


def test_parametric_quad_four_dimensional():
    m = parametric_quad_map(1.0, order=2, phase_dim=4)
    assert m.n_in == 5 and m.n_out == 4
    out = evaluate(m, [1e-3, 0, 2e-3, 0, 2.0])
    assert abs(out[1] - (-2e-3)) < 1e-12  # focusing in x
    assert abs(out[3] - (+4e-3)) < 1e-12  # defocusing in y


def test_parametric_quad_requires_order_two():
    with pytest.raises(ElementError):
        parametric_quad_map(1.0, order=1, phase_dim=2)


# -- ode_to_map ----------------------------------------------------------------

def drift_rhs() -> OdeRhs:
    p0 = np.zeros((2, 1))
    p1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    return OdeRhs(2, 1, [p0, p1])


def quad_rhs(k1: float) -> OdeRhs:
    p0 = np.zeros((2, 1))
    p1 = np.array([[0.0, 1.0], [-k1, 0.0]])
    return OdeRhs(2, 1, [p0, p1])


def test_ode_drift_exact():
    m = ode_to_map(drift_rhs(), 2.0, order=2, rk4_steps=1)
    np.testing.assert_allclose(m.weights[1], drift_map(2.0, n=2, order=2).weights[1],
                               atol=1e-14)


def test_ode_quad_matches_closed_form():
    m = ode_to_map(quad_rhs(1.0), 1.0, order=2, rk4_steps=100)
    exact = quad_map(1.0, 1.0, n=2, order=2)
    assert np.max(np.abs(m.weights[1] - exact.weights[1])) <= 1e-10


def test_ode_rk4_convergence_order():
    exact = quad_map(1.0, 1.0, n=2, order=2).weights[1]

    def err(steps):
        m = ode_to_map(quad_rhs(1.0), 1.0, order=2, rk4_steps=steps)
        return np.max(np.abs(m.weights[1] - exact))

    ratio = err(8) / err(16)
    assert ratio >= 12.0
    assert abs(ratio - 16.0) < 4.0  # consistent with a 4th-order scheme


def test_ode_step_validation():
    with pytest.raises(ElementError):
        ode_to_map(drift_rhs(), 1.0, order=2, rk4_steps=0)


def test_ode_divergence_names_step():
    # dx/ds = 1 + x^2 blows up past s = pi/2
    p0 = np.array([[1.0]])
    p1 = np.array([[0.0]])
    p2 = np.array([[1.0]])
    rhs = OdeRhs(1, 2, [p0, p1, p2])
    with pytest.raises(DivergenceError, match="step"):
        ode_to_map(rhs, 100.0, order=2, rk4_steps=50)


# -- misalignment ----------------------------------------------------------------

def test_misaligned_drift_is_drift(rng):
    m = apply_misalignment(drift_map(1.0, n=4, order=2), dx=1e-3, dy=-2e-3)
    x = 1e-3 * rng.standard_normal(4)
    np.testing.assert_allclose(evaluate(m, x), evaluate(drift_map(1.0, n=4, order=2), x),
                               atol=1e-15)


def test_misaligned_quad_orbit_kick():
    # X_out = M (X - delta) + delta for a displaced linear element
    dx = 1e-4
    q = quad_map(1.0, 1.0, n=4, order=2)
    m = apply_misalignment(q, dx=dx)
    out = evaluate(m, np.zeros(4))
    delta = np.array([dx, 0, 0, 0])
    expect = q.weights[1] @ (-delta) + delta
    np.testing.assert_allclose(out, expect, atol=1e-16)
    assert abs(out[1] - np.sin(1.0) * dx) < 1e-12


def test_zero_misalignment_keeps_weights():
    q = quad_map(1.0, 1.0, n=4, order=2)
    m = apply_misalignment(q, 0.0, 0.0)
    for a, b in zip(m.weights, q.weights):
        np.testing.assert_allclose(a, b, atol=1e-16)


# -- element_map dispatcher / spec validation ----------------------------------

def test_element_map_all_kinds_are_near_symplectic():
    specs = [
        ElementSpec("d", "drift", length=1.0),
        ElementSpec("q", "quadrupole", length=0.5, k1=1.2),
        ElementSpec("b", "sbend", length=1.0, angle=0.1),
        ElementSpec("c", "hcorrector", kick=1e-4),
        ElementSpec("m", "monitor"),
    ]
    for spec in specs:
        assert symplectic_penalty(element_map(spec, n=4, order=2)) <= 1e-20


def test_spec_validation():
    with pytest.raises(ElementError):
        ElementSpec("q", "quadrupole", length=-1.0, k1=1.0).validate()
    with pytest.raises(ElementError):
        ElementSpec("m", "monitor", length=1.0).validate()
    with pytest.raises(ElementError):
        ElementSpec("x", "wiggler").validate()


# -- block-wise references -------------------------------------------------------
# Element builders as they were written before the flat layout: one weight
# block per degree, built through the block constructor.

def _ref_embed_blocks(n, order, blocks):
    w = TaylorMap.zero_weights(n, n, order)
    w1 = np.eye(n)
    for (i, j), b in zip(_plane_indices(n), blocks):
        w1[i:j + 1, i:j + 1] = b
    w[1] = w1
    return TaylorMap(n, n, order, tuple(w))


def _ref_quad(length, k1, n, order):
    if k1 == 0 or length == 0:
        return _ref_embed_blocks(n, order, [np.array([[1.0, length], [0.0, 1.0]])] * (n // 2))
    f, d = _quad_blocks(length, abs(k1))
    return _ref_embed_blocks(n, order, ([f, d] if k1 > 0 else [d, f])[:n // 2])


def _ref_corrector(kick_x, kick_y, n, order):
    m = TaylorMap.identity(n, order)
    w = [np.array(b) for b in m.weights]
    w[0][1, 0] = kick_x
    if n == 4:
        w[0][3, 0] = kick_y
    return m.with_weights(w)


def _ref_sextupole_kick(k2l, n, order):
    m = TaylorMap.identity(n, order)
    w = [np.array(b) for b in m.weights]
    b2 = get_basis(n, order).blocks[2]

    def col(exponents):
        return int(np.flatnonzero((b2 == np.array(exponents)).all(axis=1))[0])

    w[2][1, col((2, 0, 0, 0))] = -0.5 * k2l
    w[2][1, col((0, 0, 2, 0))] = +0.5 * k2l
    w[2][3, col((1, 0, 1, 0))] = k2l
    return m.with_weights(w)


def _ref_parametric_quad(L, order, phase_dim, paper_compat):
    n_in = phase_dim + 1
    w = TaylorMap.zero_weights(n_in, phase_dim, order)
    w[1] = np.hstack([drift_map(L, phase_dim, 1).weights[1], np.zeros((phase_dim, 1))])
    b2 = get_basis(n_in, order).blocks[2]

    def col(exponents):
        return int(np.flatnonzero((b2 == np.array(exponents)).all(axis=1))[0])

    def times_k(var):
        e = [0] * n_in
        e[var] = 1
        e[-1] += 1
        return col(tuple(e))

    xpk_coeff = 0.0 if paper_compat else L ** 3 / 6.0
    w[2][0, times_k(0)] = -0.5 * L ** 2
    w[2][0, times_k(1)] = -xpk_coeff
    w[2][1, times_k(0)] = -L
    w[2][1, times_k(1)] = -0.5 * L ** 2
    if phase_dim == 4:
        w[2][2, times_k(2)] = +0.5 * L ** 2
        w[2][2, times_k(3)] = +xpk_coeff
        w[2][3, times_k(2)] = +L
        w[2][3, times_k(3)] = +0.5 * L ** 2
    return TaylorMap(n_in, phase_dim, order, tuple(w))


def _ref_shift(delta, n, order):
    m = TaylorMap.identity(n, order)
    w = [np.array(b) for b in m.weights]
    w[0][:, 0] = np.asarray(delta, dtype=np.float64)
    return m.with_weights(w)


def _ref_ode_to_map(rhs, length, order, rk4_steps):
    f_map = rhs.as_map(order)
    current = TaylorMap.identity(rhs.n, order)

    def deriv(m):
        return compose(m, f_map).weights

    def axpy(m, scale, dw):
        return m.with_weights([w + scale * d for w, d in zip(m.weights, dw)])

    h = length / rk4_steps
    for _ in range(rk4_steps):
        k1 = deriv(current)
        k2 = deriv(axpy(current, h / 2, k1))
        k3 = deriv(axpy(current, h / 2, k2))
        k4 = deriv(axpy(current, h, k3))
        current = current.with_weights([w + (h / 6) * (a + 2 * b + 2 * c + d)
                                        for w, a, b, c, d in zip(current.weights,
                                                                 k1, k2, k3, k4)])
    return current


def _same_bits(a, b):
    return (a.n_in, a.n_out, a.order) == (b.n_in, b.n_out, b.order) and \
        a.flat_coefficients().tobytes() == b.flat_coefficients().tobytes()


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 4])
def test_linear_elements_bit_equal_to_block_reference(n, order):
    for length in (0.0, 0.4, 1.7):
        assert _same_bits(drift_map(length, n, order), _ref_quad(length, 0.0, n, order))
        for k1 in (0.9, -1.3):
            assert _same_bits(quad_map(length, k1, n, order), _ref_quad(length, k1, n, order))
    f, _ = _quad_blocks(0.8, (0.1 / 0.8) ** 2)
    ld = np.array([[1.0, 0.8], [0.0, 1.0]])
    assert _same_bits(sbend_map(0.8, 0.1, n, order), _ref_embed_blocks(n, order, [f, ld][:n // 2]))
    for kx, ky in ((0.0, 0.0), (2e-4, -3e-4)):
        assert _same_bits(corrector_map(kx, ky, n, order), _ref_corrector(kx, ky, n, order))
    delta = np.linspace(-1e-3, 2e-3, n)
    assert _same_bits(shift_map(delta, n, order), _ref_shift(delta, n, order))


@pytest.mark.parametrize("order", [2, 3])
def test_nonlinear_elements_bit_equal_to_block_reference(order):
    for k2l in (0.7, -2.5):
        assert _same_bits(sextupole_kick(k2l, 4, order), _ref_sextupole_kick(k2l, 4, order))
    for phase_dim in (2, 4):
        for compat in (False, True):
            assert _same_bits(parametric_quad_map(0.6, order, phase_dim, compat),
                              _ref_parametric_quad(0.6, order, phase_dim, compat))
    for rhs in (quad_rhs(1.3), OdeRhs(1, 2, [[[0.2]], [[-0.4]], [[0.9]]])):
        assert _same_bits(ode_to_map(rhs, 0.8, order, rk4_steps=7),
                          _ref_ode_to_map(rhs, 0.8, order, rk4_steps=7))
