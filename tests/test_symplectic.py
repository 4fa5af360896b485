"""Symplectic residual/penalty: closed-form values, oracles, scaling laws."""

import numpy as np
import pytest
import sympy as sp

from polytrack.basis import get_basis
from polytrack.elements import (corrector_map, drift_map, parametric_quad_map,
                                quad_map, sbend_map, sextupole_map)
from polytrack.polymap import TaylorMap, jacobian
from polytrack.symplectic import (_interleaved_form, penalty_gradient,
                                  symplectic_penalty, symplectic_residual)

from conftest import random_map, weight_block


def _linear_map_2d(matrix):
    return TaylorMap.from_linear(np.asarray(matrix, dtype=float), order=2)


def test_identity_residual_zero():
    res = symplectic_residual(TaylorMap.identity(4, 2))
    assert np.all(res.coeffs == 0.0)
    assert symplectic_penalty(TaylorMap.identity(4, 2)) == 0.0


def test_diag_2_1_penalty_is_two():
    m = _linear_map_2d([[2.0, 0.0], [0.0, 1.0]])
    res = symplectic_residual(m)
    # D^T J D - J = [[0, 1], [-1, 0]]: one independent coefficient, squared twice
    assert res.coeffs[0, 1, 0] == pytest.approx(1.0, abs=1e-15)
    assert symplectic_penalty(m) == pytest.approx(2.0, abs=1e-15)


def test_diag_2_1_gradient_entry():
    # S = 2 (w11 w22 - 1)^2 for diagonal linear maps; dS/dw11 = 4 w22 (w11 w22 - 1)
    m = _linear_map_2d([[2.0, 0.0], [0.0, 1.0]])
    grads = penalty_gradient(m)
    assert grads[0, m.basis.index_of((1, 0))] == pytest.approx(4.0, abs=1e-12)


def test_linear_elements_have_zero_penalty():
    for m in (drift_map(1.7), quad_map(0.5, 1.3), quad_map(0.5, -0.8),
              sbend_map(1.0, 0.05), corrector_map(2e-4, -1e-4)):
        assert symplectic_penalty(m) <= 1e-24


def test_gradient_zero_at_symplectic_map():
    assert np.all(penalty_gradient(drift_map(2.0)) == 0.0)


def test_residual_matches_numeric_jacobian(rng):
    m = sextupole_map(0.3, 5.0, slices=2)
    res = symplectic_residual(m)
    j = np.zeros((4, 4))
    for i in range(0, 4, 2):
        j[i, i + 1] = 1.0
        j[i + 1, i] = -1.0
    h = 1e-6
    for _ in range(20):
        x0 = rng.uniform(-1e-2, 1e-2, size=4)
        d = np.zeros((4, 4))
        for c in range(4):
            e = np.zeros(4)
            e[c] = h
            d[:, c] = (m(x0 + e) - m(x0 - e)) / (2 * h)
        np.testing.assert_allclose(res(x0), d.T @ j @ d - j,
                                   rtol=0, atol=1e-10)


def test_residual_antisymmetry(rng):
    m = sextupole_map(0.3, 5.0, slices=2)
    res = symplectic_residual(m)
    for _ in range(20):
        x0 = rng.uniform(-1e-2, 1e-2, size=4)
        r = res(x0)
        np.testing.assert_allclose(r + r.T, 0.0, rtol=0, atol=1e-12)


def test_penalty_gradient_matches_finite_differences(rng):
    def nudged(m):  # off the exact weights, as training moves them
        return m.with_weights([w + 1e-2 * rng.standard_normal(w.shape) for w in m.weights])

    # also calibrate's qf7 case (strength as a fifth input) and an order-3 map
    for m, pd in ((sextupole_map(0.3, 5.0, slices=2), None),
                  (nudged(parametric_quad_map(0.5, order=2, phase_dim=4)), 4),
                  (nudged(sextupole_map(0.3, 5.0, order=3, slices=2)), None)):
        grads = penalty_gradient(m, pd)
        h = 1e-6
        checked = 0
        for d in range(m.order + 1):
            g = weight_block(grads, m.basis, d)
            for _ in range(10):
                i = int(rng.integers(g.shape[0]))
                j = int(rng.integers(g.shape[1]))
                wp = [w.copy() for w in m.weights]
                wp[d][i, j] += h
                wm = [w.copy() for w in m.weights]
                wm[d][i, j] -= h
                fd = (symplectic_penalty(m.with_weights(wp), pd) -
                      symplectic_penalty(m.with_weights(wm), pd)) / (2 * h)
                scale = max(abs(fd), abs(g[i, j]), 1e-8)
                assert abs(fd - g[i, j]) / scale <= 1e-6
                checked += 1
        assert checked >= 30


def _reference_residual_and_gradient(tmap, pd):
    """Residual and penalty gradient coefficient by coefficient."""
    k = tmap.order
    jac = jacobian(tmap, wrt=pd)
    target = get_basis(tmap.n_in, max(2 * (k - 1), 0))
    j = _interleaved_form(pd)
    nsrc = jac.basis.size
    d = np.zeros((pd, pd, target.size))
    d[:, :, :nsrc] = jac.coeffs
    res = np.zeros((pd, pd, target.size))
    for a in range(pd):
        for b in range(a + 1, pd):
            for i in range(pd):
                for ip in range(pd):
                    if j[i, ip] != 0:
                        res[a, b] += j[i, ip] * target.multiply(d[i, a], d[ip, b])
            res[a, b, 0] -= j[a, b]
            res[b, a] = -res[a, b]
    g = np.zeros((pd, pd, nsrc))
    for p in range(nsrc):
        for pp in range(nsrc):
            q = target.product_table[p, pp]
            g[:, :, p] += 2.0 * (j @ d[:, :, pp]) @ res[:, :, q].T
            g[:, :, pp] += 2.0 * (j.T @ d[:, :, p]) @ res[:, :, q]
    grads = [np.zeros_like(w) for w in tmap.weights]
    for deg in range(1, k + 1):
        for c, e in enumerate(tmap.basis.blocks[deg]):
            for v in range(pd):
                if e[v]:
                    de = e.copy()
                    de[v] -= 1
                    grads[deg][:, c] += e[v] * g[:, v, jac.basis.index_of(de)]
    return res, grads


def test_residual_and_gradient_match_reference_loops(rng):
    for m, pd in ((sextupole_map(0.3, 5.0, slices=2), 4),
                  (sextupole_map(0.3, 5.0, order=3, slices=2), 4),
                  (parametric_quad_map(0.5, order=2, phase_dim=4), 4),
                  (random_map(rng, 3, 2, order=3), 2)):
        res, grads = _reference_residual_and_gradient(m, pd)
        got = symplectic_residual(m, pd).coeffs
        assert np.max(np.abs(got - res)) <= 1e-14 * np.max(np.abs(res))
        scale = max(np.max(np.abs(g)) for g in grads)
        got = penalty_gradient(m, pd)
        for d, want in enumerate(grads):
            assert np.max(np.abs(weight_block(got, m.basis, d) - want)) <= 1e-14 * scale


def test_sextupole_residual_amplitude_scaling():
    m = sextupole_map(0.3, 5.0, slices=4)
    res = symplectic_residual(m)
    k = m.order
    for a in (1e-2, 1e-3):
        x_full = np.array([a, a, a, a]) / 2.0
        r1 = np.linalg.norm(res(x_full * 2))
        r2 = np.linalg.norm(res(x_full))
        assert np.log2(r1 / r2) >= k - 0.5


def test_odd_phase_dimension_rejected():
    m = TaylorMap.identity(3, 2)
    with pytest.raises(ValueError):
        symplectic_penalty(m)


# -- symbolic oracle: residual coefficients of a generic 1-DOF quadratic map --

def _symbolic_residual_coeffs():
    """Residual of x1 -> w0 + W1 x + W2 x^[2] computed independently in sympy.

    Returns the six coefficients of the single independent residual entry
    R[0,1], over monomials (1, x1, x2, x1^2, x1*x2, x2^2).
    """
    x1, x2 = sp.symbols("x1 x2")
    w1 = sp.Matrix(2, 2, lambda i, j: sp.Symbol(f"w1_{i+1}{j+1}"))
    w2 = sp.Matrix(2, 3, lambda i, j: sp.Symbol(f"w2_{i+1}{j+1}"))
    mono2 = sp.Matrix([x1**2, x1 * x2, x2**2])
    out = w1 * sp.Matrix([x1, x2]) + w2 * mono2
    d = out.jacobian([x1, x2])
    j = sp.Matrix([[0, 1], [-1, 0]])
    r01 = sp.expand((d.T * j * d - j)[0, 1])
    poly = sp.Poly(r01, x1, x2)
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return [sp.expand(poly.coeff_monomial(e)) for e in exps], w1, w2


def test_symbolic_residual_contains_published_constraints():
    coeffs, w1, w2 = _symbolic_residual_coeffs()
    a, b, c, d = w1[0, 0], w1[0, 1], w1[1, 0], w1[1, 1]
    p, q, r = w2[0, 0], w2[0, 1], w2[0, 2]
    s, t, u = w2[1, 0], w2[1, 1], w2[1, 2]
    # residual coefficient = scale * constraint; the x1^2 entry has no
    # compact published counterpart but follows from the same expansion
    expected = {
        0: (1, a * d - b * c - 1),
        1: (1, a * t - c * q + 2 * d * p - 2 * b * s),
        2: (1, d * q - b * t + 2 * a * u - 2 * c * r),
        3: (2, p * t - q * s),
        4: (4, p * u - r * s),
        5: (2, q * u - r * t),
    }
    for idx, (scale, expr) in expected.items():
        assert sp.simplify(coeffs[idx] - scale * expr) == 0, idx


def test_numeric_residual_matches_symbolic_oracle(rng):
    coeffs, w1, w2 = _symbolic_residual_coeffs()
    w1n = rng.uniform(-1, 1, size=(2, 2))
    w2n = rng.uniform(-1, 1, size=(2, 3))
    subs = {w1[i, j]: w1n[i, j] for i in range(2) for j in range(2)}
    subs.update({w2[i, j]: w2n[i, j] for i in range(2) for j in range(3)})
    oracle = np.array([float(c.subs(subs)) for c in coeffs])

    m = TaylorMap(2, 2, 2, (np.zeros((2, 1)), w1n, w2n))
    res = symplectic_residual(m)
    np.testing.assert_allclose(res.coeffs[0, 1], oracle, rtol=0, atol=1e-12)
