"""Symplectic residual and penalty for truncated polynomial maps.

For a map M with Jacobian D(X0) the residual is D^T J D - J, expanded as
polynomials in X0.  The penalty is the sum of squares of all coefficients
of that expansion, so it does not depend on inputs: it vanishes exactly
when the map is symplectic as a polynomial identity up to its own degree.

The expansion sums every product of a coefficient of D with one of J D onto
the monomial the basis product table gives for that pair.  The penalty
gradient reuses that expansion and reaches the weights through the basis
derivative table, the same table `polymap.jacobian` gathers with; it is one
matrix shaped like the map's flat coefficients.
"""

from __future__ import annotations

import numpy as np

from .basis import get_basis
from .polymap import PolyMatrix, TaylorMap, jacobian


def symplectic_form(dim: int) -> np.ndarray:
    """The block matrix J = [[0, I], [-I, 0]] in (q1..qm, p1..pm) order."""
    if dim % 2:
        raise ValueError("symplectic form needs even dimension")
    m = dim // 2
    j = np.zeros((dim, dim))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def _interleaved_form(dim: int) -> np.ndarray:
    """J for coordinates ordered (x, x', y, y', ...)."""
    if dim % 2:
        raise ValueError("phase-space dimension must be even")
    j = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        j[i, i + 1] = 1.0
        j[i + 1, i] = -1.0
    return j


def _check(tmap: TaylorMap, phase_dim: int | None) -> int:
    pd = tmap.n_out if phase_dim is None else phase_dim
    if pd % 2:
        raise ValueError("phase-space dimension must be even")
    if tmap.n_out != pd:
        raise ValueError(f"map outputs {tmap.n_out} coordinates, expected {pd}")
    if tmap.n_in < pd:
        raise ValueError("map has fewer inputs than phase-space coordinates")
    return pd


def _residual(tmap: TaylorMap, phase_dim: int | None) -> tuple[PolyMatrix, np.ndarray]:
    """The residual D^T J D - J and the product J D, each built once.

    D[i, a, p] is the p-th coefficient of d(output i)/d(input a); every
    product D[:, a, p] . (J D)[:, b, p'] lands on monomial product_table[p, p'].
    """
    pd = _check(tmap, phase_dim)
    j = _interleaved_form(pd)
    d = jacobian(tmap, wrt=pd).coeffs  # (pd, pd, nsrc) over basis(n_in, k-1)
    jd = np.einsum("ij,jbp->ibp", j, d)
    nsrc = d.shape[2]
    target = get_basis(tmap.n_in, max(2 * (tmap.order - 1), 0))
    res = np.zeros((pd, pd, target.size))
    np.add.at(res, (slice(None), slice(None), target.product_table[:nsrc, :nsrc]),
              np.einsum("iap,ibq->abpq", d, jd))
    res[:, :, 0] -= j
    return PolyMatrix(pd, pd, target, res), jd


def _weight_gradient(tmap: TaylorMap, residual: PolyMatrix, jd: np.ndarray) -> np.ndarray:
    """d(penalty)/d(flat weights) from the residual and J D that `_residual` built."""
    nsrc = jd.shape[2]
    r = residual.coeffs[:, :, residual.basis.product_table[:nsrc, :nsrc]]
    # S = sum R[a,b,q]^2.  D enters R as first and as second factor; by the
    # antisymmetry of R and J both give
    # dS/dD[i,a,p] = 2 sum_{b,p'} R[a, b, table[p, p']] (J D)[i, b, p'].
    g = 4.0 * np.einsum("abpq,ibq->iap", r, jd)
    # Chain back to the weights: D[i, v, target] = multiplier * W[i, source].
    table = tmap.basis.derivative_table
    src, var, tgt, mult = table[:, table[1] < residual.n_rows]
    flat = np.zeros((tmap.n_out, tmap.basis.size))
    np.add.at(flat, (slice(None), src), mult * g[:, var, tgt])
    return flat


def symplectic_residual(tmap: TaylorMap, phase_dim: int | None = None) -> PolyMatrix:
    """Coefficients of D^T J D - J over the degree-2(k-1) basis.

    Trailing inputs beyond `phase_dim` are treated as frozen parameters: the
    Jacobian is taken only with respect to phase-space coordinates, and the
    parameter symbols stay inside the coefficients.
    """
    return _residual(tmap, phase_dim)[0]


def symplectic_penalty(tmap: TaylorMap, phase_dim: int | None = None) -> float:
    """Sum of squares of all residual coefficients (input-independent)."""
    return float(np.sum(symplectic_residual(tmap, phase_dim).coeffs ** 2))


def penalty_gradient(tmap: TaylorMap, phase_dim: int | None = None) -> np.ndarray:
    """d(penalty)/d(weight entry), laid out like `tmap.flat_coefficients()`.

    The constant column (W0) is zero: the penalty depends on the Jacobian only.
    """
    return _weight_gradient(tmap, *_residual(tmap, phase_dim))
