"""Taylor maps for individual accelerator elements.

Linear elements (drift, quadrupole, sector bend, corrector) use closed-form
transfer matrices; sextupoles use sliced drift-kick-drift; `ode_to_map`
integrates the weight ODE of an arbitrary polynomial right-hand side and
serves as a cross-check for the closed forms.

Phase space is transverse only: (x, x') for n=2, (x, x', y, y') for n=4.
Parametric maps append parameter values as trailing input coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import get_basis, n_monomials
from .polymap import TaylorMap, compose, compose_chain

KINDS = ("drift", "quadrupole", "sbend", "sextupole",
         "hcorrector", "vcorrector", "monitor", "marker")


class ElementError(ValueError):
    """Invalid element parameters."""


class DivergenceError(RuntimeError):
    """Weight integration produced non-finite values."""


@dataclass
class ElementSpec:
    """One lattice element as written in the input file."""

    name: str
    kind: str
    length: float = 0.0
    k1: float = 0.0
    k2: float = 0.0
    angle: float = 0.0
    kick: float = 0.0
    dx: float = 0.0
    dy: float = 0.0
    parametric: bool = False
    at: float | None = None  # monitor offset inside the preceding drift

    def validate(self):
        if self.kind not in KINDS:
            raise ElementError(f"element '{self.name}': unknown kind '{self.kind}'")
        if self.length < 0:
            raise ElementError(f"element '{self.name}': attribute 'l' must be >= 0")
        if self.kind in ("monitor", "marker") and self.length != 0:
            raise ElementError(f"element '{self.name}': {self.kind} must have l=0")
        for attr in ("k1", "k2", "angle", "kick", "dx", "dy", "length"):
            if not math.isfinite(getattr(self, attr)):
                raise ElementError(f"element '{self.name}': attribute '{attr}' is not finite")


def _plane_indices(n: int) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 1)]
    if n == 4:
        return [(0, 1), (2, 3)]
    raise ElementError(f"phase-space dimension must be 2 or 4, got {n}")


def _embed_blocks(n: int, order: int, blocks: list[np.ndarray]) -> TaylorMap:
    w1 = np.eye(n)
    for (i, j), b in zip(_plane_indices(n), blocks):
        w1[i:j + 1, i:j + 1] = b
    return TaylorMap.from_linear(w1, order=order)


def drift_map(length: float, n: int = 4, order: int = 2) -> TaylorMap:
    if length < 0:
        raise ElementError("drift length must be >= 0")
    b = np.array([[1.0, length], [0.0, 1.0]])
    return _embed_blocks(n, order, [b] * len(_plane_indices(n)))


def _quad_blocks(length: float, k1: float) -> tuple[np.ndarray, np.ndarray]:
    """(focusing-plane, defocusing-plane) 2x2 blocks for strength k1 > 0."""
    w = math.sqrt(k1)
    f = np.array([[math.cos(w * length), math.sin(w * length) / w],
                  [-w * math.sin(w * length), math.cos(w * length)]])
    d = np.array([[math.cosh(w * length), math.sinh(w * length) / w],
                  [w * math.sinh(w * length), math.cosh(w * length)]])
    return f, d


def quad_map(length: float, k1: float, n: int = 4, order: int = 2) -> TaylorMap:
    """Thick quadrupole; k1 > 0 focuses horizontally."""
    if length < 0:
        raise ElementError("quadrupole length must be >= 0")
    if k1 == 0 or length == 0:
        return drift_map(length, n, order)
    f, d = _quad_blocks(length, abs(k1))
    blocks = [f, d] if k1 > 0 else [d, f]
    return _embed_blocks(n, order, blocks[:len(_plane_indices(n))])


def sbend_map(length: float, angle: float, n: int = 4, order: int = 2) -> TaylorMap:
    """Sector bend as horizontal weak focusing with k1 = (angle/L)^2.

    4D transverse model: no dispersion, no edge focusing.
    """
    if length <= 0:
        raise ElementError("sbend length must be > 0")
    k1 = (angle / length) ** 2
    if k1 == 0:
        return drift_map(length, n, order)
    f, _ = _quad_blocks(length, k1)
    ld = np.array([[1.0, length], [0.0, 1.0]])
    return _embed_blocks(n, order, [f, ld][:len(_plane_indices(n))])


def corrector_map(kick_x: float = 0.0, kick_y: float = 0.0, n: int = 4,
                  order: int = 2) -> TaylorMap:
    """Zero-length dipole kick: x' += kick_x, y' += kick_y."""
    if not (math.isfinite(kick_x) and math.isfinite(kick_y)):
        raise ElementError("corrector kicks must be finite")
    kick = np.zeros(n)
    kick[1] = kick_x
    if n == 4:
        kick[3] = kick_y
    return shift_map(kick, n, order)


def sextupole_kick(k2l: float, n: int = 4, order: int = 2) -> TaylorMap:
    """Thin sextupole: dx' = -k2l/2 (x^2 - y^2), dy' = k2l x y."""
    if n != 4 and k2l != 0:
        raise ElementError("sextupoles couple planes; build them with n=4")
    m = TaylorMap.identity(n, order)
    if k2l == 0 or order < 2:
        return m  # the kick is purely quadratic; below order 2 it vanishes
    w = np.array(m.flat_coefficients())
    col = m.basis.index_of
    w[1, col((2, 0, 0, 0))] = -0.5 * k2l
    w[1, col((0, 0, 2, 0))] = +0.5 * k2l
    w[3, col((1, 0, 1, 0))] = k2l
    return TaylorMap.from_flat(w, n, order)


def sextupole_map(length: float, k2: float, n: int = 4, order: int = 2,
                  slices: int = 4) -> TaylorMap:
    """Thick sextupole via sliced drift-kick-drift, truncated at `order`."""
    if length < 0:
        raise ElementError("sextupole length must be >= 0")
    if slices < 1:
        raise ElementError("slices must be >= 1")
    if k2 == 0:
        return drift_map(length, n, order)
    if n != 4:
        raise ElementError("sextupoles couple planes; build them with n=4")
    ell = length / slices
    half = drift_map(ell / 2, n, order)
    slice_map = compose_chain([half, sextupole_kick(k2 * ell, n, order), half])
    return compose_chain([slice_map] * slices)


def parametric_quad_map(length: float, order: int = 2, phase_dim: int = 2,
                        paper_compat: bool = False) -> TaylorMap:
    """Quadrupole with strength as an extra trailing input.

    For phase_dim=2 the map is (x, x', k) -> (x, x'); for phase_dim=4 the
    vertical plane gets the defocusing expansion.  Second order in k; the
    x'*k coefficient of the first row is analytically -L^3/6, and
    `paper_compat=True` zeroes it instead.
    """
    if order < 2:
        raise ElementError("parametric quadrupole needs order >= 2")
    if length < 0:
        raise ElementError("quadrupole length must be >= 0")
    L = length
    n_in = phase_dim + 1
    basis = get_basis(n_in, order)
    w = np.zeros((phase_dim, basis.size))
    w[:, 1:phase_dim + 1] = drift_map(L, phase_dim, 1).linear_block()

    def times_k(var):
        e = [0] * n_in
        e[var] = 1
        e[-1] += 1
        return basis.index_of(e)

    xpk_coeff = 0.0 if paper_compat else L ** 3 / 6.0
    w[0, times_k(0)] = -0.5 * L ** 2
    w[0, times_k(1)] = -xpk_coeff
    w[1, times_k(0)] = -L
    w[1, times_k(1)] = -0.5 * L ** 2
    if phase_dim == 4:
        w[2, times_k(2)] = +0.5 * L ** 2
        w[2, times_k(3)] = +xpk_coeff
        w[3, times_k(2)] = +L
        w[3, times_k(3)] = +0.5 * L ** 2
    return TaylorMap.from_flat(w, n_in, order)


def shift_map(delta, n: int, order: int) -> TaylorMap:
    """Identity plus a constant offset."""
    return TaylorMap.from_linear(np.eye(n), delta, order)


def apply_misalignment(tmap: TaylorMap, dx: float, dy: float = 0.0) -> TaylorMap:
    """Map of the same element displaced transversely by (dx, dy)."""
    if dx == 0 and dy == 0:
        return tmap
    n = tmap.n_in
    delta = np.zeros(n)
    delta[0] = dx
    if n == 4:
        delta[2] = dy
    inward = shift_map(-delta, n, tmap.order)
    outward = shift_map(delta, n, tmap.order)
    return compose_chain([inward, tmap, outward])


@dataclass
class OdeRhs:
    """Polynomial right-hand side dX/ds = sum_d P_d X^[d], constant in s."""

    n: int
    degree: int
    coeffs: list  # P_0 ... P_degree, shapes like TaylorMap weight blocks

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ElementError(f"expected {self.degree + 1} coefficient blocks")
        self.coeffs = [np.asarray(p, dtype=np.float64) for p in self.coeffs]
        for d, p in enumerate(self.coeffs):
            want = (self.n, n_monomials(self.n, d))
            if p.shape != want:
                raise ElementError(f"P{d} has shape {p.shape}, expected {want}")

    def as_map(self, order: int) -> TaylorMap:
        w = TaylorMap.zero_weights(self.n, self.n, order)
        w[:self.degree + 1] = self.coeffs
        return TaylorMap(self.n, self.n, order, tuple(w))


def ode_to_map(rhs: OdeRhs, length: float, order: int, rk4_steps: int) -> TaylorMap:
    """Integrate the weight ODE dW/ds = coeffs(F∘M) from identity to s=L.

    Classical RK4 with fixed step length/rk4_steps; the derivative of the
    weight vector is obtained by composing the current map with the RHS
    polynomial and truncating at `order`.
    """
    if rk4_steps < 1:
        raise ElementError("rk4_steps must be >= 1")
    if rhs.degree > order:
        raise ElementError("RHS degree exceeds map order")
    n, f_map = rhs.n, rhs.as_map(order)

    def deriv(w: np.ndarray) -> np.ndarray:  # flat weights of M -> those of F∘M
        return compose(TaylorMap.from_flat(w, n, order), f_map).flat_coefficients()

    w = TaylorMap.identity(n, order).flat_coefficients()
    h = length / rk4_steps
    for step in range(rk4_steps):
        try:
            k1 = deriv(w)
            k2 = deriv(w + h / 2 * k1)
            k3 = deriv(w + h / 2 * k2)
            k4 = deriv(w + h * k3)
        except ValueError:  # an intermediate stage went non-finite
            raise DivergenceError(f"weight integration diverged at step {step + 1}")
        w = w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(w)):
            raise DivergenceError(f"weight integration diverged at step {step + 1}")
    return TaylorMap.from_flat(w, n, order)


def element_map(spec: ElementSpec, n: int = 4, order: int = 2,
                sextupole_slices: int = 4, paper_compat: bool = False) -> TaylorMap:
    """Build the map of one element, misalignment included."""
    spec.validate()
    k = spec.kind
    if k in ("monitor", "marker"):
        m = TaylorMap.identity(n, order)
    elif k == "drift":
        m = drift_map(spec.length, n, order)
    elif k == "quadrupole":
        if spec.parametric:
            m = parametric_quad_map(spec.length, order, phase_dim=n,
                                    paper_compat=paper_compat)
        else:
            m = quad_map(spec.length, spec.k1, n, order)
    elif k == "sbend":
        m = sbend_map(spec.length, spec.angle, n, order)
    elif k == "sextupole":
        m = sextupole_map(spec.length, spec.k2, n, order, sextupole_slices)
    elif k == "hcorrector":
        m = corrector_map(kick_x=spec.kick, n=n, order=order)
    elif k == "vcorrector":
        m = corrector_map(kick_y=spec.kick, n=n, order=order)
    else:
        raise ElementError(f"unknown element kind '{k}'")
    if (spec.dx or spec.dy) and not spec.parametric:
        m = apply_misalignment(m, spec.dx, spec.dy)
    return m
