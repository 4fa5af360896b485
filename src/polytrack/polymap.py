"""Truncated multivariate polynomial maps: evaluation, composition, Jacobians.

A map of order k sends X to W0 + W1 X + W2 X^[2] + ... + Wk X^[k], where
X^[d] lists the degree-d monomials of X in the basis order of
:mod:`polytrack.basis`.  A map holds its weights as one read-only
(n_out, basis.size) flat coefficient matrix, one column per basis monomial;
every module of the library reads and builds maps in that layout.  Weight
blocks W_d exist only at the public edge: the block constructor
`TaylorMap(n_in, n_out, order, weights)`, `with_weights` and the read-only
`.weights` views.  The basis growth table (monomial j = monomial parent[j] *
x[var[j]]) drives evaluation and composition, which grows each monomial of
the middle variables as a polynomial in the inputs with one row-wise
`basis.multiply` per degree and applies the outer flat matrix.

Evaluation at one point costs only the degrees a map uses.  On first use a
map keeps a read-only "live" pair: the basis up to its highest degree with a
non-zero coefficient and the matching column prefix of its matrix, and
`evaluate` is `live_coeffs @ live_basis.eval_flat(x)`; the network's
pass plan (`network._Pass`, behind `forward`, the multi-turn trackers and
training) sizes each layer's monomial buffer by the same pair.  A linear
element is then one affine step instead of growing and multiplying zero
monomials.
Lower-order bases are prefixes of the full one, so the result is the full
product up to rounding; a state whose dropped monomials overflow now gives
finite values or inf where the zero weights made NaN.  `compose` likewise
grows the middle monomials only up to the outer map's live degree, but
keeps the full-width product with the outer flat matrix: the rows it
leaves zero meet zero columns, so its result is bit-identical to growing
every degree, where a product over the live prefix alone can differ in the
last bit.  An affine outer map multiplies no polynomials.  Batch evaluation
(`evaluate_batch`, `kernels.batch_apply`) keeps the full basis.  Training's
plans run its frozen and kick-only layers on the live pair too, but a
layer trained on every weight on the full basis: its zero weights still
get a gradient.

A map builds its polynomial Jacobian (one gather-and-scale through the
basis derivative table) the first time `jacobian` asks for it and keeps it
as a read-only array; every later `jacobian` call, with or without `wrt`,
is a slice of it.  Training's adjoint and the symplectic residual share
that cache, so a frozen layer's Jacobian is built once per map object.
Neither the live degrees nor the Jacobian depend on the constant column
W0, so `with_constant`, the update that moves only W0 (a corrector's
kick), hands both caches to the new map.  Pickling or copying a map goes
through `from_flat`: the copy is read-only and starts with no cached
views, live pair or Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import MonomialBasis, get_basis, n_monomials
from . import kernels


class ShapeError(ValueError):
    """Input or weight dimensions do not match the map."""


def kron_power(x, degree: int, n_vars: int | None = None) -> np.ndarray:
    """Vector of all degree-`degree` monomials of x (non-redundant listing)."""
    x = np.asarray(x, dtype=np.float64)
    basis = get_basis(x.shape[0] if n_vars is None else n_vars, degree)
    return basis.eval_flat(x)[basis.offsets[degree]:]


class TaylorMap:
    """Immutable truncated polynomial map R^n_in -> R^n_out of given order."""

    def __init__(self, n_in: int, n_out: int, order: int, weights):
        """Build from weight blocks (W0, ..., Wk); W_d has shape (n_out, C(n_in+d-1, d))."""
        if len(weights) != order + 1:
            raise ShapeError(f"expected {order + 1} weight blocks, got {len(weights)}")
        blocks = [np.asarray(w, dtype=np.float64) for w in weights]
        for d, w in enumerate(blocks):
            want = (n_out, n_monomials(n_in, d))
            if w.shape != want:
                raise ShapeError(f"weight block {d} has shape {w.shape}, expected {want}")
        self._adopt(np.concatenate(blocks, axis=1), n_in, order)

    @classmethod
    def from_flat(cls, coeffs, n_in: int, order: int) -> "TaylorMap":
        """Map over an (n_out, basis.size) coefficient matrix; the caller keeps `coeffs`."""
        tmap = cls.__new__(cls)
        tmap._adopt(coeffs, n_in, order)
        return tmap

    def _adopt(self, coeffs, n_in: int, order: int) -> None:
        flat = np.array(coeffs, dtype=np.float64)  # one copy: never the caller's array
        size = get_basis(n_in, order).size
        if flat.ndim != 2 or flat.shape[1] != size:
            raise ShapeError(f"coefficients have shape {flat.shape}, expected (n_out, {size})")
        if not np.all(np.isfinite(flat)):
            raise ValueError("non-finite entries in weights")
        self._freeze(flat, n_in, order)

    def _freeze(self, flat: np.ndarray, n_in: int, order: int) -> None:
        """Take ownership of a checked, unaliased flat matrix."""
        flat.setflags(write=False)
        for name, value in (("n_in", n_in), ("n_out", flat.shape[0]), ("order", order),
                            ("_flat", flat)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"TaylorMap is immutable; cannot set '{name}'")

    def __repr__(self):
        return f"TaylorMap(n_in={self.n_in}, n_out={self.n_out}, order={self.order})"

    def __reduce__(self):
        # pickle and copy rebuild through from_flat: a read-only copy, no cached views
        return (TaylorMap.from_flat, (self._flat, self.n_in, self.order))

    @property
    def basis(self) -> MonomialBasis:
        return get_basis(self.n_in, self.order)

    @cached_property
    def weights(self) -> tuple:
        """Read-only blocks (W0, ..., Wk): views of the flat matrix, one per degree."""
        return tuple(np.split(self._flat, self.basis.offsets[1:], axis=1))

    @cached_property
    def _live(self) -> tuple:
        """(basis, coefficients) up to the highest degree with a non-zero coefficient.

        Built on first use and read-only; the basis is a prefix of the full
        one and the coefficients are the matching column prefix (see `evaluate`).
        """
        basis, top = self.basis, self.order
        while top and not self._flat[:, basis.offsets[top]:].any():
            top -= 1
        return self._live_pair(get_basis(self.n_in, top))

    def _live_pair(self, live: MonomialBasis) -> tuple:
        if live.size == self._flat.shape[1]:
            return live, self._flat
        coeffs = np.array(self._flat[:, :live.size])
        coeffs.setflags(write=False)
        return live, coeffs

    @cached_property
    def _jacobian(self) -> np.ndarray:
        """Read-only coefficients of the full Jacobian, built on first use (see `jacobian`)."""
        return _jacobian_coeffs(self)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero_weights(n_in: int, n_out: int, order: int) -> list[np.ndarray]:
        return [np.zeros((n_out, n_monomials(n_in, d))) for d in range(order + 1)]

    @classmethod
    def identity(cls, n: int, order: int) -> "TaylorMap":
        return cls.from_linear(np.eye(n), order=order)

    @classmethod
    def from_linear(cls, matrix, offset=None, order: int = 1) -> "TaylorMap":
        """W1 = matrix, W0 = offset (zero if omitted); every higher weight zero."""
        matrix = np.asarray(matrix, dtype=np.float64)
        n_out, n_in = matrix.shape
        flat = np.zeros((n_out, get_basis(n_in, order).size))
        flat[:, 1:n_in + 1] = matrix
        if offset is not None:
            flat[:, 0] = offset
        return cls.from_flat(flat, n_in, order)

    def with_weights(self, weights) -> "TaylorMap":
        return TaylorMap(self.n_in, self.n_out, self.order, tuple(weights))

    def with_constant(self, w0) -> "TaylorMap":
        """The same map with its constant column W0 replaced by `w0`, shape (n_out,).

        Equal to `from_flat` of the changed matrix, but the new map keeps
        the caches that do not depend on W0: its live degrees and its
        Jacobian.  A corrector, whose kick is its W0, moves without
        rebuilding either.
        """
        w0 = np.asarray(w0, dtype=np.float64)
        if w0.shape != (self.n_out,):
            raise ShapeError(f"constant column has shape {w0.shape}, expected ({self.n_out},)")
        if not np.all(np.isfinite(w0)):
            raise ValueError("non-finite entries in weights")
        flat = np.array(self._flat)
        flat[:, 0] = w0
        tmap = TaylorMap.__new__(TaylorMap)
        tmap._freeze(flat, self.n_in, self.order)
        cache, new = vars(self), vars(tmap)  # cached_property entries live in __dict__
        if "_live" in cache:
            new["_live"] = tmap._live_pair(cache["_live"][0])
        if "_jacobian" in cache:
            new["_jacobian"] = cache["_jacobian"]
        return tmap

    def flat_coefficients(self) -> np.ndarray:
        """Read-only (n_out, basis.size) coefficient matrix over the flat basis."""
        return self._flat

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x0) -> np.ndarray:
        return evaluate(self, x0)

    def linear_block(self) -> np.ndarray:
        return np.array(self._flat[:, 1:self.n_in + 1])


def evaluate(tmap: TaylorMap, x0) -> np.ndarray:
    """Apply the map to a single phase-space vector.

    Only the degrees up to the map's highest non-zero one are grown: a
    linear map is one affine step.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (tmap.n_in,):
        raise ShapeError(f"input has shape {x0.shape}, map expects ({tmap.n_in},)")
    basis, coeffs = tmap._live
    return coeffs.dot(basis.eval_flat(x0))  # the same product as @, with less call overhead


def evaluate_batch(tmap: TaylorMap, x0s) -> np.ndarray:
    """Apply the map to each row of a batch; rows are independent."""
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim != 2 or x0s.shape[1] != tmap.n_in:
        raise ShapeError(f"batch has shape {x0s.shape}, map expects (N, {tmap.n_in})")
    if x0s.shape[0] == 0:
        return np.empty((0, tmap.n_out))
    return kernels.batch_apply(tmap, x0s)


def compose(first: TaylorMap, second: TaylorMap) -> TaylorMap:
    """Map of second∘first (apply `first`, then `second`), truncated.

    Both maps must share the same truncation order; monomials of the
    substituted polynomial above that order are discarded.  The middle
    monomials are grown only up to `second`'s live degree: the rows above
    it stay zero where `second`'s columns are zero, so the full-width
    product is the same, and an affine `second` multiplies no polynomials.
    """
    if first.n_out != second.n_in:
        raise ShapeError(f"cannot compose: first.n_out={first.n_out} != second.n_in={second.n_in}")
    if first.order != second.order:
        raise ShapeError(f"cannot compose maps of different order ({first.order} vs {second.order})")
    k = first.order
    basis, mid = first.basis, second.basis
    # p[m] = monomial m of the middle variables as a polynomial in the inputs
    p = np.zeros((mid.size, basis.size))
    p[0, 0] = 1.0
    if k:
        p[1:mid.n_vars + 1] = first._flat
    for s, parent, var in mid.steps[:max(second._live[0].max_order - 1, 0)]:
        p[s] = basis.multiply(p[var], p[parent])  # var: row of the variable in p, 1 + its index
    return TaylorMap.from_flat(second._flat @ p, first.n_in, k)


def compose_chain(maps) -> TaylorMap:
    """Compose a sequence of maps applied left to right."""
    maps = list(maps)
    if not maps:
        raise ValueError("empty chain")
    acc = maps[0]
    for m in maps[1:]:
        acc = compose(acc, m)
    return acc


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """Matrix whose entries are truncated polynomials over a shared basis."""

    n_rows: int
    n_cols: int
    basis: MonomialBasis
    coeffs: np.ndarray  # (n_rows, n_cols, basis.size)

    def __call__(self, x) -> np.ndarray:
        return self.coeffs @ self.basis.eval_flat(x)


def _jacobian_coeffs(tmap: TaylorMap) -> np.ndarray:
    """(n_out, n_in, basis(n_in, k-1).size) Jacobian coefficients, read-only."""
    src, var, tgt, mult = tmap.basis.derivative_table
    jbasis = get_basis(tmap.n_in, max(tmap.order - 1, 0))
    coeffs = np.zeros((tmap.n_out, tmap.n_in, jbasis.size))
    coeffs[:, var, tgt] += mult * tmap.flat_coefficients()[:, src]  # one source per target
    coeffs.setflags(write=False)
    return coeffs


def jacobian(tmap: TaylorMap, wrt: int | None = None) -> PolyMatrix:
    """Polynomial Jacobian d(output)/d(input).

    `wrt` limits differentiation to the first `wrt` input variables (used to
    freeze trailing parameter inputs); coefficients stay polynomials in all
    inputs.  The full Jacobian is built once per map and cached on it (maps
    are immutable); every call returns a read-only slice of that cache.
    """
    n_cols = tmap.n_in if wrt is None else wrt
    if not 0 <= n_cols <= tmap.n_in:
        raise ShapeError(f"cannot differentiate by {n_cols} of {tmap.n_in} inputs")
    jbasis = get_basis(tmap.n_in, max(tmap.order - 1, 0))
    return PolyMatrix(tmap.n_out, n_cols, jbasis, tmap._jacobian[:, :n_cols])
