"""Graded monomial bases for truncated multivariate polynomials.

Monomials are grouped by total degree.  Within a degree block the exponent
tuples are ordered lexicographically descending on the first variable, then
the second, and so on, e.g. for two variables at degree 2:
(2,0), (1,1), (0,2).

All degree blocks together form the flat basis: flat index j runs over the
blocks in ascending degree, so a polynomial map's weights are one
(n_out, size) coefficient matrix whose columns follow `exponents`, the
read-only (size, n_vars) exponent table.  `offsets[d]` is the first flat
index of degree d.

Each monomial of degree >= 1 grows from one of the degree below: it is
monomial `parent[j]` times variable `var[j]`, its last non-zero variable.
That growth table builds every degree-d block from the degree-(d-1) one by
a gather and one multiply, both for values and for polynomials
(`polymap.compose`).  The per-degree steps (block slice, parent[s],
1 + var[s]) are cut once, when the basis is built; variable v sits in slot
1 + v of a monomial vector, so `grow` fills a vector in place from its
degree-1 slots.  `eval_flat` (at one point or at a particles-last batch of
points) and the network's pass plan (`network._Pass`, whose layers write
their outputs into the degree-1 slots of the next layer's buffer, for one
state or a particles-last batch of columns: `forward`, the multi-turn
trackers and training all run on it) grow their values with it.  The basis of order k is a prefix
of every higher-order basis in the same variables, so a map whose top
degrees are zero is evaluated on a lower-order basis at the cost of the
degrees it uses.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

ORDERING_TAG = "graded-revlex-v1"


def n_monomials(n_vars: int, degree: int) -> int:
    """Number of degree-`degree` monomials in `n_vars` variables."""
    return math.comb(n_vars + degree - 1, degree)


def enumerate_monomials(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all degree-`degree` monomials, in basis order."""
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for combo in itertools.combinations_with_replacement(range(n_vars), degree):
        e = [0] * n_vars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


@lru_cache(maxsize=None)
def get_basis(n_vars: int, max_order: int) -> "MonomialBasis":
    return MonomialBasis(n_vars, max_order)


class MonomialBasis:
    """All monomials in `n_vars` variables up to total degree `max_order`.

    Flat indices run over degree blocks in ascending degree; index 0 is the
    constant monomial.  Immutable after construction.
    """

    def __init__(self, n_vars: int, max_order: int):
        if n_vars < 1 or max_order < 0:
            raise ValueError("need n_vars >= 1 and max_order >= 0")
        self.n_vars = n_vars
        self.max_order = max_order
        self.offsets: list[int] = []
        flat = []
        for d in range(max_order + 1):
            self.offsets.append(len(flat))
            flat.extend(enumerate_monomials(n_vars, d))
        self.size = len(flat)
        self._exponents = flat
        # exponents[j] = exponent tuple of monomial j; blocks[d] = its degree-d rows
        self.exponents = np.array(flat, dtype=np.int64)
        self.exponents.setflags(write=False)
        ends = self.offsets[1:] + [self.size]
        self.blocks = [self.exponents[a:b] for a, b in zip(self.offsets, ends)]
        self._index = {e: j for j, e in enumerate(flat)}
        # growth table: monomial j = monomial parent[j] * x[var[j]] (entry 0 unused)
        var = [0] + [max(v for v, p in enumerate(e) if p) for e in flat[1:]]
        parent = [0] + [self._index[e[:v] + (e[v] - 1,) + e[v + 1:]]
                        for e, v in zip(flat[1:], var[1:])]
        self.parent, self.var = np.array(parent), np.array(var)
        for t in (self.parent, self.var):
            t.setflags(write=False)
        # growth steps, one per degree >= 2: (block slice, parent[s], 1 + var[s]);
        # 1 + var[s] indexes the variables in a monomial vector's degree-1 slots
        self.steps = [(s, self.parent[s], 1 + self.var[s])
                      for s in (slice(a, b) for a, b in zip(self.offsets[2:], ends[2:]))]
        self._product_table: np.ndarray | None = None
        self._product_pairs: tuple | None = None  # (i, j, table[i, j]) where that is >= 0
        self._derivative_table: np.ndarray | None = None

    def block_size(self, degree: int) -> int:
        return self.blocks[degree].shape[0]

    def index_of(self, exponents) -> int:
        """Flat index of an exponent tuple."""
        return self._index[tuple(int(e) for e in exponents)]

    def exponents_of(self, index: int) -> tuple[int, ...]:
        """Exponent tuple at a flat index."""
        return self._exponents[index]

    def degree_of(self, index: int) -> int:
        return int(sum(self._exponents[index]))

    @property
    def product_table(self) -> np.ndarray:
        """table[i, j] = flat index of monomial i*j, or -1 if it exceeds max_order."""
        if self._product_table is None:
            t = np.full((self.size, self.size), -1, dtype=np.int64)
            for i, ei in enumerate(self._exponents):
                for j, ej in enumerate(self._exponents):
                    s = tuple(a + b for a, b in zip(ei, ej))
                    if sum(s) <= self.max_order:
                        t[i, j] = self._index[s]
            t.setflags(write=False)
            self._product_table = t
        return self._product_table

    @property
    def derivative_table(self) -> np.ndarray:
        """Rows (source, variable, target, multiplier), one column per non-zero derivative.

        d(monomial `source`)/d(x_variable) = multiplier * monomial `target`,
        where `target` indexes the order-(max_order - 1) basis, a prefix of
        this one.  Columns run by source, then variable.
        """
        if self._derivative_table is None:
            cols = [(s, v, self._index[e[:v] + (e[v] - 1,) + e[v + 1:]], e[v])
                    for s, e in enumerate(self._exponents)
                    for v in range(self.n_vars) if e[v]]
            t = np.array(cols, dtype=np.int64).reshape(-1, 4).T.copy()
            t.setflags(write=False)
            self._derivative_table = t
        return self._derivative_table

    def eval_flat(self, x: np.ndarray) -> np.ndarray:
        """Values of every monomial (all degrees), grown degree by degree.

        `x` is one point `(n_vars,)` or a particles-last batch `(n_vars, N)`;
        the result is `(size,)` or `(size, N)`, one column per particle.
        """
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(self.size if x.ndim == 1 else (self.size, x.shape[1]))
        out[0] = 1.0
        if self.max_order:
            out[1:self.n_vars + 1] = x
        self.grow(out)
        return out

    def grow(self, mono: np.ndarray) -> None:
        """Fill degrees >= 2 of a monomial vector, in place, from its degree-1 slots.

        `mono` is `(size,)` or `(size, N)` with the variables in
        `mono[1:n_vars + 1]`; slot 0 (the constant) is not read.
        """
        for s, parent, var in self.steps:
            np.multiply(mono[parent], mono[var], out=mono[s])

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of flat coefficient vectors; `a` and `b` are `(..., size)` rows."""
        if self._product_pairs is None:
            i, j = np.nonzero(self.product_table >= 0)
            self._product_pairs = (i, j, self.product_table[i, j])
        i, j, k = self._product_pairs
        rows = np.reshape(a, (-1, self.size))
        vals = rows[:, i] * np.reshape(b, (-1, self.size))[:, j]
        # one scatter-add; bins are per row, each summed in (i, j) order
        bins = k + self.size * np.arange(len(rows))[:, None]
        out = np.bincount(bins.ravel(), vals.ravel(), minlength=rows.size)
        return out.reshape(np.shape(a))

    def __repr__(self):
        return f"MonomialBasis(n_vars={self.n_vars}, max_order={self.max_order})"
