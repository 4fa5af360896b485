"""Graded monomial bases for truncated multivariate polynomials.

Monomials are grouped by total degree.  Within a degree block the exponent
tuples are ordered lexicographically descending on the first variable, then
the second, and so on, e.g. for two variables at degree 2:
(2,0), (1,1), (0,2).
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
        self.blocks: list[np.ndarray] = []
        self.offsets: list[int] = []
        flat = []
        off = 0
        for d in range(max_order + 1):
            exps = enumerate_monomials(n_vars, d)
            arr = np.array(exps, dtype=np.int64).reshape(len(exps), n_vars)
            arr.setflags(write=False)
            self.blocks.append(arr)
            self.offsets.append(off)
            flat.extend(exps)
            off += len(exps)
        self.size = off
        self._exponents = flat
        self._index = {e: j for j, e in enumerate(flat)}
        self._product_table: np.ndarray | None = None
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
        """Values of every monomial (all degrees) at a point."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(self.size)
        for d in range(self.max_order + 1):
            off = self.offsets[d]
            m = self.block_size(d)
            out[off:off + m] = np.prod(x[None, :] ** self.blocks[d], axis=1)
        return out

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of flat coefficient vectors."""
        table = self.product_table
        out = np.zeros(self.size)
        nza = np.nonzero(a)[0]
        nzb = np.nonzero(b)[0]
        if len(nza) == 0 or len(nzb) == 0:
            return out
        idx = table[np.ix_(nza, nzb)]
        vals = np.outer(a[nza], b[nzb])
        keep = idx >= 0
        np.add.at(out, idx[keep], vals[keep])
        return out

    def __repr__(self):
        return f"MonomialBasis(n_vars={self.n_vars}, max_order={self.max_order})"
