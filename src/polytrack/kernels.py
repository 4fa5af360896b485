"""Batch-evaluation kernels.

The hot loop (monomial evaluation over particle batches) has a numba
@njit implementation and a pure-numpy fallback.  Set the environment
variable POLYTRACK_DISABLE_NUMBA=1 before import to force the numpy path;
``benchmarks/bench_batch.py`` compares the two.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLE = os.environ.get("POLYTRACK_DISABLE_NUMBA", "").lower() in ("1", "true", "yes")

if not _DISABLE:
    try:
        from numba import njit, prange, set_num_threads as _set_num_threads
        USING_NUMBA = True
    except ImportError:
        USING_NUMBA = False
else:
    USING_NUMBA = False

if USING_NUMBA:

    @njit(parallel=True, fastmath=False)
    def _batch_kernel(x, exps, w, out):
        n, n_vars = x.shape
        n_mono = exps.shape[0]
        n_out = w.shape[0]
        for i in prange(n):
            for r in range(n_out):
                out[i, r] = 0.0
            for m in range(n_mono):
                p = 1.0
                for v in range(n_vars):
                    for _ in range(exps[m, v]):
                        p *= x[i, v]
                for r in range(n_out):
                    out[i, r] += w[r, m] * p

    def set_num_threads(n: int) -> None:
        _set_num_threads(max(1, n))

else:

    def set_num_threads(n: int) -> None:  # numpy path: BLAS manages threads
        pass


def _batch_numpy(x, exps, w, out):
    mono = np.ones((x.shape[0], exps.shape[0]))
    for v in range(x.shape[1]):
        e = exps[:, v]
        nz = e > 0
        if nz.any():
            mono[:, nz] *= x[:, v:v + 1] ** e[nz]
    np.matmul(mono, w.T, out=out)


def batch_apply(tmap, x: np.ndarray) -> np.ndarray:
    """Apply a TaylorMap to every row of x; returns (N, n_out).

    Monomial m of a row is the product of its coordinates raised to the m-th
    row of the basis exponent table; the output is the flat coefficient
    matrix applied to those monomials.
    """
    out = np.empty((x.shape[0], tmap.n_out))
    x = np.ascontiguousarray(x)
    kernel = _batch_kernel if USING_NUMBA else _batch_numpy
    kernel(x, tmap.basis.exponents, tmap.flat_coefficients(), out)
    return out
