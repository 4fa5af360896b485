"""The batch-evaluation kernel behind `polymap.evaluate_batch`.

`batch_apply` computes every monomial of a row as a product of powers and
applies the flat coefficient matrix.  `USING_NUMBA` stays False: there is
no compiled kernel any more.  The benchmark reads that constant
(`perfbench/run.py` `environment()`) and its tracer wraps `batch_apply`;
both go when the batch path moves onto the monomial growth table
(ROADMAP item 6, once item 1 has decoupled the benchmark from this module).
"""

from __future__ import annotations

import numpy as np

USING_NUMBA = False


def batch_apply(tmap, x: np.ndarray) -> np.ndarray:
    """Apply a TaylorMap to every row of x; returns (N, n_out).

    Monomial m of a row is the product of its coordinates raised to the m-th
    row of the basis exponent table; the output is the flat coefficient
    matrix applied to those monomials.
    """
    x = np.ascontiguousarray(x)
    exps = tmap.basis.exponents
    mono = np.ones((x.shape[0], exps.shape[0]))
    for v in range(x.shape[1]):
        e = exps[:, v]
        nz = e > 0
        if nz.any():
            mono[:, nz] *= x[:, v:v + 1] ** e[nz]
    return mono @ tmap.flat_coefficients().T
