"""Dense linear-algebra substrate used by every other module.

Matrices are plain ``numpy.ndarray`` values: 2-D, float64, row-major, all
entries finite. Vectors are 1-D arrays; batches of samples are stacked as
rows. Every factorization and solve goes through ``numpy.linalg``, so the
package runs on numpy's own LAPACK and BLAS thread pool. The scale stages
of both layers share ``origin_fits``, which fits every column of a batch in
one vectorised pass. All functions here are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatchError, NonFiniteError, RankDeficientError

Mat = NDArray[np.float64]


def as_matrix(value, name: str = "matrix") -> Mat:
    """Coerce to a finite float64 2-D array, raising on bad input."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def lls_solve(inputs: Mat, targets: Mat) -> Mat:
    """Fit ``y ~ L x`` by minimizing (1/2n) sum ||L x_i - y_i||^2; returns L.

    ``inputs`` is n x p (one sample per row), ``targets`` n x q, and the
    returned coefficients are q x p, predicting ``y = L @ x``. Solved via
    a reduced QR factorization rather than the normal equations; the rank
    test uses the R diagonal with threshold max(n, p) * eps * max|R_jj|.

    Raises RankDeficientError when the design loses column rank, and
    DimensionMismatchError on shape disagreement.
    """
    x = as_matrix(inputs, "inputs")
    y = as_matrix(targets, "targets")
    n, p = x.shape
    if y.shape[0] != n:
        raise DimensionMismatchError(
            f"inputs have {n} rows but targets have {y.shape[0]}"
        )
    if n < p:
        raise RankDeficientError(f"underdetermined system: {n} samples for {p} columns")
    q_fac, r_fac = np.linalg.qr(x)
    diag = np.abs(np.diag(r_fac))
    thresh = max(n, p) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    if np.any(diag <= thresh):
        raise RankDeficientError(
            f"design matrix is rank deficient (min |R_jj| = {diag.min():.3e})"
        )
    # R is upper triangular with no zero on its diagonal (the rank test),
    # so partial pivoting swaps no rows and this is the triangular solve
    coeffs_t = np.linalg.solve(r_fac, q_fac.T @ y)  # p x q
    return np.ascontiguousarray(coeffs_t.T)


def origin_fits(x: Mat, y: Mat, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Through-origin regressions of ``y`` on ``x``, one per column, over the
    samples ``mask`` selects.

    ``x``, ``y`` and ``mask`` are n x d. Returns two length-d arrays: the
    masked sample count and the slope (nan where the masked sum of x^2 is
    not positive, so no slope is defined). The scale stages of both layers
    make one call over the samples where their relation is exactly linear.
    """
    count = np.count_nonzero(mask, axis=0)
    xm = np.where(mask, x, 0.0)
    denom = np.einsum("ij,ij->j", xm, xm)  # column-wise dot products
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(denom > 0.0, np.einsum("ij,ij->j", xm, np.where(mask, y, 0.0)) / denom,
                         np.nan)
    return count, slope
