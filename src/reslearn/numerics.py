"""Dense linear-algebra substrate used by every other module.

Matrices are plain ``numpy.ndarray`` values: 2-D, float64, row-major, all
entries finite. Vectors are 1-D arrays; batches of samples are stacked as
rows. All functions here are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotSymmetricError,
    RankDeficientError,
    SingularMatrixError,
)

Mat = NDArray[np.float64]

#: Condition-number ceiling above which `invert` refuses to proceed.
MAX_CONDITION = 1e12


def as_matrix(value, name: str = "matrix") -> Mat:
    """Coerce to a finite float64 2-D array, raising on bad input."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class LlsFit:
    """Result of a linear least-squares fit.

    ``coeffs`` has shape q x p and predicts ``y = coeffs @ x``;
    ``residual_norm`` is the Euclidean norm of the stacked residuals
    ``coeffs @ x_i - y_i`` over the fitted samples.
    """

    coeffs: Mat
    residual_norm: float


def lls_solve(inputs: Mat, targets: Mat) -> LlsFit:
    """Fit ``y ~ L x`` by minimizing (1/2n) sum ||L x_i - y_i||^2.

    ``inputs`` is n x p (one sample per row), ``targets`` n x q. Solved via
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
    coeffs_t = solve_triangular(r_fac, q_fac.T @ y)  # p x q
    residual = x @ coeffs_t - y
    return LlsFit(coeffs=np.ascontiguousarray(coeffs_t.T), residual_norm=float(np.linalg.norm(residual)))


def invert(m: Mat, max_condition: float = MAX_CONDITION) -> Mat:
    """Invert a square matrix, refusing when the condition estimate is too large.

    Raises SingularMatrixError when the smallest singular value is within
    roundoff of zero (at most ``max(shape) * eps`` times the largest, the
    level the SVD of an exactly singular matrix returns) and
    IllConditionedError (carrying the estimate) when cond_2 exceeds
    ``max_condition``.
    """
    a = as_matrix(m, "matrix")
    d0, d1 = a.shape
    if d0 != d1:
        raise DimensionMismatchError(f"expected square matrix, got {d0}x{d1}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= d0 * np.finfo(a.dtype).eps * sv[0]:
        raise SingularMatrixError("matrix is singular")
    cond = float(sv[0] / sv[-1])
    if cond >= max_condition:
        raise IllConditionedError(
            f"condition estimate {cond:.3e} exceeds {max_condition:.1e}", cond
        )
    return np.linalg.solve(a, np.eye(d0))


def is_psd(m: Mat, tol: float = 1e-8) -> bool:
    """True iff all eigenvalues of the symmetrized matrix are >= -tol.

    Implemented as a Cholesky factorization of ``m + tol*I`` (cheaper than a
    full eigendecomposition). Raises NotSymmetricError when the asymmetry
    exceeds ``tol`` relative to the largest entry.
    """
    a = as_matrix(m, "matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if float(np.abs(a - a.T).max()) > tol * scale:
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    sym = 0.5 * (a + a.T)
    shifted = sym + tol * scale * np.eye(sym.shape[0])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        # Cholesky can fail on semidefinite edge cases the shift did not
        # clear; fall back to the spectrum before declaring indefinite.
        return bool(np.linalg.eigvalsh(sym).min() >= -tol * scale)
    return True
