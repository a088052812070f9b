"""Fast exact solver for the layer programs' special QP shape.

Both layer objectives are separable least squares with an identity block on
the constrained variables:

    min over (u free, w >= 0)   1/2 || F u + w - t ||^2        (per column)

For fixed u the optimal slack is w = max(t - F u, 0) coordinatewise, so the
whole constrained block can be eliminated in closed form, leaving the
unconstrained smooth problem

    min over u   1/2 || (F u - t)_+ ||^2

in only p variables. This objective is convex, piecewise quadratic, and
continuously differentiable, so a semismooth Newton iteration on the rows
currently active (those with F u > t) plus an Armijo backtracking step
settles the active set and terminates in a handful of steps.

On noiseless data the minimum value is zero on a whole face, so the bare
objective does not pin down which point to return. The implementation
adds a tiny symmetric-side weight BACK_WEIGHT on the negative part of the
residual, turning the objective into an asymmetric least squares that is
strictly convex with a unique minimizer: essentially the zero-residual
point whose eliminated slack has the smallest norm. That keeps the
returned point a deterministic function of the data rather than of the
iteration path, at the cost of an order-BACK_WEIGHT bias that is far
below every tolerance used downstream.

This is an algebraic shortcut, not a different model: its solutions lie in
the optimum set of the assembled QP over (u, w) that ``types.row_qp``
builds for either layer's design. The test suite checks
that on shared instances through the assembled KKT conditions and against
an external bounded-variable least-squares solve of [F | I]. The batched
interface solves one column per right-hand side, sharing the design
factorization used for warm starts across the batch.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import SolverFailedError

NEWTON_BUDGET = 200
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
BACK_WEIGHT = 1e-10


def _newton_column(f, t_col, u0, ell, tol, budget, eps):
    """Minimize the asymmetric squared loss from u0: (u, iterations, ok)."""
    p = f.shape[1]
    u = u0.copy()
    s = f @ u - t_col
    for it in range(budget):
        weights = np.where(s > 0.0, 1.0, eps)
        grad = f.T @ (weights * s)
        if float(np.abs(grad).max(initial=0.0)) <= tol:
            return u, it, True
        hess = (f * weights[:, None]).T @ f
        ridge = 1e-12 * max(float(np.trace(hess)) / p, 1e-300)
        try:
            step = -cho_solve(cho_factor(hess + ridge * np.eye(p), lower=True), grad)
        except np.linalg.LinAlgError:
            step = None
        if step is None or float(grad @ step) >= 0.0:
            # fall back to a plain gradient step with the global Lipschitz bound
            step = -grad / ell
        slope = float(grad @ step)
        value = 0.5 * float((weights * s) @ s)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            s_trial = f @ (u + alpha * step) - t_col
            w_trial = np.where(s_trial > 0.0, 1.0, eps)
            if 0.5 * float((w_trial * s_trial) @ s_trial) <= value + ARMIJO_SLOPE * alpha * slope:
                break
            alpha *= 0.5
        u = u + alpha * step
        s = s_trial
    weights = np.where(s > 0.0, 1.0, eps)
    grad = f.T @ (weights * s)
    return u, budget, float(np.abs(grad).max(initial=0.0)) <= tol


def _polish_column(f, t_col, u):
    """Snap a near-feasible minimizer onto the active face exactly.

    The tie-break curvature along the zero-residual face is only
    BACK_WEIGHT-sized, so Newton termination can leave the point wandering
    a few orders of magnitude above machine precision while the gradient
    test already passes. Re-fitting the rows at or above the surface by
    plain least squares collapses that wander; the step is kept only when
    the positive-part energy does not grow. The one-sided optimum is the
    global minimizer of that energy, so any move that trades it away (as
    a symmetric refit on genuinely mixed-sign residuals would) gets
    rejected, making the polish a no-op on noisy data.
    """
    scale = max(1.0, float(np.abs(t_col).max(initial=0.0)))
    for _ in range(2):
        s = f @ u - t_col
        pos = np.maximum(s, 0.0)
        energy = float(pos @ pos)
        band = max(1e-8 * scale, 10.0 * float(pos.max(initial=0.0)))
        active = s >= -band
        if not active.any() or active.sum() < f.shape[1]:
            return u
        sol, *_ = np.linalg.lstsq(f[active], t_col[active], rcond=None)
        pos_new = np.maximum(f @ sol - t_col, 0.0)
        if float(pos_new @ pos_new) <= energy + 1e-12 * scale * scale:
            u = sol
        else:
            return u
    return u


def solve_separable_ls(
    design: np.ndarray,
    targets: np.ndarray,
    back_weight: float = BACK_WEIGHT,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Minimize 1/2 ||design @ u_j + w_j - t_j||^2 with w_j >= 0, per column.

    Returns (coeffs (p x k), nonneg (n x k), info). ``coeffs`` stacks the
    free-block solutions u_j as columns; ``nonneg`` holds the eliminated
    slacks max(t_j - F u_j, 0), which satisfy their sign constraint and
    complementarity exactly by construction. Raises SolverFailedError when
    some column's Newton iteration ends without meeting the KKT tolerance.

    ``back_weight`` is the tie-break strength. Callers that must stay
    essentially on the constraint surface keep the default; callers whose
    downstream correction prefers a landing point deeper toward the
    least-squares fit may raise it.
    """
    f = np.asarray(design, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    n, p = f.shape
    k = t.shape[1]
    gram = f.T @ f
    ridge = 1e-13 * max(np.trace(gram) / max(p, 1), 1e-300)
    factor = cho_factor(gram + ridge * np.eye(p), lower=True)
    ell = max(float(np.linalg.eigvalsh(gram)[-1]), 1e-12)

    grad0 = f.T @ t
    tol = 1e-10 * max(1.0, float(np.abs(grad0).max(initial=0.0)))

    coeffs = np.zeros((p, k))
    iterations = 0
    converged = True
    # plain least-squares fits make good warm starts: the residual is already
    # balanced around zero, so the initial active set is close to final
    warm = cho_solve(factor, grad0)
    for j in range(k):
        u, used, ok = _newton_column(f, t[:, j], warm[:, j], ell, tol, NEWTON_BUDGET, back_weight)
        if back_weight <= 1e-9:
            u = _polish_column(f, t[:, j], u)
        coeffs[:, j] = u
        iterations = max(iterations, used)
        converged = converged and ok
    if not converged:
        raise SolverFailedError(
            f"split least squares did not converge in {iterations} iterations "
            f"(KKT tolerance {tol:.1e})"
        )
    nonneg = np.maximum(t - f @ coeffs, 0.0)
    info = {"iterations": iterations, "converged": converged, "kkt_tol": tol}
    return coeffs, nonneg, info
