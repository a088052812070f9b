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
residual, turning the objective into an asymmetric least squares (Newey
and Powell's expectile loss) that is strictly convex with a unique
minimizer: essentially the zero-residual point whose eliminated slack has
the smallest norm, at the cost of an order-BACK_WEIGHT bias that is far
below every tolerance used downstream.

The smaller the weight, the flatter that minimizer's back side, and the
more damped Newton steps a start at the least-squares fit needs to reach
it. A decreasing tuple of weights is solved by continuation: one stage
per weight, each warm-started from the stage before, the last weight the
objective's. Every stage stops at the same KKT tolerance, KKT_TOL times
the largest entry of F^T t. The returned point is fixed by the data
only as far as that stop resolves it: on twelve layer-1 calls at
d=16, n=512 and back weight 1e-6, one stage and the two-stage schedule
(1e-3, 1e-6) land within 1e-9 relative of each other and of a solve
stopped at 1e-14, where a stop at 1e-10 left the path showing at 5e-5.

This is an algebraic shortcut, not a different model: its solutions lie in
the optimum set of the assembled QP  min 1/2n ||F u + w - t||^2  over
(u, w >= 0) for either layer's design. The test suite assembles that QP
(``assembled_row_qp`` in ``tests/conftest.py``) and checks the solutions on
shared instances through its KKT conditions and against an external
bounded-variable least-squares solve of [F | I].

The batched interface solves one column per right-hand side. The columns
share the warm start's Cholesky factor of the ridged Gram matrix (numpy's
LAPACK, like every other dense solve in the package), the KKT tolerance
(relative to the largest entry of F^T t over all columns, with no
absolute floor, so a rescaled problem takes the same steps) and the
Newton loop of each stage: every column still running takes its
iteration in the same pass, and a column leaves the live set once it
converges. Each column's own rules are those of a one-column run: Newton
step, or a gradient step when the step fails or does not descend; Armijo
backtracking from alpha = 1; its own stop.

Cost model for an n x p design and k columns. Once per call, whatever
the number of stages: the p x p Gram matrix and its factorization, and
the n x p(p+1)/2 row products f_a * f_b (a <= b), the only memory beyond
O((n + p^2) k). Per iteration, for the r live columns: one
(r x n) @ (n x p(p+1)/2) product for all Hessians, one batched p x p
solve, and O(r n) work per backtracking round for the columns whose step
is still pending.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, SolverFailedError
from ..numerics import as_matrix

NEWTON_BUDGET = 200
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
BACK_WEIGHT = 1e-10
KKT_TOL = 1e-12


def _row_products(f):
    """Upper-triangle products f[:, a] * f[:, b] (a <= b), one column each.

    Columns follow ``np.triu_indices(p)`` order, so ``w @ products`` holds
    the upper triangle of the weighted Gram matrix F^T diag(w) F row-major.
    """
    n, p = f.shape
    products = np.empty((n, p * (p + 1) // 2))
    start = 0
    for a in range(p):
        np.multiply(f[:, a : a + 1], f[:, a:], out=products[:, start : start + p - a])
        start += p - a
    return products


def _newton_steps(hess, grad):
    """Steps -H_j^{-1} g_j for a stack of systems; a singular one gives NaN."""
    try:
        return -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(grad, np.nan)
        for j in range(len(grad)):
            try:
                steps[j] = -np.linalg.solve(hess[j], grad[j])
            except np.linalg.LinAlgError:
                pass
        return steps


def _newton_lockstep(f, t_rows, u0_rows, ell, tol, budget, weights):
    """Minimize the asymmetric squared loss of every column from its warm start.

    Columns are carried as rows here: ``t_rows`` and ``u0_rows`` are (k, n)
    and (k, p). ``weights`` is the back-weight schedule: one stage per
    weight, each started from the points the stage before ended at, all
    sharing the row products and the stop ``tol``. Within a stage, every
    column still running takes its Newton iteration in the same pass; a
    column leaves the live set once its KKT test passes. Returns (u_rows,
    iterations per column summed over the stages, converged per column at
    the last stage).
    """
    p = f.shape[1]
    products = _row_products(f)
    upper = np.triu_indices(p)
    diagonal = np.flatnonzero(upper[0] == upper[1])
    u_rows = u0_rows
    iterations = np.zeros(t_rows.shape[0], dtype=int)
    for eps in weights:
        u_rows, used, converged = _newton_stage(
            f, products, upper, diagonal, t_rows, u_rows, ell, tol, budget, eps
        )
        iterations += used
    return u_rows, iterations, converged


def _newton_stage(f, products, upper, diagonal, t_rows, u0_rows, ell, tol, budget, eps):
    """One stage of ``_newton_lockstep`` at back weight ``eps``."""
    p = f.shape[1]
    k = t_rows.shape[0]
    u_out = u0_rows.copy()
    iterations = np.full(k, budget)
    converged = np.zeros(k, dtype=bool)

    live = np.arange(k)
    u, t = u0_rows, t_rows
    s = u @ f.T - t
    for it in range(budget + 1):
        weights = np.where(s > 0.0, 1.0, eps)
        weighted = weights * s
        grad = weighted @ f
        done = np.abs(grad).max(axis=1, initial=0.0) <= tol
        if it == budget:
            u_out[live] = u
            converged[live] = done
            break
        if done.any():
            u_out[live[done]] = u[done]
            iterations[live[done]] = it
            converged[live[done]] = True
            keep = ~done
            live, u, t, s = live[keep], u[keep], t[keep], s[keep]
            weights, weighted, grad = weights[keep], weighted[keep], grad[keep]
            if not live.size:
                break
        value = 0.5 * np.einsum("ij,ij->i", weighted, s)

        r = live.size
        upper_hess = weights @ products
        ridge = 1e-12 * np.maximum(upper_hess[:, diagonal].sum(axis=1) / p, 1e-300)
        upper_hess[:, diagonal] += ridge[:, None]
        hess = np.empty((r, p, p))
        hess[:, upper[0], upper[1]] = upper_hess
        hess[:, upper[1], upper[0]] = upper_hess
        step = _newton_steps(hess, grad)
        slope = np.einsum("ij,ij->i", grad, step)
        # a failed solve or a non-descent direction falls back to a plain
        # gradient step with the global Lipschitz bound, column by column
        fallback = ~(slope < 0.0)
        if fallback.any():
            step[fallback] = -grad[fallback] / ell
            slope[fallback] = np.einsum("ij,ij->i", grad[fallback], step[fallback])

        # Armijo backtracking from alpha = 1 along the residual direction;
        # each round evaluates only the columns whose step is still pending
        dirn = step @ f.T
        alpha = np.ones(r)
        pending = np.arange(r)
        s_pending, dirn_pending = s, dirn
        for _ in range(MAX_BACKTRACKS):
            s_trial = s_pending + alpha[pending, None] * dirn_pending
            w_trial = np.where(s_trial > 0.0, 1.0, eps)
            trial_value = 0.5 * np.einsum("ij,ij->i", w_trial * s_trial, s_trial)
            bound = value[pending] + ARMIJO_SLOPE * alpha[pending] * slope[pending]
            rejected = ~(trial_value <= bound)
            if not rejected.any():
                break
            if not rejected.all():
                pending = pending[rejected]
                s_pending, dirn_pending = s_pending[rejected], dirn_pending[rejected]
            alpha[pending] *= 0.5
        u = u + alpha[:, None] * step
        s = u @ f.T - t
    return u_out, iterations, converged


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
    scale = float(np.abs(t_col).max(initial=0.0))
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
    back_weight: float | tuple[float, ...] = BACK_WEIGHT,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Minimize 1/2 ||design @ u_j + w_j - t_j||^2 with w_j >= 0, per column.

    Returns (coeffs (p x k), nonneg (n x k), info). ``coeffs`` stacks the
    free-block solutions u_j as columns; ``nonneg`` holds the eliminated
    slacks max(t_j - F u_j, 0), which satisfy their sign constraint and
    complementarity exactly by construction. Raises NonFiniteError on a NaN
    or infinite entry, and SolverFailedError when the Gram matrix of the
    design overflows, when its ridged form is not positive definite, or
    when some column's Newton iteration ends without meeting the KKT
    tolerance.

    ``back_weight`` is the tie-break strength. Callers that must stay
    essentially on the constraint surface keep the default; callers whose
    downstream correction prefers a landing point deeper toward the
    least-squares fit may raise it. A strictly decreasing tuple is a
    continuation schedule: each weight is one stage, warm-started from the
    stage before, and the last weight is the objective's. ``info``'s
    iteration counts sum over the stages.
    """
    weights = back_weight if isinstance(back_weight, tuple) else (back_weight,)
    if not weights or any(a <= b for a, b in zip(weights, weights[1:])):
        raise InvalidInputError(f"back-weight schedule must be strictly decreasing, got {weights}")
    f = as_matrix(design, "design")
    t = as_matrix(targets, "targets")
    n, p = f.shape
    k = t.shape[1]
    # a finite design can still overflow here, and the Cholesky factor of a
    # non-finite Gram matrix may come out NaN without a LinAlgError
    overflow = (
        "the Gram matrix of the design, its factor or its product with the "
        "targets overflows the float range"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        gram = f.T @ f
        grad0 = f.T @ t
        if not (np.isfinite(gram).all() and np.isfinite(grad0).all()):
            raise SolverFailedError(overflow)
        ridge = 1e-13 * max(np.trace(gram) / max(p, 1), 1e-300)
        try:
            chol = np.linalg.cholesky(gram + ridge * np.eye(p))
        except np.linalg.LinAlgError as exc:
            raise SolverFailedError(f"ridged Gram matrix of the design: {exc}") from exc
    if not np.isfinite(chol).all():
        raise SolverFailedError(overflow)
    ell = max(float(np.linalg.eigvalsh(gram)[-1]), 1e-12)
    tol = KKT_TOL * float(np.abs(grad0).max(initial=0.0))

    # plain least-squares fits make good warm starts: the residual is already
    # balanced around zero, so the initial active set is close to final. The
    # solves go through the factor, whose entries scale like F rather than
    # F^T F: an all-zero design's subnormal ridge still leaves them finite.
    warm = np.linalg.solve(chol.T, np.linalg.solve(chol, grad0))
    u_rows, used, ok = _newton_lockstep(f, t.T, warm.T, ell, tol, NEWTON_BUDGET, weights)
    if weights[-1] <= 1e-9:
        for j in range(k):
            u_rows[j] = _polish_column(f, t[:, j], u_rows[j])
    coeffs = np.ascontiguousarray(u_rows.T)
    iterations = int(used.max(initial=0))
    converged = bool(ok.all())
    if not converged:
        raise SolverFailedError(
            f"split least squares did not converge in {iterations} iterations "
            f"(KKT tolerance {tol:.1e})"
        )
    nonneg = np.maximum(t - f @ coeffs, 0.0)
    info = {
        "iterations": iterations,
        "column_iterations": used.tolist(),
        "converged": converged,
        "kkt_tol": tol,
    }
    return coeffs, nonneg, info
