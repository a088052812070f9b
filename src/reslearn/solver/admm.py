"""Operator-splitting solver for QPs whose only constraints are v_i >= 0.

The layer programs all share one shape: minimize a PSD quadratic over a
variable vector whose function-estimate block is nonnegative. The iteration
is the standard over-relaxed ADMM splitting (v-step = regularized linear
solve, z-step = projection onto the nonnegative orthant), followed by an
active-set polish that solves the KKT system of the guessed active set
exactly. The polish matters here: noiseless layer objectives have optimum
zero on a flat face, and the splitting alone stalls at ~1e-6 accuracy while
the polished point is exact to machine precision.

The expensive factorization depends only on the Hessian, so a batch of
problems sharing H (the per-row programs of one layer) is solved
simultaneously with matrix right-hand sides.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import SolverFailedError
from .types import QpProblem, SolveReport, SolveStatus, SolverConfig

RHO = 0.1  # initial penalty
SIGMA = 1e-6  # proximal regularization of the v-step
ALPHA = 1.6  # over-relaxation
MAX_REFACTOR = 10  # adaptive penalty updates allowed per solve
CHECK_INTERVAL = 25  # iterations between residual checks
STAT_TOL = 1e-6  # stationarity tolerance, relative to the linear term
POLISH_ROUNDS = 3


def _factor(hessian: np.ndarray, bounded: np.ndarray, sigma: float, rho: float):
    m = hessian + sigma * np.eye(hessian.shape[0])
    m[bounded, bounded] += rho
    try:
        return cho_factor(m, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - PSD + shift should factor
        raise SolverFailedError(f"cannot factor the regularized KKT matrix: {exc}") from exc


def solve_nonneg_qp_batch(
    hessian: np.ndarray,
    linears: np.ndarray,
    nonneg_vars,
    cfg: SolverConfig | None = None,
) -> tuple[np.ndarray, dict]:
    """Minimize 1/2 v'Hv + q_j.v with v >= 0 on ``nonneg_vars``, for every
    column q_j of ``linears`` at once.

    Returns the solution matrix (one column per problem) and an info dict
    with the iteration count, the final penalty, and the bound multipliers.
    The splitting runs until its residuals pass or ``cfg.max_iter`` is
    spent, and the active-set polish then runs either way; solve_qp judges
    the result by its stationarity residual.
    """
    cfg = cfg or SolverConfig()
    h = np.asarray(hessian, dtype=np.float64)
    q = np.asarray(linears, dtype=np.float64)
    if q.ndim == 1:
        q = q.reshape(-1, 1)
    n, k = q.shape
    bounded = np.asarray(sorted(nonneg_vars), dtype=np.int64)

    if bounded.size == 0:
        # Unconstrained: one regularized solve is exact.
        factor = _factor(h, bounded, SIGMA, 0.0)
        v = cho_solve(factor, -q)
        lam = np.zeros_like(q)
        info = {"iterations": 1, "dual": lam, "rho": 0.0}
        return v, info

    rho = RHO
    factor = _factor(h, bounded, SIGMA, rho)
    v = np.zeros((n, k))
    z = np.zeros((bounded.size, k))
    y = np.zeros((bounded.size, k))
    refactors = 0
    iterations = 0

    q_scale = max(1.0, float(np.abs(q).max()))
    while iterations < cfg.max_iter:
        iterations += 1
        rhs = SIGMA * v - q
        rhs[bounded] += rho * z - y
        v = cho_solve(factor, rhs)
        ev = v[bounded]
        ev_relaxed = ALPHA * ev + (1.0 - ALPHA) * z
        z_prev = z
        z = np.maximum(ev_relaxed + y / rho, 0.0)
        y = y + rho * (ev_relaxed - z)

        if iterations % CHECK_INTERVAL:
            continue
        r_prim = float(np.abs(ev - z).max(initial=0.0))
        r_dual = float(rho * np.abs(z - z_prev).max(initial=0.0))
        v_scale = max(1.0, float(np.abs(ev).max(initial=0.0)), float(np.abs(z).max(initial=0.0)))
        if r_prim <= cfg.feas_tol * v_scale and r_dual <= STAT_TOL * max(1.0, q_scale):
            break
        if refactors < MAX_REFACTOR:
            ratio = (r_prim / max(v_scale, 1e-30)) / max(
                r_dual / max(q_scale, 1e-30), 1e-30
            )
            if ratio > 25.0 or ratio < 0.04:
                rho = float(np.clip(rho * np.sqrt(ratio), 1e-6, 1e6))
                factor = _factor(h, bounded, SIGMA, rho)
                refactors += 1

    v[bounded] = np.maximum(v[bounded], 0.0)
    v = _polish_batch(h, q, bounded, v, cfg)
    lam_b = (h @ v + q)[bounded]
    lam = np.zeros((n, k))
    lam[bounded] = np.maximum(lam_b, 0.0)
    info = {"iterations": iterations, "dual": lam, "rho": rho}
    return v, info


def _polish_batch(
    hessian: np.ndarray,
    q: np.ndarray,
    bounded: np.ndarray,
    v: np.ndarray,
    cfg: SolverConfig,
) -> np.ndarray:
    """Refine each column by solving the equality-KKT system of its active set.

    A bounded coordinate is guessed active when the splitting left it at
    (numerical) zero. The reduced Newton system is exact for a quadratic, so
    one solve per round suffices; rounds only repeat when the guess put a
    coordinate on the wrong side.
    """
    n, k = q.shape
    out = v.copy()
    for col in range(k):
        vc = v[:, col]
        grad_scale = max(1.0, float(np.abs(q[:, col]).max()))
        active = np.zeros(n, dtype=bool)
        active[bounded] = vc[bounded] <= 1e-6 * max(1.0, float(np.abs(vc).max()))
        best = vc
        best_obj = 0.5 * vc @ hessian @ vc + q[:, col] @ vc
        for _ in range(POLISH_ROUNDS):
            free = ~active
            h_ff = hessian[np.ix_(free, free)]
            h_ff = h_ff + (1e-12 * max(1.0, np.trace(h_ff) / max(1, h_ff.shape[0]))) * np.eye(
                h_ff.shape[0]
            )
            try:
                sol_f = np.linalg.solve(h_ff, -q[free, col])
            except np.linalg.LinAlgError:
                break
            cand = np.zeros(n)
            cand[free] = sol_f
            bounded_mask = np.zeros(n, dtype=bool)
            bounded_mask[bounded] = True
            below = bounded_mask & free & (cand < -cfg.feas_tol * grad_scale)
            lam = hessian @ cand + q[:, col]
            wrong_sign = active & (lam < -STAT_TOL * grad_scale)
            if not below.any() and not wrong_sign.any():
                cand[bounded_mask] = np.maximum(cand[bounded_mask], 0.0)
                obj = 0.5 * cand @ hessian @ cand + q[:, col] @ cand
                if obj <= best_obj + 1e-12 * (1.0 + abs(best_obj)):
                    best = cand
                break
            active = (active | below) & ~wrong_sign
        out[:, col] = best
    return out


def solve_qp(problem: QpProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve one QpProblem; see solve_nonneg_qp_batch for the engine."""
    cfg = cfg or SolverConfig()
    try:
        v, info = solve_nonneg_qp_batch(
            problem.hessian, problem.linear.reshape(-1, 1), problem.nonneg_vars, cfg
        )
    except SolverFailedError as exc:
        zero = np.zeros(problem.n_vars)
        return SolveReport(
            point=zero,
            objective_value=problem.objective(zero),
            max_infeasibility=0.0,
            iterations=0,
            status=SolveStatus.NUMERICAL_TROUBLE,
            message=str(exc),
        )
    point = v[:, 0]
    lam = info["dual"][:, 0]
    idx = list(problem.nonneg_vars)
    infeas = float(max(0.0, -point[idx].min(initial=0.0)))
    grad = problem.hessian @ point + problem.linear
    stat = grad.copy()
    stat[idx] -= lam[idx]
    stat_resid = float(np.abs(stat).max(initial=0.0))
    scale = max(1.0, float(np.abs(problem.linear).max()))
    ok = stat_resid <= 10.0 * STAT_TOL * scale
    status = SolveStatus.OPTIMAL if ok else SolveStatus.ITERATION_LIMIT
    return SolveReport(
        point=point,
        objective_value=problem.objective(point),
        max_infeasibility=infeas,
        iterations=info["iterations"],
        status=status,
        dual=lam,
        message=f"rho={info['rho']:.3g}",
    )
