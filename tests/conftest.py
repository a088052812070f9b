"""Shared test plumbing: a collected pass/fail line per acceptance run, the
assembled row QP and the check of the eliminated QP solver against it, the
HiGHS form of an LP, and the one-column reference of ``origin_fits``."""

import numpy as np
from scipy.optimize import lsq_linear

from reslearn.solver.split_ls import solve_separable_ls

ACCEPTANCE_LINES = []


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append((number, f"ACCEPTANCE {number}: {verdict} {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance summary")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def assembled_row_qp(design, target):
    """(hessian, linear, constant) of the row QP both layers pose,
    min 1/2n ||design u + w - target||^2 over v = [u (p, free) | w (n, >= 0)],
    as 1/2 v' hessian v + linear . v + constant.

    The Hessian (1/n) [F | I]'[F | I] depends only on the design. The
    constant makes the value the modeled risk: zero at a perfect noiseless
    fit.
    """
    n = design.shape[0]
    top = np.hstack([design.T @ design, design.T])
    bot = np.hstack([design, np.eye(n)])
    linear = np.concatenate([-design.T @ target, -target]) / n
    return np.vstack([top, bot]) / n, linear, float(target @ target) / (2 * n)


def split_ls_on_assembled(design, target, back_weight):
    """Solve one layer row QP the way the learners do and measure it.

    The QP is ``assembled_row_qp(design, target)``. The point comes from
    ``solve_separable_ls`` on the eliminated form; its KKT residuals are
    read through the assembled gradient g = hessian @ v + linear, and its
    value is compared with scipy's bounded-variable least squares on
    [design | I].

    Returns a dict: ``psd`` (whether the assembled Hessian's least
    eigenvalue is >= -1e-8 times its largest entry), ``sign`` (most negative
    g on the bounded block, as a nonnegative number), ``complementarity``
    (largest |v_i g_i| there), ``stationarity`` (largest |g| on the free
    block over max(1, |q|_inf)), ``objective`` (the split point's value) and
    ``bvls_gap`` (``objective`` minus the BVLS value).
    """
    hessian, linear, constant = assembled_row_qp(design, target)
    n, p = design.shape
    coeffs, nonneg, _ = solve_separable_ls(design, target.reshape(-1, 1), back_weight=back_weight)
    v = np.concatenate([coeffs[:, 0], nonneg[:, 0]])
    grad = hessian @ v + linear
    ref = lsq_linear(
        np.hstack([design, np.eye(n)]), target,
        bounds=(np.concatenate([np.full(p, -np.inf), np.zeros(n)]), np.inf),
        method="bvls",
    )

    def value(point):
        return float(0.5 * point @ hessian @ point + linear @ point + constant)

    objective = value(v)
    return {
        "psd": bool(np.linalg.eigvalsh(hessian).min() >= -1e-8 * np.abs(hessian).max()),
        "sign": max(0.0, -float(grad[p:].min())),
        "complementarity": float(np.abs(v[p:] * grad[p:]).max()),
        "stationarity": float(np.abs(grad[:p]).max()) / max(1.0, float(np.abs(linear).max())),
        "objective": objective,
        "bvls_gap": objective - value(ref.x),
    }


def linprog_args(problem):
    """``scipy.optimize.linprog`` arguments for a feasibility run or a soft
    ``LpProblem``.

    A feasibility run keeps its free columns, at cost 0. A soft LP gets its
    n slacks as explicit columns [u | zeta], zeta >= 0 at cost 1/n each, so
    HiGHS's point lines up with the report's.
    """
    lhs, rhs = problem.ineq_lhs, problem.ineq_rhs
    n, p = lhs.shape
    if not problem.soft:
        return {"c": np.zeros(p), "A_ub": -lhs, "b_ub": -rhs, "bounds": [(None, None)] * p}
    return {"c": np.concatenate([np.zeros(p), np.full(n, 1.0 / n)]),
            "A_ub": -np.hstack([lhs, np.eye(n)]), "b_ub": -rhs,
            "bounds": [(None, None)] * p + [(0, None)] * n}


def origin_fit(x, y):
    """Through-origin regression of ``y`` on ``x``, one column at a time:
    the slope, or None when ``x @ x`` is not positive (no slope defined).
    The reference for ``numerics.origin_fits``."""
    denom = float(x @ x)
    return None if denom <= 0.0 else float(x @ y) / denom
