"""Shared test plumbing: a collected pass/fail line per acceptance run, the
check of the eliminated QP solver against the assembled row QP, and the
HiGHS form of an LP."""

import numpy as np
from scipy.optimize import lsq_linear

from reslearn.numerics import is_psd
from reslearn.solver import row_qp
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


def split_ls_on_assembled(design, target, back_weight):
    """Solve one layer row QP the way the learners do and measure it.

    The QP is ``row_qp(design, target)``:  min 1/2n ||design u + w - target||^2
    over (u free, w >= 0), the form both layers pose. The point comes from
    ``solve_separable_ls`` on the eliminated form; its KKT residuals are
    read through the assembled gradient g = hessian @ v + linear, and its
    objective is compared with scipy's bounded-variable least squares on
    [design | I].

    Returns a dict: ``psd`` (whether the assembled Hessian is PSD),
    ``sign`` (most negative g on the bounded block, as a nonnegative
    number), ``complementarity`` (largest |v_i g_i| there),
    ``stationarity`` (largest |g| on the free block over max(1, |q|_inf)),
    ``objective`` (the split point's) and ``bvls_gap`` (``objective`` minus
    the BVLS objective).
    """
    prob = row_qp(design, target)
    n, p = design.shape
    coeffs, nonneg, _ = solve_separable_ls(design, target.reshape(-1, 1), back_weight=back_weight)
    v = np.concatenate([coeffs[:, 0], nonneg[:, 0]])
    grad = prob.hessian @ v + prob.linear
    bounded = list(prob.nonneg_vars)
    ref = lsq_linear(
        np.hstack([design, np.eye(n)]), target,
        bounds=(np.concatenate([np.full(p, -np.inf), np.zeros(n)]), np.inf),
        method="bvls",
    )
    objective = prob.objective(v)
    return {
        "psd": is_psd(prob.hessian),
        "sign": max(0.0, -float(grad[bounded].min())),
        "complementarity": float(np.abs(v[bounded] * grad[bounded]).max()),
        "stationarity": float(np.abs(grad[:p]).max())
        / max(1.0, float(np.abs(prob.linear).max())),
        "objective": objective,
        "bvls_gap": objective - prob.objective(ref.x),
    }


def linprog_args(problem):
    """``scipy.optimize.linprog`` arguments for a hard or soft ``LpProblem``.

    A hard-row LP keeps its free columns. A soft LP gets its n slacks as
    explicit columns [u | zeta], zeta >= 0 at cost 1/n each, so HiGHS's
    point lines up with the report's.
    """
    lhs, rhs = problem.ineq_lhs, problem.ineq_rhs
    n, p = lhs.shape
    if not problem.soft:
        return {"c": problem.objective, "A_ub": -lhs, "b_ub": -rhs, "bounds": [(None, None)] * p}
    return {"c": np.concatenate([problem.objective, np.full(n, 1.0 / n)]),
            "A_ub": -np.hstack([lhs, np.eye(n)]), "b_ub": -rhs,
            "bounds": [(None, None)] * p + [(0, None)] * n}
