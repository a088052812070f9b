"""Problem descriptions, the layer row programs, and the LP engine's report.

Conventions used throughout the solver package:

* ``LpProblem`` encodes  min objective . v  subject to  ineq_lhs @ v >= ineq_rhs,
  with the variables listed in ``nonneg_vars`` additionally constrained >= 0
  and all remaining variables free. ``solve_lp`` takes two shapes of it: a
  hard-row LP, with no nonnegative variables (an all-zero objective makes
  it a pure feasibility run), and a slack LP, as ``row_slack_lp`` builds.
* ``QpProblem`` encodes  min 1/2 v' H v + q . v  subject to v_i >= 0 for the
  indices in ``nonneg_vars``; there are no general linear constraints because
  the layer programs only ever bound the slack block.

Both layers pose one row program over an n x p design F and a target
column t of length n, with the p free coefficients u first in every
variable vector:

* ``row_qp``:        min 1/2n ||F u + w - t||^2  over (u, w >= 0);
* ``row_lp``:        F u <= t  (a feasibility run);
* ``row_slack_lp``:  min 1/n sum zeta  s.t.  F u - zeta <= t, zeta >= 0.

Layer 2 poses them with F = -Y and t = -x_j (so C y >= x), layer 1 with
F = X and t = h_j (so A x <= h). The learners solve ``row_qp`` only in its
eliminated least-squares form (``split_ls``); the assembled QP is what
those solutions are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import DimensionMismatchError, NonFiniteError
from ..numerics import Mat, as_matrix, is_psd


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_TROUBLE = "numerical_trouble"


def _as_vector(value, name: str, length: int | None = None) -> np.ndarray:
    vec = np.asarray(value, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    if length is not None and vec.shape[0] != length:
        raise DimensionMismatchError(f"{name} has length {vec.shape[0]}, expected {length}")
    return vec


def _check_indices(indices, n_vars: int, name: str) -> tuple[int, ...]:
    index = np.fromiter(indices, dtype=np.int64)
    outside = (index < 0) | (index >= n_vars)
    if outside.any():
        raise ValueError(f"{name} index {index[outside][0]} out of range for {n_vars} variables")
    if index.size and np.bincount(index).max() > 1:
        raise ValueError(f"{name} contains duplicate indices")
    return tuple(index.tolist())


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 v' hessian v + linear . v + constant, s.t. v[i] >= 0 for i in
    nonneg_vars.

    ``constant`` carries the data-dependent offset of least-squares
    objectives so that objective_value matches the modeled risk (zero at a
    perfect noiseless fit) instead of a shifted copy of it.
    """

    hessian: Mat
    linear: np.ndarray
    nonneg_vars: tuple[int, ...] = ()
    constant: float = 0.0

    def __post_init__(self):
        h = as_matrix(self.hessian, "hessian")
        if h.shape[0] != h.shape[1]:
            raise DimensionMismatchError(f"hessian must be square, got {h.shape}")
        if not is_psd(h, tol=1e-8):
            raise ValueError("hessian is not positive semidefinite within 1e-8")
        q = _as_vector(self.linear, "linear", h.shape[0])
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "linear", q)
        object.__setattr__(
            self, "nonneg_vars", _check_indices(self.nonneg_vars, h.shape[0], "nonneg_vars")
        )

    @property
    def n_vars(self) -> int:
        return self.hessian.shape[0]

    def objective(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        return float(0.5 * v @ self.hessian @ v + self.linear @ v + self.constant)


@dataclass(frozen=True)
class LpProblem:
    """min objective . v  s.t.  ineq_lhs @ v >= ineq_rhs, v[nonneg_vars] >= 0."""

    objective: np.ndarray
    ineq_lhs: Mat
    ineq_rhs: np.ndarray
    nonneg_vars: tuple[int, ...] = ()

    def __post_init__(self):
        lhs = as_matrix(self.ineq_lhs, "ineq_lhs")
        if lhs.shape[0] < 1:
            raise DimensionMismatchError("need at least one inequality row")
        obj = _as_vector(self.objective, "objective", lhs.shape[1])
        rhs = _as_vector(self.ineq_rhs, "ineq_rhs", lhs.shape[0])
        object.__setattr__(self, "ineq_lhs", lhs)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "ineq_rhs", rhs)
        object.__setattr__(
            self, "nonneg_vars", _check_indices(self.nonneg_vars, lhs.shape[1], "nonneg_vars")
        )

    @property
    def n_vars(self) -> int:
        return self.ineq_lhs.shape[1]

    @property
    def n_rows(self) -> int:
        return self.ineq_lhs.shape[0]

    def max_violation(self, v: np.ndarray) -> float:
        """Largest constraint violation of v (0 when feasible)."""
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        gap = self.ineq_rhs - self.ineq_lhs @ v
        worst = float(gap.max(initial=0.0))
        if self.nonneg_vars:
            worst = max(worst, float(-v[list(self.nonneg_vars)].min(initial=0.0)))
        return max(worst, 0.0)


def row_qp(design: Mat, target: np.ndarray) -> QpProblem:
    """min 1/2n ||F u + w - t||^2 over [u (p, free) | w (n, >= 0)].

    The Hessian (1/n) [F | I]'[F | I] depends only on the design, so every
    row of one layer shares it. ``constant`` makes the objective the
    modeled risk: zero at a perfect noiseless fit.
    """
    n, p = design.shape
    top = np.hstack([design.T @ design, design.T])
    bot = np.hstack([design, np.eye(n)])
    return QpProblem(
        hessian=np.vstack([top, bot]) / n,
        linear=np.concatenate([-design.T @ target, -target]) / n,
        nonneg_vars=tuple(range(p, p + n)),
        constant=float(target @ target) / (2 * n),
    )


def row_lp(design: Mat, target: np.ndarray) -> LpProblem:
    """Feasibility system F u <= t over free u, as -F u >= -t."""
    return LpProblem(objective=np.zeros(design.shape[1]), ineq_lhs=-design, ineq_rhs=-target)


def row_slack_lp(design: Mat, target: np.ndarray) -> LpProblem:
    """min 1/n sum zeta over [u (p, free) | zeta (n, >= 0)], F u - zeta <= t."""
    n, p = design.shape
    lhs = np.zeros((n, p + n))
    np.negative(design, out=lhs[:, :p])
    np.fill_diagonal(lhs[:, p:], 1.0)
    return LpProblem(
        objective=np.concatenate([np.zeros(p), np.full(n, 1.0 / n)]),
        ineq_lhs=lhs,
        ineq_rhs=-target,
        nonneg_vars=tuple(range(p, p + n)),
    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one LP solve.

    ``iterations`` counts the steps of the method that ran (see
    ``simplex``). For a hard-row LP that is the dual method: one row swap
    in the tight-row basis per step. For a slack LP it is the primal
    descent: one per edge, however many breakpoints the edge passes.
    ``dual`` carries the multipliers of the inequality rows (set on optimal
    runs; all zero for a zero-objective feasibility run): lam_T on the
    tight rows, a soft row's weight on rows past their bound, 0 elsewhere.
    ``certificate`` is only set on infeasible runs, which only hard-row LPs
    (every variable free) have: a ray lam >= 0 with lhs' lam = 0 and
    rhs . lam > 0, proving that no feasible point exists.
    """

    point: np.ndarray
    objective_value: float
    max_infeasibility: float
    iterations: int
    status: SolveStatus
    dual: np.ndarray | None = None
    certificate: np.ndarray | None = None
    message: str = ""
