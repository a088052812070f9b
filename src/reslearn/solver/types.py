"""Problem descriptions, the layer row programs, and the LP engine's report.

``LpProblem`` holds the rows  ineq_lhs @ u >= ineq_rhs  over free u. Without
``soft`` it is a feasibility system: any u that satisfies every row will do.
With ``soft`` set, every row may be missed by a slack zeta_i >= 0,
ineq_lhs @ u + zeta >= ineq_rhs, and the answer is a feasible point if one
exists, else the point whose mean slack 1/n sum zeta is least; the slacks
are implied by the flag and never stored.

Both layers pose their row programs over an n x p design F and a target
column t of length n, with the p free coefficients u first in every
variable vector:

* ``row_lp``:        F u <= t  (a feasibility run);
* ``row_slack_lp``:  F u - zeta <= t, zeta >= 0, least mean slack
  (``row_lp`` with ``soft`` set: a feasible u when there is one).

Layer 2 poses them with F = -Y and t = -x_j (so C y >= x), layer 1 with
F = X and t = h_j (so A x <= h). The QP route poses its row program over
the same (F, t) and solves it only in the eliminated least-squares form of
``split_ls``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import DimensionMismatchError, NonFiniteError
from ..numerics import Mat, as_matrix


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_TROUBLE = "numerical_trouble"


@dataclass(frozen=True)
class LpProblem:
    """The rows  ineq_lhs @ u >= ineq_rhs  over free u: a feasibility system.

    A ``soft`` LP adds one slack per row, ineq_lhs @ u + zeta >= ineq_rhs,
    zeta >= 0, and asks for the least mean slack: its variables are
    [u | zeta], so ``n_vars`` counts p + n. ``solve_lp`` always ends it at
    that least slack, on a verified Farkas ray or not: it is never
    infeasible, and a nonzero dual means the least slack is positive.
    """

    ineq_lhs: Mat
    ineq_rhs: np.ndarray
    soft: bool = False

    def __post_init__(self):
        lhs = as_matrix(self.ineq_lhs, "ineq_lhs")
        if lhs.shape[0] < 1:
            raise DimensionMismatchError("need at least one inequality row")
        rhs = np.asarray(self.ineq_rhs, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(rhs)):
            raise NonFiniteError("ineq_rhs contains non-finite entries")
        if rhs.shape[0] != lhs.shape[0]:
            raise DimensionMismatchError(
                f"ineq_rhs has length {rhs.shape[0]}, expected {lhs.shape[0]}")
        object.__setattr__(self, "ineq_lhs", lhs)
        object.__setattr__(self, "ineq_rhs", rhs)

    @property
    def n_vars(self) -> int:
        return self.ineq_lhs.shape[1] + (self.n_rows if self.soft else 0)

    @property
    def n_rows(self) -> int:
        return self.ineq_lhs.shape[0]

    def max_violation(self, v: np.ndarray) -> float:
        """Largest constraint violation of v (0 when feasible)."""
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        p = self.ineq_lhs.shape[1]
        gap = self.ineq_rhs - self.ineq_lhs @ v[:p]
        if self.soft:  # a row's slack closes its gap and is itself >= 0
            gap = np.maximum(gap - v[p:], -v[p:])
        return max(float(gap.max(initial=0.0)), 0.0)


def row_lp(design: Mat, target: np.ndarray) -> LpProblem:
    """Feasibility system F u <= t over free u, as -F u >= -t."""
    return LpProblem(ineq_lhs=-design, ineq_rhs=-target)


def row_slack_lp(design: Mat, target: np.ndarray) -> LpProblem:
    """F u - zeta <= t over [u (p, free) | zeta (n, >= 0)], least mean slack:
    ``row_lp``'s point, its slacks 0 up to rounding, when the dual method
    finds F u <= t feasible, else the descent's, on any ray."""
    return LpProblem(ineq_lhs=-design, ineq_rhs=-target, soft=True)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one LP solve.

    ``iterations`` counts the steps of both methods (see ``simplex``): the
    dual method, one row swap in the tight-row basis per step, and, on a
    soft LP where that method ends on a ray, verified or not, the primal
    descent after it, one per edge however many breakpoints the edge passes.
    ``objective_value`` is 0 for a feasibility run and the mean slack
    1/n sum zeta for a soft LP (nan when infeasible). ``dual`` carries the
    multipliers of the inequality rows on optimal runs: all zero for a
    feasibility run and for a soft LP whose dual method finds a feasible
    vertex; otherwise lam_T on the tight rows, the weight 1/n on rows past
    their bound and 0 elsewhere, except where the descent stops at zero
    slack: there the dual is all zero, and rows missed by at most the
    breakpoint tolerance count as on their bound. A soft LP's nonzero dual
    thus means positive least slack, and is its own proof that the rows are
    infeasible. ``certificate`` is only set on infeasible runs, which only
    feasibility runs have: a verified ray lam >= 0 with lhs' lam = 0 and
    rhs . lam > 0, proving that no feasible point exists.
    ``simplex.solve_lp`` is the only code that builds a report.
    """

    point: np.ndarray
    objective_value: float
    max_infeasibility: float
    iterations: int
    status: SolveStatus
    dual: np.ndarray | None = None
    certificate: np.ndarray | None = None
    message: str = ""
