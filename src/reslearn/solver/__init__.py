"""Convex-program engines for the layer programs.

``simplex.solve_lp`` is a two-phase dictionary simplex with Farkas certificates
(the LP and slack-LP routes). ``split_ls.solve_separable_ls`` solves the QP
route's eliminated least-squares form by semismooth Newton. ``admm.solve_qp``
is a general operator-splitting QP engine kept as the reference that the
split solver is checked against.
"""

from .admm import solve_qp
from .simplex import solve_lp
from .types import (
    LpProblem,
    QpProblem,
    SolveReport,
    SolveStatus,
    SolverConfig,
)

__all__ = [
    "LpProblem",
    "QpProblem",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "solve_lp",
    "solve_qp",
]
