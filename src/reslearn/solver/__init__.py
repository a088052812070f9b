"""Convex-program engines for the layer programs.

Both layers pose one row program over a design F and a target column t,
built by ``row_qp``, ``row_lp`` and ``row_slack_lp``. ``simplex.solve_lp``
takes the two LP shapes those pose and works over a basis of at most p
tight rows: a dual active-set method with Farkas certificates on hard-row
LPs (the feasibility runs of both LP routes), and a long-step primal
descent on soft LPs, which ``row_slack_lp`` marks with ``soft``: every row
may be missed at weight 1/n, and no slack column is stored.
``split_ls.solve_separable_ls`` solves the QP route's eliminated
least-squares form by semismooth Newton; ``row_qp`` assembles the PSD QP
against whose KKT conditions the eliminated solutions are checked.
"""

from .simplex import solve_lp
from .types import (
    LpProblem,
    QpProblem,
    SolveReport,
    SolveStatus,
    row_lp,
    row_qp,
    row_slack_lp,
)

__all__ = [
    "LpProblem",
    "QpProblem",
    "SolveReport",
    "SolveStatus",
    "row_lp",
    "row_qp",
    "row_slack_lp",
    "solve_lp",
]
