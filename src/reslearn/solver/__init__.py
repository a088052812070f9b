"""Convex-program engines for the layer programs.

Both layers pose one row program over a design F and a target column t.
``row_lp`` builds its feasibility run and ``row_slack_lp`` its soft LP,
which the ``soft`` flag marks: every row may be missed at weight 1/n, and
no slack column is stored. ``simplex.solve_lp`` takes those two LP shapes
and works over a basis of at most p tight rows: a dual active-set method
with Farkas certificates, then a long-step primal descent on a soft LP
where that method ends on a ray. ``split_ls.solve_separable_ls`` solves
the QP route's row program in its eliminated least-squares form by
semismooth Newton.
"""

from .simplex import solve_lp
from .types import (
    LpProblem,
    SolveReport,
    SolveStatus,
    row_lp,
    row_slack_lp,
)

__all__ = [
    "LpProblem",
    "SolveReport",
    "SolveStatus",
    "row_lp",
    "row_slack_lp",
    "solve_lp",
]
