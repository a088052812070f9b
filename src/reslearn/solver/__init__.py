"""Convex-program engines for the layer programs.

``simplex.solve_lp`` is a bounded dual active-set method over a basis of at
most m tight rows, with soft rows for the slack columns and Farkas
certificates (the LP and slack-LP routes). ``split_ls.solve_separable_ls``
solves the QP route's eliminated least-squares form by semismooth Newton;
``QpProblem`` keeps the assembled PSD QP that the layer builders produce,
against whose KKT conditions the eliminated solutions are checked.
"""

from .simplex import solve_lp
from .types import (
    LpProblem,
    QpProblem,
    SolveReport,
    SolveStatus,
)

__all__ = [
    "LpProblem",
    "QpProblem",
    "SolveReport",
    "SolveStatus",
    "solve_lp",
]
