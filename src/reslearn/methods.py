"""Learning-method names shared by the layer learners, harness, and CLI.

The names are defined here and nowhere else: the convex methods come from
``ConvexMethod`` and the two reference learners follow them.
"""

from __future__ import annotations

from enum import Enum

from .errors import InvalidInputError


class ConvexMethod(str, Enum):
    """How a layer's convex program is posed and solved.

    QP minimizes the empirical risk jointly over weights and nonnegative
    function estimates. LP drops the objective and returns any feasible
    weight matrix. SLACK_LP softens the feasibility system with L1-penalized
    slacks, the intended form for noisy labels. Layer 1 of a slack-lp fit
    takes the QP route once a layer-2 slack LP proves its row infeasible,
    and the LP route otherwise, where its own slack LP's minimum lies.
    """

    QP = "qp"
    LP = "lp"
    SLACK_LP = "slack-lp"

    @classmethod
    def parse(cls, value) -> "ConvexMethod":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise InvalidInputError(
                f"unknown method {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


CONVEX_METHODS = tuple(m.value for m in ConvexMethod)
BASELINE_METHODS = ("sgd", "vanilla-lr")
ALL_METHODS = CONVEX_METHODS + BASELINE_METHODS
