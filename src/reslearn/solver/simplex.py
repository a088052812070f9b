"""Two active-set methods for the package's two LP shapes, on one reduced form.

``solve_lp`` takes  min objective . v  s.t.  lhs @ v >= rhs,  v[nonneg] >= 0
in one of two shapes, and raises ``LpShapeError`` before any step on others:

* a hard-row LP has no nonnegative variables and any objective: a zero one
  is a ``row_lp`` feasibility run, a nonzero one a min/max of c_j;
* a slack LP (``row_slack_lp``) gives every row exactly one nonnegative unit
  column, with a positive entry and a positive cost, and its free columns
  cost 0. The slack leaves v and its row becomes soft, weight cost / entry.

Both reduce to  min g . c + sum_i w_i (b_i - a_i . c)^+  over free c, with
w = inf on every row of a hard-row LP and g = 0 in a slack LP. The layer LPs
have m <= 16 free coefficients and n = 400-512 rows. Both methods keep
p <= m tight rows T, A_T c = b_T, and the set U of rows past their bound;
the multipliers of T solve A_T' lam_T = g - A_U' w_U. The dual of the
reduced form is  max b . lam  s.t.  A' lam = g,  0 <= lam <= w.

Dual method (Lemke's), for hard-row LPs: lam_T >= 0 and U is empty. Each
step enters the most violated other row r; raising lam_r from 0 by t moves
lam_T by -t A_T^-T a_r, and the ratio test swaps r for the first basic row
whose multiplier reaches 0, ties going to the largest pivot. A row with
nothing in reach gives the Farkas ray lam_r = 1, lam_T = -A_T^-T a_r.

Primal descent (Barrodale & Roberts' L1 descent; Koenker & d'Orey, AS 229),
for slack LPs: c stays a vertex and the objective never rises. Each step
releases the tight row k whose lam_k is furthest outside [0, w_k] along the
edge A_T d = +e_k (into its satisfied side, slope lam_k) or -e_k (past its
bound, slope w_k - lam_k). The breakpoints tau_i = -r_i / (a_i . d) of the
rows that cross on that edge are passed in order while the slope plus
w_i |a_i . d| stays negative, each toggling its row in U; the row where the
slope turns replaces T[k]. U is state the steps update: read back off
residual signs, rounding re-admits rows and the objective can rise and
cycle. After BLAND_AFTER zero-length steps in a row a step releases the
lowest-numbered row and stops at the first breakpoint, lowest-numbered on
ties (Bland's rule for the LP with split residuals), which ends degenerate
runs. An edge whose slope never turns is reported as an unbounded objective.

Start (a crash basis, as in Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 1992): columns take rows by elimination
with partial pivoting in column order. A caller that knows which rows are
tight at the answer passes them as ``prefer``, and a usable one of them
wins over any other row; when they fix every column the start is the answer
and the method takes no step, whatever other vertices the feasible set has.
Next come rows with |rhs| > 1e-6 of the largest, since near-zero rhs
entries are often estimate slop, so an empty mask gives the same start as
none. A column with no usable pivot left stays at 0. A zero objective
becomes g = sum_T a_i (lam_T = 1). A nonzero one pins each of its columns
by sign(g_j) e_j . c >= -M at lam = |g_j|, M = BOX |rhs|/|lhs| (|rhs| read
as 1 when rhs = 0); a box row that keeps a multiplier means the objective
is unbounded below. Every tolerance is relative to the data.

Cost: a step of either method factors its p x p basis once (the inverse
gives the point, the multipliers and the step) and scans the n rows:
O(p^3 + n p); the descent also sorts its edge's breakpoints, O(n log n). The
set-up builds the n x p kept block and its transpose for the start and, for
a slack LP, an n x (columns) boolean mask to find the unit columns; it
never copies the constraint matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError, LpShapeError
from .types import LpProblem, SolveReport, SolveStatus

FEAS_TOL = 1e-8  # feasibility tolerance, relative to |rhs|
MAX_ITER = 20_000  # step budget
PIVOT_TOL = 1e-9  # smallest admissible pivot, relative to its column or step's largest entry
BOX = 1e6  # bound on objective-carrying variables, in units of |rhs| / |lhs|
BLAND_AFTER = 8  # zero-length descent steps in a row before Bland's rule


def _slack_columns(problem: LpProblem) -> tuple[np.ndarray, np.ndarray] | None:
    """Per row of a slack LP its slack column and weight cost / entry; None
    for a hard-row LP. Any other shape raises LpShapeError."""
    lhs, cost = problem.ineq_lhs, problem.objective
    cand = np.asarray(problem.nonneg_vars, dtype=np.int64)
    if cand.size == 0:
        return None
    # (row, column) of every nonzero; a column's one row is its only entry
    nz_rows, nz_cols = divmod(np.flatnonzero(lhs != 0.0), lhs.shape[1])
    first = np.zeros(lhs.shape[1], dtype=np.int64)
    first[nz_cols] = nz_rows
    rows, free = first[cand], np.delete(cost, cand)
    unit = (np.bincount(nz_cols, minlength=lhs.shape[1])[cand] == 1) & (lhs[rows, cand] > 0.0)
    if not (unit.all() and (cost[cand] > 0.0).all() and not free.any()
            and np.array_equal(np.sort(rows), np.arange(problem.n_rows))):
        raise LpShapeError(
            "solve_lp takes a hard-row LP (no nonnegative variables) or a slack LP (one "
            "nonnegative unit column per row, with a positive entry and a positive cost, "
            "and free columns at cost 0)")
    slack = np.empty(problem.n_rows, dtype=np.int64)
    slack[rows] = cand
    return slack, cost[slack] / lhs[np.arange(problem.n_rows), slack]


def _crash(a: np.ndarray, rhs: np.ndarray, rhs_scale: float,
           prefer: np.ndarray | None = None) -> list[tuple[int, int]]:
    """(column, row) start pairs by elimination in column order; a pivot must
    exceed PIVOT_TOL times its column's largest entry in a, or the column gets
    no row. A usable row in ``prefer`` wins over any other, then a usable row
    with |rhs| > 1e-6 rhs_scale over one without, then the larger pivot."""
    work = a.T.copy()  # one row per column of a, so each step reads contiguous memory
    least = PIVOT_TOL * np.abs(work).max(axis=1)  # read off a, before elimination leaves rounding
    tiers = [np.abs(rhs) > 1e-6 * rhs_scale]  # rows with data
    if prefer is not None:
        tiers.insert(0, prefer)
    chosen = []  # a chosen row is exactly 0 in later columns (y - (x / x) y), so never usable again
    for q, column in enumerate(work):
        magnitude = np.abs(column)
        row = int(magnitude.argmax())
        if not magnitude[row] > least[q]:
            continue
        for tier in tiers:  # the largest usable pivot of the first tier that has one
            preferred = int((magnitude * tier).argmax())
            if magnitude[preferred] > least[q] and tier[preferred]:
                row = preferred
                break
        chosen.append((q, row))
        work[q + 1 :] -= work[q + 1 :, row, None] * (column / column[row])
    return chosen


def _run(rows, b, g, basis, tol):
    """The dual method from a basis. Returns (verdict, c, steps, lam), lam
    over the rows: the multipliers when optimal, the Farkas ray when
    infeasible."""
    for step in range(MAX_ITER):
        inverse = np.linalg.inv(rows[basis])  # the one factorisation: c, lam_T and the move
        c = inverse @ b[basis]
        violation = b - rows @ c
        lam = g @ inverse
        violation[basis] = 0.0
        if violation.max(initial=0.0) <= tol:
            multipliers = np.zeros(rows.shape[0])
            multipliers[basis] = lam
            return "optimal", c, step, multipliers
        r = int(violation.argmax())
        move = -(rows[r] @ inverse)  # d lam_T / dt
        size = np.abs(move)
        down = move < -PIVOT_TOL * size.max(initial=0.0)
        room = np.divide(np.maximum(lam, 0.0), size, out=np.full(basis.size, np.inf), where=down)
        t = float(room.min(initial=np.inf))
        if not t < np.inf:
            ray = np.zeros(rows.shape[0])
            ray[r], ray[basis] = 1.0, move
            return "infeasible", c, step + 1, ray
        k = int(np.where(room <= t * (1.0 + 1e-12), size, -1.0).argmax())  # ties: largest pivot
        basis[k] = r
    return "iteration_limit", c, MAX_ITER, None


def _descend(rows, b, w, basis, tol):
    """The long-step descent from a basis, every row soft. Returns
    (verdict, c, steps, multipliers), as ``_run`` does."""
    flat = tol * 1e-4  # residuals this small sit on their breakpoint
    dual_tol = PIVOT_TOL * float(w.max())
    stalled = 0
    for step in range(MAX_ITER):
        inverse = np.linalg.inv(rows[basis])
        c = inverse @ b[basis]
        residual = rows @ c - b
        if step == 0:  # U: read off the start, then kept as state
            upper = residual < 0.0
            upper[basis] = False
        lam = -(np.where(upper, w, 0.0) @ rows) @ inverse
        outside = np.maximum(-lam, lam - w[basis])
        candidates = np.flatnonzero(outside > dual_tol)
        if candidates.size == 0:
            multipliers = np.where(upper, w, 0.0)
            multipliers[basis] = lam
            return "optimal", c, step, multipliers
        bland = stalled >= BLAND_AFTER
        k = int(candidates[np.argmin(basis[candidates])] if bland else np.argmax(outside))
        release = 1.0 if lam[k] < 0.0 else -1.0  # +1: row k leaves into its satisfied side
        slope = lam[k] if release > 0.0 else w[basis[k]] - lam[k]
        move = rows @ (release * inverse[:, k])
        move[basis] = 0.0
        crossing = np.flatnonzero(np.where(upper, move > PIVOT_TOL, move < -PIVOT_TOL))
        gap = np.where(np.abs(residual[crossing]) <= flat, 0.0, residual[crossing])
        tau = np.maximum(-gap / move[crossing], 0.0)
        order = np.argsort(tau, kind="stable")
        jumps = w[crossing[order]] * np.abs(move[crossing[order]])
        turned = np.flatnonzero(slope + np.cumsum(jumps) >= -dual_tol)
        if turned.size == 0:
            return "objective unbounded below", c, step + 1, None
        stop = 0 if bland else int(turned[0])
        passed, entering = crossing[order[:stop]], int(crossing[order[stop]])
        stalled = stalled + 1 if tau[order[stop]] == 0.0 else 0
        upper[passed] = ~upper[passed]
        upper[entering] = False
        upper[basis[k]] = release < 0.0
        basis[k] = entering
    return "iteration_limit", c, MAX_ITER, None


def _verify_farkas(problem: LpProblem, lam: np.ndarray) -> np.ndarray | None:
    """Clean up and check a candidate infeasibility ray; None if it fails.

    A valid ray has lam >= 0, lhs' lam = 0 and rhs . lam > 0: only a
    hard-row LP, whose variables are all free, runs the dual method.
    """
    lam = np.where(lam > 0.0, lam, 0.0)
    norm = float(lam.max(initial=0.0))
    if norm <= 0.0:
        return None
    lam = lam / norm
    lhs, rhs = problem.ineq_lhs, problem.ineq_rhs
    if np.abs(lhs.T @ lam).max() > 1e-6 * max(float(lhs.max()), -float(lhs.min())):
        return None
    if float(rhs @ lam) <= 1e-9 * float(np.abs(rhs).max()):
        return None
    return lam


def solve_lp(problem: LpProblem, prefer: np.ndarray | None = None) -> SolveReport:
    """The dual method on a hard-row LP, the primal descent on a slack LP;
    see the module docstring. ``prefer``, a boolean mask over the inequality
    rows, names the rows the start tries first: rows expected to be tight at
    the answer."""
    lhs, rhs, cost = problem.ineq_lhs, problem.ineq_rhs, problem.objective
    if prefer is not None:
        prefer = np.asarray(prefer, dtype=bool)
        if prefer.shape != (problem.n_rows,):
            raise DimensionMismatchError(
                f"prefer has shape {prefer.shape}, expected ({problem.n_rows},)")
    slacks = _slack_columns(problem)
    rhs_scale, n, kept = float(np.abs(rhs).max()), problem.n_rows, np.arange(problem.n_vars)
    if slacks is not None:
        kept = np.delete(kept, slacks[0])
    a, b, g = lhs[:, kept], rhs, cost[kept]

    # start basis: box rows pin the columns with a cost; the crash gives
    # the other columns rows, and columns it skips stay at 0
    boxed = g != 0.0
    loose = np.flatnonzero(~boxed)
    crash = np.array(_crash(a[:, loose], b, rhs_scale, prefer), dtype=np.int64).reshape(-1, 2)
    cols, basis, rows = loose[crash[:, 0]], crash[:, 1], a
    if boxed.any():  # box rows below the data rows
        rows = np.vstack([a, np.sign(g[boxed, None]) * np.eye(kept.size)[boxed]])
        box_rhs = -BOX * (rhs_scale or 1.0) / (float(np.abs(a).max(initial=0.0)) or 1.0)
        b = np.concatenate([b, np.full(rows.shape[0] - n, box_rhs)])
        cols = np.concatenate([np.flatnonzero(boxed), cols])
        basis = np.concatenate([n + np.arange(boxed.sum()), basis])
    rows, g = rows[:, cols], g[cols]
    feasibility_run = slacks is None and not g.any()
    if feasibility_run:
        g = rows[basis].sum(axis=0)

    try:
        if slacks is None:
            verdict, c, steps, lam = _run(rows, b, g, basis, FEAS_TOL * rhs_scale)
        else:
            verdict, c, steps, lam = _descend(rows, b, slacks[1], basis, FEAS_TOL * rhs_scale)
    except np.linalg.LinAlgError:
        verdict, c, steps = "singular basis", np.zeros(cols.size), 0
    point = np.zeros(problem.n_vars)
    point[kept[cols]] = c
    if slacks is not None:  # each slack closes its row's gap, read C-ordered: layout moves rounding
        gap = rhs - np.ascontiguousarray(lhs[:, kept[cols]]) @ c
        point[slacks[0]] = np.maximum(gap, 0.0) / lhs[np.arange(n), slacks[0]]

    violation = problem.max_violation(point)
    if verdict == "optimal" and boxed.any() and (lam[n:] > FEAS_TOL * np.abs(g).max()).any():
        verdict = "objective unbounded below"
    elif verdict == "optimal" and violation > FEAS_TOL * rhs_scale * 10.0:
        verdict = f"terminal basis violates the original constraints by {violation:.3e}"
    status, message, extra = SolveStatus.NUMERICAL_TROUBLE, verdict, {}
    if verdict == "optimal":
        status, message = SolveStatus.OPTIMAL, ""
        extra["dual"] = np.zeros(n) if feasibility_run else np.maximum(lam[:n], 0.0)
    elif verdict == "iteration_limit":
        status, message = SolveStatus.ITERATION_LIMIT, "step budget exhausted"
    elif verdict == "infeasible":
        extra["certificate"] = _verify_farkas(problem, lam[:n])
        if extra["certificate"] is None:
            message = "unbounded dual but no verifiable infeasibility ray"
        else:
            status, message = SolveStatus.INFEASIBLE, "Farkas ray verified against the original constraints"
    value = float("nan") if status is SolveStatus.INFEASIBLE else float(cost @ point)
    return SolveReport(point, value, float(violation), steps, status, message=message, **extra)
