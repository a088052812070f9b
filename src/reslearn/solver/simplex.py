"""Two active-set methods for the package's LP shapes, on one reduced form.

``solve_lp`` reduces  min objective . v  s.t.  lhs @ v >= rhs,  v[nonneg] >= 0
to  min g . c + sum_i w_i (b_i - a_i . c)^+  over free c, w_i in (0, inf].
A nonnegative positive unit column (one nonzero, in row i) with cost >= 0 is
the slack of a soft row: it leaves c and row i gets weight cost / entry (the
cheapest per row, ties to the first column; weight 0 drops the row). Other
nonnegative columns stay in c behind hard rows e_j . c >= 0; data rows
without a slack are hard (w = inf). The layer LPs have m <= 16 free
coefficients and n = 400-512 rows.

Both methods keep p <= m tight rows T, A_T c = b_T, and the set U of rows
past their bound, each carrying its weight; the multipliers of T solve
A_T' lam_T = g - A_U' w_U. The dual of the reduced form is  max b . lam
s.t.  A' lam = g,  0 <= lam <= w.

Which method runs. An LP whose data rows are all soft (``row_slack_lp``,
which layer 2 solves for its infeasible rows) takes the primal descent; an
LP with any hard data row (``row_lp`` feasibility runs with their Farkas
rays, and objectives over hard rows, as in min/max c_j) takes the dual
method. The dual method starts soft rows at lam = 0 and moves one of them
to its weight per step, so a slack LP costs about one step per row that
ends past its bound (127 steps on the d=4, n=400, sigma=0.1 benchmark
rows); the descent passes every breakpoint on an edge in one step (13
steps there). The descent needs its hard rows to hold at the start, which
the start gives only when the data rows are soft, so the others keep the
dual method, and their vertices with it.

Dual method (Lemke's, with Barrodale & Roberts' bounded multipliers): lam_T
stays in its boxes. Each step enters the most violated other row r
(lam_r = 0 and a_r . c < b_r, or lam_r = w_r and a_r . c > b_r); moving
lam_r by t moves lam_T by -/+ t A_T^-T a_r, and the ratio test flips lam_r
to its other bound or swaps r for the first basic row whose multiplier hits
a bound, ties going to the largest pivot. A hard row with nothing in reach
gives the Farkas ray lam_r = 1, lam_T = -A_T^-T a_r.

Primal descent (Barrodale & Roberts' L1 descent; Koenker & d'Orey, AS 229):
c stays a vertex and the objective never rises. Each step releases the
tight row k whose lam_k is furthest outside [0, w_k] along the edge
A_T d = +e_k (into its satisfied side, slope lam_k) or -e_k (past its
bound, slope w_k - lam_k). The breakpoints tau_i = -r_i / (a_i . d) of the
rows that cross on that edge are passed in order while the slope plus
w_i |a_i . d| stays negative, each toggling its row in U; the row where the
slope turns replaces T[k]. A hard row (w = inf) is never passed. U is state
the steps update: read back off residual signs, rounding re-admits rows and
the objective can rise and cycle. After BLAND_AFTER zero-length steps in a
row a step releases the lowest-numbered row and stops at the first
breakpoint, lowest-numbered on ties (Bland's rule for the LP with split
residuals), which ends degenerate runs. An edge whose slope never turns is
reported as an unbounded objective.

Start (a crash basis, as in Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 1992): nonnegative columns sit at
e_j . c = 0; the rest take rows by elimination with partial pivoting in
column order. A caller that knows which rows are tight at the answer passes
them as ``prefer``, and a usable one of them wins over any other row; when
they fix every column the start is the answer and the method takes no step,
whatever other vertices the feasible set has. Next come rows with
|rhs| > 1e-6 of the largest, since near-zero rhs entries are often estimate
slop, so an empty mask gives the same start as none. A column with no
usable pivot left stays at 0. A zero objective becomes g = sum_T a_i
(lam_T = 1), or keeps lam = 0 when rows are soft. A nonzero one pins each
of its columns by sign(g_j) e_j . c >= -M (or e_j . c >= 0 when c_j >= 0
and g_j > 0) at lam = |g_j|, M = BOX |rhs|/|lhs| (|rhs| read as 1 when
rhs = 0); a box row that keeps a multiplier means the objective is
unbounded below. Every tolerance is relative to the data.

Cost: a step of either method factors its p x p basis once (the inverse
gives the point, the multipliers and the step) and scans the n rows:
O(p^3 + n p); the descent also sorts its edge's breakpoints, O(n log n). The
set-up builds the n x p kept block, its transpose for the start and, given
nonnegative columns, an n x (columns) boolean mask to find unit columns; it
never copies the constraint matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError
from .types import LpProblem, SolveReport, SolveStatus

FEAS_TOL = 1e-8  # feasibility tolerance, relative to |rhs|
MAX_ITER = 20_000  # step budget
PIVOT_TOL = 1e-9  # smallest admissible pivot, relative to its column or step's largest entry
BOX = 1e6  # bound on objective-carrying variables, in units of |rhs| / |lhs|
BLAND_AFTER = 8  # zero-length descent steps in a row before Bland's rule


def _soft_rows(problem: LpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the cheapest positive unit column among the nonnegative
    columns with cost >= 0 (-1 if none) and its weight cost / entry (inf if
    none); and all of those unit columns."""
    lhs, cost = problem.ineq_lhs, problem.objective
    slack, weight = np.full(problem.n_rows, -1), np.full(problem.n_rows, np.inf)
    cand = np.asarray(problem.nonneg_vars, dtype=np.int64)
    cand = cand[cost[cand] >= 0.0]
    if cand.size == 0:
        return slack, weight, cand
    # (row, column) of every nonzero; a column's one row is its only entry
    nz_rows, nz_cols = divmod(np.flatnonzero(lhs != 0.0), lhs.shape[1])
    counts = np.bincount(nz_cols, minlength=lhs.shape[1])[cand]
    first = np.zeros(lhs.shape[1], dtype=np.int64)
    first[nz_cols] = nz_rows
    first = first[cand]
    unit = (counts == 1) & (lhs[first, cand] > 0.0)
    cols, rows = cand[unit], first[unit]
    ratio = cost[cols] / lhs[rows, cols]
    finite = ratio < np.inf
    cols, rows, ratio = cols[finite], rows[finite], ratio[finite]
    # per row the smallest ratio, ties to the first column in column order
    order = np.lexsort((cols, ratio, rows))
    head = order[np.diff(rows[order], prepend=-1) != 0]
    slack[rows[head]], weight[rows[head]] = cols[head], ratio[head]
    return slack, weight, cand[unit]


def _crash(a: np.ndarray, rhs: np.ndarray, rhs_scale: float,
           prefer: np.ndarray | None = None) -> list[tuple[int, int]]:
    """(column, row) start pairs by elimination in column order; a pivot must
    exceed PIVOT_TOL times its column's largest entry in a, or the column gets no row,
    as every column does when a has no rows. A usable row in ``prefer`` wins
    over any other, then a usable row with |rhs| > 1e-6 rhs_scale over one
    without, then the larger pivot."""
    if not a.shape[0]:
        return []
    work = a.T.copy()  # one row per column of a, so each step reads contiguous memory
    least = PIVOT_TOL * np.abs(work).max(axis=1, initial=0.0)  # read off a, before elimination leaves rounding
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


def _run(rows, b, w, g, basis, tol):
    """The method from a basis with boxed multipliers. Returns (verdict,
    basis, at_upper, lam_T, c, steps, ray); ray is set when infeasible."""
    upper = np.zeros(rows.shape[0], dtype=bool)
    h = g.copy()  # g - A_U' w_U
    for step in range(MAX_ITER):
        inverse = np.linalg.inv(rows[basis])  # the one factorisation: c, lam_T and the move
        c = inverse @ b[basis]
        residual = rows @ c - b
        lam = h @ inverse
        violation = np.where(upper, residual, -residual)
        violation[basis] = 0.0
        if violation.max(initial=0.0) <= tol:
            return "optimal", basis, upper, lam, c, step, None
        r = int(violation.argmax())
        sign = -1.0 if upper[r] else 1.0
        move = -sign * (rows[r] @ inverse)  # d lam_T / dt
        size = np.abs(move)
        big = PIVOT_TOL * size.max(initial=0.0)
        down, up = move < -big, move > big
        room = np.divide(np.where(down, np.maximum(lam, 0.0), np.maximum(w[basis] - lam, 0.0)),
                         size, out=np.full(basis.size, np.inf), where=down | up)
        t = float(room.min(initial=np.inf))
        if w[r] < np.inf and w[r] <= t:  # a soft row reaches its other bound first
            upper[r] = not upper[r]
            h -= sign * w[r] * rows[r]
            continue
        if not t < np.inf:
            ray = np.zeros(rows.shape[0])
            ray[r], ray[basis] = 1.0, move
            return "infeasible", basis, upper, lam, c, step + 1, ray
        k = int(np.where(room <= t * (1.0 + 1e-12), size, -1.0).argmax())  # ties: largest pivot
        leaving = basis[k]
        if up[k]:
            upper[leaving] = True
            h -= w[leaving] * rows[leaving]
        if upper[r]:
            upper[r] = False
            h += w[r] * rows[r]
        basis[k] = r
    return "iteration_limit", basis, upper, lam, c, MAX_ITER, None


def _descend(rows, b, w, g, basis, tol):
    """The long-step descent from a basis whose hard rows hold. Returns
    (verdict, basis, at_upper, lam_T, c, steps, None), as ``_run`` does."""
    soft = np.isfinite(w)
    upper = np.zeros(rows.shape[0], dtype=bool)  # U: read off the start, then kept as state
    flat = tol * 1e-4  # residuals this small sit on their breakpoint
    dual_tol = PIVOT_TOL * max(float(np.abs(g).max(initial=0.0)), float(w[soft].max(initial=0.0)))
    stalled = 0
    for step in range(MAX_ITER):
        inverse = np.linalg.inv(rows[basis])
        c = inverse @ b[basis]
        residual = rows @ c - b
        if step == 0:
            upper = (residual < 0.0) & soft
            upper[basis] = False
        lam = (g - np.where(upper, w, 0.0) @ rows) @ inverse
        outside = np.maximum(-lam, lam - w[basis])
        candidates = np.flatnonzero(outside > dual_tol)
        if candidates.size == 0:
            return "optimal", basis, upper, lam, c, step, None
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
            return "objective unbounded below", basis, upper, lam, c, step + 1, None
        stop = 0 if bland else int(turned[0])
        passed, entering = crossing[order[:stop]], int(crossing[order[stop]])
        stalled = stalled + 1 if tau[order[stop]] == 0.0 else 0
        upper[passed] = ~upper[passed]
        upper[entering] = False
        upper[basis[k]] = release < 0.0
        basis[k] = entering
    return "iteration_limit", basis, upper, lam, c, MAX_ITER, None


def _verify_farkas(problem: LpProblem, lam: np.ndarray) -> np.ndarray | None:
    """Clean up and check a candidate infeasibility ray; None if it fails.

    A valid ray has lam >= 0, lhs' lam = 0 on free variables, <= 0 on
    nonnegative ones, and rhs . lam > 0.
    """
    lam = np.where(lam > 0.0, lam, 0.0)
    norm = float(lam.max(initial=0.0))
    if norm <= 0.0:
        return None
    lam = lam / norm
    lhs, rhs, nonneg = problem.ineq_lhs, problem.ineq_rhs, list(problem.nonneg_vars)
    pull = lhs.T @ lam
    pull[nonneg] = np.maximum(pull[nonneg], 0.0)
    if np.abs(pull).max() > 1e-6 * max(float(lhs.max()), -float(lhs.min())):
        return None
    if float(rhs @ lam) <= 1e-9 * float(np.abs(rhs).max()):
        return None
    return lam


def solve_lp(problem: LpProblem, prefer: np.ndarray | None = None) -> SolveReport:
    """Dual active-set solve, or the primal descent when every data row is
    soft; see the module docstring. ``prefer``, a boolean mask over the
    inequality rows, names the rows the start tries first: rows expected
    to be tight at the answer."""
    lhs, rhs, cost = problem.ineq_lhs, problem.ineq_rhs, problem.objective
    if prefer is not None:
        prefer = np.asarray(prefer, dtype=bool)
        if prefer.shape != (problem.n_rows,):
            raise DimensionMismatchError(
                f"prefer has shape {prefer.shape}, expected ({problem.n_rows},)")
    rhs_scale = float(np.abs(rhs).max())
    slack, weight, units = _soft_rows(problem)
    kept = np.delete(np.arange(problem.n_vars), units)
    nonneg = np.zeros(problem.n_vars, dtype=bool)
    nonneg[list(problem.nonneg_vars)] = True
    nonneg, g = nonneg[kept], cost[kept]
    boxed = (g < 0.0) | ((g > 0.0) & ~nonneg)
    used = slice(None) if (weight > 0.0).all() else np.flatnonzero(weight > 0.0)  # a slice is a view
    a, b, w = lhs[:, kept][used], rhs[used], weight[used]
    n_used, first_box = b.size, b.size + int(nonneg.sum())

    # start basis: box rows, else the rows e_j . c >= 0, pin their columns;
    # the crash gives the other columns rows, and columns it skips stay at 0
    pinned = boxed | nonneg
    loose = np.flatnonzero(~pinned)
    crash = np.array(_crash(a[:, loose], b, rhs_scale, None if prefer is None else prefer[used]),
                     dtype=np.int64).reshape(-1, 2)
    cols, basis, rows = loose[crash[:, 0]], crash[:, 1], a
    if pinned.any():  # unit rows below the data rows: e_j . c >= 0, then the box rows
        unit = np.eye(kept.size)
        rows = np.vstack([a, unit[nonneg], np.sign(g[boxed, None]) * unit[boxed]])
        box_rhs = -BOX * (rhs_scale or 1.0) / (float(np.abs(a).max(initial=0.0)) or 1.0)
        b = np.concatenate([b, np.zeros(first_box - n_used), np.full(rows.shape[0] - first_box, box_rhs)])
        w = np.concatenate([w, np.full(rows.shape[0] - n_used, np.inf)])
        pin_rows = np.where(boxed, first_box + np.cumsum(boxed), n_used + np.cumsum(nonneg)) - 1
        cols, basis = np.concatenate([np.flatnonzero(pinned), cols]), np.concatenate([pin_rows[pinned], basis])
    rows, g, soft_used = rows[:, cols], g[cols], w[:n_used] < np.inf
    objective_given, has_soft = bool(g.any()), bool(soft_used.any())
    if not objective_given and not has_soft:
        g = rows[basis].sum(axis=0)

    engine = _descend if soft_used.all() else _run
    try:
        verdict, basis, upper, lam, c, steps, ray = engine(
            rows, b, w, g, basis, FEAS_TOL * rhs_scale)
    except np.linalg.LinAlgError:
        verdict, c, steps = "singular basis", np.zeros(cols.size), 0
    point = np.zeros(problem.n_vars)
    point[kept[cols]] = c
    soft = np.flatnonzero(slack >= 0)
    if soft.size:
        gap = rhs[soft] - lhs[:, kept[cols]][soft] @ c
        point[slack[soft]] = np.maximum(gap, 0.0) / lhs[soft, slack[soft]]

    violation = problem.max_violation(point)
    if verdict == "optimal" and boxed.any() and ((basis >= first_box) & (lam > FEAS_TOL * np.abs(g).max())).any():
        verdict = "objective unbounded below"
    elif verdict == "optimal" and violation > FEAS_TOL * rhs_scale * 10.0:
        verdict = f"terminal basis violates the original constraints by {violation:.3e}"
    status, message, extra = SolveStatus.NUMERICAL_TROUBLE, verdict, {}
    if verdict == "optimal":
        status, message = SolveStatus.OPTIMAL, ""
        extra["dual"] = np.zeros(problem.n_rows)
        if objective_given or has_soft:
            multipliers = np.where(upper, w, 0.0)
            multipliers[basis] = lam
            extra["dual"][used] = np.maximum(multipliers[:n_used], 0.0)
    elif verdict == "iteration_limit":
        status, message = SolveStatus.ITERATION_LIMIT, "step budget exhausted"
    elif verdict == "infeasible":
        cert = np.zeros(problem.n_rows)
        cert[used] = ray[:n_used]
        extra["certificate"] = _verify_farkas(problem, cert)
        if extra["certificate"] is None:
            message = "unbounded dual but no verifiable infeasibility ray"
        else:
            status, message = SolveStatus.INFEASIBLE, "Farkas ray verified against the original constraints"
    value = float("nan") if status is SolveStatus.INFEASIBLE else float(cost @ point)
    return SolveReport(point, value, float(violation), steps, status, message=message, **extra)
