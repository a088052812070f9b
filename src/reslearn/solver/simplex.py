"""Bounded dual active-set method for the package's LP shapes.

``solve_lp`` reduces  min objective . v  s.t.  lhs @ v >= rhs,  v[nonneg] >= 0
to  min g . c + sum_i w_i (b_i - a_i . c)^+  over free c, w_i in (0, inf].
A nonnegative positive unit column (one nonzero, in row i) with cost >= 0 is
the slack of a soft row: it leaves c and row i gets weight cost / entry (the
cheapest per row; weight 0 drops the row). Other nonnegative columns stay in
c behind hard rows e_j . c >= 0; rows without a slack are hard (w = inf).
The layer LPs have m <= 16 free coefficients and n = 400-512 rows.

The dual is  max b . lam  s.t.  A' lam = g,  0 <= lam <= w. The method
(Lemke's dual method with Barrodale & Roberts' bounded multipliers) keeps
p <= m tight rows T, A_T c = b_T, with lam_T = A_T^-T (g - A_U' w_U) in its
boxes (U: rows at their weight). Each step enters the most violated other
row r (lam_r = 0 and a_r . c < b_r, or lam_r = w_r and a_r . c > b_r);
moving lam_r by t moves lam_T by -/+ t A_T^-T a_r, and the ratio test flips
lam_r to its other bound or swaps r for the first basic row whose
multiplier hits a bound, ties going to the largest pivot. A hard row with
nothing in reach gives the Farkas ray lam_r = 1, lam_T = -A_T^-T a_r.

Start: nonnegative columns sit at e_j . c = 0; the rest take rows by
elimination with partial pivoting in column order, preferring rows with
|rhs| > 1e-6 of the largest, since near-zero rhs entries are often estimate
slop; a column with no usable pivot left stays at 0. A zero objective
becomes g = sum_T a_i (lam_T = 1), or keeps lam = 0 when rows are soft. A
nonzero one pins each of its columns by sign(g_j) e_j . c >= -M (or
e_j . c >= 0 when c_j >= 0 and g_j > 0) at lam = |g_j|, M = BOX |rhs|/|lhs|;
a box row that keeps a multiplier means the objective is unbounded below.

Cost: a step solves p x p systems, and a basis change re-solves c from the
tight rows and recomputes n residuals: O(p^3 + n p). Besides the n x p kept
block, only an n x (columns) boolean mask is built (to find unit columns).
"""

from __future__ import annotations

import numpy as np

from .types import LpProblem, SolveReport, SolveStatus

FEAS_TOL = 1e-8  # feasibility tolerance, relative to max(1, |rhs|)
MAX_ITER = 20_000  # step budget
PIVOT_TOL = 1e-9  # smallest admissible pivot, relative to max(1, |column|)
BOX = 1e6  # bound on objective-carrying variables, in units of |rhs| / |lhs|


def _soft_rows(problem: LpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the cheapest positive unit column among the nonnegative
    columns with cost >= 0 (-1 if none) and its weight cost / entry (inf if
    none); and all of those unit columns."""
    lhs, cost = problem.ineq_lhs, problem.objective
    slack, weight = np.full(problem.n_rows, -1), np.full(problem.n_rows, np.inf)
    cand = np.array([j for j in problem.nonneg_vars if cost[j] >= 0.0], dtype=np.int64)
    if cand.size == 0:
        return slack, weight, cand
    # column-major, so that the per-column argmax reads each column in place
    nonzero = np.not_equal(lhs, 0.0, order="F")
    counts, first = nonzero.sum(axis=0)[cand], nonzero.argmax(axis=0)[cand]
    unit = (counts == 1) & (lhs[first, cand] > 0.0)
    for j, i in zip(cand[unit].tolist(), first[unit].tolist()):
        if cost[j] / lhs[i, j] < weight[i]:
            slack[i], weight[i] = j, cost[j] / lhs[i, j]
    return slack, weight, cand[unit]


def _crash(a: np.ndarray, rhs: np.ndarray, rhs_scale: float) -> list[tuple[int, int]]:
    """(column, row) start pairs for the columns of a, by elimination in
    column order; a column with no usable pivot left gets no row."""
    work = a.copy()
    open_rows = np.ones(a.shape[0], dtype=bool)
    with_data = np.abs(rhs) > 1e-6 * rhs_scale
    chosen = []
    for q in range(a.shape[1]):
        column = work[:, q]
        magnitude = np.abs(column)
        usable = open_rows & (magnitude > PIVOT_TOL * max(1.0, float(magnitude.max(initial=0.0))))
        pool = usable & with_data if (usable & with_data).any() else usable
        if pool.any():
            row = int(np.argmax(np.where(pool, magnitude, -1.0)))
            chosen.append((q, row))
            open_rows[row] = False
            work[:, q + 1 :] -= np.outer(column / column[row], work[row, q + 1 :])
    return chosen


def _run(rows, b, w, g, basis, tol):
    """The method from a basis with boxed multipliers. Returns (verdict,
    basis, at_upper, lam_T, c, steps, ray); ray is set when infeasible."""
    upper = np.zeros(rows.shape[0], dtype=bool)
    h = g.copy()  # g - A_U' w_U
    c = np.linalg.solve(rows[basis], b[basis])
    residual = rows @ c - b
    for step in range(MAX_ITER):
        lam = np.linalg.solve(rows[basis].T, h)
        violation = np.where(upper, residual, -residual)
        violation[basis] = 0.0
        if violation.max(initial=0.0) <= tol:
            return "optimal", basis, upper, lam, c, step, None
        r = int(np.argmax(violation))
        sign = -1.0 if upper[r] else 1.0
        move = -sign * np.linalg.solve(rows[basis].T, rows[r])  # d lam_T / dt
        big = PIVOT_TOL * max(1.0, float(np.abs(move).max(initial=0.0)))
        down, up = move < -big, move > big
        room = np.full(basis.size, np.inf)
        room[down] = np.maximum(lam[down], 0.0) / -move[down]
        room[up] = np.maximum(w[basis][up] - lam[up], 0.0) / move[up]
        t = float(room.min(initial=np.inf))
        if np.isfinite(w[r]) and w[r] <= t:
            upper[r] = not upper[r]
            h -= sign * w[r] * rows[r]
            continue
        if not np.isfinite(t):
            ray = np.zeros(rows.shape[0])
            ray[r], ray[basis] = 1.0, move
            return "infeasible", basis, upper, lam, c, step + 1, ray
        ties = np.flatnonzero(room <= t * (1.0 + 1e-12))
        k = int(ties[np.argmax(np.abs(move[ties]))])
        leaving = basis[k]
        if up[k]:
            upper[leaving] = True
            h -= w[leaving] * rows[leaving]
        if upper[r]:
            upper[r] = False
            h += w[r] * rows[r]
        basis[k] = r
        c = np.linalg.solve(rows[basis], b[basis])
        residual = rows @ c - b
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
    if np.abs(pull).max() > 1e-6 * max(1.0, float(lhs.max()), -float(lhs.min())):
        return None
    if float(rhs @ lam) <= 1e-9 * max(1.0, float(np.abs(rhs).max())):
        return None
    return lam


def solve_lp(problem: LpProblem) -> SolveReport:
    """Bounded dual active-set solve; see the module docstring."""
    lhs, rhs, cost = problem.ineq_lhs, problem.ineq_rhs, problem.objective
    rhs_scale = max(1.0, float(np.abs(rhs).max()))
    slack, weight, units = _soft_rows(problem)
    kept = np.setdiff1d(np.arange(problem.n_vars), units)
    used = np.flatnonzero(weight > 0.0)
    a = lhs[np.ix_(used, kept)]
    g = cost[kept]
    nonneg = np.flatnonzero(np.isin(kept, problem.nonneg_vars))
    boxed = np.flatnonzero((g < 0.0) | ((g > 0.0) & ~np.isin(np.arange(kept.size), nonneg)))
    box_rhs = -BOX * rhs_scale / (float(np.abs(a).max(initial=0.0)) or 1.0)
    unit = np.eye(kept.size)
    rows = np.vstack([a, unit[nonneg], np.sign(g[boxed, None]) * unit[boxed]])
    b = np.concatenate([rhs[used], np.zeros(nonneg.size), np.full(boxed.size, box_rhs)])
    w = np.concatenate([weight[used], np.full(nonneg.size + boxed.size, np.inf)])
    first_box = used.size + nonneg.size

    # start basis: box rows, else the rows e_j . c >= 0, pin their columns;
    # the crash gives the other columns rows, and columns it skips stay at 0
    pin = {int(j): first_box + k for k, j in enumerate(boxed)}
    pin.update({int(j): used.size + k for k, j in enumerate(nonneg) if j not in pin})
    loose = [j for j in range(kept.size) if j not in pin]
    crash = _crash(a[:, loose], rhs[used], rhs_scale)
    cols = np.array(sorted(pin) + [loose[q] for q, _ in crash], dtype=np.int64)
    basis = np.array([pin[j] for j in sorted(pin)] + [row for _, row in crash], dtype=np.int64)
    rows, g = rows[:, cols], g[cols]
    objective_given, has_soft = bool(np.any(g != 0.0)), bool(np.isfinite(w).any())
    if not objective_given and not has_soft:
        g = rows[basis].sum(axis=0)

    try:
        verdict, basis, upper, lam, c, steps, ray = _run(
            rows, b, w, g, basis, FEAS_TOL * rhs_scale)
    except np.linalg.LinAlgError:
        verdict, c, steps = "singular basis", np.zeros(cols.size), 0
    point = np.zeros(problem.n_vars)
    point[kept[cols]] = c
    soft = np.flatnonzero(slack >= 0)
    gap = rhs[soft] - lhs[np.ix_(soft, kept[cols])] @ c
    point[slack[soft]] = np.maximum(gap, 0.0) / lhs[soft, slack[soft]]

    violation = problem.max_violation(point)
    if verdict == "optimal" and np.any(
        (basis >= first_box) & (lam > FEAS_TOL * max(1.0, float(np.abs(g).max(initial=0.0))))
    ):
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
            extra["dual"][used] = np.maximum(multipliers[: used.size], 0.0)
    elif verdict == "iteration_limit":
        status, message = SolveStatus.ITERATION_LIMIT, "step budget exhausted"
    elif verdict == "infeasible":
        cert = np.zeros(problem.n_rows)
        cert[used] = ray[: used.size]
        extra["certificate"] = _verify_farkas(problem, cert)
        if extra["certificate"] is None:
            message = "unbounded dual but no verifiable infeasibility ray"
        else:
            status, message = SolveStatus.INFEASIBLE, "Farkas ray verified against the original constraints"
    value = float("nan") if status is SolveStatus.INFEASIBLE else float(cost @ point)
    return SolveReport(point, value, float(violation), steps, status, message=message, **extra)
