"""Two active-set methods for the package's two LP shapes, on one reduced form.

``solve_lp`` takes an ``LpProblem``, whose ``soft`` flag names its shape:

* a feasibility run (``row_lp``): some c with lhs @ c >= rhs, c free;
* a soft LP (``row_slack_lp``): such a c if one exists, else the c of least
  mean slack 1/n sum_i (b_i - a_i . c)^+; its slacks are read off the
  residuals at the end, and no method ever holds a slack column.

Both methods work on  min g . c + sum_i w_i (b_i - a_i . c)^+  over free c.
The dual method takes w = inf on every row and g = sum_T a_i over its start
basis T, which prices each start row at lam = 1; the descent takes w = 1/n
and g = 0. The layer LPs have m <= 16 free coefficients and n = 400-512 rows.
Both methods keep p <= m tight rows T, A_T c = b_T, and the set U of rows
past their bound; the multipliers of T solve A_T' lam_T = g - A_U' w_U. The
dual of the reduced form is  max b . lam  s.t.  A' lam = g,  0 <= lam <= w.

Dual method (Lemke's), run first on both shapes: lam_T >= 0 and U is empty.
Each step enters the most violated other row r; raising lam_r from 0 by t
moves lam_T by -t A_T^-T a_r, and the ratio test swaps r for the first
basic row whose multiplier reaches 0, ties going to the largest pivot. A row
with nothing in reach ends the run on the ray lam_r = 1, lam_T = -A_T^-T a_r.
A feasibility run returns that ray as its Farkas certificate once
``_verify_farkas`` accepts it. A soft LP keeps a feasible vertex, with a
zero dual, and on any ray, verified or not, goes on to the descent: its
least mean slack always exists, and a ray that misses the check by rounding
leaves no vertex of the dual method to keep.

Primal descent (Barrodale & Roberts' L1 descent; Koenker & d'Orey, AS 229),
for a soft LP whose dual run ends on a ray, from the start basis that run
began at: c stays a vertex and the mean slack never rises. Each step
releases the tight row k whose lam_k is furthest outside [0, w] along the
edge A_T d = +e_k (into its satisfied side, slope lam_k) or -e_k (past its
bound, slope w - lam_k). The breakpoints tau_i = -r_i / (a_i . d) of the
rows that cross on that edge are passed in order while the slope plus
w |a_i . d| stays negative, each toggling its row in U; the row where the
slope turns replaces T[k]. U is state the steps update: read back off
residual signs, rounding re-admits rows and the mean slack can rise and
cycle. After BLAND_AFTER zero-length steps in a row a step releases the
lowest-numbered row and stops at the first breakpoint, lowest-numbered on
ties (Bland's rule for the LP with split residuals), which ends degenerate
runs. The mean slack is bounded below by 0, so an edge whose slope never
turns comes only from rounding; the run ends there as numerical trouble.
A step whose point misses no row by more than the breakpoint tolerance
ends the run at once with lam = 0, a valid dual at zero mean slack: on
clean data that face is highly degenerate, and crossing it would crawl.

Start (a crash basis, as in Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 1992): columns take rows by elimination
with partial pivoting in column order. A caller that knows which rows are
tight at the answer passes them as ``prefer``, and a usable one of them
wins over any other row; when they fix every column the start is the answer
and the method takes no step, whatever other vertices the feasible set has.
Otherwise the larger pivot wins. A column with no usable pivot left stays
at 0. Every tolerance is relative to the data.

``shared_start`` starts a family of feasibility runs row_lp(F, t_j) over one
design at once. The crash reads only the design and ``prefer``, so one crash
and one inverse serve the whole family, and one stacked product checks every
row. A row whose start passes the dual method's stop and the terminal check
gets the coefficients its own ``solve_lp`` call would return in zero steps,
bit for bit: the products are per-row matrix-vector products, as the
engine's are. Any other row, and every row when the crash leaves a column
without a pivot, is nan and left to ``solve_lp``, the one writer of a
``SolveReport``.

Cost: a step of either method factors its p x p basis once (the inverse
gives the point, the multipliers and the step) and scans the n rows:
O(p^3 + n p); the descent also sorts its edge's breakpoints, O(n log n),
and a soft LP that ends on a ray pays for both methods' steps. The set-up
copies the n x p constraint matrix into basis column order, and the start
reads a transposed copy; a soft LP's slacks come last, as one vector of n
residuals. Nothing is n x n. ``shared_start`` costs one crash, O(m^3) for
the inverse and O(d n m) for the check.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError
from .types import LpProblem, SolveReport, SolveStatus

FEAS_TOL = 1e-8  # feasibility tolerance, relative to |rhs|
MAX_ITER = 20_000  # step budget
PIVOT_TOL = 1e-9  # smallest admissible pivot, relative to its column or step's largest entry
BLAND_AFTER = 8  # zero-length descent steps in a row before Bland's rule


def _row_mask(prefer, n_rows: int) -> np.ndarray | None:
    """``prefer`` as a boolean mask over the n_rows inequality rows."""
    if prefer is None:
        return None
    prefer = np.asarray(prefer, dtype=bool)
    if prefer.shape != (n_rows,):
        raise DimensionMismatchError(f"prefer has shape {prefer.shape}, expected ({n_rows},)")
    return prefer


def _crash(a: np.ndarray, prefer: np.ndarray | None) -> list[tuple[int, int]]:
    """(column, row) start pairs by elimination in column order; a pivot must
    exceed PIVOT_TOL times its column's largest entry in a, or the column gets
    no row. A usable row in ``prefer`` wins over any other, then the larger
    pivot."""
    work = a.T.copy()  # one row per column of a, so each step reads contiguous memory
    least = PIVOT_TOL * np.abs(work).max(axis=1)  # read off a, before elimination leaves rounding
    chosen = []  # a chosen row is exactly 0 in later columns (y - (x / x) y), so never usable again
    for q, column in enumerate(work):
        magnitude = np.abs(column)
        row = int(magnitude.argmax())
        if not magnitude[row] > least[q]:
            continue
        if prefer is not None:  # the largest usable preferred pivot, if there is one
            preferred = int((magnitude * prefer).argmax())
            if magnitude[preferred] > least[q] and prefer[preferred]:
                row = preferred
        chosen.append((q, row))
        work[q + 1 :] -= work[q + 1 :, row, None] * (column / column[row])
    return chosen


def _stops(off_basis_gap: np.ndarray, rhs_scale) -> np.ndarray:
    """The dual method's stop, over the last axis of the gaps rhs - lhs @ c
    with the basis rows' gaps set to 0: every other row within FEAS_TOL of
    |rhs|."""
    return off_basis_gap.max(axis=-1, initial=0.0) <= FEAS_TOL * rhs_scale


def _violates(violation, rhs_scale):
    """``solve_lp``'s terminal check on a point its method calls optimal: a
    row violated by more than 10 FEAS_TOL |rhs| makes it numerical trouble.
    Elementwise over arrays of violations and scales."""
    return violation > FEAS_TOL * rhs_scale * 10.0


def _run(rows, b, basis, rhs_scale):
    """The dual method from a basis, priced at g = sum of its rows. Returns
    (verdict, c, steps, lam), lam over the rows: the multipliers when
    optimal, the Farkas ray when infeasible."""
    g = rows[basis].sum(axis=0)
    for step in range(MAX_ITER):
        inverse = np.linalg.inv(rows[basis])  # the one factorisation: c, lam_T and the move
        c = inverse @ b[basis]
        violation = b - rows @ c
        lam = g @ inverse
        violation[basis] = 0.0
        if _stops(violation, rhs_scale):
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
    """The long-step descent from a basis, every row soft at the one weight
    w. Returns (verdict, c, steps, multipliers), as ``_run`` does."""
    flat = tol * 1e-4  # residuals this small sit on their breakpoint
    dual_tol = PIVOT_TOL * w
    stalled = 0
    for step in range(MAX_ITER):
        inverse = np.linalg.inv(rows[basis])
        c = inverse @ b[basis]
        residual = rows @ c - b
        if -residual.min() <= flat:  # no row misses: zero slack, and lam = 0 is dual
            return "optimal", c, step, np.zeros(rows.shape[0])
        if step == 0:  # U: read off the start, then kept as state
            upper = residual < 0.0
            upper[basis] = False
        lam = -(np.where(upper, w, 0.0) @ rows) @ inverse
        outside = np.maximum(-lam, lam - w)
        candidates = np.flatnonzero(outside > dual_tol)
        if candidates.size == 0:
            multipliers = np.where(upper, w, 0.0)
            multipliers[basis] = lam
            return "optimal", c, step, multipliers
        bland = stalled >= BLAND_AFTER
        k = int(candidates[np.argmin(basis[candidates])] if bland else np.argmax(outside))
        release = 1.0 if lam[k] < 0.0 else -1.0  # +1: row k leaves into its satisfied side
        slope = lam[k] if release > 0.0 else w - lam[k]
        move = rows @ (release * inverse[:, k])
        move[basis] = 0.0
        crossing = np.flatnonzero(np.where(upper, move > PIVOT_TOL, move < -PIVOT_TOL))
        gap = np.where(np.abs(residual[crossing]) <= flat, 0.0, residual[crossing])
        tau = np.maximum(-gap / move[crossing], 0.0)
        order = np.argsort(tau, kind="stable")
        jumps = w * np.abs(move[crossing[order]])
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
    """Clean up and check a feasibility run's candidate ray; None if it fails.

    A valid ray has lam >= 0, lhs' lam = 0 and rhs . lam > 0 over the free
    variables, and is the run's Farkas certificate. A soft LP's ray is not
    checked: it goes on to the descent, whose nonzero dual at positive least
    slack is its own proof that the rows are infeasible.
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
    """The dual method, then, on a soft LP where it ends on a ray, the primal
    descent; see the module docstring. ``prefer``, a boolean mask over the
    inequality rows, names the rows the start tries first: rows expected to
    be tight at the answer."""
    a, b, n, soft = problem.ineq_lhs, problem.ineq_rhs, problem.n_rows, problem.soft
    p = a.shape[1]
    prefer = _row_mask(prefer, n)
    rhs_scale = float(np.abs(b).max())
    cost = np.zeros(problem.n_vars)  # over the point [c | zeta]; a feasibility run has no zeta
    cost[p:] = 1.0 / n  # a soft LP's row weights

    # start basis: the crash gives columns rows, and columns it skips stay at 0
    crash = np.array(_crash(a, prefer), dtype=np.int64).reshape(-1, 2)
    cols, basis = crash[:, 0], crash[:, 1]
    rows = a[:, cols]
    descended = False
    try:
        verdict, c, steps, lam = _run(rows, b, basis.copy(), rhs_scale)
        if soft and verdict == "infeasible":  # a ray, verified or not: descend from the same start
            descended = True
            verdict, c, descent, lam = _descend(rows, b, 1.0 / n, basis, FEAS_TOL * rhs_scale)
            steps += descent
    except np.linalg.LinAlgError:
        verdict, c, steps = "singular basis", np.zeros(cols.size), 0
    point = np.zeros(problem.n_vars)
    point[cols] = c
    if soft:  # each slack closes its row's gap, read C-ordered: layout moves rounding
        point[p:] = np.maximum(b - np.ascontiguousarray(rows) @ c, 0.0)

    violation = problem.max_violation(point)
    if verdict == "optimal" and _violates(violation, rhs_scale):
        verdict = f"terminal basis violates the original constraints by {violation:.3e}"
    status, message, extra = SolveStatus.NUMERICAL_TROUBLE, verdict, {}
    if verdict == "optimal":
        status, message = SolveStatus.OPTIMAL, ""
        extra["dual"] = np.maximum(lam, 0.0) if descended else np.zeros(n)
    elif verdict == "iteration_limit":
        status, message = SolveStatus.ITERATION_LIMIT, "step budget exhausted"
    elif verdict == "infeasible":  # only a feasibility run ends on its ray
        ray = extra["certificate"] = _verify_farkas(problem, lam)
        if ray is None:
            message = "unbounded dual but no verifiable infeasibility ray"
        else:
            status, message = SolveStatus.INFEASIBLE, "Farkas ray verified against the original constraints"
    value = float("nan") if status is SolveStatus.INFEASIBLE else float(cost @ point)
    return SolveReport(point, value, float(violation), steps, status, message=message, **extra)


def shared_start(design: np.ndarray, targets: np.ndarray, prefer: np.ndarray | None = None
                 ) -> np.ndarray:
    """The starts of the row LPs ``row_lp(design, targets[:, j])``, all at once.

    Returns a d x m array. Row j holds the coefficients of row j's start
    where that start closes every row, bit for bit the point that
    ``solve_lp(row_lp(design, targets[:, j]), prefer)`` returns in zero
    steps, and nan where the engine must run: when the start leaves a row
    violated, when the crash leaves a column without a pivot, or when the
    basis is singular.

    The crash reads no target, so one crash and one inverse serve every row,
    and one stacked product checks them all.
    """
    lhs = np.ascontiguousarray(-np.asarray(design, dtype=np.float64))  # as LpProblem holds it
    rhs = -np.asarray(targets, dtype=np.float64).T
    (n, m), d = lhs.shape, rhs.shape[0]
    prefer = _row_mask(prefer, n)
    scale = np.abs(rhs).max(axis=1)
    starts = np.full((d, m), np.nan)
    basis = np.array([row for _, row in _crash(lhs, prefer)], dtype=np.int64)
    if basis.size < m:  # a column without a pivot
        return starts
    try:
        inverse = np.linalg.inv(lhs[basis])
    except np.linalg.LinAlgError:
        return starts
    # the stacked products run one matrix-vector product per row, as solve_lp does
    c = np.matmul(inverse, rhs[:, basis, None])
    gap = rhs - np.matmul(lhs[None], c)[..., 0]
    off_basis = gap.copy()
    off_basis[:, basis] = 0.0
    violation = np.maximum(gap.max(axis=1, initial=0.0), 0.0)  # LpProblem.max_violation
    closed = _stops(off_basis, scale) & ~_violates(violation, scale)
    starts[closed] = c[closed, :, 0]
    return starts
