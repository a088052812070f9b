"""Dense two-phase tableau simplex for the package's LP shapes.

The constraint form is  lhs @ v >= rhs  with a (possibly empty) subset of
nonnegative variables; every remaining variable is free. Free variables are
driven into the basis up front (a "crash") and never leave it, which keeps
the main loop a plain textbook simplex over nonnegative columns.

The crash prefers pivot rows whose right-hand side is nonzero. This matters
for zero-objective feasibility runs: the trivially feasible all-slack basis
often sits at v = 0, a legal but useless answer for the learning code, while
pivoting each free variable onto a row with active data lands on a vertex
that interpolates genuine constraints. Any feasible point is a correct
return value; the crash only biases which one comes back.

Infeasibility is certified, not merely declared: the phase-1 duals are
extracted and re-verified against the original data as a Farkas ray before
the Infeasible status is returned.

Cost model: the tableau is stored dense, but a pivot only updates the rows
with a nonzero entry in the entering column times the columns where the
pivot row is nonzero (the nonbasic columns and the rhs), so its work is
touched rows x nonbasic columns. Assigning a row its own surplus during
basis set-up is a row negation, O(columns). The update skips only entries
that would change by exactly ``x - 0 * y``, so results are the same as with
a full-tableau update.
"""

from __future__ import annotations

import numpy as np

from .types import LpProblem, SolveReport, SolveStatus, SolverConfig

_UNASSIGNED = -1


def _pivot(tableau: np.ndarray, obj_row: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col), in place on tableau and obj_row.

    Updates only rows with a nonzero entering-column entry times columns
    where the normalised pivot row is nonzero; every other entry would
    change by exactly ``x - 0 * y``. Basic columns are unit vectors with a
    zero in the pivot row (the leaving one aside), so the work is touched
    rows x nonbasic columns, and each updated entry sees the same float
    operations as the full ``np.outer`` update.
    """
    prow = tableau[row]
    prow /= prow[col]
    cols = np.flatnonzero(prow)
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    tableau[np.ix_(rows, cols)] -= np.outer(factors[rows], prow[cols])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    obj_row[cols] -= obj_row[col] * prow[cols]
    obj_row[col] = 0.0


def _negate_onto_surplus(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot on (row, col) where column col is exactly -e_row.

    Every other row has a zero factor, so the pivot is a negation of the row
    followed by resetting the column to e_row: O(columns) work, the same
    result as ``_pivot`` without its scans for nonzero entries.
    """
    tableau[row] *= -1.0
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


class _Tableau:
    """Mutable simplex state: equality tableau, basis, and column roles."""

    def __init__(self, problem: LpProblem, cfg: SolverConfig):
        self.problem = problem
        self.cfg = cfg
        n, m = problem.n_vars, problem.n_rows
        self.n_struct = n
        self.n_rows = m
        # columns: structural (n) | surplus (m) | artificials (appended) | rhs
        self.tableau = np.hstack(
            [problem.ineq_lhs, -np.eye(m), problem.ineq_rhs.reshape(-1, 1)]
        )
        self.basis = np.full(m, _UNASSIGNED, dtype=np.int64)
        self.free_cols = np.array(
            sorted(set(range(n)) - set(problem.nonneg_vars)), dtype=np.int64
        )
        self.n_art = 0
        self.iterations = 0
        self.rhs_scale = max(1.0, float(np.abs(problem.ineq_rhs).max()))

    def relax_unassigned_rows(self) -> None:
        """Anti-degeneracy: relax each not-yet-basic row by a distinct tiny
        amount so tied ratio tests (the stalling engine on zero-objective
        instances) break deterministically. Rows claimed by the free-variable
        crash keep their exact rhs, preserving the interpolation property of
        that starting point. The terminal point is still checked against the
        original rhs before OPTIMAL is reported."""
        jitter_rng = np.random.Generator(np.random.Philox(key=0x5D))
        jitter = (1.0 + jitter_rng.random(self.n_rows)) * 1e-11 * self.rhs_scale
        self.tableau[:, -1] -= np.where(self.basis == _UNASSIGNED, jitter, 0.0)

    # -- setup ------------------------------------------------------------

    def crash_free_variables(self) -> None:
        """Pivot every free structural column into the basis, in index order.

        Rows whose rhs is meaningfully nonzero are preferred pivot rows: on
        interpolation-style instances these are the rows that actually pin
        the free block, while near-zero rhs entries are often estimate slop
        rather than structure. The margin is therefore well above roundoff.
        """
        ptol = self.cfg.pivot_tol
        rhs_nonzero = np.abs(self.problem.ineq_rhs) > 1e-6 * self.rhs_scale
        for col in self.free_cols:
            column = self.tableau[:, col]
            col_scale = max(1.0, float(np.abs(column).max()))
            usable = (self.basis == _UNASSIGNED) & (np.abs(column) > ptol * col_scale)
            preferred = usable & rhs_nonzero
            pool = preferred if preferred.any() else usable
            if not pool.any():
                continue
            magnitudes = np.where(pool, np.abs(column), -1.0)
            row = int(np.argmax(magnitudes))
            _pivot(self.tableau, np.zeros(self.tableau.shape[1]), row, col)
            self.basis[row] = col

    def complete_basis(self) -> None:
        """Give every remaining row a feasible basic variable.

        Rows with nonpositive transformed rhs take their own surplus, which
        is a row negation rather than a full pivot. Rows with positive rhs
        take a still-pristine unit column (the slack pattern of L1-penalty
        variables) when one exists, a pivot that only rescales the row, else
        an artificial.

        The surplus branch accepts violations up to the feasibility
        tolerance: such rows are satisfied for reporting purposes anyway,
        and forcing a phase-1 walk over them lets sub-tolerance
        inconsistencies (typical when the rhs is itself a solver estimate)
        push the start arbitrarily far from the interpolated vertex.
        """
        n, m = self.n_struct, self.n_rows
        tol = self.cfg.feas_tol * max(1.0, self.rhs_scale)
        unit_col_for_row = self._pristine_unit_columns()
        art_cols: list[int] = []
        art_rows: list[int] = []
        for row in range(m):
            if self.basis[row] != _UNASSIGNED:
                continue
            rhs = self.tableau[row, -1]
            if rhs <= tol:
                # No pivot has used this row yet, so its surplus column is
                # still exactly -e_row.
                _negate_onto_surplus(self.tableau, row, n + row)
                self.basis[row] = n + row
            elif row in unit_col_for_row:
                col = unit_col_for_row[row]
                _pivot(self.tableau, np.zeros(self.tableau.shape[1]), row, col)
                self.basis[row] = col
            else:
                art_rows.append(row)
                art_cols.append(n + m + len(art_cols))
        if art_rows:
            block = np.zeros((m, len(art_rows)))
            for k, row in enumerate(art_rows):
                block[row, k] = 1.0
            self.tableau = np.hstack(
                [self.tableau[:, :-1], block, self.tableau[:, -1:]]
            )
            for k, row in enumerate(art_rows):
                self.basis[row] = art_cols[k]
        self.n_art = len(art_rows)
        self.art_row_of = {n + m + k: row for k, row in enumerate(art_rows)}

    def _pristine_unit_columns(self) -> dict[int, int]:
        """Map row -> lowest nonneg structural column that is a positive unit
        column in that row (single nonzero entry)."""
        out: dict[int, int] = {}
        nonneg = [c for c in self.problem.nonneg_vars]
        if not nonneg:
            return out
        block = self.tableau[:, nonneg]
        absblock = np.abs(block)
        nnz = (absblock > 1e-11).sum(axis=0)
        for idx in np.flatnonzero(nnz == 1):
            row = int(np.argmax(absblock[:, idx]))
            col = nonneg[idx]
            if block[row, idx] > 1e-11 and self.basis[row] == _UNASSIGNED and row not in out:
                out[row] = col
        return out

    # -- main loop --------------------------------------------------------

    def run(self, obj_row: np.ndarray, allowed: np.ndarray, budget: int) -> str:
        """Minimize obj_row over allowed entering columns. Returns a verdict
        string: 'optimal', 'iteration_limit', or 'unbounded'."""
        cfg = self.cfg
        rc_tol = 1e-9 * max(1.0, float(np.abs(obj_row[:-1]).max()))
        degen_tol = 1e-11 * max(1.0, self.rhs_scale)
        free_set = set(int(c) for c in self.free_cols)
        row_is_pinned = np.array([b in free_set for b in self.basis])
        streak = 0
        used = 0
        while used < budget:
            rc = obj_row[:-1]
            candidates = np.flatnonzero(allowed & (rc < -rc_tol))
            if candidates.size == 0:
                self.iterations += used
                return "optimal"
            if streak >= cfg.bland_after:
                enter = int(candidates[0])
            else:
                enter = int(candidates[np.argmin(rc[candidates])])
            column = self.tableau[:, enter]
            col_scale = max(1.0, float(np.abs(column).max()))
            eligible = (column > cfg.pivot_tol * col_scale) & ~row_is_pinned
            if not eligible.any():
                self.iterations += used
                return "unbounded"
            ratios = np.where(eligible, self.tableau[:, -1] / np.where(eligible, column, 1.0), np.inf)
            best = ratios.min()
            leave = int(np.argmax(ratios <= best + degen_tol))
            streak = streak + 1 if best <= degen_tol else 0
            _pivot(self.tableau, obj_row, leave, enter)
            self.basis[leave] = enter
            used += 1
        self.iterations += used
        return "iteration_limit"

    def reduced_costs_for(self, cost: np.ndarray) -> np.ndarray:
        """Objective row (reduced costs + negated value) for a cost vector
        over all current columns."""
        ext = np.concatenate([cost, [0.0]])
        basic_cost = cost[self.basis]
        active = np.flatnonzero(basic_cost != 0.0)
        if active.size:
            ext = ext - basic_cost[active] @ self.tableau[active]
        return ext

    def solution(self) -> np.ndarray:
        v = np.zeros(self.n_struct)
        for row, col in enumerate(self.basis):
            if 0 <= col < self.n_struct:
                v[col] = self.tableau[row, -1]
        return v

    def refreshed_solution(self) -> np.ndarray:
        """Basic values re-solved against the original data.

        Pivot updates accumulate roundoff over long runs and the rhs carries
        the anti-degeneracy relaxation, so reading values off the tableau
        drifts. One dense solve of the terminal basis system against the
        pristine constraint matrix and rhs removes both effects. Falls back
        to the tableau values if the basis matrix is singular.
        """
        n, m = self.n_struct, self.n_rows
        basis_matrix = np.zeros((m, m))
        for row, col in enumerate(self.basis):
            if 0 <= col < n:
                basis_matrix[:, row] = self.problem.ineq_lhs[:, col]
            elif col < n + m:
                basis_matrix[col - n, row] = -1.0
            else:
                basis_matrix[self.art_row_of[int(col)], row] = 1.0
        try:
            values = np.linalg.solve(basis_matrix, self.problem.ineq_rhs)
        except np.linalg.LinAlgError:
            return self.solution()
        if not np.all(np.isfinite(values)):
            return self.solution()
        v = np.zeros(n)
        for row, col in enumerate(self.basis):
            if 0 <= col < n:
                v[col] = values[row]
        return v


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
    pull = problem.ineq_lhs.T @ lam
    scale = max(1.0, float(np.abs(problem.ineq_lhs).max()))
    nonneg = set(problem.nonneg_vars)
    for j, value in enumerate(pull):
        limit = 1e-6 * scale
        if j in nonneg:
            if value > limit:
                return None
        elif abs(value) > limit:
            return None
    gain = float(problem.ineq_rhs @ lam)
    if gain <= 1e-9 * max(1.0, float(np.abs(problem.ineq_rhs).max())):
        return None
    return lam


def solve_lp(problem: LpProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """Two-phase simplex. Zero objectives stop at the first feasible vertex."""
    cfg = cfg or SolverConfig()
    state = _Tableau(problem, cfg)
    state.crash_free_variables()
    state.relax_unassigned_rows()
    state.complete_basis()
    n, m = state.n_struct, state.n_rows
    total_cols = state.tableau.shape[1] - 1

    budget = cfg.max_iter
    if state.n_art > 0:
        art_slice = slice(n + m, total_cols)
        cost1 = np.zeros(total_cols)
        cost1[art_slice] = 1.0
        obj_row = state.reduced_costs_for(cost1)
        allowed = np.ones(total_cols, dtype=bool)
        verdict = state.run(obj_row, allowed, budget)
        budget -= state.iterations
        phase1_value = -obj_row[-1]
        if verdict == "iteration_limit":
            return _report(problem, state, SolveStatus.ITERATION_LIMIT, "phase 1 hit the iteration limit")
        if verdict == "unbounded":
            return _report(problem, state, SolveStatus.NUMERICAL_TROUBLE, "phase 1 claimed unbounded")
        if phase1_value > cfg.feas_tol * max(1.0, state.rhs_scale):
            lam = _verify_farkas(problem, obj_row[n : n + m].copy())
            if lam is None:
                return _report(
                    problem, state, SolveStatus.NUMERICAL_TROUBLE,
                    "positive phase-1 optimum but no verifiable infeasibility ray",
                )
            return SolveReport(
                point=state.solution(),
                objective_value=float("nan"),
                max_infeasibility=float(phase1_value),
                iterations=state.iterations,
                status=SolveStatus.INFEASIBLE,
                certificate=lam,
                message="Farkas ray verified against the original constraints",
            )
        _evict_artificials(state)

    art_mask = np.zeros(total_cols, dtype=bool)
    art_mask[n + m : total_cols] = True
    if np.any(problem.objective != 0.0):
        cost2 = np.zeros(total_cols)
        cost2[:n] = problem.objective
        obj_row = state.reduced_costs_for(cost2)
        verdict = state.run(obj_row, ~art_mask, max(budget, 1))
        if verdict == "iteration_limit":
            return _report(problem, state, SolveStatus.ITERATION_LIMIT, "phase 2 hit the iteration limit")
        if verdict == "unbounded":
            return _report(problem, state, SolveStatus.NUMERICAL_TROUBLE, "objective unbounded below")
        dual = obj_row[n : n + m].copy()
    else:
        dual = np.zeros(m)

    point = state.refreshed_solution()
    violation = problem.max_violation(point)
    if violation > cfg.feas_tol * max(1.0, state.rhs_scale) * 10.0:
        return _report(
            problem, state, SolveStatus.NUMERICAL_TROUBLE,
            f"terminal basis violates the original constraints by {violation:.3e}",
        )
    return SolveReport(
        point=point,
        objective_value=float(problem.objective @ point),
        max_infeasibility=float(violation),
        iterations=state.iterations,
        status=SolveStatus.OPTIMAL,
        dual=np.where(dual > 0.0, dual, 0.0),
    )


def _evict_artificials(state: _Tableau) -> None:
    """Pivot zero-level artificial basics out onto real columns when possible."""
    n, m = state.n_struct, state.n_rows
    for row in range(m):
        if state.basis[row] < n + m:
            continue
        candidates = np.abs(state.tableau[row, : n + m])
        col = int(np.argmax(candidates))
        if candidates[col] > state.cfg.pivot_tol:
            _pivot(state.tableau, np.zeros(state.tableau.shape[1]), row, col)
            state.basis[row] = col
        # else: the row is redundant; its artificial stays basic at level 0.


def _report(problem: LpProblem, state: _Tableau, status: SolveStatus, message: str) -> SolveReport:
    point = state.solution()
    return SolveReport(
        point=point,
        objective_value=float(problem.objective @ point),
        max_infeasibility=float(problem.max_violation(point)),
        iterations=state.iterations,
        status=status,
        message=message,
    )
