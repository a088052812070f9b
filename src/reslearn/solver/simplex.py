"""Two-phase dictionary simplex for the package's LP shapes.

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

Variables are numbered structural (n) | surplus (m, one per row, column
-e_row) | artificial (one per row that needs one). Pricing and eviction
break ties by the lowest variable index.

Cost model: the tableau is a dictionary that stores only the nonbasic
columns and the rhs, m x (n + #artificials + 1), column-major. A basic
column is an implicit unit vector in its row; ``basis`` names each row's
basic variable and ``var_of_slot`` the variable held by each stored column.
A row that has no basic variable yet implicitly holds its own surplus,
whose column is still exactly -e_row; giving the row that surplus is a row
negation. A pivot swaps the entering and leaving variables between the
basis and the entering column's slot and updates only the slots where the
pivot row is nonzero, so its work is m x (nonzeros in the pivot row) plus
scans of one row and one column. Every stored entry sees the same float
operations as in the full tableau [lhs | -I | artificials | rhs], so the
pivot sequence, the terminal basis and the Farkas check are those of the
full tableau. The terminal point is re-solved from the rows that basis
holds tight, a system no larger than the basic structural variables. A
feasibility LP therefore never allocates an m x m array.
"""

from __future__ import annotations

import numpy as np

from .types import LpProblem, SolveReport, SolveStatus

FEAS_TOL = 1e-8  # feasibility tolerance, relative to max(1, |rhs|)
MAX_ITER = 20_000  # pivot budget shared by both phases
PIVOT_TOL = 1e-9  # smallest admissible pivot magnitude
BLAND_AFTER = 64  # consecutive degenerate pivots before Bland's rule

_UNASSIGNED = -1


def _pivot(
    tableau: np.ndarray, obj_row: np.ndarray | None, row: int, slot: int, coef: float = 1.0
) -> None:
    """Dictionary pivot on (row, slot), in place on tableau and obj_row.

    The variable in ``slot`` enters the basis in ``row`` and the slot takes
    over the leaving variable, whose implicit column has entry ``coef`` in
    ``row`` (1 for a basic variable, -1 for the surplus of a row without
    one). Only the slots where the normalised pivot row is nonzero are
    updated; every other entry would change by exactly ``x - 0 * y``. Each
    updated entry sees the float operations of the full-tableau
    Gauss-Jordan pivot, including the leaving column's ``coef / pivot`` in
    ``row`` and ``0 - factor * (coef / pivot)`` elsewhere; rows with a zero
    factor can differ from it only in the sign of a zero.
    """
    pivot = tableau[row, slot]
    factors = tableau[:, slot].copy()
    factors[row] = 0.0
    tableau[:, slot] = 0.0
    prow = tableau[row] / pivot
    prow[slot] = coef / pivot
    tableau[row] = prow
    cols = prow.nonzero()[0]
    # the touched columns are rows of the transpose, which numpy gathers and
    # scatters fastest when the tableau is column-major
    tableau.T[cols] -= prow[cols, None] * factors
    if obj_row is not None:
        entering_cost = obj_row[slot]
        obj_row[slot] = 0.0
        obj_row[cols] -= entering_cost * prow[cols]


class _Tableau:
    """Mutable simplex state: dictionary tableau, basis, and column roles."""

    def __init__(self, problem: LpProblem):
        self.problem = problem
        n, m = problem.n_vars, problem.n_rows
        self.n_struct = n
        self.n_rows = m
        # stored columns: nonbasic variables (structural ones first) | rhs,
        # column-major because pivots and ratio tests work down columns
        self.tableau = np.empty((m, n + 1), order="F")
        self.tableau[:, :n] = problem.ineq_lhs
        self.tableau[:, n] = problem.ineq_rhs
        self.var_of_slot = np.arange(n, dtype=np.int64)
        self.basis = np.full(m, _UNASSIGNED, dtype=np.int64)
        self.free_cols = np.array(
            sorted(set(range(n)) - set(problem.nonneg_vars)), dtype=np.int64
        )
        self.n_art = 0
        self.art_rows = np.zeros(0, dtype=np.int64)  # row of artificial n + m + k
        self.iterations = 0
        self.rhs_scale = max(1.0, float(np.abs(problem.ineq_rhs).max()))

    @property
    def n_vars(self) -> int:
        """Variables in the full tableau: structural, surplus, artificial."""
        return self.n_struct + self.n_rows + self.n_art

    def _swap(self, row: int, slot: int, obj_row: np.ndarray | None = None) -> None:
        """Pivot the variable in ``slot`` into the basis in ``row``."""
        leaving = int(self.basis[row])
        if leaving == _UNASSIGNED:
            _pivot(self.tableau, obj_row, row, slot, coef=-1.0)
            leaving = self.n_struct + row
        else:
            _pivot(self.tableau, obj_row, row, slot)
        self.basis[row] = self.var_of_slot[slot]
        self.var_of_slot[slot] = leaving

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
        rhs_nonzero = np.abs(self.problem.ineq_rhs) > 1e-6 * self.rhs_scale
        for col in self.free_cols:
            # the crash only moves free columns, so a pending one is still
            # in its own slot
            column = self.tableau[:, col]
            col_scale = max(1.0, float(np.abs(column).max()))
            usable = (self.basis == _UNASSIGNED) & (np.abs(column) > PIVOT_TOL * col_scale)
            preferred = usable & rhs_nonzero
            pool = preferred if preferred.any() else usable
            if not pool.any():
                continue
            magnitudes = np.where(pool, np.abs(column), -1.0)
            self._swap(int(np.argmax(magnitudes)), int(col))

    def complete_basis(self) -> None:
        """Give every remaining row a feasible basic variable, in row order.

        Rows with nonpositive transformed rhs take their own surplus, which
        is a row negation rather than a full pivot. Rows with positive rhs
        take a still-pristine unit column (the slack pattern of L1-penalty
        variables) when one exists, a pivot that only rescales the row, else
        an artificial. Only those unit-column pivots can reach other rows,
        so the rows between two of them are decided and negated together.

        The surplus branch accepts violations up to the feasibility
        tolerance: such rows are satisfied for reporting purposes anyway,
        and forcing a phase-1 walk over them lets sub-tolerance
        inconsistencies (typical when the rhs is itself a solver estimate)
        push the start arbitrarily far from the interpolated vertex.
        """
        n, m = self.n_struct, self.n_rows
        tol = FEAS_TOL * max(1.0, self.rhs_scale)
        unit_col_for_row = self._pristine_unit_columns()
        pending = np.flatnonzero(self.basis == _UNASSIGNED)
        art_rows: list[np.ndarray] = []
        done = 0
        for stop in [*sorted(unit_col_for_row), m]:
            block = pending[(pending >= done) & (pending < stop)]
            done = stop + 1
            tight = self.tableau[block, -1] <= tol
            surplus = block[tight]
            self.tableau[surplus] *= -1.0
            self.basis[surplus] = n + surplus
            art_rows.append(block[~tight])
            if stop == m:
                break
            if self.tableau[stop, -1] <= tol:
                self.tableau[stop] *= -1.0
                self.basis[stop] = n + stop
            else:
                self._swap(stop, unit_col_for_row[stop])
        rows = np.concatenate(art_rows)
        self.n_art = rows.size
        if rows.size:
            # each artificial row's surplus (still -e_row) joins the stored
            # columns; its artificial n + m + k becomes the basic variable
            width = self.tableau.shape[1] + rows.size
            grown = np.zeros((m, width), order="F")
            grown[:, :n] = self.tableau[:, :-1]
            grown[rows, n + np.arange(rows.size)] = -1.0
            grown[:, -1] = self.tableau[:, -1]
            self.tableau = grown
            self.var_of_slot = np.concatenate([self.var_of_slot, n + rows])
            self.basis[rows] = n + m + np.arange(rows.size)
        self.art_rows = rows

    def _pristine_unit_columns(self) -> dict[int, int]:
        """Map row -> lowest nonneg structural column that is a positive unit
        column in that row (single nonzero entry)."""
        out: dict[int, int] = {}
        nonneg = [c for c in self.problem.nonneg_vars]
        if not nonneg:
            return out
        # nonneg columns are never crashed, so each is still in its own slot
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

    def run(self, obj_row: np.ndarray, allow_artificials: bool, budget: int) -> str:
        """Minimize obj_row (one entry per stored column, then the negated
        value) over the stored columns, artificials only when allowed.
        Returns a verdict string: 'optimal', 'iteration_limit', or
        'unbounded'."""
        rc_tol = 1e-9 * max(1.0, float(np.abs(obj_row[:-1]).max(initial=0.0)))
        degen_tol = 1e-11 * max(1.0, self.rhs_scale)
        unpinned = ~np.isin(self.basis, self.free_cols)
        var_limit = self.n_vars if allow_artificials else self.n_struct + self.n_rows
        streak = 0
        used = 0
        while used < budget:
            rc = obj_row[:-1]
            candidates = np.flatnonzero((rc < -rc_tol) & (self.var_of_slot < var_limit))
            if candidates.size == 0:
                self.iterations += used
                return "optimal"
            if streak < BLAND_AFTER:
                candidates = candidates[rc[candidates] == rc[candidates].min()]
            enter = int(candidates[np.argmin(self.var_of_slot[candidates])])
            column = self.tableau[:, enter]
            col_scale = max(1.0, float(np.abs(column).max()))
            eligible = (column > PIVOT_TOL * col_scale) & unpinned
            if not eligible.any():
                self.iterations += used
                return "unbounded"
            ratios = np.divide(
                self.tableau[:, -1], column, out=np.full(self.n_rows, np.inf), where=eligible
            )
            best = ratios.min()
            leave = int(np.argmax(ratios <= best + degen_tol))
            streak = streak + 1 if best <= degen_tol else 0
            self._swap(leave, enter, obj_row)
            used += 1
        self.iterations += used
        return "iteration_limit"

    def reduced_costs_for(self, cost: np.ndarray) -> np.ndarray:
        """Objective row (reduced costs per stored column + negated value)
        for a cost vector over all variables."""
        ext = np.concatenate([cost[self.var_of_slot], [0.0]])
        basic_cost = cost[self.basis]
        active = np.flatnonzero(basic_cost != 0.0)
        if active.size:
            # row-major, as the full tableau's rows were
            ext = ext - basic_cost[active] @ np.ascontiguousarray(self.tableau[active])
        return ext

    def row_duals(self, obj_row: np.ndarray) -> np.ndarray:
        """Reduced costs of the surplus variables by row (0 where basic)."""
        dual = np.zeros(self.n_rows)
        surplus = (self.var_of_slot >= self.n_struct) & (
            self.var_of_slot < self.n_struct + self.n_rows
        )
        dual[self.var_of_slot[surplus] - self.n_struct] = obj_row[:-1][surplus]
        return dual

    def solution(self) -> np.ndarray:
        v = np.zeros(self.n_struct)
        rows = np.flatnonzero(self.basis < self.n_struct)
        v[self.basis[rows]] = self.tableau[rows, -1]
        return v

    def refreshed_solution(self) -> np.ndarray:
        """Basic structural values re-solved against the original data.

        Pivot updates accumulate roundoff over long runs and the rhs carries
        the anti-degeneracy relaxation, so reading values off the tableau
        drifts. The basis holds tight every row whose surplus and artificial
        are both nonbasic; solving lhs[tight, S] v_S = rhs[tight] for the
        basic structural columns S against the pristine data removes both
        effects. That system is the terminal basis system with the unit
        surplus and artificial columns eliminated, so it is square and
        nonsingular exactly when the basis is. Falls back to the tableau
        values if it is singular or the solve is not finite.
        """
        n, m = self.n_struct, self.n_rows
        basic = self.basis[self.basis < n]
        loose = np.zeros(m, dtype=bool)
        loose[self.basis[(self.basis >= n) & (self.basis < n + m)] - n] = True
        loose[self.art_rows[self.basis[self.basis >= n + m] - n - m]] = True
        tight = np.flatnonzero(~loose)
        if tight.size != basic.size:
            return self.solution()
        v = np.zeros(n)
        if basic.size == 0:
            return v
        try:
            values = np.linalg.solve(
                self.problem.ineq_lhs[np.ix_(tight, basic)], self.problem.ineq_rhs[tight]
            )
        except np.linalg.LinAlgError:
            return self.solution()
        if not np.all(np.isfinite(values)):
            return self.solution()
        v[basic] = values
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


def solve_lp(problem: LpProblem) -> SolveReport:
    """Two-phase simplex. Zero objectives stop at the first feasible vertex."""
    state = _Tableau(problem)
    state.crash_free_variables()
    state.relax_unassigned_rows()
    state.complete_basis()
    n, m = state.n_struct, state.n_rows

    budget = MAX_ITER
    if state.n_art > 0:
        cost1 = np.zeros(state.n_vars)
        cost1[n + m :] = 1.0
        obj_row = state.reduced_costs_for(cost1)
        verdict = state.run(obj_row, True, budget)
        budget -= state.iterations
        phase1_value = -obj_row[-1]
        if verdict == "iteration_limit":
            return _report(problem, state, SolveStatus.ITERATION_LIMIT, "phase 1 hit the iteration limit")
        if verdict == "unbounded":
            return _report(problem, state, SolveStatus.NUMERICAL_TROUBLE, "phase 1 claimed unbounded")
        if phase1_value > FEAS_TOL * max(1.0, state.rhs_scale):
            lam = _verify_farkas(problem, state.row_duals(obj_row))
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

    if np.any(problem.objective != 0.0):
        cost2 = np.zeros(state.n_vars)
        cost2[:n] = problem.objective
        obj_row = state.reduced_costs_for(cost2)
        verdict = state.run(obj_row, False, max(budget, 1))
        if verdict == "iteration_limit":
            return _report(problem, state, SolveStatus.ITERATION_LIMIT, "phase 2 hit the iteration limit")
        if verdict == "unbounded":
            return _report(problem, state, SolveStatus.NUMERICAL_TROUBLE, "objective unbounded below")
        dual = state.row_duals(obj_row)
    else:
        dual = np.zeros(m)

    point = state.refreshed_solution()
    violation = problem.max_violation(point)
    if violation > FEAS_TOL * max(1.0, state.rhs_scale) * 10.0:
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
    """Pivot zero-level artificial basics out onto real columns when possible,
    onto the largest entry of the row (lowest variable index among equals)."""
    n, m = state.n_struct, state.n_rows
    for row in np.flatnonzero(state.basis >= n + m):
        real = np.flatnonzero(state.var_of_slot < n + m)
        candidates = np.abs(state.tableau[row, real])
        if candidates.size == 0 or candidates.max() <= PIVOT_TOL:
            continue  # the row is redundant; its artificial stays basic at level 0
        best = real[candidates == candidates.max()]
        state._swap(row, int(best[np.argmin(state.var_of_slot[best])]))


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
