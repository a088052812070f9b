import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslearn.errors import LpShapeError, ReslearnError
from reslearn.model import NetworkGenSpec, generate_unit, sample, standard_mixture
from conftest import split_ls_on_assembled
from reslearn.numerics import is_psd
from reslearn.solver import (
    LpProblem,
    QpProblem,
    SolveStatus,
    row_lp,
    row_qp,
    row_slack_lp,
    solve_lp,
)
from reslearn.solver import simplex, split_ls, types
from reslearn.solver.split_ls import solve_separable_ls


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def leq(lhs, rhs):
    """Rows 'lhs v <= rhs' in the package's >= convention."""
    return -np.asarray(lhs, dtype=float), -np.asarray(rhs, dtype=float)


class TestProblemTypes:
    def test_qp_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError):
            QpProblem(hessian=[[1.0, 2.0], [2.0, 1.0]], linear=[0.0, 0.0])

    def test_qp_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            QpProblem(hessian=np.eye(2), linear=np.zeros(2), nonneg_vars=(5,))
        with pytest.raises(ValueError):
            QpProblem(hessian=np.eye(2), linear=np.zeros(2), nonneg_vars=(0, 0))

    def test_lp_shape_checks(self):
        from reslearn.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            LpProblem(objective=[1.0, 2.0], ineq_lhs=np.eye(3), ineq_rhs=np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            LpProblem(objective=[1.0, 2.0], ineq_lhs=np.eye(2), ineq_rhs=np.zeros(3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_index_check_matches_loop_reference(self, seed):
        # the index check runs on numpy; the reference is its former loop,
        # which the error messages and the returned tuple must match
        def reference(indices, n_vars, name):
            out = tuple(int(i) for i in indices)
            for i in out:
                if not 0 <= i < n_vars:
                    raise ValueError(f"{name} index {i} out of range for {n_vars} variables")
            if len(set(out)) != len(out):
                raise ValueError(f"{name} contains duplicate indices")
            return out

        def outcome(check, indices, n_vars):
            try:
                return check(indices, n_vars, "nonneg_vars")
            except ValueError as exc:
                return str(exc)

        g = rng(seed)
        n_vars = int(g.integers(0, 12))
        indices = g.integers(-2, n_vars + 3, size=int(g.integers(0, 10)))
        if g.random() < 0.5:
            indices = tuple(int(i) for i in indices)
        want = outcome(reference, indices, n_vars)
        got = outcome(types._check_indices, indices, n_vars)
        assert got == want
        if isinstance(want, tuple):
            assert all(type(i) is int for i in got)

    def test_lp_max_violation(self):
        prob = LpProblem(objective=[0.0], ineq_lhs=[[1.0]], ineq_rhs=[2.0], nonneg_vars=(0,))
        assert prob.max_violation([3.0]) == 0.0
        assert prob.max_violation([1.0]) == pytest.approx(1.0)
        assert prob.max_violation([-1.0]) == pytest.approx(3.0)

    def test_qp_objective_includes_constant(self):
        prob = QpProblem(hessian=np.eye(1), linear=[-1.0], constant=0.5)
        assert prob.objective([1.0]) == pytest.approx(0.0)


class TestRowPrograms:
    # Both layers pose these programs over their own design and target
    # (layer 2: F = -Y, t = -x_j; layer 1: F = X, t = h_j), so the layouts
    # are checked once on a generic design.

    def test_qp_layout_and_psd(self):
        g = rng(41)
        f, t = g.standard_normal((6, 2)), g.standard_normal(6)
        prob = row_qp(f, t)
        assert prob.n_vars == 2 + 6
        assert prob.nonneg_vars == tuple(range(2, 8))
        assert is_psd(prob.hessian)
        np.testing.assert_allclose(prob.hessian[:2, :2], f.T @ f / 6)
        np.testing.assert_allclose(prob.hessian[2:, :2], f / 6)
        np.testing.assert_allclose(prob.hessian[2:, 2:], np.eye(6) / 6)
        # the objective is 1/2n ||F u + w - t||^2 exactly, constant included
        u, w = g.standard_normal(2), np.abs(g.standard_normal(6))
        r = f @ u + w - t
        assert prob.objective(np.concatenate([u, w])) == pytest.approx(r @ r / 12, rel=1e-12)

    def test_slack_lp_layout(self):
        g = rng(42)
        f, t = g.standard_normal((5, 2)), g.standard_normal(5)
        prob = row_slack_lp(f, t)
        assert prob.n_vars == 2 + 5
        assert prob.nonneg_vars == tuple(range(2, 7))
        np.testing.assert_array_equal(prob.ineq_lhs[:, :2], -f)
        np.testing.assert_array_equal(prob.ineq_lhs[:, 2:], np.eye(5))
        np.testing.assert_array_equal(prob.ineq_rhs, -t)
        np.testing.assert_array_equal(prob.objective[:2], 0.0)
        np.testing.assert_array_equal(prob.objective[2:], 1.0 / 5)


class TestSimplexTextbook:
    def test_hand_lp(self):
        # max x + y s.t. x + 2y <= 4, 4x + 2y <= 12, x, y >= 0 (as rows)
        # optimum (8/3, 2/3), value 10/3
        lhs, rhs = leq([[1.0, 2.0], [4.0, 2.0], [-1.0, 0.0], [0.0, -1.0]], [4.0, 12.0, 0.0, 0.0])
        prob = LpProblem(objective=[-1.0, -1.0], ineq_lhs=lhs, ineq_rhs=rhs)
        rep = solve_lp(prob)
        assert rep.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(rep.point, [8.0 / 3.0, 2.0 / 3.0], atol=1e-9)
        assert rep.objective_value == pytest.approx(-10.0 / 3.0, abs=1e-9)

    def test_free_variable_lp(self):
        # min v s.t. v >= -5 (v free): optimum -5
        prob = LpProblem(objective=[1.0], ineq_lhs=[[1.0]], ineq_rhs=[-5.0])
        rep = solve_lp(prob)
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.point[0] == pytest.approx(-5.0, abs=1e-9)

    def test_degenerate_vertex(self):
        # three constraints through the same optimum (0,0) of min x+y, and
        # x, y >= 0 as two more rows through it
        prob = LpProblem(
            objective=[1.0, 1.0],
            ineq_lhs=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            ineq_rhs=[0.0, 0.0, 0.0, 0.0, 0.0],
        )
        rep = solve_lp(prob)
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_feasibility_run(self):
        prob = LpProblem(
            objective=[0.0, 0.0],
            ineq_lhs=[[1.0, 1.0], [1.0, -1.0]],
            ineq_rhs=[1.0, 0.0],
        )
        rep = solve_lp(prob)
        assert rep.status is SolveStatus.OPTIMAL
        assert prob.max_violation(rep.point) <= 1e-8

    def test_zero_cost_slack_leaves_no_row(self):
        # a slack at cost 0 would leave its row no weight, and the start a
        # block with no rows; no layer program poses it, so it is rejected
        prob = LpProblem(objective=[0.0, 0.0], ineq_lhs=[[1.0, 1.0]], ineq_rhs=[1.0],
                         nonneg_vars=(1,))
        with pytest.raises(LpShapeError):
            solve_lp(prob)

    def test_unbounded_flagged(self):
        # min -v with only v >= 0, as its one row: unbounded below
        prob = LpProblem(objective=[-1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0])
        rep = solve_lp(prob)
        assert rep.status is SolveStatus.NUMERICAL_TROUBLE
        assert "unbounded" in rep.message

    def test_matches_reference_solver_on_random_lps(self):
        from scipy.optimize import linprog

        hits = 0
        for seed in range(20):
            g = rng(seed)
            n_rows, n_vars = 12, 4
            lhs = g.normal(size=(n_rows, n_vars))
            rhs = lhs @ g.normal(size=n_vars) - g.random(n_rows)  # feasible by construction
            obj = g.normal(size=n_vars)
            # v_0, v_1 >= 0 as two more rows
            prob = LpProblem(objective=obj, ineq_lhs=np.vstack([lhs, np.eye(2, n_vars)]),
                             ineq_rhs=np.r_[rhs, 0.0, 0.0])
            ref = linprog(
                obj, A_ub=-lhs, b_ub=-rhs,
                bounds=[(0, None), (0, None), (None, None), (None, None)],
                method="highs",
            )
            rep = solve_lp(prob)
            if not ref.success:
                continue  # unbounded draws are not the point of this test
            hits += 1
            assert rep.status is SolveStatus.OPTIMAL
            assert rep.objective_value == pytest.approx(ref.fun, abs=1e-7)
        assert hits >= 10


class TestSimplexInfeasibility:
    def test_contradiction_detected_with_certificate(self):
        # x >= 1 and -x >= 0 cannot both hold
        prob = LpProblem(objective=[0.0], ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 0.0])
        rep = solve_lp(prob)
        assert rep.status is SolveStatus.INFEASIBLE
        lam = rep.certificate
        assert lam is not None and (lam >= -1e-10).all()
        # Farkas: lhs' lam = 0 on free vars and rhs . lam > 0
        np.testing.assert_allclose(np.asarray(prob.ineq_lhs).T @ lam, 0.0, atol=1e-8)
        assert float(np.asarray(prob.ineq_rhs) @ lam) > 1e-10

    def test_constructed_infeasible_batch(self):
        detected = 0
        for seed in range(50):
            g = rng(1000 + seed)
            n_vars = int(g.integers(2, 5))
            u = g.normal(size=n_vars)
            row = g.normal(size=n_vars)
            # row . v >= c and -row . v >= 1 - c  =>  0 >= 1, infeasible
            c = float(row @ u)
            extra = g.normal(size=(3, n_vars))
            lhs = np.vstack([row, -row, extra])
            rhs = np.concatenate([[c], [1.0 - c], extra @ u - 1.0 - g.random(3)])
            prob = LpProblem(objective=np.zeros(n_vars), ineq_lhs=lhs, ineq_rhs=rhs)
            rep = solve_lp(prob)
            if rep.status is SolveStatus.INFEASIBLE:
                detected += 1
                lam = rep.certificate
                assert lam is not None and (lam >= -1e-10).all()
                np.testing.assert_allclose(lhs.T @ lam, 0.0, atol=1e-7 * max(1, np.abs(lam).max()))
                assert float(rhs @ lam) > 0.0
        assert detected == 50

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1e-5))
    @settings(max_examples=300, deadline=None)
    def test_farkas_check_matches_loop_reference(self, seed, noise):
        # The check is vectorised; the reference is its former per-column
        # loop. Candidates are rays of a u.v >= 1, -u.v >= 0 pair over free
        # columns (only hard-row LPs, which have no bounded column, reach the
        # check), sometimes with a noisy or negative entry, so both verdicts
        # occur.
        def reference(problem, lam):
            lam = np.where(lam > 0.0, lam, 0.0)
            if lam.max(initial=0.0) <= 0.0:
                return None
            lam = lam / lam.max()
            limit = 1e-6 * float(np.abs(problem.ineq_lhs).max())
            for value in problem.ineq_lhs.T @ lam:
                if abs(value) > limit:
                    return None
            if problem.ineq_rhs @ lam <= 1e-9 * float(np.abs(problem.ineq_rhs).max()):
                return None
            return lam

        g = rng(seed)
        k, extra = int(g.integers(1, 5)), int(g.integers(0, 4))
        u = g.standard_normal(k)
        lhs = np.vstack([u, -u * (1.0 + noise * g.standard_normal()), g.standard_normal((extra, k))])
        rhs = np.concatenate([g.standard_normal(2), g.standard_normal(extra)])
        problem = LpProblem(objective=np.zeros(k), ineq_lhs=lhs, ineq_rhs=rhs)
        lam = np.concatenate([[1.0, 1.0], g.standard_normal(extra) * (g.random() < 0.3)])
        got, want = simplex._verify_farkas(problem, lam), reference(problem, lam)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


class TestSimplexOnLayerPrograms:
    def test_terminal_point_satisfies_original_constraints(self):
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(4), 200, 0.0, seed=5)
        for j in range(4):
            prob = row_lp(-s.ys, -s.xs[:, j])
            rep = solve_lp(prob)
            assert rep.status is SolveStatus.OPTIMAL
            assert prob.max_violation(rep.point) <= 1e-7
            assert rep.max_infeasibility <= 1e-7

    def test_slack_objective_monotone_in_sample_prefix(self):
        # appending constraints can only grow the minimal total violation;
        # the slack LP over all of C decouples into the d row programs, so
        # its optimum is the sum of theirs
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=8, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(2), 60, 0.3, seed=9)
        values = []
        for n in (20, 40, 60):
            total = 0.0
            for row in range(2):
                rep = solve_lp(row_slack_lp(-s.ys[:n], -s.xs[:n, row]))
                assert rep.status is SolveStatus.OPTIMAL
                total += rep.objective_value * n  # undo the 1/n scaling
            values.append(total)
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9

    def test_unique_points_match_recorded(self):
        # Points recorded from the earlier two-phase tableau engine on
        # instances whose solution is unique (a HiGHS sweep of every
        # coordinate collapses to a point), so any correct engine returns
        # them; step counts and certificate supports are engine-specific.
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3))
        clean = sample(unit, standard_mixture(4), 120, 0.0, seed=5)
        noisy = sample(unit, standard_mixture(4), 120, 0.1, seed=5)
        big = sample(unit, standard_mixture(4), 400, 0.0, seed=6)
        feasible = {
            "layer-2 feasibility": (row_lp(-clean.ys, -clean.xs[:, 0]), [
                0.16063707557113988, 0.3698088771426325, 0.41396878341428583,
                -0.27261505369207367]),
            "layer-2 row, n=400": (row_lp(-big.ys, -big.xs[:, 1]), [
                0.14906384813624188, -0.734173152500077, -0.4971908143982081,
                -0.1347411658454168]),
        }
        for name, (prob, point) in feasible.items():
            rep = solve_lp(prob)
            assert rep.status is SolveStatus.OPTIMAL, name
            assert_point_close(rep.point, point, name)

        noisy_row = row_lp(-noisy.ys, -noisy.xs[:, 0])
        rep = solve_lp(noisy_row)
        assert rep.status is SolveStatus.INFEASIBLE
        assert simplex._verify_farkas(noisy_row, rep.certificate) is not None

        rep = solve_lp(row_slack_lp(-noisy.ys, -noisy.xs[:, 0]))
        assert rep.status is SolveStatus.OPTIMAL
        assert_point_close(rep.point[:4], [
            0.16972906546154856, 0.39694303030477734, 0.39236647879790204,
            -0.22078866662275196], "slack LP of that row")
        assert rep.objective_value == pytest.approx(0.0024074256479367077, rel=1e-12)

    def test_start_interpolates_rows_with_data(self):
        # The layer-1 feasible set is a segment of scaled rows, so any of
        # its points is correct; the start's preference for rows with
        # nonzero rhs (activated samples) lands on the teacher row itself.
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3))
        clean = sample(unit, standard_mixture(4), 120, 0.0, seed=5)
        hs = np.maximum(clean.xs @ unit.a.T, 0.0)
        rep = solve_lp(row_lp(clean.xs, hs[:, 0]))
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.iterations == 0
        assert_point_close(rep.point, unit.a[0], "layer-1 feasibility")

    def test_prefer_mask_must_match_the_rows(self):
        from reslearn.errors import DimensionMismatchError

        prob = row_lp(np.eye(3), np.ones(3))
        for prefer in (np.ones(2, dtype=bool), np.ones((3, 1), dtype=bool)):
            with pytest.raises(DimensionMismatchError):
                solve_lp(prob, prefer)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_crash_matches_loop_reference(self, seed):
        # The start's elimination reads each column as a contiguous row and
        # keeps no open-row mask; the reference is its former loop, with the
        # pivot tolerance relative to the column's largest entry in a, and
        # the masked rows preferred over rows with data, and those over the rest.
        def reference(a, rhs, rhs_scale, prefer):
            work = a.copy()
            open_rows = np.ones(a.shape[0], dtype=bool)
            with_data = np.abs(rhs) > 1e-6 * rhs_scale
            if prefer is None:
                prefer = np.zeros(a.shape[0], dtype=bool)
            least = simplex.PIVOT_TOL * np.abs(a).max(axis=0, initial=0.0)
            chosen = []
            for q in range(a.shape[1]):
                column = work[:, q]
                magnitude = np.abs(column)
                usable = open_rows & (magnitude > least[q])
                pool = usable & prefer if (usable & prefer).any() else usable & with_data
                pool = pool if pool.any() else usable
                if pool.any():
                    row = int(np.argmax(np.where(pool, magnitude, -1.0)))
                    chosen.append((q, row))
                    open_rows[row] = False
                    work[:, q + 1 :] -= np.outer(column / column[row], work[row, q + 1 :])
            return chosen

        g = rng(seed)
        n, k = int(g.integers(1, 12)), int(g.integers(1, 7))
        if g.random() < 0.5:  # small integers: tied magnitudes, zero columns
            a = g.integers(-2, 3, size=(n, k)).astype(float)
        else:
            a = g.standard_normal((n, k)) * 10.0 ** float(g.integers(-12, 7))
        for j in range(1, k):  # dependent columns: nothing usable once their basis is in
            if g.random() < 0.3:
                a[:, j] = a[:, :j] @ g.integers(-2, 3, size=j)
        rhs = g.standard_normal(n) * 10.0 ** float(g.integers(-6, 7))
        rhs[g.random(n) < 0.3] *= 1e-7  # below 1e-6 of the largest
        rhs[g.random(n) < 0.2] = 0.0
        rhs_scale = float(np.abs(rhs).max(initial=0.0))
        prefer = (None, np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                  g.random(n) < 0.3)[int(g.integers(0, 4))]
        assert (simplex._crash(a, rhs, rhs_scale, prefer)
                == reference(a, rhs, rhs_scale, prefer))


def mixed_lp():
    """A slack LP of a noisy layer-2 row with the first row's slack taken
    out, so that row is hard and the others soft."""
    unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3))
    noisy = sample(unit, standard_mixture(4), 120, 0.1, seed=5)
    return LpProblem(objective=np.r_[np.zeros(4), np.full(119, 1 / 120)],
                     ineq_lhs=np.hstack([noisy.ys, np.eye(120)[:, 1:]]),
                     ineq_rhs=noisy.xs[:, 0], nonneg_vars=tuple(range(4, 123)))


REJECTED_LPS = {
    "nonnegative column that is not a unit slack": lambda: LpProblem(
        objective=[0.0, 0.0], ineq_lhs=[[1.0, 1.0], [1.0, -1.0]], ineq_rhs=[1.0, 0.0],
        nonneg_vars=(0,)),
    "soft and hard rows": mixed_lp,
    "two slack columns on one row": lambda: LpProblem(
        objective=[0.0, 1.0, 1.0, 1.0], ineq_lhs=[[1.0, 1.0, 1.0, 0.0], [2.0, 0.0, 0.0, 1.0]],
        ineq_rhs=[1.0, 1.0], nonneg_vars=(1, 2, 3)),
    "negative unit entry": lambda: LpProblem(
        objective=[0.0, 1.0], ineq_lhs=[[1.0, -1.0]], ineq_rhs=[1.0], nonneg_vars=(1,)),
    "cost on a free column of a slack LP": lambda: LpProblem(
        objective=[1.0, 1.0], ineq_lhs=[[1.0, 1.0]], ineq_rhs=[1.0], nonneg_vars=(1,)),
    "zero-cost slack": lambda: LpProblem(
        objective=[0.0, 0.0], ineq_lhs=[[1.0, 1.0]], ineq_rhs=[1.0], nonneg_vars=(1,)),
}


class TestLpShapes:
    # solve_lp takes hard-row LPs and slack LPs; every other shape raises
    # one typed error before the start or either method runs

    @pytest.mark.parametrize("name", sorted(REJECTED_LPS))
    def test_rejected_before_any_step(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("took a step")

        for engine in ("_crash", "_run", "_descend"):
            monkeypatch.setattr(simplex, engine, refuse)
        with pytest.raises(LpShapeError) as caught:
            solve_lp(REJECTED_LPS[name]())
        assert isinstance(caught.value, ReslearnError) and isinstance(caught.value, ValueError)


class TestSoftRowDescent:
    # Slack LPs (one weighted slack column per row, every row soft) take
    # the long-step primal descent; hard-row LPs keep the dual method, so
    # feasibility runs and their Farkas rays do not move.

    def test_dispatch_by_row_kind(self, monkeypatch):
        calls = []

        def recording(name, engine):
            def wrapper(*args):
                calls.append(name)
                return engine(*args)
            return wrapper

        for name in ("_run", "_descend"):
            monkeypatch.setattr(simplex, name, recording(name, getattr(simplex, name)))
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3))
        noisy = sample(unit, standard_mixture(4), 120, 0.1, seed=5)
        solve_lp(row_lp(-noisy.ys, -noisy.xs[:, 0]))
        solve_lp(row_slack_lp(-noisy.ys, -noisy.xs[:, 0]))
        assert calls == ["_run", "_descend"]

    def test_noisy_bench_shapes_take_few_steps(self):
        # the slack LPs of the d=4, n=400, sigma=0.1 benchmark trials,
        # rebuilt from their (seed, trial) labels; seed 953 trial 65 row 1
        # is where reading the violated set off residual signs cycled
        from scipy.optimize import linprog

        from reslearn.model import derive_seed

        for seed, trial in ((953, 65), (1, 0), (1, 1)):
            unit = generate_unit(NetworkGenSpec(
                d=4, m=4, seed=derive_seed(seed, "slack-sweep", "teacher", trial)))
            s = sample(unit, standard_mixture(4), 400, 0.1,
                       seed=derive_seed(seed, "slack-sweep", "train", trial))
            for row in range(4):
                prob = row_slack_lp(-s.ys, -s.xs[:, row])
                rep = solve_lp(prob)
                ref = linprog(prob.objective, A_ub=-prob.ineq_lhs, b_ub=-prob.ineq_rhs,
                              bounds=[(None, None)] * 4 + [(0, None)] * 400, method="highs")
                label = f"seed {seed} trial {trial} row {row}"
                assert rep.status is SolveStatus.OPTIMAL, label
                assert rep.iterations <= 10 * 4, label
                assert abs(rep.objective_value - ref.fun) <= 1e-9 * ref.fun, label

    def test_dual_is_box_multipliers(self):
        # lam_T on the tight rows, w on rows past their bound, 0 elsewhere;
        # together they price the objective: lhs' dual = objective on the
        # free columns
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3))
        noisy = sample(unit, standard_mixture(4), 120, 0.1, seed=5)
        prob = row_slack_lp(-noisy.ys, -noisy.xs[:, 0])
        rep = solve_lp(prob)
        assert rep.status is SolveStatus.OPTIMAL
        w = 1.0 / 120
        residual = prob.ineq_lhs[:, :4] @ rep.point[:4] - prob.ineq_rhs
        assert rep.dual.min() >= 0.0 and rep.dual.max() <= w * (1 + 1e-12)
        np.testing.assert_array_equal(rep.dual[residual < -1e-9], w)
        np.testing.assert_array_equal(rep.dual[residual > 1e-9], 0.0)
        assert np.abs(prob.ineq_lhs[:, :4].T @ rep.dual).max() <= 1e-12
        # strong duality: b . dual = the optimal slack objective
        assert float(prob.ineq_rhs @ rep.dual) == pytest.approx(rep.objective_value, rel=1e-12)


def bench_shape_lps(seed=11):
    """(builder, design, target) of the d=4, n=400 row LPs of one teacher:
    clean layer-2 and layer-1 feasibility rows, and noisy (sigma=0.1)
    layer-2 rows, whose feasibility LPs are infeasible, with their slack LPs."""
    unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=seed))
    clean = sample(unit, standard_mixture(4), 400, 0.0, seed=seed + 1)
    noisy = sample(unit, standard_mixture(4), 400, 0.1, seed=seed + 1)
    hs = np.maximum(clean.xs @ unit.a.T, 0.0)
    lps = []
    for j in range(4):
        lps += [(row_lp, -clean.ys, -clean.xs[:, j]), (row_lp, clean.xs, hs[:, j]),
                (row_lp, -noisy.ys, -noisy.xs[:, j]), (row_slack_lp, -noisy.ys, -noisy.xs[:, j])]
    return lps


class TestLpScaleEquivariance:
    # Scaling by a power of two is exact in binary floating point, so an
    # engine whose tolerances are all relative to the data takes the same
    # steps and returns exactly scaled points; an absolute constant shows
    # up as another step count or a point off by rounding.

    def test_row_lps_scale_exactly_by_powers_of_two(self):
        for build, design, target in bench_shape_lps():
            base = solve_lp(build(design, target))
            p = design.shape[1]
            assert base.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
            for k in range(-20, 21):
                s = 2.0 ** k
                # the target alone: the whole point scales by s
                rep = solve_lp(build(design, s * target))
                assert (rep.status, rep.iterations) == (base.status, base.iterations), k
                np.testing.assert_array_equal(rep.point, s * base.point)
                # design and target: u stays, the slack block scales by s
                rep = solve_lp(build(s * design, s * target))
                assert (rep.status, rep.iterations) == (base.status, base.iterations), k
                np.testing.assert_array_equal(rep.point[:p], base.point[:p])
                np.testing.assert_array_equal(rep.point[p:], s * base.point[p:])


def record_lp_path(run):
    """(layer, status, steps, factorisations) of each solve_lp call the layer
    learners make while run() runs; factorisations counts the calls of the
    linear-algebra functions the engine could factor a basis with."""
    from reslearn import layer1, layer2

    calls, factored = [], [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            factored[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording(layer):
        def wrapper(problem, prefer=None):
            before = factored[0]
            rep = solve_lp(problem, prefer)
            calls.append((layer, rep.status.value, rep.iterations, factored[0] - before))
            return rep
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("inv", "solve", "lstsq", "pinv"):
            patch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        patch.setattr(layer1, "solve_lp", recording("layer1"))
        patch.setattr(layer2, "solve_lp", recording("layer2"))
        run()
    return calls


def lp_path_runs():
    """Benchmark-shape LP work by name: the lp-clean and slack-sweep layer
    programs at d=4, n=400 (pipeline runs), and layer-2 row LPs at d=10 and
    d=16, n=512, with the orthant mask layer 2 passes."""
    from reslearn import layer2
    from reslearn.evaluation import full_pipeline

    def pipeline(seed, sigmas, method):
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=seed))
        for sigma in sigmas:
            full_pipeline(sample(unit, standard_mixture(4), 400, sigma, seed=seed + 1), method)

    def layer2_rows(d, seed):
        unit = generate_unit(NetworkGenSpec(d=d, m=d, seed=seed))
        s = sample(unit, standard_mixture(d), 512, 0.0, seed=seed + 1)
        tight = np.all(s.xs <= 0, axis=1)
        for j in range(d):
            layer2.solve_lp(row_lp(-s.ys, -s.xs[:, j]), prefer=tight)

    return {
        "lp-clean": lambda: [pipeline(seed, (0.0,), "lp") for seed in (1, 2)],
        "slack-sweep": lambda: pipeline(11, (0.0, 0.1), "slack-lp"),
        "layer-2 d=10": lambda: layer2_rows(10, 5),
        "layer-2 d=16": lambda: layer2_rows(16, 5),
    }


class TestLpPath:
    # The status and step count of every LP in a fixed set of benchmark-shape
    # runs, one "<layer><status initial><steps>" per call in call order:
    # how the engine factors a basis must move no vertex and no step. Each
    # call factors one p x p basis per step, plus one for the start.
    PATH = {
        "lp-clean": "2o0 2o0 2o0 2o0 1o0 1o0 1o0 1o0 2o0 2o0 2o0 2o0 1o0 1o0 1o0 1o0",
        "slack-sweep": "2o0 2o0 2o0 2o0 1o0 1o0 1o0 1o0 2i4 2o15 2i4 2o11 2i3 2o7 2i5 2o12 "
                       "1o7 1o4 1o6 1o5",
        "layer-2 d=10": "2o11 2o31 2o17 2o21 2o18 2o20 2o23 2o18 2o17 2o15",
        "layer-2 d=16": "2o33 2o49 2o26 2o29 2o34 2o35 2o25 2o34 2o37 2o33 2o33 2o35 2o26 2o28 "
                        "2o43 2o32",
    }

    @pytest.mark.parametrize("name", sorted(PATH))
    def test_steps_match_recorded_and_factor_once_per_step(self, name):
        calls = record_lp_path(lp_path_runs()[name])
        got = " ".join(f"{layer[-1]}{status[0]}{steps}" for layer, status, steps, _ in calls)
        assert got == self.PATH[name]
        for layer, status, steps, factored in calls:
            assert factored <= steps + 1, (layer, status, steps, factored)


def assert_point_close(got, want, name):
    want = np.asarray(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


@st.composite
def reference_lps(draw):
    """Random small LPs of the two shapes solve_lp takes, k <= 6 free
    columns and 3-40 data rows. Hard-row LPs, with v_j >= 0 for a random
    subset of columns posed as more rows: feasible by construction,
    infeasible by the u.v >= 1, -u.v >= 0 pair, feasible with a box and a
    cost vector, or "integer": entries in -2..2 (degenerate vertices, tied
    ratios, zero rows) with a cost in -2..2 and a box |v_j| <= 3. Slack LPs,
    one unit column per row: "slack", Gaussian rows at cost 1/rows (the
    layer programs' soft rows) with rhs scattered about a feasible point, or
    "slack-integer", entries in -2..2, unit entries 1-2 and costs 1-2."""
    k = draw(st.integers(1, 6))
    rows = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(
        ["feasible", "infeasible", "boxed", "integer", "slack", "slack-integer"]))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    nonneg = np.flatnonzero(g.random(k) < 0.5)
    objective = np.zeros(k)
    if kind in ("slack", "slack-integer"):
        if kind == "slack":
            lhs = g.standard_normal((rows, k))
            rhs = lhs @ g.standard_normal(k) + g.standard_normal(rows)
            units, costs = np.ones(rows), np.full(rows, 1.0 / rows)
        else:
            lhs = g.integers(-2, 3, size=(rows, k)).astype(float)
            rhs = g.integers(-2, 3, size=rows).astype(float)
            units, costs = g.integers(1, 3, size=rows), g.integers(1, 3, size=rows)
        lhs = np.hstack([lhs, np.diag(units)])
        objective = np.concatenate([np.zeros(k), costs])
        return kind, LpProblem(objective=objective, ineq_lhs=lhs, ineq_rhs=rhs,
                               nonneg_vars=tuple(range(k, k + rows)))
    if kind == "infeasible":
        u = g.standard_normal(k)
        extra = g.standard_normal((rows - 2, k))
        lhs = np.vstack([u, -u, extra])
        rhs = np.concatenate([[1.0, 0.0], -np.abs(g.standard_normal(rows - 2)) - 5.0])
    elif kind == "integer":
        lhs = np.vstack([g.integers(-2, 3, size=(rows, k)), np.eye(k), -np.eye(k)])
        rhs = np.concatenate([g.integers(-2, 3, size=rows), np.full(2 * k, -3.0)])
        objective = g.integers(-2, 3, size=k).astype(float)
    else:
        inner = g.standard_normal(k)
        inner[nonneg] = np.abs(inner[nonneg])
        lhs = g.standard_normal((rows, k))
        rhs = lhs @ inner - g.random(rows)
        if kind == "boxed":
            lhs = np.vstack([lhs, np.eye(k), -np.eye(k)])
            rhs = np.concatenate([rhs, np.full(2 * k, -10.0)])
            objective = g.standard_normal(k)
    lhs = np.vstack([lhs, np.eye(k)[nonneg]])  # v_j >= 0 as rows
    rhs = np.concatenate([rhs, np.zeros(nonneg.size)])
    return kind, LpProblem(objective=objective, ineq_lhs=lhs, ineq_rhs=rhs)


class TestSimplexAgainstHighs:
    @given(reference_lps())
    @settings(max_examples=160, deadline=None)
    def test_status_objective_and_certificates(self, case):
        from scipy.optimize import linprog

        kind, problem = case
        bounds = [(0, None) if j in problem.nonneg_vars else (None, None)
                  for j in range(problem.n_vars)]
        ref = linprog(problem.objective, A_ub=-problem.ineq_lhs, b_ub=-problem.ineq_rhs,
                      bounds=bounds, method="highs")
        assert ref.status in (0, 2)
        rep = solve_lp(problem)
        if ref.status == 2:
            assert rep.status is SolveStatus.INFEASIBLE
            lam, lhs, rhs = rep.certificate, problem.ineq_lhs, problem.ineq_rhs
            pull = lhs.T @ lam
            limit = 1e-6 * max(1.0, float(np.abs(lam).max()))
            free = [j for j in range(problem.n_vars) if j not in problem.nonneg_vars]
            assert lam.min() >= -1e-9
            assert float(rhs @ lam) > 0.0
            assert float(np.abs(pull[free]).max(initial=0.0)) <= limit
            assert float(pull[list(problem.nonneg_vars)].max(initial=0.0)) <= limit
            return
        assert rep.status is SolveStatus.OPTIMAL
        assert abs(rep.objective_value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
        rhs_scale = max(1.0, float(np.abs(problem.ineq_rhs).max()))
        assert problem.max_violation(rep.point) <= simplex.FEAS_TOL * rhs_scale * 10.0
        if kind == "slack" and ref.fun > 1e-9:
            # a positive one-sided L1 optimum of generic data is one vertex
            scale = max(1.0, float(np.abs(ref.x).max()))
            assert float(np.abs(rep.point - ref.x).max()) <= 1e-7 * scale


    @given(reference_lps())
    @settings(max_examples=100, deadline=None)
    def test_bland_steps_alone_reach_the_same_optimum(self, case):
        # Bland's rule takes over only after BLAND_AFTER zero-length descent
        # steps, which few draws take; here it takes every descent step
        _, problem = case
        want = solve_lp(problem)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex, "BLAND_AFTER", 0)
            got = solve_lp(problem)
        assert got.status is want.status
        if want.status is SolveStatus.OPTIMAL:
            gap = abs(got.objective_value - want.objective_value)
            assert gap <= 1e-9 * max(1.0, abs(want.objective_value))


def traced_peak(problem):
    """Report and peak bytes allocated while solving an already built LP."""
    import tracemalloc

    tracemalloc.start()
    try:
        rep = solve_lp(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rep, peak


class TestCostModel:
    # one n x n float array at n=2000 is 32 MB; the solver's own arrays are
    # n x (d + 1) and, for slack LPs, one n x (n + d) boolean mask (4 MB)

    def test_layer1_feasibility_lp_allocates_no_square_array(self):
        g = rng(11)
        xs = g.standard_normal((2000, 4))
        hs = np.maximum(xs @ np.abs(g.standard_normal((4, 4))).T, 0.0)
        rep, peak = traced_peak(row_lp(xs, hs[:, 0]))
        assert rep.status is SolveStatus.OPTIMAL
        assert peak < 4e6

    def test_slack_lp_allocates_no_square_array(self):
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=12))
        noisy = sample(unit, standard_mixture(4), 2000, 0.1, seed=13)
        rep, peak = traced_peak(row_slack_lp(-noisy.ys, -noisy.xs[:, 0]))
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.objective_value > 0.0
        assert peak < 8e6


class TestSeparableLs:
    @staticmethod
    def one_sided_value(f, t, u, eps=0.0):
        r = f @ u - t
        w = np.where(r > 0, 1.0, eps)
        return 0.5 * float(np.sum(w * r * r))

    def test_consistent_system_fits_exactly(self):
        g = rng(6)
        f = g.normal(size=(30, 3))
        u_true = g.normal(size=(3, 2))
        t = f @ u_true + np.abs(g.normal(size=(30, 2)))  # targets above the plane
        coeffs, nonneg, info = solve_separable_ls(f, t)
        assert info["converged"]
        # optimum value 0: (F u - t)_+ = 0
        assert np.maximum(f @ coeffs - t, 0.0).max() <= 1e-8
        # rows can sit a clip-width below the surface at the tie-broken point
        np.testing.assert_allclose(nonneg, t - f @ coeffs, atol=1e-8)
        assert nonneg.min() >= 0.0

    def test_matches_scipy_on_strictly_active_instance(self):
        from scipy.optimize import minimize

        g = rng(7)
        f = g.normal(size=(40, 3))
        t = g.normal(size=40)
        coeffs, _, info = solve_separable_ls(f, t.reshape(-1, 1), back_weight=1e-10)
        assert info["converged"]

        def val(u):
            return self.one_sided_value(f, t, u, eps=1e-10)

        ref = minimize(val, np.zeros(3), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
        assert val(coeffs[:, 0]) <= ref.fun + 1e-10

    def test_batch_columns_solved_independently(self):
        g = rng(8)
        f = g.normal(size=(25, 2))
        t = g.normal(size=(25, 3))
        coeffs, _, _ = solve_separable_ls(f, t)
        for col in range(3):
            single, _, _ = solve_separable_ls(f, t[:, [col]])
            np.testing.assert_allclose(coeffs[:, col], single[:, 0], atol=1e-9)

    def test_not_converged_raises(self, monkeypatch):
        # a zero Newton budget leaves the least-squares warm start, whose
        # one-sided gradient is nonzero on mixed-sign residuals
        from reslearn.errors import SolverFailedError

        g = rng(10)
        f = g.normal(size=(30, 2))
        t = g.normal(size=(30, 2))
        monkeypatch.setattr(split_ls, "NEWTON_BUDGET", 0)
        with pytest.raises(SolverFailedError, match="did not converge"):
            solve_separable_ls(f, t)

    def test_all_zero_design_returns_zero_at_once(self):
        # the ridge of a zero Gram matrix is subnormal; the warm start still
        # comes out 0, which is already optimal
        t = rng(14).normal(size=(20, 2))
        coeffs, nonneg, info = solve_separable_ls(np.zeros((20, 3)), t)
        assert info["converged"] and info["iterations"] == 0
        np.testing.assert_array_equal(coeffs, 0.0)
        np.testing.assert_array_equal(nonneg, np.maximum(t, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["design", "targets"])
    def test_non_finite_input_raises_typed_error(self, bad, where):
        from reslearn.errors import NonFiniteError

        g = rng(15)
        f, t = g.normal(size=(20, 3)), g.normal(size=(20, 2))
        (f if where == "design" else t)[4, 1] = bad
        with pytest.raises(NonFiniteError, match=f"{where} contains non-finite"):
            solve_separable_ls(f, t)

    def test_gram_overflow_raises_at_once(self):
        # finite entries whose Gram matrix overflows: the factor would be NaN
        # without a LinAlgError, and the Newton loop would spend its budget
        from reslearn.errors import SolverFailedError

        with pytest.raises(SolverFailedError, match="overflows"):
            solve_separable_ls(np.full((5, 2), 1e200), np.ones((5, 1)))
        with pytest.raises(SolverFailedError, match="overflows"):
            solve_separable_ls(rng(16).normal(size=(5, 2)), np.full((5, 1), 1e308))

    @pytest.mark.parametrize("schedule", [(), (1e-6, 1e-3), (1e-6, 1e-6)])
    def test_schedule_must_decrease(self, schedule):
        g = rng(17)
        with pytest.raises(ValueError, match="strictly decreasing"):
            solve_separable_ls(g.normal(size=(10, 2)), g.normal(size=(10, 1)), back_weight=schedule)

    def test_info_reports_tolerance_and_iterations(self):
        g = rng(9)
        f = g.normal(size=(10, 2))
        t = g.normal(size=(10, 1))
        _, _, info = solve_separable_ls(f, t)
        assert set(info) >= {"iterations", "converged", "kkt_tol"}
        assert info["iterations"] >= 1


def layer_design(layer):
    """(design, targets) the QP route poses at d=16, n=512 on clean data."""
    unit = generate_unit(NetworkGenSpec(d=16, m=16, seed=41))
    s = sample(unit, standard_mixture(16), 512, 0.0, seed=42)
    if layer == "layer2":
        return -s.ys, -s.xs
    return s.xs, np.maximum(s.xs @ unit.a.T, 0.0)


class TestLockstepNewton:
    """All columns of one call step together; each must still follow its
    own iteration: Newton step or gradient fallback, Armijo length, stop."""

    @staticmethod
    def engine_inputs(f, t):
        """The engine's inputs, as ``solve_separable_ls`` derives them."""
        gram = f.T @ f
        warm = np.linalg.solve(gram, f.T @ t)
        ell = float(np.linalg.eigvalsh(gram)[-1])
        tol = split_ls.KKT_TOL * float(np.abs(f.T @ t).max())
        return np.ascontiguousarray(t.T), warm.T, ell, tol

    # The layer-1 design at back weight 1e-10 is left out: no learner poses
    # it, and its tie-break face is so flat that rounding alone (a one-row
    # product against a sixteen-row one) moves the stopping point ~1e-8.
    @pytest.mark.parametrize("layer, back_weight", [
        ("layer2", 1e-10), ("layer2", 1e-6), ("layer1", 1e-6),
    ])
    def test_columns_match_one_column_runs(self, layer, back_weight):
        # at the batch's shared KKT tolerance, a column run alone takes the
        # same iterations to the same point
        f, t = layer_design(layer)
        t_rows, warm, ell, tol = self.engine_inputs(f, t)
        budget = split_ls.NEWTON_BUDGET
        u, its, ok = split_ls._newton_lockstep(f, t_rows, warm, ell, tol, budget, (back_weight,))
        assert ok.all()
        assert len(set(its.tolist())) > 1  # columns leave the live set at different times
        for j in range(t.shape[1]):
            one, one_its, one_ok = split_ls._newton_lockstep(
                f, t_rows[j : j + 1], warm[j : j + 1], ell, tol, budget, (back_weight,))
            assert one_ok[0] and one_its[0] == its[j]
            np.testing.assert_allclose(u[j], one[0], rtol=0, atol=1e-12 * np.abs(one).max())

    def test_batch_mixes_converged_and_slow_columns(self):
        g = rng(12)
        f = g.normal(size=(60, 3))
        t = np.column_stack([f @ g.normal(size=3), np.zeros(60), g.normal(size=(60, 2))])
        coeffs, _, info = solve_separable_ls(f, t)
        its = info["column_iterations"]
        # an exactly fitted column and a zero column start at their optimum
        assert its[:2] == [0, 0] and min(its[2:]) >= 1
        assert info["iterations"] == max(its)
        np.testing.assert_array_equal(coeffs[:, 1], 0.0)
        t_rows, warm, ell, tol = self.engine_inputs(f, t)
        for j in (2, 3):
            one, one_its, _ = split_ls._newton_lockstep(
                f, t_rows[j : j + 1], warm[j : j + 1], ell, tol, split_ls.NEWTON_BUDGET,
                (split_ls.BACK_WEIGHT,))
            assert one_its[0] == its[j]

    def test_all_zero_targets_return_zero(self):
        f = rng(13).normal(size=(40, 3))
        coeffs, nonneg, info = solve_separable_ls(f, np.zeros((40, 2)))
        assert info["converged"] and info["iterations"] == 0
        np.testing.assert_array_equal(coeffs, 0.0)
        np.testing.assert_array_equal(nonneg, 0.0)

    @pytest.mark.parametrize("spoil", ["ascent", "failed solve"])
    def test_fallback_is_per_column(self, monkeypatch, spoil):
        f, t = layer_design("layer2")
        ref, _, ref_info = solve_separable_ls(f, t)
        real = split_ls._newton_steps
        live = []

        def spoiled(hess, grad):
            steps = real(hess, grad)
            if not live:  # first iteration: column 0's step is useless
                steps[0] = -steps[0] if spoil == "ascent" else np.nan
            live.append(len(grad))
            return steps

        monkeypatch.setattr(split_ls, "_newton_steps", spoiled)
        got, _, info = solve_separable_ls(f, t)
        assert live[0] == t.shape[1]
        assert info["converged"]
        # column 0 recovers from its gradient step; the others keep their
        # Newton steps, so their iterations and points do not change
        assert info["column_iterations"][1:] == ref_info["column_iterations"][1:]
        np.testing.assert_allclose(got[:, 1:], ref[:, 1:], rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_singular_system_gives_nan_for_its_column_only(self):
        hess = np.stack([2.0 * np.eye(2), np.zeros((2, 2)), np.diag([1.0, 4.0])])
        grad = np.array([[2.0, 2.0], [1.0, 1.0], [1.0, 4.0]])
        steps = split_ls._newton_steps(hess, grad)
        np.testing.assert_array_equal(steps[[0, 2]], -1.0)
        assert np.isnan(steps[1]).all()

    def test_call_memory_stays_within_cost_model(self):
        import tracemalloc

        f, t = layer_design("layer2")
        tracemalloc.start()
        try:
            solve_separable_ls(f, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # n p(p+1)/2 row products (0.56 MB) plus a few (k, n) working arrays
        assert peak < 2e6


def soft_gate_design():
    """(design, targets) of a layer-1 soft gate: hidden values from layer 2's
    slack LP on sigma=0.1 samples at d=4, n=400, where the gate fires."""
    from reslearn.layer2 import learn_layer2

    unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=11))
    s = sample(unit, standard_mixture(4), 400, 0.1, seed=12)
    return s.xs, np.maximum(learn_layer2(s, "slack-lp").xi_hat, 0.0)


class TestContinuation:
    """A decreasing back-weight tuple solves one stage per weight, each
    warm-started from the last, on one shared set-up and stop."""

    SCHEDULE = (1e-3, 1e-6)

    @pytest.mark.parametrize("instance", ["layer1", "soft gate"])
    def test_schedule_lands_where_one_stage_does(self, instance):
        f, t = layer_design("layer1") if instance == "layer1" else soft_gate_design()
        staged, _, _ = solve_separable_ls(f, t, back_weight=self.SCHEDULE)
        direct, _, _ = solve_separable_ls(f, t, back_weight=self.SCHEDULE[-1])
        np.testing.assert_allclose(staged, direct, rtol=0, atol=1e-9 * np.abs(direct).max())

    def test_iterations_sum_over_stages(self):
        f, t = layer_design("layer1")
        _, _, info = solve_separable_ls(f, t, back_weight=self.SCHEDULE)
        t_rows, warm, ell, tol = TestLockstepNewton.engine_inputs(f, t)
        budget = split_ls.NEWTON_BUDGET
        u = warm
        per_stage = []
        for eps in self.SCHEDULE:
            u, its, ok = split_ls._newton_lockstep(f, t_rows, u, ell, tol, budget, (eps,))
            assert ok.all()
            per_stage.append(its)
        assert info["column_iterations"] == (per_stage[0] + per_stage[1]).tolist()
        assert info["iterations"] == max(info["column_iterations"])
        assert per_stage[0].min() >= 1 and per_stage[1].min() >= 1

    @pytest.mark.parametrize("instance", ["layer1", "soft gate"])
    def test_scales_exactly_by_powers_of_two(self, instance):
        # as in TestLpScaleEquivariance: every tolerance is relative, so the
        # stages take the same iterations and the points scale exactly
        f, t = layer_design("layer1") if instance == "layer1" else soft_gate_design()
        base, _, info = solve_separable_ls(f, t, back_weight=self.SCHEDULE)
        _, _, first_info = solve_separable_ls(f, t, back_weight=self.SCHEDULE[:1])
        for k in range(-20, 21):
            s = 2.0 ** k
            for design, scaled in ((f, s * base), (s * f, base)):
                got, _, got_info = solve_separable_ls(design, s * t, back_weight=self.SCHEDULE)
                assert got_info["column_iterations"] == info["column_iterations"], k
                np.testing.assert_array_equal(got, scaled)
                _, _, got_info = solve_separable_ls(design, s * t, back_weight=self.SCHEDULE[:1])
                assert got_info["column_iterations"] == first_info["column_iterations"], k

    @pytest.mark.parametrize("schedule", [1e-6, (1e-3, 1e-6), (1e-2, 1e-4, 1e-6)])
    def test_row_products_built_once_per_call(self, monkeypatch, schedule):
        f, t = layer_design("layer1")
        calls = []
        real = split_ls._row_products

        def counting(design):
            calls.append(design.shape)
            return real(design)

        monkeypatch.setattr(split_ls, "_row_products", counting)
        solve_separable_ls(f, t, back_weight=schedule)
        assert calls == [f.shape]


class TestEliminatedAgainstAssembled:
    # The learners solve the QP route only in its eliminated form; the
    # assembled QP over (free block, slacks) is what that form stands for.
    # Its KKT conditions are read through the assembled gradient, and its
    # optimum comes from scipy's BVLS on [F | I], independent of split_ls.

    @staticmethod
    def assert_optimal(got):
        assert got["sign"] <= 1e-12
        assert got["complementarity"] <= 1e-6
        assert got["stationarity"] <= 1e-5
        assert abs(got["bvls_gap"]) <= 1e-9

    def test_layer2_row_qp_agrees_with_split_solver(self):
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=31, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(2), 40, 0.0, seed=32)
        for j in range(2):
            got = split_ls_on_assembled(-s.ys, -s.xs[:, j], back_weight=1e-10)
            self.assert_optimal(got)
            assert got["objective"] <= 1e-10  # noiseless: risk reaches zero

    def test_layer1_row_qp_agrees_with_split_solver(self):
        unit = generate_unit(NetworkGenSpec(d=3, m=3, seed=33))
        clean = sample(unit, standard_mixture(3), 60, 0.0, seed=34)
        noisy = np.maximum(clean.xs @ unit.a.T + 0.1 * rng(35).standard_normal((60, 3)), 0.0)
        for hs in (np.maximum(clean.xs @ unit.a.T, 0.0), noisy):
            for j in range(3):
                self.assert_optimal(split_ls_on_assembled(clean.xs, hs[:, j], back_weight=1e-6))


class TestImportFootprint:
    def test_package_import_loads_no_scipy(self):
        """No ``scipy`` module is loaded by the package; it is test-only.

        Every dense solve goes through ``numpy.linalg``. Dropping
        ``scipy.linalg``, the last runtime import, took a fresh ``import
        reslearn, reslearn.cli`` from 0.69 to 0.30 s and from 57.9 to 33.0 MB
        peak RSS (medians of 8 alternated runs on a 2-core x86_64 container,
        scipy 1.17, numpy 2.4), and left one OpenBLAS thread pool, numpy's,
        where there were two. The HiGHS, BVLS and ``minimize`` references in
        the tests import scipy instead.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        import reslearn

        src = str(Path(reslearn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, reslearn, reslearn.cli; "
                "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
