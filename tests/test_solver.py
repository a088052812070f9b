import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reslearn.layer1 import HiddenSampleSet, build_hidden_row_lp
from reslearn.layer2 import build_row_feasibility_lp, build_row_slack_lp
from reslearn.model import NetworkGenSpec, generate_unit, sample, standard_mixture
from reslearn.solver import (
    LpProblem,
    QpProblem,
    SolveStatus,
    SolverConfig,
    build_slack_lp,
    solve_lp,
    solve_qp,
)
from reslearn.solver import simplex
from reslearn.solver.split_ls import solve_separable_ls
from reslearn.solver.types import load_problem, problem_from_json, problem_to_json, save_problem


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

    def test_lp_max_violation(self):
        prob = LpProblem(objective=[0.0], ineq_lhs=[[1.0]], ineq_rhs=[2.0], nonneg_vars=(0,))
        assert prob.max_violation([3.0]) == 0.0
        assert prob.max_violation([1.0]) == pytest.approx(1.0)
        assert prob.max_violation([-1.0]) == pytest.approx(3.0)

    def test_qp_objective_includes_constant(self):
        prob = QpProblem(hessian=np.eye(1), linear=[-1.0], constant=0.5)
        assert prob.objective([1.0]) == pytest.approx(0.0)

    def test_json_roundtrip(self):
        qp = QpProblem(
            hessian=np.eye(2), linear=[1.0, -1.0], nonneg_vars=(1,),
            constant=2.0, var_layout={"c_row": (0, 1)},
        )
        back = problem_from_json(problem_to_json(qp))
        np.testing.assert_array_equal(back.hessian, qp.hessian)
        assert back.nonneg_vars == (1,)
        assert back.constant == 2.0
        assert back.var_layout == {"c_row": (0, 1)}

        lp = LpProblem(objective=[0.0, 1.0], ineq_lhs=[[1.0, 2.0]], ineq_rhs=[3.0], nonneg_vars=(0,))
        back = problem_from_json(problem_to_json(lp))
        np.testing.assert_array_equal(back.ineq_lhs, lp.ineq_lhs)
        assert back.nonneg_vars == (0,)

    def test_file_roundtrip(self, tmp_path):
        lp = LpProblem(objective=[1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0])
        path = tmp_path / "prob.json"
        save_problem(path, lp)
        back = load_problem(path)
        np.testing.assert_array_equal(back.objective, lp.objective)


class TestSimplexTextbook:
    def test_hand_lp(self):
        # max x + y s.t. x + 2y <= 4, 4x + 2y <= 12, x, y >= 0
        # optimum (8/3, 2/3), value 10/3
        lhs, rhs = leq([[1.0, 2.0], [4.0, 2.0]], [4.0, 12.0])
        prob = LpProblem(objective=[-1.0, -1.0], ineq_lhs=lhs, ineq_rhs=rhs, nonneg_vars=(0, 1))
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
        # three constraints through the same optimum (0,0) of min x+y
        prob = LpProblem(
            objective=[1.0, 1.0],
            ineq_lhs=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            ineq_rhs=[0.0, 0.0, 0.0],
            nonneg_vars=(0, 1),
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

    def test_unbounded_flagged(self):
        # min -v with only v >= 0: unbounded below
        prob = LpProblem(objective=[-1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0], nonneg_vars=(0,))
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
            prob = LpProblem(objective=obj, ineq_lhs=lhs, ineq_rhs=rhs, nonneg_vars=(0, 1))
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


class TestSimplexOnLayerPrograms:
    def test_terminal_point_satisfies_original_constraints(self):
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(4), 200, 0.0, seed=5)
        from reslearn.layer2 import build_row_feasibility_lp

        for j in range(4):
            prob = build_row_feasibility_lp(s, j)
            rep = solve_lp(prob)
            assert rep.status is SolveStatus.OPTIMAL
            assert prob.max_violation(rep.point) <= 1e-7
            assert rep.max_infeasibility <= 1e-7

    def test_slack_objective_monotone_in_sample_prefix(self):
        # appending constraints can only grow the minimal total violation
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=8, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(2), 60, 0.3, seed=9)
        values = []
        for n in (20, 40, 60):
            prob = build_slack_lp(s.xs[:n], s.ys[:n])
            rep = solve_lp(prob)
            assert rep.status is SolveStatus.OPTIMAL
            values.append(rep.objective_value * n)  # undo the 1/n scaling
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9


def dense_pivot(tableau, obj_row, row, col):
    """Reference Gauss-Jordan pivot that updates the whole tableau."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    obj_row -= obj_row[col] * tableau[row]
    obj_row[col] = 0.0


# Zero or of magnitude in [1e-3, 1e3]: pivots on these cannot overflow, so
# the only entries the sparse pivot skips are the exact x - 0*y ones.
_entries = st.one_of(
    st.just(0.0),
    st.tuples(st.booleans(), st.floats(1e-3, 1e3)).map(lambda t: -t[1] if t[0] else t[1]),
)


@st.composite
def pivot_cases(draw):
    """A tableau with structural zeros and unit columns, an objective row,
    and a pivot position with a nonzero entry outside the rhs column."""
    m = draw(st.integers(1, 8))
    cols = draw(st.integers(2, 12))
    tableau = draw(hnp.arrays(np.float64, (m, cols), elements=_entries))
    for col in draw(st.sets(st.integers(0, cols - 2), max_size=cols - 1)):
        tableau[:, col] = 0.0
        tableau[draw(st.integers(0, m - 1)), col] = 1.0
    obj_row = draw(hnp.arrays(np.float64, cols, elements=_entries))
    candidates = np.argwhere(tableau[:, :-1] != 0.0)
    if candidates.size == 0:
        tableau[0, 0] = 1.0
        candidates = np.array([[0, 0]])
    row, col = candidates[draw(st.integers(0, len(candidates) - 1))]
    return tableau, obj_row, int(row), int(col)


def assert_reports_identical(got, want, name):
    assert got.status is want.status, name
    assert got.iterations == want.iterations, name
    assert np.array_equal(got.point, want.point), name
    for field in ("dual", "certificate"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), (name, field)
        assert a is None or np.array_equal(a, b), (name, field)


class TestSparsePivot:
    @given(pivot_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_pivot(self, case):
        tableau, obj_row, row, col = case
        want_t, want_o = tableau.copy(), obj_row.copy()
        dense_pivot(want_t, want_o, row, col)
        simplex._pivot(tableau, obj_row, row, col)
        assert np.array_equal(tableau, want_t)
        assert np.array_equal(obj_row, want_o)

    @given(pivot_cases())
    @settings(max_examples=60, deadline=None)
    def test_surplus_negation_matches_dense_pivot(self, case):
        tableau, _obj_row, row, col = case
        tableau[:, col] = 0.0
        tableau[row, col] = -1.0
        want = tableau.copy()
        dense_pivot(want, np.zeros(want.shape[1]), row, col)
        simplex._negate_onto_surplus(tableau, row, col)
        assert np.array_equal(tableau, want)

    def test_whole_solves_match_dense_pivot(self, monkeypatch):
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3))
        clean = sample(unit, standard_mixture(4), 120, 0.0, seed=5)
        noisy = sample(unit, standard_mixture(4), 120, 0.1, seed=5)
        hidden = HiddenSampleSet(clean.xs, np.maximum(clean.xs @ unit.a.T, 0.0))
        problems = {
            "layer-2 feasibility": build_row_feasibility_lp(clean, 0),
            "infeasible noisy row": build_row_feasibility_lp(noisy, 0),
            "slack LP of that row": build_row_slack_lp(noisy, 0),
            "layer-1 feasibility": build_hidden_row_lp(hidden, 0),
        }
        sparse = {name: solve_lp(prob) for name, prob in problems.items()}
        assert sparse["infeasible noisy row"].status is SolveStatus.INFEASIBLE
        assert sparse["infeasible noisy row"].certificate is not None
        for name in ("layer-2 feasibility", "slack LP of that row", "layer-1 feasibility"):
            assert sparse[name].status is SolveStatus.OPTIMAL, name

        monkeypatch.setattr(simplex, "_pivot", dense_pivot)
        monkeypatch.setattr(
            simplex, "_negate_onto_surplus",
            lambda tableau, row, col: dense_pivot(tableau, np.zeros(tableau.shape[1]), row, col),
        )
        for name, prob in problems.items():
            assert_reports_identical(sparse[name], solve_lp(prob), name)


class TestBuildSlackLp:
    def test_layout_contract(self):
        g = rng(4)
        xs = g.normal(size=(5, 2))
        ys = g.normal(size=(5, 3))
        prob = build_slack_lp(xs, ys, d=2, m=3)
        n_c = 2 * 3
        assert prob.n_vars == n_c + 5 * 2
        assert prob.n_rows == 5 * 2
        assert prob.nonneg_vars == tuple(range(n_c, prob.n_vars))
        # row for (sample i, coordinate j) reads C[j, :] y_i + zeta_ij >= x_ij
        for i in range(5):
            for j in range(2):
                row = prob.ineq_lhs[i * 2 + j]
                np.testing.assert_array_equal(row[j * 3 : (j + 1) * 3], ys[i])
                assert row[n_c + i * 2 + j] == 1.0
                assert prob.ineq_rhs[i * 2 + j] == xs[i, j]
        # objective touches only the slack block, scaled by 1/n
        np.testing.assert_array_equal(prob.objective[:n_c], 0.0)
        np.testing.assert_array_equal(prob.objective[n_c:], 1.0 / 5)

    def test_noiseless_data_admits_zero_objective(self):
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=15, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(2), 50, 0.0, seed=16)
        rep = solve_lp(build_slack_lp(s.xs, s.ys))
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.objective_value <= 1e-8

    def test_dimension_checks(self):
        from reslearn.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            build_slack_lp(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(DimensionMismatchError):
            build_slack_lp(np.zeros((3, 2)), np.zeros((3, 2)), d=5)


class TestQpEngine:
    def test_unconstrained_matches_linear_solve(self):
        g = rng(5)
        root = g.normal(size=(4, 4))
        h = root.T @ root + np.eye(4)
        q = g.normal(size=4)
        rep = solve_qp(QpProblem(hessian=h, linear=q))
        assert rep.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(rep.point, np.linalg.solve(h, -q), atol=1e-6)

    def test_clipped_projection_case(self):
        # min 1/2||v - c||^2 with v >= 0 is v = max(c, 0)
        c = np.array([1.5, -2.0, 0.5, -0.1])
        rep = solve_qp(QpProblem(hessian=np.eye(4), linear=-c, nonneg_vars=(0, 1, 2, 3)))
        assert rep.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(rep.point, np.maximum(c, 0.0), atol=1e-7)

    def test_kkt_and_complementarity_on_random_qps(self):
        for seed in range(30):
            g = rng(200 + seed)
            k = int(g.integers(2, 7))
            root = g.normal(size=(k + 1, k))
            h = root.T @ root + 0.1 * np.eye(k)
            q = g.normal(size=k)
            bounded = tuple(int(i) for i in np.flatnonzero(g.random(k) < 0.6))
            rep = solve_qp(QpProblem(hessian=h, linear=q, nonneg_vars=bounded))
            assert rep.status is SolveStatus.OPTIMAL
            v, lam = rep.point, rep.dual
            grad = h @ v + q
            idx = list(bounded)
            if idx:
                assert (v[idx] >= -1e-8).all()
                assert (lam[idx] >= -1e-8).all()
                # stationarity: grad - lam = 0 on bounded, grad = 0 on free
                np.testing.assert_allclose(grad[idx], lam[idx], atol=1e-5)
                assert float(np.abs(v[idx] * lam[idx]).max(initial=0.0)) <= 1e-6
            free = [i for i in range(k) if i not in bounded]
            if free:
                # engine terminates at stat_resid <= 10*stat_tol*scale, so allow
                # problem-scale slop here; complementarity stays at 1e-6
                np.testing.assert_allclose(grad[free], 0.0, atol=1e-4)


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

    def test_info_reports_tolerance_and_iterations(self):
        g = rng(9)
        f = g.normal(size=(10, 2))
        t = g.normal(size=(10, 1))
        _, _, info = solve_separable_ls(f, t)
        assert set(info) >= {"iterations", "converged", "kkt_tol"}
        assert info["iterations"] >= 1


class TestEliminatedAgainstAssembled:
    def test_layer2_row_qp_agrees_with_split_solver(self):
        # the assembled QP over (c, xi) and the eliminated solver must land
        # on minimizers of equal objective value
        from reslearn.layer2 import build_row_qp

        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=31, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(2), 40, 0.0, seed=32)
        for j in range(2):
            prob = build_row_qp(s, j)
            rep = solve_qp(prob, SolverConfig(max_iter=60_000))
            assert rep.status is SolveStatus.OPTIMAL
            coeffs, _, info = solve_separable_ls(-s.ys, -s.xs[:, [j]])
            assert info["converged"]
            split_obj = prob.objective(
                np.concatenate([coeffs[:, 0], np.maximum(s.ys @ coeffs[:, 0] - s.xs[:, j], 0.0)])
            )
            assert split_obj == pytest.approx(rep.objective_value, abs=1e-6)
            assert split_obj <= 1e-10  # noiseless: risk reaches zero
