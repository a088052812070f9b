import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reslearn.layer1 import HiddenSampleSet, build_hidden_row_lp
from reslearn.layer2 import build_row_feasibility_lp, build_row_slack_lp
from reslearn.model import NetworkGenSpec, SampleSet, generate_unit, sample, standard_mixture
from conftest import split_ls_on_assembled
from reslearn.solver import LpProblem, QpProblem, SolveStatus, solve_lp
from reslearn.solver import simplex, split_ls
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

    def test_lp_max_violation(self):
        prob = LpProblem(objective=[0.0], ineq_lhs=[[1.0]], ineq_rhs=[2.0], nonneg_vars=(0,))
        assert prob.max_violation([3.0]) == 0.0
        assert prob.max_violation([1.0]) == pytest.approx(1.0)
        assert prob.max_violation([-1.0]) == pytest.approx(3.0)

    def test_qp_objective_includes_constant(self):
        prob = QpProblem(hessian=np.eye(1), linear=[-1.0], constant=0.5)
        assert prob.objective([1.0]) == pytest.approx(0.0)


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
        # appending constraints can only grow the minimal total violation;
        # the slack LP over all of C decouples into the d row programs, so
        # its optimum is the sum of theirs
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=8, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(2), 60, 0.3, seed=9)
        values = []
        for n in (20, 40, 60):
            prefix = SampleSet(xs=s.xs[:n], ys=s.ys[:n])
            total = 0.0
            for row in range(2):
                rep = solve_lp(build_row_slack_lp(prefix, row))
                assert rep.status is SolveStatus.OPTIMAL
                total += rep.objective_value * n  # undo the 1/n scaling
            values.append(total)
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
# the only entries the dictionary pivot skips are the exact x - 0*y ones.
_entries = st.one_of(
    st.just(0.0),
    st.tuples(st.booleans(), st.floats(1e-3, 1e3)).map(lambda t: -t[1] if t[0] else t[1]),
)


@st.composite
def dictionary_cases(draw):
    """A dictionary (nonbasic columns | rhs) with its objective row, the
    same state as a full tableau in which each row has a basic column
    (+e_row, or -e_row for a row still holding its own surplus), and a
    pivot position with a nonzero entry in a nonbasic column."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 10))
    stored = draw(hnp.arrays(np.float64, (m, k + 1), elements=_entries))
    stored_obj = draw(hnp.arrays(np.float64, k + 1, elements=_entries))
    coefs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=m, max_size=m))
    order = draw(st.permutations(range(k + m)))
    basic, nonbasic = list(order[:m]), sorted(order[m:])
    candidates = np.argwhere(stored[:, :k] != 0.0)
    if candidates.size == 0:
        stored[0, 0] = 1.0
        candidates = np.array([[0, 0]])
    row, slot = candidates[draw(st.integers(0, len(candidates) - 1))]
    full = np.zeros((m, k + m + 1))
    full[:, nonbasic + [k + m]] = stored
    full[np.arange(m), basic] = coefs
    full_obj = np.zeros(k + m + 1)
    full_obj[nonbasic + [k + m]] = stored_obj
    return stored, stored_obj, full, full_obj, basic, nonbasic, coefs, int(row), int(slot)


@st.composite
def setup_lps(draw):
    """Small LPs with free and nonnegative columns, positive unit columns
    (some with sub-threshold entries in other rows) and rhs of both signs."""
    m = draw(st.integers(2, 10))
    n = draw(st.integers(1, 6))
    lhs = draw(hnp.arrays(np.float64, (m, n), elements=_entries))
    rhs = draw(hnp.arrays(np.float64, m, elements=_entries))
    nonneg = sorted(draw(st.sets(st.integers(0, n - 1))))
    for col in nonneg:
        if draw(st.booleans()):
            lhs[:, col] = 0.0
            lhs[draw(st.integers(0, m - 1)), col] = draw(st.floats(1e-3, 1e3))
            if draw(st.booleans()):
                lhs[draw(st.integers(0, m - 1)), col] += 1e-12
    return LpProblem(objective=np.zeros(n), ineq_lhs=lhs, ineq_rhs=rhs, nonneg_vars=tuple(nonneg))


def assert_point_close(got, want, name):
    want = np.asarray(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


class TestSparsePivot:
    @given(dictionary_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_pivot(self, case):
        stored, stored_obj, full, full_obj, basic, nonbasic, coefs, row, slot = case
        dense_pivot(full, full_obj, row, nonbasic[slot])
        simplex._pivot(stored, stored_obj, row, slot, coef=coefs[row])
        # the slot now holds the leaving variable; the entering one is basic
        nonbasic[slot] = basic[row]
        cols = nonbasic + [full.shape[1] - 1]
        assert np.array_equal(stored, full[:, cols])
        assert np.array_equal(stored_obj, full_obj[cols])

    @given(setup_lps())
    @settings(max_examples=80, deadline=None)
    def test_surplus_negation_matches_dense_pivot(self, problem):
        # Replay the dictionary's basis set-up on [lhs | -I | rhs]: the
        # crash pivots, then in row order a dense pivot onto the row's own
        # surplus (which the dictionary does as a row negation) or onto its
        # unit column. Every decision must match the full tableau's rhs at
        # that point, and the result must be the full tableau restricted to
        # the nonbasic columns.
        state = simplex._Tableau(problem)
        n, m = state.n_struct, state.n_rows
        full = np.hstack([problem.ineq_lhs, -np.eye(m), problem.ineq_rhs.reshape(-1, 1)])
        scratch = np.zeros(n + m + 1)
        state.crash_free_variables()
        crashed = {int(b): row for row, b in enumerate(state.basis) if b in state.free_cols}
        for col in sorted(crashed):
            dense_pivot(full, scratch, crashed[col], col)
        assert np.array_equal(state.tableau[:, :-1], full[:, state.var_of_slot])
        state.relax_unassigned_rows()
        full[:, -1] = state.tableau[:, -1]
        state.complete_basis()
        tol = simplex.FEAS_TOL * state.rhs_scale
        for row in range(m):
            basic = int(state.basis[row])
            if row in crashed.values():
                continue
            if basic == n + row:
                assert full[row, -1] <= tol
            else:
                assert full[row, -1] > tol
            if basic < n + m:
                dense_pivot(full, scratch, row, basic)
        block = np.zeros((m, state.n_art))
        block[state.art_rows, np.arange(state.n_art)] = 1.0
        full = np.hstack([full[:, :-1], block, full[:, -1:]])
        assert np.array_equal(state.tableau[:, :-1], full[:, state.var_of_slot])
        assert np.array_equal(state.tableau[:, -1], full[:, -1])

    def test_whole_solves_match_recorded_pivots(self):
        # Recorded from the full-tableau engine ([lhs | -I | rhs] storage,
        # m x m terminal solve): same pivot counts, statuses and
        # certificate supports; points move only at roundoff.
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=3))
        clean = sample(unit, standard_mixture(4), 120, 0.0, seed=5)
        noisy = sample(unit, standard_mixture(4), 120, 0.1, seed=5)
        hidden = HiddenSampleSet(clean.xs, np.maximum(clean.xs @ unit.a.T, 0.0))
        big = sample(unit, standard_mixture(4), 400, 0.0, seed=6)
        feasible = {
            "layer-2 feasibility": (build_row_feasibility_lp(clean, 0), 42, [
                0.16063707557113988, 0.3698088771426325, 0.41396878341428583,
                -0.27261505369207367]),
            "layer-1 feasibility": (build_hidden_row_lp(hidden, 0), 0, [
                1.0122937017490639, 0.7536967787531172, 0.05585145804087587,
                0.6726423961318683]),
            "layer-2 row, n=400": (build_row_feasibility_lp(big, 1), 175, [
                0.14906384813624188, -0.734173152500077, -0.4971908143982081,
                -0.1347411658454168]),
            # integer data with exactly tied reduced costs, where the lowest
            # variable index is not the lowest dictionary slot
            "tied pricing, free columns": (LpProblem(
                objective=np.zeros(4),
                ineq_lhs=[[-1.0, -2.0, -2.0, 0.0], [-2.0, -2.0, 2.0, 2.0], [1.0, -2.0, -1.0, 2.0],
                          [1.0, -1.0, -2.0, 0.0], [1.0, 1.0, 1.0, -1.0]],
                ineq_rhs=[-2.0, -2.0, 1.0, 2.0, 2.0],
            ), 1, [1.5, -1.5, 0.5, -1.5]),
            "tied pricing, a nonneg column": (LpProblem(
                objective=np.zeros(3),
                ineq_lhs=[[-2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [-1.0, -1.0, -1.0], [0.0, 2.0, 0.0],
                          [-1.0, 1.0, 0.0]],
                ineq_rhs=[-2.0, -2.0, -2.0, 0.0, 2.0],
                nonneg_vars=(1,),
            ), 1, [4.0, 6.0, -8.0]),
        }
        for name, (prob, iterations, point) in feasible.items():
            rep = solve_lp(prob)
            assert rep.status is SolveStatus.OPTIMAL, name
            assert rep.iterations == iterations, name
            assert_point_close(rep.point, point, name)

        rep = solve_lp(build_row_feasibility_lp(noisy, 0))
        assert rep.status is SolveStatus.INFEASIBLE
        assert rep.iterations == 53
        assert np.flatnonzero(rep.certificate > 0.0).tolist() == [
            0, 25, 32, 38, 48, 54, 65, 69, 76, 77, 91, 99, 100, 106]
        assert_point_close(rep.point, [
            0.13221436047209031, 0.33679529037511224, 0.3509658414971104,
            -0.169380906728304], "infeasible noisy row")

        rep = solve_lp(build_row_slack_lp(noisy, 0))
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.iterations == 75
        assert np.flatnonzero(rep.dual > 0.0).tolist() == [
            0, 25, 32, 38, 48, 51, 69, 77, 91, 96, 99, 100, 103]
        assert_point_close(rep.point[:4], [
            0.16972906546154856, 0.39694303030477734, 0.39236647879790204,
            -0.22078866662275196], "slack LP of that row")
        assert rep.objective_value == pytest.approx(0.0024074256479367077, rel=1e-12)


@st.composite
def reference_lps(draw):
    """Random small LPs: k <= 6 variables with a random nonnegative subset
    and 3-40 rows; feasible by construction, infeasible by the
    u.v >= 1, -u.v >= 0 pair, or feasible with a box and a cost vector."""
    k = draw(st.integers(1, 6))
    rows = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(["feasible", "infeasible", "boxed"]))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    nonneg = tuple(int(i) for i in np.flatnonzero(g.random(k) < 0.5))
    objective = np.zeros(k)
    if kind == "infeasible":
        u = g.standard_normal(k)
        extra = g.standard_normal((rows - 2, k))
        lhs = np.vstack([u, -u, extra])
        rhs = np.concatenate([[1.0, 0.0], -np.abs(g.standard_normal(rows - 2)) - 5.0])
    else:
        inner = g.standard_normal(k)
        inner[list(nonneg)] = np.abs(inner[list(nonneg)])
        lhs = g.standard_normal((rows, k))
        rhs = lhs @ inner - g.random(rows)
        if kind == "boxed":
            lhs = np.vstack([lhs, np.eye(k), -np.eye(k)])
            rhs = np.concatenate([rhs, np.full(2 * k, -10.0)])
            objective = g.standard_normal(k)
    return LpProblem(objective=objective, ineq_lhs=lhs, ineq_rhs=rhs, nonneg_vars=nonneg)


class TestSimplexAgainstHighs:
    @given(reference_lps())
    @settings(max_examples=120, deadline=None)
    def test_status_objective_and_certificates(self, problem):
        from scipy.optimize import linprog

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


class TestCostModel:
    def test_layer1_feasibility_lp_allocates_no_square_array(self):
        # one n x n float array at n=2000 is 32 MB; the dictionary is n x (d + 1)
        import tracemalloc

        g = rng(11)
        xs = g.standard_normal((2000, 4))
        hs = np.maximum(xs @ np.abs(g.standard_normal((4, 4))).T, 0.0)
        problem = build_hidden_row_lp(HiddenSampleSet(xs, hs), 0)
        tracemalloc.start()
        try:
            rep = solve_lp(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.status is SolveStatus.OPTIMAL
        assert peak < 4e6


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

    def test_info_reports_tolerance_and_iterations(self):
        g = rng(9)
        f = g.normal(size=(10, 2))
        t = g.normal(size=(10, 1))
        _, _, info = solve_separable_ls(f, t)
        assert set(info) >= {"iterations", "converged", "kkt_tol"}
        assert info["iterations"] >= 1


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
        from reslearn.layer2 import build_row_qp

        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=31, require_non_scale_transform=True))
        s = sample(unit, standard_mixture(2), 40, 0.0, seed=32)
        for j in range(2):
            got = split_ls_on_assembled(build_row_qp(s, j), -s.ys, -s.xs[:, j], back_weight=1e-10)
            self.assert_optimal(got)
            assert got["objective"] <= 1e-10  # noiseless: risk reaches zero

    def test_layer1_row_qp_agrees_with_split_solver(self):
        from reslearn.layer1 import build_hidden_row_qp

        unit = generate_unit(NetworkGenSpec(d=3, m=3, seed=33))
        clean = sample(unit, standard_mixture(3), 60, 0.0, seed=34)
        noisy = HiddenSampleSet(clean.xs, np.maximum(
            clean.xs @ unit.a.T + 0.1 * rng(35).standard_normal((60, 3)), 0.0))
        for hidden in (HiddenSampleSet(clean.xs, np.maximum(clean.xs @ unit.a.T, 0.0)), noisy):
            for j in range(3):
                prob = build_hidden_row_qp(hidden, j)
                self.assert_optimal(
                    split_ls_on_assembled(prob, hidden.xs, hidden.hs[:, j], back_weight=1e-6))


class TestImportFootprint:
    def test_package_import_leaves_scipy_optimize_out(self):
        """``scipy.optimize`` stays a test-only dependency.

        Importing it on top of ``reslearn`` and ``reslearn.cli`` took a fresh
        interpreter from 0.66 to 0.96 s and from 57.8 to 77.1 MB peak RSS
        (medians of 8 runs on a 2-core x86_64 container, scipy 1.17, numpy
        2.4), beyond what the benchmark's ``setup_s`` (0.25) and
        ``peak_rss_mb`` (0.05) bounds allow; the LP and BVLS references in
        the tests import it instead.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        import reslearn

        src = str(Path(reslearn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, reslearn, reslearn.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
