import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslearn import layer1
from reslearn.errors import DimensionMismatchError
from reslearn.layer1 import (
    K_MIN,
    HiddenSampleSet,
    estimate_row_scale,
    learn_layer1,
)
from reslearn.evaluation import full_pipeline
from reslearn.model import (
    NetworkGenSpec,
    SampleSet,
    derive_seed,
    generate_unit,
    make_rng,
    sample,
    standard_mixture,
)
from conftest import assembled_row_qp
from reslearn.solver import row_lp, row_slack_lp, solve_lp

A_REF = np.array([[1.0, 1.0], [1.0, 2.0]])


def hidden_from(a, n=300, seed=0, noise=0.0):
    a = np.asarray(a, dtype=np.float64)
    xs = standard_mixture(a.shape[0]).draw(make_rng(derive_seed(seed, "x")), n)
    hs = np.maximum(xs @ a.T, 0.0)
    if noise:
        hs = np.maximum(hs + noise * make_rng(derive_seed(seed, "z")).standard_normal(hs.shape), 0.0)
    return HiddenSampleSet(xs=xs, hs=hs)


class TestHiddenSampleSet:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            HiddenSampleSet(xs=np.zeros((5, 2)), hs=np.zeros((5, 3)))

    def test_small_slack_tolerated(self):
        # slack is small relative to the outputs: an all-negative set is not
        hs = np.ones((5, 2))
        hs[:, 0] = -1e-9
        s = HiddenSampleSet(xs=np.zeros((5, 2)), hs=hs)
        assert s.n == 5 and s.d == 2

    @given(st.floats(1e-6, 1e6), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_slack_verdict_is_scale_free(self, s, small):
        # the bound is 1e-6 of the largest output, so scaling every hidden
        # value by s > 0 keeps the verdict
        hs = np.ones((5, 2))
        hs[0, 0] = -1e-7 if small else -1e-5
        if small:
            HiddenSampleSet(xs=np.zeros((5, 2)), hs=s * hs)
        else:
            with pytest.raises(ValueError):
                HiddenSampleSet(xs=np.zeros((5, 2)), hs=s * hs)

    def test_negative_hidden_rejected(self):
        with pytest.raises(ValueError):
            HiddenSampleSet(xs=np.zeros((5, 2)), hs=np.full((5, 2), -1e-3))


class TestAssembly:
    # layer 1 poses the shared row program over F = X and t = h_j

    def test_qp_objective_zero_at_truth(self):
        # variables are [a_row (2, free) | phi_row (n, >= 0)]
        s = hidden_from(A_REF, n=40)
        for j in range(2):
            hessian, linear, constant = assembled_row_qp(s.xs, s.hs[:, j])
            phi = s.hs[:, j] - s.xs @ A_REF[j]  # = (-a x)^+ >= 0
            v = np.concatenate([A_REF[j], phi])
            assert phi.min() >= 0.0
            assert 0.5 * v @ hessian @ v + linear @ v + constant == pytest.approx(0.0, abs=1e-12)

    def test_feasibility_lp_layout(self):
        # the LP reads -X a >= -h_j, and the teacher row satisfies it
        s = hidden_from(A_REF, n=7)
        prob = row_lp(s.xs, s.hs[:, 1])
        np.testing.assert_array_equal(prob.ineq_lhs, -s.xs)
        np.testing.assert_array_equal(prob.ineq_rhs, -s.hs[:, 1])
        assert (prob.n_rows, prob.n_vars) == (7, 2)
        assert not prob.soft
        assert prob.max_violation(A_REF[1]) <= 1e-12

    def test_slack_lp_layout(self):
        # the feasibility rows made soft: variables [a_row (2) | zeta (5)]
        s = hidden_from(A_REF, n=5)
        prob = row_slack_lp(s.xs, s.hs[:, 0])
        assert prob.soft
        assert (prob.n_rows, prob.n_vars) == (5, 2 + 5)
        np.testing.assert_array_equal(prob.ineq_lhs, -s.xs)
        np.testing.assert_array_equal(prob.ineq_rhs, -s.hs[:, 0])


class TestExactRecovery:
    def test_d1_lp_exact(self):
        s = hidden_from([[2.0]], n=200, seed=1)
        est = learn_layer1(s, method="lp")
        assert est.a_hat[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert est.k_hat[0] == pytest.approx(1.0, abs=1e-9)

    def test_d1_qp_corrected(self):
        # the QP lands on a shrunk row; the slope regression must undo it
        s = hidden_from([[2.0]], n=200, seed=2)
        est = learn_layer1(s, method="qp")
        assert est.raw_a[0, 0] < 2.0 - 1e-4
        assert est.a_hat[0, 0] == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("method", ["lp", "slack-lp"])
    def test_reference_teacher_lp_routes(self, method):
        s = hidden_from(A_REF, n=300, seed=3)
        est = learn_layer1(s, method=method)
        np.testing.assert_allclose(est.a_hat, A_REF, atol=1e-8)
        assert est.unscaled_rows == ()

    def test_reference_teacher_qp(self):
        # the QP tie-break lands inside the solution polytope, so after the
        # slope correction a percent-level residual remains; exact recovery
        # is the LP route's contract
        s = hidden_from(A_REF, n=300, seed=4)
        est = learn_layer1(s, method="qp")
        np.testing.assert_allclose(est.a_hat, A_REF, atol=0.05)

    def test_random_teacher_lp(self):
        rng = make_rng(5)
        a = np.abs(rng.standard_normal((4, 4)))
        s = hidden_from(a, n=400, seed=6)
        est = learn_layer1(s, method="lp")
        rel = np.linalg.norm(est.a_hat - a) / np.linalg.norm(a)
        assert rel <= 1e-8


class TestActivatedStart:
    # At the teacher, row j's LP is tight exactly on the samples that
    # activate row j. The LP route prefers them, so every start is the
    # teacher's row, the engine takes no step, and the scale is 1.

    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           shuffle=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_start_is_the_teacher_under_permutation_and_scaling(self, d, seed, shuffle, data):
        a = np.abs(make_rng(seed).standard_normal((d, d)))
        s = hidden_from(a, n=400, seed=seed)
        # x -> D x with D > 0 diagonal keeps h when A -> A D^-1
        scales = 10.0 ** np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        order = make_rng(shuffle).permutation(s.n)
        for teacher, samples in (
            (a, s),
            (a / scales, HiddenSampleSet(xs=(s.xs * scales)[order], hs=s.hs[order])),
        ):
            steps = []

            def recording(problem, prefer=None):
                report = solve_lp(problem, prefer)
                steps.append(report.iterations)
                return report

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(layer1, "solve_lp", recording)
                est = learn_layer1(samples, method="lp")
            assert steps == [0] * d
            assert est.unscaled_rows == ()
            np.testing.assert_allclose(est.k_hat, 1.0, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(est.a_hat, teacher, rtol=1e-9, atol=1e-12 * teacher.max())


class TestScaleEstimation:
    def test_exact_slope(self):
        s = hidden_from(A_REF, n=200, seed=7)
        k, unscaled, notes = estimate_row_scale(s.xs, s.hs, np.diag([1.0, 0.6]) @ A_REF)
        assert k[0] == pytest.approx(1.0, abs=1e-12)
        assert k[1] == pytest.approx(0.6, abs=1e-12)
        assert (unscaled, notes) == ((), [])

    def test_slope_above_one_clamped(self):
        s = hidden_from(A_REF, n=200, seed=8)
        k, unscaled, notes = estimate_row_scale(s.xs, s.hs, np.diag([1.5, 1.0]) @ A_REF)
        assert k[0] == 1.0
        assert unscaled == ()
        assert notes == ["row 0: scale estimate 1.500000 above 1, clamped"]

    def test_slope_at_or_below_k_min_flagged(self):
        s = hidden_from(A_REF, n=200, seed=9)
        for factor in (1e-6, K_MIN, -0.5):
            k, unscaled, notes = estimate_row_scale(
                s.xs, s.hs, np.diag([factor, 0.5]) @ A_REF)
            assert unscaled == (0,)
            assert k[0] == 1.0 and k[1] == pytest.approx(0.5, abs=1e-12)
            assert len(notes) == 1
            assert notes[0].startswith("row 0: scale estimate")
            assert notes[0].endswith("at or below 1e-04")

    def test_learner_leaves_flagged_row_unscaled(self, monkeypatch):
        # a raw row at 1e-6 of the teacher's would be divided by K_MIN, a
        # 1e4-fold blow-up; the learner keeps k = 1 and lists the row instead
        s = hidden_from(A_REF, n=200, seed=9)
        raw = A_REF * np.array([[1e-6], [0.5]])
        monkeypatch.setattr(layer1, "solve_separable_ls", lambda *a, **k: (raw.T, None, {}))
        est = learn_layer1(s, method="qp")
        assert est.unscaled_rows == (0,)
        assert est.k_hat[0] == 1.0 and est.k_hat[1] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(est.a_hat[0], 1e-6 * A_REF[0])
        assert est.notes == ("row 0: scale estimate 1.000e-06 at or below 1e-04",)

    def test_never_activated_row_degenerate(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        s = hidden_from(a, n=100, seed=10)
        k, unscaled, notes = estimate_row_scale(s.xs, s.hs, a)
        assert unscaled == (0,) and k[0] == 1.0
        assert notes == ["row 0: only 0 activated samples (need 10) for the scale regression"]

    def test_too_few_activated_degenerate(self):
        xs = np.vstack([np.full((5, 1), 1.0), np.full((40, 1), -1.0)])
        hs = np.maximum(xs * 2.0, 0.0)
        k, unscaled, notes = estimate_row_scale(xs, hs, [[2.0]])
        assert (k.tolist(), unscaled) == ([1.0], (0,))
        assert notes == ["row 0: only 5 activated samples (need 10) for the scale regression"]

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (1, 2)])
    def test_raw_a_of_the_wrong_shape_is_a_typed_error(self, shape):
        s = hidden_from(A_REF, n=50, seed=7)
        with pytest.raises(DimensionMismatchError, match="raw_a"):
            estimate_row_scale(s.xs, s.hs, np.ones(shape))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.randoms(use_true_random=False),
           st.lists(st.sampled_from([1.0, 0.6, 0.3, 1.5, 1e-6, -0.5, 0.0]),
                    min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_rows_permute_with_the_rows_of_raw_a(self, seed, d, shuffle, factors):
        # permuting raw_a's rows with hs's columns permutes k_hat and the
        # unscaled rows
        a = np.abs(make_rng(seed).standard_normal((d, d)))
        s = hidden_from(a, n=200, seed=seed, noise=0.01 * (seed % 2))
        raw_a = np.diag(factors[:d]) @ a
        perm = list(range(d))
        shuffle.shuffle(perm)
        k, unscaled, _ = estimate_row_scale(s.xs, s.hs, raw_a)
        k_p, unscaled_p, _ = estimate_row_scale(s.xs, s.hs[:, perm], raw_a[perm])
        np.testing.assert_allclose(k_p, k[perm], rtol=1e-12)
        assert unscaled_p == tuple(i for i in range(d) if perm[i] in unscaled)

    @given(st.integers(0, 2**32 - 1), st.floats(1e-10, 1e10),
           st.lists(st.sampled_from([1.0, 0.6, 0.3, 1.5, 1e-6, 0.0]), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_scaling_the_data_keeps_the_factors(self, seed, scale, factors):
        a = np.abs(make_rng(seed).standard_normal((3, 3)))
        s = hidden_from(a, n=200, seed=seed, noise=0.01 * (seed % 2))
        raw_a = np.diag(factors) @ a
        k, unscaled, _ = estimate_row_scale(s.xs, s.hs, raw_a)
        k_s, unscaled_s, _ = estimate_row_scale(scale * s.xs, scale * s.hs, raw_a)
        np.testing.assert_allclose(k_s, k, rtol=1e-12)
        assert unscaled_s == unscaled


class TestSoftGate:
    # layer 1 of a slack-lp fit takes the QP route exactly when layer 2's
    # slack LPs prove a row infeasible, and the LP route otherwise; alone,
    # learn_layer1(..., "slack-lp") is the LP route

    def test_clean_slack_keeps_vertex(self):
        s = hidden_from(A_REF, n=300, seed=11)
        est_lp = learn_layer1(s, method="lp")
        est_sl = learn_layer1(s, method="slack-lp")
        np.testing.assert_array_equal(est_sl.raw_a, est_lp.raw_a)
        assert est_sl.notes == est_lp.notes

    def test_noisy_slack_switches_to_soft(self):
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=12))
        train = sample(unit, standard_mixture(2), 300, 0.05, seed=13)
        est1, est2 = full_pipeline(train, "slack-lp")
        assert est2.infeasible_rows != ()
        qp = learn_layer1(HiddenSampleSet(train.xs, est2.xi_hat), method="qp")
        np.testing.assert_array_equal(est1.raw_a, qp.raw_a)
        np.testing.assert_array_equal(est1.a_hat, qp.a_hat)
        rel = np.linalg.norm(est1.a_hat - unit.a) / np.linalg.norm(unit.a)
        assert rel < 0.25

    def test_soft_beats_vertex_under_noise(self):
        # the vertex of the noise-shrunken polytope is a worse estimate than
        # the penalty landing that a noisy slack-lp fit takes; checked on a
        # fixed instance
        s = hidden_from(A_REF, n=300, seed=13, noise=0.05)
        soft = learn_layer1(s, method="qp")
        hard = learn_layer1(s, method="slack-lp")
        err = lambda e: np.linalg.norm(e.a_hat - A_REF)
        assert err(soft) < err(hard)

    def test_roundoff_on_inactive_samples_is_not_activation(self):
        # fewer than half the samples activate each row, so the median |h_j|
        # is the 1e-13 slop a layer-2 estimate leaves on the inactive ones;
        # that slop must not count as activation or move the scale factors
        xs = make_rng(20).normal(-0.5, 1.0, size=(300, 2))
        a = np.array([[1.0, 1.0], [0.5, 1.0]])
        hs = np.maximum(xs @ a.T, 0.0)
        inactive = hs == 0.0
        assert inactive.mean(axis=0).min() > 0.5
        hs[inactive] = 1e-13 * make_rng(21).random(int(inactive.sum()))
        for j in range(2):
            np.testing.assert_array_equal(layer1._activated(hs[:, j]), ~inactive[:, j])
        k, unscaled, notes = estimate_row_scale(xs, hs, 0.5 * a)
        np.testing.assert_allclose(k, 0.5, rtol=1e-12)
        assert (unscaled, notes) == ((), [])
        est = learn_layer1(HiddenSampleSet(xs, hs), method="slack-lp")
        np.testing.assert_allclose(est.a_hat, a, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_trivial_vertex_is_unscaled_at_any_scale(self, scale):
        # the trivial vertex a = 0, exactly or up to solver noise, carries no
        # scale; every such row is listed rather than divided by its slope,
        # while rows that are scaled teacher rows keep their factors
        s = hidden_from(A_REF, n=300, seed=19)

        def row_scale(raw_a):
            return estimate_row_scale(scale * s.xs, scale * s.hs, raw_a)

        for trivial in (np.zeros((2, 2)), 1e-16 * make_rng(18).standard_normal((2, 2))):
            k, unscaled, _ = row_scale(trivial)
            assert unscaled == (0, 1) and k.tolist() == [1.0, 1.0]
        k, unscaled, _ = row_scale(np.diag([0.5, 0.8]) @ A_REF)
        np.testing.assert_allclose(k, [0.5, 0.8], rtol=1e-12)
        assert unscaled == ()

    def test_noisy_route_does_not_depend_on_the_units(self):
        # the Farkas test that picks the route has no absolute floor, so
        # data rescaled by 1e-20 prove the same rows infeasible and take the
        # same route
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=12))
        train = sample(unit, standard_mixture(2), 300, 0.05, seed=13)
        tiny = SampleSet(xs=1e-20 * train.xs, ys=1e-20 * train.ys)
        est1, est2 = full_pipeline(train, "slack-lp")
        tiny1, tiny2 = full_pipeline(tiny, "slack-lp")
        assert tiny2.infeasible_rows == est2.infeasible_rows != ()
        np.testing.assert_allclose(tiny1.a_hat, est1.a_hat, rtol=1e-9, atol=1e-12)


class TestDiagnostics:
    def test_zero_row_left_unscaled(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        s = hidden_from(a, n=150, seed=14)
        est = learn_layer1(s, method="lp")
        assert est.unscaled_rows == (0,)
        assert est.k_hat[0] == 1.0
        np.testing.assert_allclose(est.a_hat[1], a[1], atol=1e-8)

    def test_underdetermined_warns(self):
        s = hidden_from(np.abs(make_rng(15).standard_normal((3, 3))), n=2, seed=16)
        with pytest.warns(UserWarning, match="underdetermined"):
            learn_layer1(s, method="lp")

    def test_projection_keeps_rows_nonnegative(self):
        s = hidden_from(A_REF, n=300, seed=17)
        est = learn_layer1(s, method="qp")
        assert est.a_hat.min() >= 0.0
