import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reslearn import layer2
from reslearn.errors import DimensionMismatchError, ReslearnError
from reslearn.evaluation import full_pipeline, relative_errors, run_trial
from reslearn.layer2 import (
    learn_layer2,
    recover_b_general,
    rescale_layer2,
)
from reslearn.model import (
    NetworkGenSpec,
    ResidualUnit,
    SampleSet,
    derive_seed,
    generate_unit,
    sample,
    standard_mixture,
)
from conftest import assembled_row_qp
from reslearn.solver import SolveStatus, row_lp, row_slack_lp, solve_lp
from reslearn.solver.simplex import shared_start

A_REF = np.array([[1.0, 1.0], [1.0, 2.0]])
B_REF = np.array([[1.0, 0.5], [0.0, 1.0]])


def make_samples(a, b, n=200, sigma=0.0, seed=0):
    unit = ResidualUnit(a=a, b=b)
    return unit, sample(unit, standard_mixture(unit.d), n, sigma, seed=seed)


class TestProgramAssembly:
    # layer 2 poses the shared row program over F = -Y and t = -x_j

    def test_row_qp_objective_matches_model_risk(self):
        # plugging the true (c_row, xi_row) into the assembled objective over
        # [c_row (2, free) | xi_row (n, >= 0)] must give zero on noiseless data
        unit, s = make_samples(A_REF, B_REF, n=30)
        c_true = np.linalg.inv(unit.b)
        xi_true = np.maximum(s.xs @ unit.a.T, 0.0)
        for j in range(2):
            hessian, linear, constant = assembled_row_qp(-s.ys, -s.xs[:, j])
            v = np.concatenate([c_true[j], xi_true[:, j]])
            assert 0.5 * v @ hessian @ v + linear @ v + constant == pytest.approx(0.0, abs=1e-12)

    def test_feasibility_lp_layout(self):
        # the LP reads Y c >= x_j, and the true row of C satisfies it
        unit, s = make_samples(A_REF, B_REF, n=7)
        prob = row_lp(-s.ys, -s.xs[:, 1])
        assert (prob.n_rows, prob.n_vars) == (7, 2)
        assert not prob.soft
        np.testing.assert_array_equal(prob.ineq_lhs, s.ys)
        np.testing.assert_array_equal(prob.ineq_rhs, s.xs[:, 1])
        assert prob.max_violation(np.linalg.inv(unit.b)[1]) <= 1e-12

    def test_slack_lp_layout(self):
        # the feasibility rows made soft: variables [c_row (2) | zeta (6)]
        _, s = make_samples(A_REF, B_REF, n=6)
        prob = row_slack_lp(-s.ys, -s.xs[:, 0])
        assert prob.soft
        assert (prob.n_rows, prob.n_vars) == (6, 2 + 6)
        np.testing.assert_array_equal(prob.ineq_lhs, s.ys)
        np.testing.assert_array_equal(prob.ineq_rhs, s.xs[:, 0])


class TestNoiselessRecovery:
    @pytest.mark.parametrize("method", ["qp", "lp", "slack-lp"])
    def test_reference_teacher_recovered(self, method):
        unit, s = make_samples(A_REF, B_REF, n=300, seed=2)
        est = learn_layer2(s, method=method)
        np.testing.assert_allclose(est.b_hat, unit.b, atol=1e-6)
        np.testing.assert_allclose(est.c_hat, np.linalg.inv(unit.b), atol=1e-6)
        xi_true = np.maximum(s.xs @ unit.a.T, 0.0)
        np.testing.assert_allclose(est.xi_hat, xi_true, atol=1e-6)
        assert est.xi_hat.min() >= 0.0  # clipped on every route, as a ReLU output
        np.testing.assert_array_equal(est.k_hat, 1.0)  # non-scale teacher

    def test_qp_and_lp_estimates_agree(self):
        for seed in range(5):
            unit = generate_unit(
                NetworkGenSpec(d=3, m=3, seed=60 + seed, require_non_scale_transform=True)
            )
            s = sample(unit, standard_mixture(3), 150, 0.0, seed=seed)
            b_qp = learn_layer2(s, method="qp").b_hat
            b_lp = learn_layer2(s, method="lp").b_hat
            rel = np.linalg.norm(b_qp - b_lp) / np.linalg.norm(b_lp)
            assert rel <= 1e-5

    def test_tall_second_layer(self):
        b_tall = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        unit, s = make_samples(A_REF, b_tall, n=250, seed=3)
        est = learn_layer2(s, method="qp")
        assert est.b_hat.shape == (3, 2)
        np.testing.assert_allclose(est.b_hat, b_tall, atol=1e-5)


class TestOrthantStart:
    # A >= 0, so on a sample with x <= 0 the ReLU is off, y = B x, and every
    # row program C y >= x_j is tight at the teacher. The LPs start on those
    # rows; with d independent ones the start is the teacher's row, also
    # where the feasible set is larger than one point.

    # lp-clean benchmark trials (seed, trial) on which a start that ignored
    # the orthant returned another vertex of a set that is not a point
    FORMERLY_WRONG = ((302, 88), (302, 456), (303, 510), (304, 366), (304, 441),
                      (305, 84), (306, 178), (308, 111), (310, 254))

    @pytest.mark.parametrize("seed,trial", FORMERLY_WRONG)
    def test_formerly_wrong_vertices_return_the_teacher(self, seed, trial):
        unit = generate_unit(NetworkGenSpec(
            d=4, m=4, seed=derive_seed(seed, "lp-clean", "teacher", trial)))
        rep = run_trial(unit, 400, 0.0, "lp", derive_seed(seed, "lp-clean", "train", trial))
        for field in ("layer1_rel", "layer2_rel", "output_rel"):
            assert getattr(rep, field) <= 1e-9, field

    @given(d=st.integers(2, 5), teacher=st.integers(0, 2**31 - 1),
           train=st.integers(0, 2**31 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_start_is_the_teacher_under_permutation_and_scaling(self, d, teacher, train, data):
        unit = generate_unit(NetworkGenSpec(d=d, m=d, seed=teacher))
        s = sample(unit, standard_mixture(d), 400, 0.0, seed=train)
        test = sample(unit, standard_mixture(d), 200, 0.0, seed=train + 1)
        orthant = np.all(s.xs <= 0, axis=1)
        assume(orthant.sum() >= d and np.linalg.matrix_rank(s.xs[orthant]) == d)
        # x -> D P x keeps y: A -> M A M^-1 (still >= 0), B -> B M^-1, M = D P
        order = np.array(data.draw(st.permutations(range(d))))
        scales = 10.0 ** np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        m = scales[:, None] * np.eye(d)[order]
        m_inv = np.linalg.inv(m)
        moved = ResidualUnit(a=m @ unit.a @ m_inv, b=unit.b @ m_inv)
        for u, train_set, test_set in (
            (unit, s, test),
            (moved, SampleSet(xs=s.xs @ m.T, ys=s.ys), SampleSet(xs=test.xs @ m.T, ys=test.ys)),
        ):
            steps = []  # of every row, closed by the shared start or by the engine

            def recording(problem, prefer=None):
                rep = solve_lp(problem, prefer)
                steps.append(rep.iterations)
                return rep

            def starting(design, targets, prefer=None):
                starts = shared_start(design, targets, prefer)
                steps.extend(0 for c in starts if not np.isnan(c).any())
                return starts

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(layer2, "solve_lp", recording)
                patch.setattr(layer2, "shared_start", starting)
                est1, est2 = full_pipeline(train_set, "lp")
            assert steps == [0] * d
            rep = relative_errors(est1.a_hat, est2.b_hat, u, test_set)
            for field in ("layer1_rel", "layer2_rel", "output_rel"):
                assert getattr(rep, field) <= 1e-9, field


def bits(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def per_row_lps(samples, slack, prefer):
    """Layer 2's row LPs the way the layer posed them before the shared
    start and the one-call slack LP: one feasibility run per row, then, on
    a slack row whose run is not optimal (infeasible, or a ray that rounding
    keeps from verifying), the slack LP, whose nonzero dual marks the row
    infeasible. Returns (c_hat, xi_hat, notes, infeasible_rows) as
    ``_solve_c_lp`` would, or the error type."""
    ys, xs = samples.ys, samples.xs
    c_hat, xi_hat = np.zeros((samples.d, samples.m)), np.zeros((samples.n, samples.d))
    notes, infeasible = [], []
    for j in range(samples.d):
        report = solve_lp(row_lp(-ys, -xs[:, j]), prefer=prefer)
        if slack and report.status.value != "optimal":
            report = solve_lp(row_slack_lp(-ys, -xs[:, j]), prefer=prefer)
        if report.status.value != "optimal":
            return ReslearnError
        c_hat[j] = report.point[:samples.m]
        residual = ys @ c_hat[j] - xs[:, j]
        if slack:
            if np.any(report.dual != 0.0):
                infeasible.append(j)
                value = float(np.maximum(-residual, 0.0).mean())
                notes.append(f"row {j}: slack objective {value:.3e} (noisy fit)")
            residual = np.maximum(residual, 0.0)
        xi_hat[:, j] = residual
    return c_hat, xi_hat, notes, tuple(infeasible)


class TestSharedStart:
    # shared_start closes a row exactly as that row's own solve_lp call
    # would, or leaves it to the engine, and the layer's answer is the one
    # the per-row engine runs gave; sigma = 1e-9 and 1e-8 leave rows
    # infeasible by roundoff-sized amounts

    @given(d=st.integers(2, 6), extra=st.sampled_from([0, 2]), n=st.integers(20, 200),
           sigma=st.sampled_from([0.0, 1e-9, 1e-8, 0.05]), seed=st.integers(0, 2**31 - 1),
           zeros=st.floats(0.05, 0.5), column=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_a_start_is_the_row_lp_or_none(self, d, extra, n, sigma, seed, zeros, column):
        unit = generate_unit(NetworkGenSpec(d=d, m=d + extra, seed=seed))
        rng = np.random.default_rng(seed)
        xs = standard_mixture(d).draw(rng, n)
        xs[rng.random(n) < zeros, column % d] = 0.0  # one row LP with zero targets on some samples
        ys = xs @ unit.b.T + np.maximum(xs @ unit.a.T, 0.0) @ unit.b.T
        ys = ys + sigma * rng.standard_normal(ys.shape)
        samples = SampleSet(xs=xs, ys=ys)
        orthant = np.all(xs <= 0, axis=1)

        starts = shared_start(-ys, -xs, prefer=orthant)
        assert starts.shape == (d, d + extra)
        for j, start in enumerate(starts):
            if np.isnan(start).all():
                continue
            want = solve_lp(row_lp(-ys, -xs[:, j]), prefer=orthant)
            assert (want.status, want.iterations) == (SolveStatus.OPTIMAL, 0), j
            assert bits(start) == bits(want.point), j

        for slack in (False, True):
            want = per_row_lps(samples, slack, orthant)
            try:
                got = layer2._solve_c_lp(samples, slack)
            except ReslearnError:
                got = ReslearnError
            if want is ReslearnError or got is ReslearnError:
                assert got is want
            else:
                assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])
                assert got[2:] == want[2:]

    def test_prefer_of_the_wrong_length_is_rejected(self):
        with pytest.raises(DimensionMismatchError):
            shared_start(np.eye(3), np.ones((3, 2)), prefer=np.ones(4, dtype=bool))


class TestRoundoffInfeasibleRows:
    # At sigma = 1e-9 and 1e-8 some layer-2 rows are infeasible by amounts
    # near rounding: the dual method ends on a ray that misses the Farkas
    # check's rhs . lam test. A soft LP descends from its start on any ray,
    # so these slack-lp fits return, and the rows of positive least slack
    # are the infeasible ones.

    @pytest.mark.parametrize("d, sigma, teacher, train, rows", [
        (4, 1e-8, derive_seed(77, "sweep-teacher", 4, 17),
         derive_seed(77, "sweep", 4, 100, 1e-08, 17), (0, 1)),
        (4, 1e-9, derive_seed(78, "t", 4, 7), derive_seed(78, "s", 4, 100, 1e-9, 7), (3,)),
        (8, 1e-9, derive_seed(78, "t", 8, 25), derive_seed(78, "s", 8, 100, 1e-9, 25), (3,)),
    ])
    def test_slack_lp_fits_return(self, d, sigma, teacher, train, rows):
        unit = generate_unit(NetworkGenSpec(d=d, m=d, seed=teacher))
        s = sample(unit, standard_mixture(d), 100, sigma, seed=train)
        est1, est2 = full_pipeline(s, "slack-lp")
        assert est2.infeasible_rows == rows
        assert len([note for note in est2.notes if "slack objective" in note]) == len(rows)
        assert np.all(np.isfinite(est1.a_hat)) and np.all(np.isfinite(est2.b_hat))


class TestScaleRows:
    # row 0 of this teacher is a scale transformation (off-diagonal zero),
    # so its row of C is only identified up to a factor in [1/(1+a), 1]
    A_SCALE = np.array([[2.0, 0.0], [1.0, 1.0]])

    def test_rescale_recovers_b(self):
        unit, s = make_samples(self.A_SCALE, B_REF, n=400, seed=5)
        est = learn_layer2(s, method="qp")
        # QP lands a hair off the pure-multiple segment, so the corrected
        # answer carries that lateral residual; the LP landing is exact
        np.testing.assert_allclose(est.b_hat, unit.b, atol=5e-3)
        assert 0.0 < est.k_hat[0] < 1.0

    def test_detector_factor_matches_landing(self):
        unit, s = make_samples(self.A_SCALE, B_REF, n=400, seed=6)
        est = learn_layer2(s, method="lp")
        c_true = np.linalg.inv(unit.b)
        # after dividing the factor out, the row is back on the truth
        np.testing.assert_allclose(est.c_hat[0], c_true[0], atol=1e-6)

    def test_gate_rejects_coupled_rows(self):
        # no scale rows here: every factor must stay exactly 1
        unit, s = make_samples(A_REF, B_REF, n=300, seed=7)
        c_hat = np.linalg.inv(unit.b)
        k = rescale_layer2(s, c_hat, notes=[])
        np.testing.assert_array_equal(k, 1.0)

    def test_gate_accepts_true_scale_row(self):
        unit, s = make_samples(self.A_SCALE, B_REF, n=400, seed=8)
        c_true = np.linalg.inv(unit.b)
        shrunk = c_true.copy()
        shrunk[0] *= 0.5  # a half-scale landing on the scale row
        k = rescale_layer2(s, shrunk, notes=[])
        assert k[0] == pytest.approx(0.5, abs=1e-9)
        assert k[1] == 1.0

    def test_near_unit_slope_left_alone(self):
        # a barely-coupled row fits the origin line with slope ~1; dividing
        # by that estimate would push an exact solution off the constraint
        # surface, so the dead band keeps the factor at 1
        a_near = np.array([[1.0, 1e-4], [1.0, 2.0]])
        unit, s = make_samples(a_near, B_REF, n=400, seed=21)
        k = rescale_layer2(s, np.linalg.inv(unit.b), notes=[])
        np.testing.assert_array_equal(k, 1.0)

    def test_shrink_band_is_configurable(self, monkeypatch):
        unit, s = make_samples(self.A_SCALE, B_REF, n=400, seed=8)
        c_true = np.linalg.inv(unit.b)
        shrunk = c_true.copy()
        shrunk[0] *= 0.995
        # inside the default band nothing fires; narrowing the band does
        assert rescale_layer2(s, shrunk, notes=[])[0] == 1.0
        monkeypatch.setattr(layer2, "SHRINK_TOL", 1e-3)
        assert rescale_layer2(s, shrunk, notes=[])[0] == pytest.approx(0.995, abs=1e-9)

    @pytest.mark.parametrize("method", ["qp", "lp"])
    def test_scale_factors_do_not_depend_on_the_units(self, method):
        # the gate compares a residual with a spread, both squared scales; an
        # absolute floor on the spread passed every row once both were tiny
        for seed in range(20):
            unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=seed))
            s = sample(unit, standard_mixture(4), 400, 0.0, seed=seed + 100)
            tiny = SampleSet(xs=1e-20 * s.xs, ys=1e-20 * s.ys)
            np.testing.assert_array_equal(learn_layer2(tiny, method).k_hat,
                                          learn_layer2(s, method).k_hat)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2)])
    def test_c_hat_of_the_wrong_shape_is_a_typed_error(self, shape):
        _, s = make_samples(self.A_SCALE, B_REF, n=50, seed=8)
        with pytest.raises(DimensionMismatchError, match="c_hat"):
            rescale_layer2(s, np.ones(shape), notes=[])

    @staticmethod
    def scale_case(seed, n, scale_rows, factors):
        """Samples of a d = 4 teacher whose chosen rows are scale rows, and
        the true C with each row multiplied by its factor."""
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=seed))
        a = unit.a * np.where(np.array(scale_rows)[:, None], np.eye(4), 1.0)
        unit, s = make_samples(a, unit.b, n=n, seed=seed)
        return s, np.diag(factors) @ np.linalg.inv(unit.b)

    @staticmethod
    def rescale_and_flagged_rows(samples, c_hat):
        notes = []
        k = rescale_layer2(samples, c_hat, notes=notes)
        return k, {int(note.split(":")[0].removeprefix("row ")) for note in notes}

    SCALE_CASES = (st.integers(0, 2**16), st.sampled_from([12, 400]),
                   st.lists(st.booleans(), min_size=4, max_size=4),
                   st.lists(st.sampled_from([1.0, 0.5, 0.3, 0.995, 1e-6]), min_size=4, max_size=4))

    @given(*SCALE_CASES, st.permutations(range(4)))
    @settings(max_examples=40, deadline=None)
    def test_rows_permute_with_the_input_coordinates(self, seed, n, scale_rows, factors, perm):
        # row j fits [C y]_j on x_j: permuting C's rows with the columns of
        # xs permutes the factors and the flagged rows
        s, c_hat = self.scale_case(seed, n, scale_rows, factors)
        k, flagged = self.rescale_and_flagged_rows(s, c_hat)
        k_p, flagged_p = self.rescale_and_flagged_rows(
            SampleSet(xs=s.xs[:, perm], ys=s.ys), c_hat[perm])
        np.testing.assert_allclose(k_p, k[perm], rtol=1e-12)
        assert flagged_p == {i for i in range(4) if perm[i] in flagged}

    @given(*SCALE_CASES, st.floats(1e-10, 1e10))
    @settings(max_examples=40, deadline=None)
    def test_scaling_the_data_keeps_the_factors(self, seed, n, scale_rows, factors, scale):
        s, c_hat = self.scale_case(seed, n, scale_rows, factors)
        k, flagged = self.rescale_and_flagged_rows(s, c_hat)
        k_s, flagged_s = self.rescale_and_flagged_rows(
            SampleSet(xs=scale * s.xs, ys=scale * s.ys), c_hat)
        np.testing.assert_allclose(k_s, k, rtol=1e-12)
        assert flagged_s == flagged


class TestD1Interval:
    def test_feasible_set_is_the_predicted_interval(self):
        # d=1 teachers are always scale transformations; the c feasible set
        # {c : c y_i >= x_i for all i} is [1/(1+a), 1] / b
        a0, b0 = 1.5, 2.0
        unit, s = make_samples([[a0]], [[b0]], n=500, seed=9)
        lo_theory = 1.0 / (1.0 + a0) / b0
        hi_theory = 1.0 / b0
        grid = np.linspace(0.0, 2.0 / b0, 2001)
        feas = [(c * s.ys[:, 0] >= s.xs[:, 0] - 1e-12).all() for c in grid]
        members = grid[np.array(feas)]
        assert members.min() == pytest.approx(lo_theory, abs=2e-3)
        assert members.max() == pytest.approx(hi_theory, abs=2e-3)

    def test_learned_c_lands_inside(self):
        unit, s = make_samples([[1.5]], [[2.0]], n=500, seed=10)
        est = learn_layer2(s, method="lp")
        # the detector divides the scale factor out: c should sit near 1/b
        assert est.c_hat[0, 0] == pytest.approx(0.5, abs=1e-6)
        np.testing.assert_allclose(est.b_hat, [[2.0]], atol=1e-5)


class TestNoisyPaths:
    def test_slack_path_handles_noise(self):
        unit, s = make_samples(A_REF, B_REF, n=300, sigma=0.02, seed=11)
        est = learn_layer2(s, method="slack-lp")
        assert est.xi_hat.min() >= 0.0
        assert any("slack objective" in note for note in est.notes)
        rel = np.linalg.norm(est.b_hat - unit.b) / np.linalg.norm(unit.b)
        assert rel < 0.6

    def test_qp_path_handles_noise(self):
        unit, s = make_samples(A_REF, B_REF, n=300, sigma=0.02, seed=12)
        est = learn_layer2(s, method="qp")
        rel = np.linalg.norm(est.b_hat - unit.b) / np.linalg.norm(unit.b)
        assert rel < 0.4


class TestValidation:
    def test_wide_output_rejected(self):
        s_bad = sample(
            ResidualUnit(a=A_REF, b=B_REF), standard_mixture(2), 50, 0.0, seed=13
        )
        # fake an m < d sample set by slicing the outputs
        from reslearn.model import SampleSet

        narrowed = SampleSet(xs=s_bad.xs, ys=s_bad.ys[:, :1])
        with pytest.raises(DimensionMismatchError):
            learn_layer2(narrowed, method="qp")

    def test_underdetermined_warns(self):
        unit, s = make_samples(A_REF, B_REF, n=1, seed=14)
        with pytest.warns(UserWarning, match="underdetermined"):
            try:
                learn_layer2(s, method="qp")
            except ReslearnError:
                pass  # one sample cannot support the B readout; the warning is the contract

    def test_underdetermined_warning_shows_once_per_location(self):
        # the fit path enters no warnings.catch_warnings, which would reset
        # the once-per-location registry: five fits from one line warn once
        # under the default filter. A subprocess keeps pytest's own capture out.
        src = str(Path(layer2.__file__).resolve().parents[1])
        code = (
            "from reslearn.errors import ReslearnError\n"
            "from reslearn.layer2 import learn_layer2\n"
            "from reslearn.model import NetworkGenSpec, generate_unit, sample, standard_mixture\n"
            "unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=1))\n"
            "for seed in range(5):\n"
            "    try:\n"
            "        learn_layer2(sample(unit, standard_mixture(4), 3, 0.0, seed=seed), 'lp')\n"
            "    except ReslearnError:\n"
            "        pass\n"
        )
        out = subprocess.run([sys.executable, "-W", "default", "-c", code],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True, check=True)
        assert out.stderr.count("underdetermined: n=3 < d=4") == 1

    def test_notes_keep_their_text_and_order(self):
        # recorded while the rescale stage still warned and learn_layer2
        # caught its warnings: the LP rows' notes, then the gate's, row by row
        _, s = make_samples(A_REF, B_REF, n=12, sigma=0.3, seed=17)
        assert learn_layer2(s, method="slack-lp").notes == (
            "row 0: slack objective 5.020e-02 (noisy fit)",
            "row 1: slack objective 6.626e-03 (noisy fit)",
            "row 0: only 6 negative samples, scale factor left at 1",
            "row 1: only 8 negative samples, scale factor left at 1",
        )

    def test_recover_b_rejects_nonpositive_factors(self):
        _, s = make_samples(A_REF, B_REF, n=50, seed=15)
        with pytest.raises(ValueError):
            recover_b_general(s, np.eye(2), [1.0, 0.0])

    def test_unknown_method_rejected(self):
        _, s = make_samples(A_REF, B_REF, n=50, seed=16)
        with pytest.raises(ValueError):
            learn_layer2(s, method="nonsense")
