import csv
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reslearn import baselines, layer2
from reslearn.errors import (
    DimensionMismatchError,
    InvalidInputError,
    ReslearnError,
    SolverFailedError,
)
from reslearn.evaluation import (
    TrialCell,
    TrialRow,
    aggregate_rows,
    cell_seed,
    full_pipeline,
    make_input_dist,
    relative_errors,
    run_cells,
    run_trial,
    save_rows_csv,
    success_rate,
    teacher_seed,
)
from reslearn.layer1 import HiddenSampleSet, learn_layer1
from reslearn.layer2 import learn_layer2
from reslearn.model import (
    GaussUniformMixture,
    GaussianIid,
    NetworkGenSpec,
    ResidualUnit,
    SampleSet,
    derive_seed,
    forward_batch,
    generate_unit,
    make_rng,
    sample,
    standard_mixture,
)

A_REF = np.array([[1.0, 1.0], [1.0, 2.0]])
B_REF = np.array([[1.0, 0.5], [0.0, 1.0]])


def ref_test_set(n=50, seed=3):
    unit = ResidualUnit(a=A_REF, b=B_REF)
    return unit, sample(unit, GaussianIid(dim=2), n, 0.0, seed=seed)


class TestRelativeErrors:
    def test_zero_at_truth(self):
        unit, test = ref_test_set()
        rep = relative_errors(A_REF, B_REF, unit, test)
        assert rep.layer1_rel == 0.0
        assert rep.layer2_rel == 0.0
        assert rep.output_rel == 0.0

    def test_doubled_first_layer_is_unit_error(self):
        unit, test = ref_test_set()
        rep = relative_errors(2.0 * A_REF, B_REF, unit, test)
        assert rep.layer1_rel == pytest.approx(1.0, rel=1e-14)

    def test_matches_direct_recomputation(self):
        unit, test = ref_test_set()
        g = make_rng(4)
        est_a = A_REF + 0.1 * g.standard_normal((2, 2))
        est_b = B_REF + 0.1 * g.standard_normal((2, 2))
        rep = relative_errors(est_a, est_b, unit, test)
        assert rep.layer1_rel == pytest.approx(
            np.linalg.norm(est_a - A_REF) / np.linalg.norm(A_REF), rel=1e-14
        )
        pred = forward_batch(est_a, est_b, test.xs)
        per = np.linalg.norm(pred - test.ys, axis=1) / np.linalg.norm(test.ys, axis=1)
        assert rep.output_rel == pytest.approx(per.mean(), rel=1e-14)

    def test_empty_test_set(self):
        unit, _ = ref_test_set()
        empty = SampleSet(
            xs=np.zeros((0, 2)), ys=np.zeros((0, 2)), noise_sigma=0.0, seed=None
        )
        with pytest.raises(ValueError):
            relative_errors(A_REF, B_REF, unit, empty)

    def test_shape_mismatch(self):
        unit, test = ref_test_set()
        with pytest.raises(DimensionMismatchError):
            relative_errors(np.eye(3), B_REF, unit, test)


class TestRunTrial:
    def test_deterministic(self):
        unit = generate_unit(
            NetworkGenSpec(d=3, m=3, seed=77, require_non_scale_transform=True)
        )
        r1 = run_trial(unit, 128, 0.0, "lp", seed=501)
        r2 = run_trial(unit, 128, 0.0, "lp", seed=501)
        assert r1 == r2

    def test_lp_recovers_clean_teacher(self):
        unit = generate_unit(
            NetworkGenSpec(d=3, m=3, seed=77, require_non_scale_transform=True)
        )
        rep = run_trial(unit, 300, 0.0, "lp", seed=501)
        assert rep.layer1_rel <= 1e-9
        assert rep.layer2_rel <= 1e-9
        assert rep.output_rel <= 1e-9

    def test_clean_slack_lp_matches_lp(self):
        # trial 0 of the benchmark's slack-sweep workload at seed 302: where
        # LP is exact on clean data, slack-LP must land on the same estimate
        # (layer 2 proves no row infeasible on roundoff, so layer 1 keeps the LP route)
        teacher = derive_seed(302, "slack-sweep", "teacher", 0)
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=teacher))
        seed = derive_seed(302, "slack-sweep", "train", 0)
        lp = run_trial(unit, 400, 0.0, "lp", seed)
        slack = run_trial(unit, 400, 0.0, "slack-lp", seed)
        assert lp.output_rel <= 1e-10
        for field in ("layer1_rel", "layer2_rel", "output_rel"):
            assert abs(getattr(slack, field) - getattr(lp, field)) <= 1e-10, field

    def test_report_metadata(self):
        unit = generate_unit(
            NetworkGenSpec(d=2, m=2, seed=9, require_non_scale_transform=True)
        )
        # the report holds the errors and the method only: the training
        # set's n, seed and sigma are the caller's, and the held-out set's
        # would read as the fit's
        rep = run_trial(unit, 150, 0.05, "qp", seed=33)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "layer1_rel", "layer2_rel", "output_rel", "method"]
        assert rep.method == "qp"

    def test_vanilla_failure_raises(self):
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=5))
        with pytest.raises(ReslearnError):
            run_trial(unit, 16, 0.0, "vanilla-lr", seed=40, input_kind="gaussian")

    def test_unknown_method(self):
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=1))
        with pytest.raises(ValueError):
            run_trial(unit, 64, 0.0, "newton", seed=0)


@functools.lru_cache(maxsize=None)
def scale_instance(method, sigma, seed):
    """A d=4 teacher, its training set at noise sigma, a held-out clean set,
    and the method's errors on the unscaled data (or the error it raises)."""
    unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=seed))
    dist = standard_mixture(4)
    train = sample(unit, dist, 400, sigma, seed=12)
    test = sample(unit, dist, 200, 0.0, seed=13)
    return unit, train, test, scaled_errors(unit, train, test, method, 1.0)


def scaled_errors(unit, train, test, method, scale):
    try:
        est1, est2 = full_pipeline(SampleSet(xs=train.xs * scale, ys=train.ys * scale), method)
    except ReslearnError as exc:
        return type(exc).__name__
    return relative_errors(est1.a_hat, est2.b_hat, unit, test)


def assert_same_errors(got, base):
    if isinstance(base, str):
        assert got == base
        return
    for field in ("layer1_rel", "layer2_rel", "output_rel"):
        assert getattr(got, field) == pytest.approx(getattr(base, field), rel=1e-9, abs=1e-12)


class TestQpScaleInvariance:
    # The unit is positively homogeneous, so x -> s x, y -> s y keeps the
    # teacher; every solver tolerance is relative, so the QP route's
    # estimates, and their errors, do not depend on s.
    @given(st.floats(-6.0, 6.0))
    @example(-6.0)
    @example(6.0)
    @settings(max_examples=30, deadline=None)
    def test_errors_do_not_move_when_samples_are_rescaled(self, log_scale):
        unit, train, test, base = scale_instance("qp", 0.0, 11)
        assert_same_errors(scaled_errors(unit, train, test, "qp", 10.0 ** log_scale), base)


class TestLpScaleInvariance:
    # The same for the LP routes, whose tolerances are relative to the
    # rows' data. Teacher 3 is one whose clean figures moved at s = 1e-5
    # while the simplex kept absolute max(1, .) floors; the LP route on
    # noisy samples raises, and must raise at every scale.
    @pytest.mark.parametrize("method,sigma", [
        ("lp", 0.0), ("lp", 0.1), ("slack-lp", 0.0), ("slack-lp", 0.1)])
    @given(log_scale=st.floats(-6.0, 6.0))
    @example(log_scale=-6.0)
    @example(log_scale=-5.0)
    @example(log_scale=6.0)
    @settings(max_examples=15, deadline=None)
    def test_errors_do_not_move_when_samples_are_rescaled(self, method, sigma, log_scale):
        unit, train, test, base = scale_instance(method, sigma, 3)
        assert_same_errors(scaled_errors(unit, train, test, method, 10.0 ** log_scale), base)


# (method, sigma) of the invariance tests; lp's rows at sigma 0.1 are
# infeasible, so that leg must fail the same way on both sides
CONVEX_LEGS = (("qp", 0.0), ("qp", 0.1), ("slack-lp", 0.0), ("slack-lp", 0.1),
               ("lp", 0.0), ("lp", 0.1))
# relative Frobenius gap allowed between the moved estimates and the mapped
# ones. Over 300 random draws per leg (d=4, n=400, maps of condition below
# 50) the worst was 5.8e-12 under a permutation and 3.0e-11 under an output
# map, except qp at sigma 0.1 under an output map: 2.5e-9, and 7.1e-9 over
# 5,000 draws, where the split-LS stop pins each solve to about 1e-9.
MAP_TOL = 1e-8


def pipeline_or_error(samples, method):
    """(A_hat, B_hat) from ``full_pipeline``, or the message it failed with."""
    try:
        est1, est2 = full_pipeline(samples, method)
    except SolverFailedError as exc:
        return str(exc)
    return est1.a_hat, est2.b_hat


def assert_mapped(moved, base, method, sigma, a_map, b_map):
    """moved is base with a_map, b_map applied, or the same failure."""
    if (method, sigma) == ("lp", 0.1):
        assert isinstance(base, str)
    if isinstance(base, str):
        assert moved == base
        return
    for got, want in zip(moved, (a_map(base[0]), b_map(base[1]))):
        assert np.linalg.norm(got - want) <= MAP_TOL * np.linalg.norm(want)


class TestPipelineMaps:
    # The convex pipeline sees x and y only through its row programs, so a
    # relabelling of the input coordinates, x -> P x, is the teacher
    # A -> P A P', B -> B P', and an invertible output map, y -> M y, is
    # B -> M B with A unchanged; the estimates move the same way. The draws
    # are fixed (derandomized): about 1 in 5,000 random output maps leaves
    # qp's layer-2 split-LS unconverged on the mapped side only, the case
    # test_output_map_keeps_split_ls_converging keeps as a known failure.

    @pytest.mark.parametrize("method,sigma", CONVEX_LEGS)
    @given(teacher=st.integers(0, 2**31 - 1), train=st.integers(0, 2**31 - 1),
           order=st.permutations(range(4)))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_input_permutation(self, method, sigma, teacher, train, order):
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=teacher))
        s = sample(unit, standard_mixture(4), 400, sigma, seed=train)
        p = np.eye(4)[list(order)]
        moved = pipeline_or_error(SampleSet(xs=s.xs @ p.T, ys=s.ys, noise_sigma=sigma), method)
        assert_mapped(moved, pipeline_or_error(s, method), method, sigma,
                      lambda a: p @ a @ p.T, lambda b: b @ p.T)

    @pytest.mark.parametrize("method,sigma", CONVEX_LEGS)
    @given(teacher=st.integers(0, 2**31 - 1), train=st.integers(0, 2**31 - 1),
           entries=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_output_map(self, method, sigma, teacher, train, entries):
        m = make_rng(entries).standard_normal((4, 4))
        assume(np.linalg.cond(m) < 50.0)
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=teacher))
        s = sample(unit, standard_mixture(4), 400, sigma, seed=train)
        moved = pipeline_or_error(SampleSet(xs=s.xs, ys=s.ys @ m.T, noise_sigma=sigma), method)
        assert_mapped(moved, pipeline_or_error(s, method), method, sigma,
                      lambda a: a, lambda b: m @ b)

    @pytest.mark.xfail(strict=True, raises=SolverFailedError,
                       reason="layer 2's split-LS does not converge on the mapped design")
    def test_output_map_keeps_split_ls_converging(self):
        # a random draw (condition 5.9) on which the unmapped qp run takes 7
        # Newton steps and the mapped one ends unconverged after 200
        m = make_rng(2159633094).standard_normal((4, 4))
        unit = generate_unit(NetworkGenSpec(d=4, m=4, seed=268866470))
        s = sample(unit, standard_mixture(4), 400, 0.1, seed=1921746239)
        base = pipeline_or_error(s, "qp")
        est1, est2 = full_pipeline(SampleSet(xs=s.xs, ys=s.ys @ m.T, noise_sigma=0.1), "qp")
        assert_mapped((est1.a_hat, est2.b_hat), base, "qp", 0.1, lambda a: a, lambda b: m @ b)


class TestSlackRoute:
    # layer 1 of a slack-lp fit leaves the LP route only on rows that layer
    # 2's slack LPs prove infeasible; the teacher's rows are feasible at
    # sigma = 0, so a clean fit never leaves it, however few the samples

    @given(d=st.integers(2, 6), ratio=st.integers(2, 8),
           teacher=st.integers(0, 2**31 - 1), train=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_clean_data_keep_the_lp_route(self, d, ratio, teacher, train):
        unit = generate_unit(NetworkGenSpec(d=d, m=d, seed=teacher))
        s = sample(unit, standard_mixture(d), ratio * d, 0.0, seed=train)
        est1, est2 = full_pipeline(s, "slack-lp")
        assert est2.infeasible_rows == ()
        lp = learn_layer1(HiddenSampleSet(xs=s.xs, hs=est2.xi_hat), "lp")
        for field in ("a_hat", "k_hat", "raw_a"):
            assert getattr(est1, field).tobytes() == getattr(lp, field).tobytes(), field
        assert (est1.unscaled_rows, est1.notes) == (lp.unscaled_rows, lp.notes)


class TestSeeds:
    def test_cell_seed_distinguishes_every_axis(self):
        base = cell_seed(0, 4, 128, 0.1, "qp", 3)
        assert cell_seed(0, 4, 128, 0.1, "qp", 3) == base
        for other in (
            cell_seed(1, 4, 128, 0.1, "qp", 3),
            cell_seed(0, 5, 128, 0.1, "qp", 3),
            cell_seed(0, 4, 129, 0.1, "qp", 3),
            cell_seed(0, 4, 128, 0.2, "qp", 3),
            cell_seed(0, 4, 128, 0.1, "lp", 3),
            cell_seed(0, 4, 128, 0.1, "qp", 4),
        ):
            assert other != base

    def test_teacher_seed_fixed_across_cells(self):
        # teachers only depend on (base, d, trial) by construction
        assert teacher_seed(0, 4, 1) == teacher_seed(0, 4, 1)
        assert teacher_seed(0, 4, 1) != teacher_seed(0, 4, 2)
        assert teacher_seed(0, 4, 1) != teacher_seed(0, 5, 1)


class TestRunGrid:
    def test_rows_and_order(self):
        cells = [
            TrialCell(d=2, n=64, method=method, trials=2, base_seed=6,
                      input_kind="gaussian", test_set_size=100)
            for method in ("lp", "vanilla-lr")
        ]
        rows = [row for cell_rows in run_cells(cells) for row in cell_rows]
        assert [(r.method, r.trial) for r in rows] == [
            ("lp", 0), ("lp", 1), ("vanilla-lr", 0), ("vanilla-lr", 1)
        ]

    def test_deterministic_and_parallel_equal(self):
        cell = TrialCell(d=2, n=64, method="lp", trials=2, base_seed=6, test_set_size=100)
        assert list(run_cells([cell])) == list(run_cells([cell], jobs=2))

    def test_failures_become_rows(self):
        cell = TrialCell(d=4, n=16, method="vanilla-lr", trials=3, base_seed=11,
                         input_kind="gaussian", test_set_size=100)
        [rows] = run_cells([cell])
        assert len(rows) == 3
        for row in rows:
            assert row.status == "failed"
            assert np.isnan(row.layer1_rel)
            assert "vanilla LR failed" in row.message

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TrialCell(d=2, n=64, method="newton")
        with pytest.raises(ValueError):
            TrialCell(d=2, n=64, input_kind="cauchy")

    @pytest.mark.parametrize("field", ["d", "n", "trials"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrialCell(**{"d": 2, "n": 64, "trials": 1, field: 0})
        with pytest.raises(ValueError, match=field):
            success_rate(**{"d": 2, "n": 64, "trials": 1, field: 0})


def synthetic_rows():
    def row(method, trial, l1, status="ok"):
        return TrialRow(
            d=2, n=64, noise_sigma=0.0, method=method, trial=trial, seed=trial,
            layer1_rel=l1, layer2_rel=2 * l1, output_rel=3 * l1, status=status,
            message="" if status == "ok" else "boom",
        )

    return [
        row("qp", 0, 0.1),
        row("qp", 1, 0.3),
        row("qp", 2, float("nan"), status="failed"),
        row("lp", 0, 0.5),
    ]


class TestAggregateRows:
    def test_statistics_over_ok_trials(self):
        recs = aggregate_rows(synthetic_rows())
        assert len(recs) == 2
        lp, qp = recs[0], recs[1]
        assert (qp["method"], qp["trials"], qp["failures"]) == ("qp", 3, 1)
        assert qp["layer1_rel_mean"] == pytest.approx(0.2)
        assert qp["layer1_rel_std"] == pytest.approx(0.1)
        assert qp["layer1_rel_median"] == pytest.approx(0.2)
        assert qp["output_rel_mean"] == pytest.approx(0.6)
        assert (lp["method"], lp["failures"]) == ("lp", 0)
        assert lp["layer1_rel_mean"] == pytest.approx(0.5)

    def test_all_failed_cell_is_nan(self):
        rows = [r for r in synthetic_rows() if r.trial == 2]
        recs = aggregate_rows(rows)
        assert recs[0]["failures"] == 1
        assert np.isnan(recs[0]["layer1_rel_mean"])


class TestSerialization:
    def test_rows_csv_roundtrip(self, tmp_path):
        rows = synthetic_rows()
        path = tmp_path / "rows.csv"
        save_rows_csv(path, rows)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            back = list(reader)
        assert reader.fieldnames == [f.name for f in dataclasses.fields(TrialRow)]
        assert len(back) == len(rows)
        for orig, rec in zip(rows, back):
            for name, value in dataclasses.asdict(orig).items():
                parsed = type(value)(rec[name])
                if isinstance(value, float) and np.isnan(value):
                    assert np.isnan(parsed), name
                else:
                    assert parsed == value, name


class TestSuccessRates:
    def test_structure_and_determinism(self):
        rec = success_rate(2, 64, trials=5, base_seed=3)
        assert rec == success_rate(2, 64, trials=5, base_seed=3)
        assert rec["trials"] == 5
        assert rec["rate"] == rec["successes"] / 5

    def test_easy_cell_always_succeeds(self):
        assert success_rate(2, 64, trials=20, base_seed=3)["rate"] == 1.0

    def test_shifted_inputs_starve_negative_orthant(self):
        assert success_rate(2, 64, trials=10, base_seed=3, input_mean=3.0)["rate"] == 0.0


class TestMakeInputDist:
    def test_kinds(self):
        assert isinstance(make_input_dist("mixture", 3), GaussUniformMixture)
        assert isinstance(make_input_dist("gaussian", 3), GaussianIid)
        with pytest.raises(ValueError):
            make_input_dist("cauchy", 3)


class TestInvalidInput:
    # an argument out of its domain is an InvalidInputError: a ReslearnError
    # for the library's callers, and still a ValueError for callers that
    # catch that (the CLI maps both to exit 2)
    @pytest.mark.parametrize("call", [
        lambda s: learn_layer2(s, "newton"),
        lambda s: layer2.recover_b_general(s, np.eye(2), [1.0, 0.0]),
        lambda s: sample(ResidualUnit(a=A_REF, b=B_REF), GaussianIid(dim=2), 10, -1.0),
        lambda s: sample(ResidualUnit(a=A_REF, b=B_REF), GaussianIid(dim=2), 0, 0.0),
        lambda s: ResidualUnit(a=-A_REF, b=B_REF),
        lambda s: TrialCell(d=2, n=16, method="sgd"),
        lambda s: TrialCell(d=0, n=64),
        lambda s: make_input_dist("cauchy", 2),
        lambda s: baselines.sgd_train(s),
        lambda s: HiddenSampleSet(xs=np.zeros((2, 1)), hs=-np.ones((2, 1))),
    ], ids=["method", "scale-factor", "noise-sigma", "sample-count", "negative-a", "sgd-cell",
            "cell-count", "input-kind", "sgd-batch", "negative-h"])
    def test_bad_argument_is_typed(self, call):
        _, s = ref_test_set(n=20)
        with pytest.raises(InvalidInputError) as caught:
            call(s)
        assert isinstance(caught.value, ReslearnError) and isinstance(caught.value, ValueError)
