import json

import numpy as np
import pytest

import reslearn.cli as cli
from reslearn.cli import main
from reslearn.evaluation import cell_seed, fit_method, run_trial
from reslearn.model import (
    NetworkGenSpec,
    derive_seed,
    generate_unit,
    load_samples_csv,
    load_unit_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_payload(err):
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture
def dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(
        capsys, "generate", "--d", "2", "--n", "200", "--seed", "5",
        "--non-scale", "--out", str(out),
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_replayable_artifacts(self, dataset):
        unit = load_unit_json(dataset / "teacher.json")
        samples = load_samples_csv(dataset / "samples.csv")
        assert unit.d == 2 and samples.n == 200
        cfg = json.loads((dataset / "generate_config.json").read_text())
        assert cfg["seed"] == 5 and cfg["non_scale"] is True

    def test_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "generate", "--d", "3", "--n", "50", "--seed", "8",
                "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "samples.csv").read_text() == (outs[1] / "samples.csv").read_text()
        assert (outs[0] / "teacher.json").read_text() == (outs[1] / "teacher.json").read_text()

    def test_missing_required_flags(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path))
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"


# a token for each flag that some study reads, or that the experiment
# command once took for every study
EXPERIMENT_FLAGS = {
    "--d": "4", "--n": "64", "--eps-tol": "0.5", "--dims": "2", "--sample-sizes": "64",
    "--noise-sigmas": "0.1", "--methods": "qp", "--trials": "1", "--input": "gaussian",
    "--jobs": "2", "--test-size": "50", "--input-mean": "3",
}
GRID_FLAGS = {"--dims", "--sample-sizes", "--methods", "--trials", "--input", "--jobs",
              "--test-size"}
STUDY_FLAGS = {
    "heatmap": GRID_FLAGS,
    "weight_robustness": GRID_FLAGS,
    "noise_robustness": GRID_FLAGS | {"--noise-sigmas"},
    "vanilla_lr_rates": {"--dims", "--sample-sizes", "--trials", "--input-mean"},
}


@pytest.mark.parametrize("argv", [
    ["learn", "--data", "samples.csv", "--noise-sigma", "0.1"],
    ["generate", "--d", "2", "--n", "50", "--jobs", "2"],
    *(pytest.param(["experiment", study, flag, token], id=f"{study} {flag}")
      for study, reads in STUDY_FLAGS.items()
      for flag, token in EXPERIMENT_FLAGS.items() if flag not in reads),
])
def test_flag_the_subcommand_does_not_read_is_rejected(argv, tmp_path, monkeypatch):
    # a flag the command would ignore must not parse, and no cell starts
    started = []
    monkeypatch.setattr(cli, "run_cells", lambda cells, jobs: started.append(cells) or [])
    monkeypatch.setattr(cli, "success_rate", lambda **config: started.append(config))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert started == []
    assert not any(tmp_path.iterdir())


class TestLearn:
    def test_fit_with_error_report(self, dataset, tmp_path, capsys):
        out = tmp_path / "fit"
        code, stdout, _ = run(
            capsys, "learn", "--data", str(dataset / "samples.csv"),
            "--teacher", str(dataset / "teacher.json"),
            "--method", "lp", "--out", str(out),
        )
        assert code == 0
        assert "layer1_rel=" in stdout
        payload = json.loads((out / "learn_result.json").read_text())
        report = payload["error_report"]
        assert report["layer1_rel"] <= 1e-9
        assert report["layer2_rel"] <= 1e-9
        b_hat = np.array(payload["estimates"]["layer2"]["b_hat"])
        unit = load_unit_json(dataset / "teacher.json")
        np.testing.assert_allclose(b_hat, unit.b, atol=1e-9)

    def test_error_report_holds_only_the_scores(self, tmp_path, capsys):
        # the held-out set's n, seed and clean sigma are not the fit's; the
        # payload's own "seed" and the dataset's config hold the fit's values
        data = tmp_path / "data"
        assert run(capsys, "generate", "--d", "3", "--n", "200", "--noise-sigma", "0.05",
                   "--seed", "5", "--out", str(data))[0] == 0
        out = tmp_path / "fit"
        code, _, _ = run(capsys, "learn", "--data", str(data / "samples.csv"),
                         "--teacher", str(data / "teacher.json"), "--out", str(out))
        assert code == 0
        report = json.loads((out / "learn_result.json").read_text())["error_report"]
        assert sorted(report) == ["layer1_rel", "layer2_rel", "method", "output_rel"]
        assert report["method"] == "qp"

    @pytest.mark.parametrize("method, key", [("sgd", "sgd"), ("vanilla-lr", "vanilla_lr")])
    def test_baseline_estimates_match_fit_method(self, dataset, tmp_path, capsys, method, key):
        out = tmp_path / "fit"
        code, _, _ = run(
            capsys, "learn", "--data", str(dataset / "samples.csv"),
            "--method", method, "--seed", "4", "--out", str(out),
        )
        assert code == 0
        stored = json.loads((out / "learn_result.json").read_text())["estimates"][key]
        a_hat, b_hat, _ = fit_method(load_samples_csv(dataset / "samples.csv"), method, 4)
        assert np.array_equal(stored["a_hat"], a_hat)
        assert np.array_equal(stored["b_hat"], b_hat)

    def test_layer2_block_lists_the_infeasible_rows(self, dataset, tmp_path, capsys):
        # a clean qp fit proves no row infeasible; slack-lp on noisy labels
        # lists the rows its slack LPs proved infeasible, as fit_method does
        def layer2_block(data, method):
            out = tmp_path / f"fit-{method}"
            code, _, _ = run(capsys, "learn", "--data", str(data), "--method", method,
                             "--out", str(out))
            assert code == 0
            return json.loads((out / "learn_result.json").read_text())["estimates"]["layer2"]

        assert layer2_block(dataset / "samples.csv", "qp")["infeasible_rows"] == []
        noisy = tmp_path / "noisy"
        code, _, _ = run(capsys, "generate", "--d", "2", "--n", "200", "--seed", "5",
                         "--noise-sigma", "0.1", "--out", str(noisy))
        assert code == 0
        block = layer2_block(noisy / "samples.csv", "slack-lp")
        _, _, (_, est2) = fit_method(load_samples_csv(noisy / "samples.csv"), "slack-lp", 0)
        assert block["infeasible_rows"] == list(est2.infeasible_rows) != []
        assert [note.split(":")[0] for note in block["notes"] if "noisy fit" in note] == [
            f"row {j}" for j in block["infeasible_rows"]]

    def test_zero_test_size_is_rejected_before_the_fit(self, dataset, tmp_path, capsys,
                                                       monkeypatch):
        fitted = []
        monkeypatch.setattr(cli, "fit_method", lambda *args: fitted.append(args))
        out = tmp_path / "fit"
        code, stdout, err = run(
            capsys, "learn", "--data", str(dataset / "samples.csv"),
            "--teacher", str(dataset / "teacher.json"), "--test-size", "0", "--out", str(out),
        )
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert "--test-size" in payload["message"]
        assert fitted == [] and stdout == ""
        assert not out.exists()

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "learn", "--data", str(tmp_path / "nope.csv"), "--method", "lp"
        )
        assert code == 3
        assert stderr_payload(err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("field", ["d", "m", "n", "sigma"])
    def test_samples_header_without_a_field_is_config_error(self, dataset, tmp_path, capsys,
                                                            field):
        header, *rows = (dataset / "samples.csv").read_text().splitlines(keepends=True)
        kept = [item for item in header[2:].strip().split(",") if not item.startswith(f"{field}=")]
        data = tmp_path / "samples.csv"
        data.write_text("# " + ",".join(kept) + "\n" + "".join(rows))
        code, _, err = run(capsys, "learn", "--data", str(data), "--method", "lp",
                           "--out", str(tmp_path / "fit"))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "InvalidInputError"
        assert str(data) in payload["message"] and repr(field) in payload["message"]

    @pytest.mark.parametrize("teacher", [{"a": [[1.0]]}, {"b": [[1.0]]}, [[1.0]], "a"])
    def test_teacher_without_weights_is_config_error(self, dataset, tmp_path, capsys, teacher):
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps(teacher))
        code, _, err = run(capsys, "learn", "--data", str(dataset / "samples.csv"),
                           "--teacher", str(path), "--method", "lp", "--out", str(tmp_path / "fit"))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "InvalidInputError" and str(path) in payload["message"]

    def test_bad_method_from_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "newton"}))
        code, _, err = run(
            capsys, "learn", "--config", str(cfg),
            "--data", str(dataset / "samples.csv"), "--out", str(tmp_path),
        )
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"

    def test_method_from_config_file_is_fitted(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "lp"}))
        out = tmp_path / "fit"
        code, _, _ = run(
            capsys, "learn", "--config", str(cfg),
            "--data", str(dataset / "samples.csv"), "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "learn_result.json").read_text())["method"] == "lp"

    def test_invalid_choice_rejected_by_parser(self, dataset, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--data", str(dataset / "samples.csv"), "--method", "newton"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 2, "n": 40, "seed": 4}))
        out = tmp_path / "gen"
        code, _, _ = run(
            capsys, "generate", "--config", str(cfg), "--n", "60", "--out", str(out),
        )
        assert code == 0
        stored = json.loads((out / "generate_config.json").read_text())
        assert stored["n"] == 60  # explicit flag wins
        assert stored["d"] == 2   # config fills the rest

    def test_undeclared_key_rejected(self, dataset, tmp_path, capsys):
        # learn declares neither --noise-sigma, --jobs nor --d; each would
        # be a parse error as a flag, so as a config key it is one too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise_sigma": 0.1, "jobs": 4, "d": 9}))
        out = tmp_path / "fit"
        code, _, err = run(
            capsys, "learn", "--config", str(cfg),
            "--data", str(dataset / "samples.csv"), "--method", "lp", "--out", str(out),
        )
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        for key in ("noise_sigma", "jobs", "'d'"):
            assert key in payload["message"]
        assert not (out / "learn_result.json").exists()

    def test_config_sets_flags_that_have_defaults(self, tmp_path, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_grid", lambda args: seen.append(args) or 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 4, "input": "gaussian", "test_size": 50, "trials": 3}))
        for argv in ((), ("--jobs", "2"), None):
            config = () if argv is None else ("--config", str(cfg), *argv)
            code, _, _ = run(capsys, "experiment", "heatmap", *config)
            assert code == 0
        got = [(a.jobs, a.input, a.test_size, a.trials) for a in seen]
        assert got == [
            (4, "gaussian", 50, 3),   # the config file sets every key
            (2, "gaussian", 50, 3),   # an explicit flag still wins
            (1, "mixture", 1000, 8),  # no config: the study's defaults
        ]

    @pytest.mark.parametrize("key", ["command", "config", "func"])
    def test_parser_internal_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "learn", "d": 2, "n": 20}))
        out = tmp_path / "gen"
        code, _, err = run(capsys, "generate", "--config", str(cfg), "--out", str(out))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert repr(key) in payload["message"]
        assert not out.exists()

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "heatmap", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for shown in ("(default 1;", "(default 1000)", "(default mixture)", "(default .)",
                      "seed (default 0)"):
            assert shown in text

    @pytest.mark.parametrize("study, shown", [
        ("heatmap", ["dimensions (default 2,4,8)", "counts (default 64,128,256,512)",
                     "methods (default qp,sgd)", "cell (default 8)"]),
        ("weight_robustness", ["dimensions (default 8)", "counts (default 512)",
                               "methods (default qp,sgd)", "cell (default 32)"]),
        ("noise_robustness", ["dimensions (default 10)", "counts (default 512)",
                              "levels (default 0,0.05,0.1,0.2)",
                              "methods (default sgd,qp,slack-lp)", "cell (default 8)"]),
        ("vanilla_lr_rates", ["dimensions (default 4,6)", "counts (default 100,500,1000)",
                              "cell (default 200)", "mean (default 0.0)", "seed (default 0)"]),
    ])
    def test_study_help_shows_its_defaults(self, capsys, study, shown):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", study, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for default in shown:
            assert default in text

    @pytest.mark.parametrize("path", [
        ["generate"], ["learn"],
        *(["experiment", study] for study in [*cli.GRID_STUDIES, "vanilla_lr_rates"]),
    ], ids=" ".join)
    def test_config_sets_every_flag_of_the_leaf(self, path):
        # a default declared in add_argument must not win over the config's;
        # the stored values are not strings, which argparse would convert
        leaf = cli.build_parser().parse_args(path).leaf
        stored = {action.dest: ("config", action.dest) for action in leaf._actions
                  if action.dest not in ("help", "config")}
        args = cli.build_parser(stored).parse_args(path)
        assert {dest: getattr(args, dest) for dest in stored} == stored

    def test_config_sets_a_store_true_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 2, "n": 40, "non_scale": True}))
        out = tmp_path / "gen"
        code, _, _ = run(capsys, "generate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert json.loads((out / "generate_config.json").read_text())["non_scale"] is True

    @pytest.mark.parametrize("stored", [
        {"jobs": 2.5}, {"trials": 1.5}, {"jobs": True}, {"test_size": "many"},
        {"input": "uniform"}, {"name": "bogus"}, {"dims": [2, 3]},
    ])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, monkeypatch, stored):
        # a value the flag's type or choices would refuse on the command
        # line is a configuration error, not a traceback from the run
        monkeypatch.setattr(cli, "cmd_grid", lambda args: 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(stored))
        code, _, err = run(capsys, "experiment", "heatmap", "--config", str(cfg))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ConfigError"
        assert repr(next(iter(stored))) in payload["message"]

    def test_config_values_take_their_flags_types(self, tmp_path, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_grid", lambda args: seen.append(args) or 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"test_size": "50", "trials": 3, "dims": 4, "jobs": None}))
        code, _, _ = run(capsys, "experiment", "heatmap", "--config", str(cfg))
        assert code == 0
        args = seen[0]
        assert (args.test_size, args.trials, args.dims, args.jobs) == (50, 3, "4", 1)
        assert type(args.test_size) is int

    def test_config_switch_takes_a_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 2, "n": 40, "non_scale": 1}))
        out = tmp_path / "gen"
        code, _, err = run(capsys, "generate", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"
        assert not out.exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "generate", "--config", str(cfg))
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"


class TestExperiment:
    def test_heatmap_artifacts_and_resume(self, tmp_path, capsys):
        out = tmp_path / "exp"
        argv = (
            "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
            "--methods", "lp", "--trials", "2", "--out", str(out),
        )
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert "done" in stdout
        ledger = json.loads((out / "heatmap.json").read_text())
        assert len(ledger["cells"]) == 1
        [cell] = ledger["cells"].values()
        assert len(cell["rows"]) == 2
        agg = json.loads((out / "heatmap_aggregate.json").read_text())
        assert agg["cells"][0]["trials"] == 2
        assert (out / "heatmap_trials.csv").read_text().count("\n") == 3

        # rerun skips completed cells but rewrites the same outputs
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert "done" not in stdout
        assert json.loads((out / "heatmap.json").read_text()) == ledger

    @pytest.mark.parametrize("stored", [{}, [], {"cells": []}])
    def test_ledger_of_another_shape_counts_as_empty(self, tmp_path, capsys, stored):
        # as an unparsable ledger does: the study runs every cell and rewrites it
        out = tmp_path / "exp"
        out.mkdir()
        (out / "heatmap.json").write_text(json.dumps(stored))
        code, stdout, _ = run(
            capsys, "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
            "--methods", "lp", "--trials", "1", "--out", str(out),
        )
        assert code == 0
        assert "done" in stdout
        assert len(json.loads((out / "heatmap.json").read_text())["cells"]) == 1

    @pytest.mark.parametrize("name, argv, outcome", [
        ("heatmap", ("--dims", "2", "--sample-sizes", "64", "--methods", "lp"), "rows"),
        ("vanilla_lr_rates", ("--dims", "2", "--sample-sizes", "64"), "result"),
    ])
    @pytest.mark.parametrize("record", [5, {"config": {}}, {"rows": [5], "result": 5}])
    def test_cell_record_of_another_shape_is_recomputed(self, tmp_path, capsys, name, argv,
                                                        outcome, record):
        # a record that is not an object holding its outcome counts as pending
        argv = ("experiment", name, *argv, "--trials", "2")
        fresh = tmp_path / "fresh"
        assert run(capsys, *argv, "--out", str(fresh))[0] == 0
        ledger = json.loads((fresh / f"{name}.json").read_text())
        [key] = ledger["cells"]
        out = tmp_path / "resumed"
        out.mkdir()
        (out / f"{name}.json").write_text(json.dumps({"experiment": name, "cells": {key: record}}))
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 0, err
        resumed = json.loads((out / f"{name}.json").read_text())
        assert resumed == ledger
        assert outcome in resumed["cells"][key]

    def test_jobs_reach_the_pool_and_keep_the_ledger(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def recording_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        ledgers = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code, _, _ = run(
                capsys, "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
                "--methods", "lp,vanilla-lr", "--trials", "2", "--jobs", jobs,
                "--out", str(out),
            )
            assert code == 0
            ledgers[jobs] = (out / "heatmap.json").read_text()
        assert pools == [2]  # one pool for both pending cells, none for --jobs 1
        assert ledgers["1"] == ledgers["2"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch, jobs):
        calls = []
        monkeypatch.setattr(cli, "run_cells", lambda cells, jobs: calls.append(jobs) or [])
        code, stdout, err = run(
            capsys, "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
            "--methods", "lp", "--trials", "1", "--jobs", jobs, "--out", str(tmp_path / "exp"),
        )
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"
        assert "--jobs" in stderr_payload(err)["message"]
        assert calls == [] and stdout == ""

    def test_noise_robustness_rows_equal_run_trial_on_fixed_teacher(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code, _, _ = run(
            capsys, "experiment", "noise_robustness", "--dims", "2", "--sample-sizes", "64",
            "--noise-sigmas", "0,0.1", "--methods", "qp,slack-lp,sgd", "--trials", "2",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=derive_seed(3, "fixed-teacher", 2)))
        ledger = json.loads((out / "noise_robustness.json").read_text())
        rows = [row for cell in ledger["cells"].values() for row in cell["rows"]]
        assert len(rows) == 12
        for row in rows:
            sigma, method, trial = row["noise_sigma"], row["method"], row["trial"]
            seed = cell_seed(3, 2, 64, sigma, method, trial)
            report = run_trial(unit, 64, sigma, method, seed)
            assert row["seed"] == seed
            assert row["status"] == "ok"
            assert [row["layer1_rel"], row["layer2_rel"], row["output_rel"]] == [
                report.layer1_rel, report.layer2_rel, report.output_rel
            ]

    def test_vanilla_rates_study(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code, stdout, _ = run(
            capsys, "experiment", "vanilla_lr_rates", "--dims", "2",
            "--sample-sizes", "64", "--trials", "3", "--out", str(out),
        )
        assert code == 0
        ledger = json.loads((out / "vanilla_lr_rates.json").read_text())
        [cell] = ledger["cells"].values()
        assert cell["result"]["trials"] == 3
        assert 0.0 <= cell["result"]["rate"] <= 1.0

    def test_ledger_records_the_cell_fields(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code, _, _ = run(
            capsys, "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
            "--methods", "lp", "--trials", "1", "--out", str(out),
        )
        assert code == 0
        [cell] = json.loads((out / "heatmap.json").read_text())["cells"].values()
        assert cell["config"] == {
            "d": 2, "n": 64, "noise_sigma": 0.0, "method": "lp", "trials": 1,
            "test_set_size": 1000, "base_seed": 0, "input_kind": "mixture",
            "fixed_teacher": False,
        }

    @pytest.mark.parametrize("argv", [
        ["vanilla_lr_rates", "--trials", "0"],
        ["heatmap", "--trials", "0"],
        ["weight_robustness", "--dims", "0"],
        ["noise_robustness", "--sample-sizes", "0"],
    ])
    def test_explicit_zero_is_kept_and_rejected(self, tmp_path, capsys, argv):
        # a zero is a value, not a missing flag: it must not fall back to the
        # study's default (200 vanilla-LR trials, d = 8, ...)
        out = tmp_path / "exp"
        code, stdout, err = run(capsys, "experiment", *argv, "--out", str(out))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "InvalidInputError"
        field = {"--trials": "trials", "--dims": "d", "--sample-sizes": "n"}[argv[1]]
        assert payload["message"].startswith(f"{field} must be at least 1")
        assert stdout == ""
        assert [p.name for p in out.iterdir()] == []

    def test_zero_test_size_is_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(cli, "run_cells", lambda cells, jobs: started.append(cells) or [])
        out = tmp_path / "exp"
        code, stdout, err = run(
            capsys, "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
            "--methods", "lp", "--trials", "1", "--test-size", "0", "--out", str(out),
        )
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "InvalidInputError"
        assert payload["message"].startswith("test_set_size must be at least 1")
        assert started == [] and stdout == ""
        assert [p.name for p in out.iterdir()] == []

    def test_sgd_cell_below_one_batch_is_rejected_before_any_cell(self, tmp_path, capsys,
                                                                 monkeypatch):
        # sgd trains on full batches only, so n = 16 < 32 is a bad cell; the
        # qp cells and the n = 64 sgd cell before it must not run either
        started = []
        monkeypatch.setattr(cli, "run_cells", lambda cells, jobs: started.append(cells) or [])
        out = tmp_path / "exp"
        code, stdout, err = run(
            capsys, "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64,16",
            "--methods", "qp,sgd", "--trials", "1", "--out", str(out),
        )
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "InvalidInputError"
        assert payload["message"] == "an sgd cell needs at least one full batch: n=16 < 32"
        assert started == [] and stdout == ""
        assert [p.name for p in out.iterdir()] == []

    @pytest.mark.parametrize("flag", ["--dims", "--sample-sizes"])
    def test_empty_list_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "exp"
        code, _, err = run(capsys, "experiment", "vanilla_lr_rates", flag, " ", "--out", str(out))
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"
        assert [p.name for p in out.iterdir()] == []

    def test_unknown_experiment_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "warp_drive"])
