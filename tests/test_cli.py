import json

import numpy as np
import pytest

import reslearn.cli as cli
import reslearn.evaluation as evaluation
from reslearn.cli import main
from reslearn.evaluation import cell_seed, fit_method, run_trial
from reslearn.layer2 import EPS_TOL
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


@pytest.mark.parametrize("argv", [
    ["learn", "--data", "samples.csv", "--noise-sigma", "0.1"],
    ["generate", "--d", "2", "--n", "50", "--jobs", "2"],
])
def test_flag_the_subcommand_does_not_read_is_rejected(argv, tmp_path):
    # a flag the command would ignore must not parse
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
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

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "learn", "--data", str(tmp_path / "nope.csv"), "--method", "lp"
        )
        assert code == 3
        assert stderr_payload(err)["error"] == "FileNotFoundError"

    def test_bad_method_from_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "newton"}))
        code, _, err = run(
            capsys, "learn", "--config", str(cfg),
            "--data", str(dataset / "samples.csv"), "--out", str(tmp_path),
        )
        assert code == 2
        assert stderr_payload(err)["error"] == "ConfigError"

    def test_invalid_choice_rejected_by_parser(self, dataset, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--data", str(dataset / "samples.csv"), "--method", "newton"])
        assert exc.value.code == 2

    def test_eps_tol_recorded(self, dataset, tmp_path, capsys):
        out = tmp_path / "fit"
        code, _, _ = run(
            capsys, "learn", "--data", str(dataset / "samples.csv"),
            "--method", "qp", "--eps-tol", "0.5", "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "learn_result.json").read_text())
        assert payload["eps_tol"] == 0.5

    def test_default_eps_tol_recorded(self, dataset, tmp_path, capsys):
        # the value the fit used, not the absence of a flag
        out = tmp_path / "fit"
        code, _, _ = run(
            capsys, "learn", "--data", str(dataset / "samples.csv"),
            "--method", "qp", "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "learn_result.json").read_text())["eps_tol"] == EPS_TOL


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
        monkeypatch.setattr(cli, "cmd_experiment", lambda args: seen.append(args) or 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 4, "input": "gaussian", "test_size": 50, "d": 3}))
        for argv in ((), ("--jobs", "2"), None):
            config = () if argv is None else ("--config", str(cfg), *argv)
            code, _, _ = run(capsys, "experiment", "heatmap", *config)
            assert code == 0
        got = [(a.jobs, a.input, a.test_size, a.d) for a in seen]
        assert got == [
            (4, "gaussian", 50, 3),      # the config file sets every key
            (2, "gaussian", 50, 3),      # an explicit flag still wins
            (1, "mixture", 1000, None),  # no config: the parser's defaults
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
            main(["experiment", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for shown in ("(default 1;", "(default 1000)", f"(default {EPS_TOL})",
                      "(default mixture)", "(default .)", "(default 0.0)"):
            assert shown in text

    def test_config_sets_a_store_true_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 2, "n": 40, "non_scale": True}))
        out = tmp_path / "gen"
        code, _, _ = run(capsys, "generate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert json.loads((out / "generate_config.json").read_text())["non_scale"] is True

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

    def test_eps_tol_reaches_run_trial_and_keys_cells(self, tmp_path, capsys, monkeypatch):
        seen = []
        real_run_trial = evaluation.run_trial

        def recording_run_trial(*args, **kwargs):
            seen.append(kwargs.get("eps_tol"))
            return real_run_trial(*args, **kwargs)

        monkeypatch.setattr(evaluation, "run_trial", recording_run_trial)
        out = tmp_path / "exp"
        argv = (
            "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
            "--methods", "lp", "--trials", "1", "--out", str(out),
        )
        code, _, _ = run(capsys, *argv, "--eps-tol", "0.5")
        assert code == 0
        assert seen == [0.5]
        [cell] = json.loads((out / "heatmap.json").read_text())["cells"].values()
        assert cell["config"]["eps_tol"] == 0.5

        # a resumed run with another value recomputes its cells
        code, stdout, _ = run(capsys, *argv, "--eps-tol", "0.25")
        assert code == 0
        assert "done" in stdout
        assert seen == [0.5, 0.25]

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

    def test_noise_robustness_rows_equal_run_trial_on_fixed_teacher(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code, _, _ = run(
            capsys, "experiment", "noise_robustness", "--d", "2", "--n", "64",
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
            "fixed_teacher": False, "eps_tol": EPS_TOL,
        }

    @pytest.mark.parametrize("argv", [
        ["vanilla_lr_rates", "--trials", "0"],
        ["heatmap", "--trials", "0"],
        ["weight_robustness", "--d", "0"],
        ["noise_robustness", "--n", "0"],
    ])
    def test_explicit_zero_is_kept_and_rejected(self, tmp_path, capsys, argv):
        # a zero is a value, not a missing flag: it must not fall back to the
        # study's default (200 vanilla-LR trials, d = 8, ...)
        out = tmp_path / "exp"
        code, stdout, err = run(capsys, "experiment", *argv, "--out", str(out))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ValueError"
        assert argv[1].lstrip("-") in payload["message"]
        assert stdout == ""
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
