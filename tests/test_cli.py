import json

import numpy as np
import pytest

from reslearn.cli import main
from reslearn.model import load_samples_csv, load_unit_json


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
        import reslearn.cli as cli

        seen = []
        real_run_trial = cli.run_trial

        def recording_run_trial(*args, **kwargs):
            seen.append(kwargs.get("cfg"))
            return real_run_trial(*args, **kwargs)

        monkeypatch.setattr(cli, "run_trial", recording_run_trial)
        out = tmp_path / "exp"
        argv = (
            "experiment", "heatmap", "--dims", "2", "--sample-sizes", "64",
            "--methods", "lp", "--trials", "1", "--out", str(out),
        )
        code, _, _ = run(capsys, *argv, "--eps-tol", "0.5")
        assert code == 0
        assert [cfg.rescale.eps_tol for cfg in seen] == [0.5]
        [cell] = json.loads((out / "heatmap.json").read_text())["cells"].values()
        assert cell["config"]["eps_tol"] == 0.5

        # a resumed run with another value recomputes its cells
        code, stdout, _ = run(capsys, *argv, "--eps-tol", "0.25")
        assert code == 0
        assert "done" in stdout
        assert [cfg.rescale.eps_tol for cfg in seen] == [0.5, 0.25]

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

    def test_unknown_experiment_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "warp_drive"])
