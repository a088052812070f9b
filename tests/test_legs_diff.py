import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "legs_diff.py"
spec = importlib.util.spec_from_file_location("legs_diff", TOOL)
legs_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(legs_diff)

STUB = '''
def load_program():
    pass


def run_legs(name, seed, trial):
    assert seed == 4242, "every tree runs the same seed"
    moved = trial == {MOVED_TRIAL} and name == "slack-sweep"
    return {{
        "lp@0": {{"status": "ok", "figures": [float.hex(trial + 0.5)]}},
        "slack-lp@0.1": {{"status": "SolverFailedError" if moved else "ok",
                          "figures": [] if moved else [float.hex(trial + 0.25)]}},
    }}
'''


def stub_checkout(root, moved_trial=-1):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB.format(MOVED_TRIAL=moved_trial))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "lp-clean"}, {"name": "slack-sweep"}]}))
    return root


def tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestMain:
    # two stub checkouts whose bench returns fixed records per trial

    def test_identical_records_exit_0_and_write_nothing(self, tmp_path, capsys):
        parent = stub_checkout(tmp_path / "parent")
        change = stub_checkout(tmp_path / "change")
        before = tree(tmp_path)
        assert legs_diff.main([str(parent), str(change), "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["lp-clean: identical over 4 trials",
                                    "slack-sweep: identical over 4 trials"]
        assert tree(tmp_path) == before

    def test_the_first_differing_leg_is_named_and_exits_1(self, tmp_path, capsys):
        parent = stub_checkout(tmp_path / "parent")
        change = stub_checkout(tmp_path / "change", moved_trial=2)
        assert legs_diff.main([str(parent), str(change), "--trials", "4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lp-clean: identical over 4 trials"
        assert lines[1] == (
            "slack-sweep: trial 2 leg slack-lp@0.1: "
            "parent {'figures': ['0x1.2000000000000p+1'], 'status': 'ok'}, "
            "change {'figures': [], 'status': 'SolverFailedError'}")

    def test_a_failed_run_is_listed_and_exits_1(self, tmp_path, capsys):
        parent = stub_checkout(tmp_path / "parent")
        change = stub_checkout(tmp_path / "change")
        (change / "bench" / "run.py").write_text("raise SystemExit('no program here')\n")
        assert legs_diff.main([str(parent), str(change), "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert "lp-clean: RUN FAILED" in out and "no program here" in out
