import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


class TestVerdict:
    def test_clear_gain_in_throughput(self):
        v = verdict(PARENT, [p * 1.1 for p in PARENT], "higher", 0.24)
        assert (v["wins"], v["pairs"], v["gain"], v["worse"]) == (10, 10, True, False)
        assert v["parent_median"] == 100.0 and v["change_median"] == pytest.approx(110.0)
        assert v["parent_quartiles"] == (98.75, 101.25)

    def test_eight_wins_of_ten_is_no_gain(self):
        change = [p + 5.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
        v = verdict(PARENT, change, "higher", 0.24)
        assert (v["wins"], v["gain"], v["worse"]) == (8, False, False)

    def test_wins_within_the_parents_spread_are_no_gain(self):
        # every pair won, but the medians differ by 1, less than the
        # parent's interquartile range of 2.5
        v = verdict(PARENT, [p + 1.0 for p in PARENT], "higher", 0.24)
        assert (v["wins"], v["gain"]) == (10, False)

    def test_ties_count_for_neither_side(self):
        change = list(PARENT)
        change[0] += 1.0
        v = verdict(PARENT, change, "higher", 0.24)
        assert v["wins"] == 1
        assert verdict(PARENT, change, "lower", 0.24)["wins"] == 0

    @pytest.mark.parametrize("factor,worse", [(0.75, True), (0.77, False), (1.3, False)])
    def test_worse_past_the_bound_when_higher_is_better(self, factor, worse):
        v = verdict(PARENT, [p * factor for p in PARENT], "higher", 0.24)
        assert v["worse"] is worse

    @pytest.mark.parametrize("change,worse,gain", [(53.0, True, False), (52.0, False, False),
                                                   (45.0, False, True)])
    def test_lower_is_better(self, change, worse, gain):
        parent = [50.0, 50.2, 49.8, 50.1, 49.9, 50.0, 50.0, 50.1, 49.9, 50.0]
        v = verdict(parent, [change] * 10, "lower", 0.05)
        assert (v["worse"], v["gain"]) == (worse, gain)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # quartiles 85 and 115 around a median of 100: a spread of 0.3,
        # wider than the bound of 0.24
        parent = [70.0, 80.0, 90.0, 100.0, 100.0, 100.0, 110.0, 120.0, 130.0]
        v = verdict(parent, [95.0] * 9, "higher", 0.24)
        assert (v["worse"], v["unresolved"]) == (False, True)
        v = verdict(parent, [70.0] * 9, "higher", 0.24)  # the median is past the bound
        assert (v["worse"], v["unresolved"]) == (True, False)
        v = verdict(parent, [131.0] * 9, "higher", 0.24)  # every change run beats every parent run
        assert (v["worse"], v["unresolved"]) == (False, False)
        v = verdict(parent, [69.0] * 9, "lower", 0.24)
        assert (v["worse"], v["unresolved"]) == (False, False)
        v = verdict(parent, [70.0] * 9, "lower", 0.24)  # ties with the best parent run
        assert (v["worse"], v["unresolved"]) == (False, True)

    def test_one_pair_is_its_own_quartiles(self):
        v = verdict([2.0], [1.0], "lower", 0.25)
        assert v["parent_quartiles"] == (2.0, 2.0)
        assert (v["wins"], v["gain"], v["worse"]) == (1, True, False)

    @pytest.mark.parametrize("parent,change", [([], []), ([1.0, 2.0], [1.0])])
    def test_unpaired_values_are_rejected(self, parent, change):
        with pytest.raises(ValueError):
            verdict(parent, change, "higher", 0.24)


class TestLastJson:
    def test_reads_the_last_line(self):
        out = 'provenance: {"a": 1}\n  trials_per_s 3.0\n{"correct": true, "metrics": {}}\n'
        assert bench_pairs.last_json(out) == {"correct": True, "metrics": {}}

    @pytest.mark.parametrize("out", ["", "no result here\n", "[1, 2]\n"])
    def test_no_result_object_is_none(self, out):
        assert bench_pairs.last_json(out) is None


STUB = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--seconds"] == "1", "run length is BENCHMARK.json's run_seconds"
rate = {RATE} + int(args["--seed"])
correct = not ({FAIL} and args["--seed"] == "4243")
if not correct:
    print("CHECK FAILED: trial 3 leg lp@0: SolverFailedError")
print(json.dumps({{"correct": correct, "attempted": 1, "failed": int(not correct), "metrics": {{
    "setup_s": {{"value": 0.2, "unit": "s"}},
    "trials_per_s": {{"value": rate, "unit": "1/s"}},
    "peak_rss_mb": {{"value": 40.0, "unit": "MB"}}}}}}))
sys.exit(0 if correct else 1)
'''


def stub_checkout(root, rate, fail):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB.format(RATE=rate, FAIL=fail))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench/run.py"],
        "run_seconds": 1,
        "workloads": [{"name": "lp-clean"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        ],
    }))
    return root


class TestMain:
    # two stub checkouts whose bench prints a fixed result line per seed

    def test_reports_each_metric_and_exits_0(self, tmp_path, capsys):
        parent = stub_checkout(tmp_path / "parent", 100, False)
        change = stub_checkout(tmp_path / "change", 200, False)
        assert bench_pairs.main([str(parent), str(change), "--pairs", "2"]) == 0
        out = capsys.readouterr().out
        assert ("trials_per_s   parent 4342 [4342, 4343]  change 4442  wins 2/2  gain yes  "
                "worse no") in out
        assert "peak_rss_mb    parent 40 [40, 40]  change 40  wins 0/2" in out
        assert not (parent / "bench" / "out").exists()

    def test_a_failed_run_is_listed_and_exits_1(self, tmp_path, capsys):
        parent = stub_checkout(tmp_path / "parent", 100, False)
        change = stub_checkout(tmp_path / "change", 100, True)
        assert bench_pairs.main([str(parent), str(change), "--pairs", "2"]) == 1
        out = capsys.readouterr().out
        assert ("RUN FAILED: lp-clean seed 4243 change: exit 1: "
                "CHECK FAILED: trial 3 leg lp@0: SolverFailedError") in out
        # the failed seed's figures are left out: only the pair at seed 4242 counts
        assert "trials_per_s   parent 4342 [4342, 4342]  change 4342  wins 0/1" in out
