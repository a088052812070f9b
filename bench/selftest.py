"""Tests of the benchmark's own arithmetic, checks and module patching.

Run from the repository root with ``python3 -m pytest bench/selftest.py``.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import run as bench
from spans import Span, Tracer, patched, self_times

bench.load_program()

import reslearn.evaluation  # noqa: E402  (import path set up by load_program)
import reslearn.layer1  # noqa: E402
import reslearn.layer2  # noqa: E402


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, trial=0, leg="x")


def test_self_time_subtracts_children():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0), span("b", 4.0, 8.0, 0),
             span("a.inner", 1.5, 2.0, 1)]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 4.0, 0.5])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [span("root", 0.0, 10.0), span("a", 2.0, 6.0, 0), span("b", 5.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_floored_mean():
    assert bench.floored_mean([1e-15, 3e-9]) == pytest.approx(2e-9)
    assert bench.floored_mean([0.5, 0.25]) == pytest.approx(0.375)
    assert math.isnan(bench.floored_mean([]))


def traced_attributes():
    modules = {"evaluation": reslearn.evaluation, "layer1": reslearn.layer1,
               "layer2": reslearn.layer2}
    return {(m, a): getattr(modules[m], a) for m, a, _, _ in bench.TRACE_POINTS}


TINY = bench.Workload(2, 64, (("qp", 0.0), ("lp", 0.0), ("sgd", 0.0)), 1)


def test_traced_run_restores_module_attributes(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
    before = traced_attributes()
    tracer = Tracer()
    legs = bench.run_legs("tiny", 3, 0, tracer)
    after = traced_attributes()
    assert all(after[key] is before[key] for key in before)
    assert all(leg["status"] == "ok" for leg in legs.values())
    names = {s.name for s in tracer.spans}
    assert {"evaluation.trial", "layer2.ls", "layer1.lp", "baselines.sgd"} <= names
    # the untraced copy of the same trial gives bit-identical figures
    plain = bench.run_legs("tiny", 3, 0)
    assert {k: v["figures"] for k, v in plain.items()} == {k: v["figures"] for k, v in legs.items()}


def test_patch_restores_when_body_raises():
    before = traced_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(bench.replacements(tracer)):
            assert reslearn.evaluation.run_trial is not before[("evaluation", "run_trial")]
            raise RuntimeError
    after = traced_attributes()
    assert all(after[key] is before[key] for key in before)


def test_layer_metrics_show_untouched_engines_as_zero(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "tiny-qp", bench.Workload(2, 64, (("qp", 0.0),), 1))
    tracer = Tracer()
    bench.run_legs("tiny-qp", 5, 0, tracer)
    metrics = bench.layer_metrics(tracer.spans, 1)
    assert metrics["layer2.lp_calls"] == 0 and metrics["layer1.lp_calls"] == 0
    assert metrics["layer2.newton_iters"] > 0 and metrics["baselines.sgd_steps"] == 0
    assert metrics["layer2.learn_s"] >= metrics["layer2.self_s"] > 0


def test_output_check_rejects_bad_estimates():
    score = bench.checked_scoring(lambda *a, **k: None)
    unit = SimpleNamespace(a=np.eye(2), b=np.eye(2))
    with pytest.raises(bench.OutputCheckError):
        score(np.eye(3), np.eye(2), unit, None)
    with pytest.raises(bench.OutputCheckError):
        score(np.eye(2), np.full((2, 2), np.nan), unit, None)


def test_ledger_flags_a_changed_record(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = bench.Ledger(path)
    assert ledger.add(0, {"qp@0": {"status": "ok", "figures": ["0x1p-1"]}}) == []
    ledger.save()
    again = bench.Ledger(path)
    assert again.add(0, {"qp@0": {"status": "ok", "figures": ["0x1p-1"], "counts": []}}) == []
    assert again.add(0, {"qp@0": {"status": "ok", "figures": ["0x1p-2"]}})
    assert again.add(0, {"qp@0": {"counts": [["layer2.ls", {"newton_iters": 3}]]}})


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert bench.UNITS[metric["name"]] == metric["unit"]
