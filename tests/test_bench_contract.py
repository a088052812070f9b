"""The benchmark in ``bench/`` runs against this package's public names.

``bench/run.py`` calls ``evaluation.run_trial`` positionally and, when
tracing, wraps module attributes and reads their arguments by name:
``solve_lp(problem)``, ``solve_separable_ls``, ``learn_layer2``,
``learn_layer1`` (its ``unscaled_rows``), ``estimate_row_scale``,
``rescale_layer2`` and ``sgd_train(samples, cfg)``. One traced trial per
workload, with no timed loop, exercises every one of them and the
benchmark's own checks; a renamed function or parameter makes the run
fail or report ``"correct": false``.

The per-layer counts on the run's last line guard the trace points
themselves: each layer module must call ``solve_lp`` and
``solve_separable_ls``, and its scale stage (``rescale_layer2``,
``estimate_row_scale``), through its own module attributes, or the wrapped
names see no calls and the counts and times read zero. Layer 2 hands the
engine only the rows its shared start leaves open, none on lp-clean, one
call per open row, so slack-sweep's noisy rows are what guard layer 2's
``solve_lp``. Likewise ``run_trial`` must reach ``sample`` and
``relative_errors`` as ``evaluation`` attributes: the untraced run checks
the figures by swapping ``relative_errors``.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import reslearn.evaluation as evaluation
from reslearn.model import NetworkGenSpec, generate_unit

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lp-clean", "slack-sweep", "qp-sgd")

# Per-trial counts each workload must report. d = 4 gives one LP per row
# and layer; slack-sweep runs a clean and a noisy leg. On clean d = 4
# samples the negative orthant holds d independent inputs, where every
# layer-2 row is tight at the teacher, so layer 2's shared start closes
# every row and no layer-2 engine run is left. Each noisy layer-2 row is
# infeasible: its one slack-LP call runs the dual method and then the
# descent, 4 calls per trial, which still reach the traced ``layer2.solve_lp``.
# Those proofs send layer 1 of the noisy leg to split-LS, so only the clean
# leg's 4 layer-1 rows reach its ``solve_lp``.
# Every workload also runs both scale stages, each through its own module
# attribute, so their times must not read zero.
SCALE_STAGES = {"layer2.rescale_s": lambda v: v > 0, "layer1.row_scale_s": lambda v: v > 0}
EXPECTED_COUNTS = {
    "lp-clean": {"layer2.lp_calls": lambda v: v == 0, "layer1.lp_calls": lambda v: v == 4,
                 "layer2.lp_pivots": lambda v: v == 0, **SCALE_STAGES},
    "slack-sweep": {"layer1.lp_calls": lambda v: v == 4, "layer2.lp_calls": lambda v: v == 4,
                    **SCALE_STAGES},
    "qp-sgd": {
        "layer2.newton_iters": lambda v: v > 0,
        "layer1.newton_iters": lambda v: v > 0,
        "baselines.sgd_steps": lambda v: v > 0,
        **SCALE_STAGES,
    },
}


def run_bench(workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", "1"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def bench_runs():
    # two at a time: each run is one process, mostly waiting on its own
    # interpreter start-ups
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(WORKLOADS, pool.map(run_bench, WORKLOADS)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_trial_is_correct(bench_runs, workload):
    out = bench_runs[workload]
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_trial_reaches_every_layer_solver(bench_runs, workload):
    metrics = json.loads(bench_runs[workload].stdout.strip().splitlines()[-1])["metrics"]
    for name, expected in EXPECTED_COUNTS[workload].items():
        assert expected(metrics[name]["value"]), (name, metrics[name]["value"])


def test_run_trial_samples_and_scores_through_module_attributes(monkeypatch):
    calls = {"sample": 0, "relative_errors": 0}
    for name in calls:
        real = getattr(evaluation, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    unit = generate_unit(NetworkGenSpec(d=2, m=2, seed=1))
    evaluation.run_trial(unit, 64, 0.0, "lp", 5)
    assert calls == {"sample": 2, "relative_errors": 1}
