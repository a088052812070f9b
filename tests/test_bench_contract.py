"""The benchmark in ``bench/`` runs against this package's public names.

``bench/run.py`` calls ``evaluation.run_trial`` positionally and, when
tracing, wraps module attributes and reads their arguments by name:
``solve_lp(problem)``, ``solve_separable_ls``, ``learn_layer2``,
``learn_layer1`` (its ``unscaled_rows``), ``estimate_row_scale``,
``rescale_layer2`` and ``sgd_train(samples, cfg)``. One traced trial per
workload, with no timed loop, exercises every one of them and the
benchmark's own checks; a renamed function or parameter makes the run
fail or report ``"correct": false``.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lp-clean", "slack-sweep", "qp-sgd")


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
