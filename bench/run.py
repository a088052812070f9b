"""Benchmark of reslearn experiment trials, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload lp-clean --seed 1 --seconds 30 --trace 0

A trial draws one teacher from (seed, trial index) and runs each of the
workload's legs (method, noise sigma) through ``evaluation.run_trial`` on
the same training inputs; trials run back to back in one process (a
closed loop with one client). ``--trace 0`` times the untouched program
and reports the end-to-end metrics. ``--trace 1`` runs every trial twice,
once with span-recording wrappers around the layer functions and once
without, and reports the per-layer metrics plus the tracing overhead.
Metric names, units and the workload each should move are listed in
``bench/METRICS.md``; ``BENCHMARK.json`` names the metrics the last
output line carries.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when a check failed (the result is still
printed), and 2 when the program could not be set up (nothing printed).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, patched, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Relative errors below this read as exact recovery, so roundoff-level
# changes in an exact solve do not register as a change in accuracy.
ERROR_FLOOR = 1e-9
IMPORT_PROBES = 5
P90_MIN_TRIALS = 100
CONVEX_METHODS = ("qp", "lp", "slack-lp")


@dataclass(frozen=True)
class Workload:
    d: int
    n: int
    legs: tuple[tuple[str, float], ...]
    # Accuracy is averaged over exactly this many leading trials, which
    # every run completes, so it repeats bit for bit at a fixed seed.
    accuracy_trials: int


WORKLOADS = {
    # LP feasibility path only: simplex pivots in layer 2, basis set-up in layer 1.
    "lp-clean": Workload(4, 400, (("lp", 0.0),), 8),
    # Same simplex, used differently: at sigma=0.1 every layer-2 row is
    # infeasible (phase 1, Farkas check, slack LP) and layer 1 falls back
    # to split-LS through the soft gate.
    "slack-sweep": Workload(4, 400, (("slack-lp", 0.0), ("slack-lp", 0.1)), 3),
    # Split-LS (semismooth Newton) and the SGD reference; no simplex calls.
    "qp-sgd": Workload(16, 512, (("qp", 0.0), ("sgd", 0.0)), 40),
}

UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_p90": "s",
    "output_rel_mean": "ratio",
    "layer1_rel_mean": "ratio",
    "layer2_rel_mean": "ratio",
    "failed_share": "ratio",
    "peak_rss_mb": "MB",
    "model.sample_s": "s",
    "layer2.learn_s": "s",
    "layer2.self_s": "s",
    "layer2.solve_s": "s",
    "layer2.lp_s": "s",
    "layer2.lp_calls": "count",
    "layer2.lp_pivots": "count",
    "layer2.lp_infeasible_share": "ratio",
    "layer2.ls_s": "s",
    "layer2.newton_iters": "count",
    "layer2.rescale_s": "s",
    "layer2.recover_b_s": "s",
    "layer2.scale_rows": "count",
    "layer1.learn_s": "s",
    "layer1.self_s": "s",
    "layer1.solve_s": "s",
    "layer1.lp_s": "s",
    "layer1.lp_calls": "count",
    "layer1.lp_pivots": "count",
    "layer1.ls_s": "s",
    "layer1.newton_iters": "count",
    "layer1.soft_gate_share": "ratio",
    "layer1.row_scale_s": "s",
    "layer1.unscaled_rows": "count",
    "solver.call_s_p50": "s",
    "solver.call_s_p90": "s",
    "solver.lp_call_s_p50": "s",
    "solver.lp_call_s_p90": "s",
    "solver.lp_pivots_p90": "count",
    "solver.lp_tableau_mb": "MB",
    "solver.ls_call_s_p50": "s",
    "baselines.sgd_s": "s",
    "baselines.sgd_steps": "count",
    "baselines.sgd_us_per_step": "us",
    "evaluation.score_s": "s",
    "evaluation.trial_self_s": "s",
    "tracing.trials_per_s_traced": "1/s",
    "tracing.trials_per_s_untraced": "1/s",
    "tracing.overhead_share": "ratio",
}


class OutputCheckError(Exception):
    """A leg's estimate has the wrong shape or non-finite entries."""


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from labels, independent of the program's own helpers."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def floored_mean(values) -> float:
    """Mean with each value raised to ERROR_FLOOR first."""
    values = list(values)
    return sum(max(v, ERROR_FLOOR) for v in values) / len(values) if values else float("nan")


# --- the program under test ------------------------------------------------

def load_program():
    """Import reslearn from this checkout's ``src`` and nowhere else."""
    if not (SRC / "reslearn" / "__init__.py").is_file():
        print(f"error: no reslearn package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import reslearn

    if SRC.resolve() not in Path(reslearn.__file__).resolve().parents:
        print(f"error: reslearn imported from {reslearn.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def checked_scoring(relative_errors):
    """Wrap ``relative_errors`` to reject misshapen or non-finite estimates."""

    def score(est_a, est_b, unit, test, method=""):
        for label, est, want in (("A", est_a, unit.a.shape), ("B", est_b, unit.b.shape)):
            est = np.asarray(est)
            if est.shape != want:
                raise OutputCheckError(f"{label} estimate has shape {est.shape}, want {want}")
            if not np.all(np.isfinite(est)):
                raise OutputCheckError(f"{label} estimate has non-finite entries")
        return relative_errors(est_a, est_b, unit, test, method=method)

    return score


def _lp_counts(args, report):
    problem = args["problem"]
    tableau = problem.n_rows * (problem.n_vars + problem.n_rows + 1) * 8 / 1e6
    return {"pivots": report.iterations, "status": report.status.value, "tableau_mb": tableau}


def _ls_counts(args, result):
    return {"newton_iters": result[2]["iterations"]}


def _sgd_counts(args, result):
    from reslearn.baselines import SgdConfig

    cfg = args["cfg"] or SgdConfig()
    batches = math.ceil(args["samples"].n / cfg.batch_size)
    return {"steps": len(result.loss_trace) * batches}


def _rescale_counts(args, k_hat):
    return {"scale_rows": sum(1 for k in k_hat if k != 1.0)}


def _layer1_counts(args, estimate):
    return {"unscaled_rows": len(estimate.unscaled_rows)}


# (module, attribute, span name, count extractor); run_trial is the root span.
TRACE_POINTS = (
    ("evaluation", "run_trial", "evaluation.trial", None),
    ("evaluation", "sample", "model.sample", None),
    ("evaluation", "learn_layer2", "layer2.learn", None),
    ("evaluation", "learn_layer1", "layer1.learn", _layer1_counts),
    ("evaluation", "sgd_train", "baselines.sgd", _sgd_counts),
    ("evaluation", "relative_errors", "evaluation.score", None),
    ("layer2", "solve_lp", "layer2.lp", _lp_counts),
    ("layer2", "solve_separable_ls", "layer2.ls", _ls_counts),
    ("layer2", "rescale_layer2", "layer2.rescale", _rescale_counts),
    ("layer2", "recover_b_general", "layer2.recover_b", None),
    ("layer1", "solve_lp", "layer1.lp", _lp_counts),
    ("layer1", "solve_separable_ls", "layer1.ls", _ls_counts),
    ("layer1", "estimate_row_scale", "layer1.row_scale", None),
)


def replacements(tracer: Tracer | None):
    """Module attributes to swap in: the output check always, spans if traced."""
    import reslearn.evaluation as evaluation

    score = checked_scoring(evaluation.relative_errors)
    if tracer is None:
        return [(evaluation, "relative_errors", score)]
    out = []
    for module_name, attr, name, count in TRACE_POINTS:
        module = sys.modules[f"reslearn.{module_name}"]
        fn = score if (module, attr) == (evaluation, "relative_errors") else getattr(module, attr)
        out.append((module, attr, tracer.wrap(name, fn, count)))
    return out


# --- trials ------------------------------------------------------------------

def run_legs(name: str, seed: int, trial: int, tracer: Tracer | None = None) -> dict:
    """Run every leg of one trial; returns {leg: record} for the ledger."""
    import reslearn.evaluation as evaluation
    from reslearn.errors import ReslearnError
    from reslearn.model import NetworkGenSpec, generate_unit

    workload = WORKLOADS[name]
    unit = generate_unit(NetworkGenSpec(
        d=workload.d, m=workload.d, seed=derive_seed(seed, name, "teacher", trial)))
    train_seed = derive_seed(seed, name, "train", trial)
    first_span = len(tracer.spans) if tracer else 0
    records = {}
    with patched(replacements(tracer)):
        for method, sigma in workload.legs:
            leg = f"{method}@{sigma:g}"
            if tracer:
                tracer.trial, tracer.leg = trial, leg
            try:
                report = evaluation.run_trial(unit, workload.n, sigma, method, train_seed)
                figures = [report.layer1_rel, report.layer2_rel, report.output_rel]
                status = "ok" if all(map(math.isfinite, figures)) else "NonFiniteFigures"
            except (ReslearnError, OutputCheckError) as exc:
                figures, status = [], type(exc).__name__
            records[leg] = {"status": status, "figures": [float.hex(v) for v in figures]}
    if tracer:
        for leg in records:
            records[leg]["counts"] = [
                [s.name, s.counts] for s in tracer.spans[first_span:] if s.leg == leg and s.counts
            ]
    return records


class Ledger:
    """Leg records by (trial, leg) for one workload, seed and source tree.

    Kept on disk so that a later run at the same seed on the same code is
    checked against an earlier one: figures, statuses and work counts must
    all repeat exactly.
    """

    def __init__(self, path: Path):
        self.path = path
        self.records = json.loads(path.read_text()) if path.is_file() else {}

    def add(self, trial: int, legs: dict) -> list[str]:
        problems = []
        for leg, record in legs.items():
            key = f"{trial}/{leg}"
            known = self.records.setdefault(key, {})
            for field, value in record.items():
                if field in known and known[field] != value:
                    problems.append(f"trial {key}: {field} changed between runs at this seed")
                known[field] = value
        return problems

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.records, sort_keys=True))
        os.replace(tmp, self.path)


# --- measurement -------------------------------------------------------------

def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import reslearn"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return perf_counter() - start


def timed_loop(seconds: float, min_trials: int, step) -> float:
    """Call ``step(trial)`` back to back until ``seconds`` have passed and at
    least ``min_trials`` trials ran; returns the elapsed time."""
    start = perf_counter()
    trial = 0
    while True:
        step(trial)
        trial += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and trial >= min_trials:
            return elapsed


def legs_outcome(records: list[dict]) -> tuple[int, int]:
    attempted = sum(len(r) for r in records)
    failed = sum(1 for r in records for leg in r.values() if leg["status"] != "ok")
    return attempted, failed


def end_to_end_metrics(name, setup, trial_times, elapsed, records) -> dict:
    workload = WORKLOADS[name]
    attempted, failed = legs_outcome(records)
    convex = [
        [float.fromhex(v) for v in leg["figures"]]
        for trial in records[: workload.accuracy_trials]
        for key, leg in trial.items()
        if key.split("@")[0] in CONVEX_METHODS and leg["status"] == "ok"
    ]
    metrics = {
        "setup_s": setup,
        "trials_per_s": len(trial_times) / elapsed,
        "trial_s_p50": statistics.median(trial_times),
        "layer1_rel_mean": floored_mean(f[0] for f in convex),
        "layer2_rel_mean": floored_mean(f[1] for f in convex),
        "output_rel_mean": floored_mean(f[2] for f in convex),
        "failed_share": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(trial_times) >= P90_MIN_TRIALS:
        metrics["trial_s_p90"] = percentile(trial_times, 90)
    return metrics


def layer_metrics(spans, trials: int) -> dict:
    """Per-trial means of span times and counts, and per-call distributions."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + selfs[i]
        by_name.setdefault(span.name, []).append(i)

    def per_trial(value: float) -> float:
        return value / trials

    def count_sum(name: str, key: str) -> float:
        return sum(spans[i].counts[key] for i in by_name.get(name, ()))

    lp = by_name.get("layer2.lp", []) + by_name.get("layer1.lp", [])
    ls = by_name.get("layer2.ls", []) + by_name.get("layer1.ls", [])
    layer2_lp = by_name.get("layer2.lp", [])
    infeasible = sum(1 for i in layer2_lp if spans[i].counts["status"] == "infeasible")
    slack_learns = [i for i in by_name.get("layer1.learn", ()) if spans[i].leg.startswith("slack-lp@")]
    gated = {spans[i].parent for i in by_name.get("layer1.ls", ())}
    sgd_steps = count_sum("baselines.sgd", "steps")

    metrics = {"model.sample_s": per_trial(total.get("model.sample", 0.0))}
    for layer in ("layer2", "layer1"):
        metrics[f"{layer}.learn_s"] = per_trial(total.get(f"{layer}.learn", 0.0))
        metrics[f"{layer}.self_s"] = per_trial(own.get(f"{layer}.learn", 0.0))
        metrics[f"{layer}.lp_s"] = per_trial(total.get(f"{layer}.lp", 0.0))
        metrics[f"{layer}.ls_s"] = per_trial(total.get(f"{layer}.ls", 0.0))
        metrics[f"{layer}.solve_s"] = metrics[f"{layer}.lp_s"] + metrics[f"{layer}.ls_s"]
        metrics[f"{layer}.lp_calls"] = per_trial(len(by_name.get(f"{layer}.lp", ())))
        metrics[f"{layer}.lp_pivots"] = per_trial(count_sum(f"{layer}.lp", "pivots"))
        metrics[f"{layer}.newton_iters"] = per_trial(count_sum(f"{layer}.ls", "newton_iters"))
    metrics.update({
        "layer2.lp_infeasible_share": infeasible / len(layer2_lp) if layer2_lp else 0.0,
        "layer2.rescale_s": per_trial(total.get("layer2.rescale", 0.0)),
        "layer2.recover_b_s": per_trial(total.get("layer2.recover_b", 0.0)),
        "layer2.scale_rows": per_trial(count_sum("layer2.rescale", "scale_rows")),
        "layer1.soft_gate_share": (
            sum(1 for i in slack_learns if i in gated) / len(slack_learns) if slack_learns else 0.0
        ),
        "layer1.row_scale_s": per_trial(total.get("layer1.row_scale", 0.0)),
        "layer1.unscaled_rows": per_trial(count_sum("layer1.learn", "unscaled_rows")),
        "solver.call_s_p50": percentile([spans[i].duration for i in lp + ls], 50),
        "solver.call_s_p90": percentile([spans[i].duration for i in lp + ls], 90),
        "solver.lp_call_s_p50": percentile([spans[i].duration for i in lp], 50),
        "solver.lp_call_s_p90": percentile([spans[i].duration for i in lp], 90),
        "solver.lp_pivots_p90": percentile([spans[i].counts["pivots"] for i in lp], 90),
        "solver.lp_tableau_mb": max((spans[i].counts["tableau_mb"] for i in lp), default=0.0),
        "solver.ls_call_s_p50": percentile([spans[i].duration for i in ls], 50),
        "baselines.sgd_s": per_trial(total.get("baselines.sgd", 0.0)),
        "baselines.sgd_steps": per_trial(sgd_steps),
        "baselines.sgd_us_per_step": (
            total.get("baselines.sgd", 0.0) / sgd_steps * 1e6 if sgd_steps else 0.0
        ),
        "evaluation.score_s": per_trial(total.get("evaluation.score", 0.0)),
        "evaluation.trial_self_s": per_trial(own.get("evaluation.trial", 0.0)),
    })
    return metrics


def provenance(name: str, seed: int, fingerprint: str) -> dict:
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "openblas_threads": openblas_threads(),
        "openblas": blas.get("version"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "source_sha256": fingerprint,
    }


def openblas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS will use, when it can be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources; keys the ledger."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --- command line ------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name, seed = args.workload, args.seed
    fingerprint = source_fingerprint()
    ledger = Ledger(OUT_DIR / "ledger" / f"{name}-seed{seed}-{fingerprint[:16]}.json")
    problems: list[str] = []

    # Set-up: fresh-interpreter imports (median of several), then one
    # warm-up trial in this process, which the timed loop repeats as trial 0.
    # A traced run traces it too (into a throwaway tracer), so that its work
    # counts are checked against the loop's.
    imports = statistics.median(import_seconds() for _ in range(IMPORT_PROBES))
    start = perf_counter()
    warm = run_legs(name, seed, 0, Tracer() if args.trace else None)
    setup = imports + perf_counter() - start
    problems += ledger.add(0, warm)

    records: list[dict] = []
    if args.trace == 0:
        trial_times: list[float] = []

        def step(trial):
            t0 = perf_counter()
            legs = run_legs(name, seed, trial)
            trial_times.append(perf_counter() - t0)
            records.append(legs)

        elapsed = timed_loop(args.seconds, WORKLOADS[name].accuracy_trials, step)
        metrics = end_to_end_metrics(name, setup, trial_times, elapsed, records)
        for trial, legs in enumerate(records):
            problems += ledger.add(trial, legs)
        reported = spec["end_to_end"]
    else:
        tracer = Tracer()
        seconds = {True: 0.0, False: 0.0}

        def step(trial):
            # alternate which copy runs first so neither gets the warmer caches
            for traced in ((True, False) if trial % 2 == 0 else (False, True)):
                t0 = perf_counter()
                legs = run_legs(name, seed, trial, tracer if traced else None)
                seconds[traced] += perf_counter() - t0
                records.append(legs)
                problems.extend(ledger.add(trial, legs))

        timed_loop(args.seconds, 1, step)
        trials = len(records) // 2
        metrics = layer_metrics(tracer.spans, trials)
        metrics["tracing.trials_per_s_traced"] = trials / seconds[True]
        metrics["tracing.trials_per_s_untraced"] = trials / seconds[False]
        metrics["tracing.overhead_share"] = seconds[True] / seconds[False] - 1.0
        write_json(OUT_DIR / f"{name}-seed{seed}-spans.json",
                   [vars(s) for s in tracer.spans])
        reported = spec["per_layer"]
    ledger.save()

    attempted, failed = legs_outcome(records)
    failures = [
        f"trial {t} leg {leg}: {r['status']}"
        for t, legs in enumerate(records) for leg, r in legs.items() if r["status"] != "ok"
    ]
    problems = failures + problems
    correct = not problems
    info = provenance(name, seed, fingerprint)
    write_json(OUT_DIR / f"{name}-seed{seed}-trace{args.trace}.json", {
        "provenance": info, "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    })

    print(f"provenance: {json.dumps(info, sort_keys=True)}")
    print(f"{name} seed={seed} trace={args.trace}: {len(records)} trial runs, "
          f"{attempted} legs, {failed} failed")
    for key, value in metrics.items():
        print(f"  {key:30s} {value:<24.6g} {UNITS[key]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


if __name__ == "__main__":
    sys.exit(main())
