"""Alternated parent/change pairs of the benchmark, with a verdict per metric.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10]

Each side is copied once into a temporary directory, and every run starts
with no ``bench/out`` there, so no run loads the ledger an earlier run at the
same seed left behind. For every workload PARENT's ``BENCHMARK.json``
lists, pair i runs the command it declares with ``--workload W --seed S_i
--seconds T --trace 0`` on both sides, with S_i = FIRST_SEED + i and T its
``run_seconds``; the side that runs first alternates from pair to pair.

For every end-to-end metric in ``BENCHMARK.json`` the last JSON line of
each run gives one value. The report shows the parent's median and
quartiles, the change's median and the pairs the change won (ties count for
neither side), and two verdicts:

* gain: the change wins at least nine tenths of the pairs, and the medians
  differ, in the better direction, by more than the distance between the
  parent's quartiles;
* worse: "yes" when the change's median is worse than the parent's by more
  than the metric's bound, a share of the parent's median. Otherwise
  "unresolved" when the parent's spread (its quartile distance over its
  median) is wider than the bound, unless every change run beats every
  parent run; else "no".

A run that exits nonzero or reports ``"correct": false`` is listed, its
pair is left out of the figures, and the command then exits 1. Standard library only; nothing in either checkout is
written.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

FIRST_SEED = 4242
SKIPPED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare the paired values of one metric; parent[i] and change[i] come
    from pair i. ``better`` is "higher" or "lower", ``bound`` the relative
    worsening the metric allows."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of values on both sides")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    worse = sign * (c_med - p_med) < -bound * abs(p_med)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "parent_median": p_med,
        "parent_quartiles": (q1, q3),
        "change_median": c_med,
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1,
        "worse": worse,
        "unresolved": not worse and q3 - q1 > bound * abs(p_med) and not beats_all,
    }


def last_json(stdout: str) -> dict | None:
    """The result object a run prints as its last line, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def copy_checkout(source: Path, target: Path) -> Path:
    shutil.copytree(source, target, ignore=shutil.ignore_patterns(*SKIPPED))
    return target


def run_once(command: list[str], root: Path, workload: str, seed: int, seconds: float):
    """One benchmark run in ``root``; returns (result or None, problem or None)."""
    shutil.rmtree(root / "bench" / "out", ignore_errors=True)
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(args, cwd=root, capture_output=True, text=True)
    result = last_json(proc.stdout)
    problem = None
    if proc.returncode != 0:
        problem = f"exit {proc.returncode}"
    elif result is None or result.get("correct") is not True:
        problem = "reports correct: false" if result else "printed no result"
    if problem:
        detail = [line for line in proc.stdout.splitlines() if line.startswith("CHECK FAILED")]
        detail += proc.stderr.strip().splitlines()[-1:]
        problem += f": {detail[0]}" if detail else ""
    return result, problem


def fmt(value: float) -> str:
    return f"{value:.4g}"


def report(workload: str, metrics: list[dict], values: dict) -> list[str]:
    lines = [workload]
    for metric in metrics:
        name = metric["name"]
        pairs = [(p, c) for p, c in values[name] if p is not None and c is not None]
        if not pairs:
            lines.append(f"  {name:14s} no complete pair")
            continue
        v = verdict([p for p, _ in pairs], [c for _, c in pairs],
                    metric["better"], metric["bound"])
        q1, q3 = v["parent_quartiles"]
        lines.append(
            f"  {name:14s} parent {fmt(v['parent_median'])} [{fmt(q1)}, {fmt(q3)}]"
            f"  change {fmt(v['change_median'])}  wins {v['wins']}/{v['pairs']}"
            f"  gain {'yes' if v['gain'] else 'no'}"
            f"  worse {'yes' if v['worse'] else 'unresolved' if v['unresolved'] else 'no'}"
            f"  ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:g})"
        )
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    problems = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {
            "parent": copy_checkout(args.parent, Path(tmp) / "parent"),
            "change": copy_checkout(args.change, Path(tmp) / "change"),
        }
        for workload in (w["name"] for w in spec["workloads"]):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {}
                for side in order:
                    result, problem = run_once(spec["command"], roots[side], workload, seed,
                                               spec["run_seconds"])
                    if problem:
                        problems.append(f"{workload} seed {seed} {side}: {problem}")
                    got[side] = {} if problem else result.get("metrics", {})
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          + (problem or "ok"), file=sys.stderr, flush=True)
                for m in metrics:
                    values[m["name"]].append(tuple(
                        got[side].get(m["name"], {}).get("value") for side in ("parent", "change")))
            print("\n".join(report(workload, metrics, values)), flush=True)
    for problem in problems:
        print(f"RUN FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
