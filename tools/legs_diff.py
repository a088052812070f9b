"""Compare two checkouts' benchmark leg records, trial by trial.

Run from anywhere, with two checkouts of the repository:

    python3 tools/legs_diff.py PARENT CHANGE [--trials 300]

For every workload PARENT's ``BENCHMARK.json`` lists, each checkout runs its
own ``bench/run.py`` ``run_legs(workload, 4242, t)`` for t < TRIALS, untraced,
in a Python subprocess started in that checkout. The status and the figures
(as float hex) of every (trial, leg) must agree. The tool prints
"identical" for a workload whose records all agree, else the first
differing (trial, leg) with both records, and exits 1 on any difference or
on a run that fails. Standard library only; the subprocesses write no
bytecode, so nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEED = 4242
# prints one JSON line of {leg: record} per trial
RUNNER = """
import json, sys
sys.path.insert(0, "bench")
import run
run.load_program()
name, seed, trials = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for trial in range(trials):
    print(json.dumps(run.run_legs(name, seed, trial), sort_keys=True), flush=True)
"""


def leg_records(root: Path, workload: str, trials: int) -> list[dict]:
    """One {leg: record} per trial of ``workload`` from ``root``'s bench."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", RUNNER, workload, str(SEED), str(trials)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} exited {proc.returncode}: "
                           + "\n".join(proc.stderr.strip().splitlines()[-3:]))
    return [json.loads(line) for line in proc.stdout.splitlines()]


def first_difference(parent: list[dict], change: list[dict]) -> str | None:
    """The first (trial, leg) whose status or figures differ, or None."""
    for trial, (old, new) in enumerate(zip(parent, change)):
        for leg in sorted(old.keys() | new.keys()):
            if old.get(leg) != new.get(leg):
                return f"trial {trial} leg {leg}: parent {old.get(leg)}, change {new.get(leg)}"
    if len(parent) != len(change):
        return f"parent ran {len(parent)} trials, change {len(change)}"
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--trials", type=int, default=300)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    differs = False
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            parent = leg_records(args.parent, workload, args.trials)
            change = leg_records(args.change, workload, args.trials)
        except RuntimeError as exc:
            print(f"{workload}: RUN FAILED: {exc}", flush=True)
            differs = True
            continue
        difference = first_difference(parent, change)
        differs |= difference is not None
        print(f"{workload}: {difference or f'identical over {args.trials} trials'}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
