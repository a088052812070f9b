"""Command-line interface: data generation, learning runs, and experiments.

Commands
--------
generate    draw a teacher unit and a sample set, write both to disk
learn       fit a dataset with any method, write estimates and errors
experiment  run one of the canned studies (heatmap, weight_robustness,
            noise_robustness, vanilla_lr_rates) with per-cell resume

``learn`` fits through ``evaluation.fit_method``, the same dispatch every
trial uses. The grid studies pose each pending cell as a one-cell
``evaluation.TrialGrid`` and run them all through one
``evaluation.run_grids`` call; ``--jobs N`` spreads the trials of every
pending cell over one pool of N worker processes, and the rows do not
depend on N because every trial is seeded by content.

Exit codes: 0 success, 2 bad configuration, 3 io failure, 4 solver
failure, 5 evaluation/stage failure. Failures also print a single-line
JSON object to stderr with the error class and message, so wrappers can
branch without parsing prose. Every artifact embeds the config that
produced it; experiment outputs are keyed by a hash of each cell's config
and completed cells are skipped when rerun.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from .errors import (
    DegenerateRowError,
    DimensionMismatchError,
    ReslearnError,
    SingularCHatError,
    SolverFailedError,
)
from .evaluation import (
    TrialGrid,
    TrialRow,
    aggregate_rows,
    fit_method,
    make_input_dist,
    relative_errors,
    run_grids,
    run_success_rates,
    save_rows_csv,
)
from .layer2 import EPS_TOL
from .methods import ALL_METHODS, CONVEX_METHODS
from .model import (
    NetworkGenSpec,
    derive_seed,
    generate_unit,
    load_samples_csv,
    load_unit_json,
    sample,
    save_samples_csv,
    save_unit_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_EVAL = 5


class ConfigError(Exception):
    pass


# defaults of the flags that have one, applied after the config file is read
FLAG_DEFAULTS = {"input": "mixture", "jobs": 1, "test_size": 1000, "non_scale": False}


# --- small helpers -------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _load_config_file(args: argparse.Namespace) -> None:
    """Fill unset args from a JSON config file; explicit flags win, and a
    key that is not a flag of the subcommand is a ConfigError."""
    if not getattr(args, "config", None):
        return
    try:
        stored = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(stored, dict):
        raise ConfigError("config file must hold a JSON object")
    declared = set(vars(args)) - {"func"}
    unknown = [key for key in stored if key.replace("-", "_") not in declared]
    if unknown:
        raise ConfigError(f"{args.command} takes no {', '.join(map(repr, unknown))} "
                          f"(config keys must name its flags)")
    for key, value in stored.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _apply_flag_defaults(args: argparse.Namespace) -> None:
    """Give every declared flag that neither the command line nor the config
    file set its default. The parser declares these flags with default None,
    so that a config file can still set them."""
    for attr, value in FLAG_DEFAULTS.items():
        if getattr(args, attr, value) is None:
            setattr(args, attr, value)


def _methods(args: argparse.Namespace, default: list[str]) -> list[str]:
    methods = args.methods.split(",") if args.methods else default
    for m in methods:
        if m not in ALL_METHODS:
            raise ConfigError(f"unknown method {m!r}")
    return methods


def _eps_tol(args: argparse.Namespace) -> float:
    return args.eps_tol if args.eps_tol is not None else EPS_TOL


# --- generate ------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    if args.d is None or args.n is None:
        raise ConfigError("generate requires --d and --n")
    m = args.m if args.m is not None else args.d
    seed = args.seed if args.seed is not None else 0
    sigma = args.noise_sigma or 0.0
    out = Path(args.out or ".")
    spec = NetworkGenSpec(
        d=args.d, m=m, seed=seed, require_non_scale_transform=args.non_scale
    )
    unit = generate_unit(spec)
    dist = make_input_dist(args.input, args.d)
    samples = sample(unit, dist, args.n, sigma, seed=derive_seed(seed, "samples"))
    out.mkdir(parents=True, exist_ok=True)
    save_unit_json(out / "teacher.json", unit)
    save_samples_csv(out / "samples.csv", samples)
    _write_json(
        out / "generate_config.json",
        {
            "command": "generate",
            "d": args.d,
            "m": m,
            "n": args.n,
            "seed": seed,
            "noise_sigma": sigma,
            "input": args.input,
            "non_scale": bool(args.non_scale),
        },
    )
    print(f"wrote {out / 'teacher.json'} and {out / 'samples.csv'} "
          f"(d={args.d}, m={m}, n={args.n}, sigma={sigma})")
    return EXIT_OK


# --- learn ---------------------------------------------------------------

def _artifacts(method: str, result) -> dict:
    """JSON form of one fit's result, as ``fit_method`` returned it."""
    if method in CONVEX_METHODS:
        est1, est2 = result
        return {
            "layer1": {
                "a_hat": est1.a_hat.tolist(),
                "k_hat": est1.k_hat.tolist(),
                "raw_a": est1.raw_a.tolist(),
                "unscaled_rows": list(est1.unscaled_rows),
                "notes": list(est1.notes),
            },
            "layer2": {
                "c_hat": est2.c_hat.tolist(),
                "b_hat": est2.b_hat.tolist(),
                "k_hat": est2.k_hat.tolist(),
                "notes": list(est2.notes),
            },
        }
    if method == "sgd":
        return {
            "sgd": {
                "a_hat": result.a_hat.tolist(),
                "b_hat": result.b_hat.tolist(),
                "diverged": result.diverged,
                "final_loss": float(result.loss_trace[-1, 1]),
            }
        }
    return {
        "vanilla_lr": {
            "a_hat": result.a_hat.tolist(),
            "b_hat": result.b_hat.tolist(),
            "n_neg_used": result.n_neg_used,
            "n_pos_used": result.n_pos_used,
        }
    }


def cmd_learn(args: argparse.Namespace) -> int:
    if not args.data:
        raise ConfigError("learn requires --data pointing at a samples CSV")
    data_path = Path(args.data)
    if not data_path.exists():
        raise FileNotFoundError(f"dataset not found: {data_path}")
    method = args.method or "qp"
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}; pick one of {ALL_METHODS}")
    samples = load_samples_csv(data_path)
    seed = args.seed if args.seed is not None else (samples.seed or 0)
    est_a, est_b, result = fit_method(samples, method, seed, _eps_tol(args))

    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": "learn",
        "method": method,
        "data": str(data_path),
        "seed": seed,
        "eps_tol": args.eps_tol,
        "estimates": _artifacts(method, result),
    }
    if args.teacher:
        teacher_path = Path(args.teacher)
        if not teacher_path.exists():
            raise FileNotFoundError(f"teacher not found: {teacher_path}")
        unit = load_unit_json(teacher_path)
        dist = make_input_dist(args.input, unit.d)
        # score against the clean function, matching run_trial's convention
        test = sample(
            unit, dist, args.test_size, 0.0,
            seed=derive_seed(seed, "test"),
        )
        report = relative_errors(est_a, est_b, unit, test, method=method)
        payload["error_report"] = dataclasses.asdict(report)
        print(
            f"{method}: layer1_rel={report.layer1_rel:.6g} "
            f"layer2_rel={report.layer2_rel:.6g} output_rel={report.output_rel:.6g}"
        )
    _write_json(out / "learn_result.json", payload)
    print(f"wrote {out / 'learn_result.json'}")
    return EXIT_OK


# --- experiments ---------------------------------------------------------

def _resumable(out_dir: Path, experiment: str, run_config: dict):
    """Load or start the experiment ledger; returns (path, payload)."""
    path = out_dir / f"{experiment}.json"
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            payload = None
        if payload and payload.get("config") == run_config:
            return path, payload
    return path, {"experiment": experiment, "config": run_config, "cells": {}}


def _experiment_grid(args, out_dir: Path, name: str, dims, sizes, sigmas,
                     methods, trials, fixed_teacher=False) -> int:
    """Run every pending (d, n, sigma, method) cell through one ``run_grids``
    call and record each in the ledger as it finishes, so a rerun skips
    done cells."""
    base_seed = args.seed if args.seed is not None else 0
    eps_tol = _eps_tol(args)
    shared = {
        "trials": trials, "base_seed": base_seed,
        "test_set_size": args.test_size, "input": args.input,
        "fixed_teacher": fixed_teacher,
        "eps_tol": args.eps_tol,
    }
    run_config = {
        "dims": dims, "sample_sizes": sizes, "noise_sigmas": sigmas,
        "methods": methods, **shared,
    }
    path, payload = _resumable(out_dir, name, run_config)
    all_rows = [
        TrialRow(**rec)
        for key in sorted(payload["cells"])
        for rec in payload["cells"][key]["rows"]
    ]
    pending = []
    for d in dims:
        for n in sizes:
            for sigma in sigmas:
                for method in methods:
                    cell_cfg = {"d": d, "n": n, "sigma": sigma, "method": method, **shared}
                    if _config_hash(cell_cfg) not in payload["cells"]:
                        pending.append(cell_cfg)
    grids = [
        TrialGrid(
            dims=(cfg["d"],), sample_sizes=(cfg["n"],), noise_sigmas=(cfg["sigma"],),
            methods=(cfg["method"],), trials_per_cell=trials,
            test_set_size=args.test_size, base_seed=base_seed,
            input_kind=args.input, fixed_teacher=fixed_teacher, eps_tol=eps_tol,
        )
        for cfg in pending
    ]
    for cell_cfg, rows in zip(pending, run_grids(grids, jobs=args.jobs)):
        payload["cells"][_config_hash(cell_cfg)] = {
            "config": cell_cfg,
            "rows": [dataclasses.asdict(r) for r in rows],
        }
        all_rows.extend(rows)
        _write_json(path, payload)
        print(f"cell d={cell_cfg['d']} n={cell_cfg['n']} sigma={cell_cfg['sigma']} "
              f"method={cell_cfg['method']}: done")
    aggregates = aggregate_rows(all_rows)
    _write_json(out_dir / f"{name}_aggregate.json",
                {"experiment": name, "config": run_config, "cells": aggregates})
    save_rows_csv(out_dir / f"{name}_trials.csv", all_rows)
    print(f"wrote {path}, {out_dir / (name + '_aggregate.json')}, "
          f"{out_dir / (name + '_trials.csv')}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.name
    if name == "heatmap":
        dims = _int_list(args.dims) if args.dims else [2, 4, 8]
        sizes = _int_list(args.sample_sizes) if args.sample_sizes else [64, 128, 256, 512]
        methods = _methods(args, ["qp", "sgd"])
        trials = args.trials or 8
        return _experiment_grid(
            args, out_dir, "heatmap", dims, sizes, [0.0], methods, trials
        )
    if name == "weight_robustness":
        d = args.d or 8
        n = args.n or 512
        units = args.trials or 32
        methods = _methods(args, ["qp", "sgd"])
        # one trial per teacher: the spread across units is the study
        return _experiment_grid(
            args, out_dir, "weight_robustness", [d], [n], [0.0], methods, units
        )
    if name == "noise_robustness":
        d = args.d or 10
        n = args.n or 512
        sigmas = _float_list(args.noise_sigmas) if args.noise_sigmas else [0.0, 0.05, 0.1, 0.2]
        methods = _methods(args, ["sgd", "qp", "slack-lp"])
        trials = args.trials or 8
        return _experiment_grid(
            args, out_dir, "noise_robustness", [d], [n], sigmas, methods, trials,
            fixed_teacher=True,
        )
    if name == "vanilla_lr_rates":
        dims = _int_list(args.dims) if args.dims else [4, 6]
        sizes = _int_list(args.sample_sizes) if args.sample_sizes else [100, 500, 1000]
        trials = args.trials or 200
        base_seed = args.seed if args.seed is not None else 0
        mean = args.input_mean or 0.0
        run_config = {
            "dims": dims, "sample_sizes": sizes, "trials": trials,
            "base_seed": base_seed, "input_mean": mean,
        }
        path, payload = _resumable(out_dir, "vanilla_lr_rates", run_config)
        for d in dims:
            for n in sizes:
                cell_cfg = {"d": d, "n": n, "trials": trials,
                            "base_seed": base_seed, "input_mean": mean}
                key = _config_hash(cell_cfg)
                if key in payload["cells"]:
                    continue
                [record] = run_success_rates(
                    [d], [n], trials, base_seed=base_seed, input_mean=mean
                )
                payload["cells"][key] = {"config": cell_cfg, "result": record}
                _write_json(path, payload)
                print(f"cell d={d} n={n}: rate {record['rate']:.3f}")
        print(f"wrote {path}")
        return EXIT_OK
    raise ConfigError(f"unknown experiment {name!r}")


# --- entry point ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reslearn",
        description="Learn two-layer ReLU residual units by convex programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every subcommand declares only the flags it reads, so a flag it would
    # ignore is a parse error (exit 2) rather than silently dropped
    flag_specs = {
        "--config": {"help": "JSON file with defaults for any flag"},
        "--seed": {"type": int},
        "--out": {"help": "output directory"},
        "--input": {"choices": ["mixture", "gaussian"], "help": "input distribution "
                    f"(default {FLAG_DEFAULTS['input']})"},
        "--d": {"type": int},
        "--m": {"type": int},
        "--n": {"type": int},
        "--noise-sigma": {"type": float},
        "--eps-tol": {"type": float, "help": "rescale regression residual gate"},
        "--jobs": {"type": int,
                   "help": "worker processes shared by the experiment's pending cells "
                           f"(default {FLAG_DEFAULTS['jobs']}; results do not depend on it)"},
        "--test-size": {"type": int, "help": f"default {FLAG_DEFAULTS['test_size']}"},
    }

    def flags(p, *names):
        for name in ("--config", "--seed", "--out", "--input", *names):
            p.add_argument(name, **flag_specs[name])

    gen = sub.add_parser("generate", help="write a teacher and a sample set")
    flags(gen, "--d", "--m", "--n", "--noise-sigma")
    gen.add_argument("--non-scale", action="store_true", default=None,
                     help="reject scale-equivalent teachers")
    gen.set_defaults(func=cmd_generate)

    learn = sub.add_parser("learn", help="fit a dataset, write estimates")
    flags(learn, "--eps-tol", "--test-size")
    learn.add_argument("--data", help="samples CSV path")
    learn.add_argument("--teacher", help="teacher JSON path (enables error report)")
    learn.add_argument("--method", choices=ALL_METHODS)
    learn.set_defaults(func=cmd_learn)

    exp = sub.add_parser("experiment", help="run a canned study")
    flags(exp, "--d", "--n", "--eps-tol", "--jobs", "--test-size")
    exp.add_argument("name", choices=[
        "heatmap", "weight_robustness", "noise_robustness", "vanilla_lr_rates",
    ])
    exp.add_argument("--dims", help="comma-separated dimensions")
    exp.add_argument("--sample-sizes", dest="sample_sizes",
                     help="comma-separated sample counts")
    exp.add_argument("--noise-sigmas", dest="noise_sigmas",
                     help="comma-separated noise levels")
    exp.add_argument("--methods", help="comma-separated methods")
    exp.add_argument("--trials", type=int)
    exp.add_argument("--input-mean", dest="input_mean", type=float,
                     help="gaussian input mean for vanilla_lr_rates")
    exp.set_defaults(func=cmd_experiment)
    return parser


def _fail(code: int, exc: BaseException) -> int:
    print(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config_file(args)
        _apply_flag_defaults(args)
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except (ValueError, DimensionMismatchError) as exc:
        return _fail(EXIT_CONFIG, exc)
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        return _fail(EXIT_IO, exc)
    except (SolverFailedError, SingularCHatError, DegenerateRowError) as exc:
        return _fail(EXIT_SOLVER, exc)
    except ReslearnError as exc:
        return _fail(EXIT_EVAL, exc)


if __name__ == "__main__":
    sys.exit(main())
