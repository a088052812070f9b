"""Command-line interface: data generation, learning runs, and experiments.

Commands
--------
generate    draw a teacher unit and a sample set, write both to disk
learn       fit a dataset with any method, write estimates and errors
experiment  run one of the canned studies (heatmap, weight_robustness,
            noise_robustness, vanilla_lr_rates) with per-cell resume

``learn`` fits through ``evaluation.fit_method`` and scores through
``evaluation.score_held_out``, as every trial does. A study is a list of
cells. The grid studies build one ``evaluation.TrialCell`` per (d, n,
sigma, method) and run every pending one through one
``evaluation.run_cells`` call; ``--jobs N`` spreads their trials over one
pool of N worker processes, and the rows do not depend on N because every
trial is seeded by content. vanilla_lr_rates makes one
``evaluation.success_rate`` call per (d, n).

Every flag has one default, shown by ``--help``. ``--config FILE`` names a
JSON object whose keys are flags of the subcommand (``test_size`` or
``test-size``); its values replace those defaults, so a flag given on the
command line still wins, and a key that is not such a flag is a
configuration error.

Exit codes: 0 success, 2 bad configuration, 3 io failure, 4 solver
failure, 5 evaluation/stage failure. Failures also print a single-line
JSON object to stderr with the error class and message, so wrappers can
branch without parsing prose. Every artifact embeds the config that
produced it. A study's ledger ``<name>.json`` maps a hash of each cell's
config to that config and its outcome, and a rerun skips the cells it
holds. A grid cell's config is its ``TrialCell`` fields (d, n,
noise_sigma, method, trials, test_set_size, base_seed, input_kind,
fixed_teacher, eps_tol) and its outcome is its trial rows; a
vanilla_lr_rates cell's config is ``success_rate``'s arguments (d, n,
trials, base_seed, input_mean) and its outcome is the rate record.
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
    TrialCell,
    TrialRow,
    aggregate_rows,
    fit_method,
    make_input_dist,
    run_cells,
    save_rows_csv,
    score_held_out,
    success_rate,
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


# --- small helpers -------------------------------------------------------

def _numbers(text: str, kind=int) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {kind.__name__} values, got {text!r}") from exc
    if not values:
        raise ConfigError(f"expected at least one {kind.__name__} value, got {text!r}")
    return values


def _pick(value, default):
    """A flag's value when given, zero included; else ``default``."""
    return default if value is None else value


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _read_config(args: argparse.Namespace) -> dict:
    """The flag defaults a JSON config file sets, keyed by flag attribute; a
    key that is not a flag of the subcommand is a ConfigError."""
    try:
        stored = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(stored, dict):
        raise ConfigError("config file must hold a JSON object")
    stored = {key.replace("-", "_"): value for key, value in stored.items()}
    # the subcommand's own flags; not the parser's bookkeeping, which a key
    # could otherwise overwrite
    declared = set(vars(args)) - {"func", "command", "config"}
    unknown = [key for key in stored if key not in declared]
    if unknown:
        raise ConfigError(f"{args.command} takes no {', '.join(map(repr, unknown))} "
                          f"(config keys must name its flags)")
    return stored


# --- generate ------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    if args.d is None or args.n is None:
        raise ConfigError("generate requires --d and --n")
    m = _pick(args.m, args.d)
    seed = _pick(args.seed, 0)
    out = Path(args.out)
    spec = NetworkGenSpec(
        d=args.d, m=m, seed=seed, require_non_scale_transform=args.non_scale
    )
    unit = generate_unit(spec)
    dist = make_input_dist(args.input, args.d)
    samples = sample(unit, dist, args.n, args.noise_sigma, seed=derive_seed(seed, "samples"))
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
            "noise_sigma": args.noise_sigma,
            "input": args.input,
            "non_scale": bool(args.non_scale),
        },
    )
    print(f"wrote {out / 'teacher.json'} and {out / 'samples.csv'} "
          f"(d={args.d}, m={m}, n={args.n}, sigma={args.noise_sigma})")
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
    method = args.method
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}; pick one of {ALL_METHODS}")
    samples = load_samples_csv(data_path)
    seed = _pick(args.seed, samples.seed or 0)
    est_a, est_b, result = fit_method(samples, method, seed, args.eps_tol)

    out = Path(args.out)
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
        report = score_held_out(est_a, est_b, unit, seed, method, args.test_size, args.input)
        payload["error_report"] = dataclasses.asdict(report)
        print(
            f"{method}: layer1_rel={report.layer1_rel:.6g} "
            f"layer2_rel={report.layer2_rel:.6g} output_rel={report.output_rel:.6g}"
        )
    _write_json(out / "learn_result.json", payload)
    print(f"wrote {out / 'learn_result.json'}")
    return EXIT_OK


# --- experiments ---------------------------------------------------------

def _ledger(out_dir: Path, name: str, configs: list[dict]) -> tuple[Path, dict, list[str]]:
    """(path, ledger, keys) of a study's cell configs, keys in their order.
    The ledger keeps the stored record of each config already done, so a
    rerun skips it, and drops the records of every other config."""
    path = out_dir / f"{name}.json"
    try:
        stored = json.loads(path.read_text())["cells"]
    except (FileNotFoundError, json.JSONDecodeError):
        stored = {}
    keys = [_config_hash(config) for config in configs]
    kept = {key: stored[key] for key in keys if key in stored}
    return path, {"experiment": name, "cells": kept}, keys


def _experiment_grid(args, out_dir: Path, name: str, dims, sizes, sigmas,
                     methods, trials, fixed_teacher=False) -> int:
    """Run every pending cell of the d x n x sigma x method grid through one
    ``run_cells`` call and record each in the ledger as it finishes, so a
    rerun skips done cells."""
    cells = [
        TrialCell(d=d, n=n, noise_sigma=sigma, method=method, trials=trials,
                  test_set_size=args.test_size, base_seed=_pick(args.seed, 0),
                  input_kind=args.input, fixed_teacher=fixed_teacher, eps_tol=args.eps_tol)
        for d in dims for n in sizes for sigma in sigmas for method in methods
    ]
    configs = [dataclasses.asdict(cell) for cell in cells]
    path, ledger, keys = _ledger(out_dir, name, configs)
    pending = [i for i, key in enumerate(keys) if key not in ledger["cells"]]
    for i, rows in zip(pending, run_cells([cells[i] for i in pending], jobs=args.jobs)):
        ledger["cells"][keys[i]] = {
            "config": configs[i],
            "rows": [dataclasses.asdict(r) for r in rows],
        }
        _write_json(path, ledger)
        print(f"cell d={cells[i].d} n={cells[i].n} sigma={cells[i].noise_sigma} "
              f"method={cells[i].method}: done")
    _write_json(path, ledger)
    rows = [TrialRow(**rec) for key in keys for rec in ledger["cells"][key]["rows"]]
    _write_json(out_dir / f"{name}_aggregate.json",
                {"experiment": name, "config": configs, "cells": aggregate_rows(rows)})
    save_rows_csv(out_dir / f"{name}_trials.csv", rows)
    print(f"wrote {path}, {out_dir / (name + '_aggregate.json')}, "
          f"{out_dir / (name + '_trials.csv')}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.name
    if name == "heatmap":
        return _experiment_grid(
            args, out_dir, name, _numbers(_pick(args.dims, "2,4,8")),
            _numbers(_pick(args.sample_sizes, "64,128,256,512")), [0.0],
            _pick(args.methods, "qp,sgd").split(","), _pick(args.trials, 8),
        )
    if name == "weight_robustness":
        # one trial per teacher: the spread across units is the study
        return _experiment_grid(
            args, out_dir, name, [_pick(args.d, 8)], [_pick(args.n, 512)], [0.0],
            _pick(args.methods, "qp,sgd").split(","), _pick(args.trials, 32),
        )
    if name == "noise_robustness":
        return _experiment_grid(
            args, out_dir, name, [_pick(args.d, 10)], [_pick(args.n, 512)],
            _numbers(_pick(args.noise_sigmas, "0,0.05,0.1,0.2"), float),
            _pick(args.methods, "sgd,qp,slack-lp").split(","), _pick(args.trials, 8),
            fixed_teacher=True,
        )
    if name == "vanilla_lr_rates":
        configs = [
            {"d": d, "n": n, "trials": _pick(args.trials, 200),
             "base_seed": _pick(args.seed, 0), "input_mean": args.input_mean}
            for d in _numbers(_pick(args.dims, "4,6"))
            for n in _numbers(_pick(args.sample_sizes, "100,500,1000"))
        ]
        path, ledger, keys = _ledger(out_dir, name, configs)
        for key, config in zip(keys, configs):
            if key not in ledger["cells"]:
                record = success_rate(**config)
                ledger["cells"][key] = {"config": config, "result": record}
                _write_json(path, ledger)
                print(f"cell d={config['d']} n={config['n']}: rate {record['rate']:.3f}")
        _write_json(path, ledger)
        print(f"wrote {path}")
        return EXIT_OK
    raise ConfigError(f"unknown experiment {name!r}")


# --- entry point ---------------------------------------------------------

def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The parser; ``defaults`` (a config file's values, by flag attribute)
    replace the declared defaults of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="reslearn",
        description="Learn two-layer ReLU residual units by convex programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every subcommand declares only the flags it reads, so a flag it would
    # ignore is a parse error (exit 2) rather than silently dropped
    flag_specs = {
        "--config": {"help": "JSON file whose keys replace the defaults of these flags"},
        "--seed": {"type": int},
        "--out": {"default": ".", "help": "output directory (default %(default)s)"},
        "--input": {"choices": ["mixture", "gaussian"], "default": "mixture",
                    "help": "input distribution (default %(default)s)"},
        "--d": {"type": int},
        "--m": {"type": int},
        "--n": {"type": int},
        "--noise-sigma": {"type": float, "default": 0.0,
                          "help": "label noise std (default %(default)s)"},
        "--eps-tol": {"type": float, "default": EPS_TOL,
                      "help": "rescale regression residual gate (default %(default)s)"},
        "--jobs": {"type": int, "default": 1,
                   "help": "worker processes shared by the experiment's pending cells "
                           "(default %(default)s; results do not depend on it)"},
        "--test-size": {"type": int, "default": 1000,
                        "help": "held-out samples (default %(default)s)"},
    }

    def flags(p, *names):
        for name in ("--config", "--seed", "--out", "--input", *names):
            p.add_argument(name, **flag_specs[name])

    gen = sub.add_parser("generate", help="write a teacher and a sample set")
    flags(gen, "--d", "--m", "--n", "--noise-sigma")
    gen.add_argument("--non-scale", action="store_true",
                     help="reject scale-equivalent teachers")

    learn = sub.add_parser("learn", help="fit a dataset, write estimates")
    flags(learn, "--eps-tol", "--test-size")
    learn.add_argument("--data", help="samples CSV path")
    learn.add_argument("--teacher", help="teacher JSON path (enables error report)")
    learn.add_argument("--method", choices=ALL_METHODS, default="qp",
                       help="(default %(default)s)")

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
    exp.add_argument("--input-mean", dest="input_mean", type=float, default=0.0,
                     help="gaussian input mean for vanilla_lr_rates (default %(default)s)")

    for p, func in ((gen, cmd_generate), (learn, cmd_learn), (exp, cmd_experiment)):
        p.set_defaults(func=func, **(defaults or {}))
    return parser


def _fail(code: int, exc: BaseException) -> int:
    print(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_read_config(args)).parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, DimensionMismatchError) as exc:
        return _fail(EXIT_CONFIG, exc)
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        return _fail(EXIT_IO, exc)
    except (SolverFailedError, SingularCHatError, DegenerateRowError) as exc:
        return _fail(EXIT_SOLVER, exc)
    except ReslearnError as exc:
        return _fail(EXIT_EVAL, exc)


if __name__ == "__main__":
    sys.exit(main())
