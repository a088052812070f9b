"""Command-line interface: data generation, learning runs, and experiments.

Commands
--------
generate    draw a teacher unit and a sample set, write both to disk
learn       fit a dataset with any method, write estimates and errors
experiment  run one canned study with per-cell resume:
            ``reslearn experiment <study> [flags]``, flags after the study

``learn`` fits through ``evaluation.fit_method`` and scores through
``evaluation.score_held_out``, as every trial does. Each study is its own
parser and declares only the flags it reads:

heatmap, weight_robustness   --dims --sample-sizes --methods --trials
noise_robustness             the same and --noise-sigmas
                             (all three: --seed --out --input --jobs --test-size)
vanilla_lr_rates             --seed --out --dims --sample-sizes --trials --input-mean

The grid studies are presets of one command, ``cmd_grid``; ``GRID_STUDIES``
holds each one's extra flags and defaults, and heatmap and weight_robustness
run at sigma = 0.
A grid study builds one ``evaluation.TrialCell`` per (d, n, sigma, method)
and runs every pending one through one ``evaluation.run_cells`` call;
``--jobs N`` spreads their trials over one pool of N worker processes, and
the rows do not depend on N because every trial is seeded by content.
vanilla_lr_rates makes one ``evaluation.success_rate`` call per (d, n).

Every flag has one default, shown by ``--help``; ``learn``'s ``--seed``
defaults to the dataset's seed. No parser matches abbreviated flags.
``--config FILE`` names a JSON object whose keys are flags of the
subcommand or study (``test_size`` or ``test-size``); its values replace
those defaults, so a flag given on the command line still wins. Each value
goes through its flag's type and choices, as a command-line token would,
and a bad value or a key that is not such a flag is a configuration error.

Exit codes: 0 success, 2 bad configuration, 3 io failure, 4 solver
failure, 5 evaluation/stage failure. Failures also print a single-line
JSON object to stderr with the error class and message, so wrappers can
branch without parsing prose. Every artifact embeds the config that
produced it. A study's ledger ``<name>.json`` maps a hash of each cell's
config to that config and its outcome, and a rerun skips the cells it
holds. A grid cell's config is its ``TrialCell`` fields (d, n,
noise_sigma, method, trials, test_set_size, base_seed, input_kind,
fixed_teacher) and its outcome is its trial rows; a
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


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _config_value(action: argparse.Action, value):
    """A config file's value for one flag, checked as the flag's own token
    would be: through its ``type`` and ``choices``. JSON null stands for the
    flag's declared default."""
    if value is None:
        return action.default
    if action.nargs == 0:  # a switch: true or false, not a token
        if not isinstance(value, bool):
            raise ConfigError(f"config key {action.dest!r} takes true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"config key {action.dest!r} takes a string or a number, got {value!r}")
    try:
        value = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {action.dest!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {action.dest!r} takes one of {list(action.choices)}, "
                          f"got {value!r}")
    return value


def _read_config(args: argparse.Namespace) -> dict:
    """The flag defaults a JSON config file sets, keyed by flag attribute and
    checked as ``_config_value`` does; a key that is not a flag of the leaf
    parser (``generate``, ``learn`` or the study) is a ConfigError."""
    try:
        stored = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(stored, dict):
        raise ConfigError("config file must hold a JSON object")
    stored = {key.replace("-", "_"): value for key, value in stored.items()}
    # the leaf's own flags; not the parser's bookkeeping, which a key could
    # otherwise overwrite
    actions = {action.dest: action for action in args.leaf._actions
               if action.dest not in ("help", "config")}
    unknown = [key for key in stored if key not in actions]
    if unknown:
        raise ConfigError(f"{args.leaf.prog} takes no {', '.join(map(repr, unknown))} "
                          f"(config keys must name its flags)")
    return {key: _config_value(actions[key], value) for key, value in stored.items()}


# --- generate ------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    if args.d is None or args.n is None:
        raise ConfigError("generate requires --d and --n")
    m = args.d if args.m is None else args.m
    out = Path(args.out)
    spec = NetworkGenSpec(
        d=args.d, m=m, seed=args.seed, require_non_scale_transform=args.non_scale
    )
    unit = generate_unit(spec)
    dist = make_input_dist(args.input, args.d)
    samples = sample(unit, dist, args.n, args.noise_sigma,
                     seed=derive_seed(args.seed, "samples"))
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
            "seed": args.seed,
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
                "infeasible_rows": list(est2.infeasible_rows),
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
    if args.test_size < 1:
        raise ConfigError(f"--test-size takes a count of at least 1, got {args.test_size}")
    data_path = Path(args.data)
    if not data_path.exists():
        raise FileNotFoundError(f"dataset not found: {data_path}")
    method = args.method
    samples = load_samples_csv(data_path)
    seed = (samples.seed or 0) if args.seed is None else args.seed
    est_a, est_b, result = fit_method(samples, method, seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": "learn",
        "method": method,
        "data": str(data_path),
        "seed": seed,
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

def _holds_rows(record) -> bool:
    """Whether a grid cell's record holds its outcome, a list of TrialRow
    dicts; building each TrialRow checks that a row has exactly its fields."""
    try:
        return isinstance(record["rows"], list) and all(TrialRow(**row) for row in record["rows"])
    except (TypeError, KeyError):
        return False


def _holds_result(record) -> bool:
    """Whether a vanilla_lr_rates cell's record holds its rate record."""
    return isinstance(record, dict) and isinstance(record.get("result"), dict)


def _ledger(out_dir: Path, name: str, configs: list[dict],
            finished) -> tuple[Path, dict, list[str]]:
    """(path, ledger, keys) of a study's cell configs, keys in their order.
    The ledger keeps the stored record of each config already done, so a
    rerun skips it, and drops the records of every other config. A ledger
    that does not parse, or is not an object holding a "cells" object, counts
    as empty, and a cell whose record ``finished`` rejects (one that is not
    an object holding its outcome) counts as pending."""
    path = out_dir / f"{name}.json"
    try:
        stored = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        stored = {}
    stored = stored.get("cells") if isinstance(stored, dict) else None
    if not isinstance(stored, dict):
        stored = {}
    keys = [_config_hash(config) for config in configs]
    kept = {key: stored[key] for key in keys if key in stored and finished(stored[key])}
    return path, {"experiment": name, "cells": kept}, keys


# Each grid study's help line, the flags it reads beyond those every grid
# study reads, and its defaults; fixed_teacher is whether every trial of a
# cell learns the same teacher.
GRID_STUDIES = {
    "heatmap": ("grid over d x n x method", (),
                {"dims": "2,4,8", "sample_sizes": "64,128,256,512", "noise_sigmas": "0",
                 "methods": "qp,sgd", "trials": 8, "fixed_teacher": False}),
    # one trial per teacher: the spread across units is the study
    "weight_robustness": ("grid over d x n x method", (),
                          {"dims": "8", "sample_sizes": "512", "noise_sigmas": "0",
                           "methods": "qp,sgd", "trials": 32, "fixed_teacher": False}),
    "noise_robustness": ("grid over d x n x sigma x method", ("--noise-sigmas",),
                         {"dims": "10", "sample_sizes": "512", "noise_sigmas": "0,0.05,0.1,0.2",
                          "methods": "sgd,qp,slack-lp", "trials": 8, "fixed_teacher": True}),
}


def cmd_grid(args: argparse.Namespace) -> int:
    """Run every pending cell of a grid study's d x n x sigma x method grid
    through one ``run_cells`` call and record each in the ledger as it
    finishes, so a rerun skips done cells."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs takes a count of at least 1, got {args.jobs}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.study
    cells = [
        TrialCell(d=d, n=n, noise_sigma=sigma, method=method, trials=args.trials,
                  test_set_size=args.test_size, base_seed=args.seed,
                  input_kind=args.input, fixed_teacher=args.fixed_teacher)
        for d in _numbers(args.dims) for n in _numbers(args.sample_sizes)
        for sigma in _numbers(args.noise_sigmas, float) for method in args.methods.split(",")
    ]
    configs = [dataclasses.asdict(cell) for cell in cells]
    path, ledger, keys = _ledger(out_dir, name, configs, _holds_rows)
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


def cmd_rates(args: argparse.Namespace) -> int:
    """vanilla_lr_rates: one ``success_rate`` record per (d, n), resumed
    through the ledger as the grid studies are."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = [
        {"d": d, "n": n, "trials": args.trials, "base_seed": args.seed,
         "input_mean": args.input_mean}
        for d in _numbers(args.dims) for n in _numbers(args.sample_sizes)
    ]
    path, ledger, keys = _ledger(out_dir, args.study, configs, _holds_result)
    for key, config in zip(keys, configs):
        if key not in ledger["cells"]:
            record = success_rate(**config)
            ledger["cells"][key] = {"config": config, "result": record}
            _write_json(path, ledger)
            print(f"cell d={config['d']} n={config['n']}: rate {record['rate']:.3f}")
    _write_json(path, ledger)
    print(f"wrote {path}")
    return EXIT_OK


# --- entry point ---------------------------------------------------------

def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The parser; ``defaults`` (a config file's values, by flag attribute)
    replace the declared defaults of every leaf parser: ``generate``,
    ``learn`` and each study under ``experiment``."""
    parser = argparse.ArgumentParser(
        prog="reslearn",
        description="Learn two-layer ReLU residual units by convex programming.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every leaf parser declares only the flags it reads, so a flag it would
    # ignore is a parse error (exit 2) rather than silently dropped; prefix
    # matching would let one flag's abbreviation stand for another's
    flag_specs = {
        "--config": {"help": "JSON file whose keys replace the defaults of these flags"},
        "--seed": {"type": int, "default": 0, "help": "root seed (default %(default)s)"},
        "--out": {"default": ".", "help": "output directory (default %(default)s)"},
        "--input": {"choices": ["mixture", "gaussian"], "default": "mixture",
                    "help": "input distribution (default %(default)s)"},
        "--d": {"type": int},
        "--m": {"type": int},
        "--n": {"type": int},
        "--noise-sigma": {"type": float, "default": 0.0,
                          "help": "label noise std (default %(default)s)"},
        "--jobs": {"type": int, "default": 1,
                   "help": "worker processes shared by the study's pending cells "
                           "(default %(default)s; results do not depend on it)"},
        "--test-size": {"type": int, "default": 1000,
                        "help": "held-out samples (default %(default)s)"},
        "--dims": {"help": "comma-separated dimensions (default %(default)s)"},
        "--sample-sizes": {"help": "comma-separated sample counts (default %(default)s)"},
        "--noise-sigmas": {"help": "comma-separated noise levels (default %(default)s)"},
        "--methods": {"help": "comma-separated methods (default %(default)s)"},
        "--trials": {"type": int, "help": "trials per cell (default %(default)s)"},
        "--input-mean": {"type": float, "default": 0.0,
                         "help": "gaussian input mean (default %(default)s)"},
    }

    def leaf(subparsers, name, summary, func, *names, **preset):
        p = subparsers.add_parser(name, help=summary, allow_abbrev=False)
        for flag in ("--config", "--out", *names):
            p.add_argument(flag, **flag_specs[flag])
        p.set_defaults(func=func, leaf=p, **preset)
        return p

    gen = leaf(sub, "generate", "write a teacher and a sample set", cmd_generate,
               "--seed", "--input", "--d", "--m", "--n", "--noise-sigma")
    gen.add_argument("--non-scale", action="store_true",
                     help="reject scale-equivalent teachers")

    learn = leaf(sub, "learn", "fit a dataset, write estimates", cmd_learn,
                 "--input", "--test-size")
    learn.add_argument("--seed", type=int, help="root seed (default: the dataset's seed)")
    learn.add_argument("--data", help="samples CSV path")
    learn.add_argument("--teacher", help="teacher JSON path (enables error report)")
    learn.add_argument("--method", choices=ALL_METHODS, default="qp",
                       help="(default %(default)s)")

    exp = sub.add_parser("experiment", help="run a canned study", allow_abbrev=False)
    studies = exp.add_subparsers(dest="study", required=True)
    for name, (summary, flags, preset) in GRID_STUDIES.items():
        leaf(studies, name, summary, cmd_grid, "--seed", "--input", "--jobs", "--test-size",
             "--dims", "--sample-sizes", *flags, "--methods", "--trials", **preset)
    leaf(studies, "vanilla_lr_rates", "two-orthant regression success rates", cmd_rates,
         "--seed", "--dims", "--sample-sizes", "--trials", "--input-mean",
         dims="4,6", sample_sizes="100,500,1000", trials=200)
    # the config's values go in after every add_argument: a default given to
    # add_argument wins over one that set_defaults stored before it
    for p in (gen, learn, *studies.choices.values()):
        p.set_defaults(**(defaults or {}))
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
    except (SolverFailedError, SingularCHatError) as exc:
        return _fail(EXIT_SOLVER, exc)
    except ReslearnError as exc:
        return _fail(EXIT_EVAL, exc)


if __name__ == "__main__":
    sys.exit(main())
