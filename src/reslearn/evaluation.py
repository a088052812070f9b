"""Metrics, the two-phase pipeline, and the multi-trial experiment harness.

Error conventions follow the relative Frobenius form for weights and a
per-sample normalized output error, both measured against held-out data
that is regenerated from recorded seeds (never the training set). Held-out
labels are always drawn without noise, even when training labels were
noisy: the score measures distance to the true function rather than to one
more noisy draw, and every method is scored against the same clean target.

Seeding is content-addressed: each (d, n, sigma, method, trial) cell hashes
to its own seed, so any cell can be reproduced in isolation and results do
not depend on execution order. Teachers are derived from (d, trial) only,
which keeps them fixed while n, sigma, or the method vary — the shape the
robustness and consistency studies need; a fixed-teacher grid derives them
from d alone. Every trial, grid cell, and CLI fit dispatches on the method
name through ``fit_method``.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baselines import SgdConfig, sgd_train, vanilla_lr
from .errors import DimensionMismatchError, ReslearnError
from .layer1 import HiddenSampleSet, Layer1Estimate, learn_layer1
from .layer2 import EPS_TOL, Layer2Estimate, learn_layer2
from .methods import ALL_METHODS, CONVEX_METHODS, ConvexMethod
from .model import (
    GaussianIid,
    InputDistribution,
    NetworkGenSpec,
    ResidualUnit,
    SampleSet,
    derive_seed,
    forward_batch,
    generate_unit,
    sample,
    standard_mixture,
)


@dataclass(frozen=True)
class ErrorReport:
    """Relative errors of one learned student against its teacher."""

    layer1_rel: float
    layer2_rel: float
    output_rel: float
    n: int
    d: int
    seed: int
    method: str = ""
    noise_sigma: float = 0.0


@dataclass(frozen=True)
class TrialGrid:
    """A full experiment grid; every list axis is crossed with the others.

    Teachers vary with (d, trial) unless ``fixed_teacher`` is set, in which
    case every trial of a dimension learns the same teacher, so the spread
    across trials comes from the sampled data alone. ``eps_tol`` (the
    layer-2 rescale gate) reaches every convex-method trial.
    """

    dims: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    noise_sigmas: tuple[float, ...] = (0.0,)
    methods: tuple[str, ...] = ("qp",)
    trials_per_cell: int = 16
    test_set_size: int = 1000
    base_seed: int = 0
    input_kind: str = "mixture"  # "mixture" or "gaussian"
    fixed_teacher: bool = False
    eps_tol: float = EPS_TOL

    def __post_init__(self):
        for name in ("dims", "sample_sizes", "noise_sigmas", "methods"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {ALL_METHODS}")
        if self.input_kind not in ("mixture", "gaussian"):
            raise ValueError(f"unknown input_kind {self.input_kind!r}")


@dataclass(frozen=True)
class TrialRow:
    """One trial's outcome inside a grid; failures keep their cell visible."""

    d: int
    n: int
    noise_sigma: float
    method: str
    trial: int
    seed: int
    layer1_rel: float
    layer2_rel: float
    output_rel: float
    status: str = "ok"
    message: str = ""


def make_input_dist(kind: str, dim: int) -> InputDistribution:
    if kind == "mixture":
        return standard_mixture(dim)
    if kind == "gaussian":
        return GaussianIid(dim=dim)
    raise ValueError(f"unknown input kind {kind!r}")


# --- metrics -------------------------------------------------------------

def relative_errors(
    est_a, est_b, unit: ResidualUnit, test: SampleSet, method: str = ""
) -> ErrorReport:
    """Frobenius-relative weight errors plus mean normalized output error."""
    est_a = np.asarray(est_a, dtype=np.float64)
    est_b = np.asarray(est_b, dtype=np.float64)
    if est_a.shape != unit.a.shape or est_b.shape != unit.b.shape:
        raise DimensionMismatchError(
            f"estimate shapes {est_a.shape}/{est_b.shape} do not match "
            f"teacher {unit.a.shape}/{unit.b.shape}"
        )
    if test.n < 1:
        raise ValueError("test set is empty")
    layer1_rel = float(np.linalg.norm(est_a - unit.a) / np.linalg.norm(unit.a))
    layer2_rel = float(np.linalg.norm(est_b - unit.b) / np.linalg.norm(unit.b))
    pred = forward_batch(est_a, est_b, test.xs)
    norms = np.linalg.norm(test.ys, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    output_rel = float(np.mean(np.linalg.norm(pred - test.ys, axis=1) / norms))
    return ErrorReport(
        layer1_rel=layer1_rel,
        layer2_rel=layer2_rel,
        output_rel=output_rel,
        n=test.n,
        d=test.d,
        seed=test.seed if test.seed is not None else -1,
        method=method,
        noise_sigma=test.noise_sigma,
    )


# --- pipeline ------------------------------------------------------------

def full_pipeline(
    samples: SampleSet,
    method: ConvexMethod | str = ConvexMethod.QP,
    eps_tol: float = EPS_TOL,
) -> tuple[Layer1Estimate, Layer2Estimate]:
    """Learn layer 2 from (x, y), then layer 1 from the recovered hidden
    outputs. The second stage consumes the first stage's xi estimates as its
    h samples, clipped at zero so downstream validation holds. ``eps_tol``
    is layer 2's rescale gate."""
    method = ConvexMethod.parse(method)
    est2 = learn_layer2(samples, method, eps_tol=eps_tol)
    hidden = HiddenSampleSet(xs=samples.xs, hs=np.maximum(est2.xi_hat, 0.0))
    est1 = learn_layer1(hidden, method)
    return est1, est2


def fit_method(
    samples: SampleSet, method: str, seed: int, eps_tol: float = EPS_TOL
) -> tuple[np.ndarray, np.ndarray, object]:
    """Fit one method to a training set; returns (a_hat, b_hat, result).

    ``result`` is what the method's learner returned: the (Layer1Estimate,
    Layer2Estimate) pair for the convex methods, an SgdResult, or a
    VanillaLrResult. SGD derives its initialisation seed from ``seed``;
    ``eps_tol`` reaches the convex methods only. A failed two-orthant
    regression raises, so every returned result carries both estimates.
    """
    if method in CONVEX_METHODS:
        result = full_pipeline(samples, method, eps_tol)
        return result[0].a_hat, result[1].b_hat, result
    if method == "sgd":
        result = sgd_train(samples, SgdConfig(seed=derive_seed(seed, "sgd")))
    elif method == "vanilla-lr":
        result = vanilla_lr(samples)
        if not result.success:
            raise ReslearnError(
                f"vanilla LR failed: {result.n_neg_used} negative / "
                f"{result.n_pos_used} positive usable samples"
            )
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    return result.a_hat, result.b_hat, result


def run_trial(
    unit: ResidualUnit,
    n: int,
    noise_sigma: float,
    method: str,
    seed: int,
    test_set_size: int = 1000,
    input_kind: str = "mixture",
    eps_tol: float = EPS_TOL,
) -> ErrorReport:
    """Draw a training set, learn with one method, score on fresh data.

    The training set uses ``seed`` directly; the held-out set derives its
    own seed from it, so recording (unit, seed) reproduces both exactly.
    The held-out set is drawn without label noise: the score measures how
    close the learned function is to the true one, and noisy per-sample
    normalization would instead be dominated by test points whose noisy
    label happens to land near zero norm.
    """
    dist = make_input_dist(input_kind, unit.d)
    train = sample(unit, dist, n, noise_sigma, seed=seed)
    test = sample(unit, dist, test_set_size, 0.0, seed=derive_seed(seed, "test"))
    est_a, est_b, _ = fit_method(train, method, seed, eps_tol)
    report = relative_errors(est_a, est_b, unit, test, method=method)
    return replace(report, n=n, seed=seed, noise_sigma=noise_sigma)


# --- grids ---------------------------------------------------------------

def cell_seed(base_seed: int, d: int, n: int, sigma: float, method: str, trial: int) -> int:
    """Content hash of one grid cell; the per-trial RNG root."""
    return derive_seed(base_seed, d, n, float(sigma), method, trial)


def teacher_seed(base_seed: int, d: int, trial: int) -> int:
    """Teachers depend only on (d, trial): fixed across n, sigma, method."""
    return derive_seed(base_seed, "teacher", d, trial)


def _grid_teacher(grid: TrialGrid, d: int, trial: int) -> ResidualUnit:
    if grid.fixed_teacher:
        seed = derive_seed(grid.base_seed, "fixed-teacher", d)
    else:
        seed = teacher_seed(grid.base_seed, d, trial)
    return generate_unit(NetworkGenSpec(d=d, m=d, seed=seed))


def _run_cell_trial(args) -> TrialRow:
    grid, d, n, sigma, method, trial = args
    seed = cell_seed(grid.base_seed, d, n, sigma, method, trial)
    try:
        unit = _grid_teacher(grid, d, trial)
        report = run_trial(
            unit, n, sigma, method, seed,
            test_set_size=grid.test_set_size,
            input_kind=grid.input_kind,
            eps_tol=grid.eps_tol,
        )
        return TrialRow(
            d=d, n=n, noise_sigma=sigma, method=method, trial=trial, seed=seed,
            layer1_rel=report.layer1_rel,
            layer2_rel=report.layer2_rel,
            output_rel=report.output_rel,
        )
    except ReslearnError as exc:
        return TrialRow(
            d=d, n=n, noise_sigma=sigma, method=method, trial=trial, seed=seed,
            layer1_rel=float("nan"), layer2_rel=float("nan"), output_rel=float("nan"),
            status="failed", message=str(exc),
        )


def _grid_tasks(grid: TrialGrid) -> list[tuple]:
    return [
        (grid, d, n, sigma, method, trial)
        for d in grid.dims
        for n in grid.sample_sizes
        for sigma in grid.noise_sigmas
        for method in grid.methods
        for trial in range(grid.trials_per_cell)
    ]


def run_grids(grids, jobs: int = 1) -> Iterator[list[TrialRow]]:
    """Each grid's rows in turn, yielded as soon as that grid's trials finish.

    Failures come back as rows with status "failed" rather than stopping
    the sweep, and the rows are the same for any ``jobs``, since every trial
    is seeded by content. ``jobs`` > 1 starts one process pool for all the
    grids and queues every trial up front, so workers stay busy across grid
    boundaries while the rows still come back grid by grid in deterministic
    cell order.
    """
    if jobs <= 1:
        for grid in grids:
            yield [_run_cell_trial(task) for task in _grid_tasks(grid)]
        return
    # imported here, so importing the package and serial runs skip them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers import the package afresh instead of forking a
    # process whose BLAS may already run threads
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=multiprocessing.get_context("spawn"))
    try:
        queued = [[pool.submit(_run_cell_trial, task) for task in _grid_tasks(grid)]
                  for grid in grids]
        for futures in queued:
            yield [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def aggregate_rows(rows: list[TrialRow]) -> list[dict]:
    """Collapse trial rows to one record per (d, n, sigma, method) with
    mean, std, and median of each metric over the successful trials."""
    cells: dict[tuple, list[TrialRow]] = {}
    for row in rows:
        cells.setdefault((row.d, row.n, row.noise_sigma, row.method), []).append(row)
    out = []
    for key in sorted(cells, key=lambda k: (k[0], k[1], k[2], k[3])):
        bucket = cells[key]
        ok = [r for r in bucket if r.status == "ok"]
        record = {
            "d": key[0],
            "n": key[1],
            "noise_sigma": key[2],
            "method": key[3],
            "trials": len(bucket),
            "failures": len(bucket) - len(ok),
        }
        for metric in ("layer1_rel", "layer2_rel", "output_rel"):
            values = np.array([getattr(r, metric) for r in ok])
            if values.size:
                record[f"{metric}_mean"] = float(values.mean())
                record[f"{metric}_std"] = float(values.std())
                record[f"{metric}_median"] = float(np.median(values))
            else:
                record[f"{metric}_mean"] = float("nan")
                record[f"{metric}_std"] = float("nan")
                record[f"{metric}_median"] = float("nan")
        out.append(record)
    return out


# --- success-rate study --------------------------------------------------

def run_success_rates(
    dims,
    sample_sizes,
    trials: int,
    base_seed: int = 0,
    input_mean: float = 0.0,
) -> list[dict]:
    """Success rate of the two-orthant regression per (d, n) cell.

    Inputs are i.i.d. N(input_mean, 1); a nonzero mean skews the orthant
    probabilities and drives the rates down, which is itself one of the
    study's findings.
    """
    out = []
    for d in dims:
        for n in sample_sizes:
            successes = 0
            for trial in range(trials):
                unit = generate_unit(
                    NetworkGenSpec(d=d, m=d, seed=teacher_seed(base_seed, d, trial))
                )
                seed = derive_seed(base_seed, "vlr", d, n, float(input_mean), trial)
                train = sample(unit, GaussianIid(dim=d, mean=input_mean), n, 0.0, seed=seed)
                if vanilla_lr(train).success:
                    successes += 1
            out.append(
                {
                    "d": d,
                    "n": n,
                    "trials": trials,
                    "successes": successes,
                    "rate": successes / trials,
                    "input_mean": input_mean,
                }
            )
    return out


# --- serialization -------------------------------------------------------

def save_rows_csv(path, rows: list[TrialRow]) -> None:
    """Long-format CSV, one line per trial."""
    fields = [
        "d", "n", "noise_sigma", "method", "trial", "seed",
        "layer1_rel", "layer2_rel", "output_rel", "status", "message",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(asdict(row))
