"""Second-layer learning: recover B from (x, y) samples.

The key identity is that C = B's left inverse satisfies C y = (A x)^+ + x,
so every row c_j of C, together with the hidden column xi_j = (A x)^+_j,
solves the shared row program of ``solver.types`` over the design F = -Y
and the target t = -x_j: the QP  min 1/2n ||xi_j + x_j - Y c_j||^2  with
xi_j >= 0, the feasibility LP  Y c_j >= x_j, or its slack LP. Rows whose
first-layer weights are a pure rescaling of the input coordinate admit a
one-parameter family of solutions C B = diag(k); the rescale step detects
those rows by the exact linearity of [C y]_j against x_j on the negative
half-line and divides the scale back out before B is read off by least
squares.

The QP route solves all d rows as one batched eliminated program (shared
factorization); the LP routes pose one small LP per row: m free
coefficients against n rows, which ``solve_lp`` works on as a basis of at
most m tight rows. The d feasibility LPs share the design and the start
mask, so ``shared_start`` starts them together, and a row its start closes
takes its coefficients from that start. Only the other rows go to
``solve_lp``, one call each: rows the start leaves violated (noisy rows,
and rows of a sparse orthant), and every row when m > d, where Y has rank d
and the crash leaves columns without a pivot. Every row then reads its
hidden column off its coefficients.

A row's LP starts on the samples in the negative orthant, x <= 0.
There A x <= 0 because A >= 0, so the ReLU is off, y = B x, and
c_j . y = x_j holds with equality at the teacher for every row j: these are
rows where the teacher's row program is tight. When they hold d linearly
independent samples, the start is the teacher's row and the dual method
takes no step, also where the feasible set is more than one point and
another vertex would be a wrong answer that the constraints cannot rule
out. A mixture input lands in the orthant with probability about 2^-d, so
at n = 512 the orthant holds about 8 samples at d = 6, 2 at d = 8 and 0.5
at d = 10: from d of about 8 it is all but empty, and the columns it does
not fix take their rows as they would without it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    RankDeficientError,
    SingularCHatError,
    SolverFailedError,
)
from .methods import ConvexMethod
from .model import SampleSet
from .numerics import Mat, lls_solve, origin_fits
from .solver import SolveStatus, row_lp, row_slack_lp
from .solver.simplex import shared_start, solve_lp
from .solver.split_ls import solve_separable_ls


# Scale-row detector, one pass over the d rows. A row is accepted as
# scale-equivalent (and its factor divided out) only when the origin-line
# fit of [C y]_j on x_j over negative x_j leaves a mean squared residual at
# most EPS_TOL times the sample variance of [C y]_j; otherwise the factor
# stays 1. EPS_TOL leaves room for the QP path, whose tie-break lands a
# hair off the pure-multiple segment, while genuinely coupled rows measure
# orders of magnitude above it either way.
# Rows with fewer than MIN_NEG_SAMPLES negative samples, or a slope below
# K_MIN, are left at 1 with a note. Slopes within SHRINK_TOL of 1 (or
# above it) are treated as exactly 1: a row whose factor is that close to
# unity needs no correction, and dividing by a noisy near-unit estimate
# would push an already-correct solution off the constraint surface by the
# estimation error.
EPS_TOL = 1e-3
MIN_NEG_SAMPLES = 10
K_MIN = 1e-4
SHRINK_TOL = 1e-2


@dataclass(frozen=True)
class Layer2Estimate:
    """Result of second-layer learning.

    ``xi_hat`` stacks the per-sample hidden-output estimates as rows (n x
    d); it is nonnegative, as a ReLU output is, since every route clips it
    at zero. ``k_hat`` holds the per-row scale factors actually divided out
    (all ones when nothing was detected). ``infeasible_rows`` lists the
    slack-LP rows that no c_j satisfies, as a positive least slack and its
    nonzero dual show (the teacher's row does at sigma = 0); it is empty on
    the qp and lp routes. ``notes`` carries human-readable diagnostics:
    underdetermination warnings, rescale gate decisions, and each infeasible
    row's slack.
    """

    c_hat: Mat
    b_hat: Mat
    xi_hat: Mat
    k_hat: np.ndarray
    infeasible_rows: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


# --- learning ------------------------------------------------------------

def _solve_c_lp(samples: SampleSet, slack: bool) -> tuple[Mat, Mat, list[str], tuple[int, ...]]:
    """(c_hat, xi_hat, notes, infeasible_rows): a soft row is infeasible when its
    report has a nonzero dual, which only a positive least slack leaves."""
    ys, xs = samples.ys, samples.xs
    design, targets = -ys, -xs
    n, m = ys.shape
    xi_hat = np.zeros((n, xs.shape[1]))
    notes: list[str] = []
    infeasible: list[int] = []
    tight = np.all(xs <= 0, axis=1)  # the teacher's row is tight on these samples
    program = row_slack_lp if slack else row_lp
    c_hat = shared_start(design, targets, prefer=tight)
    for j, c in enumerate(c_hat):
        noisy = False
        if np.isnan(c).any():  # the start does not close this row: the engine runs
            report = solve_lp(program(design, targets[:, j]), prefer=tight)
            if report.status is not SolveStatus.OPTIMAL:
                raise SolverFailedError(
                    f"layer-2 LP for row {j} ended with status {report.status.value}: "
                    f"{report.message}"
                )
            c[:] = report.point[:m]
            noisy = slack and report.dual.any()
        residual = ys @ c - xs[:, j]
        if noisy:
            infeasible.append(j)
            notes.append(f"row {j}: slack objective "
                         f"{float(np.maximum(-residual, 0.0).mean()):.3e} (noisy fit)")
        xi_hat[:, j] = np.maximum(residual, 0.0) if slack else residual
    return c_hat, xi_hat, notes, tuple(infeasible)


def rescale_layer2(samples: SampleSet, c_hat: Mat, *, notes: list[str]) -> np.ndarray:
    """Per-row scale factors of c_hat, detected on the negative half-lines.

    For a scale-equivalent row j, [C y]_j equals k_j x_j exactly whenever
    x_j < 0, so the through-origin regression has residual ~0 and its slope
    is the factor. A mean squared residual above ``EPS_TOL`` times the
    variance of [C y]_j there means the row is genuinely coupled, and the
    factor defaults to 1. All d rows are fitted in one ``origin_fits`` pass;
    rows flagged by the sample count or the slope floor append one line each
    to ``notes``, in row order.
    """
    c_hat = np.asarray(c_hat)
    if c_hat.shape != (samples.d, samples.m):
        raise DimensionMismatchError(
            f"c_hat is {c_hat.shape}, samples need (d, m) = ({samples.d}, {samples.m})"
        )
    xs, projected = samples.xs, samples.ys @ c_hat.T
    negative = xs < 0
    count, slope = origin_fits(xs, projected, negative)
    xm, ym = np.where(negative, xs, 0.0), np.where(negative, projected, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = ym - slope * xm
        mse = np.einsum("ij,ij->j", resid, resid) / count
        centred = np.where(negative, projected - np.einsum("ij->j", ym) / count, 0.0)
        spread = np.einsum("ij,ij->j", centred, centred) / count
    few = count < MIN_NEG_SAMPLES
    # gate: residual within EPS_TOL of the spread (zero spread and residual: an exact line)
    fitted = ~few & ~np.isnan(slope) & (mse <= EPS_TOL * spread)
    degenerate = fitted & (slope < K_MIN)
    for j in np.flatnonzero(few | degenerate):
        notes.append(f"row {j}: only {count[j]} negative samples, scale factor left at 1" if few[j]
                     else f"row {j}: degenerate scale estimate {slope[j]:.3e}, left at 1")
    shrunk = fitted & ~degenerate & (slope < 1.0 - SHRINK_TOL)
    return np.where(shrunk, slope, 1.0)


def recover_b_general(samples: SampleSet, c_hat: Mat, k_hat) -> Mat:
    """Least-squares fit of y on the scale-corrected projection diag(1/k) C y."""
    k = np.asarray(k_hat, dtype=np.float64).reshape(-1)
    if np.any(k <= 0):
        raise InvalidInputError("scale factors must be strictly positive")
    corrected = np.asarray(c_hat) / k[:, None]
    design = samples.ys @ corrected.T
    try:
        return lls_solve(design, samples.ys)
    except RankDeficientError as exc:
        sv = np.linalg.svd(design, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
        raise SingularCHatError(
            f"projected samples are rank deficient; cannot recover layer 2: {exc}",
            condition=cond,
        ) from exc


def learn_layer2(
    samples: SampleSet,
    method: ConvexMethod | str = ConvexMethod.QP,
) -> Layer2Estimate:
    """Estimate C and B from samples; see the module docstring for the model.

    Every method runs the same three stages: solve the row programs for C
    and the hidden estimates, divide out the scale factors that
    ``rescale_layer2`` detects, and read B off by least squares
    (``recover_b_general``). The scale-corrected hidden estimates are
    clipped at zero on every route, so layer 1 gets them as they are.
    Raises SolverFailedError when a row program fails and SingularCHatError
    when the projected samples lose rank.
    """
    method = ConvexMethod.parse(method)
    notes: list[str] = []
    d, m, n = samples.d, samples.m, samples.n
    if m < d:
        raise DimensionMismatchError(
            f"outputs must have at least input dimension: m={m} < d={d}"
        )
    if n < d:
        notes.append(f"underdetermined: n={n} < d={d}, estimate unreliable")
        warnings.warn(notes[-1], stacklevel=2)

    infeasible: tuple[int, ...] = ()
    if method is ConvexMethod.QP:
        coeffs, xi_hat, _info = solve_separable_ls(-samples.ys, -samples.xs)
        c_hat = coeffs.T.copy()
    else:
        c_hat, xi_hat, lp_notes, infeasible = _solve_c_lp(
            samples, slack=method is ConvexMethod.SLACK_LP)
        notes.extend(lp_notes)

    k_hat = rescale_layer2(samples, c_hat, notes=notes)

    b_hat = recover_b_general(samples, c_hat, k_hat)
    corrected_c = c_hat / k_hat[:, None]
    corrected_xi = (xi_hat + samples.xs) / k_hat[None, :] - samples.xs
    return Layer2Estimate(
        c_hat=corrected_c,
        b_hat=b_hat,
        xi_hat=np.maximum(corrected_xi, 0.0),
        k_hat=k_hat,
        infeasible_rows=infeasible,
        notes=tuple(notes),
    )
