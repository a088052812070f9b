"""First-layer learning: recover A from (x, h) pairs with h ~ (A x)^+.

Because (t)^+ >= k t for every k in [0, 1], any row of the single-layer
model can only be learned up to a downward scaling. Each row a_j is the
free block of the shared row program of ``solver.types`` over the design
F = X and the target t = h_j: the QP

    min 1/2n ||X a_j + phi_j - h_j||^2   s.t. phi_j >= 0

or the feasibility LP  X a_j <= h_j, whose solutions approach k_j * (true
row j). The scale is then identified separately: whenever h_j > 0 the
relation (learned row) . x = k_j h_j is exactly linear, so a through-origin
regression over the activated samples recovers k_j, and dividing it out
restores the row. This rescale runs unconditionally (unlike the second
layer's gated variant) because the downscaling affects every teacher, not
just special rows.

The QP route solves all d rows as one batched eliminated program, since
they share the design. The d scale regressions run in one pass
(``estimate_row_scale``). Rows too rarely activated to support the
regression are left at their raw scale and flagged.

The LP route passes each row's activated samples (h_j > 0, the same mask
as the scale regression's) to the solver as ``prefer``. On them the
teacher's row satisfies a_j . x = h_j with equality, while along the
segment of scaled rows every k < 1 leaves them slack, so the start lands on
the teacher's row itself (k = 1). Unlike layer 2's orthant, these rows are
plentiful: a row activates on about half the samples.

The slack LP is the LP route here: a = 0 satisfies A x <= h (h >= 0), so
its least mean slack is 0 and its minimisers are the feasibility polytope.
Noise in h shrinks that polytope and puts its vertex at an extreme corner,
where the QP's one-sided penalties land at the noise-averaged interior.
Layer 2 finds the labels noisy where a slack LP's least slack is positive
(``Layer2Estimate.infeasible_rows``), and ``evaluation.full_pipeline`` then
sends layer 1 of a slack-lp fit to the QP route.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, SolverFailedError
from .methods import ConvexMethod
from .numerics import Mat, as_matrix, origin_fits
from .solver import SolveStatus, row_lp
from .solver.simplex import solve_lp
from .solver.split_ls import solve_separable_ls


@dataclass
class HiddenSampleSet:
    """Inputs paired with (estimated) hidden ReLU outputs, both n x d.

    The hidden values may be negative by up to 1e-6 of their largest
    magnitude. Layer-2 estimates are clipped at zero on every route, so
    that allowance serves only h that a caller supplies.
    """

    xs: Mat
    hs: Mat

    def __post_init__(self):
        self.xs = as_matrix(self.xs, "xs")
        self.hs = as_matrix(self.hs, "hs")
        if self.xs.shape != self.hs.shape:
            raise DimensionMismatchError(
                f"xs is {self.xs.shape} but hs is {self.hs.shape}; both must be n x d"
            )
        if self.hs.min(initial=0.0) < -1e-6 * np.abs(self.hs).max(initial=0.0):
            raise InvalidInputError(
                f"hidden outputs should be nonnegative up to slack, min={self.hs.min():.3e}"
            )

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]


# Per-row scale regression. A sample counts as activated when h_j exceeds
# ACTIVATION_REL times the largest |h_j|: an absolute zero test would
# count the roundoff that a layer-2 estimate leaves on inactive samples,
# and so would a median-relative one whenever fewer than half the samples
# activate (the median is then zero). Slopes above 1 by more than K_TOL are
# clamped to 1 with a note; a slope at or below K_MIN, like fewer than
# MIN_POS_SAMPLES activated samples or no slope at all, leaves the row
# unscaled and listed, with a note, rather than blown up by 1/K_MIN.
ACTIVATION_REL = 1e-8
MIN_POS_SAMPLES = 10
K_MIN = 1e-4
K_TOL = 1e-6

# Back-weight schedule of the QP route, which layer 1 of a noisy slack-lp
# fit also takes. The last weight is the objective's tie-break; the stage
# before it starts from the least-squares fit on a better-conditioned
# problem and hands the final stage a warm start near its active set.
BACK_WEIGHTS = (1e-3, 1e-6)


@dataclass(frozen=True)
class Layer1Estimate:
    """Result of first-layer learning.

    ``raw_a`` is the solver output before any scale correction; ``a_hat``
    is raw_a with each row divided by its factor and projected onto the
    nonnegative orthant (the teacher class); ``k_hat`` holds the factors.
    ``unscaled_rows`` lists rows whose factor could not be estimated.
    """

    a_hat: Mat
    k_hat: np.ndarray
    raw_a: Mat
    unscaled_rows: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


# --- learning ------------------------------------------------------------

def _activated(hs: np.ndarray) -> np.ndarray:
    """Mask of the samples whose hidden value counts as activated, per column."""
    threshold = ACTIVATION_REL * np.abs(hs).max(axis=0, initial=0.0)
    return hs > threshold


def estimate_row_scale(
    xs: Mat, hs: Mat, raw_a: Mat
) -> tuple[np.ndarray, tuple[int, ...], list[str]]:
    """Scale factors of all d learned rows, from activated samples only.

    Fits (raw row j) . x = k_j h_j through the origin over the samples where
    h_j is meaningfully positive, every row in one ``origin_fits`` pass; by
    construction of the convex programs the relation is exact there, so the
    slope is the factor. Returns (k_hat, unscaled_rows, notes). A row with
    too few activated samples, no defined slope, or a slope at or below
    K_MIN keeps k = 1 and is listed in ``unscaled_rows``; a slope above 1 by
    more than K_TOL is clamped to 1. Each of these rows gets one note.
    """
    xs = as_matrix(xs, "xs")
    hs = as_matrix(hs, "hs")
    raw_a = as_matrix(raw_a, "raw_a")
    n, d = xs.shape
    if hs.shape != (n, d) or raw_a.shape != (d, d):
        raise DimensionMismatchError(
            f"xs is {xs.shape}, hs is {hs.shape} and raw_a is {raw_a.shape}; "
            "need n x d, n x d and d x d"
        )
    count, slope = origin_fits(hs, xs @ raw_a.T, _activated(hs))
    few = count < MIN_POS_SAMPLES
    fitted = ~few & ~np.isnan(slope)
    unscaled = ~fitted | (slope <= K_MIN)
    clamped = ~unscaled & (slope > 1.0 + K_TOL)
    notes = []
    for j in np.flatnonzero(unscaled | clamped):
        if few[j]:
            notes.append(f"row {j}: only {count[j]} activated samples "
                         f"(need {MIN_POS_SAMPLES}) for the scale regression")
        elif not fitted[j]:
            notes.append(f"row {j}: activated h values are all zero")
        elif unscaled[j]:
            notes.append(f"row {j}: scale estimate {slope[j]:.3e} at or below {K_MIN:.0e}")
        else:
            notes.append(f"row {j}: scale estimate {slope[j]:.6f} above 1, clamped")
    k_hat = np.where(unscaled, 1.0, np.minimum(slope, 1.0))
    return k_hat, tuple(int(j) for j in np.flatnonzero(unscaled)), notes


def learn_layer1(
    samples: HiddenSampleSet,
    method: ConvexMethod | str = ConvexMethod.QP,
) -> Layer1Estimate:
    """Estimate A from hidden samples; see the module docstring for the
    model. "slack-lp" is the LP route: a = 0 is feasible, so the slack LP's
    minimum is the feasibility polytope. On noisy h, pass "qp", as
    ``full_pipeline`` does when layer 2 lists infeasible rows."""
    method = ConvexMethod.parse(method)
    xs, hs = samples.xs, samples.hs
    n, d = xs.shape
    notes: list[str] = []
    if n < d:
        notes.append(f"underdetermined: n={n} < d={d}, estimate unreliable")
        warnings.warn(notes[-1], stacklevel=2)

    if method is ConvexMethod.QP:
        # The QP objective is 1/2||X a + phi - h||^2 per row, in the eliminated
        # form of solve_separable_ls. The noiseless optimum is a segment of
        # scaled rows; a tie-break weight stronger than the solver default
        # lands at a depth narrow enough for the slope correction, and
        # continuation through a heavier weight first (BACK_WEIGHTS) reaches
        # that point in a fraction of the dozens of damped Newton steps the
        # weight's nearly flat back side costs from the least-squares fit.
        coeffs, _phi, _info = solve_separable_ls(xs, hs, back_weight=BACK_WEIGHTS)
        raw_a = coeffs.T.copy()
    else:
        raw_a = np.zeros((d, d))
        active = _activated(hs)
        for j in range(d):
            report = solve_lp(row_lp(xs, hs[:, j]), prefer=active[:, j])
            if report.status is not SolveStatus.OPTIMAL:
                raise SolverFailedError(
                    f"layer-1 LP for row {j} ended with status {report.status.value}: "
                    f"{report.message}"
                )
            raw_a[j] = report.point[:d]
    k_hat, unscaled, row_notes = estimate_row_scale(xs, hs, raw_a)
    a_hat = np.maximum(raw_a / k_hat[:, None], 0.0)
    return Layer1Estimate(
        a_hat=a_hat,
        k_hat=k_hat,
        raw_a=raw_a,
        unscaled_rows=unscaled,
        notes=tuple(notes + row_notes),
    )
