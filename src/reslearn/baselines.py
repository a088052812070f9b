"""Reference learners: orthant-restricted linear regression and plain SGD.

The residual unit is exactly linear on two input orthants: y = B x when
every coordinate of x is negative (the ReLU is dead) and y = B (A + I) x
when every coordinate is positive. The "vanilla" learner runs one linear
regression per orthant and solves the two fits against each other for A.
Its catch is sample hunger: the all-negative orthant has probability
2^-d under sign-symmetric inputs, so the expected samples needed grow as
d * 2^(d+1).

The SGD baseline trains both layers jointly on the squared output loss
with the fixed published hyperparameters; it exists to be compared
against, not tuned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RankDeficientError
from .model import WEIGHT_STD, SampleSet, make_rng
from .numerics import Mat, lls_solve


@dataclass(frozen=True)
class VanillaLrResult:
    """Outcome of the two-orthant regression.

    ``success`` is False when either orthant produced too few or
    rank-deficient samples; the weight fields are None in that case, and
    failure is an ordinary result (the success *rate* is the experimental
    quantity of interest).
    """

    a_hat: Mat | None
    b_hat: Mat | None
    n_neg_used: int
    n_pos_used: int
    success: bool


def vanilla_lr(samples: SampleSet) -> VanillaLrResult:
    """Fit B on all-negative inputs from the first half of the samples and
    B(A+I) on all-positive inputs from the second half, then solve for A."""
    xs, ys = samples.xs, samples.ys
    n, d = xs.shape
    half = n // 2
    neg_mask = np.all(xs[:half] < 0, axis=1)
    pos_mask = np.all(xs[half:] > 0, axis=1)
    n_neg = int(neg_mask.sum())
    n_pos = int(pos_mask.sum())
    try:
        b_hat = lls_solve(xs[:half][neg_mask], ys[:half][neg_mask])
        d_hat = lls_solve(xs[half:][pos_mask], ys[half:][pos_mask])
        # b_hat @ a_tilde = d_hat, solved as least squares in case m > d
        a_tilde = lls_solve(b_hat, d_hat).T
    except RankDeficientError:
        return VanillaLrResult(None, None, n_neg, n_pos, success=False)
    a_hat = a_tilde - np.eye(d)
    return VanillaLrResult(a_hat, b_hat, n_neg, n_pos, success=True)


def expected_sample_bound(d: int) -> int:
    """Lower bound on the expected samples vanilla LR needs: d * 2^(d+1).

    Exact integer arithmetic; valid for any d >= 1 under inputs whose
    coordinates are sign-symmetric.
    """
    if d < 1:
        raise InvalidInputError("dimension must be at least 1")
    return d * 2 ** (d + 1)


@dataclass(frozen=True)
class SgdConfig:
    """Mini-batch SGD hyperparameters.

    The learning rate decays per epoch as eta0 / (1 + gamma * epoch).
    Training starts from entries N(0, WEIGHT_STD^2), the first layer
    clamped nonnegative at initialization only, so the student starts at
    the magnitude the teacher weights are drawn at.
    """

    batch_size: int = 32
    epochs: int = 256
    eta0: float = 1e-3
    gamma: float = 1e-5
    seed: int = 0


@dataclass(frozen=True)
class SgdResult:
    """Final weights plus the per-epoch trace (epoch, mean batch loss, eta).

    ``diverged`` flags a loss explosion past 1e6 times the initial loss;
    the trace is still returned up to the last finite epoch.
    """

    a_hat: Mat
    b_hat: Mat
    loss_trace: np.ndarray  # (epochs, 3): epoch, mean_loss, eta
    diverged: bool = False


def sgd_train(samples: SampleSet, cfg: SgdConfig | None = None) -> SgdResult:
    """Train (A, B) by mini-batch SGD; deterministic given cfg.seed.

    Each step takes the mean squared-error loss of its batch and the
    gradients in (A, B), with the ReLU's subgradient at 0 taken as 0, then
    ``A -= eta * grad_a; B -= eta * grad_b``. It performs the float
    operations of the plain reference loop in ``tests/test_baselines.py``
    in the same order and on arrays of the same layout, so it reproduces
    the published reference's trajectory bit for bit: weights and loss
    trace are equal to that loop's. Only the memory
    traffic differs: the epoch's shuffle is gathered once into a buffer
    that every batch views, every intermediate lives in a buffer reused
    through ``out=`` (``np.dot`` makes the same BLAS product as ``@`` here,
    at less call cost), and (A, B) are views into one parameter block
    updated in place. The batch residuals are views into one epoch-sized
    buffer, squared and summed once after the epoch: one row-wise
    reduction over the full batches, each row a batch's contiguous
    residuals, adds them in the order a per-batch sum would.
    """
    cfg = cfg or SgdConfig()
    xs, ys = samples.xs, samples.ys
    n, d = xs.shape
    m = ys.shape[1]
    bs_max = cfg.batch_size
    if n < bs_max:
        raise InvalidInputError(f"need at least one full batch: n={n} < {bs_max}")
    rng = make_rng(cfg.seed)
    params = np.empty((d + m, d))
    a, b = params[:d], params[d:]
    a[...] = np.maximum(rng.normal(0.0, WEIGHT_STD, size=(d, d)), 0.0)
    b[...] = rng.normal(0.0, WEIGHT_STD, size=(m, d))
    grads = np.empty_like(params)
    grad_a, grad_b = grads[:d], grads[d:]

    # The epoch's shuffle is gathered into xs_epoch / ys_epoch; each batch
    # is a fixed view of those, of the epoch's residuals and of per-step
    # scratch (pre, inner, d_pre, mask), so a step allocates nothing.
    xs_epoch, ys_epoch = np.empty_like(xs), np.empty_like(ys)
    resid_epoch, sq_epoch = np.empty_like(ys), np.empty_like(ys)
    scratch = [np.empty((bs_max, d)) for _ in range(4)]
    batches = []
    for start in range(0, n, bs_max):
        stop = min(start + bs_max, n)
        views = [buf[: stop - start] for buf in scratch]
        batches.append((float(stop - start), xs_epoch[start:stop], ys_epoch[start:stop],
                        resid_epoch[start:stop], *views))
    sizes = np.array([batch[0] for batch in batches])
    sums = np.empty(len(batches))
    full = n // bs_max
    sq_full = sq_epoch[: full * bs_max].reshape(full, bs_max * m)
    sq_short = sq_epoch[full * bs_max :]
    a_t, b_t = a.T, b.T

    trace = np.zeros((cfg.epochs, 3))
    initial_loss = None
    diverged = False
    # overflow past the divergence threshold is detected, not anomalous
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            eta = cfg.eta0 / (1.0 + cfg.gamma * epoch)
            order = rng.permutation(n)
            np.take(xs, order, axis=0, out=xs_epoch)
            np.take(ys, order, axis=0, out=ys_epoch)
            for size, xb, yb, resid, pre, inner, d_pre, mask in batches:
                np.dot(xb, a_t, out=pre)
                np.maximum(pre, 0.0, out=inner)
                inner += xb
                np.dot(inner, b_t, out=resid)
                resid -= yb
                np.dot(resid.T, inner, out=grad_b)
                # the ReLU mask as 1.0 / 0.0, the same factor a bool mask
                # is cast to when it multiplies a float array
                np.greater(pre, 0.0, out=mask)
                np.dot(resid, b, out=d_pre)
                d_pre *= mask
                np.dot(d_pre.T, xb, out=grad_a)
                grads /= size
                grads *= eta
                params -= grads
            np.multiply(resid_epoch, resid_epoch, out=sq_epoch)
            np.add.reduce(sq_full, axis=1, out=sums[:full])
            if sq_short.size:
                sums[full] = np.add.reduce(sq_short, axis=None)
            mean_loss = float(np.mean(0.5 * sums / sizes))
            trace[epoch] = (epoch, mean_loss, eta)
            if initial_loss is None:
                initial_loss = max(mean_loss, 1e-300)
            if mean_loss > 1e6 * initial_loss:
                diverged = True
            if not np.isfinite(mean_loss):
                diverged = True
                trace = trace[: epoch + 1]
                break
    return SgdResult(a_hat=a.copy(), b_hat=b.copy(), loss_trace=trace, diverged=diverged)
