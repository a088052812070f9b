"""Ground-truth residual units, input distributions, and sample generation.

The data model is the two-layer unit ``y = B [(A x)^+ + x]`` with a
nonnegative full-rank first layer ``A`` (d x d) and a full-column-rank
second layer ``B`` (m x d, m >= d). Everything here is deterministic given
a seed: random draws use the Philox counter-based bit generator, so runs
are reproducible within this implementation and the algorithm is named for
anyone wanting to match distributions elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, GenerationFailedError
from .numerics import Mat, as_matrix

#: Relative smallest-singular-value threshold under which a drawn weight
#: matrix is rejected as rank deficient.
RANK_THRESHOLD = 1e-8

#: Attempts allowed when rejection-sampling a teacher before giving up.
GENERATION_RETRY_BUDGET = 100

#: Standard deviation of the teacher entries: A is |N(0, WEIGHT_STD^2)|
#: entrywise, B is N(0, WEIGHT_STD^2).
WEIGHT_STD = 1.0

#: Standard deviation of the Gaussian inputs; ``GaussianIid`` varies only
#: its mean.
INPUT_STD = 1.0

#: Branches of the standard mixture: N(mean, std^2) and U(lo, hi).
MIXTURE_GAUSS_MEAN, MIXTURE_GAUSS_STD = -0.1, 1.0
MIXTURE_UNIFORM_LO, MIXTURE_UNIFORM_HI = -0.9, 1.1


def make_rng(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator keyed by ``seed``.

    Philox is counter-based, so independent streams never overlap and the
    mapping seed -> stream is stable across processes.
    """
    return np.random.Generator(np.random.Philox(key=seed))


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from a tuple of labels.

    Uses SHA-256 over a canonical string form (floats via repr), never
    Python's salted ``hash``, so derived seeds survive interpreter restarts.
    """
    text = "|".join(repr(p) if isinstance(p, float) else str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ResidualUnit:
    """Weight pair (a: d x d, b: m x d) of a residual unit.

    Invariants enforced at construction: entries of ``a`` nonnegative (a
    negative tolerance of 1e-6 of its largest magnitude admits learned
    estimates), both layers full rank, and m >= d.
    """

    a: Mat
    b: Mat

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        b = as_matrix(self.b, "b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        d = a.shape[0]
        if a.shape[1] != d:
            raise DimensionMismatchError(f"a must be square, got {a.shape}")
        if b.shape[1] != d:
            raise DimensionMismatchError(
                f"b has {b.shape[1]} columns, expected {d}"
            )
        if b.shape[0] < d:
            raise DimensionMismatchError(
                f"b must have at least {d} rows, got {b.shape[0]}"
            )
        if a.min() < -1e-6 * np.abs(a).max():
            raise ValueError(f"layer-1 weights must be nonnegative, min={a.min():.3e}")
        # Rank deficiency is only a warning: generated teachers are always
        # full rank (generate_unit rejects), but hand-built degenerate units
        # are still legal inputs for the learners.
        for name, w in (("a", a), ("b", b)):
            sv = np.linalg.svd(w, compute_uv=False)
            if sv[-1] < RANK_THRESHOLD * sv[0]:
                warnings.warn(
                    f"{name} is rank deficient (sv ratio {sv[-1] / max(sv[0], 1e-300):.3e})",
                    stacklevel=2,
                )

    @property
    def d(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]


def forward_batch(a: Mat, b: Mat, xs: Mat) -> Mat:
    """Evaluate ``y = b [(a x)^+ + x]`` for a batch of inputs (rows of xs)."""
    hidden = np.maximum(xs @ a.T, 0.0)
    return (hidden + xs) @ b.T


def is_scale_row(a: Mat, j: int) -> bool:
    """True iff row j of ``a`` has all off-diagonal entries exactly zero.

    Such rows make the layer objectives scale-equivalent instead of
    uniquely minimized, so generators can be asked to avoid them.
    """
    row = np.asarray(a)[j]
    off = np.delete(row, j)
    return bool(np.all(off == 0.0))


def scale_rows(a: Mat) -> list[int]:
    """Indices of all scale-transformation rows of ``a``."""
    return [j for j in range(np.asarray(a).shape[0]) if is_scale_row(a, j)]


# --- input distributions -------------------------------------------------

@dataclass(frozen=True)
class GaussianIid:
    """Coordinates i.i.d. N(mean, INPUT_STD^2)."""

    dim: int
    mean: float = 0.0

    def draw(self, rng: np.random.Generator, n: int) -> Mat:
        return rng.normal(self.mean, INPUT_STD, size=(n, self.dim))


@dataclass(frozen=True)
class GaussUniformMixture:
    """Each coordinate independently N(-0.1, 1) or U(-0.9, 1.1).

    The two branches (the MIXTURE_* constants) are picked with probability
    1/2 each, per coordinate.
    """

    dim: int

    def draw(self, rng: np.random.Generator, n: int) -> Mat:
        pick_gauss = rng.random(size=(n, self.dim)) < 0.5
        gauss = rng.normal(MIXTURE_GAUSS_MEAN, MIXTURE_GAUSS_STD, size=(n, self.dim))
        unif = rng.uniform(MIXTURE_UNIFORM_LO, MIXTURE_UNIFORM_HI, size=(n, self.dim))
        return np.where(pick_gauss, gauss, unif)


InputDistribution = GaussianIid | GaussUniformMixture


def standard_mixture(dim: int) -> GaussUniformMixture:
    """The zero-mean N(-0.1, 1) / U(-0.9, 1.1) equal mixture used by the harness."""
    return GaussUniformMixture(dim=dim)


# --- sample sets ---------------------------------------------------------

@dataclass
class SampleSet:
    """Paired inputs/outputs: xs is n x d, ys is n x m.

    With ``noise_sigma == 0`` the outputs are exact forward evaluations;
    otherwise they carry additive i.i.d. N(0, sigma^2) label noise drawn
    independently of x.
    """

    xs: Mat
    ys: Mat
    noise_sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        self.xs = as_matrix(self.xs, "xs")
        self.ys = as_matrix(self.ys, "ys")
        if self.xs.shape[0] != self.ys.shape[0]:
            raise DimensionMismatchError(
                f"{self.xs.shape[0]} inputs but {self.ys.shape[0]} outputs"
            )
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def m(self) -> int:
        return self.ys.shape[1]

    def header(self) -> dict:
        """The JSON-serializable metadata carried by the CSV header line."""
        meta = {
            "d": self.d,
            "m": self.m,
            "n": self.n,
            "sigma": self.noise_sigma,
        }
        if self.seed is not None:
            meta["seed"] = self.seed
        return meta


def sample(
    unit: ResidualUnit,
    dist: InputDistribution,
    n: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> SampleSet:
    """Draw n i.i.d. samples from the unit, optionally with label noise.

    Deterministic given the seed: inputs are drawn first, then (only when
    sigma > 0) one noise array, so the inputs for a given seed do not
    depend on sigma.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    if dist.dim != unit.d:
        raise DimensionMismatchError(
            f"distribution dimension {dist.dim} != unit dimension {unit.d}"
        )
    rng = make_rng(seed)
    xs = dist.draw(rng, n)
    ys = forward_batch(unit.a, unit.b, xs)
    if noise_sigma > 0:
        ys = ys + rng.normal(0.0, noise_sigma, size=ys.shape)
    return SampleSet(xs=xs, ys=ys, noise_sigma=noise_sigma, seed=seed)


@dataclass(frozen=True)
class NetworkGenSpec:
    """Recipe for drawing a ground-truth unit.

    Layer 1 entries come from a folded Gaussian |N(0, WEIGHT_STD^2)|
    (keeping them nonnegative), layer 2 from N(0, WEIGHT_STD^2). With
    ``require_non_scale_transform`` the draw is rejected until no row of
    the first layer is a scale-transformation row.
    """

    d: int
    m: int
    seed: int
    require_non_scale_transform: bool = False


def generate_unit(spec: NetworkGenSpec) -> ResidualUnit:
    """Draw a teacher satisfying the ResidualUnit invariants.

    Rejection-samples up to GENERATION_RETRY_BUDGET times; failure signals
    a degenerate spec (for instance d=1 with non-scale rows required, which
    is impossible) and raises GenerationFailedError.
    """
    if spec.d < 1 or spec.m < spec.d:
        raise ValueError(f"need d >= 1 and m >= d, got d={spec.d}, m={spec.m}")
    rng = make_rng(spec.seed)
    for _ in range(GENERATION_RETRY_BUDGET):
        a = np.abs(rng.normal(0.0, WEIGHT_STD, size=(spec.d, spec.d)))
        b = rng.normal(0.0, WEIGHT_STD, size=(spec.m, spec.d))
        sv_a = np.linalg.svd(a, compute_uv=False)
        sv_b = np.linalg.svd(b, compute_uv=False)
        if sv_a[-1] < RANK_THRESHOLD * sv_a[0] or sv_b[-1] < RANK_THRESHOLD * sv_b[0]:
            continue
        if spec.require_non_scale_transform and scale_rows(a):
            continue
        return ResidualUnit(a=a, b=b)
    raise GenerationFailedError(
        f"no acceptable teacher after {GENERATION_RETRY_BUDGET} draws for {spec}"
    )


# --- serialization -------------------------------------------------------

def save_unit_json(path, unit: ResidualUnit) -> None:
    payload = {
        "d": unit.d,
        "m": unit.m,
        "a": unit.a.tolist(),
        "b": unit.b.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_unit_json(path) -> ResidualUnit:
    payload = json.loads(Path(path).read_text())
    return ResidualUnit(a=np.array(payload["a"]), b=np.array(payload["b"]))


def save_samples_csv(path, samples: SampleSet) -> None:
    """Write samples as CSV: a ``#`` metadata line, then one x++y row per sample."""
    meta = samples.header()
    parts = [f"d={meta['d']}", f"m={meta['m']}", f"n={meta['n']}", f"sigma={meta['sigma']!r}"]
    if "seed" in meta:
        parts.append(f"seed={meta['seed']}")
    header = "# " + ",".join(parts)
    data = np.hstack([samples.xs, samples.ys])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, data, delimiter=",", fmt="%.17g")


def load_samples_csv(path) -> SampleSet:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing metadata header line")
        fields = {}
        for item in header.lstrip("#").strip().split(","):
            key, _, value = item.partition("=")
            fields[key.strip()] = value.strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    d = int(fields["d"])
    m = int(fields["m"])
    n = int(fields["n"])
    if data.shape != (n, d + m):
        raise ValueError(
            f"{path}: header promises {n}x{d + m} values, found {data.shape}"
        )
    seed = int(fields["seed"]) if "seed" in fields else None
    return SampleSet(
        xs=data[:, :d],
        ys=data[:, d:],
        noise_sigma=float(fields["sigma"]),
        seed=seed,
    )
