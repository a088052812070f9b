"""Layer-wise learning of two-layer ReLU residual units by convex programming.

The model is y = B [(A x)^+ + x] with entrywise-nonnegative square A and a
full-column-rank B. Both layers reduce to convex programs whose solutions
match the teacher up to per-row scale, and the scale is recovered by linear
regression on the samples where the relation is exactly linear. See
``layer2`` and ``layer1`` for the programs, ``baselines`` for the vanilla
two-orthant regression and SGD references, and ``evaluation`` for the
experiment harness.
"""

from .baselines import (
    SgdConfig,
    SgdResult,
    VanillaLrResult,
    expected_sample_bound,
    sgd_train,
    vanilla_lr,
)
from .errors import (
    DegenerateRowError,
    DimensionMismatchError,
    GenerationFailedError,
    LpShapeError,
    NonFiniteError,
    RankDeficientError,
    ReslearnError,
    SingularCHatError,
    SolverFailedError,
)
from .evaluation import (
    ErrorReport,
    TrialCell,
    TrialRow,
    full_pipeline,
    relative_errors,
    run_trial,
    success_rate,
)
from .layer1 import HiddenSampleSet, Layer1Estimate, learn_layer1
from .layer2 import Layer2Estimate, learn_layer2
from .methods import ConvexMethod
from .model import (
    GaussianIid,
    GaussUniformMixture,
    NetworkGenSpec,
    ResidualUnit,
    SampleSet,
    derive_seed,
    forward_batch,
    generate_unit,
    load_samples_csv,
    load_unit_json,
    sample,
    save_samples_csv,
    save_unit_json,
    standard_mixture,
)
from .solver import (
    LpProblem,
    QpProblem,
    SolveReport,
    SolveStatus,
    solve_lp,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexMethod",
    "DegenerateRowError",
    "DimensionMismatchError",
    "ErrorReport",
    "GaussUniformMixture",
    "GaussianIid",
    "GenerationFailedError",
    "HiddenSampleSet",
    "Layer1Estimate",
    "Layer2Estimate",
    "LpProblem",
    "LpShapeError",
    "NetworkGenSpec",
    "NonFiniteError",
    "QpProblem",
    "RankDeficientError",
    "ResidualUnit",
    "ReslearnError",
    "SampleSet",
    "SgdConfig",
    "SgdResult",
    "SingularCHatError",
    "SolveReport",
    "SolveStatus",
    "SolverFailedError",
    "TrialCell",
    "TrialRow",
    "VanillaLrResult",
    "derive_seed",
    "expected_sample_bound",
    "forward_batch",
    "full_pipeline",
    "generate_unit",
    "learn_layer1",
    "learn_layer2",
    "load_samples_csv",
    "load_unit_json",
    "relative_errors",
    "run_trial",
    "sample",
    "save_samples_csv",
    "save_unit_json",
    "solve_lp",
    "standard_mixture",
    "success_rate",
    "vanilla_lr",
]
