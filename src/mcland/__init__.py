"""Low-rank positive semidefinite matrix completion via factored gradient
methods, with endpoint certification and concentration experiments.

The package builds symmetric observation instances, evaluates a regularized
least-squares objective over factor matrices, runs first-order solvers
(Armijo gradient descent, minibatch SGD, perturbed gradient descent),
classifies solver endpoints using gradient and Hessian information, and
measures how sampled-deviation statistics scale with the observation rate.
"""

from .certify import (
    CertReport,
    CertTolerances,
    PointClass,
    RecoveryError,
    ScanRow,
    ScanSummary,
    certify_point,
    incoherence_certificate,
    landscape_scan,
    norm_certificates,
    recovery_error,
    scan_to_csv,
)
from .concentration import (
    ConcentrationTrial,
    Kind,
    ScalingFit,
    TrialRecord,
    TrialResult,
    fit_scaling,
    run_concentration,
    trials_to_csv,
)
from .instance import (
    GroundTruth,
    HyperParams,
    InstanceSpec,
    Observation,
    default_hyperparams,
    observe,
    sample_factor,
    sample_mask,
)
from .linalg import (
    ObservationMask,
    ProcrustesResult,
    SingularExtremes,
    procrustes_align,
    row_incoherence,
    singular_extremes,
)
from .objective import (
    EigResult,
    EvalBreakdown,
    ObjectiveConfig,
    hessian_operator,
    min_hessian_eig,
    regularizer,
)
from .rng import derive_seed, substream
from .solvers import (
    Method,
    SgdParams,
    SolveResult,
    SolverConfig,
    Status,
    TraceRow,
    random_init,
    solve,
    stochastic_gradient,
    trace_to_csv,
)

__version__ = "0.1.0"
