"""Point certification and multi-start landscape scans.

`certify_point` classifies a candidate factor by gradient norm, smallest
Hessian eigenvalue, and recovery error against the ground truth.
`solve_and_certify`, the one path from a seeded random start to a row, solves
and certifies it; `mcland solve` runs it once and `landscape_scan` once per
start, in one loop on the calling thread.  A row is the certificate of the
endpoint plus the start's seed and solver status.  A scan's base seed seeds
every start, so its results are deterministic in it.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import objective as obj
from . import solvers
from .csvio import field_value, store_fields, write_csv
from .linalg import procrustes_align, singular_extremes
from .rng import check_seed, derive_seed


class PointClass(str, Enum):
    GLOBAL_MIN = "GlobalMin"
    STRICT_SADDLE = "StrictSaddle"
    SPURIOUS_LOCAL_MIN = "SpuriousLocalMin"
    NOT_STATIONARY = "NotStationary"
    UNCERTIFIED = "Uncertified"  # stationary, but the eigensolve did not converge
    CRASHED = "Crashed"  # the start raised; its row has status solver_error


@dataclass(frozen=True)
class CertTolerances:
    """The recovery radius of a classification.

    global_rel: an endpoint within global_rel * ||Z Z^T||_F of the truth
    counts as global; positive and finite, else a ValueError.  None, the
    default, is the instance's rule, so `CertTolerances()` and no tolerances
    certify alike.  Stationarity and curvature thresholds are `certify_point`'s.
    """

    global_rel: float | None = None

    def __post_init__(self):
        store_fields(self)
        # a bad threshold would silently relabel endpoints; `not x > 0` also catches nan
        if self.global_rel is not None and not (math.isfinite(self.global_rel) and self.global_rel > 0):
            raise ValueError(f"global_rel must be positive and finite, got {self.global_rel}")

    def radius(self, gt, obs):
        """The relative recovery radius that decides a label on this instance."""
        return default_global_rel(gt, obs) if self.global_rel is None else self.global_rel


def default_global_rel(gt, obs):
    """Relative recovery radius counted as global on this instance.

    max(1e-2, 2 sigma sqrt(d ln d / p) / ||Z Z^T||_F): 1e-2 without noise,
    and with noise the noise floor, since the endpoint can only be as close
    as the noise allows.  At p = 0 no entry, so no noise, is observed.
    """
    if obs.p == 0:
        return 1e-2
    d = obs.d
    return max(1e-2, 2.0 * obs.sigma * math.sqrt(d * math.log(d) / obs.p) / gt.gram_fro)


@dataclass(frozen=True)
class RecoveryError:
    gram_fro: float             # ||X X^T - Z Z^T||_F
    procrustes_residual: float  # min_R ||X - Z R||_F


def recovery_error(X, gt):
    """Distance of X X^T from the ground-truth Gram, plus aligned factor distance.

    X X^T - Z Z^T = B C B^T for B = [X  Z] and C = diag(I_r, -I_r); with
    B = Q R the Frobenius norm equals ||R C R^T||_F, a (2r) x (2r)
    computation.  No d x d product is formed, and the small-matrix
    subtraction stays accurate when the difference is tiny.
    """
    X = np.asarray(X, dtype=float)
    Z = gt.factor
    if X.shape != Z.shape:
        raise ValueError(f"dimension mismatch: X is {X.shape}, ground truth is {Z.shape}")
    r = Z.shape[1]
    B = np.concatenate([X, Z], axis=1)
    R = np.linalg.qr(B, mode="r")
    C = np.ones(2 * r)
    C[r:] = -1.0
    S = (R * C) @ R.T
    gram_fro = float(np.linalg.norm(S))
    return RecoveryError(gram_fro=gram_fro, procrustes_residual=procrustes_align(X, Z).residual)


def incoherence_certificate(X, cfg, gt):
    """Row-norm bound every first-order stationary point must satisfy.

    max_i ||X_i|| <= 4 * max(alpha, mu * sqrt(r * p / weight)); trivially true
    when the penalty weight is 0 (the bound degenerates).
    """
    X = np.asarray(X, dtype=float)
    hyper = cfg.hyper
    if hyper.reg_weight == 0:
        return True
    r = X.shape[1]
    p = cfg.obs.p
    bound = 4.0 * max(hyper.alpha, gt.incoherence * math.sqrt(r * p / hyper.reg_weight))
    max_row = float(np.sqrt((X * X).sum(axis=1).max()))
    return max_row <= bound


@dataclass(frozen=True)
class NormCertificates:
    rank1_norm_ok: bool | None  # ||x||^2 >= ||z||^2 / 4; None unless r == 1
    sigma_min_ok: bool          # sigma_min(X) >= sigma_min(Z) / 4


def norm_certificates(X, gt):
    """Scale lower bounds expected of approximate second-order points."""
    X = np.asarray(X, dtype=float)
    Z = gt.factor
    if X.shape != Z.shape:
        raise ValueError(f"dimension mismatch: X is {X.shape}, ground truth is {Z.shape}")
    _, smin_x = singular_extremes(X)
    sigma_ok = bool(smin_x >= 0.25 * gt.sigma_min)
    rank1_ok = None
    if Z.shape[1] == 1:
        rank1_ok = bool(X[:, 0] @ X[:, 0] >= 0.25 * (Z[:, 0] @ Z[:, 0]))
    return NormCertificates(rank1_norm_ok=rank1_ok, sigma_min_ok=sigma_ok)


@dataclass(frozen=True, eq=False, kw_only=True)
class CertReport:
    """The certificate of one point.

    A field with no value is nan or None: the eigensolve and recovery
    fields where no eigensolve ran (a non-finite point), and every field but
    the class for a start that crashed.
    """

    classification: PointClass
    f_value: float = math.nan
    grad_norm: float = math.nan
    lambda_min: float = math.nan
    eig_converged: bool | None = None
    eig_iterations: int | None = None  # Hessian-vector products of the eigensolve (1 on the dense route)
    stationary_tol: float = math.nan
    tau: float = math.nan
    recovery_fro: float | None = None
    procrustes_residual: float | None = None
    incoherence_ok: bool | None = None
    sigma_min_ok: bool | None = None
    rank1_norm_ok: bool | None = None
    global_rel: float = math.nan  # the recovery radius the label was decided by


def certify_point(X, cfg, gt, tols=None, eig=None):
    """Classify a candidate point against the ground truth `gt`.

    GlobalMin / StrictSaddle / SpuriousLocalMin / NotStationary.  A
    stationary point whose eigensolve did not converge is Uncertified
    instead of GlobalMin or SpuriousLocalMin, since its lambda_min is only
    an upper bound; StrictSaddle stands either way, its witness direction
    proving the negative curvature.  A point with a non-finite entry, value
    or gradient (a diverged run) is NotStationary with lambda_min nan; no
    eigensolve or recovery check runs.

    Thresholds: the point is stationary when its gradient norm is at most
    1e-6 * (1 + |f|).  lambda_min < -tau marks a strict saddle, with tau
    from `objective.curvature_slack`.  The recovery radius is
    `CertTolerances.radius` (no `tols` is `CertTolerances()`), kept as the
    report's `global_rel`.  A given `eig`, the `min_hessian_eig(X, cfg)` a
    solver ran at X (`SolveResult.eig`), is used instead of solving again.

    The curvature guarantee follows the eigensolve's route.  Up to
    d * r = `objective._DENSE_MAX` it is one dense solve of the assembled
    Hessian: a converged lambda_min is the smallest eigenvalue to rounding,
    and `eig_iterations` is 1.  Above it a Lanczos run puts lambda_min
    within 1e-6 * (1 + ||H||) of some eigenvalue, not provably the
    smallest, and the labels rest on tau being far above that tolerance.
    """
    X = np.asarray(X, dtype=float)
    global_rel = (tols or CertTolerances()).radius(gt, cfg.obs)
    # one residual pass for the value, gradient and eigensolve; a diverged point is NotStationary below
    resid, bdown, _, gn = obj.evaluate(X, cfg)
    rep = CertReport(
        classification=PointClass.NOT_STATIONARY,
        f_value=bdown.total,
        grad_norm=gn,
        stationary_tol=1e-6 * (1.0 + abs(bdown.total)),
        global_rel=global_rel,
    )
    if not (np.isfinite(X).all() and math.isfinite(bdown.total) and math.isfinite(gn)):
        return rep
    eig = eig or obj.min_hessian_eig(X, cfg, resid)
    tau = obj.curvature_slack(cfg, eig.op_norm)

    err = recovery_error(X, gt)
    certs = norm_certificates(X, gt)

    if gn > rep.stationary_tol:
        cls = PointClass.NOT_STATIONARY
    elif eig.lambda_min < -tau:
        cls = PointClass.STRICT_SADDLE
    elif not eig.converged:
        cls = PointClass.UNCERTIFIED
    elif err.gram_fro <= global_rel * gt.gram_fro:
        cls = PointClass.GLOBAL_MIN
    else:
        cls = PointClass.SPURIOUS_LOCAL_MIN

    return replace(
        rep,
        classification=cls,
        lambda_min=eig.lambda_min,
        eig_converged=eig.converged,
        eig_iterations=eig.iterations,
        tau=tau,
        recovery_fro=err.gram_fro,
        procrustes_residual=err.procrustes_residual,
        incoherence_ok=incoherence_certificate(X, cfg, gt),
        sigma_min_ok=certs.sigma_min_ok,
        rank1_norm_ok=certs.rank1_norm_ok,
    )


@dataclass(frozen=True, eq=False, kw_only=True)
class ScanRow(CertReport):
    """The certificate of one scan start's endpoint, plus the start.

    `status` is the solver's, or "solver_error" for a start that raised;
    `error` is then "<ExcType>: <message>", which scan.csv does not carry.
    """

    start_seed: int
    status: str
    error: str | None = None

    @property
    def f_final(self):
        return self.f_value

    @property
    def procrustes(self):
        return self.procrustes_residual


# the scan.csv header; f_final and procrustes are ScanRow's names for the
# certificate's f_value and procrustes_residual
SCAN_COLUMNS = (
    "start_seed", "status", "f_final", "grad_norm", "lambda_min", "recovery_fro", "procrustes",
    "incoherence_ok", "sigma_min_ok", "rank1_norm_ok", "classification", "eig_converged",
    "eig_iterations",
)


@dataclass(frozen=True, eq=False)
class ScanSummary:
    counts: dict  # PointClass -> number of rows; the counts sum to len(rows)
    worst_recovery: float  # max recovery_fro over stationary endpoints (nan if none)
    rows: tuple


def _count(name, value):
    """`value` as a count: an int field's value by `csvio.field_value`, at least 1."""
    value = field_value(name, value, int)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def solve_and_certify(cfg, gt, scfg, tols=None):
    """(SolveResult, ScanRow) of one start: `solve` from `random_init` at scfg.seed, then
    `certify_point` with the solver's eigensolve.  What the start raises propagates."""
    res = solvers.solve(cfg, scfg, solvers.random_init(gt.d, gt.rank, cfg.obs, scfg.seed))
    rep = certify_point(res.X, cfg, gt, tols, res.eig)
    return res, ScanRow(**vars(rep), start_seed=scfg.seed, status=res.status.value)


def _scan_one(index, gt, cfg, scfg, base_seed, tols):
    seed_k = derive_seed(base_seed, "scan-start", index)
    try:
        return solve_and_certify(cfg, gt, replace(scfg, seed=seed_k), tols)[1]
    except Exception as exc:
        # a failed start is reported, never allowed to abort the scan
        return ScanRow(
            classification=PointClass.CRASHED,
            start_seed=seed_k,
            status="solver_error",
            error=f"{type(exc).__name__}: {exc}",
        )


def landscape_scan(gt, obs, hyper, scfg, n_starts, base_seed, tols=None, threads=1):
    """Solve from n_starts random inits of the ground-truth rank and certify
    every endpoint.

    Start k is `solve_and_certify` at a seed derived from (base_seed, k), so the outcome
    is a pure function of the arguments.  The starts run in order on the calling thread.
    `tols` (None: the instance's radius) goes to `certify_point`.  Before any start it refuses
    an `n_starts` that is no count (`_count`), a `threads` other than 1, a `base_seed` that
    `check_seed` refuses, an scfg.seed other than 0, which no start would use, a `tols` of
    another type, a `gt` of another d than `obs`, and an empty mask (`ObjectiveConfig`).

    `threads` selects nothing: it is kept because `perfbench/workloads.py` passes
    `threads=1`, and goes with that argument in ROADMAP direction 4's benchmark change.
    """
    n_starts = _count("n_starts", n_starts)
    if _count("threads", threads) != 1:
        raise ValueError(f"threads must be 1, got {threads}: a scan runs its starts on the calling thread")
    check_seed(base_seed, "base_seed")
    if scfg.seed != 0:
        raise ValueError(f"seed must be 0 in a scan, got {scfg.seed}: base_seed seeds every start")
    tols = field_value("tols", tols, CertTolerances | None)
    if gt.d != obs.d:
        raise ValueError(f"dimension mismatch: factor has d={gt.d}, instance has d={obs.d}")
    cfg = obj.ObjectiveConfig(hyper, obs)
    rows = [_scan_one(k, gt, cfg, scfg, base_seed, tols) for k in range(n_starts)]

    counts = {c: 0 for c in PointClass}
    worst = float("nan")
    for row in rows:
        counts[row.classification] += 1
        if row.classification is not PointClass.NOT_STATIONARY and row.recovery_fro is not None:
            worst = row.recovery_fro if math.isnan(worst) else max(worst, row.recovery_fro)
    return ScanSummary(counts=counts, worst_recovery=worst, rows=tuple(rows))


def scan_to_csv(summary, stream=None):
    """Scan rows as CSV in start order; returns text when no stream given."""
    rows = ([getattr(row, col) for col in SCAN_COLUMNS] for row in summary.rows)
    return write_csv(SCAN_COLUMNS, rows, stream)
