"""Point certification and multi-start landscape scans.

`certify_point` classifies a candidate factor by gradient norm, smallest
Hessian eigenvalue, and (when ground truth is available) recovery error.
`landscape_scan` drives a solver from many random starts and certifies every
endpoint, optionally across a thread pool; results are deterministic in the
base seed regardless of thread count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import objective as obj
from . import solvers
from .csvio import write_csv
from .linalg import procrustes_align, singular_extremes
from .rng import derive_seed


class PointClass(str, Enum):
    GLOBAL_MIN = "GlobalMin"
    STRICT_SADDLE = "StrictSaddle"
    SPURIOUS_LOCAL_MIN = "SpuriousLocalMin"
    NOT_STATIONARY = "NotStationary"
    SECOND_ORDER_STATIONARY = "SecondOrderStationary"  # no ground truth available
    UNCERTIFIED = "Uncertified"  # stationary, but the eigensolve did not converge
    CRASHED = "Crashed"  # the start raised; its row has status solver_error


@dataclass(frozen=True)
class CertTolerances:
    """The recovery radius of a classification.

    global_rel: an endpoint within global_rel * ||Z Z^T||_F of the truth
    counts as global, default 1e-2; positive and finite, else a ValueError.
    The stationarity and curvature thresholds come from `certify_point`.
    """

    global_rel: float = 1e-2

    def __post_init__(self):
        # a bad threshold would silently relabel endpoints; `not x > 0` also catches nan
        if not (math.isfinite(self.global_rel) and self.global_rel > 0):
            raise ValueError(f"global_rel must be positive and finite, got {self.global_rel}")


def default_global_rel(gt, obs, noiseless):
    """Relative recovery radius counted as global on this instance.

    `noiseless` when sigma = 0; with noise the endpoint can only be as close
    as the noise floor allows, so the radius is
    max(1e-2, 2 sigma sqrt(d ln d / p) / ||Z Z^T||_F).
    """
    if obs.sigma == 0:
        return noiseless
    d = obs.d
    gram_scale = float(np.linalg.norm(gt.factor.T @ gt.factor))  # = ||Z Z^T||_F
    return max(1e-2, 2.0 * obs.sigma * math.sqrt(d * math.log(d) / obs.p) / gram_scale)


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
    _, smin_z = singular_extremes(Z)
    sigma_ok = bool(smin_x >= 0.25 * smin_z)
    rank1_ok = None
    if Z.shape[1] == 1:
        rank1_ok = bool(X[:, 0] @ X[:, 0] >= 0.25 * (Z[:, 0] @ Z[:, 0]))
    return NormCertificates(rank1_norm_ok=rank1_ok, sigma_min_ok=sigma_ok)


@dataclass(frozen=True, eq=False)
class CertReport:
    classification: PointClass
    f_value: float
    grad_norm: float
    lambda_min: float
    eig_converged: bool | None  # None when no eigensolve ran (a non-finite point)
    eig_iterations: int | None  # Hessian-vector products of the eigensolve
    stationary_tol: float
    tau: float
    recovery_fro: float | None = None
    procrustes_residual: float | None = None
    incoherence_ok: bool | None = None
    sigma_min_ok: bool | None = None
    rank1_norm_ok: bool | None = None


def certify_point(X, cfg, gt=None, tols=None):
    """Classify a candidate point.

    With ground truth: GlobalMin / StrictSaddle / SpuriousLocalMin /
    NotStationary.  Without it the positive classes collapse to
    SecondOrderStationary and recovery fields are None.  A stationary point
    whose eigensolve did not converge is Uncertified instead of a positive
    class, since its lambda_min is only an upper bound; StrictSaddle stands
    either way, its witness direction proving the negative curvature.  A
    point with a non-finite entry, value or gradient (a diverged run) is
    NotStationary with lambda_min nan; no eigensolve or recovery check runs.

    Thresholds: the point is stationary when its gradient norm is at most
    1e-6 * (1 + |f|).  The curvature slack tau is cfg.hyper.tau, or
    1e-4 * (1 + ||H||) when that is 0, with ||H|| the eigensolve's norm
    estimate; lambda_min < -tau marks a strict saddle.  `tols.global_rel`
    sets the recovery radius.
    """
    X = np.asarray(X, dtype=float)
    tols = tols or CertTolerances()
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged endpoint is NotStationary below
        bdown, G = obj.value_and_gradient(X, cfg)
        gn = float(np.linalg.norm(G))
    stat_tol = 1e-6 * (1.0 + abs(bdown.total))
    if not (np.isfinite(X).all() and math.isfinite(bdown.total) and math.isfinite(gn)):
        return CertReport(
            classification=PointClass.NOT_STATIONARY,
            f_value=bdown.total,
            grad_norm=gn,
            lambda_min=math.nan,
            eig_converged=None,
            eig_iterations=None,
            stationary_tol=stat_tol,
            tau=math.nan,
        )
    eig = obj.min_hessian_eig(X, cfg)
    tau = cfg.hyper.tau if cfg.hyper.tau > 0 else 1e-4 * (1.0 + eig.op_norm)

    rec = proc = None
    inc_ok = sig_ok = r1_ok = None
    if gt is not None:
        err = recovery_error(X, gt)
        rec, proc = err.gram_fro, err.procrustes_residual
        inc_ok = incoherence_certificate(X, cfg, gt)
        certs = norm_certificates(X, gt)
        sig_ok, r1_ok = certs.sigma_min_ok, certs.rank1_norm_ok

    if gn > stat_tol:
        cls = PointClass.NOT_STATIONARY
    elif eig.lambda_min < -tau:
        cls = PointClass.STRICT_SADDLE
    elif not eig.converged:
        cls = PointClass.UNCERTIFIED
    elif gt is None:
        cls = PointClass.SECOND_ORDER_STATIONARY
    else:
        gram_scale = float(np.linalg.norm(gt.factor.T @ gt.factor))  # = ||Z Z^T||_F
        cls = (
            PointClass.GLOBAL_MIN
            if rec <= tols.global_rel * gram_scale
            else PointClass.SPURIOUS_LOCAL_MIN
        )

    return CertReport(
        classification=cls,
        f_value=bdown.total,
        grad_norm=gn,
        lambda_min=eig.lambda_min,
        eig_converged=eig.converged,
        eig_iterations=eig.iterations,
        stationary_tol=stat_tol,
        tau=tau,
        recovery_fro=rec,
        procrustes_residual=proc,
        incoherence_ok=inc_ok,
        sigma_min_ok=sig_ok,
        rank1_norm_ok=r1_ok,
    )


@dataclass(frozen=True, eq=False)
class ScanRow:
    start_seed: int
    status: str
    f_final: float
    grad_norm: float
    lambda_min: float
    recovery_fro: float | None
    procrustes: float | None
    incoherence_ok: bool | None
    sigma_min_ok: bool | None
    rank1_norm_ok: bool | None
    classification: PointClass
    eig_converged: bool | None = None  # None for a crashed start or a non-finite endpoint
    eig_iterations: int | None = None
    error: str | None = None  # "<ExcType>: <message>" of a crashed start; not in scan.csv


# the scan.csv header: the ScanRow fields in order, without the crash message
SCAN_COLUMNS = tuple(f.name for f in fields(ScanRow) if f.name != "error")


@dataclass(frozen=True, eq=False)
class ScanSummary:
    counts: dict  # PointClass -> number of rows; the counts sum to len(rows)
    worst_recovery: float  # max recovery_fro over stationary endpoints (nan if none)
    rows: tuple


def map_in_order(fn, items, threads):
    """[fn(x) for x in items], computed by up to `threads` worker threads.

    Results keep the order of `items`, so output never depends on the
    thread count.  With one thread this is a plain loop on the calling
    thread, where signal handlers (a timing probe's SIGALRM) still run.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _scan_one(index, gt, obs, cfg, scfg, base_seed, tols):
    seed_k = derive_seed(base_seed, "scan-start", index)
    try:
        X0 = solvers.random_init(obs.d, gt.rank, obs, seed_k)
        scfg_k = replace(scfg, seed=seed_k)
        res = solvers.solve(cfg, scfg_k, X0)
        rep = certify_point(res.X, cfg, gt, tols)
        if rep.classification is PointClass.SPURIOUS_LOCAL_MIN:
            # re-polish before reporting: a 10x tighter descent can clear
            # endpoints that merely stopped early
            base_tol = scfg.grad_tol if scfg.grad_tol is not None else 1e-8 * (1.0 + res.f)
            tight = replace(scfg_k, method=solvers.Method.GD, grad_tol=base_tol / 10.0)
            res2 = solvers.gradient_descent(cfg, tight, res.X)
            rep2 = certify_point(res2.X, cfg, gt, tols)
            res, rep = res2, rep2
        return ScanRow(
            start_seed=seed_k,
            status=res.status.value,
            f_final=res.f,
            grad_norm=rep.grad_norm,
            lambda_min=rep.lambda_min,
            recovery_fro=rep.recovery_fro,
            procrustes=rep.procrustes_residual,
            incoherence_ok=rep.incoherence_ok,
            sigma_min_ok=rep.sigma_min_ok,
            rank1_norm_ok=rep.rank1_norm_ok,
            classification=rep.classification,
            eig_converged=rep.eig_converged,
            eig_iterations=rep.eig_iterations,
        )
    except Exception as exc:
        # a failed start is reported, never allowed to abort the scan
        return ScanRow(
            start_seed=seed_k,
            status="solver_error",
            f_final=float("nan"),
            grad_norm=float("nan"),
            lambda_min=float("nan"),
            recovery_fro=None,
            procrustes=None,
            incoherence_ok=None,
            sigma_min_ok=None,
            rank1_norm_ok=None,
            classification=PointClass.CRASHED,
            error=f"{type(exc).__name__}: {exc}",
        )


def landscape_scan(gt, obs, hyper, scfg, n_starts, base_seed, tols=None, threads=1):
    """Solve from n_starts random inits of the ground-truth rank and certify
    every endpoint.

    Start k uses a seed derived from (base_seed, k), so the outcome is a pure
    function of the arguments; the thread count only changes wall time.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    cfg = obj.ObjectiveConfig(hyper, obs)
    tols = tols or CertTolerances()
    rows = map_in_order(
        lambda k: _scan_one(k, gt, obs, cfg, scfg, base_seed, tols), range(n_starts), threads
    )

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
