"""Monte-Carlo checks of the sampling concentration bounds.

Each trial draws a fresh symmetric Bernoulli(p) mask plus random test
matrices, measures the deviation the corresponding bound controls, and
records it next to the bound's predicted scale (constants dropped).  The
target is the (pd)^(-1/2) decay of the normalized deviation, not the
absolute constants: `fit_scaling` fits the log-log slope across a p grid.

Kinds and their deviations (Omega the sampled entry set, all sums over
stored ordered pairs):

  inner_product:  |<P(W), P(Z)> - p <W, Z>|         W, Z random rank-r
  cubic_term:     ||P(X X^T) X - p X X^T X||_F       X a random d x r factor
  spectral:       ||P(W) - p W||_2                   W random rank-r
  noise_inner:    |<P(N), P(W)>|                     N iid Gaussian(sigma)
  noise_spectral: ||P(N)||_2

Spectral norms are exact dense 2-norms (`np.linalg.norm(A, 2)`, an SVD).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .csvio import store_fields, write_csv
from .instance import sample_mask
from .linalg import row_incoherence
from .rng import check_seed, derive_seed, substream

CONC_COLUMNS = ("kind", "d", "r", "p", "nu", "sigma", "trial", "deviation", "predicted_scale")


class Kind(str, Enum):
    INNER_PRODUCT = "inner_product"
    CUBIC_TERM = "cubic_term"
    SPECTRAL = "spectral"
    NOISE_INNER = "noise_inner"
    NOISE_SPECTRAL = "noise_spectral"


@dataclass(frozen=True)
class ConcentrationTrial:
    """Specification of one Monte-Carlo cell (fixed kind, d, r, p, sigma)."""

    kind: Kind
    d: int
    p: float
    r: int = 1
    sigma: float = 1.0
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        store_fields(self)
        if self.d <= 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not 1 <= self.r <= self.d:
            raise ValueError(f"need 1 <= r <= d, got r={self.r}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class TrialRecord:
    trial: int
    deviation: float
    nu: float  # measured row incoherence of the sampled matrix (nan if none)
    predicted_scale: float


@dataclass(frozen=True, eq=False)
class TrialResult:
    spec: ConcentrationTrial
    records: tuple

    @property
    def median_normalized(self):
        """Median of deviation / (sqrt(pd) * predicted): ~ c * (pd)^(-1/2) when the bound is tight."""
        pd = self.spec.p * self.spec.d
        vals = [
            rec.deviation / (math.sqrt(pd) * rec.predicted_scale)
            for rec in self.records
            if rec.predicted_scale > 0
        ]
        return float(np.median(vals)) if vals else float("nan")


def _sample_rank_r(d, r, rng):
    """Random rank-r d x d matrix, product of Gaussian factors, ||W||_F = 1."""
    W = (rng.standard_normal((d, r)) @ rng.standard_normal((r, d))) / d
    return W / np.linalg.norm(W)


# --- deviation kernels ----------------------------------------------------
# All kernels take a dense 0/1 indicator so the p = 1 case cancels bit-exactly:
# the masked quantity and its full counterpart are the same floats.

def deviation_inner_product(W, Z, indicator, p):
    E = W * Z
    return abs(float(np.sum(E * indicator)) - p * float(np.sum(E)))


def deviation_cubic(X, indicator, p):
    G = X @ X.T
    D = (G * indicator - p * G) @ X
    return float(np.linalg.norm(D))


def deviation_spectral(W, indicator, p):
    return float(np.linalg.norm(W * indicator - p * W, 2))


def deviation_noise_inner(N, W, indicator, p):
    return abs(float(np.sum(N * W * indicator)))


def deviation_noise_spectral(N, indicator, p):
    return float(np.linalg.norm(N * indicator, 2))


def _sqrt_per_budget(x, p, d):
    # sqrt(x / (p d)), the (pd)^(-1/2) factor of a bound; 0 when nothing is sampled
    return math.sqrt(x / (p * d)) if p > 0 else 0.0


def run_concentration(spec):
    """Run the Monte-Carlo cell; deterministic in spec.seed."""
    kind, d, r, p, sigma = spec.kind, spec.d, spec.r, spec.p, spec.sigma
    logd = math.log(d)
    records = []
    for t in range(spec.trials):
        rng = substream(spec.seed, "trial", t)
        mask = sample_mask(d, p, include_diagonal=True, seed=derive_seed(spec.seed, "mask", t))
        ind = mask.indicator()
        # deviation and the bound's right-hand side with absolute constants dropped
        if kind is Kind.INNER_PRODUCT:
            W = _sample_rank_r(d, r, rng)
            Z = _sample_rank_r(d, r, rng)
            nu = row_incoherence(W)
            dev = deviation_inner_product(W, Z, ind, p)
            w_inf, z_inf = float(np.abs(W).max()), float(np.abs(Z).max())
            w_fro, z_fro = float(np.linalg.norm(W)), float(np.linalg.norm(Z))
            pred = math.sqrt(p * d * r * w_inf * z_inf * w_fro * z_fro * logd)
        elif kind is Kind.CUBIC_TERM:
            X = rng.standard_normal((d, r))
            X /= np.linalg.norm(X)
            nu = row_incoherence(X)
            dev = deviation_cubic(X, ind, p)
            pred = p * _sqrt_per_budget(nu**6 * r, p, d) * float(np.linalg.norm(X)) ** 3
        elif kind is Kind.SPECTRAL:
            W = _sample_rank_r(d, r, rng)
            nu = row_incoherence(W)
            dev = deviation_spectral(W, ind, p)
            pred = p * float(np.linalg.norm(W)) * nu * _sqrt_per_budget(logd, p, d)
        elif kind is Kind.NOISE_INNER:
            W = _sample_rank_r(d, r, rng)
            N = sigma * rng.standard_normal((d, d))
            nu = row_incoherence(W)
            dev = deviation_noise_inner(N, W, ind, p)
            w_inf, w_fro = float(np.abs(W).max()), float(np.linalg.norm(W))
            pred = sigma * d * math.sqrt(p * r * w_inf * w_fro * logd)
        else:  # Kind.NOISE_SPECTRAL
            N = sigma * rng.standard_normal((d, d))
            nu = float("nan")
            dev = deviation_noise_spectral(N, ind, p)
            pred = p * sigma * d * _sqrt_per_budget(logd, p, d)
        records.append(TrialRecord(trial=t, deviation=dev, nu=nu, predicted_scale=pred))
    return TrialResult(spec=spec, records=tuple(records))


@dataclass(frozen=True)
class ScalingFit:
    slope: float | None
    intercept: float | None
    r2: float | None
    degenerate: bool


def fit_scaling(points):
    """Least-squares slope of log(deviation) against log(pd).

    `points` is a sequence of (pd, deviation) with deviations already
    normalized by the non-(pd) factors.  Requires at least 4 grid points
    spanning a factor of 8 in pd.  Non-positive, NaN or flat data is
    flagged degenerate instead of fitted.
    """
    pts = [(float(a), float(b)) for a, b in points]
    if not pts:
        raise ValueError("need at least one grid point")
    xs = np.array([a for a, _ in pts])
    ys = np.array([b for _, b in pts])
    if xs.min() <= 0:
        raise ValueError("pd values must be positive")
    # Degenerate data dominates the grid preconditions: a single all-zero
    # point is reported as degenerate, not as a too-small grid.  NaN, a
    # median normalized by a predicted scale of 0, fails the test too.
    if not np.all(ys > 0):
        return ScalingFit(slope=None, intercept=None, r2=None, degenerate=True)
    lx, ly = np.log(xs), np.log(ys)
    if float(np.var(ly)) < 1e-24:
        return ScalingFit(slope=None, intercept=None, r2=None, degenerate=True)
    if len(pts) < 4:
        raise ValueError(f"need at least 4 grid points, got {len(pts)}")
    if xs.max() / xs.min() < 8.0:
        raise ValueError(f"pd grid must span at least 8x, got {xs.max() / xs.min():.3g}x")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return ScalingFit(slope=float(slope), intercept=float(intercept), r2=float(r2), degenerate=False)


def trials_to_csv(results, stream=None):
    """Per-trial rows for a list of TrialResult, in given order."""
    rows = (
        [
            res.spec.kind,
            res.spec.d,
            res.spec.r,
            float(res.spec.p),
            None if math.isnan(rec.nu) else rec.nu,
            float(res.spec.sigma),
            rec.trial,
            rec.deviation,
            rec.predicted_scale,
        ]
        for res in results
        for rec in res.records
    )
    return write_csv(CONC_COLUMNS, rows, stream)
