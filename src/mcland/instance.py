"""Problem instances: ground-truth factors, observation masks, observed values.

An instance is a symmetric PSD matrix M = Z Z^T (optionally plus symmetric
Gaussian noise) observed on a symmetric random set of entries.  The mask
stores each observed pair once, as (i, j) with i <= j, and the observation
holds one value per stored pair, so symmetry holds by construction; the
mask's `n_pairs` still counts |Omega| with both orders.  Everything is
regenerable bit-exactly from a small JSON-compatible record; masks and
values are never serialized.
"""

import json
from dataclasses import dataclass, asdict

import numpy as np

from .linalg import ObservationMask, row_incoherence, singular_extremes
from .rng import substream

_FACTOR_RETRIES = 10


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """A d x r factor together with its measured conditioning constants.

    `incoherence` is the tight row-spread constant sqrt(d) * max_i ||Z_i|| /
    ||Z||_F (always >= 1, equal to 1 iff all rows have equal norm);
    `condition_number` is sigma_max(Z) / sigma_min(Z).
    """

    factor: np.ndarray
    incoherence: float
    condition_number: float

    def __post_init__(self):
        Z = np.ascontiguousarray(self.factor, dtype=float)
        if Z.ndim != 2:
            raise ValueError(f"factor must be 2-d, got shape {Z.shape}")
        d, r = Z.shape
        if not 1 <= r <= d:
            raise ValueError(f"factor must satisfy 1 <= r <= d, got shape {Z.shape}")
        Z.setflags(write=False)
        object.__setattr__(self, "factor", Z)

    @classmethod
    def from_factor(cls, Z):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2:
            raise ValueError(f"factor must be 2-d, got shape {Z.shape}")
        smax, smin = singular_extremes(Z)
        if smin <= 0.0:
            raise ValueError("factor is rank deficient (sigma_min = 0)")
        return cls(factor=Z, incoherence=row_incoherence(Z), condition_number=float(smax / smin))

    @property
    def d(self):
        return self.factor.shape[0]

    @property
    def rank(self):
        return self.factor.shape[1]

    def gram(self):
        """Dense M = Z Z^T, bitwise symmetric: the upper triangle is mirrored."""
        G = self.factor @ self.factor.T
        return np.triu(G) + np.triu(G, 1).T


@dataclass(frozen=True, eq=False)
class Observation:
    """Observed values of M on a mask, one float per stored pair.

    `values[k]` is the observation at (mask.i[k], mask.j[k]) and, the matrix
    being symmetric, at (mask.j[k], mask.i[k]).  `sigma` is the noise level
    the values were drawn with, `p` the nominal sampling probability.
    """

    mask: ObservationMask
    values: np.ndarray
    sigma: float
    p: float

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.mask.i.shape:
            raise ValueError(
                f"values length {vals.shape} does not match mask with {self.mask.i.size} stored pairs"
            )
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def d(self):
        return self.mask.d


def sample_factor(d, r, scale, seed):
    """Ground-truth factor with iid N(0, scale^2/d) entries.

    Resamples from a perturbed substream if the draw is rank deficient
    (essentially impossible for Gaussian draws, but guarded); fails after
    a fixed number of retries.
    """
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    for attempt in range(_FACTOR_RETRIES):
        rng = substream(seed, "factor", attempt)
        Z = rng.standard_normal((d, r)) * (scale / np.sqrt(d))
        _, smin = singular_extremes(Z)
        if smin > 0.0:
            return GroundTruth.from_factor(Z)
    raise RuntimeError(f"sample_factor: rank-deficient draw {_FACTOR_RETRIES} times in a row (d={d}, r={r})")


def sample_mask(d, p, include_diagonal=True, *, seed):
    """Symmetric Bernoulli(p) mask from one d x d uniform draw U: pair (i, j),
    i <= j, is observed when U_ij < p (i = j only with `include_diagonal`)."""
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    U = substream(seed, "mask").random((d, d))
    i, j = np.nonzero(np.triu(U < p, 0 if include_diagonal else 1))
    return ObservationMask(d=d, i=i, j=j, p=float(p))


def observe(gt, mask, sigma, seed):
    """Observed values of Z Z^T (+ Gaussian noise) on the stored pairs.

    Noise is N(0, sigma^2), one draw per pair: entry (i, j), i <= j, of a
    d x d standard normal draw.
    """
    if gt.d != mask.d:
        raise ValueError(f"dimension mismatch: factor has d={gt.d}, mask has d={mask.d}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    Z = gt.factor
    values = (Z @ Z.T)[mask.i, mask.j]
    if sigma > 0:
        G = substream(seed, "noise").standard_normal((gt.d, gt.d))
        values += sigma * G[mask.i, mask.j]
    return Observation(mask=mask, values=values, sigma=float(sigma), p=mask.p)


@dataclass(frozen=True)
class HyperParams:
    """Regularizer threshold, penalty weight, and curvature slack.

    alpha: row norms below alpha are unpenalized.
    reg_weight: multiplier on the row-norm penalty in the objective.
    tau: slack used when testing the smallest Hessian eigenvalue against 0.
    """

    alpha: float
    reg_weight: float
    tau: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.reg_weight < 0:
            raise ValueError(f"reg_weight must be non-negative, got {self.reg_weight}")
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")


def default_hyperparams(gt, p, rank_one=None):
    """Hyperparameters matched to a ground truth and sampling probability.

    rank-one setting:  alpha = 10 mu / sqrt(d),        weight = mu^2 p / alpha^2
    general setting:   alpha = 4 mu kappa r / sqrt(d), weight = mu^2 r p / alpha^2
    and in both cases tau = 0.01 p sigma_min(Z).  The flag defaults to
    (rank == 1); passing it explicitly lets callers use either formula set.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if rank_one is None:
        rank_one = gt.rank == 1
    mu = gt.incoherence
    d = gt.d
    if rank_one:
        alpha = 10.0 * mu / np.sqrt(d)
        weight = mu**2 * p / alpha**2
    else:
        r = gt.rank
        alpha = 4.0 * mu * gt.condition_number * r / np.sqrt(d)
        weight = mu**2 * r * p / alpha**2
    _, smin = singular_extremes(gt.factor)
    tau = 0.01 * p * smin
    return HyperParams(alpha=float(alpha), reg_weight=float(weight), tau=float(tau))


@dataclass(frozen=True)
class InstanceSpec:
    """Plain record from which a full instance regenerates bit-exactly."""

    d: int
    r: int
    seed: int
    scale: float = 1.0
    p: float = 1.0
    sigma: float = 0.0
    include_diagonal: bool = True

    def __post_init__(self):
        if self.d < 1 or not 1 <= self.r <= self.d:
            raise ValueError("need d >= 1 and 1 <= r <= d")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("observation probability must lie in [0, 1]")
        if self.sigma < 0.0 or self.scale <= 0.0:
            raise ValueError("need sigma >= 0 and scale > 0")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, separators=(", ", ": ")) + "\n"

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("instance record must be a JSON object")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - fields
        if unknown:
            raise ValueError(f"unknown instance record field(s): {sorted(unknown)}")
        missing = {"d", "r", "seed"} - set(raw)
        if missing:
            raise ValueError(f"instance record missing field(s): {sorted(missing)}")
        return cls(**raw)

    def regenerate(self):
        """(GroundTruth, Observation) for this record.

        The same integer seed feeds factor, mask, and noise draws; the three
        streams are independent because each sampler namespaces it.
        """
        gt = sample_factor(self.d, self.r, self.scale, self.seed)
        mask = sample_mask(self.d, self.p, self.include_diagonal, seed=self.seed)
        obs = observe(gt, mask, self.sigma, self.seed)
        return gt, obs
