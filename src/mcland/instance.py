"""Problem instances: ground-truth factors, observation masks, observed values.

An instance is a symmetric PSD matrix M = Z Z^T (optionally plus symmetric
Gaussian noise) observed on a symmetric random set of entries.  The mask
stores each observed pair once, as (i, j) with i <= j, and the observation
holds one value per stored pair, so symmetry holds by construction; the
mask's `n_pairs` still counts |Omega| with both orders.  Everything is
regenerable bit-exactly from a small JSON-compatible record, `InstanceSpec`,
which `to_json` writes and the CLI reads back as an `instance` block; masks
and values are never serialized.  The factor is one Gaussian draw, and
`GroundTruth`, which every certificate takes, refuses a factor whose Gram
matrix overflows or whose squares underflow, a ValueError about its scale.

Generation walks the d x d matrix in row blocks of at most `_BLOCK`
elements, so it holds O(|Omega| + block) memory and takes O(d^2) time (the
streams fix a d x d draw).  Consecutive `(rows, d)` draws from one generator
give the numbers of one `(d, d)` draw in order, and each block keeps exactly
the entries the whole matrix would; the mask tests only the upper part.  The
mask draws its first block whole, then for each later row only the doubles
the whole draw puts on and right of the diagonal, jumping the stream over
the rest: the first block plus the upper triangle, about d^2 / 2 draws.
Z Z^T is one BLAS product per block; up to d = 1024 that is the whole-matrix
product, and above it a BLAS may round a few entries differently by the
shape of the call, as it already does by its thread count.
"""

import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .csvio import store_fields
from .linalg import ObservationMask, row_incoherence, singular_extremes
from .rng import check_seed, substream

_BLOCK = 1 << 20  # elements per row block of a d x d draw (8 MB of float64)


def _row_blocks(d):
    """Consecutive row ranges [a, b) covering 0..d, at most `_BLOCK` elements
    (and at least one row) each; one block when d * d <= `_BLOCK`."""
    rows = max(1, _BLOCK // d)
    for a in range(0, d, rows):
        yield a, min(a + rows, d)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """A d x r factor Z of full rank and the constants computed from it.

    Z^T Z must be finite and sigma_min(Z)^4 (0 where Z is rank deficient) a
    normal double, else a ValueError: f and its gradient would round to 0.

    `incoherence` is the tight row-spread constant sqrt(d) * max_i ||Z_i|| /
    ||Z||_F (always >= 1, equal to 1 iff all rows have equal norm);
    `condition_number` is sigma_max(Z) / sigma_min(Z); `gram_fro` is
    ||Z Z^T||_F, computed as the r x r ||Z^T Z||_F.
    """

    factor: np.ndarray
    incoherence: float = field(init=False)
    condition_number: float = field(init=False)
    sigma_min: float = field(init=False)
    gram_fro: float = field(init=False)

    def __post_init__(self):
        Z = np.ascontiguousarray(self.factor, dtype=float)
        if Z.ndim != 2:
            raise ValueError(f"factor must be 2-d, got shape {Z.shape}")
        d, r = Z.shape
        if not 1 <= r <= d:
            raise ValueError(f"factor must satisfy 1 <= r <= d, got shape {Z.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # out of float range: refused below
            smax, smin = singular_extremes(Z)
            gram_fro = float(np.linalg.norm(Z.T @ Z))  # may overflow to inf where Z^T Z is finite
        if not math.isfinite(smax):
            raise ValueError(f"the factor's Gram matrix Z^T Z is not finite: its scale overflows or an entry "
                             f"is inf or nan (shape {Z.shape})")
        if not smin * smin * smin * smin >= sys.float_info.min:  # a product saturates where ** raises
            raise ValueError(f"factor is rank deficient or its scale underflows: sigma_min(Z)^4 is below the "
                             f"smallest normal double (sigma_min = {smin!r}, shape {Z.shape})")
        Z.setflags(write=False)
        object.__setattr__(self, "factor", Z)
        object.__setattr__(self, "incoherence", row_incoherence(Z))
        object.__setattr__(self, "condition_number", float(smax / smin))
        object.__setattr__(self, "sigma_min", float(smin))
        object.__setattr__(self, "gram_fro", gram_fro)

    @property
    def d(self):
        return self.factor.shape[0]

    @property
    def rank(self):
        return self.factor.shape[1]


@dataclass(frozen=True, eq=False)
class Observation:
    """Observed values of M on a mask, one float per stored pair.

    `values[k]` is the observation at (mask.i[k], mask.j[k]) and, the matrix
    being symmetric, at (mask.j[k], mask.i[k]).  `sigma` is the noise level
    the values were drawn with; `p`, the nominal sampling probability, is
    the mask's.
    """

    mask: ObservationMask
    values: np.ndarray
    sigma: float

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.mask.i.shape:
            raise ValueError(
                f"values length {vals.shape} does not match mask with {self.mask.i.size} stored pairs"
            )
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observed values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def d(self):
        return self.mask.d

    @property
    def p(self):
        return self.mask.p


def sample_factor(d, r, scale, seed):
    """Ground-truth factor with iid N(0, scale^2/d) entries, one draw from the
    ("factor", 0) substream; a scale whose draw `GroundTruth` refuses is its ValueError."""
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    rng = substream(seed, "factor", 0)  # the stream every recorded instance was drawn from
    with np.errstate(over="ignore"):  # an entry past float range is refused by GroundTruth
        Z = rng.standard_normal((d, r)) * (scale / np.sqrt(d))
    return GroundTruth(Z)


def _mask_block(rng, a, b, d, k):
    """Columns >= a + k of rows [a, b) of the (d, d) uniform draw from `rng`.

    The first block (a = 0) is drawn whole.  In a later block row i jumps the
    stream over its columns < i + k and draws the rest in place, so its cells
    left of column i + k, the strict lower triangle of the block's leading
    square, are never drawn; they hold 1.0, which is never < p.
    """
    if a == 0:
        return rng.random((b, d))[:, k:]
    U = np.empty((b - a, d - a - k))
    U[:, : b - a] = 1.0
    for r in range(b - a):
        rng.bit_generator.advance(a + r + k)  # one PCG64 step per double
        rng.random(out=U[r, r:])
    return U


def sample_mask(d, p, include_diagonal=True, *, seed):
    """Symmetric Bernoulli(p) mask from one d x d uniform draw U: pair (i, j),
    i <= j, is observed when U_ij < p (i = j only with `include_diagonal`).

    U is drawn in row blocks from the "mask" substream, the doubles of one
    (d, d) draw.  Block [a, b) compares only its columns >= a + k with p (k = 1
    without the diagonal) and keeps the hits with j >= i + k, in row-major order.
    The first block is drawn whole; past it, each row i draws only the doubles
    the (d, d) draw puts in its columns >= i + k (`_mask_block`): the first
    block plus the upper triangle, about d^2 / 2 draws.
    """
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = substream(seed, "mask")
    k = 0 if include_diagonal else 1
    pairs = []
    for a, b in _row_blocks(d):
        c = a + k  # the block's pairs lie in columns >= c
        bi, bj = np.divmod(np.flatnonzero(_mask_block(rng, a, b, d, k) < p), d - c)
        keep = bj >= bi  # column bj + c >= row bi + a + k
        bi, bj = bi[keep] + a, bj[keep] + c  # rebound: no unfiltered hits outlive their block
        pairs.append((bi, bj))
    return ObservationMask(d, *map(np.concatenate, zip(*pairs)), p=float(p))


def observe(gt, mask, sigma, seed):
    """Observed values of Z Z^T (+ Gaussian noise) on the stored pairs.

    Noise is N(0, sigma^2), one draw per pair: entry (i, j), i <= j, of a
    d x d standard normal draw.  Both matrices are formed one row block at
    a time: the pairs are sorted by i, so a block's pairs are one slice,
    gathered from `Z[a:b] @ Z.T` and from that block's rows of the "noise"
    substream, which are the rows a single (d, d) draw would hold.  With one
    block (d * d <= `_BLOCK`) the product is the whole-matrix `Z @ Z.T`.
    """
    if gt.d != mask.d:
        raise ValueError(f"dimension mismatch: factor has d={gt.d}, mask has d={mask.d}")
    Z = gt.factor
    noise = substream(seed, "noise") if sigma > 0 else None
    values = np.empty(mask.i.size)
    for a, b in _row_blocks(gt.d):
        lo, hi = np.searchsorted(mask.i, (a, b))
        i, j = mask.i[lo:hi] - a, mask.j[lo:hi]
        values[lo:hi] = (Z[a:b] @ Z.T)[i, j]
        if noise is not None:
            values[lo:hi] += sigma * noise.standard_normal((b - a, gt.d))[i, j]
    return Observation(mask=mask, values=values, sigma=float(sigma))


@dataclass(frozen=True)
class HyperParams:
    """Regularizer threshold, penalty weight, and curvature slack.

    alpha: row norms below alpha are unpenalized.
    reg_weight: multiplier lambda on the row-norm penalty in the objective.
    tau: slack used when testing the smallest Hessian eigenvalue against 0.
    All three are finite: a NaN or infinite one is a ValueError.
    """

    alpha: float
    reg_weight: float
    tau: float

    def __post_init__(self):
        store_fields(self)
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.reg_weight < math.inf:
            raise ValueError(f"reg_weight (lambda) must be non-negative and finite, got {self.reg_weight}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be non-negative and finite, got {self.tau}")


def default_hyperparams(gt, p):
    """Hyperparameters matched to a ground truth and sampling probability.

    rank one (r = 1):  alpha = 10 mu / sqrt(d),        weight = mu^2 p / alpha^2
    rank r > 1:        alpha = 4 mu kappa r / sqrt(d), weight = mu^2 r p / alpha^2
    and in both cases tau = 0.01 p sigma_min(Z).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    mu = gt.incoherence
    d = gt.d
    if gt.rank == 1:
        alpha = 10.0 * mu / np.sqrt(d)
        weight = mu**2 * p / alpha**2
    else:
        r = gt.rank
        alpha = 4.0 * mu * gt.condition_number * r / np.sqrt(d)
        weight = mu**2 * r * p / alpha**2
    tau = 0.01 * p * gt.sigma_min
    return HyperParams(alpha=float(alpha), reg_weight=float(weight), tau=float(tau))


@dataclass(frozen=True)
class InstanceSpec:
    """Plain record from which a full instance regenerates bit-exactly.  Each field is stored as
    its annotated type, the JSON type `mcland gen` reads back; a bool is no int or float."""

    d: int
    r: int
    seed: int
    scale: float = 1.0
    p: float = 1.0
    sigma: float = 0.0
    include_diagonal: bool = True

    def __post_init__(self):
        store_fields(self)
        if self.d < 1 or not 1 <= self.r <= self.d:
            raise ValueError("need d >= 1 and 1 <= r <= d")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("observation probability must lie in [0, 1]")
        if not (math.isfinite(self.sigma) and math.isfinite(self.scale)):
            raise ValueError("need finite sigma and scale")
        if self.sigma < 0.0 or self.scale <= 0.0:
            raise ValueError("need sigma >= 0 and scale > 0")
        check_seed(self.seed)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, separators=(", ", ": ")) + "\n"

    def regenerate(self):
        """(GroundTruth, Observation) for this record.

        The same integer seed feeds factor, mask, and noise draws; the three
        streams are independent because each sampler namespaces it.
        """
        gt = sample_factor(self.d, self.r, self.scale, self.seed)
        mask = sample_mask(self.d, self.p, self.include_diagonal, seed=self.seed)
        obs = observe(gt, mask, self.sigma, self.seed)
        return gt, obs
