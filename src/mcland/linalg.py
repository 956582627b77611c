"""Dense matrix primitives shared by the rest of the package.

The spectral norm, extreme singular values of factor matrices, and
orthogonal (Procrustes) alignment.  Everything operates on plain float64
numpy arrays; `ObservationMask` is the one shared container, holding the
symmetric set of observed index pairs.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import substream

# Fixed entropy for the deterministic start vectors of the power iterations.
_POWER_SEED = 20210817


@dataclass(frozen=True, eq=False)
class ObservationMask:
    """Symmetric set of observed index pairs of a d x d matrix.

    Ordered pairs are stored explicitly: (i, j) and (j, i) are both present
    for every observed off-diagonal pair, a diagonal pair (i, i) once.  Pairs
    are kept in lexicographic order so that every consumer sees one canonical
    ordering.  `p` records the nominal sampling probability the mask was drawn
    with (1.0 for a full mask).
    """

    d: int
    rows: np.ndarray
    cols: np.ndarray
    p: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"mask dimension must be positive, got {self.d}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mask probability must lie in [0, 1], got {self.p}")
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("mask rows/cols must be 1-d arrays of equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= self.d or cols.min() < 0 or cols.max() >= self.d):
            raise ValueError("mask indices out of range")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        code = rows * self.d + cols
        if np.any(np.diff(code) == 0):
            raise ValueError("mask contains duplicate pairs")
        # symmetry: the swapped pair set must be identical
        swapped = np.sort(cols * self.d + rows)
        if not np.array_equal(code, swapped):
            raise ValueError("mask is not symmetric: some (i, j) lacks its mirror (j, i)")
        rows.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def n_pairs(self):
        """Number of stored ordered pairs."""
        return self.rows.size

    def indicator(self):
        """Dense 0/1 float64 indicator matrix of the mask."""
        ind = np.zeros((self.d, self.d))
        ind[self.rows, self.cols] = 1.0
        return ind


def full_mask(d, include_diagonal=True):
    """Mask containing every pair (optionally without the diagonal)."""
    ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    keep = np.ones((d, d), dtype=bool) if include_diagonal else ~np.eye(d, dtype=bool)
    return ObservationMask(d=d, rows=ii[keep], cols=jj[keep], p=1.0)


def spectral_norm(A, rel_tol=1e-10, max_iters=10000):
    """Largest singular value via power iteration on A^T A.

    Matrix-free in spirit (only matvecs with A and A^T), deterministic seeded
    start vector, stops when the squared-norm estimate stagnates to `rel_tol`.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"spectral_norm expects a 2-d array, got shape {A.shape}")
    m, n = A.shape
    if m == 0 or n == 0:
        return 0.0
    rng = substream(_POWER_SEED, "spectral", m, n)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iters):
        w = A @ v
        s2 = float(w @ w)  # Rayleigh quotient of A^T A at unit v
        if s2 == 0.0:
            return 0.0
        if abs(s2 - est) <= rel_tol * s2:
            est = s2
            break
        est = s2
        u = A.T @ w
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        v = u / nu
    return float(np.sqrt(est))


class SingularExtremes(NamedTuple):
    sigma_max: float
    sigma_min: float


def singular_extremes(X):
    """(sigma_max, sigma_min) of a d x r factor, via the r x r Gram matrix.

    Cost O(d r^2); tiny negative eigenvalues from rounding are clamped to 0.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"singular_extremes expects a 2-d array, got shape {X.shape}")
    d, r = X.shape
    if r > d:
        raise ValueError(f"factor must be tall: shape {X.shape}")
    evals = np.linalg.eigvalsh(X.T @ X)
    evals = np.clip(evals, 0.0, None)
    return SingularExtremes(float(np.sqrt(evals[-1])), float(np.sqrt(evals[0])))


@dataclass(frozen=True)
class ProcrustesResult:
    rotation: np.ndarray  # r x r orthonormal
    residual: float       # ||X - Z @ rotation||_F


def procrustes_align(X, Z):
    """Orthonormal R minimizing ||X - Z R||_F.

    R is the polar factor of Z^T X, computed from its full SVD; when Z^T X is
    rank deficient the SVD supplies an orthonormal completion on the null
    space, and any completion attains the same residual.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.shape != Z.shape:
        raise ValueError(f"dimension mismatch: X is {X.shape}, Z is {Z.shape}")
    U, _, Vt = np.linalg.svd(Z.T @ X)
    R = U @ Vt
    residual = float(np.linalg.norm(X - Z @ R))
    return ProcrustesResult(rotation=R, residual=residual)
