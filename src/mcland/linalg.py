"""Dense matrix primitives shared by the rest of the package.

Row incoherence and the extreme singular values of factor matrices.
Everything operates on plain float64 numpy arrays; `ObservationMask` is
the one shared container, holding the symmetric set of observed index pairs
in the one pair format every module uses: each pair once, as (i, j) with
i <= j in lexicographic order.  Its `n_pairs` counts |Omega| with both
orders of an off-diagonal pair.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class ObservationMask:
    """Symmetric set of observed index pairs of a d x d matrix, each pair once.

    An observed entry and its mirror are one pair, stored as (i, j) with
    i <= j; the pairs are kept in lexicographic order, so every consumer sees
    one canonical ordering.  A pair given as (j, i) is stored as (i, j), and
    a pair given twice (in either order) is an error.  `n_pairs` counts the
    observed entries |Omega| with both orders: 2 per off-diagonal pair, 1 per
    diagonal pair.  `p` records the nominal sampling probability the mask
    was drawn with (1.0 for a full mask).
    """

    d: int
    i: np.ndarray
    j: np.ndarray
    p: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"mask dimension must be positive, got {self.d}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mask probability must lie in [0, 1], got {self.p}")
        a = np.ascontiguousarray(self.i, dtype=np.int64)
        b = np.ascontiguousarray(self.j, dtype=np.int64)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("mask i/j must be 1-d arrays of equal length")
        if a.size and (min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= self.d):
            raise ValueError("mask indices out of range")
        i, j = np.minimum(a, b), np.maximum(a, b)
        code = i * self.d + j
        if np.any(code[1:] <= code[:-1]):
            order = np.argsort(code)
            i, j, code = i[order], j[order], code[order]
            if np.any(code[1:] == code[:-1]):
                raise ValueError("mask contains duplicate pairs")
        i.setflags(write=False)
        j.setflags(write=False)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    @property
    def n_pairs(self):
        """|Omega|: observed entries, counting both orders of an off-diagonal pair."""
        return 2 * self.i.size - int(np.count_nonzero(self.i == self.j))

    def indicator(self):
        """Dense 0/1 float64 indicator matrix of the mask (both orders)."""
        ind = np.zeros((self.d, self.d))
        ind[self.i, self.j] = 1.0
        ind[self.j, self.i] = 1.0
        return ind


def row_incoherence(A):
    """nu such that max_i ||A_i|| = nu * sqrt(1/d) * ||A||_F (0 for a zero matrix)."""
    A = np.asarray(A, dtype=float)
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        return 0.0
    max_row = float(np.sqrt((A * A).sum(axis=1).max()))
    return float(np.sqrt(A.shape[0]) * max_row / fro)


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
