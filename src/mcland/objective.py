"""Masked factorization objective, its derivatives, and Hessian probes.

The objective on a d x r factor X is

    f(X) = 1/2 * sum_{(i,j) observed} (M_ij - <X_i, X_j>)^2
           + weight * sum_i rho(||X_i||)

with rho(t) = (t - alpha)^4 for t >= alpha and 0 below: a quartic hinge on
row norms that is twice continuously differentiable everywhere.  Sums run
over stored ordered pairs, so an observed off-diagonal entry contributes
twice and a diagonal entry once.

Evaluation touches only observed Gram entries (cost O(n_pairs * r + d * r));
the masked residual is applied through a precomputed CSR layout.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .rng import substream

_EIG_SEED = 31415001


class ObjectiveConfig:
    """Hyperparameters bound to one observation, with precomputed mask layout.

    Instances are immutable after construction and safe to share across
    threads; all evaluation state is per-call.
    """

    def __init__(self, hyper, obs):
        self.hyper = hyper
        self.obs = obs
        mask = obs.mask
        self.d = mask.d
        self._rows = mask.rows
        self._cols = mask.cols
        self._vals = obs.values
        # CSR layout of the mask: pair k lands at data slot _slot[k]
        order = np.lexsort((self._cols, self._rows))
        counts = np.bincount(self._rows, minlength=self.d)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._indices = self._cols[order].astype(np.int64)
        self._order = order

    @property
    def n_pairs(self):
        return self._rows.size

    def pair_gram(self, X):
        """<X_i, X_j> for every stored ordered pair (i, j)."""
        return np.einsum("ij,ij->i", X[self._rows], X[self._cols])

    def residuals(self, X):
        """M_ij - <X_i, X_j> on the mask."""
        return self._vals - self.pair_gram(X)

    def masked_matmul(self, pair_values, Y):
        """(P_Omega(A) @ Y) where A carries `pair_values` on the mask."""
        A = sparse.csr_matrix(
            (pair_values[self._order], self._indices, self._indptr),
            shape=(self.d, self.d),
        )
        return A @ Y


def _row_norms(X):
    return np.sqrt((X * X).sum(axis=1))


def _hinge(t, alpha):
    # excess over the threshold; zero rows stay inactive since alpha > 0
    return np.maximum(t - alpha, 0.0)


def regularizer(X, alpha):
    """sum_i rho(||X_i||), unweighted."""
    e = _hinge(_row_norms(X), alpha)
    return float(np.sum(e**4))


def reg_gradient(X, alpha):
    """Gradient of the unweighted penalty: row i gets 4 (||X_i|| - alpha)^3 X_i / ||X_i||."""
    t = _row_norms(X)
    e = _hinge(t, alpha)
    G = np.zeros_like(X)
    act = e > 0.0
    if np.any(act):
        coef = 4.0 * e[act] ** 3 / t[act]  # t >= alpha > 0 on active rows
        G[act] = coef[:, None] * X[act]
    return G


def _reg_hess_terms(X, V, alpha):
    """Setup shared by the penalty curvature terms: None when no row is active,
    else (active rows, unit rows u, <V_i, u_i>, d1/t, d2) on the active rows."""
    t = _row_norms(X)
    e = _hinge(t, alpha)
    act = e > 0.0
    if not np.any(act):
        return None
    u = X[act] / t[act][:, None]
    proj = np.einsum("ij,ij->i", V[act], u)
    d1_over_t = 4.0 * e[act] ** 3 / t[act]
    d2 = 12.0 * e[act] ** 2
    return act, u, proj, d1_over_t, d2


def _reg_hess_apply(X, V, alpha):
    """(d^2 R)[V] rowwise: d2 on the radial component, d1/t on the tangential."""
    out = np.zeros_like(V)
    terms = _reg_hess_terms(X, V, alpha)
    if terms is not None:
        act, u, proj, d1_over_t, d2 = terms
        out[act] = (d2 * proj)[:, None] * u + d1_over_t[:, None] * (V[act] - proj[:, None] * u)
    return out


def _reg_hess_quad(X, V, alpha):
    terms = _reg_hess_terms(X, V, alpha)
    if terms is None:
        return 0.0
    act, u, proj, d1_over_t, d2 = terms
    vsq = (V[act] * V[act]).sum(axis=1)
    return float(np.sum(d2 * proj**2 + d1_over_t * (vsq - proj**2)))


@dataclass(frozen=True)
class EvalBreakdown:
    data_term: float
    reg_term: float  # unweighted penalty value
    total: float


def _check_factor(X, cfg):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != cfg.d:
        raise ValueError(f"dimension mismatch: factor shape {X.shape}, instance has d={cfg.d}")
    return X


def objective(X, cfg):
    """Objective value split into data and penalty terms."""
    X = _check_factor(X, cfg)
    resid = cfg.residuals(X)
    data = 0.5 * float(resid @ resid)
    reg = regularizer(X, cfg.hyper.alpha)
    return EvalBreakdown(data_term=data, reg_term=reg, total=data + cfg.hyper.reg_weight * reg)


def gradient(X, cfg):
    """d x r gradient: -2 P_Omega(residual) X plus the weighted penalty gradient."""
    X = _check_factor(X, cfg)
    resid = cfg.residuals(X)
    G = -2.0 * cfg.masked_matmul(resid, X)
    if cfg.hyper.reg_weight > 0:
        G += cfg.hyper.reg_weight * reg_gradient(X, cfg.hyper.alpha)
    return G


def hessian_quadratic(X, V, cfg):
    """Second directional derivative <V, d^2 f(X)[V]>, assembled from pair sums.

    Equals ||P_Omega(V X^T + X V^T)||_F^2 - 2 <P_Omega(residual), V V^T>
    plus the penalty curvature; computed directly from per-pair scalars,
    independently of `hessian_vecprod`.
    """
    X = _check_factor(X, cfg)
    V = np.asarray(V, dtype=float)
    if V.shape != X.shape:
        raise ValueError(f"dimension mismatch: V is {V.shape}, X is {X.shape}")
    rows, cols = cfg._rows, cfg._cols
    s = np.einsum("ij,ij->i", V[rows], X[cols]) + np.einsum("ij,ij->i", X[rows], V[cols])
    vv = np.einsum("ij,ij->i", V[rows], V[cols])
    resid = cfg.residuals(X)
    quad = float(s @ s) - 2.0 * float(resid @ vv)
    if cfg.hyper.reg_weight > 0:
        quad += cfg.hyper.reg_weight * _reg_hess_quad(X, V, cfg.hyper.alpha)
    return quad


def hessian_vecprod(X, V, cfg):
    """Matrix-free Hessian application d^2 f(X)[V], a d x r array.

    H[V] = 2 P_Omega(V X^T + X V^T) X - 2 P_Omega(residual) V + penalty part.
    Self-adjoint, and <V, H[V]> agrees with `hessian_quadratic` to rounding.
    """
    X = _check_factor(X, cfg)
    V = np.asarray(V, dtype=float)
    if V.shape != X.shape:
        raise ValueError(f"dimension mismatch: V is {V.shape}, X is {X.shape}")
    rows, cols = cfg._rows, cfg._cols
    s = np.einsum("ij,ij->i", V[rows], X[cols]) + np.einsum("ij,ij->i", X[rows], V[cols])
    resid = cfg.residuals(X)
    HV = 2.0 * cfg.masked_matmul(s, X) - 2.0 * cfg.masked_matmul(resid, V)
    if cfg.hyper.reg_weight > 0:
        HV += cfg.hyper.reg_weight * _reg_hess_apply(X, V, cfg.hyper.alpha)
    return HV


def operator_norm_estimate(X, cfg, iters=80, rel_tol=1e-3):
    """Power-iteration estimate of the Hessian operator norm at X."""
    X = _check_factor(X, cfg)
    d, r = X.shape
    rng = substream(_EIG_SEED, "opnorm", d, r)
    v = rng.standard_normal((d, r))
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = hessian_vecprod(X, v, cfg)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        new = abs(float(np.sum(v * w)))  # |Rayleigh|
        if est > 0 and abs(new - est) <= rel_tol * est:
            est = max(new, est)
            break
        est = max(new, est)
        v = w / nw
    return est


@dataclass(frozen=True)
class EigResult:
    lambda_min: float
    witness: np.ndarray  # d x r, unit Frobenius norm
    converged: bool
    iterations: int
    op_norm: float  # operator norm estimate used for the shift


def min_hessian_eig(X, cfg, tol=None):
    """Smallest Hessian eigenvalue at X by shifted power iteration.

    First estimates ||H|| by power iteration on H, then power-iterates
    c I - H with c slightly above the estimate; the dominant eigenvalue of
    the shifted operator is c - lambda_min.  Stops once the eigen-residual
    ||H v - theta v|| drops below `tol` (default 1e-6 * (1 + ||H||)); if the
    iteration cap of 50 * d * r is hit first, the best Rayleigh bound seen is
    returned with converged=False.  The witness satisfies
    hessian_quadratic(X, witness) <= lambda_min + tol.
    """
    X = _check_factor(X, cfg)
    d, r = X.shape
    n = d * r
    cap = 50 * n

    op = operator_norm_estimate(X, cfg)
    if tol is None:
        tol = 1e-6 * (1.0 + op)
    if op == 0.0:
        witness = np.zeros((d, r))
        witness[0, 0] = 1.0
        return EigResult(lambda_min=0.0, witness=witness, converged=True, iterations=0, op_norm=0.0)

    c = 1.1 * op + tol  # keep c above lambda_max even if the estimate is a bit low
    rng = substream(_EIG_SEED, "mineig", d, r)
    v = rng.standard_normal((d, r))
    v /= np.linalg.norm(v)

    best_rayleigh = np.inf
    best_v = v
    converged = False
    used = 0
    for k in range(cap):
        Hv = hessian_vecprod(X, v, cfg)
        used = k + 1
        rayleigh = float(np.sum(v * Hv))
        resid = float(np.linalg.norm(Hv - rayleigh * v))
        if rayleigh < best_rayleigh:
            best_rayleigh = rayleigh
            best_v = v
        if resid <= tol:
            converged = True
            break
        Bv = c * v - Hv
        nb = float(np.linalg.norm(Bv))
        if nb == 0.0:
            # v is an exact eigenvector of H with eigenvalue c; restart shifted
            v = rng.standard_normal((d, r))
            v /= np.linalg.norm(v)
            continue
        v = Bv / nb

    return EigResult(
        lambda_min=best_rayleigh,
        witness=best_v,
        converged=converged,
        iterations=used,
        op_norm=op,
    )
