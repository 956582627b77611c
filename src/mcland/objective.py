"""Masked factorization objective, its derivatives, and Hessian probes.

The objective on a d x r factor X is

    f(X) = 1/2 * sum_{(i,j) observed} (M_ij - <X_i, X_j>)^2
           + weight * sum_i rho(||X_i||)

with rho(t) = (t - alpha)^4 for t >= alpha and 0 below: a quartic hinge on
row norms that is twice continuously differentiable everywhere.  The data
sum runs over ordered pairs, so an observed off-diagonal entry counts twice
and a diagonal entry once.  The kernels visit each observed entry once: they
store the unordered pairs i <= j with a weight of 2 off the diagonal and 1 on
it, and `pair_gram`, `residuals` and `masked_matmul` take or return one value
per unordered pair, gathering X one column at a time.

Evaluation touches only observed Gram entries (cost O(n_pairs * r + d * r)).
Masked residuals are applied through the full symmetric CSR pattern of the
mask, filled from the unordered values by a precomputed slot map.
`value_and_gradient` shares one residual pass between value and gradient;
`hessian_operator` computes the residuals, their CSR matrix and the gathered
columns of X once per point and returns the Hessian-vector product at it.
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
        d = self.d = mask.d
        # ordered pairs, lexicographically sorted by the mask: the CSR order
        self._rows = mask.rows
        self._cols = mask.cols
        self._vals = obs.values
        upper = self._rows <= self._cols
        self._iu = self._rows[upper]
        self._ju = self._cols[upper]
        self._uvals = self._vals[upper]
        self._w = np.where(self._iu == self._ju, 1.0, 2.0)
        # ordered pair k takes the value of unordered pair _slot[k]
        lo = np.minimum(self._rows, self._cols)
        hi = np.maximum(self._rows, self._cols)
        self._slot = np.searchsorted(self._iu * d + self._ju, lo * d + hi)
        # 32-bit indices where they fit: scipy would otherwise downcast a copy per call
        idx = np.int32 if max(d, self._rows.size) < 2**31 else np.int64
        counts = np.bincount(self._rows, minlength=d)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(idx)
        self._indices = self._cols.astype(idx)

    @property
    def n_pairs(self):
        """Number of stored ordered pairs."""
        return self._rows.size

    def pair_gram(self, X):
        """<X_i, X_j> for every observed unordered pair i <= j."""
        iu, ju = self._iu, self._ju
        cols = np.ascontiguousarray(X.T)
        g = cols[0][iu] * cols[0][ju]
        for x in cols[1:]:
            g += x[iu] * x[ju]
        return g

    def residuals(self, X):
        """M_ij - <X_i, X_j> on the observed unordered pairs."""
        return self._uvals - self.pair_gram(X)

    def _masked_matrix(self, pair_values):
        # symmetric CSR matrix carrying `pair_values` (one per unordered pair) on the mask
        return sparse.csr_matrix(
            (pair_values[self._slot], self._indices, self._indptr), shape=(self.d, self.d)
        )

    def masked_matmul(self, pair_values, Y):
        """(P_Omega(A) @ Y) where symmetric A carries `pair_values` on the unordered pairs."""
        return self._masked_matrix(pair_values) @ Y


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


def _reg_hess_terms(X, alpha):
    """Per-point setup of the penalty curvature: None when no row is active,
    else (active rows, unit rows u, d1/t, d2) on the active rows."""
    t = _row_norms(X)
    e = _hinge(t, alpha)
    act = e > 0.0
    if not np.any(act):
        return None
    u = X[act] / t[act][:, None]
    d1_over_t = 4.0 * e[act] ** 3 / t[act]
    d2 = 12.0 * e[act] ** 2
    return act, u, d1_over_t, d2


def _reg_hess_apply(terms, V):
    """(d^2 R)[V] rowwise from `_reg_hess_terms`: d2 on the radial component,
    d1/t on the tangential."""
    out = np.zeros_like(V)
    if terms is not None:
        act, u, d1_over_t, d2 = terms
        proj = np.einsum("ij,ij->i", V[act], u)
        out[act] = (d2 * proj)[:, None] * u + d1_over_t[:, None] * (V[act] - proj[:, None] * u)
    return out


def _reg_hess_quad(X, V, alpha):
    terms = _reg_hess_terms(X, alpha)
    if terms is None:
        return 0.0
    act, u, d1_over_t, d2 = terms
    proj = np.einsum("ij,ij->i", V[act], u)
    vsq = (V[act] * V[act]).sum(axis=1)
    return float(np.sum(d2 * proj**2 + d1_over_t * (vsq - proj**2)))


@dataclass(frozen=True)
class EvalBreakdown:
    data_term: float
    reg_term: float  # unweighted penalty value
    total: float


def _check_factor(X, cfg):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != cfg.d or X.shape[1] < 1:
        raise ValueError(f"dimension mismatch: factor shape {X.shape}, instance has d={cfg.d}")
    return X


def _check_direction(V, X):
    V = np.asarray(V, dtype=float)
    if V.shape != X.shape:
        raise ValueError(f"dimension mismatch: V is {V.shape}, X is {X.shape}")
    return V


def _breakdown(X, resid, cfg):
    data = 0.5 * float((cfg._w * resid) @ resid)
    reg = regularizer(X, cfg.hyper.alpha)
    return EvalBreakdown(data_term=data, reg_term=reg, total=data + cfg.hyper.reg_weight * reg)


def _gradient(X, resid, cfg):
    G = -2.0 * cfg.masked_matmul(resid, X)
    if cfg.hyper.reg_weight > 0:
        G += cfg.hyper.reg_weight * reg_gradient(X, cfg.hyper.alpha)
    return G


def objective(X, cfg):
    """Objective value split into data and penalty terms."""
    X = _check_factor(X, cfg)
    return _breakdown(X, cfg.residuals(X), cfg)


def gradient(X, cfg):
    """d x r gradient: -2 P_Omega(residual) X plus the weighted penalty gradient."""
    X = _check_factor(X, cfg)
    return _gradient(X, cfg.residuals(X), cfg)


def value_and_gradient(X, cfg):
    """(objective(X, cfg), gradient(X, cfg)) from one residual pass; the same floats."""
    X = _check_factor(X, cfg)
    resid = cfg.residuals(X)
    return _breakdown(X, resid, cfg), _gradient(X, resid, cfg)


def hessian_quadratic(X, V, cfg):
    """Second directional derivative <V, d^2 f(X)[V]>, assembled from pair sums.

    Equals ||P_Omega(V X^T + X V^T)||_F^2 - 2 <P_Omega(residual), V V^T>
    plus the penalty curvature; computed directly from per-pair scalars over
    the ordered pairs of the mask, independently of `hessian_operator`.
    """
    X = _check_factor(X, cfg)
    V = _check_direction(V, X)
    rows, cols = cfg._rows, cfg._cols
    s = np.einsum("ij,ij->i", V[rows], X[cols]) + np.einsum("ij,ij->i", X[rows], V[cols])
    vv = np.einsum("ij,ij->i", V[rows], V[cols])
    resid = cfg._vals - np.einsum("ij,ij->i", X[rows], X[cols])
    quad = float(s @ s) - 2.0 * float(resid @ vv)
    if cfg.hyper.reg_weight > 0:
        quad += cfg.hyper.reg_weight * _reg_hess_quad(X, V, cfg.hyper.alpha)
    return quad


def hessian_operator(X, cfg):
    """The matrix-free Hessian at X, as a function V -> d^2 f(X)[V] (d x r).

    H[V] = 2 P_Omega(V X^T + X V^T) X - 2 P_Omega(residual) V + penalty part.
    The residuals, their CSR matrix, the gathered columns of X and the
    penalty setup are computed once here and shared by every application;
    nothing is stored on `cfg`.  Self-adjoint, and <V, H[V]> agrees with
    `hessian_quadratic` to rounding.
    """
    X = _check_factor(X, cfg)
    iu, ju = cfg._iu, cfg._ju
    R = cfg._masked_matrix(cfg.residuals(X))
    cols = np.ascontiguousarray(X.T)
    xi = [x[iu] for x in cols]
    xj = [x[ju] for x in cols]
    weight = cfg.hyper.reg_weight
    reg_terms = _reg_hess_terms(X, cfg.hyper.alpha) if weight > 0 else None

    def apply(V):
        V = _check_direction(V, X)
        vt = np.ascontiguousarray(V.T)
        s = vt[0][iu] * xj[0] + xi[0] * vt[0][ju]
        for v, a, b in zip(vt[1:], xi[1:], xj[1:]):
            s += v[iu] * b + a * v[ju]
        HV = 2.0 * cfg.masked_matmul(s, X) - 2.0 * (R @ V)
        if weight > 0:
            HV += weight * _reg_hess_apply(reg_terms, V)
        return HV

    return apply


def hessian_vecprod(X, V, cfg):
    """Matrix-free Hessian application d^2 f(X)[V]; see `hessian_operator`."""
    return hessian_operator(X, cfg)(V)


def operator_norm_estimate(X, cfg, iters=80, rel_tol=1e-3):
    """Power-iteration estimate of the Hessian operator norm at X."""
    X = _check_factor(X, cfg)
    H = hessian_operator(X, cfg)
    d, r = X.shape
    rng = substream(_EIG_SEED, "opnorm", d, r)
    v = rng.standard_normal((d, r))
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = H(v)
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

    H = hessian_operator(X, cfg)
    c = 1.1 * op + tol  # keep c above lambda_max even if the estimate is a bit low
    rng = substream(_EIG_SEED, "mineig", d, r)
    v = rng.standard_normal((d, r))
    v /= np.linalg.norm(v)

    best_rayleigh = np.inf
    best_v = v
    converged = False
    used = 0
    for k in range(cap):
        Hv = H(v)
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
