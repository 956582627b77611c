"""Masked factorization objective, its derivatives, and Hessian probes.

The objective on a d x r factor X is

    f(X) = 1/2 * sum_{(i,j) observed} (M_ij - <X_i, X_j>)^2
           + weight * sum_i rho(||X_i||)

with rho(t) = (t - alpha)^4 for t >= alpha and 0 below: a quartic hinge on
row norms that is twice continuously differentiable everywhere.  The data
sum runs over both orders of every observed entry, so an observed
off-diagonal entry counts twice and a diagonal entry once; `n_pairs` is that
count, |Omega|.  The kernels use the mask's one pair format: each observed
pair once, (i, j) with i <= j, with a weight of 2 off the diagonal and 1 on
it; `pair_gram`, `residuals` and `masked_matmul` take or return one value
per stored pair.  `pair_gram` works one column of X at a time; the pairs
are sorted by i, so its i side is a run-length repeat of the column and only
its j side is a gather.

Evaluation touches only observed Gram entries (cost O(n_pairs * r + d * r)).
Masked residuals are applied through the full symmetric CSR pattern of the
mask, built from the stored pairs and filled from their values by a slot
map; the same pattern with unit entries is the fixed 0/1 matrix P.
Position k in [0, n_pairs) of the pattern, in row-major order, is one
ordered entry: `pair_gradient_sum` takes such positions, so drawing them
uniformly draws each stored pair in proportion to its weight.  A CSR matrix
meets a d x r operand one column at a time, and `pair_gradient_sum`
scatters with one `np.bincount` per column: each adds every sum in the
order of scipy's multi-vector product and `np.add.at`, so the floats are
theirs, in less time.
`value_and_gradient` shares one residual pass between value and gradient,
and `breakdown` and `residual_gradient` let a caller that already holds the
residuals of a point (an accepted line-search trial) reuse them.
`hessian_operator` applies the data curvature through P:

    sum_j Omega_ij (<V_i, X_j> + <X_i, V_j>) X_j = A_i V_i + B_i X_i,

with the r x r blocks A = P [X_j X_j^T] once per point and B = P [X_j V_j^T]
once per application, so an application gathers no pairs and builds no
matrix.  `min_hessian_eig` and `operator_norm_estimate` run one Lanczos
routine on it.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .rng import substream

_EIG_SEED = 31415001
_BASIS = 20  # Lanczos steps per run of the eigensolver and of the norm estimate
_EIG_TOL = 1e-6  # min_hessian_eig converges at a residual of at most _EIG_TOL * (1 + ||H||)


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
        i, j = self._i, self._j = mask.i, mask.j
        self._w = np.where(i == j, 1.0, 2.0)
        self.n_pairs = mask.n_pairs
        # the symmetric pattern: every stored pair, then the mirror of every
        # off-diagonal one, sorted row-major; position k holds pair _slot[k]
        off = np.flatnonzero(i != j)
        rows = np.concatenate([i, j[off]])
        cols = np.concatenate([j, i[off]])
        order = np.argsort(rows * d + cols)
        self._slot = np.concatenate([np.arange(i.size), off])[order]
        # 32-bit indices where they fit: scipy would otherwise downcast a copy per call
        idx = np.int32 if max(d, rows.size) < 2**31 else np.int64
        # the stored pairs are sorted by i, so x[i] is x[k] repeated _row_counts[k] times
        self._row_counts = np.bincount(i, minlength=d)
        pattern_counts = self._row_counts + np.bincount(j[off], minlength=d)
        self._indptr = np.concatenate([[0], np.cumsum(pattern_counts)]).astype(idx)
        self._indices = cols[order].astype(idx)
        self._pattern = sparse.csr_matrix((np.ones(rows.size), self._indices, self._indptr), shape=(d, d))

    def pair_gram(self, X):
        """<X_i, X_j> for every stored pair (i, j)."""
        j, counts = self._j, self._row_counts
        cols = np.ascontiguousarray(X.T)
        g = np.repeat(cols[0], counts) * cols[0][j]
        for x in cols[1:]:
            g += np.repeat(x, counts) * x[j]
        return g

    def residuals(self, X):
        """M_ij - <X_i, X_j> on the stored pairs."""
        return self.obs.values - self.pair_gram(X)

    def _masked_matrix(self, pair_values):
        # symmetric CSR matrix carrying `pair_values` (one per stored pair) on the mask
        return sparse.csr_matrix(
            (np.take(pair_values, self._slot), self._indices, self._indptr), shape=(self.d, self.d)
        )

    def masked_matmul(self, pair_values, Y):
        """(P_Omega(A) @ Y) where symmetric A carries `pair_values` on the stored pairs."""
        return _matmul_columns(self._masked_matrix(pair_values), Y)


def _matmul_columns(A, Y):
    """A @ Y for a sparse A and a dense d x r Y, one single-vector product per
    column: scipy's multi-vector CSR kernel sums each row in the same order,
    so the floats are the same, but it runs slower for a few columns."""
    out = np.empty(Y.shape)
    for k in range(Y.shape[1]):
        out[:, k] = A @ Y[:, k]
    return out


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


def breakdown(X, resid, cfg):
    """Objective value split into data and penalty terms, from the residuals of X."""
    data = 0.5 * float((cfg._w * resid) @ resid)
    reg = regularizer(X, cfg.hyper.alpha)
    return EvalBreakdown(data_term=data, reg_term=reg, total=data + cfg.hyper.reg_weight * reg)


def residual_gradient(X, resid, cfg):
    """d x r gradient from the residuals of X: -2 P_Omega(residual) X plus the
    weighted penalty gradient."""
    G = -2.0 * cfg.masked_matmul(resid, X)
    if cfg.hyper.reg_weight > 0:
        G += cfg.hyper.reg_weight * reg_gradient(X, cfg.hyper.alpha)
    return G


def value_and_gradient(X, cfg):
    """(EvalBreakdown, gradient) at X from one residual pass."""
    X = _check_factor(X, cfg)
    resid = cfg.residuals(X)
    return breakdown(X, resid, cfg), residual_gradient(X, resid, cfg)


def pair_gradient_sum(X, cfg, positions):
    """Sum of per-entry data gradients over positions of the symmetric pattern.

    Position k in [0, n_pairs) is the ordered entry (i, j) in row-major
    order, which contributes -(M_ij - <X_i, X_j>) * (e_i X_j^T + e_j X_i^T);
    summing over every position reproduces the full data gradient.
    """
    pair = cfg._slot[positions]
    j = cfg._indices[positions]  # the entry's column; its row is the pair's other index
    i = cfg._i[pair] + cfg._j[pair] - j
    Xi, Xj = X.take(i, axis=0), X.take(j, axis=0)  # a tenth of the time of X[i] at r=2
    resid = cfg.obs.values[pair] - np.einsum("ij,ij->i", Xi, Xj)
    # one bincount per column adds each row's terms in entry order, all the
    # i-side terms before the j-side ones, as np.add.at would: the same sums
    ij = np.concatenate([i, j])
    G = np.empty(X.shape)
    for k in range(X.shape[1]):
        w = np.concatenate([-resid * Xj[:, k], -resid * Xi[:, k]])
        G[:, k] = np.bincount(ij, weights=w, minlength=cfg.d)
    return G


def hessian_quadratic(X, V, cfg):
    """Second directional derivative <V, d^2 f(X)[V]>, assembled from pair sums.

    Equals ||P_Omega(V X^T + X V^T)||_F^2 - 2 <P_Omega(residual), V V^T>
    plus the penalty curvature; computed directly from per-pair scalars over
    the stored pairs, weighted 2 off the diagonal and 1 on it, independently
    of `hessian_operator`.
    """
    X = _check_factor(X, cfg)
    V = _check_direction(V, X)
    i, j, w = cfg._i, cfg._j, cfg._w
    s = np.einsum("ij,ij->i", V[i], X[j]) + np.einsum("ij,ij->i", X[i], V[j])
    vv = np.einsum("ij,ij->i", V[i], V[j])
    resid = cfg.obs.values - np.einsum("ij,ij->i", X[i], X[j])
    quad = float((w * s) @ s) - 2.0 * float((w * resid) @ vv)
    if cfg.hyper.reg_weight > 0:
        quad += cfg.hyper.reg_weight * _reg_hess_quad(X, V, cfg.hyper.alpha)
    return quad


def hessian_operator(X, cfg):
    """The matrix-free Hessian at X, as a function V -> d^2 f(X)[V] (d x r).

    H[V] = 2 P_Omega(V X^T + X V^T) X - 2 P_Omega(residual) V + penalty part,
    with the first term applied rowwise as 2 (A_i V_i + B_i X_i) for the r x r
    blocks A_i = sum_j Omega_ij X_j X_j^T and B_i = sum_j Omega_ij X_j V_j^T:
    A, the residual CSR matrix and the penalty setup are computed once here,
    B is one product of the 0/1 pattern with the rows X_j V_j^T per
    application (O(n_pairs r^2)); nothing is stored on `cfg`.  B takes its
    r^2 columns in one multi-vector product, no slower than r^2 single-vector
    ones; the residual matrix takes V one column at a time.  Self-adjoint, and
    <V, H[V]> agrees with `hessian_quadratic` to rounding.
    """
    X = _check_factor(X, cfg)
    d, r = X.shape

    def blocks(Y):  # the r x r blocks sum_j Omega_ij X_j Y_j^T
        return (cfg._pattern @ (X[:, :, None] * Y[:, None, :]).reshape(d, r * r)).reshape(d, r, r)

    R = cfg._masked_matrix(cfg.residuals(X))
    A = blocks(X)
    weight = cfg.hyper.reg_weight
    reg_terms = _reg_hess_terms(X, cfg.hyper.alpha) if weight > 0 else None

    def apply(V):
        V = _check_direction(V, X)
        HV = 2.0 * (np.einsum("iab,ib->ia", A, V) + np.einsum("iab,ib->ia", blocks(V), X))
        HV -= 2.0 * _matmul_columns(R, V)
        if weight > 0:
            HV += weight * _reg_hess_apply(reg_terms, V)
        return HV

    return apply


def _lanczos(H, v, steps, rel_tol, Hv=None):
    """Fully reorthogonalized Lanczos on H from v, for at most `steps` steps.

    Returns the Ritz values in ascending order and the unit Ritz vectors as
    the (flattened) columns of Y, one per step.  Each step costs one HVP,
    except the first when `Hv` = H[v] is given.  Stops early once the
    residual estimate beta_k |s_k| of the smallest Ritz pair is at most
    rel_tol * (1 + max |Ritz value|), which includes an invariant Krylov
    space (beta_k = 0).
    """
    steps = min(steps, v.size)  # the Krylov space cannot outgrow the space
    Q = np.empty((steps, v.size))
    T = np.zeros((steps, steps))
    w = v.ravel()
    beta = float(np.linalg.norm(w))
    for k in range(steps):
        Q[k] = w / beta
        w = Hv.ravel() / beta if k == 0 and Hv is not None else H(Q[k].reshape(v.shape)).ravel()
        for _ in range(2):  # classical Gram-Schmidt twice: Q stays orthonormal to rounding
            h = Q[: k + 1] @ w
            w -= h @ Q[: k + 1]
            T[k, k] += h[k]
        beta = float(np.linalg.norm(w))
        theta, S = np.linalg.eigh(T[: k + 1, : k + 1])
        if k + 1 == steps or beta * abs(S[k, 0]) <= rel_tol * (1.0 + np.abs(theta).max()):
            return theta, Q[: k + 1].T @ S
        T[k, k + 1] = T[k + 1, k] = beta


def _start(X):
    # the seeded start vector of both spectral probes at a point of this shape
    return substream(_EIG_SEED, "lanczos", *X.shape).standard_normal(X.shape)


def operator_norm_estimate(X, cfg):
    """Lower bound on the Hessian operator norm ||H|| at X: the largest
    |Ritz value| of a `_BASIS`-step Lanczos run, never below the |Rayleigh
    quotient| of a power iteration of the same length from the same start."""
    X = _check_factor(X, cfg)
    theta, _ = _lanczos(hessian_operator(X, cfg), _start(X), _BASIS, 0.0)
    return float(np.abs(theta).max())


@dataclass(frozen=True)
class EigResult:
    lambda_min: float  # Rayleigh quotient of the witness
    witness: np.ndarray  # d x r, unit Frobenius norm
    converged: bool  # ||H witness - lambda_min witness|| <= _EIG_TOL * (1 + op_norm)
    iterations: int  # Hessian-vector products used
    op_norm: float  # largest |Ritz value| seen: a lower bound on ||H||


def min_hessian_eig(X, cfg):
    """Smallest Hessian eigenvalue at X by restarted Lanczos.

    Runs `_lanczos` on one `hessian_operator`, restarting from the smallest
    Ritz vector v until the explicit residual ||H v - theta v|| is at most
    tol = 1e-6 * (1 + op_norm); the H v of that check is the first step of
    the restart.  If the cap of 50 * d * r Hessian-vector products is
    reached first, the last v is returned with converged=False, and
    lambda_min is only an upper bound.  lambda_min is the Rayleigh quotient
    of the unit witness v, so hessian_quadratic(X, witness) <= lambda_min + tol.
    """
    X = _check_factor(X, cfg)
    H = hessian_operator(X, cfg)
    cap = 50 * X.size
    v, Hv, used, op, converged = _start(X), None, 0, 0.0, False
    while not converged and used < cap - 1:
        theta, Y = _lanczos(H, v, min(_BASIS, cap - used - 1), _EIG_TOL, Hv)
        op = max(op, float(np.abs(theta).max()))
        used += Y.shape[1] - (Hv is not None) + 1
        v = Y[:, 0].reshape(X.shape)
        Hv = H(v)
        lam = float(np.sum(v * Hv))
        converged = float(np.linalg.norm(Hv - lam * v)) <= _EIG_TOL * (1.0 + op)
    return EigResult(lambda_min=lam, witness=v, converged=converged, iterations=used, op_norm=op)
