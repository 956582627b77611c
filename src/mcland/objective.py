"""Masked factorization objective, its derivatives, and Hessian probes.

The objective on a d x r factor X is

    f(X) = 1/2 * sum_{(i,j) observed} (M_ij - <X_i, X_j>)^2
           + weight * sum_i rho(||X_i||)

with rho(t) = (t - alpha)^4 for t >= alpha and 0 below: a quartic hinge on
row norms that is twice continuously differentiable everywhere.  Its value,
gradient and curvature each come from one pass over the rows,
`_row_excess`; where no row norm exceeds alpha that pass ends at its first
check and the gradient and HVP add nothing, else they add the weighted
term on the active rows only.  `breakdown` weights the value once, so
`EvalBreakdown.reg_term` is weight * sum_i rho(||X_i||).  The data
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
uniformly draws each stored pair in proportion to its weight.  It reads a
position's row and value from two tables indexed by position, 12 bytes a
position (1.2 MB at d=1000, p=0.1), which the config builds on first use:
only SGD uses them, and a config that GD uses would hold 7.7 MB more at
d=4000, p=0.02.  A CSR matrix meets a d x r operand one column at a time,
and `pair_gradient_sum` scatters with one `np.bincount` per column: each
adds every sum in the order of scipy's multi-vector product and
`np.add.at`, so the floats are theirs, in less time.
`value_and_gradient` shares one residual pass between value and gradient,
and `breakdown` and `residual_gradient` let a caller that already holds the
residuals of a point (an accepted line-search trial) reuse them.
`hessian_operator` applies the data curvature through P:

    sum_j Omega_ij (<V_i, X_j> + <X_i, V_j>) X_j = A_i V_i + B_i X_i,

with the r x r blocks A = P [X_j X_j^T] once per point and B = P [X_j V_j^T]
once per application, so an application gathers no pairs and builds no
matrix.  `min_hessian_eig` and `operator_norm_estimate` each make one run of
one Lanczos routine on it, with no restart: the eigensolve for up to d * r
steps, the norm estimate for _NORM_STEPS.  A run solves its tridiagonal T
for vectors (numpy's dense `eigh`) only at a step that may stop; importing
scipy.linalg for a tridiagonal solver would add 7.5 MB to the resident set.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .rng import substream

_EIG_SEED = 31415001
_NORM_STEPS = 8  # Lanczos steps of the norm estimate: a first step needs only its scale
_EPS = float(np.finfo(float).eps)
_EIG_TOL = 1e-6  # min_hessian_eig converges at a residual of at most _EIG_TOL * (1 + ||H||)


class ObjectiveConfig:
    """Hyperparameters bound to one observation, with precomputed mask layout.

    Instances are safe to share across threads: all evaluation state is
    per-call, and the per-position tables of `pair_gradient_sum`, the one
    thing built after construction, come out the same whichever thread
    builds them.
    """

    def __init__(self, hyper, obs):
        self.hyper = hyper
        self.obs = obs
        mask = obs.mask
        d = self.d = mask.d
        i, j = mask.i, mask.j
        self._j = j
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

    @cached_property
    def _position_tables(self):
        # (row, value) of every position of the pattern, for `pair_gradient_sum`:
        # built on first use, since only SGD reads them
        rows = np.repeat(np.arange(self.d, dtype=self._indptr.dtype), np.diff(self._indptr))
        return rows, self.obs.values[self._slot]

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


def _row_excess(X, alpha):
    """The penalty's one pass over the rows of X: None where no row norm
    exceeds alpha, where every penalty term is zero, else (e, act, t): the
    excess max(||X_i|| - alpha, 0) of every row (NaN where the norm is NaN),
    the active rows, those with e > 0, and their norms.  The largest squared
    norm decides None: sqrt is monotone and correctly rounded, so its root is
    the largest row norm, and a row with a NaN norm goes on to the per-row
    test."""
    sq = (X * X).sum(axis=1)
    if np.sqrt(sq.max(initial=0.0)) <= alpha:
        return None
    t = np.sqrt(sq)
    e = np.maximum(t - alpha, 0.0)
    act = np.flatnonzero(e > 0.0)
    return e, act, t[act]


def regularizer(X, alpha):
    """sum_i rho(||X_i||), unweighted; NaN where a row norm is NaN.  It sums
    all d rows, inactive ones as zeros: np.sum over the active rows alone
    would group the terms differently and can round differently."""
    excess = _row_excess(X, alpha)
    return 0.0 if excess is None else float(np.sum(excess[0] ** 4))


def add_penalty_gradient(G, X, cfg):
    """G += the weighted penalty gradient, in place on the active rows only,
    and returns G.  Active row i gets reg_weight * 4 (||X_i|| - alpha)^3 X_i /
    ||X_i||; nothing is added at a weight of 0."""
    weight = cfg.hyper.reg_weight
    excess = _row_excess(X, cfg.hyper.alpha) if weight > 0 else None
    if excess is not None:
        e, act, t = excess
        G[act] += weight * ((4.0 * e[act] ** 3 / t)[:, None] * X[act])  # t > alpha > 0
    return G


@dataclass(frozen=True)
class EvalBreakdown:
    data_term: float
    reg_term: float  # weighted penalty value: reg_weight * regularizer
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
    # the penalty is evaluated at a weight of 0 too: 0 * inf = NaN makes a
    # non-finite row that no pair observes show as a non-finite total
    reg = cfg.hyper.reg_weight * regularizer(X, cfg.hyper.alpha)
    return EvalBreakdown(data_term=data, reg_term=reg, total=data + reg)


def residual_gradient(X, resid, cfg):
    """d x r gradient from the residuals of X: -2 P_Omega(residual) X plus the
    weighted penalty gradient."""
    return add_penalty_gradient(-2.0 * cfg.masked_matmul(resid, X), X, cfg)


def value_and_gradient(X, cfg):
    """(EvalBreakdown, gradient) at X from one residual pass."""
    X = _check_factor(X, cfg)
    resid = cfg.residuals(X)
    return breakdown(X, resid, cfg), residual_gradient(X, resid, cfg)


def pair_gradient_sum(X, cfg, positions):
    """Sum of per-entry data gradients over positions of the symmetric pattern.

    Position k in [0, n_pairs) is the ordered entry (i, j) in row-major
    order, which contributes -(M_ij - <X_i, X_j>) * (e_i X_j^T + e_j X_i^T);
    summing over every position reproduces the full data gradient.  Row i
    and M_ij come from the config's per-position tables, column j from the
    pattern's column indices.
    """
    rows, values = cfg._position_tables
    i, j = rows.take(positions), cfg._indices.take(positions)
    Xi, Xj = X.take(i, axis=0), X.take(j, axis=0)  # a tenth of the time of X[i] at r=2
    # minus the residual: negation is exact, so each term below is -resid * x to the bit
    neg_resid = np.einsum("ij,ij->i", Xi, Xj) - values.take(positions)
    # one bincount per column adds each row's terms in entry order, all the
    # i-side terms before the j-side ones, as np.add.at would: the same sums
    ij = np.concatenate([i, j])
    b = i.size
    w = np.empty(2 * b)
    G = np.empty(X.shape)
    for k in range(X.shape[1]):
        np.multiply(neg_resid, Xj[:, k], out=w[:b])
        np.multiply(neg_resid, Xi[:, k], out=w[b:])
        G[:, k] = np.bincount(ij, weights=w, minlength=cfg.d)
    return G


def hessian_operator(X, cfg):
    """The matrix-free Hessian at X, as a function V -> d^2 f(X)[V] (d x r).

    H[V] = 2 P_Omega(V X^T + X V^T) X - 2 P_Omega(residual) V + penalty part,
    with the first term applied rowwise as 2 (A_i V_i + B_i X_i) for the r x r
    blocks A_i = sum_j Omega_ij X_j X_j^T and B_i = sum_j Omega_ij X_j V_j^T:
    A, the residual CSR matrix and the penalty setup are computed once here,
    B is one product of the 0/1 pattern with the rows X_j V_j^T per
    application (O(n_pairs r^2)); nothing is stored on `cfg`.  B takes its
    r^2 columns in one multi-vector product, no slower than r^2 single-vector
    ones; the residual matrix takes V one column at a time.  Self-adjoint.
    """
    X = _check_factor(X, cfg)
    d, r = X.shape

    def blocks(Y):  # the r x r blocks sum_j Omega_ij X_j Y_j^T
        return (cfg._pattern @ (X[:, :, None] * Y[:, None, :]).reshape(d, r * r)).reshape(d, r, r)

    R = cfg._masked_matrix(cfg.residuals(X))
    A = blocks(X)
    weight = cfg.hyper.reg_weight
    excess = _row_excess(X, cfg.hyper.alpha) if weight > 0 else None
    if excess is not None:  # on the active rows: rho'' radially, rho'(t) / t tangentially
        e, act, t = excess
        u = X[act] / t[:, None]
        d1_over_t, d2 = 4.0 * e[act] ** 3 / t, 12.0 * e[act] ** 2

    def apply(V):
        V = _check_direction(V, X)
        HV = 2.0 * (np.einsum("iab,ib->ia", A, V) + np.einsum("iab,ib->ia", blocks(V), X))
        HV -= 2.0 * _matmul_columns(R, V)
        if excess is not None:
            Va = V[act]
            proj = np.einsum("ij,ij->i", Va, u)
            HV[act] += weight * ((d2 * proj)[:, None] * u + d1_over_t[:, None] * (Va - proj[:, None] * u))
        return HV

    return apply


def _lanczos(H, v, steps, rel_tol):
    """Fully reorthogonalized Lanczos on H from v, for at most `steps` steps.

    Returns the Ritz values in ascending order and the unit Ritz vector of
    the smallest, flattened.  Each step costs one HVP.  Stops early once the
    residual estimate beta_k |s_k| of the smallest Ritz pair is at most
    rel_tol * (1 + max |Ritz value|), which includes an invariant Krylov
    space (beta_k = 0).  The basis Q and the tridiagonal T double in size
    as the run needs them.

    Only a step that may stop solves T for its vectors (`np.linalg.eigh`),
    and that solve decides the stop and gives the returned pair.  The other
    steps skip it: with rel_tol = 0 every step before the last with
    beta_k > 0, and else each step whose Ritz values alone (`eigvalsh`,
    about half the cost of `eigh`) put beta_k |s_k| above twice the
    tolerance, by Paige's identity (`_far_from_stop`); the factor 2 leaves
    room for the rounding of eigh's own s_k, so no stop is skipped.
    """
    steps = min(steps, v.size)  # the Krylov space cannot outgrow the space
    Q = np.empty((0, v.size))
    T = np.zeros((0, 0))
    w = v.ravel()
    beta = float(np.linalg.norm(w))
    theta = np.zeros(0)  # the Ritz values of the step before
    for k in range(steps):
        if k == Q.shape[0]:
            size = min(max(2 * k, 8), steps)
            Q = np.concatenate([Q, np.empty((size - k, v.size))])
            T, T_old = np.zeros((size, size)), T
            T[:k, :k] = T_old
        if k:
            T[k - 1, k] = T[k, k - 1] = beta
        Q[k] = w / beta
        w = H(Q[k].reshape(v.shape)).ravel()
        for _ in range(2):  # classical Gram-Schmidt twice: Q stays orthonormal to rounding
            h = Q[: k + 1] @ w
            w -= h @ Q[: k + 1]
            T[k, k] += h[k]
        beta = float(np.linalg.norm(w))
        if k + 1 < steps and beta > 0.0:
            if rel_tol == 0.0:
                continue
            theta_prev, theta = theta, np.linalg.eigvalsh(T[: k + 1, : k + 1])
            if _far_from_stop(theta, theta_prev, beta, rel_tol):
                continue
        theta, S = np.linalg.eigh(T[: k + 1, : k + 1])
        if k + 1 == steps or beta * abs(S[k, 0]) <= rel_tol * (1.0 + np.abs(theta).max()):
            return theta, (Q[: k + 1].T @ S)[:, 0]


def _far_from_stop(theta, theta_prev, beta, rel_tol):
    """Whether beta |s| is above twice rel_tol * (1 + max |theta|), where s
    is the last component of the smallest Ritz vector of T, from the Ritz
    values alone: theta of T, and theta_prev of T less its last row and
    column.

    Paige's identity gives s^2 = prod_j (theta_prev_j - theta_0) /
    (theta_{j+1} - theta_0), each ratio in [0, 1] by interlacing.  With
    each Ritz value off by up to delta = (k + 1) eps (1 + max |theta|), a
    ratio moves by at most 4 delta / g, g = theta_1 - theta_0 - 2 delta,
    and the product by k times that, which is taken off s^2.  Where that
    leaves nothing to test, as where Ritz values coincide, the answer is
    no, and the caller solves T.
    """
    k = theta_prev.size
    scale = 1.0 + np.abs(theta).max()
    tol = rel_tol * scale
    if k == 0:  # T is 1 x 1: s = 1
        return beta > 2.0 * tol
    delta = (k + 1) * _EPS * scale
    g = theta[1] - theta[0] - 2.0 * delta
    if not g > 4.0 * k * delta:
        return False
    s2 = float(np.prod((theta_prev - theta[0]) / (theta[1:] - theta[0])))
    return beta * beta * (s2 - 4.0 * k * delta / g) > 4.0 * tol * tol


def _start(X):
    # the seeded start vector of both spectral probes at a point of this shape
    return substream(_EIG_SEED, "lanczos", *X.shape).standard_normal(X.shape)


def operator_norm_estimate(X, cfg):
    """Lower bound on the Hessian operator norm ||H|| at X: the largest
    |Ritz value| of a Lanczos run of _NORM_STEPS steps, never below the
    |Rayleigh quotient| of a power iteration of the same length from the
    same start."""
    X = _check_factor(X, cfg)
    theta, _ = _lanczos(hessian_operator(X, cfg), _start(X), _NORM_STEPS, 0.0)
    return float(np.abs(theta).max())


@dataclass(frozen=True)
class EigResult:
    lambda_min: float  # Rayleigh quotient of the witness
    witness: np.ndarray  # d x r, unit Frobenius norm
    converged: bool  # ||H witness - lambda_min witness|| <= _EIG_TOL * (1 + op_norm)
    iterations: int  # Hessian-vector products used
    op_norm: float  # largest |Ritz value| seen: a lower bound on ||H||


def curvature_slack(cfg, op_norm):
    """The curvature slack tau: cfg.hyper.tau, or 1e-4 * (1 + op_norm) when that is 0 (op_norm ~ ||H||)."""
    return cfg.hyper.tau if cfg.hyper.tau > 0 else 1e-4 * (1.0 + op_norm)


def min_hessian_eig(X, cfg):
    """Smallest Hessian eigenvalue at X by one Lanczos run.

    Runs `_lanczos` on one `hessian_operator` for at most d * r steps, then
    checks the smallest Ritz vector v explicitly: converged means
    ||H v - theta v|| <= tol = 1e-6 * (1 + op_norm).  That puts lambda_min
    within tol of some eigenvalue, not provably the smallest; a label holds
    because tau is far above tol.  At most d * r + 1 Hessian-vector
    products.  lambda_min is the Rayleigh quotient <v, H[v]> of the unit
    witness v.
    """
    X = _check_factor(X, cfg)
    H = hessian_operator(X, cfg)
    theta, v = _lanczos(H, _start(X), X.size, _EIG_TOL)
    op = float(np.abs(theta).max())
    v = v.reshape(X.shape)
    Hv = H(v)
    lam = float(np.sum(v * Hv))
    converged = float(np.linalg.norm(Hv - lam * v)) <= _EIG_TOL * (1.0 + op)
    return EigResult(lambda_min=lam, witness=v, converged=converged, iterations=theta.size + 1, op_norm=op)
