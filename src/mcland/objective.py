"""Masked factorization objective, its derivatives, and Hessian probes.

The objective on a d x r factor X is

    f(X) = 1/2 * sum_{(i,j) observed} (M_ij - <X_i, X_j>)^2
           + weight * sum_i rho(||X_i||)

with rho(t) = (t - alpha)^4 for t >= alpha and 0 below: a quartic hinge on
row norms that is twice continuously differentiable everywhere.  Its value,
gradient and curvature at a point share one pass over the rows,
`_row_excess`, which the column maxima of |X| may rule out: where no row
norm exceeds alpha the gradient and HVP add nothing, else they add the
weighted term on the active rows only.  The pass runs once per point, in
its `Point`.  The value weights the penalty once, so
`EvalBreakdown.reg_term` is weight * sum_i rho(||X_i||).  The data
sum runs over both orders of every observed entry, so an observed
off-diagonal entry counts twice and a diagonal entry once; `n_pairs` is that
count, |Omega|.  The kernels use the mask's one pair format: each observed
pair once, (i, j) with i <= j, with a weight of 2 off the diagonal and 1 on
it; `pair_gram`, `residuals` and `masked_matmul` take or return one value
per stored pair.  `pair_gram` works one column x of X at a time: the pairs
are sorted by i, so x[i] is a run-length repeat of x, and scipy's compiled
`csr_scale_columns` multiplies it by x[j] in place, the floats of
x[i] * x[j] with no gather or product temporary.  A `residuals` call takes
451-471 against 785-800 us for a gather and product at d=4000, r=2 (320k
pairs), 99-103 against 153-190 us at d=1000, p=0.1 (one BLAS thread,
2-core VM).

Evaluation touches only observed Gram entries (cost O(n_pairs * r + d * r)).
Every masked product S @ Y, for the symmetric S that carries one value per
stored pair, reads the stored pairs directly, as the upper-triangular CSR
matrix U of the mask, in two passes of scipy's compiled kernels into one
output: a CSC pass over U read as U^T adds each row's mirrors, then a CSR
pass over U adds its stored pairs.  Together they add each output entry's
terms in the order of a CSR pass over the full symmetric pattern, so the
floats are those of scipy's public `csr_matrix @ Y` on it; no matrix is built
or dispatched per call, and no symmetric copy of the mask is kept.  With
unit values S is the fixed 0/1 matrix P.
Position k in [0, n_pairs) of the symmetric pattern, in row-major order, is
one ordered entry: `pair_gradient_sum` takes such positions, so drawing them
uniformly draws each stored pair in proportion to its weight.  It reads a
position's row, column and value from one packed table of (i, j, v) records
indexed by position, 16 bytes a position (1.6 MB at d=1000, p=0.1), which
the config builds on first use: only SGD uses it.  One `take` of the records
replaces three gathers (8-11 against 11-18 us at batch 4096, d=1000, r=2, one
BLAS thread, 2-core VM).  Up to r = 2 the row dot <X_i, X_j> is an in-place
product and one column add, the floats of `einsum`'s sums (7-8 against 23-34
us there); from r = 3 it is `einsum`, whose lanes add (p0 + p2) + p1.  It
scatters through scipy's compiled COO kernel, which adds in the order of
`np.add.at`: the same floats, in less time.
A `Point` is the record of one evaluated point, and what every function
that reads a point takes.  Its construction makes one residual pass and one
row pass and gives the value from both; the gradient and its norm follow on
first request, once, so a rejected line-search trial never computes them.
`hessian_operator` and `min_hessian_eig` read its residuals and row pass.
`evaluate` is the guarded construction: a point with its gradient, where an
overflow gives inf or NaN, never a warning.
Every eigensolve at a point of shape (d, r) starts from one seeded vector,
drawn on first use and kept read-only.
`hessian_operator` applies the data curvature through P:

    sum_j Omega_ij (<V_i, X_j> + <X_i, V_j>) X_j = A_i V_i + B_i X_i,

with the r x r blocks A = P [X_j X_j^T] once per point and B = P [X_j V_j^T]
once per application, so an application gathers no pairs and builds no
matrix.  From the same A, residuals and penalty terms it also assembles the
d r x d r matrix, in O(n_pairs r^2 + (d r)^2).  `min_hessian_eig` is the
one spectral probe of a point, and its largest |eigenvalue| is also the
point's norm estimate.  Up to d * r = _DENSE_MAX it solves that matrix
densely: its eigenvalues (`eigvalsh`), then the smallest one's eigenvector
by one step of inverse iteration.  At d = 100, r = 1 the bottom of the
spectrum is not isolated and Lanczos takes 27 to 37 steps, against about
0.5 ms for the dense solve of a 100 x 100 matrix.  Above it, it makes one
Lanczos run on the operator, with no restart, for up to d * r steps.  A
run solves its tridiagonal T for vectors (numpy's dense `eigh`) only at a
step that may stop; importing scipy.linalg for a tridiagonal or partial
dense solver would add 7.5 MB to the resident set.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.sparse._sparsetools import coo_matvec, csc_matvec, csc_matvecs, csr_matvec, csr_matvecs, csr_scale_columns

from .rng import substream

_EIG_SEED = 31415001
_EPS = float(np.finfo(float).eps)
_EIG_TOL = 1e-6  # min_hessian_eig converges at a residual of at most _EIG_TOL * (1 + ||H||)
# min_hessian_eig assembles H and solves it densely up to this d * r, and runs Lanczos above it.
# Per eigensolve at GD endpoints, one BLAS thread on a 2-core Xeon VM: at r = 1 dense takes 1.0-1.2
# against 2.3-3.2 ms for Lanczos at d * r = 100, and about as long at 200; at r = 2 Lanczos stops in
# 7 steps and is the faster from d * r = 100 up (0.6-1.1 against 0.9-1.6 ms), and at the r = 2 C3
# cells, d * r = 200, it takes 2.0 against 4.2-4.8 ms
_DENSE_MAX = 100


class ObjectiveConfig:
    """Hyperparameters bound to one observation, with precomputed mask layout.

    The layout is U, the upper-triangular CSR matrix of the stored pairs
    (row pointers and columns), each pair's output row in the mirror pass
    of a masked product, and the pair weights, built without a sort: 17.3
    bytes a stored pair at the peak of the build at d=4000, p=0.02.
    Instances are safe to share across threads: all evaluation state is
    per-call, and the per-position table of `pair_gradient_sum`, the one
    thing built after construction, comes out the same whichever thread
    builds it.  An empty mask, whose objective is the penalty alone, is a ValueError.
    """

    def __init__(self, hyper, obs):
        mask = obs.mask
        if not mask.n_pairs:
            raise ValueError(f"the mask is empty: the instance observes no entries at p={mask.p}")
        self.hyper = hyper
        self.obs = obs
        d = self.d = mask.d
        i, j = mask.i, mask.j
        diag = i == j
        self._w = np.where(diag, 1.0, 2.0)
        self.n_pairs = mask.n_pairs
        # U, the upper-triangular CSR matrix of the stored pairs, in one dtype for every index
        # array, as the kernels take them; 32 bits halve the traffic.  The stored pairs are
        # sorted by i, so x[i] is x[k] repeated _row_counts[k] times
        idx = np.int32 if max(d + 1, i.size) < 2**31 else np.int64
        self._row_counts = np.bincount(i, minlength=d)
        self._indptr = np.concatenate([[0], np.cumsum(self._row_counts)]).astype(idx)
        self._cols = j.astype(idx)
        # the output row of each pair's mirror (j, i) in the mirror pass; d, a sink row
        # dropped after the pass, for a diagonal pair, which has no mirror
        self._mirror_rows = self._cols.copy()
        self._mirror_rows[diag] = d

    @cached_property
    def _positions(self):
        # one (i, j, v) record, row, column and value, for every position of the symmetric
        # pattern, row-major, for `pair_gradient_sum`: built on first use, since only SGD reads it
        i, j, v, d = self.obs.mask.i, self.obs.mask.j, self.obs.values, self.d
        off = i != j  # a boolean mask: an eighth of the memory of its indices, held while the table fills
        # the stored pairs, then the mirrors of the off-diagonal ones, by row-major key
        order = np.argsort(np.concatenate([i * d + j, j[off] * d + i[off]]))
        idx = self._indptr.dtype
        table = np.empty(order.size, dtype=[("i", idx), ("j", idx), ("v", np.float64)])
        for name, stored, mirror in (("i", i, j), ("j", j, i), ("v", v, v)):
            table[name] = np.concatenate([stored, mirror[off]])[order]
        return table

    def pair_gram(self, X):
        """<X_i, X_j> for every stored pair (i, j)."""
        # per column x, t = x[i] by a run-length repeat, then t[k] *= x[j_k] in place by scipy's
        # compiled kernel, which reads x unchecked; the columns' products are added in order
        g = None
        for x in np.ascontiguousarray(_check_factor(X, self).T):
            t = x.repeat(self._row_counts)
            csr_scale_columns(self.d, self.d, self._indptr, self._cols, t, x)
            g = t if g is None else np.add(g, t, out=g)
        return g

    def residuals(self, X):
        """M_ij - <X_i, X_j> on the stored pairs."""
        g = self.pair_gram(X)
        return np.subtract(self.obs.values, g, out=g)

    def _matmul(self, data, Y):
        # S @ Y for the symmetric S with `data` on the stored pairs.  Two passes add into one
        # output: one over U read as U^T adds each row r's mirrors (r, i), i < r, then one over U
        # its stored pairs (r, j), j >= r, both in ascending column order: the terms of a pass over
        # S's row r, in its order.  The mirror pass sends diagonal pairs to row d, dropped after.
        # Up to two columns, a pair of single-vector calls per column; else the multi-vector
        # kernels, same order (at d=1000: 155 against 231 us for 2 columns, 280 against 390 for 4)
        d, k = self.d, Y.shape[1]
        if k > 2:
            y, out = Y.ravel(), np.zeros((d + 1) * k)
            csc_matvecs(d + 1, d, k, self._indptr, self._mirror_rows, data, y, out)
            csr_matvecs(d, d, k, self._indptr, self._cols, data, y, out)
            return out[: d * k].reshape(d, k)
        out = np.zeros((k, d + 1))
        for y, o in zip(np.ascontiguousarray(Y.T), out):
            csc_matvec(d + 1, d, self._indptr, self._mirror_rows, data, y, o)
            csr_matvec(d, d, self._indptr, self._cols, data, y, o)
        return np.ascontiguousarray(out[:, :d].T)

    def masked_matmul(self, pair_values, Y):
        """(P_Omega(A) @ Y) where symmetric A carries `pair_values` on the stored pairs."""
        # the kernels read both unchecked
        return self._matmul(_check_pairs(pair_values, self), _check_factor(Y, self))


def _row_excess(X, alpha):
    """The penalty's one pass over the rows of X: None where no row norm
    exceeds alpha, where every penalty term is zero, else (e, act, t): the
    excess max(||X_i|| - alpha, 0) of every row (NaN where the norm is NaN),
    the active rows, those with e > 0, and their norms.  The column maxima m_k = max_i |X_ik|
    decide None first (5 against 23 us at d=1000, r=2): sum_k m_k^2 bounds every squared row
    norm, and a root in (2^-500, alpha (1 - 4 r eps)] leaves room for any order of the sums
    and for underflow in the rows' squares.  Else the largest squared norm decides: sqrt is
    monotone and correctly rounded, so its root is the largest row norm; a NaN fails both."""
    m = np.abs(np.ascontiguousarray(X.T)).max(axis=1, initial=0.0)  # contiguous: 4 against 40 us
    if 2.0**-500 < math.sqrt(np.dot(m, m)) <= alpha * (1.0 - 4 * X.shape[1] * _EPS):
        return None
    sq = (X * X).sum(axis=1)
    if np.sqrt(sq.max(initial=0.0)) <= alpha:
        return None
    t = np.sqrt(sq)
    e = np.maximum(t - alpha, 0.0)
    act = np.flatnonzero(e > 0.0)
    return e, act, t[act]


def add_penalty_gradient(G, X, cfg, excess):
    """G += the weighted penalty gradient, in place on the active rows only,
    and returns G.  `excess` is the row pass of X, `_row_excess(X,
    cfg.hyper.alpha)`.  Active row i gets reg_weight * 4 (||X_i|| - alpha)^3
    X_i / ||X_i||; nothing is added at a weight of 0 or where no row is
    active."""
    if excess is not None and cfg.hyper.reg_weight > 0:
        e, act, t = excess
        G[act] += cfg.hyper.reg_weight * ((4.0 * e[act] ** 3 / t)[:, None] * X[act])  # t > alpha > 0
    return G


@dataclass(frozen=True)
class EvalBreakdown:
    data_term: float
    reg_term: float  # weighted penalty value: reg_weight * sum_i rho(||X_i||)
    total: float


def _check_factor(X, cfg):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != cfg.d or X.shape[1] < 1:
        raise ValueError(f"dimension mismatch: factor shape {X.shape}, instance has d={cfg.d}")
    return X


def _check_pairs(values, cfg):
    values = np.ascontiguousarray(values, dtype=float)
    if values.shape != cfg._cols.shape:
        raise ValueError(f"dimension mismatch: {values.shape} pair values, the mask stores {cfg._cols.size} pairs")
    return values


def _check_direction(V, X):
    V = np.asarray(V, dtype=float)
    if V.shape != X.shape:
        raise ValueError(f"dimension mismatch: V is {V.shape}, X is {X.shape}")
    return V


class Point:
    """The factor X on `cfg`, with what was computed at it.

    Construction makes the residual pass (`cfg.residuals`, which checks X),
    kept as `resid`, and the penalty's row pass (`_row_excess`), kept as
    `excess`, and splits the objective value from both into `value`, an
    `EvalBreakdown`: every line-search trial needs all three.  `gradient()`
    and `grad_norm()` compute the gradient and its norm on the first request
    of either, once.  Nothing here guards against overflow: `evaluate` is
    the guarded construction, and a solver guards its own trials.
    """

    def __init__(self, X, cfg):
        self.resid = resid = cfg.residuals(X)
        self.X = X = np.asarray(X, dtype=float)  # the residual pass checked its shape
        self.cfg = cfg
        self.excess = excess = _row_excess(X, cfg.hyper.alpha)
        data = 0.5 * float((cfg._w * resid) @ resid)
        # sum_i rho(||X_i||) over all d rows, inactive ones as zeros: np.sum over the active rows
        # alone would group the terms differently and can round differently.  It is weighted at a
        # weight of 0 too: 0 * inf = NaN makes a non-finite row that no pair observes show as a
        # non-finite total
        reg = cfg.hyper.reg_weight * (0.0 if excess is None else float(np.sum(excess[0] ** 4)))
        self.value = EvalBreakdown(data_term=data, reg_term=reg, total=data + reg)
        self._G = None

    def gradient(self):
        """The d x r gradient: -2 P_Omega(residual) X plus the weighted penalty gradient."""
        if self._G is None:
            X, cfg = self.X, self.cfg
            self._G = G = add_penalty_gradient(-2.0 * cfg.masked_matmul(self.resid, X), X, cfg, self.excess)
            # the floats of np.linalg.norm(G), sqrt of the dot of the flat G with itself, without its checks
            self._grad_norm = math.sqrt(np.vdot(G, G))
        return self._G

    def grad_norm(self):
        """||gradient()||_F."""
        self.gradient()
        return self._grad_norm


def evaluate(X, cfg):
    """The `Point` at X with its gradient and gradient norm, from one residual
    pass and one row pass; an overflow gives an inf or NaN value or norm,
    never a warning."""
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports such a point as diverged
        pt = Point(X, cfg)
        pt.gradient()
    return pt


def pair_gradient_sum(X, cfg, positions):
    """Sum of per-entry data gradients over positions of the symmetric pattern.

    Position k in [0, n_pairs) is the ordered entry (i, j) in row-major
    order, which contributes -(M_ij - <X_i, X_j>) * (e_i X_j^T + e_j X_i^T);
    summing over every position reproduces the full data gradient.  Row i,
    column j and M_ij come from the config's per-position table.
    """
    X = _check_factor(X, cfg)  # the kernel reads and writes unchecked
    rec = cfg._positions.take(positions)
    i, j = np.ascontiguousarray(rec["i"]), np.ascontiguousarray(rec["j"])  # the kernel takes contiguous indices
    Xi, Xj = X.take(i, axis=0), X.take(j, axis=0)  # a tenth of the time of X[i] at r=2
    if X.shape[1] > 2:
        dot = np.einsum("ij,ij->i", Xi, Xj)
    else:
        # einsum's sums from 0.0: they differ only where a -0.0 turns +0.0, which the scatter's
        # +0.0 accumulators absorb
        Xi *= Xj
        dot = Xi[:, 0] if X.shape[1] == 1 else Xi[:, 0] + Xi[:, 1]
    # minus the residual: negation is exact, so each term below is -resid * x to the bit
    neg_resid = dot - rec["v"]
    # per column x, g[i] += neg_resid * x[j] then g[j] += neg_resid * x[i], in entry order: np.add.at's
    # sums.  Two calls, as one on both sides concatenated takes 50 against 43 us at batch 4096, r=2
    G = np.zeros((X.shape[1], cfg.d))  # the kernel adds into its output
    for x, g in zip(np.ascontiguousarray(X.T), G):
        coo_matvec(i.size, i, j, neg_resid, x, g)
        coo_matvec(i.size, j, i, neg_resid, x, g)
    return np.ascontiguousarray(G.T)


class _Hessian:
    """The Hessian at the point `pt`: `H(V)` applies it, `H.matrix()` assembles it.

    The pieces that do not depend on V are set up once, here, for both: the
    point's residuals, the r x r blocks A_i = sum_j Omega_ij X_j X_j^T, and
    the penalty's curvature on the active rows of the point's row pass.
    """

    def __init__(self, pt):
        X, cfg = self.X, self.cfg = pt.X, pt.cfg
        self.resid = pt.resid
        self.unit = np.ones(self.resid.size)  # the data of P
        self.A = self._blocks(X)
        self.weight = cfg.hyper.reg_weight
        self.active = None
        # on the active rows, none at a weight of 0: rho'' radially, rho'(t) / t tangentially
        if pt.excess is not None and self.weight > 0:
            e, self.active, t = pt.excess
            self.u = X[self.active] / t[:, None]
            self.d1_over_t, self.d2 = 4.0 * e[self.active] ** 3 / t, 12.0 * e[self.active] ** 2

    def _blocks(self, Y):  # the r x r blocks sum_j Omega_ij X_j Y_j^T
        X, (d, r) = self.X, self.X.shape
        return self.cfg._matmul(self.unit, (X[:, :, None] * Y[:, None, :]).reshape(d, r * r)).reshape(d, r, r)

    def _penalty(self, Va):  # the weighted penalty curvature of the active rows along their directions Va
        u = self.u
        proj = np.einsum("ij,ij->i", Va, u)
        return self.weight * ((self.d2 * proj)[:, None] * u + self.d1_over_t[:, None] * (Va - proj[:, None] * u))

    def __call__(self, V):
        X = self.X
        V = _check_direction(V, X)
        HV = 2.0 * (np.einsum("iab,ib->ia", self.A, V) + np.einsum("iab,ib->ia", self._blocks(V), X))
        HV -= 2.0 * self.cfg._matmul(self.resid, V)
        if self.active is not None:
            HV[self.active] += self._penalty(V[self.active])
        return HV

    def matrix(self):
        """The d r x d r matrix of H, indexed as X.ravel(), in O(n_pairs r^2 + (d r)^2).

        A stored pair (i, j) puts 2 X_j X_i^T - 2 R_ij I at block (i, j) and,
        off the diagonal, its transpose at (j, i); each diagonal block (i, i)
        adds 2 A_i and, on an active row, the penalty's r x r block, the
        penalty curvature along each unit direction.  Symmetric to rounding:
        the penalty block's products round in another order on each side.
        """
        X, (d, r) = self.X, self.X.shape
        i, j = self.cfg.obs.mask.i, self.cfg.obs.mask.j
        H = np.zeros((d, r, d, r))
        pair = 2.0 * X[j][:, :, None] * X[i][:, None, :]
        pair[:, np.arange(r), np.arange(r)] -= 2.0 * self.resid[:, None]
        H[i, :, j, :] = pair
        off = i != j
        H[j[off], :, i[off], :] = pair[off].transpose(0, 2, 1)
        rows = np.arange(d)
        H[rows, :, rows, :] += 2.0 * self.A
        act = self.active
        if act is not None:
            H[act, :, act, :] += np.stack([self._penalty(np.broadcast_to(e, (act.size, r))) for e in np.eye(r)], axis=2)
        return H.reshape(d * r, d * r)


def hessian_operator(pt):
    """The Hessian at the `Point` pt, as a function V -> d^2 f(X)[V] (d x r).

    H[V] = 2 P_Omega(V X^T + X V^T) X - 2 P_Omega(residual) V + penalty part,
    with the first term applied rowwise as 2 (A_i V_i + B_i X_i) for the r x r
    blocks A_i = sum_j Omega_ij X_j X_j^T and B_i = sum_j Omega_ij X_j V_j^T:
    A, the residuals and the penalty setup are computed once here, B is one
    product of the 0/1 matrix P with the rows X_j V_j^T per application
    (O(n_pairs r^2)); nothing is stored on `cfg`.  The residuals and the
    penalty's row pass are the point's.  Self-adjoint.  The returned
    operator's `matrix()` assembles H from the same pieces.
    """
    return _Hessian(pt)


def _lanczos(H, v):
    """Fully reorthogonalized Lanczos on H from v, for at most v.size steps.

    Returns the Ritz values in ascending order and the unit Ritz vector of
    the smallest, flattened.  Each step costs one HVP.  Stops early once the
    residual estimate beta_k |s_k| of the smallest Ritz pair is at most
    _EIG_TOL * (1 + max |Ritz value|), which includes an invariant Krylov
    space (beta_k = 0).  The basis Q and the tridiagonal T double in size
    as the run needs them.

    Only a step that may stop solves T for its vectors (`np.linalg.eigh`),
    and that solve decides the stop and gives the returned pair.  The other
    steps skip it: each step before the last with beta_k > 0 whose Ritz
    values alone (`eigvalsh`, about half the cost of `eigh`) put
    beta_k |s_k| above twice the tolerance, by Paige's identity
    (`_far_from_stop`); the factor 2 leaves room for the rounding of eigh's
    own s_k, so no stop is skipped.  The pre-check stays for long runs: without it 83 steps took
    28.7 against 19.8 ms (r = 1, one BLAS thread); up to 18 steps it saves nothing.
    """
    steps = v.size  # the Krylov space cannot outgrow the space
    Q = np.empty((0, v.size))
    T = np.zeros((0, 0))
    w = v.ravel()
    beta = math.sqrt(w.dot(w))  # np.linalg.norm(w), to the bit: sqrt(w.dot(w)), without its checks
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
        beta = math.sqrt(w.dot(w))
        if k + 1 < steps and beta > 0.0:
            theta_prev, theta = theta, np.linalg.eigvalsh(T[: k + 1, : k + 1])
            if _far_from_stop(theta, theta_prev, beta, _EIG_TOL):
                continue
        theta, S = np.linalg.eigh(T[: k + 1, : k + 1])
        if k + 1 == steps or beta * abs(S[k, 0]) <= _EIG_TOL * (1.0 + np.abs(theta).max()):
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


@cache
def _start(shape):
    # the seeded start vector of the eigensolve at a point of this shape, drawn once per shape
    # (d, r) and read-only, as every eigensolve of the shape shares it
    v = substream(_EIG_SEED, "lanczos", *shape).standard_normal(shape)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class EigResult:
    """The eigensolve of `min_hessian_eig`.  Up to d * r = _DENSE_MAX the
    witness is the smallest eigenvector of the assembled H and op_norm is
    ||H|| (max |eigenvalue|); above, they come from the Lanczos run."""

    lambda_min: float  # Rayleigh quotient of the witness, by one Hessian-vector product
    witness: np.ndarray  # d x r, unit Frobenius norm
    converged: bool  # ||H witness - lambda_min witness|| <= _EIG_TOL * (1 + op_norm)
    iterations: int  # Hessian-vector products used: 1 on the dense route, Lanczos steps + 1 above it
    op_norm: float  # max |eigenvalue| on the dense route; above it the largest |Ritz value|, a lower bound on ||H||


def curvature_slack(cfg, op_norm):
    """The curvature slack tau: cfg.hyper.tau, or 1e-4 * (1 + op_norm) when that is 0 (op_norm ~ ||H||)."""
    return cfg.hyper.tau if cfg.hyper.tau > 0 else 1e-4 * (1.0 + op_norm)


def min_hessian_eig(pt):
    """Smallest Hessian eigenvalue at the `Point` pt, by one dense solve or one Lanczos run.

    The route follows the size, d * r: up to _DENSE_MAX, the matrix of one
    `hessian_operator` is assembled and solved densely, and the witness v
    is the eigenvector of its smallest eigenvalue; above it, `_lanczos` runs
    on the operator for at most d * r steps and v is its smallest Ritz
    vector.  Either way lambda_min is the Rayleigh quotient <v, H[v]> of the unit
    witness, from one more Hessian-vector product, and v is checked
    explicitly: converged means ||H v - lambda_min v|| <= tol = 1e-6 *
    (1 + op_norm).  On the dense route lambda_min is then the smallest
    eigenvalue to rounding; after Lanczos it is within tol of some
    eigenvalue, not provably the smallest, and a label holds because tau is
    far above tol.  1 Hessian-vector product on the dense route, at most
    d * r + 1 above it.
    """
    X = pt.X
    H = hessian_operator(pt)
    if X.size <= _DENSE_MAX:
        M = H.matrix()
        theta = np.linalg.eigvalsh(M)
        # one step of inverse iteration from the seeded start, shifted by n eps (1 + ||H||) below
        # the smallest eigenvalue, so M - shift I is positive definite: its eigenvector, at half
        # the cost of eigh's whole set (0.53 against 0.97 ms at d * r = 100)
        shift = theta[0] - X.size * _EPS * (1.0 + np.abs(theta).max())
        v, steps = np.linalg.solve(M - shift * np.eye(X.size), _start(X.shape).ravel()), 0
        v /= np.linalg.norm(v)
    else:
        theta, v = _lanczos(H, _start(X.shape))
        steps = theta.size
    op = float(np.abs(theta).max())
    v = v.reshape(X.shape)
    Hv = H(v)
    lam = float(np.sum(v * Hv))
    converged = float(np.linalg.norm(Hv - lam * v)) <= _EIG_TOL * (1.0 + op)
    return EigResult(lambda_min=lam, witness=v, converged=converged, iterations=steps + 1, op_norm=op)
