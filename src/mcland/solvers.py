"""First-order solvers: Armijo gradient descent, minibatch SGD, perturbed GD.

`solve` is the one entry: it runs the method its config names.  Every
solver records a trace, a list of `TraceRow`s (objective split, gradient
norm, accepted step, cumulative per-entry gradient work), and is
deterministic given its config seed.  GD and perturbed GD write a row per
iteration; SGD writes one per full pass, which it runs once per epoch of
sampled entries (every ceil(|Omega| / batch) steps) and at its last
iteration.  Entry-gradient accounting counts |Omega| per full gradient and
`batch` per stochastic step; SGD's full passes (diagnostics and stop tests)
are not charged to the budget.

A run stops once the gradient norm reaches grad_tol = 1e-8 * (1 + f(X0)).
GD and perturbed GD share one Armijo loop with the textbook constants
c1 = 1e-4 and halving (Nocedal & Wright, Numerical Optimization, Sec. 3.1).
Each line search opens at the Barzilai-Borwein step <s, s> / <s, y> of the
last accepted move, with s = X_{k+1} - X_k and y = grad f(X_{k+1}) -
grad f(X_k), and backtracks from there until the sufficient-decrease test
passes, so every accepted step still decreases f.  Every solver sizes its
first step from one Hessian-vector product at X0: t0 = ||G||^2 /
|<G, H[G]>|, 1 where that product is 0.  Where the curvature along G is
positive, t0 is the BB step of an infinitesimal move along -G, the
minimiser of the quadratic model along -G.  GD's first search opens at t0;
SGD damps it by sqrt(batch / |Omega|) and divides it by 1 + 1e-3 (k - 1)
at step k.  A search opens at twice the last accepted step instead when its
<s, y> <= 0 and right after a witness step, across which s and y say
nothing about the curvature along the gradient.  A witness search before
the first move opens at 2 / ||H||, from the norm estimate of the
eigensolve that found the saddle.

Perturbed GD runs `min_hessian_eig` where it reaches grad_tol.  Where that
shows a saddle it steps along the eigensolve's witness, the negative-curvature
step of Royer & Wright (arXiv 1706.03131), under a curvature decrease test;
else it stops and returns the eigensolve for the certificate to reuse.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import objective as obj
from .csvio import store_fields, write_csv
from .rng import check_seed, substream

_STEP_UNDERFLOW = 1e-16
_C1 = 1e-4  # sufficient-decrease constant of every line search
_BACKTRACK = 0.5  # factor a rejected trial step is multiplied by
_STEP_DECAY = 1e-3  # SGD's step at iteration k is base / (1 + _STEP_DECAY * (k - 1))


class Method(str, Enum):
    GD = "gd"
    SGD = "sgd"
    PERTURBED_GD = "perturbed_gd"


class Status(str, Enum):
    GRAD_TOL = "grad_tol_reached"
    MAX_ITERS = "max_iters_reached"
    LINE_SEARCH_STALLED = "line_search_stalled"
    DIVERGED = "diverged"  # the last iterate's objective or gradient is not finite


@dataclass(frozen=True)
class SgdParams:
    batch: int = 64

    def __post_init__(self):
        store_fields(self)
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


@dataclass(frozen=True)
class SolverConfig:
    method: Method = Method.GD
    max_iters: int = 20000
    seed: int = 0  # seeds the start and SGD's batches (certify.solve_and_certify); a scan requires 0
    sgd: SgdParams = field(default_factory=SgdParams)

    def __post_init__(self):
        store_fields(self)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        check_seed(self.seed)


class TraceRow(NamedTuple):
    """One trace row, per GD iteration or per SGD full pass; the fields are trace.csv's header."""

    iter: int
    f: float
    data_term: float
    reg_term: float
    grad_norm: float
    step: float
    cum_entry_grads: int


TRACE_COLUMNS = TraceRow._fields


def _row(it, bdown, grad_norm, step, cum_entry_grads):
    return TraceRow(it, bdown.total, bdown.data_term, bdown.reg_term, grad_norm, step, cum_entry_grads)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """The final iterate X; f, grad_norm, iterations and entry_grads come from the last trace row, X's."""

    X: np.ndarray
    f: float
    grad_norm: float
    status: Status
    iterations: int
    trace: list  # of TraceRow
    entry_grads: int
    eig: obj.EigResult | None = None  # min_hessian_eig at X, where the run computed one


def trace_to_csv(trace, stream=None):
    """Write the trace as CSV; returns the text when no stream is given."""
    return write_csv(TRACE_COLUMNS, trace, stream)


def random_init(d, r, obs, seed):
    """Gaussian start scaled to the observed energy.

    Entry variance is s^2 / (d r), so E ||X0||_F^2 = s^2: s^2 is the
    diagonal-sum estimate sum_{(i,i) observed} M_ii / p of tr M when the
    mask touches the diagonal and that sum is positive, else the Frobenius
    estimate sqrt(||P_Omega(M)||_F^2 / p) of ||M||_F, in the same units.
    Only two kinds of mask take the second: masks without diagonal pairs,
    and masks whose observed diagonal sums to <= 0 (noise can do that),
    whose start it keeps off the origin, a stationary point.
    """
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    mask = obs.mask
    p = obs.p if obs.p > 0 else 1.0
    diag = mask.i == mask.j
    v, v_diag = obs.values, obs.values[diag]
    with np.errstate(over="ignore"):  # an infinite energy gives a start the solver reports diverged
        s2 = float(v_diag.sum()) / p if v_diag.size else 0.0
        if not s2 > 0:
            # both orders of every off-diagonal pair, one of a diagonal one
            s2 = math.sqrt((2.0 * float(v @ v) - float(v_diag @ v_diag)) / p)
    rng = substream(seed, "init")
    return rng.standard_normal((d, r)) * np.sqrt(s2 / (d * r))


def _first_step(cfg, X, resid, G):
    """t0 = ||G||^2 / |<G, H[G]>| from one Hessian-vector product at X, 1
    where that product is 0 (or NaN): the first step of every solver.  Where
    the curvature is positive it is `_bb_step(G, H[G])`, to the bit."""
    curv = float(np.vdot(G, obj.hessian_operator(X, cfg, resid)(G)))
    return float(np.vdot(G, G)) / abs(curv) if abs(curv) > 0 else 1.0


def _bb_step(s, y):
    """The Barzilai-Borwein step <s, s> / <s, y> of a move s whose gradient
    changed by y; None when <s, y> <= 0, where it gives no step."""
    sy = float(np.vdot(s, y))
    return float(np.vdot(s, s)) / sy if sy > 0 else None


def _armijo_step(cfg, X, bdown, D, slope, curv, t_init):
    """Backtrack X - t D from t_init by _BACKTRACK until
    f(X - t D) <= f(X) - c1 t (slope + t curv / 2), with c1 = _C1.

    Along the gradient G, slope = ||G||^2 and curv = 0: the Armijo test.
    Along D = lambda_min v at a saddle, slope = 0 and curv = |lambda_min|^3:
    the quadratic model's curvature decrease, which every small enough step
    gives for any c1 < 1 even where G vanishes.

    Returns (t, X_new, bdown_new, resid_new) or None when the step
    underflows; resid_new, the residuals of the accepted trial, gives the
    gradient at X_new without a second residual pass.
    """
    t = t_init
    while t >= _STEP_UNDERFLOW:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trial is rejected
            X_new = X - t * D
            resid = cfg.residuals(X_new)
            bdown_new = obj.breakdown(X_new, resid, cfg)
        if bdown_new.total <= bdown.total - _C1 * t * (slope + 0.5 * t * curv):
            return t, X_new, bdown_new, resid
        t *= _BACKTRACK
    return None


def _start(cfg, X0, cum):
    """Set-up shared by all solvers.

    Copies X0, evaluates it (`objective.evaluate`), derives grad_tol =
    1e-8 * (1 + f(X0)) and writes trace row 0 charged with `cum` entry
    gradients.  Returns (X, resid, bdown, G, grad_norm, grad_tol, trace),
    resid the residuals of X.  A start whose f or gradient norm overflows
    is returned as it is; the caller ends the run there as diverged.
    """
    X = np.array(X0, dtype=float)
    resid, bdown, G, gn = obj.evaluate(X, cfg)
    grad_tol = 1e-8 * (1.0 + bdown.total)
    trace = [_row(0, bdown, gn, 0.0, cum)]
    return X, resid, bdown, G, gn, grad_tol, trace


def _diverged(trace):  # the last row's objective or gradient norm is not finite
    return not (math.isfinite(trace[-1].f) and math.isfinite(trace[-1].grad_norm))


def _result(X, trace, grad_tol, stalled=False, eig=None):
    """SolveResult at the final iterate X, read from the last trace row, with
    the status rules all solvers share.

    A non-finite objective or gradient norm means the run diverged.  Else
    grad_tol reached wins; else a run that ended in a stalled line search is
    stalled, any other ran out of iterations.
    """
    last = trace[-1]
    if _diverged(trace):
        status = Status.DIVERGED
    elif last.grad_norm <= grad_tol:
        status = Status.GRAD_TOL
    elif stalled:
        status = Status.LINE_SEARCH_STALLED
    else:
        status = Status.MAX_ITERS
    return SolveResult(X=X, f=last.f, grad_norm=last.grad_norm, status=status, iterations=last.iter, trace=trace,
                       entry_grads=last.cum_entry_grads, eig=eig)


def _descend(cfg, scfg, X0, witness_steps):
    """Armijo gradient descent, with witness steps at saddles if asked.

    Each line search opens at the Barzilai-Borwein step of the last accepted
    move; the first at `_first_step` t0, that of an infinitesimal move along
    -G where <G, H[G]> > 0.  It opens at twice the last accepted step where
    <s, y> <= 0 and right after a witness step; a witness search before the
    first move opens at 2 / `eig.op_norm` (2 where that is 0).  A start
    that meets grad_tol runs no Hessian-vector product for its step.

    Without witness steps the run stops once the gradient norm reaches
    grad_tol.  With them, such a point runs `min_hessian_eig`.  If that
    shows no negative curvature (lambda_min >= -tau), converged or not, the
    run stops there and returns it as `eig`.  Else the search moves along
    D = lambda_min * v, with the unit witness v signed so <grad f, v> <= 0:
    it opens at twice the last accepted step and asks for a curvature
    decrease.  Every accepted step lowers f, so the run never returns to
    the saddle.  A witness search that underflows ends the run at the
    saddle, with its eigensolve.
    """
    n_pairs = cfg.n_pairs
    X, resid, bdown, G, gn, grad_tol, trace = _start(cfg, X0, n_pairs)
    if _diverged(trace):  # no step size can be estimated at a non-finite start
        return _result(X, trace, grad_tol)
    # the BB step of the last accepted move, if it gives one; before the first move, t0
    t_bb = _first_step(cfg, X, resid, G) if gn > grad_tol else None
    t_prev = None  # the last accepted step
    eig = None  # the eigensolve at X, where the run computed one
    stalled = False
    for it in range(1, scfg.max_iters + 1):
        D, slope, curv, t_init = G, gn * gn, 0.0, t_bb
        if gn <= grad_tol:
            if not witness_steps:
                break
            eig = obj.min_hessian_eig(X, cfg, resid)
            lam = eig.lambda_min
            if lam >= -obj.curvature_slack(cfg, eig.op_norm):
                break  # no negative curvature to escape along
            v = eig.witness if np.vdot(G, eig.witness) <= 0 else -eig.witness
            D, slope, curv, t_init = lam * v, 0.0, -lam**3, None
        if t_init is None:
            if t_prev is None:  # a witness search before the first move: 1 / ||H||, 1 where that is 0
                t_prev = 1.0 / eig.op_norm if eig.op_norm > 0 else 1.0
            t_init = 2.0 * t_prev
        hit = _armijo_step(cfg, X, bdown, D, slope, curv, t_init)
        if hit is None:
            stalled = True
            break
        t_prev, X_new, bdown, resid = hit
        G_new = obj.residual_gradient(X_new, resid, cfg)
        # eig is set only when this was a witness step, whose s and y say
        # nothing about the curvature along G
        t_bb = _bb_step(X_new - X, G_new - G) if eig is None else None
        X, G, eig = X_new, G_new, None
        gn = float(np.linalg.norm(G))
        trace.append(_row(it, bdown, gn, t_prev, n_pairs * (it + 1)))
    return _result(X, trace, grad_tol, stalled, eig)


def stochastic_gradient(X, cfg, rng, batch):
    """Unbiased gradient estimate from `batch` entries drawn with replacement.

    The entries are uniform positions in [0, |Omega|) of the symmetric
    pattern, so a stored pair is drawn in proportion to its weight (2 off
    the diagonal, 1 on it); the estimate is (|Omega| / batch) * the sum of
    their per-entry gradients, plus the exact weighted penalty gradient,
    which is added on the active rows only (row norm above alpha).
    """
    n = cfg.n_pairs
    idx = rng.integers(0, n, size=batch)
    return obj.add_penalty_gradient(obj.pair_gradient_sum(X, cfg, idx) * (n / batch), X, cfg)


def _sgd(cfg, scfg, X0):
    """Minibatch SGD with step base / (1 + _STEP_DECAY * (iter - 1)).

    A full pass (objective, gradient norm, trace row, stop tests) runs once
    per epoch of sampled entries, every P = ceil(|Omega| / batch) steps, and
    at max_iters; between passes the loop only takes stochastic steps.  Only
    the sampled batches count toward `cum_entry_grads`.  The run stops at
    the first pass whose gradient norm reaches grad_tol, or with status
    `diverged` at the first pass, the start included, whose objective or
    gradient norm is not finite.
    """
    X, resid, _, G, gn, grad_tol, trace = _start(cfg, X0, 0)
    if _diverged(trace):  # no step size can be estimated at a non-finite start
        return _result(X, trace, grad_tol)
    batch = min(scfg.sgd.batch, cfg.n_pairs)
    # GD's first step t0 damped by sqrt(batch fraction): the estimator is the
    # (n/batch)-scaled pair sum, so the full-gradient step diverges on small
    # batches; at batch == n this is GD's first trial step
    base = _first_step(cfg, X, resid, G) * math.sqrt(batch / cfg.n_pairs)
    rng = substream(scfg.seed, "sgd")
    period = -(-cfg.n_pairs // batch)  # ceil(|Omega| / batch): steps per epoch

    for it in range(1, scfg.max_iters + 1):
        if gn <= grad_tol:
            break
        step = base / (1.0 + _STEP_DECAY * (it - 1))
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging run ends with status diverged
            X = X - step * stochastic_gradient(X, cfg, rng, batch)
        if it % period and it < scfg.max_iters:
            continue  # the full pass runs once per epoch and at the last iteration
        _, bdown, _, gn = obj.evaluate(X, cfg)
        trace.append(_row(it, bdown, gn, step, batch * it))
        if _diverged(trace):
            break
    return _result(X, trace, grad_tol)


def solve(cfg, scfg, X0):
    """Run the method scfg.method names from X0; the one entry to every solver."""
    if scfg.method is Method.SGD:
        return _sgd(cfg, scfg, X0)
    return _descend(cfg, scfg, X0, witness_steps=scfg.method is Method.PERTURBED_GD)
