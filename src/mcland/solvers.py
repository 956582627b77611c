"""First-order solvers: Armijo gradient descent, minibatch SGD, perturbed GD.

All solvers record a trace (objective split, gradient norm, accepted step,
cumulative per-entry gradient work) and are deterministic given their config
seed.  GD and perturbed GD write a row per iteration; SGD writes one per full
pass, which it runs once per epoch of sampled entries (every
ceil(|Omega| / batch) steps) and at its last iteration.  Entry-gradient
accounting counts |Omega| per full gradient and `batch` per stochastic step;
SGD's full passes (diagnostics and stop tests) are not charged to the budget.

A run stops once the gradient norm reaches grad_tol = 1e-8 * (1 + f(X0)).
GD and perturbed GD share one Armijo loop with the textbook constants
c1 = 1e-4 and halving (Nocedal & Wright, Numerical Optimization, Sec. 3.1).
Each line search opens at the Barzilai-Borwein step <s, s> / <s, y> of the
last accepted move, with s = X_{k+1} - X_k and y = grad f(X_{k+1}) -
grad f(X_k), and backtracks from there until the sufficient-decrease test
passes, so every accepted step still decreases f.  It opens at twice the
last accepted step instead when <s, y> <= 0 or when there is no last
accepted move: at the first iteration, and right after a witness step,
across which s and y say nothing about the curvature along the gradient.
The first trial is 2 * step0, with step0 = 1 / `operator_norm_estimate` at
X0; SGD damps the same step0 by sqrt(batch / |Omega|) and divides it by
1 + 1e-3 (k - 1) at step k.

Perturbed GD runs `min_hessian_eig` where it reaches grad_tol.  Where that
shows a saddle it steps along the eigensolve's witness, the negative-curvature
step of Royer & Wright (arXiv 1706.03131), under a curvature decrease test;
else it stops and returns the eigensolve for the certificate to reuse.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import objective as obj
from .csvio import write_csv
from .rng import substream

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
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


@dataclass(frozen=True)
class SolverConfig:
    method: Method = Method.GD
    max_iters: int = 20000
    seed: int = 0  # SGD draws its batches from it; GD and perturbed GD draw nothing from it
    sgd: SgdParams = field(default_factory=SgdParams)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


TRACE_COLUMNS = ("iter", "f", "data_term", "reg_term", "grad_norm", "step", "cum_entry_grads")


class Trace:
    """Columnar history, one row per GD iteration or per SGD full pass."""

    def __init__(self):
        self.iters = []
        self.f = []
        self.data_term = []
        self.reg_term = []
        self.grad_norm = []
        self.step = []
        self.cum_entry_grads = []

    def append(self, it, bdown, grad_norm, step, cum_entry_grads):
        self.iters.append(it)
        self.f.append(bdown.total)
        self.data_term.append(bdown.data_term)
        self.reg_term.append(bdown.reg_term)
        self.grad_norm.append(grad_norm)
        self.step.append(step)
        self.cum_entry_grads.append(cum_entry_grads)

    def __len__(self):
        return len(self.iters)


@dataclass(frozen=True, eq=False)
class SolveResult:
    X: np.ndarray
    f: float
    grad_norm: float
    status: Status
    iterations: int  # iteration number of the last trace row
    trace: Trace
    entry_grads: int
    eig: obj.EigResult | None = None  # min_hessian_eig at X, where the run computed one


def trace_to_csv(trace, stream=None):
    """Write the trace as CSV; returns the text when no stream is given."""
    columns = (trace.iters, trace.f, trace.data_term, trace.reg_term, trace.grad_norm, trace.step,
               trace.cum_entry_grads)
    return write_csv(TRACE_COLUMNS, zip(*columns), stream)


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


def _inverse_norm(op):
    # the step 1 / ||H|| from a norm estimate, 1 where the estimate is 0
    return 1.0 / op if op > 0 else 1.0


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

    Copies X0, evaluates f and the full gradient there once, derives
    grad_tol = 1e-8 * (1 + f(X0)) and writes trace row 0 charged with `cum`
    entry gradients.  Returns (X, bdown, G, grad_norm, grad_tol, trace).  A
    start whose f or gradient norm overflows is returned as it is, without
    a warning; the caller ends the run there as diverged.
    """
    X = np.array(X0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bdown, G = obj.value_and_gradient(X, cfg)
        gn = float(np.linalg.norm(G))
    grad_tol = 1e-8 * (1.0 + bdown.total)
    trace = Trace()
    trace.append(0, bdown, gn, 0.0, cum)
    return X, bdown, G, gn, grad_tol, trace


def _diverged(bdown, gn):
    return not (math.isfinite(bdown.total) and math.isfinite(gn))


def _result(X, bdown, gn, grad_tol, trace, cum, stalled=False, eig=None):
    """SolveResult at the final iterate, with the status rules all solvers share.

    A non-finite objective or gradient norm means the run diverged.  Else
    grad_tol reached wins; else a run that ended in a stalled line search is
    stalled, any other ran out of iterations.
    """
    if _diverged(bdown, gn):
        status = Status.DIVERGED
    elif gn <= grad_tol:
        status = Status.GRAD_TOL
    elif stalled:
        status = Status.LINE_SEARCH_STALLED
    else:
        status = Status.MAX_ITERS
    return SolveResult(
        X=X,
        f=bdown.total,
        grad_norm=gn,
        status=status,
        iterations=trace.iters[-1],
        trace=trace,
        entry_grads=cum,
        eig=eig,
    )


def _descend(cfg, scfg, X0, witness_steps):
    """Armijo gradient descent, with witness steps at saddles if asked.

    Each line search opens at the Barzilai-Borwein step of the last accepted
    move, or at twice the last accepted step when its <s, y> <= 0 or there
    is none: at the first iteration (2 * step0, with step0 = 1 / the Hessian
    norm estimate at X0), and right after a witness step.

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
    X, bdown, G, gn, grad_tol, trace = _start(cfg, X0, n_pairs)
    cum = n_pairs
    if _diverged(bdown, gn):  # no step size can be estimated at a non-finite start
        return _result(X, bdown, gn, grad_tol, trace, cum)
    t_prev = _inverse_norm(obj.operator_norm_estimate(X, cfg))  # step0
    t_bb = None  # the BB step of the last accepted move, if it gives one
    eig = None  # the eigensolve at X, where the run computed one
    stalled = False
    for it in range(1, scfg.max_iters + 1):
        D, slope, curv, t_init = G, gn * gn, 0.0, (t_bb if t_bb is not None else 2.0 * t_prev)
        if gn <= grad_tol:
            if not witness_steps:
                break
            eig = obj.min_hessian_eig(X, cfg)
            lam = eig.lambda_min
            if lam >= -obj.curvature_slack(cfg, eig.op_norm):
                break  # no negative curvature to escape along
            v = eig.witness if np.vdot(G, eig.witness) <= 0 else -eig.witness
            D, slope, curv, t_init = lam * v, 0.0, -lam**3, 2.0 * t_prev
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
        cum += n_pairs
        gn = float(np.linalg.norm(G))
        trace.append(it, bdown, gn, t_prev, cum)
    return _result(X, bdown, gn, grad_tol, trace, cum, stalled, eig=eig)


def gradient_descent(cfg, scfg, X0):
    """Armijo-backtracked gradient descent to the gradient-norm tolerance."""
    return _descend(cfg, scfg, X0, witness_steps=False)


def perturbed_gd(cfg, scfg, X0):
    """Gradient descent that escapes saddles along the Hessian's witness.

    Where the gradient norm reaches grad_tol it runs `min_hessian_eig`; a
    negative curvature below -tau gives an Armijo step along the witness,
    and anything else stops the run with that eigensolve as `eig`.
    """
    return _descend(cfg, scfg, X0, witness_steps=True)


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


def sgd(cfg, scfg, X0):
    """Minibatch SGD with step base / (1 + _STEP_DECAY * (iter - 1)).

    A full pass (objective, gradient norm, trace row, stop tests) runs once
    per epoch of sampled entries, every P = ceil(|Omega| / batch) steps, and
    at max_iters; between passes the loop only takes stochastic steps.  Only
    the sampled batches count toward `cum_entry_grads`.  The run stops at
    the first pass whose gradient norm reaches grad_tol, or with status
    `diverged` at the first pass, the start included, whose objective or
    gradient norm is not finite.
    """
    X, bdown, _, gn, grad_tol, trace = _start(cfg, X0, 0)
    if _diverged(bdown, gn):  # no step size can be estimated at a non-finite start
        return _result(X, bdown, gn, grad_tol, trace, 0)
    batch = min(scfg.sgd.batch, cfg.n_pairs) if cfg.n_pairs else scfg.sgd.batch
    # GD's step0 damped by sqrt(batch fraction): the estimator is the
    # (n/batch)-scaled pair sum, so the full-gradient step diverges on small
    # batches; at batch == n this recovers the GD step
    base = _inverse_norm(obj.operator_norm_estimate(X, cfg))
    if cfg.n_pairs:
        base *= math.sqrt(batch / cfg.n_pairs)
    rng = substream(scfg.seed, "sgd")
    period = -(-cfg.n_pairs // batch) or 1  # ceil(|Omega| / batch): steps per epoch

    cum = 0
    for it in range(1, scfg.max_iters + 1):
        if gn <= grad_tol:
            break
        step = base / (1.0 + _STEP_DECAY * (it - 1))
        cum += batch
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging run ends with status diverged
            X = X - step * stochastic_gradient(X, cfg, rng, batch)
            if it % period and it < scfg.max_iters:
                continue  # the full pass runs once per epoch and at the last iteration
            bdown, G = obj.value_and_gradient(X, cfg)
            gn = float(np.linalg.norm(G))
        trace.append(it, bdown, gn, step, cum)
        if _diverged(bdown, gn):
            break
    return _result(X, bdown, gn, grad_tol, trace, cum)


_SOLVERS = {
    Method.GD: gradient_descent,
    Method.SGD: sgd,
    Method.PERTURBED_GD: perturbed_gd,
}


def solve(cfg, scfg, X0):
    """Dispatch on scfg.method."""
    method = Method(scfg.method)
    return _SOLVERS[method](cfg, scfg, X0)
