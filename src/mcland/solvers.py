"""First-order solvers: Armijo gradient descent, minibatch SGD, perturbed GD.

`solve` is the one entry: it runs the method its config names.  Every
solver records a trace, a list of `TraceRow`s (objective split, gradient
norm, accepted step, cumulative per-entry gradient work), and is
deterministic given its config seed.  GD and perturbed GD write a row per
iteration; SGD writes one per full pass, which it runs once per epoch of
sampled entries (every ceil(|Omega| / batch) steps) and at its last
iteration.  SGD draws the positions of an epoch's steps, or of the steps
left before max_iters, in one call, and gives each step its slice: numpy's
bounded sampler keeps its unused 32-bit halves in the bit generator, so the
positions are those of one draw per step.  Entry-gradient accounting counts
|Omega| per full gradient and `batch` per stochastic step; SGD's full passes
(diagnostics and stop tests) are not charged to the budget.

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

GD and perturbed GD carry one `objective.Point` per iterate: the start's,
then each accepted line-search trial's, whose residuals and row pass serve
its value, its gradient, the first step's Hessian product and the
eigensolve.  Every run returns its endpoint's point with its gradient, for
the certificate to reuse.
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


def _row(it, pt, step, cum_entry_grads):  # the trace row of the point pt
    return TraceRow(it, pt.value.total, pt.value.data_term, pt.value.reg_term, pt.grad_norm(), step, cum_entry_grads)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """The final iterate X; f, grad_norm, iterations and entry_grads come from the last trace row, X's.

    `point` is the `objective.Point` at X with its gradient, to the bit the value of
    `objective.evaluate(X, cfg)`, which `certify.certify_point` takes in place of
    evaluating X again.
    """

    X: np.ndarray
    f: float
    grad_norm: float
    status: Status
    iterations: int
    trace: list  # of TraceRow
    entry_grads: int
    point: obj.Point
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


def _first_step(pt):
    """t0 = ||G||^2 / |<G, H[G]>| from one Hessian-vector product at the
    point pt, G its gradient, 1 where that product is 0 (or NaN): the first
    step of every solver.  Where the curvature is positive it is
    `_bb_step(G, H[G])`, to the bit."""
    G = pt.gradient()
    curv = float(np.vdot(G, obj.hessian_operator(pt)(G)))
    return float(np.vdot(G, G)) / abs(curv) if abs(curv) > 0 else 1.0


def _bb_step(s, y):
    """The Barzilai-Borwein step <s, s> / <s, y> of a move s whose gradient
    changed by y; None when <s, y> <= 0, where it gives no step."""
    sy = float(np.vdot(s, y))
    return float(np.vdot(s, s)) / sy if sy > 0 else None


def _armijo_step(pt, D, slope, curv, t_init):
    """Backtrack X - t D from the point pt at X, from t_init by _BACKTRACK, until
    f(X - t D) <= f(X) - c1 t (slope + t curv / 2), with c1 = _C1.

    Along the gradient G, slope = ||G||^2 and curv = 0: the Armijo test.
    Along D = lambda_min v at a saddle, slope = 0 and curv = |lambda_min|^3:
    the quadratic model's curvature decrease, which every small enough step
    gives for any c1 < 1 even where G vanishes.

    Returns (t, trial), the accepted trial's `objective.Point`, or None when
    the step underflows.
    """
    X, f, t = pt.X, pt.value.total, t_init
    while t >= _STEP_UNDERFLOW:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trial is rejected
            trial = obj.Point(X - t * D, pt.cfg)
        if trial.value.total <= f - _C1 * t * (slope + 0.5 * t * curv):
            return t, trial
        t *= _BACKTRACK
    return None


def _start(cfg, X0, cum):
    """Set-up shared by all solvers.

    Evaluates a copy of X0 (`objective.evaluate`), derives grad_tol =
    1e-8 * (1 + f(X0)) and writes trace row 0 charged with `cum` entry
    gradients.  Returns (pt, grad_tol, trace), pt the start's
    `objective.Point`.  A start whose f or gradient norm overflows is
    returned as it is; the caller ends the run there as diverged.
    """
    pt = obj.evaluate(np.array(X0, dtype=float), cfg)
    grad_tol = 1e-8 * (1.0 + pt.value.total)
    return pt, grad_tol, [_row(0, pt, 0.0, cum)]


def _diverged(trace):  # the last row's objective or gradient norm is not finite
    return not (math.isfinite(trace[-1].f) and math.isfinite(trace[-1].grad_norm))


def _result(pt, trace, grad_tol, stalled=False, eig=None):
    """SolveResult at the final iterate's point pt, read from the last trace
    row, with the status rules all solvers share.

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
    return SolveResult(X=pt.X, f=last.f, grad_norm=last.grad_norm, status=status, iterations=last.iter, trace=trace,
                       entry_grads=last.cum_entry_grads, point=pt, eig=eig)


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
    pt, grad_tol, trace = _start(cfg, X0, n_pairs)
    if _diverged(trace):  # no step size can be estimated at a non-finite start
        return _result(pt, trace, grad_tol)
    # the BB step of the last accepted move, if it gives one; before the first move, t0
    t_bb = _first_step(pt) if pt.grad_norm() > grad_tol else None
    t_prev = None  # the last accepted step
    eig = None  # the eigensolve at pt, where the run computed one
    stalled = False
    for it in range(1, scfg.max_iters + 1):
        G, gn = pt.gradient(), pt.grad_norm()
        D, slope, curv, t_init = G, gn * gn, 0.0, t_bb
        if gn <= grad_tol:
            if not witness_steps:
                break
            eig = obj.min_hessian_eig(pt)
            lam = eig.lambda_min
            if lam >= -obj.curvature_slack(cfg, eig.op_norm):
                break  # no negative curvature to escape along
            v = eig.witness if np.vdot(G, eig.witness) <= 0 else -eig.witness
            D, slope, curv, t_init = lam * v, 0.0, -lam**3, None
        if t_init is None:
            if t_prev is None:  # a witness search before the first move: 1 / ||H||, 1 where that is 0
                t_prev = 1.0 / eig.op_norm if eig.op_norm > 0 else 1.0
            t_init = 2.0 * t_prev
        hit = _armijo_step(pt, D, slope, curv, t_init)
        if hit is None:
            stalled = True
            break
        t_prev, trial = hit
        # eig is set only when this was a witness step, whose s and y say
        # nothing about the curvature along G
        t_bb = _bb_step(trial.X - pt.X, trial.gradient() - G) if eig is None else None
        pt, eig = trial, None
        trace.append(_row(it, pt, t_prev, n_pairs * (it + 1)))
    return _result(pt, trace, grad_tol, stalled, eig)


def stochastic_gradient(X, cfg, positions):
    """Unbiased gradient estimate from the entries at `positions`, drawn with replacement.

    Drawn uniformly from [0, |Omega|), positions of the symmetric pattern
    draw a stored pair in proportion to its weight (2 off the diagonal, 1 on
    it); the estimate is (|Omega| / batch) * the sum of their per-entry
    gradients, batch = positions.size, plus the exact weighted penalty
    gradient, which is added on the active rows only (row norm above alpha).
    """
    G = obj.pair_gradient_sum(X, cfg, positions) * (cfg.n_pairs / positions.size)
    return obj.add_penalty_gradient(G, X, cfg, obj._row_excess(X, cfg.hyper.alpha))


def _sgd(cfg, scfg, X0):
    """Minibatch SGD with step base / (1 + _STEP_DECAY * (iter - 1)).

    A full pass (objective, gradient norm, trace row, stop tests) runs once
    per epoch of sampled entries, every P = ceil(|Omega| / batch) steps, and
    at max_iters; between passes the loop only takes stochastic steps, whose
    positions it draws in one call per epoch.  Only the sampled batches
    count toward `cum_entry_grads`.  The run stops at the first pass whose
    gradient norm reaches grad_tol, or with status `diverged` at the first
    pass, the start included, whose objective or gradient norm is not
    finite.
    """
    pt, grad_tol, trace = _start(cfg, X0, 0)
    if _diverged(trace):  # no step size can be estimated at a non-finite start
        return _result(pt, trace, grad_tol)
    batch = min(scfg.sgd.batch, cfg.n_pairs)
    # GD's first step t0 damped by sqrt(batch fraction): the estimator is the
    # (n/batch)-scaled pair sum, so the full-gradient step diverges on small
    # batches; at batch == n this is GD's first trial step
    base = _first_step(pt) * math.sqrt(batch / cfg.n_pairs)
    X = pt.X
    rng = substream(scfg.seed, "sgd")
    period = -(-cfg.n_pairs // batch)  # ceil(|Omega| / batch): steps per epoch
    it = 0
    while it < scfg.max_iters and pt.grad_norm() > grad_tol:  # the last full pass's
        # the positions of the epoch's steps, or of those left before max_iters, in one draw in the
        # default int64 dtype, whose stream the tests check against one draw per step
        steps = min(period, scfg.max_iters - it)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging run ends with status diverged
            for positions in rng.integers(0, cfg.n_pairs, size=steps * batch).reshape(steps, batch):
                it += 1
                step = base / (1.0 + _STEP_DECAY * (it - 1))
                X = X - step * stochastic_gradient(X, cfg, positions)
        pt = obj.evaluate(X, cfg)
        trace.append(_row(it, pt, step, batch * it))
        if _diverged(trace):
            break
    return _result(pt, trace, grad_tol)


def solve(cfg, scfg, X0):
    """Run the method scfg.method names from X0; the one entry to every solver."""
    if scfg.method is Method.SGD:
        return _sgd(cfg, scfg, X0)
    return _descend(cfg, scfg, X0, witness_steps=scfg.method is Method.PERTURBED_GD)
