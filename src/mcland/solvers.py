"""First-order solvers: Armijo gradient descent, minibatch SGD, perturbed GD.

All solvers record a per-iteration trace (objective split, gradient norm,
accepted step, cumulative per-entry gradient work) and are deterministic
given their config seed.  Entry-gradient accounting counts |Omega| per full
gradient and `batch` per stochastic step; trace diagnostics (objective and
gradient norms recorded for inspection) are not charged to the budget.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import objective as obj
from .csvio import write_csv
from .rng import substream

_STEP_UNDERFLOW = 1e-16
_ESCAPE_REL = 1e-6


def _escaped(snap_f, f_now):
    # relative margin: near-zero snapshots would make any absolute margin
    # unbeatable on a nonnegative objective
    return snap_f - f_now > _ESCAPE_REL * abs(snap_f)


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
class ArmijoParams:
    c1: float = 1e-4
    backtrack: float = 0.5
    step0: float | None = None  # default: 1 / (Hessian norm estimate at X0)

    def __post_init__(self):
        if not 0 < self.c1 < 1:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if not 0 < self.backtrack < 1:
            raise ValueError(f"backtrack must lie in (0, 1), got {self.backtrack}")
        if self.step0 is not None and self.step0 <= 0:
            raise ValueError(f"step0 must be positive, got {self.step0}")


@dataclass(frozen=True)
class SgdParams:
    batch: int = 64
    step_base: float | None = None  # default: same spectral heuristic as GD
    step_decay: float = 1e-3

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.step_base is not None and self.step_base <= 0:
            raise ValueError(f"step_base must be positive, got {self.step_base}")
        if self.step_decay < 0:
            raise ValueError(f"step_decay must be non-negative, got {self.step_decay}")


@dataclass(frozen=True)
class PerturbParams:
    radius: float | None = None            # default: 10 * grad_tol
    trigger_grad_norm: float | None = None  # default: 10 * grad_tol
    cooldown_iters: int = 100

    def __post_init__(self):
        if self.radius is not None and self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.trigger_grad_norm is not None and self.trigger_grad_norm <= 0:
            raise ValueError(f"trigger_grad_norm must be positive, got {self.trigger_grad_norm}")
        if self.cooldown_iters < 1:
            raise ValueError(f"cooldown_iters must be >= 1, got {self.cooldown_iters}")


@dataclass(frozen=True)
class SolverConfig:
    method: Method = Method.GD
    max_iters: int = 20000
    grad_tol: float | None = None  # default: 1e-8 * (1 + f(X0))
    seed: int = 0
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    sgd: SgdParams = field(default_factory=SgdParams)
    perturb: PerturbParams = field(default_factory=PerturbParams)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


TRACE_COLUMNS = ("iter", "f", "data_term", "reg_term", "grad_norm", "step", "cum_entry_grads")


class Trace:
    """Columnar per-iteration history; `reg_term` is the weighted penalty."""

    def __init__(self):
        self.iters = []
        self.f = []
        self.data_term = []
        self.reg_term = []
        self.grad_norm = []
        self.step = []
        self.cum_entry_grads = []

    def append(self, it, bdown, weight, grad_norm, step, cum_entry_grads):
        self.iters.append(it)
        self.f.append(bdown.total)
        self.data_term.append(bdown.data_term)
        self.reg_term.append(weight * bdown.reg_term)
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


def trace_to_csv(trace, stream=None):
    """Write the trace as CSV; returns the text when no stream is given."""
    columns = (trace.iters, trace.f, trace.data_term, trace.reg_term, trace.grad_norm, trace.step,
               trace.cum_entry_grads)
    return write_csv(TRACE_COLUMNS, zip(*columns), stream)


def random_init(d, r, obs, seed):
    """Gaussian start scaled to the observed energy.

    Entry variance is s^2 / (d r): s^2 is the diagonal-sum estimate
    sum_{(i,i) observed} M_ii / p when the mask touches the diagonal, else
    the Frobenius estimate ||P_Omega(M)||_F^2 / p.
    """
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    mask = obs.mask
    p = obs.p if obs.p > 0 else 1.0
    diag = mask.i == mask.j
    with np.errstate(over="ignore"):  # an infinite energy gives a start the solver reports diverged
        if np.any(diag):
            s2 = float(obs.values[diag].sum()) / p
        else:
            s2 = 2.0 * float(obs.values @ obs.values) / p  # every pair off-diagonal: both orders
    s2 = max(s2, 0.0)
    rng = substream(seed, "init")
    return rng.standard_normal((d, r)) * np.sqrt(s2 / (d * r))


def _auto_step0(cfg, X0, explicit):
    if explicit is not None:
        return explicit
    op = obj.operator_norm_estimate(X0, cfg)
    if op <= 0:
        return 1.0
    return 1.0 / op


def _armijo_step(cfg, X, bdown, G, gn2, t_init, params):
    """Backtrack from t_init until the sufficient-decrease test passes.

    Returns (t, X_new, bdown_new, resid_new) or None when the step
    underflows; resid_new, the residuals of the accepted trial, gives the
    gradient at X_new without a second residual pass.
    """
    t = t_init
    while t >= _STEP_UNDERFLOW:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trial is rejected
            X_new = X - t * G
            resid = cfg.residuals(X_new)
            bdown_new = obj.breakdown(X_new, resid, cfg)
        if bdown_new.total <= bdown.total - params.c1 * t * gn2:
            return t, X_new, bdown_new, resid
        t *= params.backtrack
    return None


def _start(cfg, scfg, X0, cum):
    """Set-up shared by all solvers.

    Copies X0, evaluates f and the full gradient there once, derives grad_tol
    (default 1e-8 * (1 + f(X0))) and writes trace row 0 charged with `cum`
    entry gradients.  Returns (X, bdown, G, grad_norm, grad_tol, trace).  A
    start whose f or gradient norm overflows is returned as it is, without
    a warning; the caller ends the run there as diverged.
    """
    X = np.array(X0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bdown, G = obj.value_and_gradient(X, cfg)
        gn = float(np.linalg.norm(G))
    grad_tol = scfg.grad_tol if scfg.grad_tol is not None else 1e-8 * (1.0 + bdown.total)
    trace = Trace()
    trace.append(0, bdown, cfg.hyper.reg_weight, gn, 0.0, cum)
    return X, bdown, G, gn, grad_tol, trace


def _diverged(bdown, gn):
    return not (math.isfinite(bdown.total) and math.isfinite(gn))


def _result(X, bdown, gn, grad_tol, trace, cum, stalled=False, probing=False):
    """SolveResult at the final iterate, with the status rules all solvers share.

    A non-finite objective or gradient norm means the run diverged.  Else
    grad_tol reached wins unless a perturbation probe is still open; else a
    run that ended in a stalled line search is stalled, any other ran out of
    iterations.
    """
    if _diverged(bdown, gn):
        status = Status.DIVERGED
    elif gn <= grad_tol and not probing:
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
    )


class _Probe(NamedTuple):
    """An open perturbation probe and the point it left, restored on rollback."""

    X: np.ndarray
    bdown: obj.EvalBreakdown
    G: np.ndarray
    grad_norm: float
    step: float  # last accepted step at the point; seeds the next line search
    start: int  # iteration of the perturbation
    final: bool  # the point met grad_tol, so a rollback to it ends the run


def _descend(cfg, scfg, X0, perturb):
    """Armijo gradient descent, perturbed when a PerturbParams policy is given.

    Without a policy the run stops once the gradient norm reaches grad_tol.
    With one, a point whose gradient norm is at most the trigger, at least
    `cooldown_iters` iterations after the last probe ended, is saved and
    kicked by a uniform ball perturbation; the probe then descends for the
    rest of a window of `cooldown_iters` iterations.  A probe that has not
    improved on the saved point when its window runs out or its line search
    stalls is rolled back, with a trace row for the restored point; if the
    saved point already met grad_tol the rollback ends the run.
    """
    n_pairs = cfg.n_pairs
    weight = cfg.hyper.reg_weight
    X, bdown, G, gn, grad_tol, trace = _start(cfg, scfg, X0, n_pairs)
    cum = n_pairs
    if _diverged(bdown, gn):  # no step size can be estimated at a non-finite start
        return _result(X, bdown, gn, grad_tol, trace, cum)
    t_prev = _auto_step0(cfg, X, scfg.armijo.step0)
    if perturb is not None:
        radius = perturb.radius if perturb.radius is not None else 10.0 * grad_tol
        trigger = perturb.trigger_grad_norm
        trigger = max(trigger if trigger is not None else 10.0 * grad_tol, grad_tol)
        cooldown = perturb.cooldown_iters
        rng = substream(scfg.seed, "perturb")
    probe = None
    last_end = -math.inf  # iteration the last probe ended
    stalled = False
    it = 0
    while it < scfg.max_iters:
        it += 1
        if perturb is None and gn <= grad_tol:
            break
        window_over = probe is not None and it - probe.start >= cooldown
        if window_over and _escaped(probe.bdown.total, bdown.total):
            probe, window_over = None, False  # escaped to a lower basin
        if not window_over:
            if perturb is not None and probe is None and gn <= trigger and it - last_end >= cooldown:
                probe = _Probe(X, bdown, G, gn, t_prev, it, gn <= grad_tol)
                X = X + _ball_perturbation(rng, X.shape, radius)
                bdown, G = obj.value_and_gradient(X, cfg)
                cum += n_pairs
                gn = float(np.linalg.norm(G))
                trace.append(it, bdown, weight, gn, 0.0, cum)
                continue
            hit = _armijo_step(cfg, X, bdown, G, gn * gn, 2.0 * t_prev, scfg.armijo)
            if hit is not None:
                t_prev, X, bdown, resid = hit
                G = obj.residual_gradient(X, resid, cfg)
                cum += n_pairs
                gn = float(np.linalg.norm(G))
                trace.append(it, bdown, weight, gn, t_prev, cum)
                continue
            if probe is None or _escaped(probe.bdown.total, bdown.total):
                # nothing to roll back to, or the probe found a lower basin and
                # bottomed out there, where a rollback would discard the escape
                stalled, probe = True, None
                break
        # roll back: the probe's window ran out, or its line search stalled
        X, bdown, G, gn, t_prev = probe.X, probe.bdown, probe.G, probe.grad_norm, probe.step
        trace.append(it, bdown, weight, gn, 0.0, cum)
        last_end = it
        final, probe = probe.final, None
        if final:
            break
        if window_over:
            it -= 1  # this rollback takes no iteration: descend from the restored point now
    return _result(X, bdown, gn, grad_tol, trace, cum, stalled, probe is not None)


def gradient_descent(cfg, scfg, X0):
    """Armijo-backtracked gradient descent to the gradient-norm tolerance."""
    return _descend(cfg, scfg, X0, None)


def perturbed_gd(cfg, scfg, X0):
    """Gradient descent with saddle-escaping random perturbations (`scfg.perturb`)."""
    return _descend(cfg, scfg, X0, scfg.perturb)


def stochastic_gradient(X, cfg, rng, batch):
    """Unbiased gradient estimate from `batch` entries drawn with replacement.

    The entries are uniform positions in [0, |Omega|) of the symmetric
    pattern, so a stored pair is drawn in proportion to its weight (2 off
    the diagonal, 1 on it); the estimate is (|Omega| / batch) * the sum of
    their per-entry gradients, plus the exact weighted penalty gradient.
    """
    n = cfg.n_pairs
    idx = rng.integers(0, n, size=batch)
    G = obj.pair_gradient_sum(X, cfg, idx) * (n / batch)
    if cfg.hyper.reg_weight > 0:
        G += cfg.hyper.reg_weight * obj.reg_gradient(X, cfg.hyper.alpha)
    return G


def sgd(cfg, scfg, X0):
    """Minibatch SGD with step base / (1 + decay * iter).

    Trace rows record the full objective and full gradient norm each
    iteration for diagnostics; only the sampled batch counts toward
    `cum_entry_grads`.  The run stops with status `diverged` at the first
    iterate, the start included, whose objective or gradient norm is not
    finite.
    """
    X, bdown, _, gn, grad_tol, trace = _start(cfg, scfg, X0, 0)
    if _diverged(bdown, gn):  # no step size can be estimated at a non-finite start
        return _result(X, bdown, gn, grad_tol, trace, 0)
    batch = min(scfg.sgd.batch, cfg.n_pairs) if cfg.n_pairs else scfg.sgd.batch
    base = scfg.sgd.step_base
    if base is None:
        # deterministic step damped by sqrt(batch fraction): the estimator is
        # the (n/batch)-scaled pair sum, so the full-gradient step diverges
        # on small batches; at batch == n this recovers the GD step
        base = _auto_step0(cfg, X, None)
        if cfg.n_pairs:
            base *= math.sqrt(batch / cfg.n_pairs)
    decay = scfg.sgd.step_decay
    rng = substream(scfg.seed, "sgd")
    weight = cfg.hyper.reg_weight

    cum = 0
    for it in range(1, scfg.max_iters + 1):
        if gn <= grad_tol:
            break
        step = base / (1.0 + decay * (it - 1))
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging run ends with status diverged
            G = stochastic_gradient(X, cfg, rng, batch)
            X = X - step * G
            bdown, G = obj.value_and_gradient(X, cfg)
            gn = float(np.linalg.norm(G))
        cum += batch
        trace.append(it, bdown, weight, gn, step, cum)
        if _diverged(bdown, gn):
            break
    return _result(X, bdown, gn, grad_tol, trace, cum)


def _ball_perturbation(rng, shape, radius):
    # uniform in the Frobenius ball of the given radius
    G = rng.standard_normal(shape)
    nrm = float(np.linalg.norm(G))
    if nrm == 0.0:
        return np.zeros(shape)
    u = rng.random() ** (1.0 / (shape[0] * shape[1]))
    return (radius * u / nrm) * G


_SOLVERS = {
    Method.GD: gradient_descent,
    Method.SGD: sgd,
    Method.PERTURBED_GD: perturbed_gd,
}


def solve(cfg, scfg, X0):
    """Dispatch on scfg.method."""
    method = Method(scfg.method)
    return _SOLVERS[method](cfg, scfg, X0)
