import io
import math
import tracemalloc

import numpy as np
import pytest

from mcland.certify import PointClass, certify_point
from mcland.instance import GroundTruth, HyperParams, InstanceSpec, default_hyperparams, observe
from mcland import objective, solvers
from mcland.objective import (
    ObjectiveConfig,
    curvature_slack,
    evaluate,
    hessian_operator,
    pair_gradient_sum,
)
from mcland.solvers import (
    Method,
    SgdParams,
    SolverConfig,
    Status,
    TRACE_COLUMNS,
    TraceRow,
    random_init,
    solve,
    stochastic_gradient,
    trace_to_csv,
)
from mcland.rng import derive_seed, substream

from conftest import dense_gram, full_mask, hessian_quadratic, make_problem, per_row_penalty


def _recovery(X, gt):
    gram = dense_gram(gt.factor)
    return float(np.linalg.norm(X @ X.T - gram)) / float(np.linalg.norm(gram))


def _spiked_rank2_problem(lam2, d=12, seed=5):
    """Full observations of a rank-2 matrix with eigenvalues (1, lam2).

    Fitting a rank-1 factor to it gives a known global value of lam2^2 / 2
    and a strict saddle on the second eigenvector.
    """
    q_rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(q_rng.normal(size=(d, d)))
    Z = Q[:, :2] * np.sqrt([1.0, lam2])
    gt = GroundTruth(Z)
    mask = full_mask(d, include_diagonal=True)
    obs = observe(gt, mask, 0.0, seed=seed)
    cfg = ObjectiveConfig(HyperParams(alpha=1e6, reg_weight=0.0, tau=0.0), obs)
    return Q, cfg


# ---------------------------------------------------------------------------
# random_init


def test_random_init_deterministic():
    gt, obs, cfg = make_problem(20, 2, seed=1, p=0.5)
    a = random_init(20, 2, obs, 7)
    b = random_init(20, 2, obs, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_init(20, 2, obs, 8))


def test_random_init_energy_matches_diagonal_estimate():
    gt, obs, cfg = make_problem(30, 2, seed=2)
    s2 = float(np.trace(dense_gram(gt.factor)))
    sq = [float(np.linalg.norm(random_init(30, 2, obs, s)) ** 2) for s in range(100)]
    assert np.mean(sq) == pytest.approx(s2, rel=0.2)


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_random_init_leaves_the_origin_when_noise_cancels_the_diagonal(seed):
    # at sigma = 3 the observed diagonal of these instances sums to <= 0
    gt, obs, cfg = make_problem(20, 1, seed=seed, p=1.0, sigma=3.0)
    assert obs.values[obs.mask.i == obs.mask.j].sum() <= 0
    X0 = random_init(20, 1, obs, 0)
    assert np.isfinite(X0).all() and np.any(X0 != 0.0)
    assert float(np.linalg.norm(evaluate(X0, cfg)[2])) > 0.0


def test_random_init_validates_rank():
    gt, obs, cfg = make_problem(5, 1, seed=3)
    with pytest.raises(ValueError):
        random_init(5, 6, obs, 0)


# ---------------------------------------------------------------------------
# gradient descent


def test_gd_solves_tiny_full_problem():
    gt, obs, cfg = make_problem(2, 1, seed=4)
    cfg = ObjectiveConfig(HyperParams(alpha=1e6, reg_weight=0.0, tau=0.0), obs)
    res = solve(cfg, SolverConfig(), random_init(2, 1, obs, 0))
    assert res.status == Status.GRAD_TOL
    assert res.f <= 1e-10


def test_gd_trace_is_monotone_and_budgeted():
    gt, obs, cfg = make_problem(20, 2, seed=5, p=0.6)
    runs = [(cfg, solve(cfg, SolverConfig(max_iters=500), random_init(20, 2, obs, 1)))]
    # perturbed GD leaves the strict saddle of _spiked_rank2_problem(0.5) along its witness
    Q, cfg = _spiked_rank2_problem(0.5)
    scfg = SolverConfig(method=Method.PERTURBED_GD, max_iters=500)
    runs.append((cfg, solve(cfg, scfg, np.sqrt(0.5) * Q[:, 1:2])))
    for cfg, res in runs:
        fs = np.array([row.f for row in res.trace])
        assert np.all(np.diff(fs) <= 0.0)  # Armijo only accepts decrease
        assert len(res.trace) == res.iterations + 1
        assert res.entry_grads == cfg.n_pairs * (res.iterations + 1)
        assert res.trace[-1].cum_entry_grads == res.entry_grads
        assert res.f == res.trace[-1].f


def test_gd_recovers_across_starts():
    # none of the GD starts random_init(50, 1, obs, 1000 + s), s < 400, of
    # this instance ends at a spurious minimum; the seed-21 instance of
    # test_certify.py has one that some of them reach
    gt, obs, cfg = make_problem(50, 1, seed=22, p=0.5)
    worst, worst_iters = 0.0, 0
    for s in range(20):
        res = solve(cfg, SolverConfig(seed=s), random_init(50, 1, obs, 1000 + s))
        assert res.status == Status.GRAD_TOL
        worst = max(worst, _recovery(res.X, gt))
        worst_iters = max(worst_iters, res.iterations)
    assert worst <= 1e-3
    assert worst_iters <= 100  # a line search opened at 2 * t_prev took 1,945 on one start


class _Searches(list):
    cfg = None  # the objective config the searches ran on


@pytest.fixture
def line_searches(monkeypatch):
    """Record (X, D, t_init, accepted step or None) of every line search."""
    calls = _Searches()
    armijo = solvers._armijo_step

    def record(cfg, X, bdown, D, slope, curv, t_init):
        hit = armijo(cfg, X, bdown, D, slope, curv, t_init)
        calls.append((X.copy(), D.copy(), t_init, None if hit is None else hit[0]))
        calls.cfg = cfg
        return hit

    monkeypatch.setattr(solvers, "_armijo_step", record)
    return calls


def _expected_trials(calls, trace):
    """Check each line search's first trial against the step rule, from the
    recorded searches and the trace alone; returns how often each case ran.

    A search from a point whose gradient norm met the default grad_tol runs
    along the witness; it and the search after it open at twice the last
    accepted step, before the first move at twice 1 / the op_norm of the
    eigensolve there.  The first search along the gradient G opens at
    ||G||^2 / |<G, H G>|, with the curvature from `hessian_quadratic`, of
    either sign.  Any other search opens at the BB step <s, s> / <s, y> of
    the last move, or at twice its step when <s, y> <= 0.
    """
    assert all(c[3] is not None for c in calls)  # so search m runs from trace row m
    assert len(calls) == len(trace) - 1
    grad_tol = 1e-8 * (1.0 + trace[0].f)
    witness = [row.grad_norm <= grad_tol for row in trace]
    cases = dict(bb=0, curvature=0, first=0, witness=0, after_witness=0)
    for m, (X, G, t_init, _) in enumerate(calls):
        if witness[m] or (m and witness[m - 1]):
            prev = calls[m - 1][3] if m else 1.0 / objective.min_hessian_eig(X, calls.cfg).op_norm
            assert t_init == 2.0 * prev
            cases["witness" if witness[m] else "after_witness"] += 1
            continue
        if m == 0:
            curv = hessian_quadratic(X, G, calls.cfg)
            assert t_init == pytest.approx(float(np.vdot(G, G)) / abs(curv), rel=1e-12)
            cases["first"] += 1
            continue
        s = X - calls[m - 1][0]
        y = G - calls[m - 1][1]
        sy = float(np.vdot(s, y))
        if sy > 0:
            assert t_init == pytest.approx(float(np.vdot(s, s)) / sy, rel=1e-12)
            cases["bb"] += 1
        else:
            assert t_init == 2.0 * calls[m - 1][3]
            cases["curvature"] += 1
    return cases


def test_gd_trials_fall_back_where_curvature_is_negative(line_searches):
    # descending from near the origin, a saddle, the first moves run along
    # negative curvature, where <s, y> < 0
    Q, cfg = _spiked_rank2_problem(0.5)
    X0 = 1e-3 * Q[:, :1]
    res = solve(cfg, SolverConfig(), X0)
    assert res.status == Status.GRAD_TOL
    # <G, H G> = (6e-6 - 2) ||G||^2 there, so the first search opens at 1 / (2 - 6e-6)
    assert line_searches[0][2] == pytest.approx(0.5, rel=1e-5)
    cases = _expected_trials(line_searches, res.trace)
    assert cases["first"] == 1 and cases["curvature"] >= 1 and cases["bb"] >= 1


def test_perturbed_gd_trials_fall_back_after_witness_steps(line_searches):
    # descent from starts on the saddle's stable line reaches the strict
    # saddle sqrt(0.5) Q[:, 1], whose negative curvature gives a witness step
    Q, cfg = _spiked_rank2_problem(0.5)
    scfg = SolverConfig(method=Method.PERTURBED_GD)
    cases = dict(bb=0, curvature=0, first=0, witness=0, after_witness=0)
    for c in (0.5, 0.9, 1.2):
        line_searches.clear()
        res = solve(cfg, scfg, c * Q[:, 1:2])
        assert res.status is Status.GRAD_TOL and res.f == pytest.approx(0.125, rel=1e-6)
        for case, n in _expected_trials(line_searches, res.trace).items():
            cases[case] += n
    assert cases["witness"] >= 3 and cases["after_witness"] >= 3 and cases["bb"] >= 1


def test_bb_step_needs_positive_curvature():
    s = np.array([[1.0], [2.0]])
    assert solvers._bb_step(s, 2.0 * s) == 0.5
    assert solvers._bb_step(s, np.zeros_like(s)) is None
    assert solvers._bb_step(s, -s) is None


def test_gd_reports_stall_on_underflowing_step(hessian_scale):
    gt, obs, cfg = make_problem(10, 1, seed=6, p=0.8)
    hessian_scale(1e20)  # the first trial ||G||^2 / <G, H G> falls 1e20-fold
    res = solve(cfg, SolverConfig(), random_init(10, 1, obs, 2))
    assert res.status == Status.LINE_SEARCH_STALLED
    assert res.iterations == 0


@pytest.fixture
def probes(monkeypatch):
    """Count the calls of hessian_operator, min_hessian_eig and _lanczos."""
    counts = dict(hessian_operator=0, min_hessian_eig=0, _lanczos=0)
    for name in counts:
        def spy(*args, _name=name, _real=getattr(objective, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(objective, name, spy)
    return counts


def test_one_hvp_sizes_each_start_and_every_lanczos_run_is_an_eigensolve(probes, monkeypatch):
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    X0 = random_init(20, 2, obs, 3)
    gd, pgd = SolverConfig(), SolverConfig(method=Method.PERTURBED_GD)
    runs = [  # (config, start, starts whose first step the run sizes)
        (gd, X0, 1),
        (pgd, X0, 1),
        (SolverConfig(method=Method.SGD, max_iters=5), X0, 1),
        # a start that meets grad_tol sizes no step: plain GD probes nothing, and perturbed GD
        # runs only eigensolves, whose norm opens a witness search at the saddle at the origin
        (gd, gt.factor, 0),
        (pgd, gt.factor, 0),
        (pgd, np.zeros((20, 2)), 0),
    ]
    # d * r = 40: every eigensolve is one dense solve, then with the threshold at 0 one Lanczos run
    for dense_max in (objective._DENSE_MAX, 0):
        monkeypatch.setattr(objective, "_DENSE_MAX", dense_max)
        for scfg, start, sized in runs:
            probes.update(hessian_operator=0, min_hessian_eig=0, _lanczos=0)
            res = solve(cfg, scfg, start)
            eigs = probes["min_hessian_eig"]
            assert (eigs > 0) == (res.eig is not None) == (scfg.method is Method.PERTURBED_GD)
            # every Hessian operator is either the one step-sizing probe or an eigensolve's
            assert probes["hessian_operator"] == sized + eigs
            assert probes["_lanczos"] == (0 if start.size <= dense_max else eigs)


def test_gd_converged_start_returns_immediately():
    gt, obs, cfg = make_problem(12, 2, seed=7)
    res = solve(cfg, SolverConfig(), gt.factor)
    assert res.status == Status.GRAD_TOL
    assert res.iterations == 0
    assert np.array_equal(res.X, gt.factor)


# ---------------------------------------------------------------------------
# stochastic gradients


def test_exhaustive_batch_equals_full_gradient(rng):
    gt, obs, cfg = make_problem(12, 2, seed=8, p=0.7)
    X = rng.normal(size=(12, 2)) * 1.5
    G_sum = pair_gradient_sum(X, cfg, np.arange(cfg.n_pairs))
    data_only = evaluate(X, cfg)[2] - cfg.hyper.reg_weight * per_row_penalty(X, cfg.hyper.alpha)[1]
    assert np.allclose(G_sum, data_only, atol=1e-11 * (1 + np.abs(data_only).max()))


def test_stochastic_gradient_unbiased_cheaply(rng):
    gt, obs, cfg = make_problem(8, 1, seed=9, p=1.0)
    X = rng.normal(size=(8, 1))
    full = evaluate(X, cfg)[2]
    stream = substream(123, "sgdtest")
    draws = np.stack(
        [stochastic_gradient(X, cfg, stream, 4) for _ in range(4000)]
    )
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - full) <= 4.0 * se + 1e-12)


def test_only_sgd_builds_the_per_position_tables():
    # 16 B per position: a config that only GD uses must not hold them
    gt, obs, cfg = make_problem(15, 1, seed=10, p=0.6)
    X0 = random_init(15, 1, obs, 4)
    solve(cfg, SolverConfig(), X0)
    solve(cfg, SolverConfig(method=Method.PERTURBED_GD), X0)
    assert "_position_tables" not in vars(cfg)
    solve(cfg, SolverConfig(method=Method.SGD, max_iters=5), X0)
    rows, cols, values = vars(cfg)["_position_tables"]
    assert rows.dtype == cols.dtype == np.int32 and values.dtype == np.float64
    assert rows.size == cols.size == values.size == cfg.n_pairs


def test_objective_config_peaks_at_32_bytes_a_stored_pair_and_gd_builds_no_position_tables():
    # the config holds U's column and mirror-pass row indices (int32) and the pair weights:
    # no symmetric pattern, slot map or sort
    spec = InstanceSpec(d=4000, r=2, seed=1, p=0.02)
    gt, obs = spec.regenerate()
    hyper = default_hyperparams(gt, spec.p)
    tracemalloc.start()
    try:
        cfg = ObjectiveConfig(hyper, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * obs.mask.i.size
    for method in (Method.GD, Method.PERTURBED_GD):
        res = solve(cfg, SolverConfig(method=method), random_init(4000, 2, obs, 0))
        assert certify_point(res.X, cfg, gt, None, res.eig).classification is PointClass.GLOBAL_MIN
    assert "_position_tables" not in vars(cfg)


def test_gd_and_its_certificate_reuse_the_residuals_they_hold(monkeypatch):
    # the residuals of X0 serve the first step's Hessian product, and the
    # certificate's one pass serves its value, gradient and eigensolve
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    X0 = random_init(20, 2, obs, 3)
    points = []
    residuals = ObjectiveConfig.residuals

    def counting(self, X):
        points.append(np.asarray(X).tobytes())
        return residuals(self, X)

    def run():
        points.clear()
        res = solve(cfg, SolverConfig(), X0)
        return trace_to_csv(res.trace), repr(certify_point(res.X, cfg, gt))

    monkeypatch.setattr(ObjectiveConfig, "residuals", counting)
    ours, n = run(), len(points)
    # one pass at X0 and one per line-search trial; the certificate's pass
    # meets the last accepted trial again
    assert len(set(points)) == n - 1
    # the same run with the residuals dropped on the way to the Hessian: the
    # first step and the eigensolve each make a pass of their own
    for name in ("hessian_operator", "min_hessian_eig"):
        monkeypatch.setattr(objective, name, lambda X, cfg, resid=None, real=getattr(objective, name): real(X, cfg))
    assert run() == ours and len(points) == n + 2


def test_sgd_deterministic_given_seed():
    gt, obs, cfg = make_problem(15, 1, seed=10, p=0.6, sigma=0.05)
    scfg = SolverConfig(method=Method.SGD, max_iters=200, seed=3)
    X0 = random_init(15, 1, obs, 4)
    a = solve(cfg, scfg, X0)
    b = solve(cfg, scfg, X0)
    assert np.array_equal(a.X, b.X)
    assert [row.f for row in a.trace] == [row.f for row in b.trace]


def test_sgd_budget_counts_sampled_pairs_only():
    gt, obs, cfg = make_problem(15, 1, seed=11, p=0.6, sigma=0.05)
    scfg = SolverConfig(method=Method.SGD, max_iters=50, seed=3, sgd=SgdParams(batch=16))
    res = solve(cfg, scfg, random_init(15, 1, obs, 4))
    assert res.entry_grads == 16 * res.iterations


def test_sgd_matches_gd_on_equal_budget():
    # noisy instance: both methods settle at the same noise floor, so the
    # achieved objectives agree within an order of magnitude either way
    gt, obs, cfg = make_problem(50, 1, seed=12, p=0.5, sigma=0.02)
    X0 = random_init(50, 1, obs, 5)
    gd_res = solve(cfg, SolverConfig(max_iters=2000), X0)
    batch = 64
    iters = max(1, gd_res.entry_grads // batch)
    sgd_res = solve(
        cfg,
        SolverConfig(method=Method.SGD, max_iters=iters, seed=6, sgd=SgdParams(batch=batch)),
        X0,
    )
    assert sgd_res.f <= 10.0 * gd_res.f
    assert gd_res.f <= 10.0 * sgd_res.f


def _sgd_period(cfg, scfg):
    # SGD's full pass runs every ceil(|Omega| / batch) steps
    return math.ceil(cfg.n_pairs / min(scfg.sgd.batch, cfg.n_pairs))


def _reference_sgd_rows(cfg, scfg, X0):
    """A naive SGD loop with a full pass after every step and no stop test:
    the trace.csv line of every iteration, keyed by iter, and the gradient
    norm of each."""
    batch = min(scfg.sgd.batch, cfg.n_pairs)
    rng = substream(scfg.seed, "sgd")
    X = np.array(X0, dtype=float)
    def row(it, X, step):
        _, bdown, G, _ = evaluate(X, cfg)
        return TraceRow(it, bdown.total, bdown.data_term, bdown.reg_term, float(np.linalg.norm(G)), step, it * batch)

    trace = [row(0, X, 0.0)]
    G = evaluate(X, cfg)[2]
    # GD's first step ||G||^2 / |<G, H G>|, damped by sqrt(batch fraction)
    curv = float(np.vdot(G, hessian_operator(X, cfg)(G)))
    base = float(np.vdot(G, G)) / abs(curv) * math.sqrt(batch / cfg.n_pairs)
    for it in range(1, scfg.max_iters + 1):
        step = base / (1.0 + solvers._STEP_DECAY * (it - 1))
        X = X - step * stochastic_gradient(X, cfg, rng, batch)
        trace.append(row(it, X, step))
    lines = trace_to_csv(trace).splitlines()[1:]
    return {r.iter: line for r, line in zip(trace, lines)}, {r.iter: r.grad_norm for r in trace}


def _iters(res):
    return [row.iter for row in res.trace]


def _sgd_rows(res):
    return dict(zip(_iters(res), trace_to_csv(res.trace).splitlines()[1:]))


@pytest.mark.parametrize("batch", [16, 64])
def test_sgd_rows_are_the_reference_loop_rows_once_per_epoch(batch):
    gt, obs, cfg = make_problem(20, 1, seed=1, p=0.8)
    scfg = SolverConfig(method=Method.SGD, max_iters=3000, seed=2, sgd=SgdParams(batch=batch))
    X0 = random_init(20, 1, obs, 3)
    res = solve(cfg, scfg, X0)
    ref, ref_gn = _reference_sgd_rows(cfg, scfg, X0)
    period = _sgd_period(cfg, scfg)
    assert period > 1
    assert res.status is Status.GRAD_TOL
    grad_tol = 1e-8 * (1.0 + evaluate(X0, cfg)[1].total)
    # the run stops at the first pass whose full gradient norm reaches grad_tol
    stop = next(it for it in range(period, scfg.max_iters + 1, period) if ref_gn[it] <= grad_tol)
    assert _iters(res) == list(range(0, stop + 1, period))
    rows = _sgd_rows(res)
    assert rows == {it: ref[it] for it in rows}


def test_sgd_ends_with_a_full_pass_at_max_iters():
    gt, obs, cfg = make_problem(20, 1, seed=1, p=0.8)
    X0 = random_init(20, 1, obs, 3)
    period = _sgd_period(cfg, SolverConfig(method=Method.SGD))
    scfg = SolverConfig(method=Method.SGD, max_iters=3 * period + 2, seed=2)
    res = solve(cfg, scfg, X0)
    assert res.status is Status.MAX_ITERS and res.iterations == scfg.max_iters
    assert _iters(res) == [0, period, 2 * period, 3 * period, scfg.max_iters]
    rows = _sgd_rows(res)
    ref, _ = _reference_sgd_rows(cfg, scfg, X0)
    assert rows == {it: ref[it] for it in rows}
    _, bdown, G, _ = evaluate(res.X, cfg)
    assert res.f == bdown.total and res.grad_norm == float(np.linalg.norm(G))
    assert res.entry_grads == scfg.max_iters * scfg.sgd.batch


def test_sgd_with_a_batch_of_all_entries_writes_a_row_per_step():
    gt, obs, cfg = make_problem(10, 1, seed=4, p=0.8)
    scfg = SolverConfig(method=Method.SGD, max_iters=40, seed=2, sgd=SgdParams(batch=10 * cfg.n_pairs))
    X0 = random_init(10, 1, obs, 3)
    res = solve(cfg, scfg, X0)
    assert _sgd_period(cfg, scfg) == 1
    assert _iters(res) == list(range(res.iterations + 1))
    assert res.iterations > 1
    ref, _ = _reference_sgd_rows(cfg, scfg, X0)
    assert _sgd_rows(res) == {it: ref[it] for it in _iters(res)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sgd_stops_at_first_non_finite_iterate(hessian_scale):
    gt, obs, cfg = make_problem(20, 2, seed=3, p=0.8)
    hessian_scale(1e-3)  # a step base about 1000 times t0, far above 1 / ||H||
    scfg = SolverConfig(method=Method.SGD, max_iters=300)
    res = solve(cfg, scfg, random_init(20, 2, obs, 0))
    assert res.status is Status.DIVERGED
    assert res.iterations < scfg.max_iters and res.iterations == res.trace[-1].iter
    period = _sgd_period(cfg, scfg)
    assert _iters(res) == list(range(0, res.iterations + 1, period))
    finite = [math.isfinite(row.f) and math.isfinite(row.grad_norm) for row in res.trace]
    assert finite == [True] * (len(finite) - 1) + [False]
    assert not math.isfinite(res.f) or not math.isfinite(res.grad_norm)


@pytest.mark.parametrize("method", [Method.GD, Method.PERTURBED_GD])
def test_reported_gradient_norm_is_that_of_the_endpoint(method):
    # each accepted line-search trial hands its residuals to the gradient:
    # the reported norm must be the gradient norm at the endpoint, bit for bit
    gt, obs, cfg = make_problem(30, 2, seed=9, p=0.5)
    X0 = random_init(30, 2, obs, 4)
    for k in range(1, 11):
        res = solve(cfg, SolverConfig(method=method, max_iters=k, seed=4), X0)
        assert res.iterations == k
        assert res.grad_norm == float(np.linalg.norm(evaluate(res.X, cfg)[2]))
        assert res.f == evaluate(res.X, cfg)[1].total


# ---------------------------------------------------------------------------
# perturbed gradient descent


def test_perturbed_gd_escapes_origin_where_gd_stays():
    lam2 = 1e-4
    Q, cfg = _spiked_rank2_problem(lam2)
    X0 = np.zeros((12, 1))
    assert float(np.linalg.norm(evaluate(X0, cfg)[2])) == 0.0

    plain = solve(cfg, SolverConfig(), X0)
    assert plain.iterations == 0
    assert plain.f == evaluate(X0, cfg)[1].total  # stuck at the stationary origin

    res = solve(cfg, SolverConfig(method=Method.PERTURBED_GD, max_iters=4000, seed=9), X0)
    assert res.status == Status.GRAD_TOL
    assert res.f <= 1e-8  # global value is lam2^2 / 2 = 5e-9


def test_perturbed_gd_escapes_strict_saddle():
    Q, cfg = _spiked_rank2_problem(0.5)
    x_saddle = np.sqrt(0.5) * Q[:, 1:2]
    assert float(np.linalg.norm(evaluate(x_saddle, cfg)[2])) <= 1e-10
    res = solve(
        cfg, SolverConfig(method=Method.PERTURBED_GD, max_iters=4000, seed=2), x_saddle
    )
    assert res.status == Status.GRAD_TOL
    # saddle value is 0.5; the rank-1 optimum is 0.5^2 / 2 = 0.125
    assert res.f == pytest.approx(0.125, rel=1e-6)


def test_perturbed_gd_confirms_true_minimum():
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    scfg = SolverConfig(method=Method.PERTURBED_GD, seed=1)
    res = solve(cfg, scfg, random_init(20, 2, obs, 3))
    assert res.status == Status.GRAD_TOL
    assert _recovery(res.X, gt) <= 1e-6


def test_perturbed_gd_deterministic_given_seed():
    gt, obs, cfg = make_problem(15, 2, seed=14, p=0.7)
    scfg = SolverConfig(method=Method.PERTURBED_GD, seed=11)
    X0 = random_init(15, 2, obs, 6)
    a = solve(cfg, scfg, X0)
    b = solve(cfg, scfg, X0)
    assert np.array_equal(a.X, b.X)
    assert [row.f for row in a.trace] == [row.f for row in b.trace]
    assert a.iterations == b.iterations


@pytest.mark.parametrize("seed", range(20))
def test_perturbed_gd_last_trace_row_is_the_result(seed):
    gt, obs, cfg = make_problem(30, 2, seed=seed, p=0.5)
    scfg = SolverConfig(method=Method.PERTURBED_GD, seed=seed)
    res = solve(cfg, scfg, random_init(30, 2, obs, seed))
    last = res.trace[-1]
    assert last.f == res.f
    assert last.grad_norm == res.grad_norm
    assert last.cum_entry_grads == res.entry_grads


@pytest.mark.parametrize("r, seed", [(1, 101), (2, 102), (3, 103)])
def test_perturbed_gd_writes_gd_trace_where_it_ends_at_a_minimum(r, seed):
    # C3 cells: every start descends to a minimum, where the eigensolve
    # stops the run without a witness step
    p = min(1.0, max(0.2, 10.0 * r * math.log(100) / 100.0))
    gt, obs = InstanceSpec(d=100, r=r, seed=seed, p=p).regenerate()
    cfg = ObjectiveConfig(default_hyperparams(gt, p), obs)
    for k in range(5):
        seed_k = derive_seed(seed, "scan-start", k)
        X0 = random_init(100, r, obs, seed_k)
        plain = solve(cfg, SolverConfig(seed=seed_k), X0)
        res = solve(cfg, SolverConfig(method=Method.PERTURBED_GD, seed=seed_k), X0)
        assert trace_to_csv(res.trace) == trace_to_csv(plain.trace)
        assert res.status is Status.GRAD_TOL and res.eig.converged
        assert res.eig.lambda_min >= -curvature_slack(cfg, res.eig.op_norm)
        assert plain.eig is None  # plain GD runs no eigensolve


@pytest.fixture
def eigensolves(monkeypatch):
    """Record (X, EigResult) of every min_hessian_eig call."""
    calls = []
    solve_eig = objective.min_hessian_eig

    def record(X, cfg, resid=None):
        calls.append((X.copy(), solve_eig(X, cfg, resid)))
        return calls[-1][1]

    monkeypatch.setattr(objective, "min_hessian_eig", record)
    return calls


@pytest.mark.parametrize("lam2", [1e-4, 0.5])
@pytest.mark.parametrize("start", ["saddle", "origin"])
def test_perturbed_gd_steps_along_the_witness_at_exact_saddle(eigensolves, line_searches, start, lam2):
    # the C4 geometry: the gradient vanishes at the rank-1 saddle
    # sqrt(lam2) Q[:, 1] to rounding, and exactly at the origin
    Q, cfg = _spiked_rank2_problem(lam2)
    X0 = np.sqrt(lam2) * Q[:, 1:2] if start == "saddle" else np.zeros((12, 1))
    assert float(np.linalg.norm(evaluate(X0, cfg)[2])) <= 1e-10
    res = solve(cfg, SolverConfig(method=Method.PERTURBED_GD, max_iters=4000), X0)
    X_first, eig_first = eigensolves[0]
    assert np.array_equal(X_first, X0)
    assert eig_first.lambda_min < -curvature_slack(cfg, eig_first.op_norm)
    # trace row 1 moves X0 along +-witness and lowers f
    X, D, _, step = line_searches[0]
    witness = eig_first.lambda_min * eig_first.witness
    assert np.array_equal(X, X0) and (np.array_equal(D, witness) or np.array_equal(D, -witness))
    fs = [row.f for row in res.trace]
    assert res.trace[1].step == step
    assert fs[1] == pytest.approx(evaluate(X0 - step * D, cfg)[1].total, rel=1e-12)
    assert np.all(np.diff(fs) <= 0.0) and fs[1] < fs[0]
    assert res.status is Status.GRAD_TOL and res.iterations <= 20
    assert res.f <= 1e-8 if lam2 == 1e-4 else res.f == pytest.approx(lam2**2 / 2, rel=1e-6)
    # the run ends at the point of its last eigensolve, which rules out a saddle
    X_last, eig_last = eigensolves[-1]
    assert np.array_equal(X_last, res.X) and res.eig is eig_last
    assert res.eig.converged and res.eig.lambda_min >= -curvature_slack(cfg, res.eig.op_norm)


@pytest.mark.parametrize("lam2", [1e-4, 0.5])
@pytest.mark.parametrize("start", ["saddle", "origin"])
def test_witness_step_escapes_under_a_large_c1(start, lam2, monkeypatch):
    # the witness search asks for c1 times the curvature decrease
    # t^2 |lambda|^3 / 2, which every small enough step gives for any
    # c1 < 1; the linear test f(X - tD) <= f(X) - c1 t lambda^2 asks for a
    # move of at least 2 c1 and holds the run at the origin once c1 > 0.27
    monkeypatch.setattr(solvers, "_C1", 0.5)
    Q, cfg = _spiked_rank2_problem(lam2)
    X0 = np.sqrt(lam2) * Q[:, 1:2] if start == "saddle" else np.zeros((12, 1))
    scfg = SolverConfig(method=Method.PERTURBED_GD, max_iters=4000)
    res = solve(cfg, scfg, X0)
    fs = np.array([row.f for row in res.trace])
    assert fs[1] < fs[0] and np.all(np.diff(fs) <= 0.0)
    assert res.status is Status.GRAD_TOL and res.f == pytest.approx(lam2**2 / 2, rel=1e-6)


def test_unconverged_eigensolve_at_minimum_stops_there(unconverged_eigensolves, eigensolves):
    # an eigensolve that shows no negative curvature ends the run, converged
    # or not; the certificate then cannot call the endpoint a minimum
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    X0 = random_init(20, 2, obs, 3)
    plain = solve(cfg, SolverConfig(seed=1), X0)
    res = solve(cfg, SolverConfig(method=Method.PERTURBED_GD, seed=1), X0)
    assert trace_to_csv(res.trace) == trace_to_csv(plain.trace)
    assert len(eigensolves) == 1 and res.eig is eigensolves[0][1]
    assert res.status is Status.GRAD_TOL and not res.eig.converged
    assert res.eig.lambda_min >= -curvature_slack(cfg, res.eig.op_norm)
    assert certify_point(res.X, cfg, gt, eig=res.eig).classification is PointClass.UNCERTIFIED


def test_solve_dispatches_by_method():
    gt, obs, cfg = make_problem(10, 1, seed=15, p=0.8)
    X0 = random_init(10, 1, obs, 7)
    for method, direct in (
        (Method.GD, lambda *args: solvers._descend(*args, witness_steps=False)),
        (Method.SGD, solvers._sgd),
        (Method.PERTURBED_GD, lambda *args: solvers._descend(*args, witness_steps=True)),
    ):
        scfg = SolverConfig(method=method, max_iters=50, seed=2)
        assert np.array_equal(solve(cfg, scfg, X0).X, direct(cfg, scfg, X0).X)
    with pytest.raises(ValueError):
        solve(cfg, SolverConfig(method="newton"), X0)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_csv_schema_and_roundtrip():
    gt, obs, cfg = make_problem(10, 1, seed=16, p=0.8)
    res = solve(cfg, SolverConfig(max_iters=30), random_init(10, 1, obs, 8))
    text = trace_to_csv(res.trace)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == res.trace[0].f  # repr round-trips exactly
    assert int(first[6]) == cfg.n_pairs

    buf = io.StringIO()
    trace_to_csv(res.trace, buf)
    assert buf.getvalue() == text


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SgdParams(batch=0)


@pytest.mark.parametrize(
    "record,kwargs,error",
    [
        (SolverConfig, dict(method="bogus"), ValueError),
        # True once ended every start NotStationary after one step
        (SolverConfig, dict(max_iters=True), TypeError),
        (SolverConfig, dict(max_iters=2.5), TypeError),
        (SgdParams, dict(batch=2.5), TypeError),
    ],
)
def test_solver_records_reject_values_of_the_wrong_type(record, kwargs, error):
    with pytest.raises(error, match=next(iter(kwargs))):
        record(**kwargs)


def test_solver_records_store_their_annotated_types():
    assert SolverConfig(method="gd").method is Method.GD
    assert type(SgdParams(batch=np.int64(8)).batch) is int
