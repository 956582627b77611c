import io
import math

import numpy as np
import pytest

from mcland.certify import PointClass, certify_point
from mcland.instance import GroundTruth, HyperParams, InstanceSpec, default_hyperparams, observe
from mcland import objective, solvers
from mcland.objective import (
    ObjectiveConfig,
    curvature_slack,
    operator_norm_estimate,
    pair_gradient_sum,
    value_and_gradient,
)
from mcland.solvers import (
    Method,
    SgdParams,
    SolverConfig,
    Status,
    TRACE_COLUMNS,
    gradient_descent,
    perturbed_gd,
    random_init,
    sgd,
    solve,
    stochastic_gradient,
    trace_to_csv,
)
from mcland.rng import derive_seed, substream

from conftest import dense_gram, full_mask, make_problem, per_row_penalty


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
    assert float(np.linalg.norm(value_and_gradient(X0, cfg)[1])) > 0.0


def test_random_init_validates_rank():
    gt, obs, cfg = make_problem(5, 1, seed=3)
    with pytest.raises(ValueError):
        random_init(5, 6, obs, 0)


# ---------------------------------------------------------------------------
# gradient descent


def test_gd_solves_tiny_full_problem():
    gt, obs, cfg = make_problem(2, 1, seed=4)
    cfg = ObjectiveConfig(HyperParams(alpha=1e6, reg_weight=0.0, tau=0.0), obs)
    res = gradient_descent(cfg, SolverConfig(), random_init(2, 1, obs, 0))
    assert res.status == Status.GRAD_TOL
    assert res.f <= 1e-10


def test_gd_trace_is_monotone_and_budgeted():
    gt, obs, cfg = make_problem(20, 2, seed=5, p=0.6)
    runs = [(cfg, gradient_descent(cfg, SolverConfig(max_iters=500), random_init(20, 2, obs, 1)))]
    # perturbed GD leaves the strict saddle of _spiked_rank2_problem(0.5) along its witness
    Q, cfg = _spiked_rank2_problem(0.5)
    scfg = SolverConfig(method=Method.PERTURBED_GD, max_iters=500)
    runs.append((cfg, perturbed_gd(cfg, scfg, np.sqrt(0.5) * Q[:, 1:2])))
    for cfg, res in runs:
        fs = np.array(res.trace.f)
        assert np.all(np.diff(fs) <= 0.0)  # Armijo only accepts decrease
        assert len(res.trace) == res.iterations + 1
        assert res.entry_grads == cfg.n_pairs * (res.iterations + 1)
        assert res.trace.cum_entry_grads[-1] == res.entry_grads
        assert res.f == res.trace.f[-1]


def test_gd_recovers_across_starts():
    gt, obs, cfg = make_problem(50, 1, seed=21, p=0.5)
    worst, worst_iters = 0.0, 0
    for s in range(20):
        res = gradient_descent(cfg, SolverConfig(seed=s), random_init(50, 1, obs, 1000 + s))
        assert res.status == Status.GRAD_TOL
        worst = max(worst, _recovery(res.X, gt))
        worst_iters = max(worst_iters, res.iterations)
    assert worst <= 1e-3
    assert worst_iters <= 100  # a line search opened at 2 * t_prev took 1,945 on one start


@pytest.fixture
def line_searches(monkeypatch):
    """Record (X, D, t_init, accepted step or None) of every line search."""
    calls = []
    armijo = solvers._armijo_step

    def record(cfg, X, bdown, D, slope, curv, t_init):
        hit = armijo(cfg, X, bdown, D, slope, curv, t_init)
        calls.append((X.copy(), D.copy(), t_init, None if hit is None else hit[0]))
        return hit

    monkeypatch.setattr(solvers, "_armijo_step", record)
    return calls


def _expected_trials(calls, trace, step0):
    """Check each line search's first trial against the step rule, from the
    recorded searches and the trace alone; returns how often each case ran.

    The first search opens at twice step0.  A search from a point whose
    gradient norm met the default grad_tol runs along the witness; it and
    the search after it open at twice the last accepted step.  Any other
    search opens at the BB step <s, s> / <s, y> of the last move, or at
    twice its step when <s, y> <= 0.
    """
    assert all(c[3] is not None for c in calls)  # so search m runs from trace row m
    assert len(calls) == len(trace) - 1
    grad_tol = 1e-8 * (1.0 + trace.f[0])
    witness = [gn <= grad_tol for gn in trace.grad_norm]
    cases = dict(bb=0, curvature=0, first=0, witness=0, after_witness=0)
    for m, (X, G, t_init, _) in enumerate(calls):
        if m == 0 or witness[m] or witness[m - 1]:
            assert t_init == 2.0 * (calls[m - 1][3] if m else step0)
            cases["witness" if witness[m] else "first" if m == 0 else "after_witness"] += 1
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
    res = gradient_descent(cfg, SolverConfig(), X0)
    assert res.status == Status.GRAD_TOL
    step0 = 1.0 / operator_norm_estimate(X0, cfg)
    cases = _expected_trials(line_searches, res.trace, step0)
    assert cases["first"] == 1 and cases["curvature"] >= 1 and cases["bb"] >= 1


def test_perturbed_gd_trials_fall_back_after_witness_steps(line_searches, norm_estimate):
    # descent from starts on the saddle's stable line reaches the strict
    # saddle sqrt(0.5) Q[:, 1], whose negative curvature gives a witness step
    Q, cfg = _spiked_rank2_problem(0.5)
    norm_estimate(100.0)  # step0 = 0.01
    scfg = SolverConfig(method=Method.PERTURBED_GD)
    cases = dict(bb=0, curvature=0, first=0, witness=0, after_witness=0)
    for c in (0.5, 0.9, 1.2):
        line_searches.clear()
        res = perturbed_gd(cfg, scfg, c * Q[:, 1:2])
        assert res.status is Status.GRAD_TOL and res.f == pytest.approx(0.125, rel=1e-6)
        for case, n in _expected_trials(line_searches, res.trace, 0.01).items():
            cases[case] += n
    assert cases["witness"] >= 3 and cases["after_witness"] >= 3 and cases["bb"] >= 1


def test_bb_step_needs_positive_curvature():
    s = np.array([[1.0], [2.0]])
    assert solvers._bb_step(s, 2.0 * s) == 0.5
    assert solvers._bb_step(s, np.zeros_like(s)) is None
    assert solvers._bb_step(s, -s) is None


def test_gd_reports_stall_on_underflowing_step(norm_estimate):
    gt, obs, cfg = make_problem(10, 1, seed=6, p=0.8)
    norm_estimate(1e20)  # step0 = 1e-20: every trial is below the underflow step
    res = gradient_descent(cfg, SolverConfig(), random_init(10, 1, obs, 2))
    assert res.status == Status.LINE_SEARCH_STALLED
    assert res.iterations == 0


def test_gd_converged_start_returns_immediately():
    gt, obs, cfg = make_problem(12, 2, seed=7)
    res = gradient_descent(cfg, SolverConfig(), gt.factor)
    assert res.status == Status.GRAD_TOL
    assert res.iterations == 0
    assert np.array_equal(res.X, gt.factor)


# ---------------------------------------------------------------------------
# stochastic gradients


def test_exhaustive_batch_equals_full_gradient(rng):
    gt, obs, cfg = make_problem(12, 2, seed=8, p=0.7)
    X = rng.normal(size=(12, 2)) * 1.5
    G_sum = pair_gradient_sum(X, cfg, np.arange(cfg.n_pairs))
    data_only = value_and_gradient(X, cfg)[1] - cfg.hyper.reg_weight * per_row_penalty(X, cfg.hyper.alpha)[1]
    assert np.allclose(G_sum, data_only, atol=1e-11 * (1 + np.abs(data_only).max()))


def test_stochastic_gradient_unbiased_cheaply(rng):
    gt, obs, cfg = make_problem(8, 1, seed=9, p=1.0)
    X = rng.normal(size=(8, 1))
    full = value_and_gradient(X, cfg)[1]
    stream = substream(123, "sgdtest")
    draws = np.stack(
        [stochastic_gradient(X, cfg, stream, 4) for _ in range(4000)]
    )
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - full) <= 4.0 * se + 1e-12)


def test_only_sgd_builds_the_per_position_tables():
    # 12 B per position: a config that only GD uses must not hold them
    gt, obs, cfg = make_problem(15, 1, seed=10, p=0.6)
    X0 = random_init(15, 1, obs, 4)
    gradient_descent(cfg, SolverConfig(), X0)
    perturbed_gd(cfg, SolverConfig(method=Method.PERTURBED_GD), X0)
    assert "_position_tables" not in vars(cfg)
    sgd(cfg, SolverConfig(method=Method.SGD, max_iters=5), X0)
    rows, values = vars(cfg)["_position_tables"]
    assert rows.dtype == np.int32 and values.dtype == np.float64 and rows.size == values.size == cfg.n_pairs


def test_sgd_deterministic_given_seed():
    gt, obs, cfg = make_problem(15, 1, seed=10, p=0.6, sigma=0.05)
    scfg = SolverConfig(method=Method.SGD, max_iters=200, seed=3)
    X0 = random_init(15, 1, obs, 4)
    a = sgd(cfg, scfg, X0)
    b = sgd(cfg, scfg, X0)
    assert np.array_equal(a.X, b.X)
    assert a.trace.f == b.trace.f


def test_sgd_budget_counts_sampled_pairs_only():
    gt, obs, cfg = make_problem(15, 1, seed=11, p=0.6, sigma=0.05)
    scfg = SolverConfig(method=Method.SGD, max_iters=50, seed=3, sgd=SgdParams(batch=16))
    res = sgd(cfg, scfg, random_init(15, 1, obs, 4))
    assert res.entry_grads == 16 * res.iterations


def test_sgd_matches_gd_on_equal_budget():
    # noisy instance: both methods settle at the same noise floor, so the
    # achieved objectives agree within an order of magnitude either way
    gt, obs, cfg = make_problem(50, 1, seed=12, p=0.5, sigma=0.02)
    X0 = random_init(50, 1, obs, 5)
    gd_res = gradient_descent(cfg, SolverConfig(max_iters=2000), X0)
    batch = 64
    iters = max(1, gd_res.entry_grads // batch)
    sgd_res = sgd(
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
    base = (1.0 / operator_norm_estimate(X0, cfg)) * math.sqrt(batch / cfg.n_pairs)
    rng = substream(scfg.seed, "sgd")
    X = np.array(X0, dtype=float)
    trace = solvers.Trace()
    bdown, G = value_and_gradient(X, cfg)
    trace.append(0, bdown, float(np.linalg.norm(G)), 0.0, 0)
    for it in range(1, scfg.max_iters + 1):
        step = base / (1.0 + solvers._STEP_DECAY * (it - 1))
        X = X - step * stochastic_gradient(X, cfg, rng, batch)
        bdown, G = value_and_gradient(X, cfg)
        trace.append(it, bdown, float(np.linalg.norm(G)), step, it * batch)
    lines = trace_to_csv(trace).splitlines()[1:]
    return dict(zip(trace.iters, lines)), dict(zip(trace.iters, trace.grad_norm))


def _sgd_rows(res):
    return dict(zip(res.trace.iters, trace_to_csv(res.trace).splitlines()[1:]))


@pytest.mark.parametrize("batch", [16, 64])
def test_sgd_rows_are_the_reference_loop_rows_once_per_epoch(batch):
    gt, obs, cfg = make_problem(20, 1, seed=1, p=0.8)
    scfg = SolverConfig(method=Method.SGD, max_iters=3000, seed=2, sgd=SgdParams(batch=batch))
    X0 = random_init(20, 1, obs, 3)
    res = sgd(cfg, scfg, X0)
    ref, ref_gn = _reference_sgd_rows(cfg, scfg, X0)
    period = _sgd_period(cfg, scfg)
    assert period > 1
    assert res.status is Status.GRAD_TOL
    grad_tol = 1e-8 * (1.0 + value_and_gradient(X0, cfg)[0].total)
    # the run stops at the first pass whose full gradient norm reaches grad_tol
    stop = next(it for it in range(period, scfg.max_iters + 1, period) if ref_gn[it] <= grad_tol)
    assert res.trace.iters == list(range(0, stop + 1, period))
    rows = _sgd_rows(res)
    assert rows == {it: ref[it] for it in rows}


def test_sgd_ends_with_a_full_pass_at_max_iters():
    gt, obs, cfg = make_problem(20, 1, seed=1, p=0.8)
    X0 = random_init(20, 1, obs, 3)
    period = _sgd_period(cfg, SolverConfig(method=Method.SGD))
    scfg = SolverConfig(method=Method.SGD, max_iters=3 * period + 2, seed=2)
    res = sgd(cfg, scfg, X0)
    assert res.status is Status.MAX_ITERS and res.iterations == scfg.max_iters
    assert res.trace.iters == [0, period, 2 * period, 3 * period, scfg.max_iters]
    rows = _sgd_rows(res)
    ref, _ = _reference_sgd_rows(cfg, scfg, X0)
    assert rows == {it: ref[it] for it in rows}
    bdown, G = value_and_gradient(res.X, cfg)
    assert res.f == bdown.total and res.grad_norm == float(np.linalg.norm(G))
    assert res.entry_grads == scfg.max_iters * scfg.sgd.batch


def test_sgd_with_a_batch_of_all_entries_writes_a_row_per_step():
    gt, obs, cfg = make_problem(10, 1, seed=4, p=0.8)
    scfg = SolverConfig(method=Method.SGD, max_iters=40, seed=2, sgd=SgdParams(batch=10 * cfg.n_pairs))
    X0 = random_init(10, 1, obs, 3)
    res = sgd(cfg, scfg, X0)
    assert _sgd_period(cfg, scfg) == 1
    assert res.trace.iters == list(range(res.iterations + 1))
    assert res.iterations > 1
    ref, _ = _reference_sgd_rows(cfg, scfg, X0)
    assert _sgd_rows(res) == {it: ref[it] for it in res.trace.iters}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sgd_stops_at_first_non_finite_iterate(norm_estimate):
    gt, obs, cfg = make_problem(20, 2, seed=3, p=0.8)
    norm_estimate(1e-2)  # a step base far above 1 / ||H||
    scfg = SolverConfig(method=Method.SGD, max_iters=300)
    res = sgd(cfg, scfg, random_init(20, 2, obs, 0))
    assert res.status is Status.DIVERGED
    assert res.iterations < scfg.max_iters and res.iterations == res.trace.iters[-1]
    period = _sgd_period(cfg, scfg)
    assert res.trace.iters == list(range(0, res.iterations + 1, period))
    finite = [math.isfinite(f) and math.isfinite(g) for f, g in zip(res.trace.f, res.trace.grad_norm)]
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
        assert res.grad_norm == float(np.linalg.norm(value_and_gradient(res.X, cfg)[1]))
        assert res.f == value_and_gradient(res.X, cfg)[0].total


# ---------------------------------------------------------------------------
# perturbed gradient descent


def test_perturbed_gd_escapes_origin_where_gd_stays():
    lam2 = 1e-4
    Q, cfg = _spiked_rank2_problem(lam2)
    X0 = np.zeros((12, 1))
    assert float(np.linalg.norm(value_and_gradient(X0, cfg)[1])) == 0.0

    plain = gradient_descent(cfg, SolverConfig(), X0)
    assert plain.iterations == 0
    assert plain.f == value_and_gradient(X0, cfg)[0].total  # stuck at the stationary origin

    res = perturbed_gd(cfg, SolverConfig(method=Method.PERTURBED_GD, max_iters=4000, seed=9), X0)
    assert res.status == Status.GRAD_TOL
    assert res.f <= 1e-8  # global value is lam2^2 / 2 = 5e-9


def test_perturbed_gd_escapes_strict_saddle():
    Q, cfg = _spiked_rank2_problem(0.5)
    x_saddle = np.sqrt(0.5) * Q[:, 1:2]
    assert float(np.linalg.norm(value_and_gradient(x_saddle, cfg)[1])) <= 1e-10
    res = perturbed_gd(
        cfg, SolverConfig(method=Method.PERTURBED_GD, max_iters=4000, seed=2), x_saddle
    )
    assert res.status == Status.GRAD_TOL
    # saddle value is 0.5; the rank-1 optimum is 0.5^2 / 2 = 0.125
    assert res.f == pytest.approx(0.125, rel=1e-6)


def test_perturbed_gd_confirms_true_minimum():
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    scfg = SolverConfig(method=Method.PERTURBED_GD, seed=1)
    res = perturbed_gd(cfg, scfg, random_init(20, 2, obs, 3))
    assert res.status == Status.GRAD_TOL
    assert _recovery(res.X, gt) <= 1e-6


def test_perturbed_gd_deterministic_given_seed():
    gt, obs, cfg = make_problem(15, 2, seed=14, p=0.7)
    scfg = SolverConfig(method=Method.PERTURBED_GD, seed=11)
    X0 = random_init(15, 2, obs, 6)
    a = perturbed_gd(cfg, scfg, X0)
    b = perturbed_gd(cfg, scfg, X0)
    assert np.array_equal(a.X, b.X)
    assert a.trace.f == b.trace.f
    assert a.iterations == b.iterations


@pytest.mark.parametrize("seed", range(20))
def test_perturbed_gd_last_trace_row_is_the_result(seed):
    gt, obs, cfg = make_problem(30, 2, seed=seed, p=0.5)
    scfg = SolverConfig(method=Method.PERTURBED_GD, seed=seed)
    res = perturbed_gd(cfg, scfg, random_init(30, 2, obs, seed))
    trace = res.trace
    assert trace.f[-1] == res.f
    assert trace.grad_norm[-1] == res.grad_norm
    assert trace.cum_entry_grads[-1] == res.entry_grads


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
        plain = gradient_descent(cfg, SolverConfig(seed=seed_k), X0)
        res = perturbed_gd(cfg, SolverConfig(method=Method.PERTURBED_GD, seed=seed_k), X0)
        assert trace_to_csv(res.trace) == trace_to_csv(plain.trace)
        assert res.status is Status.GRAD_TOL and res.eig.converged
        assert res.eig.lambda_min >= -curvature_slack(cfg, res.eig.op_norm)
        assert plain.eig is None  # plain GD runs no eigensolve


@pytest.fixture
def eigensolves(monkeypatch):
    """Record (X, EigResult) of every min_hessian_eig call."""
    calls = []
    solve_eig = objective.min_hessian_eig

    def record(X, cfg):
        calls.append((X.copy(), solve_eig(X, cfg)))
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
    assert float(np.linalg.norm(value_and_gradient(X0, cfg)[1])) <= 1e-10
    res = perturbed_gd(cfg, SolverConfig(method=Method.PERTURBED_GD, max_iters=4000), X0)
    X_first, eig_first = eigensolves[0]
    assert np.array_equal(X_first, X0)
    assert eig_first.lambda_min < -curvature_slack(cfg, eig_first.op_norm)
    # trace row 1 moves X0 along +-witness and lowers f
    X, D, _, step = line_searches[0]
    witness = eig_first.lambda_min * eig_first.witness
    assert np.array_equal(X, X0) and (np.array_equal(D, witness) or np.array_equal(D, -witness))
    t = res.trace
    assert t.step[1] == step
    assert t.f[1] == pytest.approx(value_and_gradient(X0 - step * D, cfg)[0].total, rel=1e-12)
    assert np.all(np.diff(t.f) <= 0.0) and t.f[1] < t.f[0]
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
    res = perturbed_gd(cfg, scfg, X0)
    fs = np.array(res.trace.f)
    assert fs[1] < fs[0] and np.all(np.diff(fs) <= 0.0)
    assert res.status is Status.GRAD_TOL and res.f == pytest.approx(lam2**2 / 2, rel=1e-6)


def test_unconverged_eigensolve_at_minimum_stops_there(unconverged_eigensolves, eigensolves):
    # an eigensolve that shows no negative curvature ends the run, converged
    # or not; the certificate then cannot call the endpoint a minimum
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    X0 = random_init(20, 2, obs, 3)
    plain = gradient_descent(cfg, SolverConfig(seed=1), X0)
    res = perturbed_gd(cfg, SolverConfig(method=Method.PERTURBED_GD, seed=1), X0)
    assert trace_to_csv(res.trace) == trace_to_csv(plain.trace)
    assert len(eigensolves) == 1 and res.eig is eigensolves[0][1]
    assert res.status is Status.GRAD_TOL and not res.eig.converged
    assert res.eig.lambda_min >= -curvature_slack(cfg, res.eig.op_norm)
    assert certify_point(res.X, cfg, gt, eig=res.eig).classification is PointClass.UNCERTIFIED


def test_solve_dispatches_by_method():
    gt, obs, cfg = make_problem(10, 1, seed=15, p=0.8)
    X0 = random_init(10, 1, obs, 7)
    for method, direct in (
        (Method.GD, gradient_descent),
        (Method.SGD, sgd),
        (Method.PERTURBED_GD, perturbed_gd),
    ):
        scfg = SolverConfig(method=method, max_iters=50, seed=2)
        assert np.array_equal(solve(cfg, scfg, X0).X, direct(cfg, scfg, X0).X)
    with pytest.raises(ValueError):
        solve(cfg, SolverConfig(method="newton"), X0)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_csv_schema_and_roundtrip():
    gt, obs, cfg = make_problem(10, 1, seed=16, p=0.8)
    res = gradient_descent(cfg, SolverConfig(max_iters=30), random_init(10, 1, obs, 8))
    text = trace_to_csv(res.trace)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == res.trace.f[0]  # repr round-trips exactly
    assert int(first[6]) == cfg.n_pairs

    buf = io.StringIO()
    trace_to_csv(res.trace, buf)
    assert buf.getvalue() == text


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SgdParams(batch=0)
