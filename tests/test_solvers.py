import io
import math

import numpy as np
import pytest

from mcland.instance import GroundTruth, HyperParams, observe
from mcland.linalg import full_mask
from mcland.objective import ObjectiveConfig, pair_gradient_sum, value_and_gradient
from mcland.solvers import (
    ArmijoParams,
    Method,
    PerturbParams,
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
from mcland.rng import substream

from conftest import dense_gram, make_problem


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
    res = gradient_descent(cfg, SolverConfig(max_iters=500), random_init(20, 2, obs, 1))
    fs = np.array(res.trace.f)
    assert np.all(np.diff(fs) <= 0.0)  # Armijo only accepts decrease
    assert len(res.trace) == res.iterations + 1
    assert res.entry_grads == cfg.n_pairs * (res.iterations + 1)
    assert res.trace.cum_entry_grads[-1] == res.entry_grads
    assert res.f == res.trace.f[-1]


def test_gd_recovers_across_starts():
    gt, obs, cfg = make_problem(50, 1, seed=21, p=0.5)
    worst = 0.0
    for s in range(20):
        res = gradient_descent(cfg, SolverConfig(seed=s), random_init(50, 1, obs, 1000 + s))
        assert res.status == Status.GRAD_TOL
        worst = max(worst, _recovery(res.X, gt))
    assert worst <= 1e-3


def test_gd_reports_stall_on_underflowing_step():
    gt, obs, cfg = make_problem(10, 1, seed=6, p=0.8)
    scfg = SolverConfig(armijo=ArmijoParams(step0=1e-20))
    res = gradient_descent(cfg, scfg, random_init(10, 1, obs, 2))
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
    from mcland.objective import reg_gradient

    gt, obs, cfg = make_problem(12, 2, seed=8, p=0.7)
    X = rng.normal(size=(12, 2)) * 1.5
    G_sum = pair_gradient_sum(X, cfg, np.arange(cfg.n_pairs))
    data_only = value_and_gradient(X, cfg)[1] - cfg.hyper.reg_weight * reg_gradient(X, cfg.hyper.alpha)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sgd_stops_at_first_non_finite_iterate():
    gt, obs, cfg = make_problem(20, 2, seed=3, p=0.8)
    scfg = SolverConfig(method=Method.SGD, max_iters=300, sgd=SgdParams(step_base=50.0))
    res = sgd(cfg, scfg, random_init(20, 2, obs, 0))
    assert res.status is Status.DIVERGED
    assert res.iterations < scfg.max_iters and res.iterations == len(res.trace) - 1
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
    # every one of these runs ends in a rollback to its saved point
    gt, obs, cfg = make_problem(30, 2, seed=seed, p=0.5)
    scfg = SolverConfig(method=Method.PERTURBED_GD, seed=seed)
    res = perturbed_gd(cfg, scfg, random_init(30, 2, obs, seed))
    trace = res.trace
    assert trace.f[-1] == res.f
    assert trace.grad_norm[-1] == res.grad_norm
    assert trace.cum_entry_grads[-1] == res.entry_grads


def test_perturbed_gd_rollback_restores_saved_point():
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    res = perturbed_gd(cfg, SolverConfig(method=Method.PERTURBED_GD, seed=1), random_init(20, 2, obs, 3))
    t = res.trace
    # the run ends on a rollback row (step 0) that repeats an earlier point
    # exactly, without a new gradient evaluation
    assert t.step[-1] == 0.0
    assert t.cum_entry_grads[-1] == t.cum_entry_grads[-2]
    earlier = [k for k in range(len(t) - 1) if (t.f[k], t.grad_norm[k]) == (t.f[-1], t.grad_norm[-1])]
    assert earlier


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
        SolverConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        ArmijoParams(c1=2.0)
    with pytest.raises(ValueError):
        SgdParams(batch=0)
    with pytest.raises(ValueError):
        PerturbParams(cooldown_iters=0)
