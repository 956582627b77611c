import copy
import itertools
import math
import os
import signal
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from mcland.certify import landscape_scan, scan_to_csv, solve_and_certify
from mcland.instance import GroundTruth, HyperParams, InstanceSpec, default_hyperparams, observe
from mcland import objective
from mcland.objective import (
    ObjectiveConfig,
    Point,
    add_penalty_gradient,
    evaluate,
    hessian_operator,
    min_hessian_eig,
    pair_gradient_sum,
)
from mcland.objective import _EIG_TOL, _far_from_stop, _lanczos
from mcland.rng import substream
from mcland.solvers import (
    Method,
    SgdParams,
    SolverConfig,
    random_init,
    solve,
    stochastic_gradient,
    trace_to_csv,
)

from conftest import (
    brute_objective,
    dense_gram,
    dense_hessian,
    dense_min_eig,
    fd_gradient,
    fd_hessian,
    fd_second_directional,
    full_mask,
    hessian_quadratic,
    make_problem,
    per_row_penalty,
    per_row_penalty_hvp,
    reg_hess_quad,
)


# ---------------------------------------------------------------------------
# row penalty


def _penalty_value(X, alpha):
    """The library's unweighted penalty sum_i rho(||X_i||): the `reg_term` of
    a `Point` at weight 1, on a full mask of X's height."""
    d = X.shape[0]
    obs = observe(GroundTruth(np.ones((d, 1))), full_mask(d, include_diagonal=True), 0.0, seed=0)
    return Point(X, ObjectiveConfig(HyperParams(alpha=alpha, reg_weight=1.0, tau=0.0), obs)).value.reg_term


def _penalty_gradient(X, alpha):
    """The library's unweighted penalty gradient: `add_penalty_gradient` at
    weight 1 onto zeros, from the row pass of X."""
    cfg = types.SimpleNamespace(hyper=HyperParams(alpha=alpha, reg_weight=1.0, tau=0.0))
    return add_penalty_gradient(np.zeros_like(X), X, cfg, objective._row_excess(X, alpha))


def _row_penalty(t, alpha):
    """rho(t) with its first two derivatives, read off a one-row factor [[t]]."""
    X = np.array([[t]])
    V = np.ones((1, 1))
    return _penalty_value(X, alpha), float(_penalty_gradient(X, alpha)[0, 0]), reg_hess_quad(X, V, alpha)


def test_reg_row_inactive_below_threshold():
    for t in (0.0, 0.3, 0.999, 1.0):
        assert _row_penalty(t, 1.0) == (0.0, 0.0, 0.0)


def test_reg_row_unit_overshoot():
    value, d1, d2 = _row_penalty(2.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-14)
    assert d1 == pytest.approx(4.0, abs=1e-14)
    assert d2 == pytest.approx(12.0, abs=1e-14)


@given(
    t=st.floats(min_value=0.0, max_value=5.0),
    alpha=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=50, deadline=None)
def test_reg_row_first_derivative_matches_fd(t, alpha):
    h = 1e-5
    _, d1, _ = _row_penalty(t, alpha)
    fd = (_row_penalty(t + h, alpha)[0] - _row_penalty(max(t - h, 0.0), alpha)[0]) / (
        h + min(t, h)
    )
    assert d1 == pytest.approx(fd, abs=5e-4)


def test_regularizer_zero_inside_ball(rng):
    X = rng.normal(size=(10, 3))
    X *= 0.9 / max(np.linalg.norm(X, axis=1))
    assert _penalty_value(X, 1.0) == 0.0


def test_regularizer_single_active_row():
    X = np.zeros((5, 2))
    X[2] = (2.0, 0.0)  # norm 2, alpha 1 -> (2 - 1)^4 = 1
    assert _penalty_value(X, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_regularizer_rotation_invariant(rng):
    X = rng.normal(size=(12, 3)) * 2.0
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    assert _penalty_value(X @ Q, 0.7) == pytest.approx(_penalty_value(X, 0.7), rel=1e-12)


def test_reg_gradient_zero_inside_ball(rng):
    X = rng.normal(size=(8, 2))
    X *= 0.5 / max(np.linalg.norm(X, axis=1))
    assert np.array_equal(_penalty_gradient(X, 1.0), np.zeros_like(X))


def test_reg_gradient_single_row_value():
    X = np.zeros((4, 2))
    X[1] = (2.0, 0.0)
    G = _penalty_gradient(X, 1.0)
    expected = np.zeros_like(X)
    expected[1] = (4.0, 0.0)  # 4 (t - alpha)^3 x / t with t = 2
    assert np.allclose(G, expected, atol=1e-14)


def test_reg_gradient_points_outward(rng):
    # the penalty only pushes row norms down: <grad_i, x_i> >= 0
    X = rng.normal(size=(20, 3)) * 3.0
    G = _penalty_gradient(X, 1.0)
    assert np.all(np.einsum("ij,ij->i", G, X) >= 0.0)


def test_reg_gradient_matches_fd(rng):
    X = rng.normal(size=(6, 2)) * 2.0
    fd = fd_gradient(lambda Y: _penalty_value(Y, 0.8), X)
    assert np.allclose(_penalty_gradient(X, 0.8), fd, atol=1e-6)


def test_penalty_activity_is_decided_per_row(rng):
    X = rng.normal(size=(9, 2))
    top = float(np.sqrt((X * X).sum(axis=1)).max())
    nan_row = X.copy()
    nan_row[3] = np.nan
    cases = [
        (X, top),  # the largest row norm equals alpha: no row active
        (X, float(np.nextafter(top, 0.0))),  # one row a rounding step above alpha
        (X, 0.5 * top),
        (nan_row, 0.5 * top),  # a NaN row is inactive, and the other rows still count
        (nan_row, 2.0 * top),
        (np.zeros((4, 3)), 1.0),
    ]
    for Y, alpha in cases:
        value, G = per_row_penalty(Y, alpha)
        assert np.array_equal(_penalty_value(Y, alpha), value, equal_nan=True)
        assert np.array_equal(_penalty_gradient(Y, alpha), G, equal_nan=True)
    assert not np.any(per_row_penalty(X, top)[1]) and np.any(per_row_penalty(X, cases[1][1])[1])


def test_package_attribute_is_the_module():
    # no function of the package shadows the submodule of the same name
    import mcland.objective as m

    assert isinstance(m, types.ModuleType)
    assert m.hessian_operator is hessian_operator


# ---------------------------------------------------------------------------
# objective value


def test_objective_zero_at_truth():
    gt, obs, cfg = make_problem(15, 2, seed=1)
    ev = evaluate(gt.factor, cfg).value
    assert ev.data_term == pytest.approx(0.0, abs=1e-20)
    assert ev.total <= 1e-18


def test_objective_at_origin_is_half_masked_energy():
    gt, obs, cfg = make_problem(12, 2, seed=2, p=0.6)
    ev = evaluate(np.zeros((12, 2)), cfg).value
    M = np.zeros((12, 12))  # P_Omega(M), both orders of every observed pair
    M[obs.mask.i, obs.mask.j] = obs.values
    M[obs.mask.j, obs.mask.i] = obs.values
    assert ev.data_term == pytest.approx(0.5 * float(np.sum(M * M)), rel=1e-14)
    assert ev.reg_term == 0.0


def test_objective_matches_brute_force(rng):
    gt, obs, cfg = make_problem(8, 2, seed=3, p=0.7, sigma=0.1)
    for _ in range(5):
        X = rng.normal(size=(8, 2)) * 1.5
        assert evaluate(X, cfg).value.total == pytest.approx(brute_objective(X, cfg), rel=1e-12)


def test_breakdown_totals_consistently(rng):
    gt, obs, cfg = make_problem(10, 2, seed=4, p=0.5)
    X = rng.normal(size=(10, 2)) * 2.0
    X[0] = (2.0 * cfg.hyper.alpha, 0.0)  # one row above alpha at least
    ev = evaluate(X, cfg).value
    assert ev.reg_term > 0.0  # reg_term is the weighted penalty, and total its sum with the data term
    assert ev.reg_term == cfg.hyper.reg_weight * _penalty_value(X, cfg.hyper.alpha)
    assert ev.total == ev.data_term + ev.reg_term


def test_objective_rejects_wrong_shape():
    gt, obs, cfg = make_problem(10, 2, seed=4)
    with pytest.raises(ValueError, match="dimension"):
        evaluate(np.zeros((9, 2)), cfg)


def test_quartic_scaling_with_zero_target(rng):
    # with all observed values zero and no penalty, f(tX) = t^4 f(X)
    from mcland.instance import Observation

    mask = full_mask(7, include_diagonal=True)
    obs = Observation(mask=mask, values=np.zeros(mask.i.size), sigma=0.0)
    cfg = ObjectiveConfig(HyperParams(alpha=1.0, reg_weight=0.0, tau=0.0), obs)
    X = rng.normal(size=(7, 2))
    base = evaluate(X, cfg).value.total
    for t in (2.0, 3.0):
        assert evaluate(t * X, cfg).value.total == pytest.approx(t**4 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_noiseless_truth():
    gt, obs, cfg = make_problem(15, 2, seed=5, p=0.8)
    G = evaluate(gt.factor, cfg).gradient()
    assert float(np.abs(G).max()) <= 1e-12


def test_gradient_matches_fd(rng):
    gt, obs, cfg = make_problem(9, 2, seed=6, p=0.7, sigma=0.05)
    for _ in range(3):
        X = rng.normal(size=(9, 2)) * 1.5
        fd = fd_gradient(lambda Y: evaluate(Y, cfg).value.total, X)
        G = evaluate(X, cfg).gradient()
        assert np.allclose(G, fd, atol=1e-5 * (1.0 + float(np.abs(G).max())))


def test_rank1_stationary_points_are_eigenvectors(rng):
    # full mask, no penalty: grad = 2(||x||^2 x - M x), so
    # ||M x - ||x||^2 x|| == ||grad|| / 2 identically
    gt, obs, cfg0 = make_problem(10, 1, seed=7)
    cfg = ObjectiveConfig(
        HyperParams(alpha=cfg0.hyper.alpha, reg_weight=0.0, tau=0.0), obs
    )
    M = dense_gram(gt.factor)  # the mask is full and noiseless
    for _ in range(4):
        x = rng.normal(size=(10, 1))
        lhs = float(np.linalg.norm(M @ x - float(x[:, 0] @ x[:, 0]) * x))
        rhs = 0.5 * float(np.linalg.norm(evaluate(x, cfg).gradient()))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# second order


def test_hessian_quadratic_zero_direction():
    gt, obs, cfg = make_problem(8, 2, seed=8)
    assert hessian_quadratic(gt.factor, np.zeros((8, 2)), cfg) == 0.0


def test_hessian_quadratic_along_truth_direction(rng):
    # at X = Z (zero residual, penalty off) the quadratic form along Z is
    # ||Z Z^T + Z Z^T||_F^2 = 4 ||z||^4 = 4 for a unit rank-1 factor
    z = rng.normal(size=(30, 1))
    z /= np.linalg.norm(z)
    gt = GroundTruth(z)
    mask = full_mask(30, include_diagonal=True)
    obs = observe(gt, mask, 0.0, seed=9)
    cfg = ObjectiveConfig(HyperParams(alpha=10.0, reg_weight=0.0, tau=0.0), obs)
    assert hessian_quadratic(z, z, cfg) == pytest.approx(4.0, abs=1e-10)


def test_hessian_quadratic_matches_fd(rng):
    gt, obs, cfg = make_problem(8, 2, seed=10, p=0.6, sigma=0.05)
    X = rng.normal(size=(8, 2)) * 1.5
    for _ in range(3):
        V = rng.normal(size=(8, 2))
        quad = hessian_quadratic(X, V, cfg)
        fd = fd_second_directional(lambda Y: evaluate(Y, cfg).value.total, X, V)
        assert quad == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_hessian_quadratic_scales_quadratically(rng):
    gt, obs, cfg = make_problem(8, 2, seed=11, p=0.7)
    X = rng.normal(size=(8, 2)) * 2.0
    V = rng.normal(size=(8, 2))
    base = hessian_quadratic(X, V, cfg)
    assert hessian_quadratic(X, 3.0 * V, cfg) == pytest.approx(9.0 * base, rel=1e-12)


def test_vecprod_consistent_with_quadratic(rng):
    gt, obs, cfg = make_problem(9, 2, seed=12, p=0.6, sigma=0.1)
    X = rng.normal(size=(9, 2)) * 1.5
    for _ in range(5):
        V = rng.normal(size=(9, 2))
        quad = hessian_quadratic(X, V, cfg)
        via_prod = float(np.sum(V * hessian_operator(Point(X, cfg))(V)))
        assert via_prod == pytest.approx(quad, rel=1e-10, abs=1e-12)


def test_vecprod_self_adjoint(rng):
    gt, obs, cfg = make_problem(9, 2, seed=13, p=0.6)
    X = rng.normal(size=(9, 2)) * 1.5
    for _ in range(3):
        U = rng.normal(size=(9, 2))
        V = rng.normal(size=(9, 2))
        uhv = float(np.sum(U * hessian_operator(Point(X, cfg))(V)))
        vhu = float(np.sum(V * hessian_operator(Point(X, cfg))(U)))
        assert uhv == pytest.approx(vhu, rel=1e-10, abs=1e-12)


def test_dense_hessian_matches_fd_oracle(rng):
    gt, obs, cfg = make_problem(6, 2, seed=14, p=0.8, sigma=0.05)
    X = rng.normal(size=(6, 2)) * 1.5
    H = dense_hessian(X, cfg)
    assert np.allclose(H, H.T, atol=1e-10 * (1.0 + float(np.abs(H).max())))
    H_fd = fd_hessian(lambda Y: evaluate(Y, cfg).gradient(), X)
    assert np.allclose(H, H_fd, atol=1e-5 * (1.0 + float(np.abs(H).max())))


def test_penalty_inactive_rows_do_not_change_derivatives(rng):
    gt, obs, cfg0 = make_problem(10, 2, seed=15, p=0.7)
    alpha = cfg0.hyper.alpha
    obs_ = cfg0.obs
    on = ObjectiveConfig(HyperParams(alpha=alpha, reg_weight=5.0, tau=0.0), obs_)
    off = ObjectiveConfig(HyperParams(alpha=alpha, reg_weight=0.0, tau=0.0), obs_)
    X = rng.normal(size=(10, 2))
    X *= 0.9 * alpha / max(np.linalg.norm(X, axis=1))  # every row inside the ball
    V = rng.normal(size=(10, 2))
    assert evaluate(X, on).value.total == evaluate(X, off).value.total
    assert np.array_equal(evaluate(X, on).gradient(), evaluate(X, off).gradient())
    assert np.array_equal(hessian_operator(Point(X, on))(V), hessian_operator(Point(X, off))(V))


# ---------------------------------------------------------------------------
# smallest eigenvalue


def test_min_eig_nonnegative_at_noiseless_truth():
    gt, obs, cfg = make_problem(20, 2, seed=16)
    eig = min_hessian_eig(Point(gt.factor, cfg))
    assert eig.converged
    assert eig.lambda_min >= -1e-5 * (1.0 + eig.op_norm)


def test_min_eig_detects_saddle(rng_local=np.random.default_rng(5)):
    # rank-2 target with eigenvalues (1, 0.5); the rank-1 point sitting on the
    # second eigenvector is a strict saddle with lambda_min = -2 (1 - 0.5)
    d = 12
    Q, _ = np.linalg.qr(rng_local.normal(size=(d, d)))
    Z = Q[:, :2] * np.sqrt([1.0, 0.5])
    gt = GroundTruth(Z)
    mask = full_mask(d, include_diagonal=True)
    obs = observe(gt, mask, 0.0, seed=17)
    cfg = ObjectiveConfig(HyperParams(alpha=1e6, reg_weight=0.0, tau=0.0), obs)
    x = np.sqrt(0.5) * Q[:, 1:2]
    assert float(np.linalg.norm(evaluate(x, cfg).gradient())) <= 1e-12
    eig = min_hessian_eig(Point(x, cfg))
    assert eig.lambda_min == pytest.approx(-1.0, abs=1e-4)
    assert eig.lambda_min == pytest.approx(dense_min_eig(x, cfg), abs=1e-6)
    # the witness achieves its advertised curvature
    assert hessian_quadratic(x, eig.witness, cfg) <= eig.lambda_min + 1e-5
    assert np.linalg.norm(eig.witness) == pytest.approx(1.0, rel=1e-10)


def test_min_eig_matches_dense_at_random_points(lanczos_only):
    gt, obs, cfg = make_problem(10, 2, seed=18, p=0.6, sigma=0.1)
    rng = np.random.default_rng(0)
    for _ in range(200):
        X = rng.normal(size=(10, 2)) * 1.5
        eig = min_hessian_eig(Point(X, cfg))
        dense = dense_min_eig(X, cfg)
        assert eig.converged and eig.iterations <= X.size + 1
        assert eig.lambda_min == pytest.approx(dense, abs=1e-5 * (1.0 + abs(dense)))
        assert hessian_quadratic(X, eig.witness, cfg) <= eig.lambda_min + 1e-6 * (1.0 + eig.op_norm)


def test_min_eig_converges_near_truth_at_scale():
    # d=1000, r=3 near the truth: shifted power iteration had not converged
    # after 3,000 iterations here
    gt, obs, cfg = make_problem(1000, 3, seed=1, p=0.1)
    X = gt.factor + 1e-3 * np.random.default_rng(0).standard_normal(gt.factor.shape)
    eig = min_hessian_eig(Point(X, cfg))
    assert eig.converged
    assert eig.iterations <= 100
    assert hessian_quadratic(X, eig.witness, cfg) <= eig.lambda_min + 1e-6 * (1.0 + eig.op_norm)


def test_min_eig_converges_in_one_run_at_low_p(lanczos_only):
    # a GD endpoint at p = 1.5 ln d / d, where the bottom of the spectrum is
    # clustered: a Lanczos that restarts from one Ritz vector stalls there.
    # The two lowest eigenvalues lie about 1e-5 apart, below
    # tol * (1 + ||H||), so lambda_min is not compared with the dense minimum
    d, r, p = 100, 1, 1.5 * math.log(100) / 100
    gt, obs, cfg = make_problem(d, r, seed=2, p=p)
    res = solve(cfg, SolverConfig(max_iters=3000), random_init(d, r, obs, 3))
    X = res.X
    eig = min_hessian_eig(Point(X, cfg))
    assert eig.converged
    assert eig.iterations <= d * r + 1
    assert hessian_quadratic(X, eig.witness, cfg) <= eig.lambda_min + 1e-6 * (1.0 + eig.op_norm)


# ---------------------------------------------------------------------------
# pair kernels on unordered pairs, against oracles over every mask shape

# (d, r, p, include_diagonal): partial masks with and without the diagonal,
# full masks and d = 1; r = 5 makes the r x r blocks of the
# Hessian operator far larger than r, so a transposed block shows
KERNEL_CASES = [
    (12, 1, 0.6, True),
    (12, 3, 0.6, True),
    (12, 3, 0.6, False),
    (12, 5, 0.6, True),
    (12, 5, 0.6, False),
    (10, 3, 1.0, True),
    (10, 1, 1.0, False),
    (1, 1, 1.0, True),
]


def _kernel_problem(d, r, p, include_diagonal, seed=40):
    spec = InstanceSpec(d=d, r=r, seed=seed, p=p, sigma=0.1, include_diagonal=include_diagonal)
    _, obs = spec.regenerate()
    rng = np.random.default_rng(seed + 13 * d + r)
    X = rng.normal(size=(d, r))
    V = rng.normal(size=(d, r))
    # about half the rows above alpha, so the penalty terms are exercised
    alpha = 0.9 * float(np.median(np.linalg.norm(X, axis=1)))
    cfg = ObjectiveConfig(HyperParams(alpha=alpha, reg_weight=0.3, tau=0.0), obs)
    return cfg, X, V


def _dense_masked(cfg, X):
    """Indicator matrix and the observed matrix (zero off the mask), both dense."""
    mask = cfg.obs.mask
    M = np.zeros((cfg.d, cfg.d))
    M[mask.i, mask.j] = cfg.obs.values
    M[mask.j, mask.i] = cfg.obs.values
    return mask.indicator(), M


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_kernels_match_oracles(d, r, p, include_diagonal):
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    w = cfg.hyper.reg_weight
    ind, M = _dense_masked(cfg, X)
    assert evaluate(X, cfg).value.total == pytest.approx(brute_objective(X, cfg), rel=1e-12, abs=1e-14)

    G = evaluate(X, cfg).gradient()
    R = ind * (M - X @ X.T)
    scale = 1.0 + float(np.abs(G).max())
    assert np.allclose(G, -2.0 * R @ X + w * per_row_penalty(X, cfg.hyper.alpha)[1], rtol=0, atol=1e-12 * scale)
    fd = fd_gradient(lambda Y: evaluate(Y, cfg).value.total, X)
    assert np.allclose(G, fd, rtol=0, atol=1e-5 * scale)

    HV = hessian_operator(Point(X, cfg))(V)
    h = 1e-6
    reg_part = (per_row_penalty(X + h * V, cfg.hyper.alpha)[1] - per_row_penalty(X - h * V, cfg.hyper.alpha)[1]) / (2 * h)
    dense = 2.0 * (ind * (V @ X.T + X @ V.T)) @ X - 2.0 * R @ V + w * reg_part
    assert np.allclose(HV, dense, rtol=0, atol=1e-6 * (1.0 + float(np.abs(dense).max())))


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_fused_and_per_point_kernels_are_bit_identical(d, r, p, include_diagonal, monkeypatch):
    # `evaluate`, which computes the gradient with the value, against a Point whose gradient
    # follows on request, as an accepted line-search trial's does; and the Hessian on that point
    # against the Hessian on `evaluate`'s and on a fresh point
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    products = []
    matmul = ObjectiveConfig.masked_matmul
    monkeypatch.setattr(ObjectiveConfig, "masked_matmul", lambda c, *a: products.append(1) or matmul(c, *a))
    fused = evaluate(X, cfg)
    assert len(products) == 1
    pt = Point(X, cfg)
    assert pt.excess is not None and len(products) == 1  # about half the rows active; no gradient yet
    assert pt.value == fused.value and np.array_equal(pt.resid, fused.resid)
    assert pt.grad_norm() == fused.grad_norm() and np.array_equal(pt.gradient(), fused.gradient())
    assert pt.gradient() is pt.gradient() and len(products) == 2  # computed once
    H = hessian_operator(pt)
    for U in (V, 2.0 * V + 1.0):
        assert np.array_equal(H(U), hessian_operator(fused)(U))
        assert np.array_equal(H(U), hessian_operator(Point(X, cfg))(U))


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_hessian_penalty_is_the_per_row_formula_added_to_the_data_part(d, r, p, include_diagonal):
    # H[V] is the data part plus weight * the per-row penalty curvature, bit
    # for bit; where no row is above alpha, it is the data part
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    hyper = cfg.hyper
    unweighted = ObjectiveConfig(HyperParams(alpha=hyper.alpha, reg_weight=0.0, tau=0.0), cfg.obs)
    data = hessian_operator(Point(X, unweighted))(V)
    expected = data + hyper.reg_weight * per_row_penalty_hvp(X, V, hyper.alpha)
    assert np.any(expected != data) and np.array_equal(hessian_operator(Point(X, cfg))(V), expected)
    far = ObjectiveConfig(HyperParams(alpha=1e6, reg_weight=hyper.reg_weight, tau=0.0), cfg.obs)
    assert np.array_equal(hessian_operator(Point(X, far))(V), data)


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_hessian_matrix_is_the_operator_on_the_unit_vectors(d, r, p, include_diagonal):
    # the assembly against the operator applied to each unit vector, on noisy residuals
    # (sigma = 0.1) with about half the rows above alpha; every case is below _DENSE_MAX,
    # where the eigensolve is the smallest eigenpair of the assembled matrix
    cfg, X, _ = _kernel_problem(d, r, p, include_diagonal)
    assert X.size <= objective._DENSE_MAX
    H, dense = hessian_operator(Point(X, cfg)).matrix(), dense_hessian(X, cfg)
    scale = 1.0 + float(np.abs(dense).max())
    assert np.allclose(H, dense, rtol=0, atol=1e-13 * scale)
    eig = min_hessian_eig(Point(X, cfg))
    assert eig.converged and eig.iterations == 1
    assert eig.lambda_min == pytest.approx(dense_min_eig(X, cfg), abs=1e-12 * scale)
    assert eig.op_norm == pytest.approx(float(np.abs(np.linalg.eigvalsh(dense)).max()), rel=1e-12)


def test_masked_matmul_rejects_an_operand_of_another_height():
    # the compiled kernel would read past the end of a short operand
    cfg, X, V = _kernel_problem(12, 3, 0.6, True)
    for Y in (X[:-1], np.vstack([X, X]), X[:, 0]):
        with pytest.raises(ValueError, match="dimension"):
            cfg.masked_matmul(cfg.residuals(X), Y)
    # and past the end of short pair values, which it reads as U's data
    resid = cfg.residuals(X)
    for values in (resid[:-1], np.concatenate([resid, resid]), resid[:, None]):
        with pytest.raises(ValueError, match="dimension"):
            cfg.masked_matmul(values, X)


def test_hessian_operator_rejects_wrong_direction_shape():
    cfg, X, V = _kernel_problem(12, 3, 0.6, True)
    with pytest.raises(ValueError, match="dimension"):
        hessian_operator(Point(X, cfg))(V[:, :2])


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_pair_gradient_positions_are_row_major_entries(d, r, p, include_diagonal):
    # position k of [0, n_pairs) is the k-th observed entry (i, j) of the
    # dense indicator in row-major order, both orders of a pair counted
    cfg, X, _ = _kernel_problem(d, r, p, include_diagonal)
    ind, M = _dense_masked(cfg, X)
    entries = np.argwhere(ind == 1.0)
    assert len(entries) == cfg.n_pairs
    for k, (i, j) in enumerate(entries):
        G = pair_gradient_sum(X, cfg, np.array([k]))
        expected = np.zeros_like(X)
        resid = M[i, j] - float(X[i] @ X[j])
        expected[i] -= resid * X[j]
        expected[j] -= resid * X[i]
        assert np.allclose(G, expected, rtol=0, atol=1e-12 * (1.0 + np.abs(expected).max()))


# ---------------------------------------------------------------------------
# the fast pair kernels give the floats of the plain formulas, bit for bit


def _add_at_pair_gradient_sum(X, cfg, positions):
    """The np.add.at scatter the bincount kernel replaced, with entries read
    off the dense indicator (position k is its k-th observed entry)."""
    ind, M = _dense_masked(cfg, X)
    entries = np.argwhere(ind == 1.0)[positions].reshape(-1, 2)
    i, j = entries[:, 0], entries[:, 1]
    resid = M[i, j] - np.einsum("ij,ij->i", X[i], X[j])
    G = np.zeros_like(X)
    np.add.at(G, i, -resid[:, None] * X[j])
    np.add.at(G, j, -resid[:, None] * X[i])
    return G


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_pair_gradient_scatter_is_bit_identical_to_add_at(d, r, p, include_diagonal):
    cfg, X, _ = _kernel_problem(d, r, p, include_diagonal)
    n = cfg.n_pairs
    ind, _ = _dense_masked(cfg, X)
    entries = np.argwhere(ind == 1.0)
    every = np.arange(n)
    # every position twice (so both orders of each pair and every diagonal
    # entry), then random repeats
    positions = np.concatenate([every, every[::-1], np.random.default_rng(d + r).integers(0, max(n, 1), 3 * n)])
    if include_diagonal and n:
        assert np.any(entries[positions, 0] == entries[positions, 1])
    if d > 1 and n:
        assert np.any(entries[positions, 0] != entries[positions, 1])
    for pos in (positions, positions[:7], every[::3]):
        assert np.array_equal(pair_gradient_sum(X, cfg, pos), _add_at_pair_gradient_sum(X, cfg, pos))


def test_pair_gradient_sum_checks_its_operand_and_takes_64_bit_tables(monkeypatch):
    cfg, X, _ = _kernel_problem(12, 3, 0.6, True)
    pos = np.random.default_rng(3).integers(0, cfg.n_pairs, 50)
    expected = pair_gradient_sum(X, cfg, pos)
    # a table with 64-bit index fields, the config of a pattern too large for 32
    wide = copy.copy(cfg)
    wide._positions = cfg._positions.astype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
    assert np.array_equal(pair_gradient_sum(X, wide, pos), expected)

    # the compiled kernel would read and write past the end of a short operand
    def kernel(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(objective, "coo_matvec", kernel)
    for Y in (X[:-1], np.vstack([X, X]), X[:, 0]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pair_gradient_sum(Y, cfg, pos)


def _column_gram(cfg, X):
    """<X_i, X_j> on the stored pairs by the plain formula: x[i] * x[j] for
    each column x, summed in column order."""
    mask = cfg.obs.mask
    cols = X.T
    return sum((x[mask.i] * x[mask.j] for x in cols[1:]), cols[0][mask.i] * cols[0][mask.j])


def test_pair_gram_checks_its_operand_before_the_kernel(monkeypatch):
    cfg, X, _ = _kernel_problem(12, 3, 0.6, True)
    # a float32 factor is cast to float64 first: the bits of its float64 copy
    X32 = X.astype(np.float32)
    assert np.array_equal(cfg.pair_gram(X32), cfg.pair_gram(X32.astype(np.float64)))
    assert np.array_equal(cfg.residuals(X32), cfg.residuals(X32.astype(np.float64)))

    # the compiled kernel would read past the end of a short column
    def kernel(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(objective, "csr_scale_columns", kernel)
    for Y in (X[:-1], np.vstack([X, X]), X[:, 0]):
        for method in (cfg.pair_gram, cfg.residuals):
            with pytest.raises(ValueError, match="dimension mismatch"):
                method(Y)


def _oracle_matrix(cfg, pair_values):
    """The symmetric d x d matrix carrying `pair_values` on the stored pairs,
    built by public scipy from the mask's pairs in both orders, in canonical
    CSR form (each row's columns sorted)."""
    mask = cfg.obs.mask
    off = mask.i != mask.j
    rows = np.concatenate([mask.i, mask.j[off]])
    cols = np.concatenate([mask.j, mask.i[off]])
    A = sparse.csr_matrix((np.concatenate([pair_values, pair_values[off]]), (rows, cols)), shape=(cfg.d, cfg.d))
    A.sort_indices()
    assert A.has_canonical_format
    return A


def _point_with_residuals(X, cfg, values):
    """The `Point` at X with `values` in place of its residuals, which its Hessian reads."""
    pt = copy.copy(Point(X, cfg))
    pt.resid = values
    return pt


def _oracle_hessian(X, V, cfg, resid=None):
    """H[V] by the formula of `hessian_operator`, with every sparse product
    a public scipy product of an oracle matrix; `resid` stands in for the
    residuals of X where given."""
    d, r = X.shape
    P = _oracle_matrix(cfg, np.ones(cfg.obs.mask.i.size))
    R = _oracle_matrix(cfg, cfg.residuals(X) if resid is None else resid)

    def blocks(Y):
        return (P @ (X[:, :, None] * Y[:, None, :]).reshape(d, r * r)).reshape(d, r, r)

    HV = 2.0 * (np.einsum("iab,ib->ia", blocks(X), V) + np.einsum("iab,ib->ia", blocks(V), X))
    HV -= 2.0 * (R @ V)
    return HV + cfg.hyper.reg_weight * per_row_penalty_hvp(X, V, cfg.hyper.alpha)


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_column_products_are_bit_identical_to_multivector(d, r, p, include_diagonal):
    # the compiled-kernel products against scipy's public CSR products, whose
    # multi-vector kernel sums each row in the same order: the same floats
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    # 64-bit copies of the index arrays (U's row pointers and columns, and the mirror-pass
    # rows), the config of a pattern too large for 32
    wide = copy.copy(cfg)
    for name in ("_indptr", "_cols", "_mirror_rows"):
        setattr(wide, name, getattr(cfg, name).astype(np.int64))
    alpha, w = cfg.hyper.alpha, cfg.hyper.reg_weight
    for c in (cfg, wide):
        for Y in (X, np.asfortranarray(V), V[:, :1]):
            gram, resid = _column_gram(cfg, Y), c.residuals(Y)
            assert np.array_equal(c.pair_gram(Y), gram)
            assert np.array_equal(resid, cfg.obs.values - gram)
            out = c.masked_matmul(resid, Y)
            assert out.flags.c_contiguous
            product = _oracle_matrix(cfg, resid) @ Y
            assert np.array_equal(out, product)
            expected = -2.0 * product + w * per_row_penalty(Y, alpha)[1]
            assert np.array_equal(Point(Y, c).gradient(), expected)
        for Y, U in ((X, V), (X, np.asfortranarray(V)), (X[:, :1], V[:, :1])):
            assert np.array_equal(hessian_operator(Point(Y, c))(U), _oracle_hessian(Y, U, cfg))


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_infinite_entries_on_a_row_with_a_diagonal_pair_give_the_oracle_bits(d, r, p, include_diagonal):
    # the mirror pass sends a diagonal pair to a sink row; multiplying it by
    # zero instead would make 0 * inf = NaN where the oracle has +-inf
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    mask = cfg.obs.mask
    diag = np.flatnonzero(mask.i == mask.j)
    k = diag[0] if diag.size else 0  # a diagonal pair where the mask holds one
    row = mask.i[k] if mask.i.size else 0
    resid = cfg.residuals(X)
    for operand, value in ((np.inf, None), (None, np.inf), (-np.inf, np.inf), (np.inf, -np.inf)):
        values, Y, U = resid.copy(), X.copy(), V.copy()
        if operand is not None:
            Y[row, 0] = U[row, -1] = operand
        if value is not None and values.size:
            values[k] = value
        with np.errstate(invalid="ignore"):  # inf - inf is the NaN under test
            out, expected = cfg.masked_matmul(values, Y), _oracle_matrix(cfg, values) @ Y
            gram, expected_gram = cfg.pair_gram(Y), _column_gram(cfg, Y)
            HV = hessian_operator(_point_with_residuals(X, cfg, values))(U)
            expected_HV = _oracle_hessian(X, U, cfg, values)
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(gram, expected_gram, equal_nan=True)
        assert np.array_equal(HV, expected_HV, equal_nan=True)
        if diag.size:  # the row with the diagonal pair is not finite
            assert not np.isfinite(out[row]).all() and not np.isfinite(HV[row]).all()


def _public_matmul(cfg, data, Y):
    """`ObjectiveConfig._matmul` through public scipy: the canonical symmetric
    CSR matrix built per call from the pairs in both orders, and its product
    with each column of Y."""
    A = _oracle_matrix(cfg, data)
    out = np.empty(Y.shape)
    for k in range(Y.shape[1]):
        out[:, k] = A @ Y[:, k]
    return out


def _c3_problem(r, seed):
    p = min(1.0, max(0.2, 10.0 * r * math.log(100) / 100.0))
    gt, obs = InstanceSpec(d=100, r=r, seed=seed, p=p).regenerate()
    return gt, obs, default_hyperparams(gt, p)


def _scan_bytes(r, seed):
    gt, obs, hyper = _c3_problem(r, seed)
    scfg = SolverConfig(method=Method.PERTURBED_GD)
    return scan_to_csv(landscape_scan(gt, obs, hyper, scfg, n_starts=4, base_seed=seed))


def _trace_bytes(scfg):
    gt, obs, hyper = _c3_problem(2, 102)
    cfg = ObjectiveConfig(hyper, obs)
    return trace_to_csv(solve(cfg, scfg, random_init(100, 2, obs, scfg.seed)).trace)


@pytest.mark.parametrize(
    "run",
    [
        lambda: _scan_bytes(1, 101),
        lambda: _scan_bytes(2, 102),
        lambda: _trace_bytes(SolverConfig(method=Method.GD, seed=5)),
        lambda: _trace_bytes(SolverConfig(method=Method.SGD, max_iters=400, seed=5, sgd=SgdParams(batch=256))),
    ],
    ids=["scan-c3-101", "scan-c3-102", "gd-trace-d100", "sgd-trace-d100"],
)
def test_csv_bytes_are_those_of_public_csr_products(run, monkeypatch):
    # every masked product of a scan or a solve, the Hessian's r x r blocks
    # included, goes through one seam; the CSV bytes through public scipy
    # products there are the same
    ours = run()
    monkeypatch.setattr(ObjectiveConfig, "_matmul", _public_matmul)
    assert run() == ours


def _bincount_pair_gradient_sum(X, cfg, positions):
    """`pair_gradient_sum` with the scatter it had before the COO kernel:
    one np.bincount per column, over the i-side terms then the j-side ones,
    and the row dot by `einsum` at every r."""
    rec = cfg._positions[positions]
    i, j = rec["i"], rec["j"]
    Xi, Xj = X[i], X[j]
    neg_resid = np.einsum("ij,ij->i", Xi, Xj) - rec["v"]
    ij = np.concatenate([i, j])
    b = i.size
    w = np.empty(2 * b)
    G = np.empty(X.shape)
    for k in range(X.shape[1]):
        np.multiply(neg_resid, Xj[:, k], out=w[:b])
        np.multiply(neg_resid, Xi[:, k], out=w[b:])
        G[:, k] = np.bincount(ij, weights=w, minlength=cfg.d)
    return G


@pytest.mark.parametrize("active", [False, True], ids=["default-alpha", "active-rows"])
@pytest.mark.parametrize("batch", [7, 4096])
@pytest.mark.parametrize("r,seed", [(1, 101), (2, 102), (3, 103)])
def test_sgd_bytes_are_those_of_the_bincount_scatter(r, seed, batch, active, monkeypatch):
    gt, obs, hyper = _c3_problem(r, seed)
    X0 = random_init(100, r, obs, seed)
    if active:  # the rows of X0 above their median norm are active
        hyper = HyperParams(alpha=float(np.median(np.linalg.norm(X0, axis=1))), reg_weight=hyper.reg_weight, tau=0.0)
    assert (_penalty_value(X0, hyper.alpha) > 0.0) == active
    cfg = ObjectiveConfig(hyper, obs)
    period = -(-cfg.n_pairs // min(batch, cfg.n_pairs))
    scfg = SolverConfig(method=Method.SGD, max_iters=2 * period + 1, seed=seed, sgd=SgdParams(batch=batch))

    def run():
        res = solve(cfg, scfg, X0)
        assert [row.iter for row in res.trace] == [0, period, 2 * period, 2 * period + 1]  # no stop before max_iters
        return trace_to_csv(res.trace), res.X.tobytes()

    ours = run()
    calls = []

    def oracle(X, cfg, positions):
        calls.append(positions.size)
        return _bincount_pair_gradient_sum(X, cfg, positions)

    # the solver calls the kernel through the module once per step: else the oracle would not run
    monkeypatch.setattr(objective, "pair_gradient_sum", oracle)
    assert run() == ours
    assert calls == [min(batch, cfg.n_pairs)] * scfg.max_iters


def _single_pass_row_excess(X, alpha):
    """`_row_excess` without the column-maxima test: the largest squared row
    norm decides None."""
    sq = (X * X).sum(axis=1)
    if np.sqrt(sq.max(initial=0.0)) <= alpha:
        return None
    t = np.sqrt(sq)
    e = np.maximum(t - alpha, 0.0)
    act = np.flatnonzero(e > 0.0)
    return e, act, t[act]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("r", range(1, 11))
def test_column_maxima_never_rule_out_an_active_row(r, order):
    # row 0 holds every column maximum, so sum_k m_k^2 is its squared norm and
    # the bound is tight; alpha at that norm, at the root of the column maxima's
    # sum and at the edge of the margin, each with its neighbours.  The row
    # sums of an F-ordered X with r >= 8 add in another order than the column
    # maxima's, and can exceed them by an ulp; at a scale of 2^-540 the squares
    # underflow, and round apart from the exact squares
    eps = np.finfo(float).eps
    rounded_above = 0
    for draw, scale in itertools.product(range(20), (1.0, 2.0**-540)):
        rng = np.random.default_rng([r, draw])
        X = rng.uniform(-1.0, 1.0, size=(30, r))
        X[0] = np.abs(X).max(axis=0) * rng.choice([-1.0, 1.0], size=r)
        X = np.asarray(scale * X, order=order)
        top = float(np.sqrt((X * X).sum(axis=1))[0])
        m = np.abs(X).max(axis=0)
        bound = float(np.sqrt((m * m).sum()))
        rounded_above += top > bound and scale == 1.0
        alphas = []
        for base in (top, bound, bound / (1.0 - 4 * r * eps)):
            alphas += [np.nextafter(base, -np.inf), base, np.nextafter(base, np.inf)]
        assert _single_pass_row_excess(X, alphas[0]) is not None and _single_pass_row_excess(X, alphas[1]) is None
        cases = [X]
        for bad in (np.nan, np.inf, -np.inf):
            Y = X.copy(order=order)
            Y[1, -1] = bad
            cases.append(Y)
        for Y in cases:
            for alpha in alphas:
                ours, single = objective._row_excess(Y, alpha), _single_pass_row_excess(Y, alpha)
                if single is None:
                    assert ours is None
                else:
                    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(ours, single))
    assert rounded_above > 0 or not (r >= 8 and order == "F")


@pytest.mark.parametrize(
    "run",
    [lambda: _scan_bytes(1, 101), lambda: _scan_bytes(2, 102), lambda: _trace_bytes(SolverConfig(method=Method.GD, seed=5))],
    ids=["scan-c3-101", "scan-c3-102", "gd-trace-d100"],
)
def test_csv_bytes_are_those_of_the_single_row_pass(run, monkeypatch):
    ours = run()
    monkeypatch.setattr(objective, "_row_excess", _single_pass_row_excess)
    assert run() == ours


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_stochastic_gradient_is_the_scaled_pair_sum_plus_the_penalty(d, r, p, include_diagonal):
    # the penalty is skipped only where it adds zeros: the old formula, bit for bit
    cfg, X, _ = _kernel_problem(d, r, p, include_diagonal)
    n, batch = cfg.n_pairs, 7
    hyper = cfg.hyper
    for alpha in (hyper.alpha, 1e6):  # about half the rows active, then none
        c = ObjectiveConfig(HyperParams(alpha=alpha, reg_weight=hyper.reg_weight, tau=0.0), cfg.obs)
        penalty = per_row_penalty(X, alpha)[1]
        assert np.any(penalty) == (alpha == hyper.alpha)
        stream = substream(d, "sg")
        for _ in range(3):
            positions = stream.integers(0, n, size=batch)
            expected = pair_gradient_sum(X, c, positions) * (n / batch)
            expected += hyper.reg_weight * penalty
            assert np.array_equal(stochastic_gradient(X, c, positions), expected)


def test_penalty_gradient_is_added_in_place_only_where_it_is_nonzero():
    # the one penalty add of Point.gradient and stochastic_gradient
    cfg, X, _ = _kernel_problem(12, 3, 0.6, True)
    hyper = cfg.hyper
    for alpha, weight in ((hyper.alpha, hyper.reg_weight), (1e6, hyper.reg_weight), (hyper.alpha, 0.0)):
        c = ObjectiveConfig(HyperParams(alpha=alpha, reg_weight=weight, tau=0.0), cfg.obs)
        G = np.full(X.shape, -0.0)
        assert add_penalty_gradient(G, X, c, objective._row_excess(X, alpha)) is G
        if weight > 0 and alpha == hyper.alpha:  # about half the rows active
            assert np.any(G) and np.array_equal(G, weight * per_row_penalty(X, alpha)[1])
        else:  # skipped: an add of zeros would have turned every -0.0 into 0.0
            assert np.all(np.signbit(G)) and not np.any(G)


# ---------------------------------------------------------------------------
# Lanczos solves T only where it may stop: the floats of one eigh per step


def _eigh_every_step_lanczos(H, v):
    """The Lanczos loop with a full `np.linalg.eigh` of T at every step, which
    tests each step's stop on the solved Ritz vector."""
    steps = v.size
    Q = np.empty((steps, v.size))
    T = np.zeros((steps, steps))
    w = v.ravel()
    beta = float(np.linalg.norm(w))
    for k in range(steps):
        if k:
            T[k - 1, k] = T[k, k - 1] = beta
        Q[k] = w / beta
        w = H(Q[k].reshape(v.shape)).ravel()
        for _ in range(2):
            h = Q[: k + 1] @ w
            w -= h @ Q[: k + 1]
            T[k, k] += h[k]
        beta = float(np.linalg.norm(w))
        theta, S = np.linalg.eigh(T[: k + 1, : k + 1])
        if k + 1 == steps or beta * abs(S[k, 0]) <= _EIG_TOL * (1.0 + np.abs(theta).max()):
            return theta, (Q[: k + 1].T @ S)[:, 0]


def _same_eig(a, b):
    return (a.iterations == b.iterations and a.lambda_min == b.lambda_min and a.op_norm == b.op_norm
            and a.converged == b.converged and np.array_equal(a.witness, b.witness))


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_lanczos_matches_an_eigh_at_every_step(d, r, p, include_diagonal, monkeypatch, lanczos_only):
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    points = (X, 0.1 * X, X + 0.01 * V)
    ours = [min_hessian_eig(Point(Y, cfg)) for Y in points]
    monkeypatch.setattr(objective, "_lanczos", _eigh_every_step_lanczos)
    for Y, eig in zip(points, ours):
        assert _same_eig(eig, min_hessian_eig(Point(Y, cfg)))


def test_eigensolves_of_one_shape_share_one_read_only_start(monkeypatch, lanczos_only):
    cfg, X, V = _kernel_problem(12, 3, 0.6, True)
    starts = []
    lanczos = objective._lanczos
    monkeypatch.setattr(objective, "_lanczos", lambda H, v: starts.append(v) or lanczos(H, v))
    min_hessian_eig(Point(X, cfg))
    min_hessian_eig(Point(X + 0.01 * V, cfg))
    assert len(starts) == 2 and starts[0] is starts[1]
    v = starts[0]
    assert np.array_equal(v, substream(objective._EIG_SEED, "lanczos", 12, 3).standard_normal((12, 3)))
    with pytest.raises(ValueError, match="read-only"):
        v[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        v.ravel()[0] = 1.0


def test_lanczos_stops_where_the_krylov_space_is_invariant():
    # the start has entries 1/4, so every product and sum below is exact and
    # beta vanishes exactly: at the first step for e_0, at the second for
    # the all-ones start of an operator with two eigenvalues
    d = 16
    diag = np.repeat([1.0, 3.0], d // 2)
    for v, size in ((np.eye(d)[0], 1), (np.ones(d), 2)):
        theta, s = _lanczos(lambda u: diag * u, v)
        ref_theta, ref_s = _eigh_every_step_lanczos(lambda u: diag * u, v)
        assert theta.size == size
        assert np.array_equal(theta, ref_theta) and np.array_equal(s, ref_s)


def test_far_from_stop_reads_the_last_component_off_the_ritz_values():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=6), rng.uniform(0.5, 1.5, size=5)
    T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    theta, S = np.linalg.eigh(T)
    theta_prev = np.linalg.eigvalsh(T[:-1, :-1])
    s = abs(S[-1, 0])
    tol = 1e-3 * (1.0 + np.abs(theta).max())
    assert _far_from_stop(theta, theta_prev, 2.1 * tol / s, 1e-3)
    assert not _far_from_stop(theta, theta_prev, 1.9 * tol / s, 1e-3)
    # coinciding Ritz values leave no margin to test: never far from the stop
    with np.errstate(all="raise"):
        assert not _far_from_stop(np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.5]), 1e9, 1e-6)


# ---------------------------------------------------------------------------
# the split route: a large mask on two CPUs runs two passes at once


@pytest.fixture(scope="module")
def d4000():
    """The benchmark's d=4000 instance, whose mask is on the split route wherever two CPUs are."""
    gt, _, cfg = make_problem(4000, 2, seed=1, p=0.02)
    return gt, cfg


def _route_outputs(gt, cfg, X, V):
    """The bytes of every caller of the two split sites on cfg's route: the masked product, one
    HVP, the trace and certificate of a GD and a perturbed-GD start, and every field of the
    eigensolve at the perturbed-GD endpoint."""
    out = [cfg.masked_matmul(cfg.residuals(X), X).tobytes(), hessian_operator(Point(X, cfg))(V).tobytes()]
    for method in (Method.GD, Method.PERTURBED_GD):
        res, row = solve_and_certify(cfg, gt, SolverConfig(method=method, seed=3))
        out += [trace_to_csv(res.trace), repr(row)]
    eig = min_hessian_eig(res.point)
    return out + [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in vars(eig).values()]


@pytest.mark.parametrize("case", ["d4000", "d40-r1", "d40-r2", "d40-r3"])
def test_split_and_serial_routes_give_the_same_bytes(case, d4000, monkeypatch):
    # each split pass writes its own output, so the route changes no float; the small instances
    # take the split route by their flag, and at r = 3 the HVP's residual product is multi-vector
    if case == "d4000":
        gt, cfg = d4000
        assert cfg._split == (objective._cpu_count() > 1)
    else:
        gt, _, cfg = make_problem(40, int(case[-1]), seed=3, p=0.6)
        assert not cfg._split
    rng = np.random.default_rng(7)
    X, V = rng.normal(size=(2, cfg.d, gt.rank))
    outputs = {}
    for split in (False, True):
        monkeypatch.setattr(cfg, "_split", split)
        outputs[split] = _route_outputs(gt, cfg, X, V)
    assert outputs[True] == outputs[False]


def test_small_masks_and_one_cpu_never_use_the_helper(d4000, monkeypatch):
    def refuse(*args):
        raise AssertionError("a pass was handed to the helper thread")

    monkeypatch.setattr(objective, "_submit", refuse)
    # a scan-sized mask: a C3 cell at d=100, about 5k stored pairs
    gt, obs, hyper = _c3_problem(2, 102)
    cfg = ObjectiveConfig(hyper, obs)
    assert cfg._cols.size < objective._SPLIT_MIN and not cfg._split
    solve_and_certify(cfg, gt, SolverConfig(method=Method.PERTURBED_GD, seed=3))
    # the d=4000 mask, on a process that may run on one CPU
    gt, big = d4000
    monkeypatch.setattr(objective.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = ObjectiveConfig(big.hyper, big.obs)
    assert not one_cpu._split
    solve_and_certify(one_cpu, gt, SolverConfig(method=Method.GD, seed=3))
    # and on two, the split route
    monkeypatch.setattr(objective.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ObjectiveConfig(big.hyper, big.obs)._split


def test_the_helper_raises_what_its_pass_raised_and_is_a_daemon():
    def fail():
        raise KeyError("pass")

    with pytest.raises(KeyError, match="pass"):
        objective._submit(fail).result()
    assert objective._submit(lambda a, b: a + b, 2, 3).result() == 5
    (helper,) = [t for t in threading.enumerate() if t.name == "mcland-objective"]
    assert helper.daemon


def test_callers_on_many_threads_share_the_helper(monkeypatch):
    # more callers than cores, switching often: each product and HVP of a shared split-route
    # config is the serial one, and no caller waits for a pass that is not its own
    cfg, X, V = _kernel_problem(12, 2, 0.6, True)
    resid = cfg.residuals(X)
    H = hessian_operator(Point(X, cfg))
    expected = (cfg.masked_matmul(resid, X).tobytes(), H(V).tobytes())
    monkeypatch.setattr(cfg, "_split", True)
    results = []

    def caller():
        results.extend((cfg.masked_matmul(resid, X).tobytes(), H(V).tobytes()) for _ in range(200))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 1200


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX-only")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # Python 3.12 warns on a fork with threads running
def test_a_forked_child_completes_a_split_product(monkeypatch):
    # a child inherits no helper thread: without a fresh one it would wait for column 1 forever
    cfg, X, _ = _kernel_problem(12, 2, 0.6, True)
    monkeypatch.setattr(cfg, "_split", True)
    resid = cfg.residuals(X)
    expected = cfg.masked_matmul(resid, X)  # the helper thread has started
    assert np.array_equal(expected, _oracle_matrix(cfg, resid) @ X)
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only on the same product, skipping pytest's exit handlers
        code = 1
        try:
            code = 0 if cfg.masked_matmul(resid, X).tobytes() == expected.tobytes() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish a split product within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0
