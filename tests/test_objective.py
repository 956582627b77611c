import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcland.instance import GroundTruth, HyperParams, InstanceSpec, observe
from mcland.linalg import full_mask
from mcland import objective
from mcland.objective import (
    ObjectiveConfig,
    breakdown,
    hessian_operator,
    hessian_quadratic,
    min_hessian_eig,
    operator_norm_estimate,
    pair_gradient_sum,
    reg_gradient,
    regularizer,
    residual_gradient,
    value_and_gradient,
)
from mcland.objective import _BASIS, _reg_hess_quad, _start

from conftest import (
    brute_objective,
    dense_gram,
    dense_hessian,
    dense_min_eig,
    fd_gradient,
    fd_hessian,
    fd_second_directional,
    make_problem,
)


# ---------------------------------------------------------------------------
# row penalty


def _row_penalty(t, alpha):
    """rho(t) with its first two derivatives, read off a one-row factor [[t]]."""
    X = np.array([[t]])
    V = np.ones((1, 1))
    return regularizer(X, alpha), float(reg_gradient(X, alpha)[0, 0]), _reg_hess_quad(X, V, alpha)


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
    assert regularizer(X, 1.0) == 0.0


def test_regularizer_single_active_row():
    X = np.zeros((5, 2))
    X[2] = (2.0, 0.0)  # norm 2, alpha 1 -> (2 - 1)^4 = 1
    assert regularizer(X, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_regularizer_rotation_invariant(rng):
    X = rng.normal(size=(12, 3)) * 2.0
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    assert regularizer(X @ Q, 0.7) == pytest.approx(regularizer(X, 0.7), rel=1e-12)


def test_reg_gradient_zero_inside_ball(rng):
    X = rng.normal(size=(8, 2))
    X *= 0.5 / max(np.linalg.norm(X, axis=1))
    assert np.array_equal(reg_gradient(X, 1.0), np.zeros_like(X))


def test_reg_gradient_single_row_value():
    X = np.zeros((4, 2))
    X[1] = (2.0, 0.0)
    G = reg_gradient(X, 1.0)
    expected = np.zeros_like(X)
    expected[1] = (4.0, 0.0)  # 4 (t - alpha)^3 x / t with t = 2
    assert np.allclose(G, expected, atol=1e-14)


def test_reg_gradient_points_outward(rng):
    # the penalty only pushes row norms down: <grad_i, x_i> >= 0
    X = rng.normal(size=(20, 3)) * 3.0
    G = reg_gradient(X, 1.0)
    assert np.all(np.einsum("ij,ij->i", G, X) >= 0.0)


def test_reg_gradient_matches_fd(rng):
    X = rng.normal(size=(6, 2)) * 2.0
    fd = fd_gradient(lambda Y: regularizer(Y, 0.8), X)
    assert np.allclose(reg_gradient(X, 0.8), fd, atol=1e-6)


def test_package_attribute_is_the_module():
    # no function of the package shadows the submodule of the same name
    import mcland.objective as m

    assert isinstance(m, types.ModuleType)
    assert m.hessian_operator is hessian_operator


# ---------------------------------------------------------------------------
# objective value


def test_objective_zero_at_truth():
    gt, obs, cfg = make_problem(15, 2, seed=1)
    ev = value_and_gradient(gt.factor, cfg)[0]
    assert ev.data_term == pytest.approx(0.0, abs=1e-20)
    assert ev.total <= 1e-18


def test_objective_at_origin_is_half_masked_energy():
    gt, obs, cfg = make_problem(12, 2, seed=2, p=0.6)
    ev = value_and_gradient(np.zeros((12, 2)), cfg)[0]
    M = np.zeros((12, 12))  # P_Omega(M), both orders of every observed pair
    M[obs.mask.i, obs.mask.j] = obs.values
    M[obs.mask.j, obs.mask.i] = obs.values
    assert ev.data_term == pytest.approx(0.5 * float(np.sum(M * M)), rel=1e-14)
    assert ev.reg_term == 0.0


def test_objective_matches_brute_force(rng):
    gt, obs, cfg = make_problem(8, 2, seed=3, p=0.7, sigma=0.1)
    for _ in range(5):
        X = rng.normal(size=(8, 2)) * 1.5
        assert value_and_gradient(X, cfg)[0].total == pytest.approx(brute_objective(X, cfg), rel=1e-12)


def test_breakdown_totals_consistently(rng):
    gt, obs, cfg = make_problem(10, 2, seed=4, p=0.5)
    X = rng.normal(size=(10, 2)) * 2.0
    ev = value_and_gradient(X, cfg)[0]
    assert ev.total == pytest.approx(
        ev.data_term + cfg.hyper.reg_weight * ev.reg_term, rel=1e-14
    )
    assert ev.reg_term == pytest.approx(regularizer(X, cfg.hyper.alpha), rel=1e-14)


def test_objective_rejects_wrong_shape():
    gt, obs, cfg = make_problem(10, 2, seed=4)
    with pytest.raises(ValueError, match="dimension"):
        value_and_gradient(np.zeros((9, 2)), cfg)


def test_quartic_scaling_with_zero_target(rng):
    # with all observed values zero and no penalty, f(tX) = t^4 f(X)
    from mcland.instance import Observation

    mask = full_mask(7, include_diagonal=True)
    obs = Observation(mask=mask, values=np.zeros(mask.i.size), sigma=0.0)
    cfg = ObjectiveConfig(HyperParams(alpha=1.0, reg_weight=0.0, tau=0.0), obs)
    X = rng.normal(size=(7, 2))
    base = value_and_gradient(X, cfg)[0].total
    for t in (2.0, 3.0):
        assert value_and_gradient(t * X, cfg)[0].total == pytest.approx(t**4 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_noiseless_truth():
    gt, obs, cfg = make_problem(15, 2, seed=5, p=0.8)
    G = value_and_gradient(gt.factor, cfg)[1]
    assert float(np.abs(G).max()) <= 1e-12


def test_gradient_matches_fd(rng):
    gt, obs, cfg = make_problem(9, 2, seed=6, p=0.7, sigma=0.05)
    for _ in range(3):
        X = rng.normal(size=(9, 2)) * 1.5
        fd = fd_gradient(lambda Y: value_and_gradient(Y, cfg)[0].total, X)
        G = value_and_gradient(X, cfg)[1]
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
        rhs = 0.5 * float(np.linalg.norm(value_and_gradient(x, cfg)[1]))
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
        fd = fd_second_directional(lambda Y: value_and_gradient(Y, cfg)[0].total, X, V)
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
        via_prod = float(np.sum(V * hessian_operator(X, cfg)(V)))
        assert via_prod == pytest.approx(quad, rel=1e-10, abs=1e-12)


def test_vecprod_self_adjoint(rng):
    gt, obs, cfg = make_problem(9, 2, seed=13, p=0.6)
    X = rng.normal(size=(9, 2)) * 1.5
    for _ in range(3):
        U = rng.normal(size=(9, 2))
        V = rng.normal(size=(9, 2))
        uhv = float(np.sum(U * hessian_operator(X, cfg)(V)))
        vhu = float(np.sum(V * hessian_operator(X, cfg)(U)))
        assert uhv == pytest.approx(vhu, rel=1e-10, abs=1e-12)


def test_dense_hessian_matches_fd_oracle(rng):
    gt, obs, cfg = make_problem(6, 2, seed=14, p=0.8, sigma=0.05)
    X = rng.normal(size=(6, 2)) * 1.5
    H = dense_hessian(X, cfg)
    assert np.allclose(H, H.T, atol=1e-10 * (1.0 + float(np.abs(H).max())))
    H_fd = fd_hessian(lambda Y: value_and_gradient(Y, cfg)[1], X)
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
    assert value_and_gradient(X, on)[0].total == value_and_gradient(X, off)[0].total
    assert np.array_equal(value_and_gradient(X, on)[1], value_and_gradient(X, off)[1])
    assert np.array_equal(hessian_operator(X, on)(V), hessian_operator(X, off)(V))


# ---------------------------------------------------------------------------
# smallest eigenvalue


def test_min_eig_nonnegative_at_noiseless_truth():
    gt, obs, cfg = make_problem(20, 2, seed=16)
    eig = min_hessian_eig(gt.factor, cfg)
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
    assert float(np.linalg.norm(value_and_gradient(x, cfg)[1])) <= 1e-12
    eig = min_hessian_eig(x, cfg)
    assert eig.lambda_min == pytest.approx(-1.0, abs=1e-4)
    assert eig.lambda_min == pytest.approx(dense_min_eig(x, cfg), abs=1e-6)
    # the witness achieves its advertised curvature
    assert hessian_quadratic(x, eig.witness, cfg) <= eig.lambda_min + 1e-5
    assert np.linalg.norm(eig.witness) == pytest.approx(1.0, rel=1e-10)


def test_min_eig_matches_dense_at_random_points():
    gt, obs, cfg = make_problem(10, 2, seed=18, p=0.6, sigma=0.1)
    rng = np.random.default_rng(0)
    for _ in range(200):
        X = rng.normal(size=(10, 2)) * 1.5
        eig = min_hessian_eig(X, cfg)
        dense = dense_min_eig(X, cfg)
        assert eig.converged
        assert eig.lambda_min == pytest.approx(dense, abs=1e-5 * (1.0 + abs(dense)))
        assert hessian_quadratic(X, eig.witness, cfg) <= eig.lambda_min + 1e-6 * (1.0 + eig.op_norm)


def test_min_eig_converges_near_truth_at_scale():
    # d=1000, r=3 near the truth: shifted power iteration had not converged
    # after 3,000 iterations here
    gt, obs, cfg = make_problem(1000, 3, seed=1, p=0.1)
    X = gt.factor + 1e-3 * np.random.default_rng(0).standard_normal(gt.factor.shape)
    eig = min_hessian_eig(X, cfg)
    assert eig.converged
    assert eig.iterations <= 100
    assert hessian_quadratic(X, eig.witness, cfg) <= eig.lambda_min + 1e-6 * (1.0 + eig.op_norm)


def test_operator_norm_estimate_bounds():
    d, r = 30, 2  # d * r > _BASIS: the run covers only part of the space
    gt, obs, cfg = make_problem(d, r, seed=18, p=0.6, sigma=0.1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = rng.normal(size=(d, r)) * 1.5
        est = operator_norm_estimate(X, cfg)
        assert est <= np.linalg.norm(dense_hessian(X, cfg), 2) * (1.0 + 1e-12)
        # never below a power iteration of the same length from the same start
        H, v, power = hessian_operator(X, cfg), _start(X), 0.0
        for _ in range(_BASIS):
            v = v / np.linalg.norm(v)
            Hv = H(v)
            power = max(power, abs(float(np.sum(v * Hv))))
            v = Hv
        assert est >= power * (1.0 - 1e-12)


def test_min_eig_zero_operator():
    from mcland.instance import Observation
    from mcland.linalg import ObservationMask

    mask = ObservationMask(d=5, i=[], j=[], p=0.0)
    obs = Observation(mask=mask, values=np.zeros(0), sigma=0.0)
    cfg = ObjectiveConfig(HyperParams(alpha=10.0, reg_weight=1.0, tau=0.0), obs)
    eig = min_hessian_eig(np.zeros((5, 1)), cfg)
    assert eig.lambda_min == 0.0
    assert eig.converged


# ---------------------------------------------------------------------------
# pair kernels on unordered pairs, against oracles over every mask shape

# (d, r, p, include_diagonal): partial masks with and without the diagonal,
# full masks, an empty mask and d = 1; r = 5 makes the r x r blocks of the
# Hessian operator far larger than r, so a transposed block shows
KERNEL_CASES = [
    (12, 1, 0.6, True),
    (12, 3, 0.6, True),
    (12, 3, 0.6, False),
    (12, 5, 0.6, True),
    (12, 5, 0.6, False),
    (10, 3, 1.0, True),
    (10, 1, 1.0, False),
    (8, 3, 0.0, True),
    (1, 1, 1.0, True),
    (1, 1, 1.0, False),
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
    assert value_and_gradient(X, cfg)[0].total == pytest.approx(brute_objective(X, cfg), rel=1e-12, abs=1e-14)

    G = value_and_gradient(X, cfg)[1]
    R = ind * (M - X @ X.T)
    scale = 1.0 + float(np.abs(G).max())
    assert np.allclose(G, -2.0 * R @ X + w * reg_gradient(X, cfg.hyper.alpha), rtol=0, atol=1e-12 * scale)
    fd = fd_gradient(lambda Y: value_and_gradient(Y, cfg)[0].total, X)
    assert np.allclose(G, fd, rtol=0, atol=1e-5 * scale)

    HV = hessian_operator(X, cfg)(V)
    h = 1e-6
    reg_part = (reg_gradient(X + h * V, cfg.hyper.alpha) - reg_gradient(X - h * V, cfg.hyper.alpha)) / (2 * h)
    dense = 2.0 * (ind * (V @ X.T + X @ V.T)) @ X - 2.0 * R @ V + w * reg_part
    assert np.allclose(HV, dense, rtol=0, atol=1e-6 * (1.0 + float(np.abs(dense).max())))


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_fused_and_per_point_kernels_are_bit_identical(d, r, p, include_diagonal):
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    bdown, G = value_and_gradient(X, cfg)
    resid = cfg.residuals(X)  # the per-point pieces an accepted line-search trial reuses
    assert bdown == breakdown(X, resid, cfg)
    assert np.array_equal(G, residual_gradient(X, resid, cfg))
    H = hessian_operator(X, cfg)
    for U in (V, 2.0 * V + 1.0):
        assert np.array_equal(H(U), hessian_operator(X, cfg)(U))


def test_hessian_operator_rejects_wrong_direction_shape():
    cfg, X, V = _kernel_problem(12, 3, 0.6, True)
    with pytest.raises(ValueError, match="dimension"):
        hessian_operator(X, cfg)(V[:, :2])


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


@pytest.mark.parametrize("d,r,p,include_diagonal", KERNEL_CASES)
def test_column_products_are_bit_identical_to_multivector(d, r, p, include_diagonal, monkeypatch):
    cfg, X, V = _kernel_problem(d, r, p, include_diagonal)
    mask = cfg.obs.mask
    cols = X.T
    gram = sum((x[mask.i] * x[mask.j] for x in cols[1:]), cols[0][mask.i] * cols[0][mask.j])
    assert np.array_equal(cfg.pair_gram(X), gram)

    resid = cfg.residuals(X)
    for Y in (X, np.asfortranarray(V), V[:, :1]):
        out = cfg.masked_matmul(resid, Y)
        assert out.flags.c_contiguous
        assert np.array_equal(out, cfg._masked_matrix(resid) @ Y)
    alpha, w = cfg.hyper.alpha, cfg.hyper.reg_weight
    expected = -2.0 * (cfg._masked_matrix(resid) @ X) + w * reg_gradient(X, alpha)
    assert np.array_equal(residual_gradient(X, resid, cfg), expected)

    HV = hessian_operator(X, cfg)(V)
    monkeypatch.setattr(objective, "_matmul_columns", lambda A, Y: A @ Y)
    assert np.array_equal(HV, hessian_operator(X, cfg)(V))
