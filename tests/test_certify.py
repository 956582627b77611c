import math
from dataclasses import fields, replace

import numpy as np
import pytest

from mcland import solvers
from mcland.certify import (
    CertTolerances,
    PointClass,
    SCAN_COLUMNS,
    certify_point,
    default_global_rel,
    incoherence_certificate,
    landscape_scan,
    norm_certificates,
    recovery_error,
    scan_to_csv,
)
from mcland.instance import HyperParams
from mcland.objective import ObjectiveConfig, min_hessian_eig
from mcland.solvers import Method, SolverConfig, gradient_descent, random_init

from conftest import dense_gram, make_problem


# ---------------------------------------------------------------------------
# recovery error


def test_recovery_zero_at_truth():
    gt, obs, cfg = make_problem(20, 2, seed=1)
    err = recovery_error(gt.factor, gt)
    assert err.gram_fro <= 1e-13
    assert err.procrustes_residual <= 1e-13


def test_recovery_invariant_under_rotation(rng):
    gt, obs, cfg = make_problem(20, 2, seed=2)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    err = recovery_error(gt.factor @ Q, gt)
    assert err.gram_fro <= 1e-10
    assert err.procrustes_residual <= 1e-10


def test_recovery_matches_dense_difference(rng):
    gt, obs, cfg = make_problem(30, 3, seed=3)
    for _ in range(4):
        X = rng.normal(size=(30, 3))
        dense = float(np.linalg.norm(X @ X.T - dense_gram(gt.factor)))
        assert recovery_error(X, gt).gram_fro == pytest.approx(dense, rel=1e-9, abs=1e-12)


def test_recovery_rejects_shape_mismatch():
    gt, obs, cfg = make_problem(10, 2, seed=4)
    with pytest.raises(ValueError):
        recovery_error(np.zeros((10, 3)), gt)


# ---------------------------------------------------------------------------
# lemma-style certificates


def test_incoherence_holds_at_truth_and_converged_points():
    gt, obs, cfg = make_problem(30, 2, seed=5, p=0.7)
    assert incoherence_certificate(gt.factor, cfg, gt)
    res = gradient_descent(cfg, SolverConfig(), random_init(30, 2, obs, 1))
    assert incoherence_certificate(res.X, cfg, gt)


def test_incoherence_fails_on_huge_row():
    gt, obs, cfg = make_problem(30, 2, seed=6, p=0.7)
    X = gt.factor.copy()
    X[0] *= 1e4 / max(1e-12, np.linalg.norm(X[0]))
    assert not incoherence_certificate(X, cfg, gt)


def test_incoherence_trivial_without_penalty():
    gt, obs, cfg0 = make_problem(10, 1, seed=7)
    cfg = ObjectiveConfig(HyperParams(alpha=1.0, reg_weight=0.0, tau=0.0), cfg0.obs)
    X = 1e8 * np.ones((10, 1))
    assert incoherence_certificate(X, cfg, gt)


def test_norm_certificates_at_truth_and_shrunken_copy():
    gt, obs, cfg = make_problem(15, 1, seed=8)
    at_truth = norm_certificates(gt.factor, gt)
    assert at_truth.sigma_min_ok and at_truth.rank1_norm_ok
    shrunk = norm_certificates(0.1 * gt.factor, gt)
    assert not shrunk.sigma_min_ok and not shrunk.rank1_norm_ok


def test_rank1_certificate_absent_above_rank_one():
    gt, obs, cfg = make_problem(15, 2, seed=9)
    certs = norm_certificates(gt.factor, gt)
    assert certs.rank1_norm_ok is None
    assert certs.sigma_min_ok


# ---------------------------------------------------------------------------
# point classification


def test_truth_certifies_global_min():
    gt, obs, cfg = make_problem(20, 2, seed=10, p=0.8)
    rep = certify_point(gt.factor, cfg, gt)
    assert rep.classification is PointClass.GLOBAL_MIN
    assert rep.grad_norm <= rep.stationary_tol
    assert rep.lambda_min >= -rep.tau
    assert rep.incoherence_ok and rep.sigma_min_ok


def test_origin_is_strict_saddle():
    gt, obs, cfg = make_problem(20, 2, seed=11)
    rep = certify_point(np.zeros((20, 2)), cfg, gt)
    assert rep.classification is PointClass.STRICT_SADDLE
    assert rep.grad_norm == 0.0
    assert rep.lambda_min < -rep.tau


def test_unconverged_eigensolve_does_not_certify(unconverged_eigensolves):
    gt, obs, cfg = make_problem(20, 2, seed=10, p=0.8)
    for truth in (gt, None):
        rep = certify_point(gt.factor, cfg, truth)
        assert rep.classification is PointClass.UNCERTIFIED
        assert not rep.eig_converged
    # a strict saddle stands: its witness proves the negative curvature
    rep = certify_point(np.zeros((20, 2)), cfg, gt)
    assert rep.classification is PointClass.STRICT_SADDLE


def test_random_point_not_stationary(rng):
    gt, obs, cfg = make_problem(20, 2, seed=12)
    rep = certify_point(rng.normal(size=(20, 2)), cfg, gt)
    assert rep.classification is PointClass.NOT_STATIONARY


def test_without_ground_truth_collapses_to_second_order():
    gt, obs, cfg = make_problem(20, 1, seed=13, p=0.8)
    res = gradient_descent(cfg, SolverConfig(), random_init(20, 1, obs, 2))
    rep = certify_point(res.X, cfg)
    assert rep.classification is PointClass.SECOND_ORDER_STATIONARY
    assert rep.recovery_fro is None
    assert rep.procrustes_residual is None
    assert rep.incoherence_ok is None


def test_tight_radius_marks_noise_floor_spurious():
    # heavy noise moves the minimizer away from the noiseless truth; with a
    # tiny recovery radius the (perfectly good) endpoint is reported spurious
    gt, obs, cfg = make_problem(30, 1, seed=14, sigma=0.05)
    res = gradient_descent(cfg, SolverConfig(), random_init(30, 1, obs, 3))
    rep = certify_point(res.X, cfg, gt, CertTolerances(global_rel=1e-9))
    assert rep.classification is PointClass.SPURIOUS_LOCAL_MIN
    loose = certify_point(res.X, cfg, gt, CertTolerances(global_rel=1.0))
    assert loose.classification is PointClass.GLOBAL_MIN


def test_default_radius_follows_the_noise_floor():
    gt, obs, _ = make_problem(100, 3, seed=7, p=0.5)
    assert default_global_rel(gt, obs, noiseless=1e-3) == 1e-3
    scale = float(np.linalg.norm(dense_gram(gt.factor)))  # ||Z Z^T||_F
    _, noisy, _ = make_problem(100, 3, seed=7, p=0.5, sigma=0.01)
    floor = 2.0 * 0.01 * np.sqrt(100 * np.log(100) / 0.5) / scale
    assert floor > 0.3
    assert default_global_rel(gt, noisy, noiseless=1e-3) == pytest.approx(floor, rel=1e-12)
    _, faint, _ = make_problem(100, 3, seed=7, p=0.5, sigma=1e-6)
    assert default_global_rel(gt, faint, noiseless=1e-3) == 1e-2


def test_stationary_tolerance_follows_the_value(rng):
    gt, obs, cfg = make_problem(15, 1, seed=15)
    for X in (gt.factor, gt.factor + 1.0, rng.normal(size=(15, 1))):
        rep = certify_point(X, cfg, gt)
        assert rep.stationary_tol == 1e-6 * (1.0 + abs(rep.f_value))
        assert (rep.classification is PointClass.NOT_STATIONARY) == (rep.grad_norm > rep.stationary_tol)


def test_certificate_takes_tau_from_the_hyperparameters():
    gt, obs, cfg = make_problem(20, 2, seed=10, p=0.8)
    assert cfg.hyper.tau > 0
    for X in (gt.factor, np.zeros((20, 2))):
        assert certify_point(X, cfg, gt).tau == cfg.hyper.tau
    # tau = 0 falls back to 1e-4 (1 + ||H||), with the eigensolve's estimate of ||H||
    flat = ObjectiveConfig(replace(cfg.hyper, tau=0.0), obs)
    for X in (gt.factor, np.zeros((20, 2))):
        assert certify_point(X, flat, gt).tau == 1e-4 * (1.0 + min_hessian_eig(X, flat).op_norm)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(global_rel=0.0),
        dict(global_rel=-1.0),
        dict(global_rel=math.inf),
        dict(global_rel=math.nan),
        # stationarity and curvature thresholds are certify_point's rules: no value is accepted
        dict(stationary=0.0),
        dict(stationary=-1e-6),
        dict(tau=-1e-9),
        dict(tau=math.nan),
    ],
)
def test_bad_tolerances_are_rejected(kwargs):
    key = next(iter(kwargs))
    with pytest.raises(ValueError if key == "global_rel" else TypeError, match=key):
        CertTolerances(**kwargs)


def test_edge_tolerances_are_accepted():
    CertTolerances(global_rel=1e-300)
    assert [f.name for f in fields(CertTolerances)] == ["global_rel"]


# ---------------------------------------------------------------------------
# landscape scans


def _scan(gt, obs, cfg, n=8, seed=0, threads=1, method=Method.PERTURBED_GD):
    scfg = SolverConfig(method=method)
    return landscape_scan(
        gt, obs, cfg.hyper, scfg, n_starts=n, base_seed=seed, threads=threads
    )


def test_scan_finds_only_global_minima():
    gt, obs, cfg = make_problem(50, 1, seed=16)
    summary = _scan(gt, obs, cfg, n=8, seed=4)
    assert summary.counts[PointClass.GLOBAL_MIN] == 8
    assert summary.counts[PointClass.SPURIOUS_LOCAL_MIN] == 0
    assert summary.worst_recovery <= 1e-6
    assert sum(summary.counts.values()) == len(summary.rows) == 8
    assert all(row.error is None for row in summary.rows)


def test_scan_partial_observations_stay_clean():
    gt, obs, cfg = make_problem(60, 2, seed=17, p=0.4)
    summary = _scan(gt, obs, cfg, n=6, seed=5)
    assert summary.counts[PointClass.SPURIOUS_LOCAL_MIN] == 0
    assert summary.counts[PointClass.GLOBAL_MIN] == 6


def test_scan_deterministic_in_base_seed():
    gt, obs, cfg = make_problem(25, 1, seed=18, p=0.7)
    a = _scan(gt, obs, cfg, n=5, seed=9)
    b = _scan(gt, obs, cfg, n=5, seed=9)
    assert [r.f_final for r in a.rows] == [r.f_final for r in b.rows]
    assert [r.classification for r in a.rows] == [r.classification for r in b.rows]
    c = _scan(gt, obs, cfg, n=5, seed=10)
    assert [r.start_seed for r in a.rows] != [r.start_seed for r in c.rows]


def test_scan_independent_of_thread_count():
    gt, obs, cfg = make_problem(25, 1, seed=19, p=0.7)
    a = _scan(gt, obs, cfg, n=6, seed=11, threads=1)
    b = _scan(gt, obs, cfg, n=6, seed=11, threads=4)
    assert scan_to_csv(a) == scan_to_csv(b)


def test_scan_survives_failing_starts(monkeypatch):
    gt, obs, cfg = make_problem(10, 1, seed=20)

    def failing_solve(cfg, scfg, X0):
        raise ValueError(f"need 1 <= r <= d, got r=11, d={cfg.d}")

    monkeypatch.setattr(solvers, "solve", failing_solve)
    summary = landscape_scan(gt, obs, cfg.hyper, SolverConfig(), n_starts=3, base_seed=1)
    assert all(r.status == "solver_error" for r in summary.rows)
    assert all(r.error.startswith("ValueError: need 1 <= r <= d") for r in summary.rows)
    assert summary.counts[PointClass.CRASHED] == 3
    assert summary.counts[PointClass.NOT_STATIONARY] == 0
    assert np.isnan(summary.worst_recovery)
    assert all(line.endswith(",Crashed,,") for line in scan_to_csv(summary).split("\n")[1:-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_point_is_not_stationary_without_eigensolve():
    gt, obs, cfg = make_problem(10, 2, seed=22)
    bad_entry = gt.factor.copy()
    bad_entry[3, 1] = np.nan
    for X in (bad_entry, 1e200 * gt.factor):  # the second overflows f
        rep = certify_point(X, cfg, gt)
        assert rep.classification is PointClass.NOT_STATIONARY
        assert np.isnan(rep.lambda_min)
        assert rep.eig_converged is None and rep.eig_iterations is None
        assert rep.recovery_fro is None and rep.incoherence_ok is None


def test_scan_rejects_zero_starts():
    gt, obs, cfg = make_problem(10, 1, seed=21)
    with pytest.raises(ValueError):
        landscape_scan(gt, obs, cfg.hyper, SolverConfig(), n_starts=0, base_seed=1)


def test_scan_csv_schema():
    gt, obs, cfg = make_problem(25, 1, seed=22, p=0.7)
    summary = _scan(gt, obs, cfg, n=3, seed=12)
    lines = scan_to_csv(summary).strip().split("\n")
    assert lines[0] == ",".join(SCAN_COLUMNS)
    assert lines[0].endswith(",classification,eig_converged,eig_iterations")
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert cells[1] == "grad_tol_reached"
    assert cells[10] == "GlobalMin"
    assert cells[7] in ("true", "false")
    assert float(cells[2]) == summary.rows[0].f_final  # repr round-trip
    assert cells[11] == "true"
    assert int(cells[12]) == summary.rows[0].eig_iterations > 0
