import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from mcland import certify, objective, solvers
from mcland.certify import (
    CertTolerances,
    PointClass,
    SCAN_COLUMNS,
    ScanRow,
    certify_point,
    default_global_rel,
    incoherence_certificate,
    landscape_scan,
    norm_certificates,
    recovery_error,
    scan_to_csv,
)
from mcland.csvio import cell
from mcland.instance import GroundTruth, HyperParams, InstanceSpec, Observation, default_hyperparams
from mcland.linalg import ObservationMask
from mcland.objective import ObjectiveConfig, curvature_slack, min_hessian_eig
from mcland.rng import derive_seed
from mcland.solvers import Method, SolverConfig, Status, random_init, solve

from conftest import dense_gram, dense_min_eig, make_problem


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
    res = solve(cfg, SolverConfig(), random_init(30, 2, obs, 1))
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
    rep = certify_point(gt.factor, cfg, gt)
    assert rep.classification is PointClass.UNCERTIFIED
    assert not rep.eig_converged
    # a strict saddle stands: its witness proves the negative curvature
    rep = certify_point(np.zeros((20, 2)), cfg, gt)
    assert rep.classification is PointClass.STRICT_SADDLE


def test_random_point_not_stationary(rng):
    gt, obs, cfg = make_problem(20, 2, seed=12)
    rep = certify_point(rng.normal(size=(20, 2)), cfg, gt)
    assert rep.classification is PointClass.NOT_STATIONARY


def test_tight_radius_marks_noise_floor_spurious():
    # heavy noise moves the minimizer away from the noiseless truth; with a
    # tiny recovery radius the (perfectly good) endpoint is reported spurious
    gt, obs, cfg = make_problem(30, 1, seed=14, sigma=0.05)
    res = solve(cfg, SolverConfig(), random_init(30, 1, obs, 3))
    rep = certify_point(res.X, cfg, gt, CertTolerances(global_rel=1e-9))
    assert rep.classification is PointClass.SPURIOUS_LOCAL_MIN
    loose = certify_point(res.X, cfg, gt, CertTolerances(global_rel=1.0))
    assert loose.classification is PointClass.GLOBAL_MIN


def test_perturbed_gd_reaches_the_spurious_minimum_of_the_d50_instance():
    # at c = p d / (r ln d) = 6.4, the GD start random_init(50, 1, obs, 1006)
    # ends at a strict spurious local minimum after 598 iterations; all 400
    # starts of a perturbed-GD scan with base seed 0 certify GlobalMin
    gt, obs, cfg = make_problem(50, 1, seed=21, p=0.5)
    scfg = SolverConfig(method=Method.PERTURBED_GD)
    res = solvers.solve(cfg, scfg, random_init(50, 1, obs, 1006))
    rep = certify_point(res.X, cfg, gt, CertTolerances(), res.eig)
    assert res.status is Status.GRAD_TOL
    assert res.f == pytest.approx(0.0838, abs=5e-5)
    assert rep.classification is PointClass.SPURIOUS_LOCAL_MIN
    assert rep.eig_converged
    assert rep.lambda_min == pytest.approx(0.046, abs=5e-4)
    assert rep.recovery_fro == pytest.approx(15.6, abs=0.05)
    # the dense Hessian agrees: a strict local minimum, not an eigensolve artefact
    assert dense_min_eig(res.X, cfg) == pytest.approx(rep.lambda_min, abs=1e-6)


def test_default_radius_follows_the_noise_floor():
    gt, obs, _ = make_problem(100, 3, seed=7, p=0.5)
    assert default_global_rel(gt, obs) == 1e-2
    scale = float(np.linalg.norm(dense_gram(gt.factor)))  # ||Z Z^T||_F
    _, noisy, _ = make_problem(100, 3, seed=7, p=0.5, sigma=0.01)
    floor = 2.0 * 0.01 * np.sqrt(100 * np.log(100) / 0.5) / scale
    assert floor > 0.3
    assert default_global_rel(gt, noisy) == pytest.approx(floor, rel=1e-12)
    _, faint, _ = make_problem(100, 3, seed=7, p=0.5, sigma=1e-6)
    assert default_global_rel(gt, faint) == 1e-2
    # no entry, so no noise, is observed at p = 0
    _, empty = InstanceSpec(d=100, r=3, seed=7, p=0.0, sigma=0.01).regenerate()
    assert empty.mask.n_pairs == 0
    assert default_global_rel(gt, empty) == 1e-2


def test_no_tolerances_and_default_tolerances_certify_alike():
    # the noise floor's radius, 1.498 here, and no other: a flat 1e-2 would
    # call this endpoint (recovery_fro 0.896 of ||Z Z^T||_F = 1.155) spurious
    gt, obs, cfg = make_problem(20, 1, seed=1, p=0.8, sigma=0.1)
    res = solve(cfg, SolverConfig(method=Method.GD), random_init(20, 1, obs, 0))
    rep = certify_point(res.X, cfg, gt)
    assert rep.classification is PointClass.GLOBAL_MIN
    assert rep.global_rel == CertTolerances().radius(gt, obs) == default_global_rel(gt, obs)
    assert rep.global_rel == pytest.approx(1.498, abs=5e-4)
    _same_report(rep, certify_point(res.X, cfg, gt, CertTolerances()))
    _same_report(rep, certify_point(res.X, cfg, gt, CertTolerances(global_rel=None)))
    # a given radius decides the label and is the report's
    tight = certify_point(res.X, cfg, gt, CertTolerances(global_rel=1e-2))
    assert tight.classification is PointClass.SPURIOUS_LOCAL_MIN
    assert tight.global_rel == 1e-2


def test_stationary_tolerance_follows_the_value(rng):
    gt, obs, cfg = make_problem(15, 1, seed=15)
    for X in (gt.factor, gt.factor + 1.0, rng.normal(size=(15, 1))):
        rep = certify_point(X, cfg, gt)
        assert rep.stationary_tol == 1e-6 * (1.0 + abs(rep.f_value))
        assert (rep.classification is PointClass.NOT_STATIONARY) == (rep.grad_norm > rep.stationary_tol)


def _certified_endpoint():
    """A GD endpoint that certifies GlobalMin at a nonzero recovery error, and its eigensolve."""
    gt, obs, cfg = make_problem(20, 2, seed=10, p=0.8)
    X = solve(cfg, SolverConfig(method=Method.GD), random_init(20, 2, obs, 0)).X
    eig = min_hessian_eig(X, cfg)
    rep = certify_point(X, cfg, gt, eig=eig)
    assert rep.classification is PointClass.GLOBAL_MIN and rep.recovery_fro > 0
    return gt, cfg, X, eig, rep


# Each threshold of certify_point is pinned from both sides, at 0.5x its tolerance and
# at 1.5x to 3x it: a threshold moved by a factor of 2 or 10 relabels one of the points.


def test_saddle_threshold_is_minus_tau():
    gt, cfg, X, eig, rep = _certified_endpoint()
    assert rep.tau == cfg.hyper.tau > 0
    for k, cls in ((1.5, PointClass.STRICT_SADDLE), (0.5, PointClass.GLOBAL_MIN)):
        assert certify_point(X, cfg, gt, eig=replace(eig, lambda_min=-k * rep.tau)).classification is cls, k


def test_stationarity_threshold_is_the_stationary_tolerance():
    gt, cfg, X, _, _ = _certified_endpoint()
    E = np.random.default_rng(0).normal(size=X.shape)
    for lo, hi, cls in ((1.5, 3.0, PointClass.NOT_STATIONARY), (0.2, 0.5, PointClass.GLOBAL_MIN)):
        s = 1e-6
        for _ in range(20):  # the gradient is about linear in s: rescale s to the band's middle
            rep = certify_point(X + s * E, cfg, gt)
            ratio = rep.grad_norm / rep.stationary_tol
            if lo <= ratio <= hi:
                break
            s *= 0.5 * (lo + hi) / ratio
        assert lo <= ratio <= hi, ratio
        assert rep.classification is cls, ratio


def test_recovery_threshold_is_the_radius():
    gt, cfg, X, eig, rep = _certified_endpoint()
    for k, cls in ((1.5, PointClass.SPURIOUS_LOCAL_MIN), (0.5, PointClass.GLOBAL_MIN)):
        tols = CertTolerances(global_rel=rep.recovery_fro / (k * gt.gram_fro))
        assert certify_point(X, cfg, gt, tols, eig).classification is cls, k


def test_certificate_takes_tau_from_the_hyperparameters():
    # one rule for the certificate and the saddle test of perturbed GD
    gt, obs, cfg = make_problem(20, 2, seed=10, p=0.8)
    assert cfg.hyper.tau > 0
    for X in (gt.factor, np.zeros((20, 2))):
        op = min_hessian_eig(X, cfg).op_norm
        assert certify_point(X, cfg, gt).tau == curvature_slack(cfg, op) == cfg.hyper.tau
    # tau = 0 falls back to 1e-4 (1 + ||H||), with the eigensolve's estimate of ||H||
    flat = ObjectiveConfig(replace(cfg.hyper, tau=0.0), obs)
    for X in (gt.factor, np.zeros((20, 2))):
        op = min_hessian_eig(X, flat).op_norm
        assert certify_point(X, flat, gt).tau == curvature_slack(flat, op) == 1e-4 * (1.0 + op)


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
        # a bool is no radius: True once certified at radius 1.0
        dict(global_rel=True),
    ],
)
def test_bad_tolerances_are_rejected(kwargs):
    (key, value), = kwargs.items()
    # a value of the wrong type is a TypeError, as in every config record
    error = ValueError if key == "global_rel" and not isinstance(value, bool) else TypeError
    with pytest.raises(error, match=key):
        CertTolerances(**kwargs)


def test_edge_tolerances_are_accepted():
    CertTolerances(global_rel=1e-300)
    assert CertTolerances().global_rel is None
    assert [f.name for f in fields(CertTolerances)] == ["global_rel"]


# ---------------------------------------------------------------------------
# landscape scans


def _scan(gt, obs, cfg, n=8, seed=0, method=Method.PERTURBED_GD):
    return landscape_scan(gt, obs, cfg.hyper, SolverConfig(method=method), n_starts=n, base_seed=seed)


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


def test_scan_rows_pickle_round_trip(monkeypatch):
    # a process pool ships rows between workers by pickle
    gt, obs, cfg = make_problem(20, 1, seed=23, p=0.8)
    (row,) = _scan(gt, obs, cfg, n=1, seed=3, method=Method.GD).rows
    monkeypatch.setattr(solvers, "solve", lambda cfg, scfg, X0: 1 / 0)
    (crashed,) = _scan(gt, obs, cfg, n=1, seed=3).rows
    assert row.classification is PointClass.GLOBAL_MIN
    assert crashed.classification is PointClass.CRASHED
    for original in (row, crashed):
        copy = pickle.loads(pickle.dumps(original))
        assert type(copy) is type(original) and repr(copy) == repr(original)
        assert cell(copy.f_final) == cell(original.f_value)
        assert copy.procrustes == original.procrustes_residual
        assert copy.error == original.error
    assert crashed.error == "ZeroDivisionError: division by zero"


def _recording(fn, log):
    def wrapper(*args):
        log.append(fn(*args))
        return log[-1]

    return wrapper


def test_scan_csv_cells_are_the_certificate_fields(monkeypatch):
    # every cell of a row is the certificate of the start's endpoint, except
    # the start's seed and the solver's status
    gt, obs, cfg = make_problem(25, 1, seed=24, p=0.7)
    results, reports = [], []
    monkeypatch.setattr(solvers, "solve", _recording(solvers.solve, results))
    monkeypatch.setattr(certify, "certify_point", _recording(certify.certify_point, reports))
    summary = _scan(gt, obs, cfg, n=3, seed=13)
    lines = scan_to_csv(summary).strip().split("\n")[1:]
    assert len(lines) == len(results) == len(reports) == 3
    field = {"f_final": "f_value", "procrustes": "procrustes_residual"}
    for k, (line, res, rep) in enumerate(zip(lines, results, reports)):
        own = {"start_seed": derive_seed(13, "scan-start", k), "status": res.status}
        expected = [
            cell(own[col]) if col in own else cell(getattr(rep, field.get(col, col)))
            for col in SCAN_COLUMNS
        ]
        assert line.split(",") == expected


@pytest.mark.parametrize("method", [Method.GD, Method.PERTURBED_GD])
def test_scan_runs_one_eigensolve_per_start(monkeypatch, method):
    # perturbed GD solves for lambda_min at the endpoint and the certificate
    # reuses that eigensolve; plain GD leaves it to the certificate
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    where, in_solve = [], []
    solve_eig, solve = objective.min_hessian_eig, solvers.solve

    def recording_eig(X, cfg, resid=None):
        where.append("solve" if in_solve else "certify")
        return solve_eig(X, cfg, resid)

    def recording_solve(*args):
        in_solve.append(True)
        try:
            return solve(*args)
        finally:
            in_solve.pop()

    monkeypatch.setattr(objective, "min_hessian_eig", recording_eig)
    monkeypatch.setattr(solvers, "solve", recording_solve)
    summary = _scan(gt, obs, cfg, n=4, seed=5, method=method)
    assert summary.counts[PointClass.GLOBAL_MIN] == 4
    assert where == ["solve" if method is Method.PERTURBED_GD else "certify"] * 4


def _same_report(a, b):
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y)), f.name


def test_certificate_from_the_solvers_eigensolve_is_the_same():
    # a minimum, and the strict saddle at the origin
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    res = solvers.solve(cfg, SolverConfig(method=Method.PERTURBED_GD, seed=1), random_init(20, 2, obs, 3))
    assert res.eig is not None
    rep = certify_point(res.X, cfg, gt, eig=res.eig)
    assert rep.classification is PointClass.GLOBAL_MIN
    _same_report(rep, certify_point(res.X, cfg, gt))
    saddle = np.zeros((20, 2))
    rep = certify_point(saddle, cfg, gt, eig=min_hessian_eig(saddle, cfg))
    assert rep.classification is PointClass.STRICT_SADDLE
    _same_report(rep, certify_point(saddle, cfg, gt))


@pytest.mark.parametrize("method", [Method.GD, Method.PERTURBED_GD, Method.SGD])
@pytest.mark.parametrize(
    "instance",
    [{"d": 20, "r": 2, "seed": 13, "p": 0.8}, {"d": 30, "r": 1, "seed": 4, "p": 0.5},
     {"d": 40, "r": 2, "seed": 3, "p": 1.0, "scale": 1e100}],  # the last start overflows: f(X0) = inf
)
def test_a_certificate_rereads_the_endpoint_the_solver_ended_on(method, instance):
    # one evaluation of a point: a row's value and gradient norm are the trace's last, bit for bit
    spec = InstanceSpec(**instance)
    gt, obs = spec.regenerate()
    cfg = ObjectiveConfig(default_hyperparams(gt, spec.p), obs)
    for seed in range(4):
        res, row = certify.solve_and_certify(cfg, gt, SolverConfig(method=method, seed=seed))
        assert repr(row.f_final) == repr(res.trace[-1].f)
        assert repr(row.grad_norm) == repr(res.trace[-1].grad_norm)


def test_certificate_from_a_stalled_witness_search_is_the_same(monkeypatch):
    # a witness search that opens below the underflow step ends the run at
    # the strict saddle at the origin, with the eigensolve that found it
    gt, obs, cfg = make_problem(20, 2, seed=13, p=0.8)
    saddle = np.zeros((20, 2))
    solve = objective.min_hessian_eig  # an op_norm of 1e20 opens the search at 2e-20
    monkeypatch.setattr(
        objective, "min_hessian_eig", lambda X, cfg, resid=None: replace(solve(X, cfg, resid), op_norm=1e20)
    )
    res = solvers.solve(cfg, SolverConfig(method=Method.PERTURBED_GD), saddle)
    assert np.array_equal(res.X, saddle) and res.iterations == 0
    assert res.status is Status.GRAD_TOL
    eig = min_hessian_eig(saddle, cfg)
    assert np.array_equal(res.eig.witness, eig.witness)
    assert (res.eig.lambda_min, res.eig.converged, res.eig.iterations) == (
        eig.lambda_min, eig.converged, eig.iterations)
    rep = certify_point(res.X, cfg, gt, eig=res.eig)
    assert rep.classification is PointClass.STRICT_SADDLE
    _same_report(rep, certify_point(saddle, cfg, gt))


def test_scan_rejects_zero_starts():
    gt, obs, cfg = make_problem(10, 1, seed=21)
    with pytest.raises(ValueError):
        landscape_scan(gt, obs, cfg.hyper, SolverConfig(), n_starts=0, base_seed=1)


@pytest.mark.parametrize(
    "key,value,error",
    [("n_starts", True, TypeError), ("n_starts", 2.0, TypeError), ("threads", 0, ValueError),
     ("threads", -3, ValueError), ("threads", True, TypeError), ("threads", 2.0, TypeError),
     ("base_seed", -1, ValueError), ("base_seed", 2**64, ValueError), ("tols", 0.01, TypeError),
     ("gt", GroundTruth(np.ones((20, 1))), ValueError), ("threads", 2, ValueError)],
)
def test_scan_rejects_counts_before_any_start(monkeypatch, key, value, error):
    # n_starts=True once ran one start, threads 0, -3 or True one thread, and threads 2 a
    # pool of two; a base_seed outside [0, 2**64) raised only when a start derived its seed,
    # and a float tols or a ground truth of another d gave one Crashed row per start
    gt, obs, cfg = make_problem(10, 1, seed=21)
    starts = []
    monkeypatch.setattr(certify, "_scan_one", lambda *args: starts.append(args))
    match = {
        "base_seed": rf"^base_seed must lie in \[0, 2\*\*64\), got {value}$",
        "tols": r"^tols must be CertTolerances, got float$",
        "gt": r"^dimension mismatch: factor has d=20, instance has d=10$",
    }.get(key, key)
    args = {"gt": gt, "obs": obs, "hyper": cfg.hyper, "scfg": SolverConfig(), "n_starts": 2, "base_seed": 1}
    with pytest.raises(error, match=match):
        landscape_scan(**{**args, key: value})
    assert starts == []


def test_an_empty_mask_builds_no_objective(monkeypatch):
    # with no entry to fit, the objective is the penalty alone: certify_point once labelled
    # X = 0 and Z / 2 on this instance SpuriousLocalMin (f = 0, ||grad f|| = 0, lambda_min = 0),
    # and every solver ran from an objective no claim can rest on.  No objective is built, so
    # neither certify_point nor a solver can be reached, and a scan refuses before any start
    gt, obs = InstanceSpec(d=2, r=1, seed=1, p=0.01).regenerate()
    hyper = default_hyperparams(gt, 0.01)
    assert obs.mask.n_pairs == 0
    with pytest.raises(ValueError, match=r"^the mask is empty: the instance observes no entries at p=0\.01$"):
        ObjectiveConfig(hyper, obs)
    starts = []
    monkeypatch.setattr(certify, "_scan_one", lambda *args: starts.append(args))
    with pytest.raises(ValueError, match="mask is empty"):
        landscape_scan(gt, obs, hyper, SolverConfig(), n_starts=3, base_seed=0)
    assert starts == []
    # a mask given no pairs at p = 0, whose Hessian was once the zero operator
    mask = ObservationMask(d=5, i=[], j=[], p=0.0)
    with pytest.raises(ValueError, match=r"^the mask is empty: .* at p=0\.0$"):
        ObjectiveConfig(HyperParams(alpha=10.0, reg_weight=1.0, tau=0.0), Observation(mask, np.zeros(0), 0.0))


def test_scan_refuses_a_solver_seed_it_would_drop(monkeypatch):
    # every start runs at a seed derived from base_seed, so a scan at SolverConfig(seed=5)
    # once wrote the same rows as one at seed 0
    gt, obs, cfg = make_problem(10, 1, seed=21)
    starts, built = [], []
    crashed = ScanRow(classification=PointClass.CRASHED, start_seed=0, status="solver_error")
    monkeypatch.setattr(certify, "_scan_one", lambda *args: starts.append(args) or crashed)
    monkeypatch.setattr(certify.obj, "ObjectiveConfig", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="seed must be 0 in a scan, got 5: base_seed seeds every start"):
        landscape_scan(gt, obs, cfg.hyper, SolverConfig(seed=5), 2, 1)
    assert starts == [] and built == []
    summary = landscape_scan(gt, obs, cfg.hyper, SolverConfig(seed=0), 2, 1)
    assert len(starts) == 2 and len(built) == 1
    assert summary.counts[PointClass.CRASHED] == 2


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


def test_norm_certificates_rejects_a_factor_of_another_shape():
    gt, _, _ = make_problem(10, 2, seed=3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        norm_certificates(np.zeros((10, 3)), gt)
