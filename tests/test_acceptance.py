"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single [Cn] PASS/FAIL line (visible under -s) and then
asserts, so a red run still shows which claim broke and by how much.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mcland import cli
from mcland.certify import (
    CertTolerances,
    PointClass,
    certify_point,
    landscape_scan,
    recovery_error,
)
from mcland.concentration import ConcentrationTrial, Kind, fit_scaling, run_concentration
from mcland.instance import (
    GroundTruth,
    HyperParams,
    InstanceSpec,
    default_hyperparams,
    observe,
    sample_factor,
    sample_mask,
)
from mcland.objective import (
    ObjectiveConfig,
    Point,
    evaluate,
    hessian_operator,
    min_hessian_eig,
)
from mcland.rng import substream
from mcland.solvers import (
    Method,
    SolverConfig,
    random_init,
    solve,
    stochastic_gradient,
)

from conftest import (
    dense_gram,
    dense_hessian,
    fd_gradient,
    fd_hessian,
    fd_second_directional,
    full_mask,
    hessian_quadratic,
)


def _report(cid, name, ok, detail=""):
    line = f"[{cid}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _gram_scale(gt):
    return float(np.linalg.norm(gt.factor.T @ gt.factor))


# ---------------------------------------------------------------------------
# C1: analytic gradient vs central finite differences


def test_c1_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(20):
        d = int(rng.integers(5, 31))
        r = int(rng.integers(1, min(d, 3) + 1))
        p = float(rng.uniform(0.3, 1.0))
        sigma = 0.05 if k % 2 else 0.0
        spec = InstanceSpec(d=d, r=r, seed=1000 + k, p=p, sigma=sigma)
        gt, obs = spec.regenerate()
        maxrow = float(np.linalg.norm(gt.factor, axis=1).max())
        hyper = HyperParams(
            alpha=float(rng.uniform(0.5, 1.5)) * maxrow,
            reg_weight=float(rng.uniform(0.0, 5.0)),
            tau=0.0,
        )
        cfg = ObjectiveConfig(hyper, obs)
        X = gt.factor + 0.5 * rng.standard_normal((d, r))
        G = evaluate(X, cfg).gradient()
        G_fd = fd_gradient(lambda Y: evaluate(Y, cfg).value.total, X)
        rel = float(np.linalg.norm(G - G_fd)) / (1.0 + float(np.linalg.norm(G)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        "C1",
        "gradient matches finite differences on 20 random instances",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.3g}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C2: Hessian quadratic form, vector product, dense assembly


def test_c2_hessian_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_quad = worst_pair = 0.0

    for k in range(5):
        spec = InstanceSpec(d=14, r=2, seed=2000 + k, p=0.7, sigma=0.05 if k % 2 else 0.0)
        gt, obs = spec.regenerate()
        cfg = ObjectiveConfig(default_hyperparams(gt, 0.7), obs)
        X = gt.factor + 0.5 * rng.standard_normal(gt.factor.shape)
        for _ in range(3):
            V = rng.standard_normal(X.shape)
            quad = hessian_quadratic(X, V, cfg)
            fd = fd_second_directional(lambda Y: evaluate(Y, cfg).value.total, X, V)
            worst_quad = max(worst_quad, abs(quad - fd) / (1.0 + abs(quad)))
            via = float(np.sum(V * hessian_operator(Point(X, cfg))(V)))
            worst_pair = max(worst_pair, abs(quad - via) / (1.0 + abs(quad)))

    worst_sym = worst_entry = 0.0
    for d, r, seed in ((48, 3, 2100), (72, 2, 2101)):  # dr = 144 both
        spec = InstanceSpec(d=d, r=r, seed=seed, p=0.5)
        gt, obs = spec.regenerate()
        cfg = ObjectiveConfig(default_hyperparams(gt, 0.5), obs)
        X = gt.factor + 0.3 * rng.standard_normal((d, r))
        H = dense_hessian(X, cfg)
        scale = 1.0 + float(np.abs(H).max())
        worst_sym = max(worst_sym, float(np.abs(H - H.T).max()) / scale)
        H_fd = fd_hessian(lambda Y: evaluate(Y, cfg).gradient(), X)
        worst_entry = max(worst_entry, float(np.abs(H - H_fd).max()) / scale)

    elapsed = time.perf_counter() - t0
    ok = (
        worst_quad <= 1e-4
        and worst_pair <= 1e-10
        and worst_sym <= 1e-10
        and worst_entry <= 1e-5
        and elapsed < 30.0
    )
    _report(
        "C2",
        "second-order oracles agree (fd, quadratic form, dense assembly)",
        ok,
        f"quad {worst_quad:.2g}, pairing {worst_pair:.2g}, sym {worst_sym:.2g}, "
        f"entry {worst_entry:.2g}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C3 + C5: multi-start landscape scans and per-run certificates


_SCAN_CELLS = [(1, 101), (2, 102), (3, 103), (2, 104), (1, 105)]


@pytest.fixture(scope="module")
def theorem_scan():
    cells = []
    for r, seed in _SCAN_CELLS:
        p = min(1.0, max(0.2, 10.0 * r * math.log(100) / 100.0))
        spec = InstanceSpec(d=100, r=r, seed=seed, p=p)
        gt, obs = spec.regenerate()
        hyper = default_hyperparams(gt, p)
        summary = landscape_scan(
            gt,
            obs,
            hyper,
            SolverConfig(method=Method.PERTURBED_GD),
            n_starts=50,
            base_seed=seed,
            tols=CertTolerances(global_rel=1e-2),
        )
        cells.append((spec, gt, summary))
    return cells


def test_c3_no_spurious_minima_at_scale(theorem_scan):
    t0 = time.perf_counter()
    total_global = total_spurious = 0
    worst_rel = 0.0
    for spec, gt, summary in theorem_scan:
        total_global += summary.counts[PointClass.GLOBAL_MIN]
        total_spurious += summary.counts[PointClass.SPURIOUS_LOCAL_MIN]
        scale = _gram_scale(gt)
        for row in summary.rows:
            if row.classification is PointClass.GLOBAL_MIN:
                worst_rel = max(worst_rel, row.recovery_fro / scale)
    elapsed = time.perf_counter() - t0
    ok = total_spurious == 0 and total_global == 250 and worst_rel <= 1e-2
    _report(
        "C3",
        "250/250 perturbed-GD starts reach the planted solution",
        ok,
        f"global {total_global}/250, spurious {total_spurious}, worst rel recovery {worst_rel:.2e}",
    )


def test_c5_certificates_hold_at_every_endpoint(theorem_scan):
    checked = rank1_checked = 0
    ok = True
    for spec, gt, summary in theorem_scan:
        for row in summary.rows:
            checked += 1
            ok = ok and bool(row.incoherence_ok) and bool(row.sigma_min_ok)
            if spec.r == 1:
                rank1_checked += 1
                ok = ok and bool(row.rank1_norm_ok)
    _report(
        "C5",
        "row-norm / sigma-min / rank-1 certificates true at 100% of endpoints",
        ok and checked == 250 and rank1_checked == 100,
        f"{checked} endpoints, {rank1_checked} rank-1 endpoints",
    )


# ---------------------------------------------------------------------------
# C4: explicit strict-saddle geometry under full observation


def test_c4_strict_saddle_escape():
    d, lam1, lam2 = 12, 1.0, 1e-4
    Q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(d, d)))
    Z = Q[:, :2] * np.sqrt([lam1, lam2])
    gt = GroundTruth(Z)
    obs = observe(gt, full_mask(d, include_diagonal=True), 0.0, seed=5)
    cfg = ObjectiveConfig(HyperParams(alpha=1e6, reg_weight=0.0, tau=0.0), obs)

    x_saddle = math.sqrt(lam2) * Q[:, 1:2]
    gn = float(np.linalg.norm(evaluate(x_saddle, cfg).gradient()))
    eig = min_hessian_eig(Point(x_saddle, cfg))
    H = dense_hessian(x_saddle, cfg)
    dense_min = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
    c = -dense_min / (lam1 - lam2)
    agree = abs(eig.lambda_min - dense_min)

    scfg = SolverConfig(method=Method.PERTURBED_GD, max_iters=4000, seed=9)
    from_saddle = solve(cfg, scfg, x_saddle)
    from_origin = solve(cfg, scfg, np.zeros((d, 1)))

    ok = (
        gn <= 1e-10
        and c > 0
        and agree <= 1e-6
        and eig.lambda_min <= -(lam1 - lam2) * c + 1e-6
        and from_saddle.f <= 1e-8
        and from_origin.f <= 1e-8
    )
    _report(
        "C4",
        "saddle is strict and perturbed GD escapes it and the origin",
        ok,
        f"grad {gn:.1e}, lambda_min {eig.lambda_min:.5f} (dense gap {agree:.1e}), "
        f"c {c:.3f}, f_saddle {from_saddle.f:.2e}, f_origin {from_origin.f:.2e}",
    )


# ---------------------------------------------------------------------------
# C6: graceful degradation under observation noise


def test_c6_noise_robustness():
    d, r, p = 100, 2, 0.4
    gt = sample_factor(d, r, 1.0, 606)
    mask = sample_mask(d, p, include_diagonal=True, seed=606)
    m_inf = float(np.abs(dense_gram(gt.factor)).max())
    scale = _gram_scale(gt)
    hyper = default_hyperparams(gt, p)

    medians = []
    spurious = 0
    min_eig_seen = 0.0
    for rel_sigma in (0.0, 0.01, 0.02, 0.04):
        sigma = rel_sigma * m_inf
        obs = observe(gt, mask, sigma, seed=707)  # same noise shape, scaled
        cfg = ObjectiveConfig(hyper, obs)
        # admissible radius grows with the noise floor, never below 1e-2
        thresh = max(1e-2, 2.0 * sigma * math.sqrt(d * math.log(d) / p) / scale)
        tols = CertTolerances(global_rel=thresh)
        recs = []
        for s in range(10):
            res = solve(
                cfg,
                SolverConfig(method=Method.PERTURBED_GD, seed=900 + s),
                random_init(d, r, obs, 900 + s),
            )
            recs.append(recovery_error(res.X, gt).gram_fro / scale)
            rep = certify_point(res.X, cfg, gt, tols)
            if rep.classification is PointClass.SPURIOUS_LOCAL_MIN:
                spurious += 1
            min_eig_seen = min(min_eig_seen, rep.lambda_min)
        medians.append(float(np.median(recs)))

    monotone = all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))
    finite = all(math.isfinite(m) for m in medians)
    ok = monotone and finite and medians[0] <= 1e-2 and spurious == 0
    _report(
        "C6",
        "median recovery degrades monotonically with noise, no spurious labels",
        ok,
        "medians " + "/".join(f"{m:.2e}" for m in medians) + f", min eig {min_eig_seen:.1e}",
    )


# ---------------------------------------------------------------------------
# C7: Monte-Carlo concentration scaling


def test_c7_concentration_scaling():
    t0 = time.perf_counter()
    d, r = 200, 2
    grid = (0.02, 0.04, 0.08, 0.16, 0.32)  # pd spans 16x
    slopes = {}
    for kind in (Kind.INNER_PRODUCT, Kind.SPECTRAL, Kind.NOISE_SPECTRAL):
        pts = []
        for p in grid:
            res = run_concentration(
                ConcentrationTrial(kind=kind, d=d, r=r, p=p, sigma=1.0, trials=50, seed=2)
            )
            pts.append((p * d, res.median_normalized))
        slopes[kind.value] = fit_scaling(pts).slope

    worst_cubic = 0.0
    for p in grid:
        res = run_concentration(
            ConcentrationTrial(kind=Kind.CUBIC_TERM, d=d, r=r, p=p, sigma=1.0, trials=50, seed=2)
        )
        for rec in res.records:
            worst_cubic = max(worst_cubic, rec.deviation / (20.0 * rec.predicted_scale))

    elapsed = time.perf_counter() - t0
    slopes_ok = all(-0.7 <= s <= -0.3 for s in slopes.values())
    ok = slopes_ok and worst_cubic <= 1.0 and elapsed < 300.0
    _report(
        "C7",
        "normalized deviations scale like a root law in pd",
        ok,
        ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
        + f", cubic margin {worst_cubic:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C8: thread count never changes output bytes: the BLAS threads of a scan, the
# --threads of a concentration sweep


def test_c8_threaded_runs_byte_identical(tmp_path):
    scan_cfg = tmp_path / "scan.json"
    scan_cfg.write_text(
        json.dumps(
            {
                "instance": {"d": 25, "r": 1, "seed": 3, "p": 0.8},
                "solver": {"method": "perturbed_gd"},
                "scan": {"n_starts": 4, "base_seed": 5},
            }
        )
    )
    conc_cfg = tmp_path / "conc.json"
    conc_cfg.write_text(
        json.dumps(
            {
                "concentration": {
                    "kind": "spectral",
                    "d": 60,
                    "r": 2,
                    "p_grid": [0.05, 0.1, 0.2, 0.4],
                    "trials": 10,
                    "seed": 1,
                }
            }
        )
    )
    # a scan runs on the calling thread, so its one thread count is BLAS's, fixed when a
    # process loads it: one fresh interpreter per count, started one at a time
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    scans = {}
    for blas in (1, 2):
        out = tmp_path / f"blas{blas}"
        env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=str(blas))
        proc = subprocess.run(
            [sys.executable, "-m", "mcland.cli", "scan", "--config", str(scan_cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        scans[blas] = (out / "scan.csv").read_bytes()
    outs = {n: tmp_path / f"out{n}" for n in (1, 8)}
    for n, out in outs.items():
        assert cli.main(["conc", "--config", str(conc_cfg), "--out", str(out), "--threads", str(n)]) == 0
    same_scan = scans[1] == scans[2]
    same_conc = (outs[1] / "conc.csv").read_bytes() == (outs[8] / "conc.csv").read_bytes()
    _report(
        "C8",
        "d=25 scan CSV byte-identical at 1 and 2 BLAS threads, concentration CSV at 1 and 8 --threads",
        same_scan and same_conc,
        f"scan match {same_scan}, conc match {same_conc}",
    )


# ---------------------------------------------------------------------------
# C9: single-pair stochastic gradients are unbiased


def test_c9_sgd_unbiased():
    base = 8
    dims = [(4, 1), (5, 1), (6, 1), (4, 1), (5, 1)]
    n_draws = 10_000
    worst = 0.0
    ok = True
    for k, (d, r) in enumerate(dims):
        spec = InstanceSpec(d=d, r=r, seed=base * 100 + k, p=1.0)
        gt, obs = spec.regenerate()
        cfg = ObjectiveConfig(default_hyperparams(gt, 1.0), obs)
        X = random_init(d, r, obs, base * 100 + 50 + k)
        G = evaluate(X, cfg).gradient()
        stream = substream(base, "unbiased", k)
        draws = np.stack(
            [stochastic_gradient(X, cfg, stream.integers(0, cfg.n_pairs, size=1)) for _ in range(n_draws)]
        )
        se = draws.std(axis=0, ddof=1) / math.sqrt(n_draws)
        dev = np.abs(draws.mean(axis=0) - G)
        ok = ok and bool(np.all(dev <= 2.0 * se))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(se > 0, dev / se, 0.0)
        worst = max(worst, float(ratio.max()))
    _report(
        "C9",
        "mean of 10k single-pair gradients within 2 SE of the full gradient",
        ok,
        f"worst deviation {worst:.2f} SE over {len(dims)} instances",
    )
