import math

import numpy as np
import pytest

from mcland.concentration import (
    CONC_COLUMNS,
    ConcentrationTrial,
    Kind,
    deviation_cubic,
    deviation_inner_product,
    deviation_noise_spectral,
    deviation_spectral,
    fit_scaling,
    run_concentration,
    trials_to_csv,
)
from mcland.linalg import row_incoherence

from conftest import full_mask


def _cell(kind, p, d=60, r=1, trials=10, seed=0, sigma=1.0):
    return run_concentration(
        ConcentrationTrial(kind=kind, d=d, r=r, p=p, sigma=sigma, trials=trials, seed=seed)
    )


# ---------------------------------------------------------------------------
# exact cases


def test_full_observation_deviations_are_bit_exact_zero():
    # at p = 1 the masked sum IS the full sum, same floats, so the noiseless
    # deviations cancel exactly rather than to rounding
    for kind in (Kind.INNER_PRODUCT, Kind.CUBIC_TERM, Kind.SPECTRAL):
        res = _cell(kind, p=1.0, trials=5)
        assert all(rec.deviation == 0.0 for rec in res.records)


def test_zero_inputs_give_zero_deviation():
    d = 10
    ind = full_mask(d, include_diagonal=True).indicator()
    Z0 = np.zeros((d, d))
    assert deviation_inner_product(Z0, Z0, ind, 0.5) == 0.0
    assert deviation_cubic(np.zeros((d, 2)), ind, 0.5) == 0.0
    assert deviation_spectral(Z0, ind, 0.5) == 0.0
    assert deviation_noise_spectral(Z0, ind, 0.5) == 0.0


def test_empty_mask_deviations_and_predictions_vanish():
    for kind in Kind:
        res = _cell(kind, p=0.0, trials=5)
        assert all(rec.deviation == 0.0 for rec in res.records)
        assert all(rec.predicted_scale == 0.0 for rec in res.records)


def test_spectral_deviations_match_dense_oracle(rng):
    # oracle: the largest eigenvalue of D^T D, not an SVD of D
    d = 30
    ind = (rng.random((d, d)) < 0.4).astype(float)
    ind = np.triu(ind) + np.triu(ind, 1).T
    W = rng.normal(size=(d, d))
    for dev, D in (
        (deviation_spectral(W, ind, 0.4), W * ind - 0.4 * W),
        (deviation_noise_spectral(W, ind, 0.4), W * ind),
    ):
        assert dev == pytest.approx(math.sqrt(np.linalg.eigvalsh(D.T @ D)[-1]), rel=1e-10)
    assert deviation_spectral(2.0 * W, ind, 0.4) == 2.0 * deviation_spectral(W, ind, 0.4)


def test_cubic_deviation_rotation_invariant(rng):
    X = rng.normal(size=(20, 3))
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rng2 = np.random.default_rng(1)
    ind = (rng2.random((20, 20)) < 0.5).astype(float)
    ind = np.triu(ind) + np.triu(ind, 1).T  # symmetric indicator
    a = deviation_cubic(X, ind, 0.5)
    b = deviation_cubic(X @ Q, ind, 0.5)
    assert a == pytest.approx(b, rel=1e-10)


def test_noise_spectral_deviation_homogeneous_in_sigma():
    lo = _cell(Kind.NOISE_SPECTRAL, p=0.5, sigma=1.0, seed=4)
    hi = _cell(Kind.NOISE_SPECTRAL, p=0.5, sigma=2.0, seed=4)
    # same seed, same normals; doubling sigma doubles every deviation exactly
    assert all(
        h.deviation == 2.0 * l.deviation for l, h in zip(lo.records, hi.records)
    )


def test_row_incoherence_bounds():
    assert row_incoherence(np.eye(8)) == pytest.approx(1.0, rel=1e-12)
    assert row_incoherence(np.ones((8, 8))) == pytest.approx(1.0, rel=1e-12)
    spike = np.zeros((8, 8))
    spike[0, 0] = 1.0
    assert row_incoherence(spike) == pytest.approx(math.sqrt(8), rel=1e-12)
    assert row_incoherence(np.zeros((4, 4))) == 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo behavior


def test_deviation_shrinks_with_denser_observation():
    meds = []
    for p in (0.05, 0.1, 0.2, 0.4):
        res = run_concentration(
            ConcentrationTrial(kind=Kind.INNER_PRODUCT, d=200, r=2, p=p, trials=30, seed=2)
        )
        meds.append(res.median_normalized)
    assert all(a > b for a, b in zip(meds, meds[1:]))


def test_runs_deterministic_in_seed():
    a = _cell(Kind.NOISE_INNER, p=0.4, trials=8, seed=6)
    b = _cell(Kind.NOISE_INNER, p=0.4, trials=8, seed=6)
    def deviations(res):
        return [rec.deviation for rec in res.records]

    assert deviations(a) == deviations(b)
    c = _cell(Kind.NOISE_INNER, p=0.4, trials=8, seed=7)
    assert deviations(a) != deviations(c)


def test_spectral_scaling_exponent_near_half():
    pts = []
    for p in (0.05, 0.1, 0.2, 0.4):
        res = run_concentration(
            ConcentrationTrial(kind=Kind.SPECTRAL, d=200, r=2, p=p, trials=40, seed=3)
        )
        pts.append((p * 200, res.median_normalized))
    fit = fit_scaling(pts)
    assert not fit.degenerate
    assert -0.7 <= fit.slope <= -0.3
    assert fit.r2 >= 0.9


def test_spec_validation():
    with pytest.raises(ValueError):
        ConcentrationTrial(kind=Kind.SPECTRAL, d=0, p=0.5)
    with pytest.raises(ValueError):
        ConcentrationTrial(kind=Kind.SPECTRAL, d=10, p=1.5)
    with pytest.raises(ValueError):
        ConcentrationTrial(kind=Kind.SPECTRAL, d=10, p=0.5, r=11)
    with pytest.raises(ValueError):
        ConcentrationTrial(kind=Kind.SPECTRAL, d=10, p=0.5, trials=0)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            ConcentrationTrial(kind=Kind.NOISE_INNER, d=10, p=0.5, sigma=sigma)


# ---------------------------------------------------------------------------
# scaling fit


def test_fit_recovers_exact_power_law():
    pts = [(pd, 3.0 * pd**-0.5) for pd in (4, 8, 16, 32, 64)]
    fit = fit_scaling(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_flags_flat_data_degenerate():
    fit = fit_scaling([(pd, 2.5) for pd in (4, 8, 16, 32, 64)])
    assert fit.degenerate
    assert fit.slope is None


def test_fit_flags_zero_data_degenerate_before_grid_checks():
    # a single all-zero point: degenerate, not "grid too small"
    assert fit_scaling([(200.0, 0.0)]).degenerate
    # a NaN median, where every predicted scale is 0, is no point to fit either
    assert fit_scaling([(4, math.nan), (8, math.nan), (16, math.nan), (64, math.nan)]).degenerate
    assert fit_scaling([(4, 1.0), (8, 0.7), (16, math.nan), (64, 0.2)]).degenerate


def test_fit_rejects_bad_grids():
    with pytest.raises(ValueError):
        fit_scaling([])
    with pytest.raises(ValueError):
        fit_scaling([(4, 1.0), (8, 0.7), (16, 0.5)])  # too few points
    with pytest.raises(ValueError):
        fit_scaling([(4, 1.0), (5, 0.9), (6, 0.8), (7, 0.7)])  # span < 8x
    with pytest.raises(ValueError):
        fit_scaling([(0.0, 1.0), (8, 0.7), (16, 0.5), (64, 0.2)])  # pd <= 0


# ---------------------------------------------------------------------------
# serialization


def test_trials_csv_schema():
    noise = _cell(Kind.NOISE_SPECTRAL, p=0.5, trials=3, seed=8)
    inner = _cell(Kind.INNER_PRODUCT, p=0.5, trials=3, seed=8)
    lines = trials_to_csv([noise, inner]).strip().split("\n")
    assert lines[0] == ",".join(CONC_COLUMNS)
    assert len(lines) == 1 + 6
    noise_row = lines[1].split(",")
    assert noise_row[0] == "noise_spectral"
    assert noise_row[4] == ""  # no row-incoherence for pure noise
    inner_row = lines[4].split(",")
    assert inner_row[0] == "inner_product"
    assert float(inner_row[7]) == inner.records[0].deviation
