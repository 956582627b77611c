import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from mcland import instance
from mcland.instance import (
    GroundTruth,
    HyperParams,
    InstanceSpec,
    Observation,
    default_hyperparams,
    observe,
    sample_factor,
    sample_mask,
)
from mcland.linalg import ObservationMask

from conftest import dense_gram, full_mask, whole_matrix_mask


# ---------------------------------------------------------------------------
# GroundTruth and incoherence


def test_uniform_rows_give_mu_one():
    Z = np.full((4, 1), 0.5)
    gt = GroundTruth(Z)
    assert gt.incoherence == pytest.approx(1.0, abs=1e-12)


def test_single_spike_gives_mu_sqrt_d():
    Z = np.zeros((4, 1))
    Z[0, 0] = 1.0
    gt = GroundTruth(Z)
    assert gt.incoherence == pytest.approx(2.0, abs=1e-12)


def test_mu_kappa_recompute_exactly(rng):
    Z = rng.normal(size=(30, 3))
    gt = GroundTruth(Z)
    mu = np.sqrt(30) * max(np.linalg.norm(Z, axis=1)) / np.linalg.norm(Z)
    sv = np.linalg.svd(Z, compute_uv=False)
    assert gt.incoherence == pytest.approx(mu, abs=1e-12)
    assert gt.condition_number == pytest.approx(sv[0] / sv[-1], abs=1e-10)
    assert gt.sigma_min == pytest.approx(sv[-1], rel=1e-12)
    assert gt.gram_fro == pytest.approx(np.linalg.norm(Z @ Z.T), rel=1e-12)
    assert gt.incoherence >= 1.0
    assert gt.condition_number >= 1.0


def test_zero_factor_rejected():
    with pytest.raises(ValueError):
        GroundTruth(np.zeros((4, 2)))


def test_factor_input_checks():
    with pytest.raises(ValueError, match="1 <= r <= d"):
        GroundTruth(np.ones((2, 3)))
    with pytest.raises(ValueError, match="1 <= r <= d"):
        sample_factor(3, 4, 1.0, seed=0)
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale must be positive"):
            sample_factor(5, 2, scale, seed=0)


def test_constants_are_computed_not_given():
    Z = np.full((4, 1), 0.5)
    with pytest.raises(TypeError):
        GroundTruth(Z, incoherence=3.0, condition_number=1.0)
    with pytest.raises(ValueError, match="2-d"):
        GroundTruth(np.ones(4))
    with pytest.raises(ValueError, match="rank deficient"):
        GroundTruth(np.zeros((4, 2)))


def test_sampled_mu_is_moderate():
    mus = [sample_factor(100, 2, 1.0, seed).incoherence for seed in range(200)]
    assert 1.5 <= float(np.median(mus)) <= 4.5


def test_sample_factor_deterministic():
    a = sample_factor(20, 2, 1.0, 5)
    b = sample_factor(20, 2, 1.0, 5)
    assert np.array_equal(a.factor, b.factor)
    assert not np.array_equal(a.factor, sample_factor(20, 2, 1.0, 6).factor)


def test_sample_factor_variance_scaling():
    # entries have variance scale^2/d
    zs = [sample_factor(50, 2, 2.0, s).factor for s in range(100)]
    v = float(np.var(np.concatenate([z.ravel() for z in zs])))
    assert v == pytest.approx(4.0 / 50, rel=0.1)


# ---------------------------------------------------------------------------
# sample_mask


def test_full_probability_mask_has_all_pairs():
    m = sample_mask(6, 1.0, True, seed=1)
    assert m.n_pairs == 36
    m2 = sample_mask(6, 1.0, False, seed=1)
    assert m2.n_pairs == 30


def test_zero_probability_mask_empty():
    assert sample_mask(6, 0.0, True, seed=1).n_pairs == 0


def test_mask_symmetric_every_seed():
    # each pair once, i <= j in lexicographic order; the indicator is symmetric
    for seed in range(30):
        m = sample_mask(12, 0.3, bool(seed % 2), seed=seed)
        assert np.all(m.i <= m.j)
        code = m.i * 12 + m.j
        assert np.all(np.diff(code) > 0)
        ind = m.indicator()
        assert np.array_equal(ind, ind.T)
        assert ind.sum() == m.n_pairs


def test_mask_deterministic():
    a = sample_mask(15, 0.4, True, seed=9)
    b = sample_mask(15, 0.4, True, seed=9)
    assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j)


def test_mask_count_binomial_bound():
    d, p = 200, 0.1
    n_off = d * (d - 1) // 2
    for seed in range(100):
        m = sample_mask(d, p, True, seed=seed)
        mean = p * n_off + p * d
        # diagonal and off-diagonal are independent Bernoulli families
        sd = np.sqrt(p * (1 - p) * n_off + p * (1 - p) * d)
        assert abs(m.i.size - mean) <= 4.0 * sd


def test_mask_excludes_diagonal_when_asked():
    m = sample_mask(30, 0.8, False, seed=2)
    assert not np.any(m.i == m.j)


def test_sample_mask_input_checks():
    for d in (0, -2):
        with pytest.raises(ValueError, match="d must be positive"):
            sample_mask(d, 0.5, seed=0)
    for p in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            sample_mask(5, p, seed=0)


@pytest.mark.parametrize("block", [1, "7d+3", None])
@pytest.mark.parametrize("include_diagonal", [True, False])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 257, 1100, 2100])
def test_mask_matches_whole_matrix_draw(monkeypatch, d, p, include_diagonal, block):
    # one row per block, 7 rows and a ragged last block, or the default: one
    # block up to d = 1024, 2 at d = 1100 and 5 at d = 2100, where every row
    # past the first block draws only its upper part; without the diagonal the
    # last row has no column left to keep
    if block is not None:
        monkeypatch.setattr(instance, "_BLOCK", 1 if block == 1 else 7 * d + 3)
    m = sample_mask(d, p, include_diagonal, seed=d)
    i, j = whole_matrix_mask(d, p, include_diagonal, seed=d)
    assert m.i.dtype == i.dtype and m.j.dtype == j.dtype
    assert np.array_equal(m.i, i) and np.array_equal(m.j, j)


def _pair_bytes(mask):
    return np.ascontiguousarray(mask.i, "<i8").tobytes() + np.ascontiguousarray(mask.j, "<i8").tobytes()


# Masks of several row blocks at the default block size, pinned by the SHA-256
# of their pairs (int64 i, then int64 j, little-endian); the values are left
# out, since above d = 1024 their BLAS rounding depends on the call shape.
@pytest.mark.parametrize(
    "d,p,include_diagonal,seed,n_stored,expected",
    [
        (4000, 0.02, True, 1, 159923, "e2e9ec4d16e033f3cb3af157d679ad3f1d02bf0fd1226fc6b0259039b590943f"),
        (3000, 0.05, False, 4, 225472, "b867c9e344f3062983a9cea75200486f3bdc1da97aa486bd900f4de0e2a5fb17"),
    ],
)
def test_multi_block_mask_is_pinned(d, p, include_diagonal, seed, n_stored, expected):
    m = sample_mask(d, p, include_diagonal, seed=seed)
    assert m.i.size == n_stored
    assert hashlib.sha256(_pair_bytes(m)).hexdigest() == expected


class _CountingDraws:
    """A mask generator that counts the doubles `random` draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, size=None, out=None):
        x = self.rng.random(size, out=out)
        self.drawn += x.size
        return x


@pytest.mark.parametrize(
    "d,include_diagonal,expected",
    [
        # 349 rows a block: 349 * 3000 doubles in the first, then d - i for each
        # later row i, or d - i - 1 without the diagonal
        (3000, True, 4_562_226),
        (3000, False, 4_559_575),
        (1000, True, 1_000_000),  # one block, drawn whole
        (1000, False, 1_000_000),
    ],
)
def test_multi_block_mask_draws_only_its_upper_triangle(monkeypatch, d, include_diagonal, expected):
    streams, real_substream = [], instance.substream

    def counting_substream(*args):
        streams.append(_CountingDraws(real_substream(*args)))
        return streams[-1]

    monkeypatch.setattr(instance, "substream", counting_substream)
    m = sample_mask(d, 0.01, include_diagonal, seed=2)
    assert [s.drawn for s in streams] == [expected]
    i, j = whole_matrix_mask(d, 0.01, include_diagonal, seed=2)
    assert np.array_equal(m.i, i) and np.array_equal(m.j, j)


def test_mask_memory_is_bounded():
    # the 8 MB uniform block, its comparison and the pairs found so far; a
    # copy of the block's triangle, or a buffer held across blocks, exceeds it
    tracemalloc.start()
    try:
        sample_mask(6000, 0.015, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16.5e6


# ---------------------------------------------------------------------------
# observe


def test_observe_noiseless_full_mask_matches_gram(rng):
    gt = sample_factor(10, 2, 1.0, 3)
    mask = full_mask(10, include_diagonal=True)
    obs = observe(gt, mask, 0.0, seed=4)
    gram = dense_gram(gt.factor)
    assert np.array_equal(obs.values, gram[mask.i, mask.j])
    assert np.array_equal(obs.values, gram[mask.j, mask.i])


def test_observe_values_symmetric():
    # the observation of a pair does not depend on the order it was given in
    gt = sample_factor(20, 2, 1.0, 3)
    mask = sample_mask(20, 0.5, True, seed=5)
    mirrored = ObservationMask(d=20, i=mask.j, j=mask.i, p=mask.p)
    a = observe(gt, mask, 0.3, seed=6)
    b = observe(gt, mirrored, 0.3, seed=6)
    assert np.array_equal(mirrored.i, mask.i) and np.array_equal(mirrored.j, mask.j)
    assert np.array_equal(a.values, b.values)


def test_observe_deterministic():
    gt = sample_factor(15, 1, 1.0, 3)
    mask = sample_mask(15, 0.6, True, seed=5)
    a = observe(gt, mask, 0.2, seed=8)
    b = observe(gt, mask, 0.2, seed=8)
    assert np.array_equal(a.values, b.values)


def test_observe_noise_variance():
    gt = sample_factor(200, 2, 1.0, 3)
    mask = full_mask(200, include_diagonal=True)
    obs = observe(gt, mask, 0.1, seed=11)
    noise = obs.values - dense_gram(gt.factor)[mask.i, mask.j]
    off = noise[mask.i != mask.j]
    assert float(np.var(off)) == pytest.approx(0.01, rel=0.1)


def test_noiseless_values_bounded_by_max_row_norm_sq():
    gt = sample_factor(40, 3, 1.0, 7)
    mask = sample_mask(40, 0.7, True, seed=8)
    obs = observe(gt, mask, 0.0, seed=9)
    bound = max(np.linalg.norm(gt.factor, axis=1)) ** 2
    assert np.all(np.abs(obs.values) <= bound + 1e-12)


def test_observation_takes_one_value_per_stored_pair():
    mask = full_mask(3, include_diagonal=False)  # 3 stored pairs, n_pairs 6
    Observation(mask=mask, values=np.arange(3, dtype=float), sigma=0.0)
    with pytest.raises(ValueError, match="stored pairs"):
        Observation(mask=mask, values=np.arange(mask.n_pairs, dtype=float), sigma=0.0)


def test_observation_rejects_non_finite_values():
    mask = full_mask(3, include_diagonal=False)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Observation(mask=mask, values=np.array([1.0, bad, 0.0]), sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        Observation(mask=mask, values=np.zeros(3), sigma=math.nan)


def test_observation_rate_is_the_masks():
    mask = sample_mask(10, 0.3, seed=2)
    obs = Observation(mask=mask, values=np.zeros(mask.i.size), sigma=0.0)
    assert obs.p == mask.p == 0.3
    with pytest.raises(TypeError):
        Observation(mask=mask, values=np.zeros(mask.i.size), sigma=0.0, p=0.5)


def test_overflowing_factor_scale_is_rejected():
    with pytest.raises(ValueError, match="overflows"):
        sample_factor(40, 2, 1e200, 3)


def test_underflowing_factor_scale_is_rejected():
    # Z^T Z is about scale^2 = 1e-400: the zero matrix, for any rank
    for r in (1, 2):
        with pytest.raises(ValueError, match="scale 1e-200 underflows"):
            sample_factor(40, r, 1e-200, 3)


@pytest.mark.parametrize("scale", [1e-150, 1e-160])
def test_scale_whose_data_squares_underflow_is_rejected(scale):
    # Z^T Z is about scale^2, still nonzero, but the objective's squared data
    # terms are about scale^4 = 0: f and its gradient would vanish at every
    # start, and each would certify GlobalMin
    for r in (1, 2):
        with pytest.raises(ValueError, match=f"scale {scale} underflows the squares"):
            sample_factor(40, r, scale, 3)
    # just above the bound (sigma_min(Z)^4 about 1e-304) the factor still draws
    assert sample_factor(40, 2, 1e-76, 3).factor.shape == (40, 2)


def test_observe_input_checks():
    gt = GroundTruth(np.ones((4, 1)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        observe(gt, full_mask(5), 0.0, seed=0)
    with pytest.raises(ValueError, match="sigma must be non-negative"):
        observe(gt, full_mask(4), -0.1, seed=0)


# ---------------------------------------------------------------------------
# default_hyperparams


def _mu_one_rank1_truth():
    # uniform rows: mu = 1 exactly, d = 100
    return GroundTruth(np.full((100, 1), 0.1))


def _mu_one_kappa_one_rank2_truth():
    theta = 2.0 * np.pi * np.arange(100) / 100
    Z = np.column_stack([np.cos(theta), np.sin(theta)])
    return GroundTruth(Z)


def test_alpha_rank1_formula():
    hp = default_hyperparams(_mu_one_rank1_truth(), 0.5)
    assert hp.alpha == pytest.approx(1.0, abs=1e-12)


def test_alpha_rank_r_formula():
    gt = _mu_one_kappa_one_rank2_truth()
    assert gt.incoherence == pytest.approx(1.0, abs=1e-9)
    assert gt.condition_number == pytest.approx(1.0, abs=1e-9)
    hp = default_hyperparams(gt, 0.5)
    assert hp.alpha == pytest.approx(0.8, abs=1e-9)


def test_lambda_equals_lower_bound():
    hp = default_hyperparams(_mu_one_rank1_truth(), 0.5)
    # mu^2 p / alpha^2 with mu = 1, p = 0.5, alpha = 1
    assert hp.reg_weight == pytest.approx(0.5, abs=1e-12)


def test_tau_formula():
    gt = _mu_one_rank1_truth()
    hp = default_hyperparams(gt, 0.5)
    smin = np.linalg.svd(gt.factor, compute_uv=False)[-1]
    assert hp.tau == pytest.approx(0.01 * 0.5 * smin, rel=1e-10)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(alpha=0.0, reg_weight=1.0, tau=0.0)
    with pytest.raises(ValueError):
        HyperParams(alpha=1.0, reg_weight=-1.0, tau=0.0)
    with pytest.raises(ValueError):
        HyperParams(alpha=1.0, reg_weight=1.0, tau=-0.1)
    # NaN fails every comparison, so each field is checked for finiteness:
    # an infinite tau would certify every stationary saddle a local minimum
    for field in ("alpha", "reg_weight", "tau"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field}.*finite"):
                HyperParams(**{"alpha": 1.0, "reg_weight": 1.0, "tau": 0.0, field: value})


# ---------------------------------------------------------------------------
# InstanceSpec round trip


def test_spec_roundtrip_bit_exact():
    spec = InstanceSpec(d=25, r=2, seed=13, scale=1.5, p=0.4, sigma=0.05)
    again = InstanceSpec(**json.loads(spec.to_json()))
    assert again == spec
    gt1, obs1 = spec.regenerate()
    gt2, obs2 = again.regenerate()
    assert np.array_equal(gt1.factor, gt2.factor)
    assert np.array_equal(obs1.values, obs2.values)
    assert np.array_equal(obs1.mask.i, obs2.mask.i)
    assert np.array_equal(obs1.mask.j, obs2.mask.j)


def _c3_spec(r, seed):
    return InstanceSpec(d=100, r=r, seed=seed, p=min(1.0, max(0.2, 10.0 * r * math.log(100) / 100.0)))


def _payload(obs):
    return _pair_bytes(obs.mask) + np.ascontiguousarray(obs.values, "<f8").tobytes()


# SHA-256 of the (i, j, value) triples, i <= j in lexicographic order, as
# little-endian int64 i, then int64 j, then float64 values; recorded when
# the mask still stored both orders, from its pairs with row <= column.
REGENERATION_DIGESTS = [
    (_c3_spec(1, 101), 4599, "c5c02e793174369a9529c64dfb8236cb293b9a128bcd23bf67c79f1abcae14cc"),
    (_c3_spec(2, 102), 9226, "9c8ae7a6d251afcd01d7902931a61d783c38f7d967bf3cb942b73a81bc867582"),
    (_c3_spec(3, 103), 10000, "35fb21955c56a198ac47c2f82bcf9eec2544e6c1251b7d08349164bf8926124c"),
    (_c3_spec(2, 104), 9201, "c433f0f062500cd12fdfd38eab8d850d63b878af0af29ea5aa2e5c55d8685a48"),
    (_c3_spec(1, 105), 4642, "3389597ebe1948b74b34096eb48fe9dcc0dbd348479a1264f24f483f5e558e9c"),
    (InstanceSpec(d=1000, r=2, seed=1, p=0.1), 99863,
     "536a2d8fa59edb561e280c5e252ddf2d7e744a00143687aa77f8f31ecd6552d3"),
    (InstanceSpec(d=30, r=2, seed=7, p=0.5, sigma=0.3), 426,
     "6f8eaa5b61f499adc9a7386a520d06bb973b4999c9e893f697aeaef1fb8f43e9"),
    (InstanceSpec(d=30, r=2, seed=8, p=0.5, include_diagonal=False), 448,
     "dd1a2a076b54d2b87343ce6ed55aed7991aa5ae2bef8cbab4574570144e94de3"),
    (InstanceSpec(d=30, r=2, seed=9, p=1.0), 900,
     "e7a1ee2e05e4760bf6f74c753f966bcc24ee49eda7b77f6750d5f0be2ab8137a"),
    (InstanceSpec(d=1, r=1, seed=3, p=1.0), 1,
     "9bc03789d9c0a722128028a193c92dfa9404378305cdb396898c8e275bdee499"),
    # recorded from whole-matrix (d, d) mask and noise draws
    (InstanceSpec(d=1000, r=1, seed=11, p=0.3, sigma=0.2, include_diagonal=False), 300550,
     "7f7da0cc27b4a8a04c9a51e0a24d1aa96c33e6822f0b3cc0ce3b7f42118678ad"),
]


@pytest.mark.parametrize(
    "spec,n_pairs,expected",
    REGENERATION_DIGESTS,
    ids=[f"d{s.d}-r{s.r}-seed{s.seed}" for s, _, _ in REGENERATION_DIGESTS],
)
def test_regenerate_is_bit_exact(spec, n_pairs, expected):
    _, obs = spec.regenerate()
    assert obs.mask.n_pairs == n_pairs
    assert hashlib.sha256(_payload(obs)).hexdigest() == expected


# Block sizes in elements: one row per block, and 70 rows at d=100 and 7 rows
# at d=1000, so the last block is ragged (d=30 stays one block).
_SMALL_BLOCKS = [1, 7000]


@pytest.mark.parametrize("block", _SMALL_BLOCKS)
@pytest.mark.parametrize(
    "spec,n_pairs,expected",
    REGENERATION_DIGESTS,
    ids=[f"d{s.d}-r{s.r}-seed{s.seed}" for s, _, _ in REGENERATION_DIGESTS],
)
def test_block_size_keeps_mask_and_streams(monkeypatch, block, spec, n_pairs, expected):
    gt, ref = spec.regenerate()
    monkeypatch.setattr(instance, "_BLOCK", block)
    _, obs = spec.regenerate()
    assert np.array_equal(obs.mask.i, ref.mask.i) and np.array_equal(obs.mask.j, ref.mask.j)
    if spec.r == 1:
        # each value is one product, rounded once whatever the shape of the
        # BLAS call, so the whole instance, noise included, keeps its digest
        assert hashlib.sha256(_payload(obs)).hexdigest() == expected
    else:
        # a BLAS may round a length-r dot product differently by the shape
        # of the call (edge kernels, gemv for one row); the values stay
        # within that rounding, plus the rounding of the added noise, of the
        # single-block ones
        Z = gt.factor
        size = np.abs(Z[obs.mask.i] * Z[obs.mask.j]).sum(axis=1)
        tol = (2 * spec.r * size + np.abs(ref.values)) * np.finfo(float).eps
        assert np.all(np.abs(obs.values - ref.values) <= tol)


@pytest.mark.parametrize("include_diagonal", [True, False])
@pytest.mark.parametrize("d", [1100, 2100])  # 2 and 5 row blocks
def test_masks_nest_in_p(d, include_diagonal):
    # one uniform draw decides the mask at every p: a pair observed at p is observed at every
    # p' > p, and the noise draw does not depend on p either, so it keeps its value
    for sigma in (0.0, 0.1):
        small, large = (
            InstanceSpec(d=d, r=2, seed=5, p=p, sigma=sigma, include_diagonal=include_diagonal).regenerate()[1]
            for p in (0.01, 0.03)
        )
        ks, kl = (obs.mask.i.astype(np.int64) * d + obs.mask.j for obs in (small, large))  # sorted: row-major
        at = np.searchsorted(kl, ks)
        assert 0 < ks.size < kl.size and np.array_equal(kl[np.minimum(at, kl.size - 1)], ks)
        assert np.array_equal(large.values[at], small.values)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_generation_memory_is_bounded(sigma):
    # a dense 6000 x 6000 draw alone is 288 MB; the row blocks need about 18 MB
    spec = InstanceSpec(d=6000, r=2, seed=1, p=0.015, sigma=sigma)
    tracemalloc.start()
    try:
        spec.regenerate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_spec_json_is_canonical():
    spec = InstanceSpec(d=25, r=2, seed=13, p=0.4)
    assert spec.to_json() == InstanceSpec(**json.loads(spec.to_json())).to_json()
    payload = json.loads(spec.to_json())
    assert list(payload) == sorted(payload)


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(d=4, r=5, seed=1, p=0.5)
    with pytest.raises(ValueError):
        InstanceSpec(d=4, r=1, seed=1, p=1.5)
    with pytest.raises(ValueError):
        InstanceSpec(d=4, r=1, seed=1, p=0.5, sigma=-1.0)


@pytest.mark.parametrize("field", ["sigma", "scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match="finite"):
        InstanceSpec(d=4, r=1, seed=1, p=0.5, **{field: value})


@pytest.mark.parametrize(
    "field,value",
    [("seed", True), ("p", True), ("d", True), ("r", True), ("scale", True), ("sigma", False),
     ("include_diagonal", 1), ("d", 5.0), ("seed", 3.0)],
)
def test_spec_rejects_values_its_record_would_misstate(field, value):
    # a bool would be written as true and an int flag as 1, in a record `mcland gen` rejects
    with pytest.raises(TypeError, match=field):
        InstanceSpec(**{"d": 5, "r": 1, "seed": 3, "p": 0.5, field: value})


def test_spec_stores_numpy_scalars_as_the_json_types_gen_reads():
    spec = InstanceSpec(d=np.int64(5), r=np.int32(1), seed=np.uint64(3), scale=np.float32(1.5), p=np.float64(0.5),
                        sigma=np.int64(0), include_diagonal=np.bool_(False))
    plain = InstanceSpec(d=5, r=1, seed=3, scale=1.5, p=0.5, sigma=0.0, include_diagonal=False)
    assert spec == plain and spec.to_json() == plain.to_json()
    assert [type(getattr(spec, f)) for f in ("d", "r", "seed", "scale", "p", "sigma", "include_diagonal")] == [
        int, int, int, float, float, float, bool]
    assert json.loads(InstanceSpec(d=4, r=1, seed=2, p=1).to_json())["p"] == 1.0
