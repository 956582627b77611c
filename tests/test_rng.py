import numpy as np
import pytest

from mcland.concentration import ConcentrationTrial, Kind
from mcland.instance import InstanceSpec
from mcland.rng import check_seed, derive_seed, substream
from mcland.solvers import SolverConfig


def test_same_tags_same_stream():
    a = substream(7, "init", 3).normal(size=10)
    b = substream(7, "init", 3).normal(size=10)
    assert np.array_equal(a, b)


def test_different_tags_differ():
    a = substream(7, "init", 3).normal(size=10)
    b = substream(7, "init", 4).normal(size=10)
    c = substream(7, "mask", 3).normal(size=10)
    d = substream(8, "init", 3).normal(size=10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_string_and_int_tags_mix():
    a = substream(0, "trial", 0, "inner")
    b = substream(0, "trial", 0, "outer")
    assert not np.array_equal(a.normal(size=4), b.normal(size=4))


def test_rejects_non_integer_non_string_tags():
    with pytest.raises(TypeError):
        substream(1, 2.5)
    with pytest.raises(TypeError):
        substream(1, True)
    for tag in (True, None, b"init"):  # one message for every type that is no tag
        with pytest.raises(TypeError, match=f"tag must be int or str, got {type(tag).__name__}"):
            substream(1, tag)


def test_derive_seed_range_and_determinism():
    seen = set()
    for k in range(100):
        s = derive_seed(11, "scan-start", k)
        assert isinstance(s, int)
        assert 0 <= s < 2**63
        seen.add(s)
    assert len(seen) == 100
    assert derive_seed(11, "scan-start", 5) == derive_seed(11, "scan-start", 5)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        substream(-3, "x")
    with pytest.raises(ValueError):
        derive_seed(1, -2)


def test_input_checks():
    with pytest.raises(TypeError, match="tag must be int or str, got float"):
        substream(7, 1.0)
    for seed in (7.0, "7", True, False, np.bool_(True)):  # a bool is no seed, as it is no tag
        with pytest.raises(TypeError, match="seed must be an integer"):
            substream(seed, "init")


def test_seeds_lie_below_two_to_the_64():
    # the stream keys on 64 bits: 2**64 would alias seed 0
    a = substream(2**64 - 1, "x").normal(size=4)
    assert not np.array_equal(a, substream(0, "x").normal(size=4))
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            substream(seed, "x")
    check_seed(np.uint64(2**64 - 1))


@pytest.mark.parametrize(
    "record",
    [
        lambda seed: InstanceSpec(d=4, r=1, seed=seed, p=0.5),
        lambda seed: SolverConfig(seed=seed),
        lambda seed: ConcentrationTrial(kind=Kind.SPECTRAL, d=10, p=0.5, seed=seed),
    ],
    ids=["InstanceSpec", "SolverConfig", "ConcentrationTrial"],
)
def test_records_holding_a_seed_check_it_when_built(record):
    assert record(2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            record(seed)
    with pytest.raises(TypeError, match="seed must be"):
        record(True)


@pytest.mark.parametrize("n", [3, 9_226, 199_863, 2**31 + 5, 2**32 - 1, 2**32 + 7])
def test_one_bounded_draw_is_the_draws_of_its_parts(n):
    # SGD draws an epoch's positions in one call: numpy's bounded sampler keeps the unused 32-bit
    # half of a 64-bit output in the bit generator, not in the call, so below 2**32 an odd-sized
    # draw leaves the stream where consecutive draws of its parts would
    for sizes in ([1, 7], [13, 4095, 3], [4097, 1, 1, 5], [9] * 25):
        whole, parts = substream(n, "epoch"), substream(n, "epoch")
        joined = np.concatenate([parts.integers(0, n, size=k) for k in sizes])
        assert np.array_equal(whole.integers(0, n, size=sum(sizes)), joined)
        assert joined.dtype == np.int64
        assert whole.integers(0, n) == parts.integers(0, n)  # both streams are at the same state
