import numpy as np
import pytest

from mcland.rng import derive_seed, substream


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
    for seed in (7.0, "7"):
        with pytest.raises(TypeError, match="seed must be an integer"):
            substream(seed, "init")
