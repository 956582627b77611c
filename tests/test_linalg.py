import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcland.certify import recovery_error
from mcland.instance import GroundTruth
from mcland.linalg import (
    ObservationMask,
    singular_extremes,
)

from conftest import full_mask


def random_orthonormal(n, rng):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def _empty_mask(d):
    return ObservationMask(d=d, i=[], j=[], p=0.0)


def _project(A, mask):
    # P_Omega(A): the elementwise product with the 0/1 indicator, as in the
    # concentration kernels
    return A * mask.indicator()


# ---------------------------------------------------------------------------
# ObservationMask


def test_mask_stores_each_pair_once_in_canonical_order():
    mask = ObservationMask(d=4, i=np.array([3, 2, 0, 1]), j=np.array([1, 2, 3, 0]), p=0.5)
    assert mask.i.tolist() == [0, 0, 1, 2]
    assert mask.j.tolist() == [1, 3, 3, 2]
    assert mask.n_pairs == 7  # three off-diagonal pairs count twice, (2, 2) once
    expected = np.zeros((4, 4))
    for a, b in [(0, 1), (0, 3), (1, 3), (2, 2)]:
        expected[a, b] = expected[b, a] = 1.0
    assert np.array_equal(mask.indicator(), expected)


def test_mask_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        ObservationMask(d=3, i=np.array([0, 0]), j=np.array([1, 1]), p=0.5)
    # a pair given in both orders is the same pair twice
    with pytest.raises(ValueError, match="duplicate"):
        ObservationMask(d=3, i=np.array([0, 1]), j=np.array([1, 0]), p=0.5)


def test_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        ObservationMask(d=3, i=np.array([3]), j=np.array([3]), p=0.5)
    with pytest.raises(ValueError):
        ObservationMask(d=3, i=np.array([0]), j=np.array([-1]), p=0.5)


def test_mask_counts():
    assert full_mask(4, include_diagonal=True).n_pairs == 16
    assert full_mask(4, include_diagonal=False).n_pairs == 12
    assert full_mask(4, include_diagonal=True).i.size == 10
    assert _empty_mask(4).n_pairs == 0


# ---------------------------------------------------------------------------
# projection onto the mask through its indicator


def test_project_full_mask_is_identity(rng):
    A = rng.normal(size=(5, 5))
    assert np.array_equal(_project(A, full_mask(5, include_diagonal=True)), A)


def test_project_empty_mask_annihilates(rng):
    A = rng.normal(size=(4, 4))
    assert np.array_equal(_project(A, _empty_mask(4)), np.zeros((4, 4)))


def test_project_single_pair():
    A = np.arange(9, dtype=float).reshape(3, 3)
    mask = ObservationMask(d=3, i=np.array([1]), j=np.array([0]), p=0.1)
    out = _project(A, mask)
    expected = np.zeros((3, 3))
    expected[0, 1] = A[0, 1]
    expected[1, 0] = A[1, 0]
    assert np.array_equal(out, expected)


def test_project_idempotent(rng):
    A = rng.normal(size=(6, 6))
    from mcland.instance import sample_mask

    mask = sample_mask(6, 0.5, True, seed=3)
    once = _project(A, mask)
    assert np.array_equal(_project(once, mask), once)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_project_exactly_linear(seed, a, b):
    from mcland.instance import sample_mask

    gen = np.random.default_rng(seed)
    A = gen.normal(size=(5, 5))
    B = gen.normal(size=(5, 5))
    mask = sample_mask(5, 0.4, True, seed=seed)
    lhs = _project(a * A + b * B, mask)
    rhs = a * _project(A, mask) + b * _project(B, mask)
    assert np.array_equal(lhs, rhs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_project_contracts_frobenius(seed):
    from mcland.instance import sample_mask

    gen = np.random.default_rng(seed)
    A = gen.normal(size=(7, 7))
    mask = sample_mask(7, 0.3, True, seed=seed)
    assert np.linalg.norm(_project(A, mask)) <= np.linalg.norm(A) + 1e-15


# ---------------------------------------------------------------------------
# singular extremes


def test_singular_orthonormal_columns(rng):
    Q = np.linalg.qr(rng.normal(size=(8, 3)))[0]
    s = singular_extremes(Q)
    assert s.sigma_max == pytest.approx(1.0, abs=1e-10)
    assert s.sigma_min == pytest.approx(1.0, abs=1e-10)


def test_singular_diagonal_case():
    X = np.zeros((4, 2))
    X[0, 0] = 3.0
    X[1, 1] = 1.0
    s = singular_extremes(X)
    assert s.sigma_max == pytest.approx(3.0, abs=1e-12)
    assert s.sigma_min == pytest.approx(1.0, abs=1e-12)


def test_singular_matches_dense_oracle(rng):
    X = rng.normal(size=(50, 3))
    sv = np.linalg.svd(X, compute_uv=False)
    s = singular_extremes(X)
    assert s.sigma_max == pytest.approx(sv[0], abs=1e-10)
    assert s.sigma_min == pytest.approx(sv[-1], abs=1e-10)


# ---------------------------------------------------------------------------
# procrustes


def _residual(X, Z):
    # the Procrustes residual min_R ||X - Z R||_F over orthonormal R, as recovery_error reports it
    return recovery_error(X, GroundTruth(Z)).procrustes_residual


def test_procrustes_self_alignment(rng):
    Z = rng.normal(size=(10, 2))
    assert _residual(Z, Z) <= 1e-10


def test_procrustes_recovers_rotation(rng):
    Z = rng.normal(size=(10, 3))
    R0 = random_orthonormal(3, rng)
    assert _residual(Z @ R0, Z) <= 1e-10


def test_procrustes_beats_sampled_rotations(rng):
    X = rng.normal(size=(10, 2))
    Z = rng.normal(size=(10, 2))
    residual = _residual(X, Z)
    gen = np.random.default_rng(99)
    for _ in range(10000):
        Q = np.linalg.qr(gen.normal(size=(2, 2)))[0]
        assert residual <= np.linalg.norm(X - Z @ Q) + 1e-10


def test_procrustes_residual_holds_even_rank_deficient():
    # a rank-1 X makes Z^T X rank deficient; the minimum is ||X||^2 + ||Z||^2 - 2 ||Z^T X||_*
    Z = np.random.default_rng(5).normal(size=(6, 3))
    X = np.ones((6, 3))
    nuclear = np.linalg.svd(Z.T @ X, compute_uv=False).sum()
    expected = np.sqrt(np.linalg.norm(X) ** 2 + np.linalg.norm(Z) ** 2 - 2.0 * nuclear)
    assert _residual(X, Z) == pytest.approx(expected, abs=1e-12)


def test_rotation_preserves_row_norms_and_fro(rng):
    Z = rng.normal(size=(12, 3))
    R = random_orthonormal(3, rng)
    ZR = Z @ R
    assert np.allclose(
        np.linalg.norm(ZR, axis=1), np.linalg.norm(Z, axis=1), atol=1e-12
    )
    assert np.linalg.norm(ZR) == pytest.approx(np.linalg.norm(Z), abs=1e-12)


def test_procrustes_residual_invariant_under_joint_rotation(rng):
    X = rng.normal(size=(9, 2))
    Z = rng.normal(size=(9, 2))
    Q = random_orthonormal(2, rng)
    r1 = _residual(X, Z)
    r2 = _residual(X @ Q, Z @ Q)
    assert r1 == pytest.approx(r2, abs=1e-10)


def test_input_checks():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        recovery_error(rng.normal(size=(5, 2)), GroundTruth(rng.normal(size=(5, 3))))
    with pytest.raises(ValueError, match="2-d array"):
        singular_extremes(np.ones(4))
    with pytest.raises(ValueError, match="tall"):
        singular_extremes(rng.normal(size=(2, 5)))
    for d in (0, -1):
        with pytest.raises(ValueError, match="dimension must be positive"):
            ObservationMask(d=d, i=[], j=[], p=0.5)
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            ObservationMask(d=3, i=[0], j=[1], p=p)
    with pytest.raises(ValueError, match="equal length"):
        ObservationMask(d=3, i=[0, 1], j=[1], p=0.5)
