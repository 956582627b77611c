"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's analytic code paths:
finite differences for derivatives, dense eigendecompositions for spectra,
and naive double loops for masked sums.  Tests compare the fast analytic
implementations against these.
"""

from dataclasses import replace

import numpy as np
import pytest

from mcland.instance import InstanceSpec, default_hyperparams
from mcland import objective
from mcland.linalg import ObservationMask
from mcland.objective import ObjectiveConfig, Point, hessian_operator
from mcland.rng import substream


# ---------------------------------------------------------------------------
# finite-difference oracles


def fd_gradient(fun, X, h=1e-6):
    """Central-difference gradient of a scalar function, entry by entry."""
    X = np.asarray(X, dtype=float)
    G = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        E = np.zeros_like(X)
        E[idx] = h
        G[idx] = (fun(X + E) - fun(X - E)) / (2.0 * h)
    return G


def fd_second_directional(fun, X, V, h=1e-4):
    """Central second difference of fun along direction V."""
    return (fun(X + h * V) - 2.0 * fun(X) + fun(X - h * V)) / (h * h)


def fd_hessian(grad_fun, X, h=1e-4):
    """Dense Hessian from central differences of a gradient function."""
    X = np.asarray(X, dtype=float)
    n = X.size
    H = np.zeros((n, n))
    for k, idx in enumerate(np.ndindex(X.shape)):
        E = np.zeros_like(X)
        E[idx] = h
        H[:, k] = ((grad_fun(X + E) - grad_fun(X - E)) / (2.0 * h)).ravel()
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# dense oracles built from the matrix-free operator


def dense_hessian(X, cfg):
    """Assemble the dr x dr Hessian by applying the operator to basis vectors."""
    d, r = X.shape
    n = d * r
    H = np.zeros((n, n))
    E = np.zeros((d, r))
    apply = hessian_operator(Point(X, cfg))
    for k in range(n):
        E.flat[k] = 1.0
        H[:, k] = apply(E).ravel()
        E.flat[k] = 0.0
    return H


def dense_min_eig(X, cfg):
    H = dense_hessian(X, cfg)
    H = 0.5 * (H + H.T)
    return float(np.linalg.eigvalsh(H)[0])


# ---------------------------------------------------------------------------
# pair-sum second derivatives, independent of the matrix-free operator


def per_row_penalty(X, alpha):
    """The penalty value and gradient with every row's activity decided on
    its own, rho(t) = max(t - alpha, 0)^4: the formulas the one-pass
    inactivity check must not change."""
    t = np.sqrt((X * X).sum(axis=1))
    e = np.maximum(t - alpha, 0.0)
    G = np.zeros_like(X)
    act = e > 0.0
    G[act] = (4.0 * e[act] ** 3 / t[act])[:, None] * X[act]
    return float(np.sum(e**4)), G


def per_row_penalty_hvp(X, V, alpha):
    """d^2 R(X)[V] for the unweighted row penalty, each row's activity decided
    on its own: rho''(t) on the radial part of V_i, rho'(t) / t on the rest."""
    t = np.sqrt((X * X).sum(axis=1))
    e = np.maximum(t - alpha, 0.0)
    out = np.zeros_like(V)
    act = e > 0.0
    u = X[act] / t[act][:, None]
    proj = np.einsum("ij,ij->i", V[act], u)
    out[act] = (12.0 * e[act] ** 2 * proj)[:, None] * u + (4.0 * e[act] ** 3 / t[act])[:, None] * (
        V[act] - proj[:, None] * u
    )
    return out


def reg_hess_quad(X, V, alpha):
    """<V, d^2 R(X)[V]> for the unweighted row penalty, one row at a time:
    rho''(t) on the radial part of V_i and rho'(t) / t on the rest."""
    total = 0.0
    for x, v in zip(np.asarray(X, dtype=float), np.asarray(V, dtype=float)):
        t = float(np.linalg.norm(x))
        if t <= alpha:
            continue
        e, radial = t - alpha, float(v @ x) / t
        total += 12.0 * e**2 * radial**2 + 4.0 * e**3 / t * (float(v @ v) - radial**2)
    return total


def hessian_quadratic(X, V, cfg):
    """Second directional derivative <V, d^2 f(X)[V]>, assembled from pair sums.

    Equals ||P_Omega(V X^T + X V^T)||_F^2 - 2 <P_Omega(residual), V V^T>
    plus the penalty curvature; summed over the stored pairs, weighted 2 off
    the diagonal and 1 on it, without the library's Hessian code.
    """
    X, V = np.asarray(X, dtype=float), np.asarray(V, dtype=float)
    i, j = cfg.obs.mask.i, cfg.obs.mask.j
    w = np.where(i == j, 1.0, 2.0)
    s = np.einsum("ij,ij->i", V[i], X[j]) + np.einsum("ij,ij->i", X[i], V[j])
    vv = np.einsum("ij,ij->i", V[i], V[j])
    resid = cfg.obs.values - np.einsum("ij,ij->i", X[i], X[j])
    quad = float((w * s) @ s) - 2.0 * float((w * resid) @ vv)
    return quad + cfg.hyper.reg_weight * reg_hess_quad(X, V, cfg.hyper.alpha)


# ---------------------------------------------------------------------------
# dense ground truth


def full_mask(d, include_diagonal=True):
    """Mask containing every pair (optionally without the diagonal)."""
    i, j = np.triu_indices(d, k=0 if include_diagonal else 1)
    return ObservationMask(d=d, i=i, j=j, p=1.0)


def whole_matrix_mask(d, p, include_diagonal, seed):
    """(i, j) of `sample_mask` from one d x d draw of its "mask" substream:
    the pairs on or above the diagonal (strictly above without it) whose
    uniform is below p, in row-major order."""
    U = substream(seed, "mask").random((d, d))
    return np.nonzero(np.triu(U < p, 0 if include_diagonal else 1))


def dense_gram(Z):
    """Dense M = Z Z^T from one product, bitwise symmetric (the upper triangle
    mirrored); the library itself never forms a d x d matrix."""
    G = Z @ Z.T
    return np.triu(G) + np.triu(G, 1).T


# ---------------------------------------------------------------------------
# brute-force objective


def brute_objective(X, cfg):
    """Naive loop over stored mask pairs; no vectorized paths.

    Adds the (i, j) term of each stored pair, and the (j, i) term too when
    i != j, so the data sum runs over both orders of every observed entry.
    """
    obs = cfg.obs
    total = 0.0
    for k in range(len(obs.values)):
        i = int(obs.mask.i[k])
        j = int(obs.mask.j[k])
        total += 0.5 * (obs.values[k] - float(np.dot(X[i], X[j]))) ** 2
        if i != j:
            total += 0.5 * (obs.values[k] - float(np.dot(X[j], X[i]))) ** 2
    reg = 0.0
    alpha = cfg.hyper.alpha
    for i in range(X.shape[0]):
        t = float(np.linalg.norm(X[i]))
        if t >= alpha:
            reg += (t - alpha) ** 4
    return total + cfg.hyper.reg_weight * reg


# ---------------------------------------------------------------------------
# instance helpers


# instances whose random start already overflows the objective
OVERFLOWING_INSTANCES = [
    {"d": 40, "r": 2, "seed": 3, "p": 1.0, "scale": 1e100},  # f(X0) = inf
    {"d": 20, "r": 2, "seed": 3, "p": 1.0, "sigma": 1e200},
    {"d": 20, "r": 2, "seed": 3, "p": 1.0, "sigma": 1e150},  # f(X0) finite, its gradient norm inf
    {"d": 20, "r": 2, "seed": 3, "p": 0.9, "sigma": 1e200, "include_diagonal": False},  # X0 infinite
]


def make_problem(d, r, seed, p=1.0, sigma=0.0):
    """Ground truth, observation, and objective config in one call."""
    spec = InstanceSpec(d=d, r=r, seed=seed, p=p, sigma=sigma)
    gt, obs = spec.regenerate()
    hyper = default_hyperparams(gt, p)
    return gt, obs, ObjectiveConfig(hyper, obs)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def hessian_scale(monkeypatch):
    """A setter that scales every `objective.hessian_operator` by a factor:
    a solver's first step t0 = ||G||^2 / |<G, H[G]>|, and so SGD's base
    step, is then divided by it."""

    def scale(factor):
        hessian = objective.hessian_operator

        def scaled(pt):
            H = hessian(pt)
            return lambda V: factor * H(V)

        monkeypatch.setattr(objective, "hessian_operator", scaled)

    return scale


@pytest.fixture
def lanczos_only(monkeypatch):
    """Make every min_hessian_eig run Lanczos, at any d * r: the dense route
    would otherwise take the small problems that test the Lanczos run."""
    monkeypatch.setattr(objective, "_DENSE_MAX", 0)


@pytest.fixture
def unconverged_eigensolves(monkeypatch):
    """Make every min_hessian_eig report that it did not converge."""
    solve = objective.min_hessian_eig
    monkeypatch.setattr(
        objective, "min_hessian_eig", lambda pt: replace(solve(pt), converged=False)
    )
