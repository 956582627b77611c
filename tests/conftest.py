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
from mcland.objective import ObjectiveConfig, hessian_operator


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
    apply = hessian_operator(X, cfg)
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
# dense ground truth


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
def unconverged_eigensolves(monkeypatch):
    """Make every min_hessian_eig report that it did not converge."""
    solve = objective.min_hessian_eig
    monkeypatch.setattr(objective, "min_hessian_eig", lambda X, cfg: replace(solve(X, cfg), converged=False))
