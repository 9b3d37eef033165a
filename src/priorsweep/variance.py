"""Plug-in estimation of the asymptotic-variance pieces for every estimator:
the Bartlett long-run covariance behind every stage-2 term (tau^2, sigma^2,
rho), the stage-1 sensitivity vectors c and w (v comes from the stage-2
sweep), their assembly into total variances q vec' Sigma vec + stage-2 term,
and the stage-allocation planner.  The vectors and the assembly take the
rows of a block of grid points, with one identical computation per row.

One Bartlett kernel (scaled window sums S of the centered series) is used
for every spectral quantity so that the pieces are mutually comparable:
`lrv_matrix` is S S' and `lrv_diag` its diagonal, on series with time along
the last (contiguous) axis, a chain a slice of it.  The truncation lag is
L = floor(1.5 n^(1/3)), a rate Flegal & Jones (2010) study for this window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MIN_SERIES_LENGTH = 10      # shortest series a long-run variance is taken of


def _lags(n: int) -> int:
    """The Bartlett truncation lag L = floor(1.5 n^(1/3)), kept in [1, n - 1]."""
    if n < MIN_SERIES_LENGTH:
        raise ValueError(f"series too short for spectral estimation (n={n})")
    return max(1, min(n - 1, int(1.5 * n ** (1.0 / 3.0))))


def _bartlett_sums(X) -> np.ndarray:
    """S with S S' = sum_{|t|<=L} (1 - |t|/(L+1)) gamma_t for the series along
    the last axis, centered at their means: the sums of the zero-padded
    series over every window of L+1 points, scaled by 1/sqrt(n(L+1)).  Points
    t apart share L+1-|t| windows, and a zero series gives S = 0 exactly."""
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    L = _lags(n)
    # C[..., m] = sum of the first m - L centered points, m - L clamped to [0, n]
    C = np.zeros(X.shape[:-1] + (n + 2 * L + 1,))
    np.cumsum(X - X.mean(axis=-1, keepdims=True), axis=-1, out=C[..., L + 1:n + L + 1])
    C[..., n + L + 1:] = C[..., n + L, None]
    S = C[..., L + 1:] - C[..., :n + L]
    S /= math.sqrt(n * (L + 1.0))
    return S


def lrv_matrix(X) -> np.ndarray:
    """Bartlett-windowed long-run covariance matrix of a (..., K, n) vector
    series, centered at the series mean; PSD by construction."""
    S = _bartlett_sums(X)
    return S @ S.swapaxes(-1, -2)


def lrv_diag(X) -> np.ndarray:
    """The diagonal of `lrv_matrix`: one long-run variance per series of a
    (..., n) array, each reduced on its own, so stacking changes no bit."""
    S = _bartlett_sums(X)
    return np.einsum("...i,...i->...", S, S)


def chain_lrv(X, slices: Sequence[slice], a) -> np.ndarray:
    """Chain-proportion-weighted long-run covariance sum_l a_l LRV(X[..., chain l]),
    each chain centered at its own mean (the chains are independent, so
    cross-chain terms vanish)."""
    return sum(a_l * lrv_matrix(X[..., sl]) for a_l, sl in zip(a, slices))


def c_hat(ws, U, shift) -> np.ndarray:
    """Stage-1 sensitivities of the Bayes-factor estimator, one row per row
    of terms U (and its shift) from ws.terms."""
    return np.matmul(ws.psi, U[..., None])[..., 0] / ws.n * np.exp(shift)[..., None]


def w_hat(ws, c, beta_hat) -> np.ndarray:
    """Stage-1 sensitivities of the control-variate estimator, by rows.

    Three pieces: c (`c_hat` at the same h), beta_t / d_t, and the
    beta-weighted difference of chain-1 versus chain-j sample means of the
    psi_t terms (direct per-chain means; chains from both posteriors exist).
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    diff = ws.psi_chain_means[0][None, :] - ws.psi_chain_means[1:, :]   # (k-1, k-1)
    return c + beta_hat / ws.d_hat[1:] + np.matmul(diff.T, beta_hat[..., None])[..., 0]


def assemble_variance(vecs, sigma_hat, stage2_terms, q: float):
    """The two variance terms of each row of vecs, clipped at 0: the stage-1
    quadratic form q vec' Sigma vec, and that row's stage-2 long-run
    variance.  A negative term becomes 0, while -0.0 and nan pass as they
    are.

    q is the stage-size ratio n/N; with q = 0 the stage-1 component vanishes
    and the estimator behaves as if d were known.  With k = 1, the rows and
    sigma_hat are empty and the quadratic form is 0.
    """
    vecs = np.asarray(vecs, dtype=float)
    R, K = vecs.shape
    # elementwise products, then one sum along the last axis per row, so a
    # row's form does not depend on the other rows
    stage1 = q * (vecs[:, :, None] * sigma_hat * vecs[:, None, :]).reshape(R, K * K).sum(axis=1)
    stage2 = np.asarray(stage2_terms, dtype=float)
    return np.where(stage1 < 0.0, 0.0, stage1), np.where(stage2 < 0.0, 0.0, stage2)


@dataclass(frozen=True)
class PlanInputs:
    """Pilot measurements for the stage-allocation planner."""

    t1: float      # seconds per chain step
    t2: float      # seconds per grid-term evaluation
    g: float       # number of grid points
    T: float       # total budget, seconds
    v1: float      # pilot stage-1 variance component (vec' Sigma vec)
    v2: float      # pilot stage-2 variance component

    def __post_init__(self):
        for name in ("t1", "t2", "g", "T", "v1", "v2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"PlanInputs.{name} must be positive")


@dataclass
class StagePlan:
    q_opt: float
    n: float
    N: float


def predicted_variance(plan: PlanInputs, q) -> np.ndarray:
    """V(q): variance attainable with budget T at stage-size ratio q."""
    q = np.asarray(q, dtype=float)
    return (plan.v1 + plan.v2 / q) * ((q + 1.0) * plan.t1 + q * plan.g * plan.t2) / plan.T


def q_opt(plan: PlanInputs) -> StagePlan:
    """Optimal stage-size ratio and the implied chain lengths.

    Balances time generating stage-1 chains against time evaluating grid
    terms; large g or expensive grid terms push q toward 0.
    """
    qo = math.sqrt(plan.v2 * plan.t1 / (plan.v1 * (plan.t1 + plan.g * plan.t2)))
    n = qo * plan.T / ((qo + 1.0) * plan.t1 + qo * plan.g * plan.t2)
    return StagePlan(q_opt=qo, n=n, N=n / qo)
