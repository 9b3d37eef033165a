"""Plug-in estimation of the asymptotic-variance pieces for every estimator:
the Bartlett long-run covariance behind every stage-2 term (tau^2, sigma^2,
rho), the stage-1 sensitivity vectors (c, w, v), their assembly into total
variances q vec' Sigma vec + stage-2 term, and the stage-allocation planner.

One Bartlett window rule (`lrv_matrix`) is used for every spectral quantity
so that the pieces are mutually comparable; the truncation lag is
L = floor(scale * n^(1/3)) with scale 1.5 by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SpectralConfig:
    """Bartlett-window long-run variance estimation settings."""

    truncation_scale: float = 1.5
    min_length: int = 10

    def lags(self, n: int) -> int:
        if n < self.min_length:
            raise ValueError(f"series too short for spectral estimation (n={n})")
        return max(1, min(n - 1, int(self.truncation_scale * n ** (1.0 / 3.0))))


def lrv_matrix(X, cfg: SpectralConfig | None = None) -> np.ndarray:
    """Bartlett-windowed long-run covariance matrix of a vector series (rows
    are time points), centered at the series mean."""
    cfg = cfg or SpectralConfig()
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    L = cfg.lags(n)
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / n
    for t in range(1, L + 1):
        w = 1.0 - t / (L + 1.0)
        C = Xc[t:].T @ Xc[:-t] / n
        S += w * (C + C.T)
    return (S + S.T) / 2.0


def spectral_lrv(series, cfg: SpectralConfig | None = None) -> float:
    """Bartlett-windowed long-run variance of a scalar series, clipped at 0."""
    x = np.asarray(series, dtype=float)
    S = lrv_matrix(x, cfg)      # raises on a too-short series
    # a constant series centers to exact zeros only if its mean is exact
    return 0.0 if np.ptp(x) == 0.0 else max(float(S[0, 0]), 0.0)


def chain_lrv(X, slices: Sequence[slice], a, cfg: SpectralConfig | None = None) \
        -> np.ndarray:
    """Chain-proportion-weighted long-run covariance sum_l a_l LRV(X[chain l]),
    each chain centered at its own mean (the chains are independent, so
    cross-chain terms vanish)."""
    return sum(a_l * lrv_matrix(X[sl], cfg) for a_l, sl in zip(a, slices))


def c_hat(ws, h) -> np.ndarray:
    """Plug-in stage-1 sensitivity vector of the Bayes-factor estimator."""
    u, shift = ws.terms(h)
    if ws.k == 1:
        return np.zeros(0)
    return (ws.psi.T @ u) / ws.n * math.exp(shift)


def w_hat(ws, h, beta_hat) -> np.ndarray:
    """Stage-1 sensitivity of the control-variate estimator.

    Three pieces: the c_hat component, beta_t / d_t, and the beta-weighted
    difference of chain-1 versus chain-j sample means of the psi_t terms
    (direct per-chain means; chains from both posteriors exist by design).
    """
    if ws.k == 1:
        return np.zeros(0)
    beta_hat = np.asarray(beta_hat, dtype=float)
    out = c_hat(ws, h) + beta_hat / ws.d_hat[1:]
    psi_chain_means = ws.psi_chain_means      # (k, k-1)
    diff = psi_chain_means[0][None, :] - psi_chain_means[1:, :]   # (k-1, k-1)
    return out + diff.T @ beta_hat


def v_hat(ws, centred, u_sum: float) -> np.ndarray:
    """Stage-1 sensitivities of the posterior-expectation estimators: column j
    is the posterior expectation of the centred integrand (f_j - I_j) psi,
    from the columns (f_j - I_j) u of `centred` and u_sum = sum(u)."""
    if u_sum == 0.0:
        return np.full((ws.k - 1, centred.shape[1]), math.nan)
    return ws.psi.T @ centred / u_sum


@dataclass
class VarianceBreakdown:
    """q vec' Sigma vec + stage-2 term, for one estimator at one h."""

    kind: str                 # "bf", "bf_cv", or "pe"
    stage1_term: float
    stage2_term: float
    q: float
    n: int

    @property
    def total(self) -> float:
        return self.stage1_term + self.stage2_term

    @property
    def se(self) -> float:
        return math.sqrt(self.total / self.n)


def assemble_variance(kind: str, vec, sigma_hat, stage2_term: float,
                      q: float, n: int) -> VarianceBreakdown:
    """Combine a stage-1 quadratic form with a stage-2 long-run variance.

    q is the stage-size ratio n/N; with q = 0 the stage-1 component vanishes
    and the estimator behaves as if d were known.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.size == 0:
        stage1 = 0.0
    else:
        stage1 = q * float(vec @ np.asarray(sigma_hat, dtype=float) @ vec)
    return VarianceBreakdown(kind=kind, stage1_term=max(stage1, 0.0),
                             stage2_term=max(float(stage2_term), 0.0),
                             q=q, n=n)


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
    curve_q: np.ndarray
    curve_v: np.ndarray


def predicted_variance(plan: PlanInputs, q) -> np.ndarray:
    """V(q): variance attainable with budget T at stage-size ratio q."""
    q = np.asarray(q, dtype=float)
    return (plan.v1 + plan.v2 / q) * ((q + 1.0) * plan.t1 + q * plan.g * plan.t2) / plan.T


def q_opt(plan: PlanInputs, curve_points: int = 201) -> StagePlan:
    """Optimal stage-size ratio and the implied chain lengths.

    Balances time generating stage-1 chains against time evaluating grid
    terms; large g or expensive grid terms push q toward 0.
    """
    qo = math.sqrt(plan.v2 * plan.t1 / (plan.v1 * (plan.t1 + plan.g * plan.t2)))
    n = qo * plan.T / ((qo + 1.0) * plan.t1 + qo * plan.g * plan.t2)
    curve_q = qo * np.logspace(-2, 2, curve_points)
    return StagePlan(q_opt=qo, n=n, N=n / qo, curve_q=curve_q,
                     curve_v=predicted_variance(plan, curve_q))
