"""Stage 2: sweep a hyperparameter grid, estimating Bayes factors (plain and
control-variate-adjusted) and posterior expectations, each with its plug-in
variance, from the pooled stage-2 chains and the stage-1 ratio estimate.

The mixture denominator sum_s a_s nu_{h_s}(theta)/d_s does not depend on the
grid point, so it is computed once per workspace; each grid point then costs
O(n) arithmetic on cached arrays.  All accumulation happens after subtracting
the cached log denominator and a per-grid-point max shift, which keeps the
sums finite even when nu_h is many orders of magnitude away from the skeleton
mixture.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from .errors import DegenerateDesignWarning, SupportViolationError, SupportWarning
from .families import FunctionOfTheta
from .ratio import LogWeightMatrix, RatioEstimate
from .variance import (SpectralConfig, VarianceBreakdown, assemble_variance,
                       c_hat, chain_lrv, v_hat, w_hat)

_RANK_RTOL = 1e-10


class Stage2Workspace:
    """Cached denominators, control variates, and regression factors."""

    def __init__(self, W: LogWeightMatrix, d_hat):
        if isinstance(d_hat, RatioEstimate):
            d_hat = d_hat.d_hat
        d_hat = np.asarray(d_hat, dtype=float)
        if d_hat.shape != (W.k,):
            raise ValueError(f"d_hat must have length k={W.k}")
        if not math.isclose(d_hat[0], 1.0, rel_tol=1e-12):
            raise ValueError("d_hat must be normalized with first entry 1")
        if np.any(d_hat <= 0):
            raise ValueError("d_hat entries must be positive")
        self.W = W
        self.family = W.family
        self.d_hat = d_hat
        self.log_d = np.log(d_hat)
        self.log_a = np.log(W.proportions)
        z = W.logw + (self.log_a - self.log_d)[:, None]
        self.log_den = logsumexp(z, axis=0)
        dead = np.flatnonzero(np.isneginf(self.log_den))
        if dead.size:
            p = int(dead[0])
            raise SupportViolationError(
                f"pooled sample {p} (chain {W.chain_of(p)}) has zero mixture "
                f"density; the support condition fails"
            )
        k = W.k
        if k > 1:
            ref = np.exp(W.logw[0] - self.log_den)
            self.Z = np.column_stack([
                np.exp(W.logw[j] - self.log_d[j] - self.log_den) - ref
                for j in range(1, k)
            ])
            self.psi = np.column_stack([
                np.exp(self.log_a[j] + W.logw[j] - 2.0 * self.log_d[j] - self.log_den)
                for j in range(1, k)
            ])
        else:
            self.Z = np.zeros((W.total, 0))
            self.psi = np.zeros((W.total, 0))
        self.z_means = self.Z.mean(axis=0) if k > 1 else np.zeros(0)
        self.psi_chain_means = np.vstack([
            self.psi[sl].mean(axis=0) for sl in W.chain_slices
        ]) if k > 1 else np.zeros((1, 0))
        self._design_q = None
        self._design_r = None
        self._design_rank_deficient = False
        self._warned_rank = False
        if k > 1:
            design = np.column_stack([np.ones(W.total), self.Z])
            q_fac, r_fac = np.linalg.qr(design, mode="reduced")
            diag = np.abs(np.diag(r_fac))
            self._design_rank_deficient = bool(np.any(diag <= _RANK_RTOL * diag.max()))
            self._design = design
            if not self._design_rank_deficient:
                self._design_q, self._design_r = q_fac, r_fac
        self._f_cache: dict[str, np.ndarray] = {}
        self._terms_cache: tuple | None = None

    # basic geometry
    @property
    def k(self) -> int:
        return self.W.k

    @property
    def n(self) -> int:
        return self.W.total

    @property
    def proportions(self) -> np.ndarray:
        return self.W.proportions

    @property
    def chain_slices(self):
        return self.W.chain_slices

    def function_values(self, f: FunctionOfTheta) -> np.ndarray:
        if f.name not in self._f_cache:
            vals = f(self.W.samples)
            if vals.shape != (self.n,):
                raise ValueError(f"function {f.name!r} returned wrong shape")
            self._f_cache[f.name] = vals
        return self._f_cache[f.name]

    def terms(self, h) -> tuple[np.ndarray, float]:
        """Shifted importance terms u_p = Y_p * exp(-shift) for grid point h;
        Y_p = nu_h(theta_p) / (sum_s a_s nu_{h_s}(theta_p)/d_hat_s)."""
        h = self.family.validate_h(h)
        if self._terms_cache is not None and self._terms_cache[0] == h:
            return self._terms_cache[1], self._terms_cache[2]
        lognum = np.asarray(self.family.log_weights(h, self.W.stats), dtype=float)
        t = lognum - self.log_den
        shift = float(np.max(t))
        if math.isinf(shift):   # nu_h vanishes on every pooled sample
            u = np.zeros(self.n)
            shift = 0.0
        else:
            u = np.exp(t - shift)
        self._terms_cache = (h, u, shift)
        return u, shift

    def cv_coefficients(self, u: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of u on (1, Z); pseudo-inverse solution
        with a degeneracy warning when the design is rank deficient."""
        if self.k == 1:
            return np.zeros(0)
        if self._design_rank_deficient:
            if not self._warned_rank:
                warnings.warn(
                    "control-variate design is rank deficient; using the "
                    "minimum-norm least-squares solution",
                    DegenerateDesignWarning, stacklevel=3)
                self._warned_rank = True
            coef, *_ = np.linalg.lstsq(self._design, u, rcond=_RANK_RTOL)
        else:
            coef = solve_triangular(self._design_r, self._design_q.T @ u,
                                    lower=False, check_finite=False)
        return coef[1:]


def bf_hat(ws: Stage2Workspace, h) -> float:
    """Importance-sampling Bayes-factor estimate B_hat(h, h_1, d_hat)."""
    u, shift = ws.terms(h)
    mean_u = float(u.mean())
    if mean_u == 0.0:
        warnings.warn(f"nu_h vanishes on every pooled sample at h={h}",
                      SupportWarning, stacklevel=2)
        return 0.0
    return math.exp(shift) * mean_u


def bf_cv_hat(ws: Stage2Workspace, h) -> tuple[float, np.ndarray]:
    """Control-variate-adjusted Bayes-factor estimate and its regression
    coefficients (on the Y scale)."""
    u, shift = ws.terms(h)
    beta_u = ws.cv_coefficients(u)
    est = float(u.mean()) - float(ws.z_means @ beta_u) if beta_u.size else float(u.mean())
    scale = math.exp(shift)
    return est * scale, beta_u * scale


def pe_hat(ws: Stage2Workspace, h, f: FunctionOfTheta) -> float:
    """Posterior-expectation estimate of f at h: a ratio of two weighted sums
    sharing the cached denominators.  Exactly 1 for f identically 1, and for
    0/1-valued f the value lies in [0, 1] exactly (termwise-dominated sums)."""
    fv = ws.function_values(f)
    u, _ = ws.terms(h)
    den = float(np.sum(u))
    if den == 0.0:
        warnings.warn(f"undefined posterior expectation at h={h}: "
                      f"nu_h vanishes on every pooled sample",
                      SupportWarning, stacklevel=2)
        return math.nan
    num = float(np.sum(fv * u))
    return num / den


def bf_gradient_hat(ws: Stage2Workspace, h) -> np.ndarray:
    """Gradient of the Bayes-factor surface: the numerator weight nu_h is
    replaced by its h-derivative nu_h * dlog nu_h/dh."""
    grads = np.asarray(ws.family.grad_log_weights(h, ws.W.stats), dtype=float)
    u, shift = ws.terms(h)
    return (grads.T @ u) / ws.n * math.exp(shift)


@dataclass
class SurfaceRecord:
    """Point estimates at one h and their variance breakdowns, keyed "bf",
    "bf_cv" and "pe:<name>"; standard errors are var[key].se."""

    h: tuple
    bf: float
    bf_cv: float
    beta: np.ndarray
    pe: dict[str, float]
    var: dict[str, VarianceBreakdown]


def surface(ws: Stage2Workspace, grid, functions: list[FunctionOfTheta],
            sigma_hat: np.ndarray, q: float, cfg: SpectralConfig | None = None) \
        -> list[SurfaceRecord]:
    """Evaluate every estimator and its plug-in variance at every grid point.

    The stage-1 terms are q vec' Sigma vec with vec = c, w or v.  The
    stage-2 terms come from one chain-weighted Bartlett covariance of the
    stacked series [Y, Y - Z beta, (f_j - I_j) Y ...]: its diagonal holds
    tau^2, sigma^2 and Ybar^2 rho_j.  The Bartlett estimate is bilinear with
    per-chain centering, so the last equals (1, -I_j) Gamma (1, -I_j)' for
    the joint long-run covariance Gamma of (f_j Y, Y), and f == 1 gives a
    zero series and rho = 0 exactly.  Only the shifted terms u = Y e^-shift
    are formed; rho is scale free, the other two are rescaled.
    """
    cfg = cfg or SpectralConfig()
    records = []
    for h in grid:
        h = ws.family.validate_h(h)
        bf = bf_hat(ws, h)
        bf_cv, beta = bf_cv_hat(ws, h)
        pes = {f.name: pe_hat(ws, h, f) for f in functions}
        u, shift = ws.terms(h)
        u_mean = float(u.mean())
        series = [u, u - ws.Z @ (beta * math.exp(-shift))]
        for f in functions:
            # with nu_h vanishing everywhere u is 0 and pe_hat is nan
            centre = pes[f.name] if u_mean > 0.0 else 0.0
            series.append((ws.function_values(f) - centre) * u)
        lrv = np.diag(chain_lrv(np.column_stack(series), ws.chain_slices,
                                ws.proportions, cfg))
        scale = math.exp(2.0 * shift)
        var = {
            "bf": assemble_variance("bf", c_hat(ws, h), sigma_hat,
                                    lrv[0] * scale, q, ws.n),
            "bf_cv": assemble_variance("bf_cv", w_hat(ws, h, beta), sigma_hat,
                                       lrv[1] * scale, q, ws.n),
        }
        for f, lrv_f in zip(functions, lrv[2:]):
            rho = lrv_f / (u_mean * u_mean) if u_mean > 0.0 else math.nan
            var[f"pe:{f.name}"] = assemble_variance("pe", v_hat(ws, h, f),
                                                    sigma_hat, rho, q, ws.n)
        records.append(SurfaceRecord(h=h, bf=bf, bf_cv=bf_cv, beta=beta,
                                     pe=pes, var=var))
    return records
