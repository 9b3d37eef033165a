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

from .errors import DegenerateDesignWarning, SupportWarning
from .families import FunctionOfTheta
from .ratio import LogWeightMatrix, _check_support, _softmax
from .variance import (VarianceBreakdown, assemble_variance, c_hat, chain_lrv,
                       lrv_diag, v_hat, w_hat)

_RANK_RTOL = 1e-10


class Stage2Workspace:
    """Cached denominators, control variates, and the control-variate map."""

    def __init__(self, W: LogWeightMatrix, d_hat):
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
        a = W.proportions
        # log_den and the membership probabilities P_s = a_s nu_s / (d_s den)
        # from one kernel call
        self.log_den, P = _softmax(W.logw + (np.log(a) - np.log(d_hat))[:, None])
        _check_support(W, self.log_den)
        # Z_j = nu_j/(d_j den) - nu_1/den and psi_j = a_j nu_j/(d_j^2 den)
        self.Z = np.ascontiguousarray((P[1:] / a[1:, None] - P[0] / a[0]).T)
        self.psi = np.ascontiguousarray((P[1:] / d_hat[1:, None]).T)
        self.z_means = self.Z.mean(axis=0)
        self.psi_chain_means = np.vstack([self.psi[sl].mean(axis=0)
                                          for sl in W.chain_slices])   # (k, k-1)
        # least squares onto (1, Z) is the pseudo-inverse of the design; its
        # rows past the intercept map any u to beta.  Singular values at or
        # below _RANK_RTOL * s_max count as zero (numpy's rcond rule), which
        # gives the minimum-norm solution; with k = 1 the map has no rows.
        U, s, Vt = np.linalg.svd(np.column_stack([np.ones(self.n), self.Z]),
                                 full_matrices=False)
        keep = s > _RANK_RTOL * s[0]
        self._cv_map = (Vt[keep, 1:].T / s[keep]) @ U[:, keep].T   # (k-1, n)
        self._rank_warning_due = not keep.all()

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

    def terms(self, h) -> tuple[np.ndarray, float]:
        """Shifted importance terms u_p = Y_p * exp(-shift) for grid point h;
        Y_p = nu_h(theta_p) / (sum_s a_s nu_{h_s}(theta_p)/d_hat_s)."""
        h = self.family.validate_h(h)
        lognum = np.asarray(self.family.log_weights(h, self.W.stats), dtype=float)
        t = lognum - self.log_den
        shift = float(np.max(t))
        if math.isinf(shift):   # nu_h vanishes on every pooled sample
            u = np.zeros(self.n)
            shift = 0.0
        else:
            u = np.exp(t - shift)
        return u, shift

    def cv_coefficients(self, u: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of u on (1, Z), less the intercept; the
        minimum-norm solution, with a degeneracy warning when the design is
        rank deficient."""
        if self._rank_warning_due:
            warnings.warn(
                "control-variate design is rank deficient; using the "
                "minimum-norm least-squares solution",
                DegenerateDesignWarning, stacklevel=3)
            self._rank_warning_due = False
        return self._cv_map @ u


def _function_matrix(ws: Stage2Workspace, functions) -> np.ndarray:
    """(n, J) matrix whose column j holds f_j at every pooled sample."""
    F = np.empty((ws.n, len(functions)))
    for j, f in enumerate(functions):
        vals = f(ws.W.samples)
        if vals.shape != (ws.n,):
            raise ValueError(f"function {f.name!r} returned wrong shape")
        F[:, j] = vals
    return F


def _estimates(ws: Stage2Workspace, h, u: np.ndarray, shift: float,
               F: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Every point estimate at h from the terms (u, shift): the Bayes factor,
    the control-variate Bayes factor with its coefficients (on the Y scale),
    and the posterior expectation of each column of F, a ratio of two sums
    (exactly 1 for f == 1, and in [0, 1] exactly for 0/1-valued f)."""
    scale = math.exp(shift)
    mean_u = float(u.mean())
    beta_u = ws.cv_coefficients(u)
    est = mean_u - float(ws.z_means @ beta_u)
    den = float(np.sum(u))
    if den == 0.0:
        warnings.warn(f"nu_h vanishes on every pooled sample at h={h}: the "
                      f"Bayes factor is 0 and posterior expectations are "
                      f"undefined", SupportWarning, stacklevel=3)
        pe = np.full(F.shape[1], math.nan)
    else:
        pe = np.array([float(np.sum(F[:, j] * u)) / den for j in range(F.shape[1])])
    return scale * mean_u, est * scale, beta_u * scale, pe


def _point(ws: Stage2Workspace, h, functions=()):
    return _estimates(ws, h, *ws.terms(h), _function_matrix(ws, functions))


def bf_hat(ws: Stage2Workspace, h) -> float:
    """Importance-sampling Bayes-factor estimate B_hat(h, h_1, d_hat)."""
    return _point(ws, h)[0]


def bf_cv_hat(ws: Stage2Workspace, h) -> tuple[float, np.ndarray]:
    """Control-variate-adjusted Bayes-factor estimate and its regression
    coefficients (on the Y scale)."""
    return _point(ws, h)[1:3]


def pe_hat(ws: Stage2Workspace, h, f: FunctionOfTheta) -> float:
    """Posterior-expectation estimate of f at h (nan where nu_h vanishes)."""
    return float(_point(ws, h, [f])[3][0])


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
            sigma_hat: np.ndarray, q: float) -> list[SurfaceRecord]:
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
    F = _function_matrix(ws, functions)
    records = []
    for h in grid:
        h = ws.family.validate_h(h)
        u, shift = ws.terms(h)
        bf, bf_cv, beta, pe = _estimates(ws, h, u, shift, F)
        u_mean = float(u.mean())
        # with nu_h vanishing everywhere u is 0 and pe is nan
        centred = (F - (pe if u_mean > 0.0 else 0.0)) * u[:, None]
        series = np.column_stack([u, u - ws.Z @ (beta * math.exp(-shift)), centred])
        lrv = chain_lrv(series, ws.chain_slices, ws.proportions, reduce=lrv_diag)
        scale = math.exp(2.0 * shift)
        c = c_hat(ws, u, shift)
        var = {"bf": assemble_variance(c, sigma_hat, lrv[0] * scale, q, ws.n),
               "bf_cv": assemble_variance(w_hat(ws, c, beta), sigma_hat,
                                          lrv[1] * scale, q, ws.n)}
        v = v_hat(ws, centred, float(u.sum()))
        for f, lrv_f, v_f in zip(functions, lrv[2:], v.T):
            rho = lrv_f / (u_mean * u_mean) if u_mean > 0.0 else math.nan
            var[f"pe:{f.name}"] = assemble_variance(v_f, sigma_hat, rho, q, ws.n)
        pes = {f.name: float(p) for f, p in zip(functions, pe)}
        records.append(SurfaceRecord(h=h, bf=bf, bf_cv=bf_cv, beta=beta, pe=pes, var=var))
    return records
