"""Stage 2: sweep a hyperparameter grid, estimating Bayes factors (plain and
control-variate-adjusted) and posterior expectations, each with its plug-in
variance, from the pooled stage-2 chains and the stage-1 ratio estimate.
`surface` is the one stage-2 estimator: every estimate, sensitivity vector
and variance term comes from it.

The mixture denominator sum_s a_s nu_{h_s}(theta)/d_s does not depend on the
grid point, so it is computed once per workspace, with the chains' batch
layout and the control-variate map; the grid is then swept in blocks of
max(1, SERIES_BLOCK // ((J + 2) n)) points, so that a block's (B, J + 2, n)
stage-2 series hold about SERIES_BLOCK floats whatever the number J of
functions, and each per-point quantity is a row reduction or one identical
call per row, so a point's numbers do not depend on its block.  All
accumulation happens after subtracting the cached log denominator and a
per-grid-point max shift, which keeps the sums finite even when nu_h is
many orders of magnitude away from the skeleton mixture."""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesignWarning, SupportWarning
from .ratio import LogWeightMatrix, Mixture
from .variance import BatchLayout, lrv_diag

_RANK_RTOL = 1e-10
SERIES_BLOCK = 1 << 16      # floats of one block's (B, J + 2, n) stage-2 series


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
        self.d_hat = d_hat
        a = W.proportions
        # log_den and the membership probabilities P_s = a_s nu_s / (d_s den)
        # from the stage-1 kernel at eta = log d_hat, P written over its E
        mix = Mixture(W, np.log(d_hat))
        _, s, self.log_den = mix.objective(mix.ref)
        P = mix.probabilities(mix.ref, s, mix.E)
        # Z_j = nu_j/(d_j den) - nu_1/den and psi_j = a_j nu_j/(d_j^2 den),
        # (k-1, n) arrays with the samples along the last axis
        self.Z = P[1:] / a[1:, None] - P[0] / a[0]
        self.psi = P[1:] / d_hat[1:, None]
        self.z_means = self.Z.mean(axis=1)
        # w = c + beta M: M is diag(1/d_t) plus, in row t, the chain-1 less
        # the chain-t means of psi (direct per-chain means, as chains from
        # both posteriors exist)
        means = np.stack([chain.mean(axis=1) for chain in np.split(
            self.psi, np.cumsum(W.counts)[:-1], axis=1)])              # (k, k-1)
        self.M = np.diag(1.0 / d_hat[1:]) + (means[0] - means[1:])     # (k-1, k-1)
        self.batches = BatchLayout(W.counts)
        # least squares onto (1, Z) is the pseudo-inverse of the design; its
        # rows past the intercept map any u to beta.  Singular values at or
        # below _RANK_RTOL * s_max count as zero (numpy's rcond rule), which
        # gives the minimum-norm solution; with k = 1 the map has no rows.
        U, s, Vt = np.linalg.svd(np.vstack([np.ones(self.n), self.Z]).T,
                                 full_matrices=False)
        keep = s > _RANK_RTOL * s[0]
        self._cv_map = (Vt[keep, 1:].T / s[keep]) @ U[:, keep].T   # (k-1, n)
        self._rank_warning_due = not keep.all()

    @property
    def n(self) -> int:
        return self.W.total

    def terms(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Shifted importance terms of a block of grid points, one row per
        point: U[b] = Y e^-shift[b] with Y_p = nu_h(theta_p) / (sum_s a_s
        nu_{h_s}(theta_p)/d_hat_s), the largest term of a row 1, or zeros and
        shift 0 where nu_h vanishes on every pooled sample."""
        U = np.empty((len(points), self.n))
        for row, h in zip(U, points):
            row[:] = self.W.family.log_weights(h, self.W.stats)
        U -= self.log_den
        shift = U.max(axis=1)
        shift[np.isneginf(shift)] = 0.0
        U -= shift[:, None]
        np.exp(U, out=U)
        return U, shift

    def cv_coefficients(self, U: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of each row of U on (1, Z), less the
        intercept; the minimum-norm solution, with a degeneracy warning
        (once per workspace) when the design is rank deficient."""
        if self._rank_warning_due:
            warnings.warn(
                "control-variate design is rank deficient; using the "
                "minimum-norm least-squares solution",
                DegenerateDesignWarning, stacklevel=3)
            self._rank_warning_due = False
        return np.matmul(self._cv_map, U[..., None])[..., 0]


class Surface(NamedTuple):
    """Every estimate at every grid point, one row per point; the variance
    columns are those of bf, bf_cv and each function's pe, in that order.
    ess is the Kish effective sample size (sum u)^2 / sum u^2 of the terms
    and max_weight_share the largest term's share of their sum."""

    h: np.ndarray                  # (G, d)
    bf: np.ndarray                 # (G,)
    bf_cv: np.ndarray              # (G,)
    beta: np.ndarray               # (G, k-1)
    pe: np.ndarray                 # (G, J) nan where nu_h vanishes
    ess: np.ndarray                # (G,) nan where nu_h vanishes
    max_weight_share: np.ndarray   # (G,) nan where nu_h vanishes
    stage1: np.ndarray             # (G, 2 + J) q vec' Sigma vec
    stage2: np.ndarray             # (G, 2 + J) tau^2, sigma^2, rho_j
    n: int

    @property
    def total(self) -> np.ndarray:
        return self.stage1 + self.stage2

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(self.total / self.n)


def surface(ws: Stage2Workspace, grid, F: np.ndarray,
            sigma_hat: np.ndarray, q: float) -> Surface:
    """Evaluate every estimator and its plug-in variance at every grid point,
    for the functions whose values at the pooled samples are the rows of the
    (J, n) array F.

    A block's (B, J + 2, n) series X are built once over the pooled draws.
    Rows 2.. first hold f_j u, and the posterior expectations are their sums
    over the sum of u (so f == 1 gives exactly 1 and 0/1-valued f stays in
    [0, 1]); they are then overwritten with (f_j - I_j) u, next to rows 0
    and 1, u and u - Z beta.  The stage-2 terms are the batch-means long-run
    variances (`lrv_diag` over the workspace's batch layout) of those
    series: tau^2, sigma^2 and Ybar^2 rho_j.  Batch means are bilinear with
    per-chain centering, so the last equals (1, -I_j) Gamma (1, -I_j)' for
    the joint long-run covariance Gamma of (f_j Y, Y), and f == 1 gives a
    zero series and rho = 0 exactly.  Only the shifted terms u = Y e^-shift
    are formed; rho is scale free, the other two are rescaled.

    The stage-1 terms are q vec' Sigma vec, clipped at 0, with vec = c, w
    or v, the sensitivities of each estimator to d_hat.  One product of X
    with psi gives c (row 0, times e^shift / n) and v (rows 2.., over sum
    u), and w = c + beta M.  Each form is summed along its own row, so a
    point's numbers do not depend on its block.  With q = 0 or Sigma = 0
    the stage-1 terms are 0 and each estimator behaves as if d were known;
    with k = 1 the vectors are empty and the forms 0.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != ws.n:
        raise ValueError(f"function rows have shape {F.shape}, need (J, {ws.n})")
    if not np.isfinite(F).all():
        raise ValueError("function rows hold non-finite values")
    J = len(F)
    H = ws.W.family.validate_grid(grid)
    G, K = len(H), ws.W.k - 1
    out = Surface(H, *(np.empty((G, *shape)) for shape in
                       ((), (), (K,), (J,), (), (), (2 + J,), (2 + J,))), n=ws.n)
    step = max(1, SERIES_BLOCK // ((J + 2) * ws.n))
    for start in range(0, G, step):
        rows = slice(start, start + step)
        U, shift = ws.terms(H[rows])
        B = len(U)
        u_sum = U.sum(axis=1)
        live = u_sum > 0.0
        for h in H[rows][~live]:
            warnings.warn(f"nu_h vanishes on every pooled sample at h={tuple(map(float, h))}: "
                          f"the Bayes factor is 0 and posterior expectations are "
                          f"undefined", SupportWarning, stacklevel=2)
        X = np.empty((B, J + 2, ws.n))
        np.multiply(F, U[:, None, :], out=X[:, 2:])
        pe = np.full((B, J), math.nan)
        np.divide(X[:, 2:].sum(axis=2), u_sum[:, None], out=pe, where=live[:, None])
        mean_u = u_sum / ws.n
        beta_u = ws.cv_coefficients(U)
        scale = np.exp(shift)
        out.bf[rows] = scale * mean_u
        out.bf_cv[rows] = scale * (mean_u - (beta_u * ws.z_means).sum(axis=1))
        out.beta[rows] = beta = beta_u * scale[:, None]
        out.pe[rows] = pe
        X[:, 0] = U
        np.matmul(beta_u[:, None, :], ws.Z, out=X[:, 1:2])
        np.subtract(U, X[:, 1], out=X[:, 1])
        # with nu_h vanishing everywhere u is 0 and pe is nan
        np.subtract(F, np.where(live[:, None], pe, 0.0)[:, :, None], out=X[:, 2:])
        X[:, 2:] *= U[:, None, :]
        lrv = lrv_diag(X, ws.batches)
        vecs = np.matmul(X, ws.psi.T)                   # (B, 2 + J, k-1)
        vecs[:, 0] /= ws.n
        vecs[:, 0] *= scale[:, None]
        np.matmul(beta[:, None, :], ws.M, out=vecs[:, 1:2])
        vecs[:, 1] += vecs[:, 0]
        np.multiply(lrv[:, :2], np.exp(2.0 * shift)[:, None], out=out.stage2[rows, :2])
        with np.errstate(divide="ignore", invalid="ignore"):
            vecs[:, 2:] /= u_sum[:, None, None]
            np.divide(lrv[:, 2:], (mean_u * mean_u)[:, None], out=out.stage2[rows, 2:])
            out.ess[rows] = u_sum * u_sum / np.square(U).sum(axis=1)
            out.max_weight_share[rows] = U.max(axis=1) / u_sum
        # elementwise products, then one sum along the last axis per row
        form = q * (vecs[..., :, None] * sigma_hat * vecs[..., None, :]).reshape(
            B, 2 + J, K * K).sum(axis=-1)
        out.stage1[rows] = np.where(form < 0.0, 0.0, form)
    return out
