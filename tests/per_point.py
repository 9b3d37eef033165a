"""References the tests compare the program against, most of them kept
from the code they replaced:

- `batch_means_lrv`, the chain-centred batch-means long-run covariance of
  `priorsweep.variance` as a loop over batches, on a time-major series
  (rows are time points);
- the Bartlett kernel that `priorsweep.variance` had before batch means,
  kept for the scalar long-run variance `spectral_lrv`, with which the
  tests judge single chains against exact values;
- the per-point stage-2 sweep that the sweep by lines of `priorsweep.surface`
  replaced: one grid point at a time, its terms as a vector from the
  family's `log_weights`, every sum over all n pooled samples at once, the
  control-variate coefficients by `np.linalg.lstsq`, and one
  `batch_means_lrv` call per point on the series themselves, with one
  `PointRecord` per point in place of the columns of a `Surface`;
- the one-point estimators `bf_hat`, `bf_cv_hat` and `pe_hat`, each
  `priorsweep.surface.surface` at one point with d taken as known, and
  `estimate_sigma`, the sandwich covariance formed
  from d_hat alone, which `priorsweep.ratio` builds from the solver's
  curvature instead;
- the max-shifted softmax kernel `softmax` and the stage-1 solver
  `estimate_d_softmax` on it, one softmax of the k x N log-terms per trial
  point, which `priorsweep.ratio.Mixture` replaced with column sums of one
  exponentiated array;
- `expanded`, the log-weight matrix with one column per draw, as it was
  before a column could stand for several draws; `estimate_sigma`,
  `estimate_d_softmax` and `point_terms` work on the draws through it.
"""

import math
from dataclasses import dataclass

import numpy as np

from priorsweep.errors import ConnectivityError
from priorsweep.ratio import MAX_ITER, TOL, LogWeightMatrix, _check_curvature, _sandwich
from priorsweep.surface import _RANK_RTOL, surface
from priorsweep.variance import MIN_SERIES_LENGTH


def batch_means_lrv(X, lengths):
    """The long-run covariance matrix of the (n, K) series X (rows are time
    points) over chains of the given lengths, one batch at a time: a chain
    of m draws has a = m // b batches of b = isqrt(m) draws from its first
    draw, and its last m - a b draws in none; each batch mean less the mean
    of its chain's batch means enters as (m/n) b/(a - 1) times its outer
    product."""
    X = np.asarray(X, dtype=float).reshape(len(X), -1)
    n = X.shape[0]
    assert sum(lengths) == n
    out = np.zeros((X.shape[1], X.shape[1]))
    first = 0
    for m in lengths:
        b = math.isqrt(m)
        a = m // b
        means = [X[first + i * b:first + (i + 1) * b].mean(axis=0) for i in range(a)]
        centre = sum(means) / a
        for mean in means:
            out += (m / n) * b / (a - 1) * np.outer(mean - centre, mean - centre)
        first += m
    return out


def _lags(n: int) -> int:
    """The Bartlett truncation lag L = floor(1.5 n^(1/3)), kept in [1, n - 1]."""
    if n < MIN_SERIES_LENGTH:
        raise ValueError(f"series too short for spectral estimation (n={n})")
    return max(1, min(n - 1, int(1.5 * n ** (1.0 / 3.0))))


def bartlett_rows(X):
    """Rows S with S'S = sum_{|t|<=L} (1 - |t|/(L+1)) gamma_t for a series
    (rows are time points) centered at its mean: the sums of the zero-padded
    series over every window of L+1 rows, scaled by 1/sqrt(n(L+1))."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    L = _lags(n)
    X = X.reshape(n, -1)
    # C[m] = sum of the first m - L centered rows, m - L clamped to [0, n]
    C = np.zeros((n + 2 * L + 1, X.shape[1]))
    np.cumsum(X - X.mean(axis=0), axis=0, out=C[L + 1:n + L + 1])
    C[n + L + 1:] = C[n + L]
    S = C[L + 1:] - C[:n + L]
    S /= math.sqrt(n * (L + 1.0))
    return S


def spectral_lrv(series):
    """Bartlett-windowed long-run variance of a scalar series."""
    x = np.asarray(series, dtype=float)
    S = bartlett_rows(x)      # raises on a too-short series
    # a constant series centers to exact zeros only if its mean is exact
    return 0.0 if np.ptp(x) == 0.0 else float(np.einsum("ij,ij->j", S, S)[0])


def _known_d(ws, h, F):
    """`surface` at the one point h for the function rows F, with d taken
    as known (q = 0, Sigma = 0)."""
    return surface(ws, [h], F, np.zeros((ws.W.k - 1,) * 2), 0.0)


def bf_hat(ws, h):
    """Importance-sampling Bayes-factor estimate B_hat(h, h_1, d_hat)."""
    return float(_known_d(ws, h, np.empty((0, ws.n))).bf[0])


def bf_cv_hat(ws, h):
    """Control-variate-adjusted Bayes-factor estimate and its regression
    coefficients (on the Y scale)."""
    est = _known_d(ws, h, np.empty((0, ws.n)))
    return float(est.bf_cv[0]), est.beta[0]


def pe_hat(ws, h, f):
    """Posterior-expectation estimate at h of the function whose values at
    the pooled samples are the row f (nan where nu_h vanishes)."""
    return float(_known_d(ws, h, np.reshape(f, (1, ws.n))).pe[0, 0])


def expanded(W):
    """W with one column per pooled draw: its draw's log weights, of
    multiplicity 1."""
    return LogWeightMatrix(logw=np.take(W.logw, W.which, axis=1), mult=np.ones(W.total),
                           which=np.arange(W.total), counts=W.counts, skeleton=W.skeleton,
                           family=W.family, stats=None, samples=W.samples)


def estimate_sigma(W, d_hat):
    """Sandwich covariance of sqrt(N)(d_hat - d), with P and the curvature
    formed at d_hat, over the draws."""
    if W.k == 1:
        return np.zeros((0, 0))
    W = expanded(W)
    z = W.logw + np.log(W.proportions)[:, None]
    z -= np.log(np.asarray(d_hat, dtype=float))[:, None]
    P = softmax(z)[1]
    return _sandwich(W, d_hat, P, _check_curvature(curvature_of(P), W.counts))


def softmax(z):
    """(lse, P): the column log-sum-exp and softmax of a k x N array of
    log-terms from one max-shifted in-place exp, so z is overwritten by P.
    An all -inf column gives lse = -inf (and a nan column of P), not nan."""
    mx = z.max(axis=0)
    mx[np.isneginf(mx)] = 0.0
    z -= mx
    np.exp(z, out=z)
    s = z.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= s
        return mx + np.log(s), z


def curvature_of(P):
    """The k x k negative Hessian diag(P 1) - P P' of the quasi-likelihood."""
    return np.diag(P.sum(axis=1)) - P @ P.T


def softmax_objective(base, eta, counts):
    """The log quasi-likelihood at eta, the column lse and P from one softmax
    of base - eta, base = logw + log a."""
    lse, P = softmax(base - eta[:, None])
    return -float(counts @ eta) - float(lse.sum()), lse, P


def estimate_d_softmax(W):
    """The stage-1 solver of `priorsweep.ratio.estimate_d` with a softmax of
    the k x N log-terms at every trial point: the same starts, line search,
    acceptance rule and trace, over the draws; returns (d_hat, iterations,
    trace, P, curvature) for k >= 2, P with a column per draw."""
    W = expanded(W)
    k, N = W.k, W.total
    counts = W.counts.astype(float)
    base = W.logw + np.log(counts / N)[:, None]
    state, trace = {}, []

    def set_point(eta, value, lse, P):
        grad = P.sum(axis=1) - counts
        step = float(np.max(np.abs(eta - state["eta"]))) if state else 0.0
        state.update(eta=eta, value=value, lse=lse, P=P, grad=grad,
                     grad_norm=np.max(np.abs(grad[1:])) / N)
        trace.append({"objective": value, "grad_norm": float(state["grad_norm"]),
                      "step": step})

    def try_point(trial):
        t_value, t_lse, t_P = softmax_objective(base, trial, counts)
        if not np.isfinite(t_value):
            return False
        near = t_value >= state["value"] - 1e-13 * max(abs(state["value"]), 1.0)
        if t_value > state["value"] or (
                near and np.max(np.abs((t_P.sum(axis=1) - counts)[1:])) / N
                < 0.9 * state["grad_norm"]):
            set_point(trial, t_value, t_lse, t_P)
            return True
        return False

    def fixed_point_step():
        row_lse, _ = softmax((W.logw - state["lse"]).T)
        trial = row_lse - np.log(N)
        return try_point(trial - trial[0])

    set_point(np.zeros(k), *softmax_objective(base, np.zeros(k), counts))
    iterations = int(state["grad_norm"] >= TOL and fixed_point_step())
    while state["grad_norm"] >= TOL:
        assert iterations < MAX_ITER
        step = np.linalg.solve(curvature_of(state["P"])[1:, 1:], state["grad"][1:])
        for alpha in 0.5 ** np.arange(40):
            trial = state["eta"].copy()
            trial[1:] += alpha * step
            if try_point(trial):
                break
        else:
            if not fixed_point_step():
                raise ConnectivityError("reference solver stalled")
        iterations += 1
    P = state["P"]
    return (np.exp(state["eta"]), iterations, trace, P,
            _check_curvature(curvature_of(P), counts))


def point_terms(ws, h):
    """The shifted importance terms u = Y e^-shift at one grid point."""
    lognum = ws.W.family.log_weights(ws.W.family.validate_h(h), ws.W.stats)[ws.W.which]
    t = np.asarray(lognum, dtype=float) - ws.log_den
    shift = float(np.max(t))
    if math.isinf(shift):
        return np.zeros(ws.n), 0.0
    return np.exp(t - shift), shift


def cv_coefficients(ws, u):
    """The least-squares coefficients of u on (1, Z), less the intercept:
    the minimum-norm solution, with singular values at or below
    `_RANK_RTOL` times the largest taken as zero."""
    design = np.column_stack([np.ones(ws.n), ws.Z.T])
    return np.linalg.lstsq(design, u, rcond=_RANK_RTOL)[0][1:]


def draw_psi(ws):
    """psi in the draws' order; the workspace holds it in the sweep's."""
    out = np.empty_like(ws.sweep_psi)
    out[:, ws.order] = ws.sweep_psi
    return out


def c_hat(ws, u, shift):
    return (draw_psi(ws) @ u) / ws.n * math.exp(shift)


def w_hat(ws, c, beta):
    """c, plus beta_t / d_t, plus the beta-weighted difference of the
    chain-1 and chain-t means of psi."""
    means = np.stack([chain.mean(axis=1) for chain in np.split(
        draw_psi(ws), np.cumsum(ws.W.counts)[:-1], axis=1)])
    diff = means[0][None, :] - means[1:, :]
    return c + beta / ws.d_hat[1:] + diff.T @ beta


def v_hat(ws, centred, u_sum):
    """Column j: psi' (f_j - I_j) u / sum(u), from centred = (f_j - I_j) u."""
    if u_sum == 0.0:
        return np.full((ws.W.k - 1, centred.shape[1]), math.nan)
    return draw_psi(ws) @ centred / u_sum


@dataclass
class VarianceTerms:
    """q vec' Sigma vec + stage-2 term, for one estimator at one h."""

    stage1_term: float
    stage2_term: float
    n: int

    @property
    def total(self) -> float:
        return self.stage1_term + self.stage2_term

    @property
    def se(self) -> float:
        return math.sqrt(self.total / self.n)


@dataclass
class PointRecord:
    """Point estimates at one h and their variance terms, keyed "bf",
    "bf_cv" and "pe:<name>", in the order of a `Surface`'s columns."""

    h: tuple
    bf: float
    bf_cv: float
    beta: np.ndarray
    pe: dict[int, float]
    var: dict[str, VarianceTerms]
    ess: float
    max_weight_share: float


def assemble_variance(vec, sigma_hat, stage2_term, q, n):
    stage1 = q * float(vec @ np.asarray(sigma_hat, dtype=float) @ vec)
    return VarianceTerms(stage1_term=max(stage1, 0.0),
                         stage2_term=max(float(stage2_term), 0.0), n=n)


def surface_by_point(ws, grid, F, sigma_hat, q):
    """Every record of `surface`, one grid point at a time, for the
    function rows F; a function's pe and var entries are keyed by its row."""
    F = np.asarray(F, dtype=float).T
    records = []
    for h in grid:
        h = ws.W.family.validate_h(h)
        u, shift = point_terms(ws, h)
        scale = math.exp(shift)
        u_mean = float(u.mean())
        u_sum = float(np.sum(u))
        beta_u = cv_coefficients(ws, u)
        beta = beta_u * scale
        bf_cv = (u_mean - float(ws.z_means @ beta_u)) * scale
        pe = (np.array([float(np.sum(F[:, j] * u)) / u_sum for j in range(F.shape[1])])
              if u_sum > 0.0 else np.full(F.shape[1], math.nan))
        centred = (F - (pe if u_mean > 0.0 else 0.0)) * u[:, None]
        series = np.column_stack([u, u - (beta * math.exp(-shift)) @ ws.Z, centred])
        lrv = np.diag(batch_means_lrv(series, ws.W.counts.tolist()))
        scale2 = math.exp(2.0 * shift)
        c = c_hat(ws, u, shift)
        var = {"bf": assemble_variance(c, sigma_hat, lrv[0] * scale2, q, ws.n),
               "bf_cv": assemble_variance(w_hat(ws, c, beta), sigma_hat,
                                          lrv[1] * scale2, q, ws.n)}
        v = v_hat(ws, centred, u_sum)
        for j, (lrv_f, v_f) in enumerate(zip(lrv[2:], v.T)):
            rho = lrv_f / (u_mean * u_mean) if u_mean > 0.0 else math.nan
            var[f"pe:{j}"] = assemble_variance(v_f, sigma_hat, rho, q, ws.n)
        with np.errstate(divide="ignore", invalid="ignore"):
            ess = float(np.float64(u_sum) ** 2 / (u @ u))
            share = float(np.float64(u.max()) / u_sum)
        records.append(PointRecord(
            h=h, bf=scale * u_mean, bf_cv=bf_cv, beta=beta,
            pe={j: float(p) for j, p in enumerate(pe)}, var=var,
            ess=ess, max_weight_share=share))
    return records
