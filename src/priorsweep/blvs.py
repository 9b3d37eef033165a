"""Bayesian linear variable selection with a Zellner g-prior.

Model for response y (length m) and q candidate predictors:

    y ~ N(1 beta0 + X_gamma beta_gamma, sigma^2 I)
    p(sigma^2, beta0) proportional to 1/sigma^2
    beta_gamma | sigma ~ N(0, g sigma^2 (X_gamma' X_gamma)^{-1})
    gamma_i iid Bernoulli(w)

indexed by the hyperparameter h = (w, g).  Predictor columns are centered
before analysis so the flat-prior intercept is orthogonal to beta_gamma;
with that convention every per-model marginal likelihood is closed form,
which yields an exact enumeration oracle for q <= 25 alongside the Gibbs
sampler.  The priors across h are not mutually absolutely continuous with
respect to a common density, but their pairwise ratios are, and
``log_prior_weight`` evaluates a representative of that ratio with no matrix
inversion or determinant.
"""

from __future__ import annotations

import csv
import logging
import math
import weakref
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dtrtrs

from .errors import InvalidHyperparameterError, SingularDesignError
from .families import ChainSpec, DensityFamily, FunctionOfTheta

logger = logging.getLogger(__name__)

ENUMERATION_MAX_Q = 25


def _solve_lower(L: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """L^{-1} b, or L^{-T} b, for a C-ordered lower-triangular L.

    This is LAPACK trtrs on the Fortran-ordered view L', called as
    scipy.linalg.solve_triangular calls it, so the numbers are the same; the
    wrapper's checks cost more than the solve at these sizes."""
    return dtrtrs(L.T, b, lower=0, trans=0 if transpose else 1)[0]


def _expit(logit: float) -> float:
    if logit >= 0.0:
        return 1.0 / (1.0 + math.exp(-logit))
    e = math.exp(logit)
    return e / (1.0 + e)


@dataclass
class BlvsChain:
    """Draws theta = (gamma, sigma, beta0, beta), one row per draw.

    beta is dense: column j holds the coefficient of predictor j, and 0.0
    wherever gamma excludes it.
    """

    gamma: np.ndarray      # bool, (n, q)
    sigma: np.ndarray      # (n,)
    beta0: np.ndarray      # (n,)
    beta: np.ndarray       # (n, q)

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=bool)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.beta0 = np.asarray(self.beta0, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        shape = self.gamma.shape
        if len(shape) != 2 or self.beta.shape != shape \
                or self.sigma.shape != shape[:1] or self.beta0.shape != shape[:1]:
            raise ValueError("need (n, q) gamma and beta, and (n,) sigma and beta0")
        if not np.all(self.sigma > 0):
            raise ValueError("sigma must be positive")
        if np.any(self.beta[~self.gamma]):
            raise ValueError("beta must be 0 where gamma excludes the predictor")

    def __len__(self) -> int:
        return self.gamma.shape[0]


@dataclass
class Dataset:
    """Transformed regression data: y and X are ready for analysis."""

    y: np.ndarray
    X: np.ndarray
    names: list[str]
    log_mask: np.ndarray   # True where the log transform was applied

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        m, q = self.X.shape
        if self.y.shape != (m,):
            raise ValueError("y length must match rows of X")
        if len(self.names) != q:
            raise ValueError("need one name per predictor column")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise ValueError("dataset contains non-finite entries")
        spans = np.ptp(self.X, axis=0)
        if np.any(spans == 0.0):
            bad = [self.names[j] for j in np.flatnonzero(spans == 0.0)]
            raise ValueError(f"constant predictor column(s) after transformation: {bad}")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def q(self) -> int:
        return self.X.shape[1]


def ingest_csv(path, response_name: str, binary_names: Sequence[str] = ()) -> Dataset:
    """Load a CSV and apply the log transform to all non-binary columns.

    The response is log-transformed as well; columns listed in
    ``binary_names`` pass through untouched.  Raises on a missing column or a
    non-positive value under the log.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        header = list(reader.fieldnames)
        rows = list(reader)
    missing = [c for c in [response_name, *binary_names] if c not in header]
    if missing:
        raise ValueError(f"{path}: missing column(s) {missing}")
    names = [c for c in header if c != response_name]
    binary = set(binary_names)

    def column(col):
        try:
            vals = np.array([float(r[col]) for r in rows])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: could not parse column {col!r}") from exc
        if col in binary:
            return vals
        if np.any(vals <= 0.0):
            raise ValueError(f"{path}: non-positive value in log-transformed column {col!r}")
        return np.log(vals)

    y = column(response_name)
    X = np.column_stack([column(c) for c in names])
    log_mask = np.array([c not in binary for c in names])
    return Dataset(y=y, X=X, names=names, log_mask=log_mask)


@dataclass
class BlvsStats:
    """Per-sample statistics sufficient for prior-weight ratios at any (w, g)."""

    q_gamma: np.ndarray    # int, number of included predictors
    t2: np.ndarray         # ||X_gamma beta_gamma||^2 / sigma^2


class BlvsFamily(DensityFamily):
    """Density-family adapter plus all model-specific machinery."""

    coord_names = ("w", "g")

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.m = dataset.m
        self.q = dataset.q
        self.names = list(dataset.names)
        self._ybar = dataset.y.mean()
        self._yc = dataset.y - self._ybar
        self._tss = float(self._yc @ self._yc)
        if self._tss == 0.0:
            raise ValueError("response is constant")
        self._Xc = dataset.X - dataset.X.mean(axis=0)
        self._XtX = self._Xc.T @ self._Xc
        self._Xty = self._Xc.T @ self._yc
        # The model table, keyed by the model code sum_i gamma_i 2^i and shared
        # by every chain of both stages and every thread: 1 - R^2 of each
        # model seen (None when singular or too large), and the fit the
        # (sigma, beta) draw needs, with the model's columns, for each model
        # a chain sat on.  Every entry is a pure function of its code, so the
        # order in which chains fill the table never changes a draw, and two
        # threads that fill one entry at once store equal values.
        self._rssr: dict[int, float | None] = {}
        self._draw_fit: dict[int, tuple[float, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._enumeration = None

    def _check_domain(self, coords):
        w, g = coords
        if not 0.0 < w < 1.0:
            raise InvalidHyperparameterError(f"w must lie in (0,1), got {w}")
        if g <= 0.0:
            raise InvalidHyperparameterError(f"g must be positive, got {g}")

    # per-model linear algebra
    def _chol(self, idx: np.ndarray) -> np.ndarray:
        G = self._XtX[idx[:, None], idx]
        try:
            return np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                f"singular design for model {[self.names[j] for j in idx]}"
            ) from None

    def _ssr(self, idx: np.ndarray, L: np.ndarray) -> float:
        """Regression sum of squares of model idx from its Cholesky factor L."""
        half = _solve_lower(L, self._Xty[idx])
        return float(half @ half)

    def _rss_ratio(self, idx: np.ndarray) -> float:
        """(1 - R^2) for the model given by idx, clipped to be nonnegative."""
        if idx.size == 0:
            return 1.0
        L = self._chol(idx)
        rss = self._tss - self._ssr(idx, L)
        if rss < 1e-10 * self._tss:
            # near-saturated fit: recompute from the residual vector itself
            beta = cho_solve((L, True), self._Xty[idx], check_finite=False)
            resid = self._yc - self._Xc[:, idx] @ beta
            rss = float(resid @ resid)
        return max(rss, 0.0) / self._tss

    def log_marginal_of_model(self, gamma, g: float) -> float:
        """log m(y | gamma, g) up to one additive constant shared by all models.

        The ratio against the null model is
        (1+g)^{(m-1-q_gamma)/2} [1 + g(1-R^2_gamma)]^{-(m-1)/2}.
        """
        gamma = np.asarray(gamma, dtype=bool)
        if g <= 0.0:
            raise InvalidHyperparameterError(f"g must be positive, got {g}")
        idx = np.flatnonzero(gamma)
        if idx.size > self.m - 2:
            raise SingularDesignError(
                f"model with {idx.size} predictors too large for m={self.m}"
            )
        return self._log_marginal_idx(idx, g)

    def _log_marginal_idx(self, idx: np.ndarray, g: float) -> float:
        return self._log_marginal(idx.size, self._rss_ratio(idx), g)

    def _log_marginal(self, size: int, rssr: float, g: float) -> float:
        """The closed form above from the model size and 1 - R^2."""
        return 0.5 * (self.m - 1 - size) * math.log1p(g) \
            - 0.5 * (self.m - 1) * math.log1p(g * rssr)

    # the model table
    def _columns(self, code: int) -> np.ndarray:
        return np.array([j for j in range(self.q) if code >> j & 1], dtype=np.intp)

    def _table_rss_ratio(self, code: int) -> float | None:
        """1 - R^2 of model `code` from the table; None for a singular or
        too-large model."""
        try:
            return self._rssr[code]
        except KeyError:
            pass
        rssr = None
        if code.bit_count() <= self.m - 2:
            try:
                rssr = self._rss_ratio(self._columns(code))
            except SingularDesignError:
                pass
        self._rssr[code] = rssr
        return rssr

    def _table_draw_fit(self, code: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(ssr, Cholesky L, least-squares beta, columns) of a nonsingular model."""
        try:
            return self._draw_fit[code]
        except KeyError:
            pass
        idx = self._columns(code)
        if idx.size:
            L = self._chol(idx)
            fit = (self._ssr(idx, L), L, cho_solve((L, True), self._Xty[idx],
                                                check_finite=False), idx)
        else:
            fit = (0.0, np.empty((0, 0)), np.empty(0), idx)
        self._draw_fit[code] = fit
        return fit

    @property
    def models_fitted(self) -> int:
        """Number of models in the table."""
        return len(self._rssr)

    # Gibbs sampler
    def conditional_inclusion_prob(self, gamma, i: int, h) -> float:
        """p(gamma_i = 1 | gamma_{-i}, y) with (beta, sigma) integrated out."""
        w, g = self.validate_h(h)
        gamma = np.asarray(gamma, dtype=bool)
        base = gamma.copy()
        base[i] = False
        lm0 = self._log_marginal_idx(np.flatnonzero(base), g)
        base[i] = True
        try:
            lm1 = self._log_marginal_idx(np.flatnonzero(base), g)
        except SingularDesignError:
            return 0.0
        logit = math.log(w) - math.log1p(-w) + lm1 - lm0
        return _expit(logit)

    def gibbs_run(self, spec: ChainSpec) -> BlvsChain:
        """Marginalized sweep over gamma, then exact (sigma, beta0, beta) draw.

        Each sweep updates every gamma_i from its Bernoulli full conditional
        under the integrated likelihood, then draws (sigma^2, beta0,
        beta_gamma) from their exact conditionals given gamma, so the chain on
        theta has the full posterior as its invariant law.  A singular
        candidate model is treated as having prior probability zero.
        The chain works on the model code; fits come from the model table.
        """
        w, g = self.validate_h(spec.h)
        rng = np.random.default_rng(spec.seed)
        m, q = self.m, self.q
        shrink = g / (1.0 + g)
        log_odds = math.log(w) - math.log1p(-w)
        gamma = rng.random(q) < w

        # log marginal at this chain's g for every model it has tried (None
        # for a singular one); the chain revisits a small set of models
        lm_cache: dict[int, float | None] = {}

        def log_marginal(code: int) -> float | None:
            rssr = self._table_rss_ratio(code)
            lm = None if rssr is None else self._log_marginal(code.bit_count(), rssr, g)
            lm_cache[code] = lm
            return lm

        code = 0
        if int(gamma.sum()) <= m - 2:
            code = sum(1 << j for j in np.flatnonzero(gamma).tolist())
        lm_cur = log_marginal(code)
        if lm_cur is None:      # singular start: fall back to the null model
            code = 0
            lm_cur = log_marginal(code)
        n = spec.length
        gammas, betas = np.zeros((n, q), dtype=bool), np.zeros((n, q))
        sigmas, beta0s = np.empty(n), np.empty(n)
        warned = False
        for sweep in range(spec.burn_in + n):
            for i in range(q):
                bit = 1 << i
                flipped = code ^ bit
                lm_try = lm_cache[flipped] if flipped in lm_cache else log_marginal(flipped)
                if lm_try is None:
                    if not warned:
                        logger.warning(
                            "singular candidate model at predictor %s; "
                            "treating it as prior-probability zero", self.names[i])
                        warned = True
                    rng.random()  # keep the draw stream aligned
                    continue
                included = bool(code & bit)
                if included:
                    lm1, lm0 = lm_cur, lm_try
                else:
                    lm1, lm0 = lm_try, lm_cur
                if (rng.random() < _expit(log_odds + lm1 - lm0)) != included:
                    code = flipped
                    lm_cur = lm_try

            ssr, L, beta_hat, idx = self._table_draw_fit(code)
            a_scale = self._tss - shrink * ssr
            sigma2 = 0.5 * a_scale / rng.standard_gamma(0.5 * (m - 1))
            if beta_hat.size:
                z = rng.standard_normal(beta_hat.size)
                beta = shrink * beta_hat + math.sqrt(sigma2 * shrink) * \
                    _solve_lower(L, z, transpose=True)
            else:
                beta = np.empty(0)
            beta0 = rng.normal(self._ybar, math.sqrt(sigma2 / m))
            row = sweep - spec.burn_in
            if row >= 0:
                gammas[row, idx] = True
                sigmas[row] = math.sqrt(sigma2)
                beta0s[row] = beta0
                betas[row, idx] = beta
        return BlvsChain(gamma=gammas, sigma=sigmas, beta0=beta0s, beta=betas)

    # family contract
    def log_prior_weight(self, h, state: BlvsChain) -> float:
        """The weight of the one draw in `state`, a one-row chain."""
        w, g = self.validate_h(h)
        if len(state) != 1:
            raise ValueError(f"expected a one-row chain, got {len(state)} rows")
        idx = np.flatnonzero(state.gamma[0])
        qg = idx.size
        xb = self._Xc[:, idx] @ state.beta[0, idx]
        t2 = float(xb @ xb) / state.sigma[0]**2
        return qg * math.log(w) + (self.q - qg) * math.log1p(-w) \
            - 0.5 * qg * math.log(g) - 0.5 * t2 / g

    def sample_posterior(self, spec: ChainSpec) -> BlvsChain:
        return self.gibbs_run(spec)

    def weight_stats(self, chain: BlvsChain) -> BlvsStats:
        xb = chain.beta @ self._Xc.T
        t2 = np.einsum("pi,pi->p", xb, xb) / chain.sigma**2
        return BlvsStats(q_gamma=chain.gamma.sum(axis=1), t2=t2)

    def log_weights(self, h, stats: BlvsStats) -> np.ndarray:
        w, g = self.validate_h(h)
        return stats.q_gamma * (math.log(w) - math.log1p(-w) - 0.5 * math.log(g)) \
            + self.q * math.log1p(-w) - stats.t2 / (2.0 * g)

    def grad_log_weights(self, h, stats: BlvsStats) -> np.ndarray:
        w, g = self.validate_h(h)
        dw = stats.q_gamma / w - (self.q - stats.q_gamma) / (1.0 - w)
        dg = -0.5 * stats.q_gamma / g + stats.t2 / (2.0 * g * g)
        return np.column_stack([dw, dg])

    def concat_chains(self, chains: Sequence[BlvsChain]) -> BlvsChain:
        return BlvsChain(*(np.concatenate([getattr(c, f.name) for c in chains])
                           for f in fields(BlvsChain)))

    def inclusion_function(self, name: str) -> FunctionOfTheta:
        """Indicator f(theta) = gamma_i for the named predictor."""
        j = self.names.index(name)
        return FunctionOfTheta(
            f"inclusion:{name}",
            lambda chain: chain.gamma[:, j],
        )

    def enumeration(self) -> "ModelEnumeration":
        if self._enumeration is None:
            self._enumeration = ModelEnumeration(self)
        return self._enumeration


class ModelEnumeration:
    """Exact posterior quantities by summing over all 2^q models.

    R^2_gamma does not depend on (w, g), so the expensive per-model fits are
    done once, in batches of models of one size; every hyperparameter
    evaluation afterwards is a vectorized pass over the cached models.
    Model `code` (row `code` of `bits`) includes predictor i when bit i of
    the code is set.  The enumeration refers to its family weakly, so the
    family's cache of it makes no reference cycle.
    """

    BLOCK = 512     # models per batched Cholesky call

    def __init__(self, family: BlvsFamily):
        q = family.q
        if q > ENUMERATION_MAX_Q:
            raise ValueError(f"enumeration supports q <= {ENUMERATION_MAX_Q}, got q={q}")
        self._family = weakref.ref(family)
        self.q = q
        n_models = 1 << q
        codes = np.arange(n_models, dtype=np.uint32)
        self.bits = ((codes[:, None] >> np.arange(q)) & 1).astype(bool)
        self.q_gamma = self.bits.sum(axis=1).astype(np.int64)
        rssr = np.ones(n_models)        # the null model has R^2 = 0
        for size in range(1, q + 1):
            of_size = np.flatnonzero(self.q_gamma == size)
            for start in range(0, of_size.size, self.BLOCK):
                block = of_size[start:start + self.BLOCK]
                rssr[block] = self._rss_ratios(family, block, size)
        self.rss_ratio = rssr
        self._last_point = None

    def _rss_ratios(self, family: BlvsFamily, block: np.ndarray, size: int) -> np.ndarray:
        """1 - R^2 of a block of models with `size` predictors each, as
        BlvsFamily._rss_ratio computes it model by model."""
        idx = np.nonzero(self.bits[block])[1].reshape(block.size, size)
        try:
            L = np.linalg.cholesky(family._XtX[idx[:, :, None], idx[:, None, :]])
        except np.linalg.LinAlgError:
            for cols in idx:
                family._chol(cols)      # raises, naming the singular model
            raise
        half = np.linalg.solve(L, family._Xty[idx][:, :, None])[:, :, 0]
        rss = family._tss - np.einsum("bi,bi->b", half, half)
        out = np.maximum(rss, 0.0) / family._tss
        for b in np.flatnonzero(rss < 1e-10 * family._tss):
            out[b] = family._rss_ratio(idx[b])      # near-saturated fit
        return out

    @property
    def family(self) -> BlvsFamily:
        family = self._family()
        if family is None:
            raise ReferenceError("the family of this enumeration no longer exists")
        return family

    def log_model_weights(self, h) -> np.ndarray:
        """log[ prior(gamma) m(y|gamma,g) ] for every model, up to one constant."""
        family = self.family
        w, g = family.validate_h(h)
        m = family.m
        return self.q_gamma * math.log(w) + (self.q - self.q_gamma) * math.log1p(-w) \
            + 0.5 * (m - 1 - self.q_gamma) * math.log1p(g) \
            - 0.5 * (m - 1) * np.log1p(g * self.rss_ratio)

    def _point(self, h) -> tuple[float, np.ndarray]:
        """(log m_h, model probabilities at h) from one exp and one sum.  The
        last point is kept, since the oracle asks for both at each point."""
        h = self.family.validate_h(h)
        point = self._last_point
        if point is None or point[0] != h:
            lw = self.log_model_weights(h)
            top = float(lw.max())
            p = np.exp(lw - top)
            total = float(p.sum())
            probs = p / total
            probs.flags.writeable = False
            point = self._last_point = (h, top + math.log(total), probs)
        return point[1], point[2]

    def log_marginal(self, h) -> float:
        """log m_h up to the same h-independent constant."""
        return self._point(h)[0]

    def model_probs(self, h) -> np.ndarray:
        return self._point(h)[1].copy()

    def inclusion_probs(self, h) -> np.ndarray:
        """P(gamma_i = 1 | y) for each predictor."""
        probs = self._point(h)[1]
        # the models including predictor i are the upper half of every
        # block of 2^(i+1) consecutive codes
        return np.array([probs.reshape(-1, 2, 1 << i)[:, 1].sum() for i in range(self.q)])

    def exact_bf(self, h, h1) -> float:
        """Bayes factor B(h, h1) = m_h / m_{h1}; the shared constant cancels."""
        return math.exp(self.log_marginal(h) - self.log_marginal(h1))
