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
import threading
import weakref
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InvalidHyperparameterError, SingularDesignError
from .families import ChainSpec, DensityFamily, FunctionOfTheta

logger = logging.getLogger(__name__)

ENUMERATION_MAX_Q = 25
# Up to this q the Gibbs sampler reads 1 - R^2 from one array over all 2^q
# models, built before any chain starts; above it, the sampler fits the
# models it tries one at a time (the full build takes seconds at q = 20).
TABLE_MAX_Q = 16
FIT_BLOCK = 512     # models per bordered Cholesky call of the table build
UNFITTED = -1.0     # table entry of a model left to be fitted on its own


def _model_sizes(q: int) -> np.ndarray:
    """The number of predictors of each model code 0, ..., 2^q - 1 (uint8):
    codes 2^j, ..., 2^(j+1) - 1 add predictor j to the codes below 2^j."""
    sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(q):
        sizes = np.concatenate([sizes, sizes + 1])
    return sizes


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
        # the bordered Gram matrix [X y]'[X y] of the centred data
        q = self.q
        self._G = np.empty((q + 1, q + 1))
        self._G[:q, :q] = self._Xc.T @ self._Xc
        self._G[:q, q] = self._G[q, :q] = self._Xc.T @ self._yc
        self._G[q, q] = self._tss
        # The model tables, shared by every chain of both stages and every
        # thread, both indexed by the model code sum_i gamma_i 2^i: 1 - R^2 of
        # every model (NaN when singular or too large), one array built once
        # by rss_ratios(), or for q > TABLE_MAX_Q a dict of the models the
        # chains tried; and the fit the (sigma, beta) draw needs, with the
        # model's columns, for each model a chain sat on.  Every entry is a
        # pure function of its code, so the order in which chains fill a
        # table never changes a draw, and two threads that fill one entry at
        # once store equal values.
        self._table: np.ndarray | None = None
        self._table_lock = threading.Lock()
        self._rssr: dict[int, float] = {}
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
        try:
            return np.linalg.cholesky(self._G[idx[:, None], idx])
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                f"singular design for model {[self.names[j] for j in idx]}"
            ) from None

    def _factors(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(L, half, rss) of each model in a block of models of one size.

        Row b of the (B, s + 1) array cols lists the columns of G of model b:
        its s predictors, then the response's column q.  The Cholesky factor
        of G restricted to them is [[L, 0], [half', ell]]: X'X = LL',
        half = L^{-1} X'y and ell^2 is the residual sum of squares.  A block
        of several models that holds a singular or exactly fitting model
        gives None (see _build_table).  For a single model, a
        singular X'X raises SingularDesignError naming the model, and an exact
        or near-saturated fit (ell^2 below 1e-10 tss, or a bordered factor
        that fails while X'X is positive definite) takes rss from the
        residual vector itself.
        """
        B, s = cols.shape[0], cols.shape[1] - 1
        try:
            F = np.linalg.cholesky(self._G[cols[:, :, None], cols[:, None, :]])
        except np.linalg.LinAlgError:
            F = None
        if F is not None:
            L, half, rss = F[:, :s, :s], F[:, s, :s], F[:, s, s] ** 2
            # min of a list: a ufunc reduction costs more than a small model's fit
            if min(rss.tolist()) >= 1e-10 * self._tss:
                return L, half, rss
        if B > 1:
            return None
        idx = cols[0, :s]
        if F is None:
            L = self._chol(idx)[None]
            half = np.linalg.solve(L[0], self._G[idx, self.q])[None]
        resid = self._yc - self._Xc[:, idx] @ np.linalg.solve(L[0].T, half[0])
        return L, half, np.array([resid @ resid])

    def _rss_ratio(self, cols: np.ndarray) -> float:
        """(1 - R^2) of the model whose columns of G are cols (see _factors)."""
        if cols.size == 1:
            return 1.0
        return float(self._factors(cols[None])[2][0]) / self._tss

    def log_marginal_of_model(self, gamma, g: float) -> float:
        """log m(y | gamma, g) up to one additive constant shared by all models.

        The ratio against the null model is
        (1+g)^{(m-1-q_gamma)/2} [1 + g(1-R^2_gamma)]^{-(m-1)/2}.
        """
        gamma = np.asarray(gamma, dtype=bool)
        if g <= 0.0:
            raise InvalidHyperparameterError(f"g must be positive, got {g}")
        cols = np.flatnonzero(np.append(gamma, True))
        if cols.size - 1 > self.m - 2:
            raise SingularDesignError(
                f"model with {cols.size - 1} predictors too large for m={self.m}"
            )
        return self._log_marginal_cols(cols, g)

    def _log_marginal_cols(self, cols: np.ndarray, g: float) -> float:
        return self._log_marginal(cols.size - 1, self._rss_ratio(cols), g)

    def _log_marginal(self, size: int, rssr: float, g: float) -> float:
        """The closed form above from the model size and 1 - R^2."""
        return 0.5 * (self.m - 1 - size) * math.log1p(g) \
            - 0.5 * (self.m - 1) * math.log1p(g * rssr)

    # the model table
    def _columns(self, code: int) -> np.ndarray:
        """The columns of G of model `code`: its predictors, then the response."""
        return np.array([j for j in range(self.q) if code >> j & 1] + [self.q],
                        dtype=np.intp)

    def _code_rss_ratio(self, code: int) -> float:
        """1 - R^2 of model `code`, fitted on its own; SingularDesignError
        names a singular or too-large model."""
        size = code.bit_count()
        if size > self.m - 2:
            raise SingularDesignError(
                f"model with {size} predictors too large for m={self.m}")
        return self._rss_ratio(self._columns(code))

    def _build_table(self) -> np.ndarray:
        """1 - R^2 of every model code from bordered Cholesky factors of
        blocks of models of one size: NaN for a model of more than m - 2
        predictors, and UNFITTED for each model of a block of several whose
        batched factor fails (it holds a singular or exactly fitting model),
        which its readers fit one at a time."""
        q = self.q
        sizes = _model_sizes(q)
        rssr = np.where(sizes > self.m - 2, np.nan, UNFITTED)
        rssr[0] = 1.0       # the null model has R^2 = 0
        shifts = np.arange(q + 1)
        for size in range(1, min(q, self.m - 2) + 1):
            of_size = np.flatnonzero(sizes == size)
            for start in range(0, of_size.size, FIT_BLOCK):
                block = of_size[start:start + FIT_BLOCK]
                # each model's predictors, then the response's column q (see _factors)
                cols = np.nonzero((block | 1 << q)[:, None] >> shifts & 1)[1]
                try:
                    factors = self._factors(cols.reshape(-1, size + 1))
                except SingularDesignError:     # a block of one singular model
                    rssr[block] = np.nan
                    continue
                if factors is not None:
                    rssr[block] = factors[2] / self._tss
                del factors     # the block's factor, before the next is made
        return rssr

    def rss_ratios(self) -> np.ndarray:
        """The array of _build_table.  When q <= TABLE_MAX_Q it is built
        once, on the thread of the first caller, and kept for the sampler,
        which fills in its UNFITTED entries as chains try them; the test
        outside the lock keeps the sampler's lookups off it.  Above, each
        call builds an array of its own."""
        if self.q > TABLE_MAX_Q:
            return self._build_table()
        if self._table is None:
            with self._table_lock:
                if self._table is None:
                    self._table = self._build_table()
        return self._table

    def model_table(self) -> np.ndarray | None:
        """The array the Gibbs sampler reads 1 - R^2 from: rss_ratios() when
        q <= TABLE_MAX_Q, else None (the sampler fits models as it tries
        them).  Ask for it before chains start, so the build runs once, on
        the calling thread."""
        return self.rss_ratios() if self.q <= TABLE_MAX_Q else None

    def _table_rss_ratio(self, code: int) -> float | None:
        """1 - R^2 of model `code` from the table, fitting it there if the
        build left it UNFITTED; None for a singular or too-large model."""
        table = self.model_table()
        rssr = self._rssr.get(code, UNFITTED) if table is None else float(table[code])
        if rssr == UNFITTED:
            try:
                rssr = self._code_rss_ratio(code)
            except SingularDesignError:
                rssr = math.nan
            if table is None:
                self._rssr[code] = rssr
            else:
                table[code] = rssr
        return None if math.isnan(rssr) else rssr

    def _table_draw_fit(self, code: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(ssr, T = L^{-T}, half = L^{-1} X'y, columns) of a nonsingular
        model; its least-squares fit is T @ half."""
        try:
            return self._draw_fit[code]
        except KeyError:
            pass
        cols = self._columns(code)
        L, half, _ = self._factors(cols[None])
        fit = (float(half[0] @ half[0]), np.linalg.inv(L[0]).T, half[0], cols[:-1])
        self._draw_fit[code] = fit
        return fit

    @property
    def models_fitted(self) -> int:
        """Number of models in the 1 - R^2 table the sampler reads that are
        not UNFITTED: 2^q when every block of the build went through (and
        q <= TABLE_MAX_Q), else the models the chains tried as well."""
        if self._table is None:
            return len(self._rssr)
        return self._table.size - int(np.count_nonzero(self._table == UNFITTED))

    # Gibbs sampler
    def conditional_inclusion_prob(self, gamma, i: int, h) -> float:
        """p(gamma_i = 1 | gamma_{-i}, y) with (beta, sigma) integrated out."""
        w, g = self.validate_h(h)
        base = np.append(np.asarray(gamma, dtype=bool), True)    # and the response
        base[i] = False
        lm0 = self._log_marginal_cols(np.flatnonzero(base), g)
        base[i] = True
        try:
            lm1 = self._log_marginal_cols(np.flatnonzero(base), g)
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
            # one uniform per predictor, drawn whether or not its flip is tried
            u = rng.random(q).tolist()
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
                    continue
                included = bool(code & bit)
                if included:
                    lm1, lm0 = lm_cur, lm_try
                else:
                    lm1, lm0 = lm_try, lm_cur
                if (u[i] < _expit(log_odds + lm1 - lm0)) != included:
                    code = flipped
                    lm_cur = lm_try

            # beta = shrink beta_hat + sqrt(sigma2 shrink) L^{-T} z, with
            # beta_hat = T @ half
            ssr, T, half, idx = self._table_draw_fit(code)
            a_scale = self._tss - shrink * ssr
            sigma2 = 0.5 * a_scale / rng.standard_gamma(0.5 * (m - 1))
            z = rng.standard_normal(half.size)
            beta = T @ (shrink * half + math.sqrt(sigma2 * shrink) * z)
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
    done once, by the family's table build; every hyperparameter evaluation
    afterwards is a vectorized pass over the cached models.  Model `code`
    includes predictor i when bit i of the code is set.  The enumeration
    refers to its family weakly, so the family's cache of it makes no
    reference cycle.
    """

    def __init__(self, family: BlvsFamily):
        q = family.q
        if q > ENUMERATION_MAX_Q:
            raise ValueError(f"enumeration supports q <= {ENUMERATION_MAX_Q}, got q={q}")
        self._family = weakref.ref(family)
        self.q = q
        rssr = family.rss_ratios()
        self.q_gamma = _model_sizes(q).astype(np.int64)
        # fit each model the table does not hold, in order of size and then
        # code: the first singular or too-large one raises, naming it
        todo = np.flatnonzero(np.isnan(rssr) | (rssr == UNFITTED))
        for code in todo[np.argsort(self.q_gamma[todo], kind="stable")].tolist():
            rssr[code] = family._code_rss_ratio(code)
        self.rss_ratio = rssr
        self._last_point = None

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
