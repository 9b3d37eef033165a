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
sampler.  The sampler integrates (sigma, beta0, beta) out of every gamma
update, so its chains carry gamma alone, and a draw is weighted by
pi_w(gamma) m(y | gamma, g): the Rao-Blackwellized form (Gelfand & Smith
1990) of the importance weights of the joint prior, a function of the
draw's model code alone.
"""

from __future__ import annotations

import csv
import logging
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidHyperparameterError, SingularDesignError
from .families import ChainSpec, DensityFamily

logger = logging.getLogger(__name__)

ENUMERATION_MAX_Q = 25
# Up to this q the Gibbs sampler reads 1 - R^2 from one array over all 2^q
# models, built before any chain starts; above it, the sampler fits the
# models it tries one at a time (the table and each per-g array of log
# marginals hold 8 bytes per model, 8 MB each at q = 20).
TABLE_MAX_Q = 16
# the table build runs its last SPLIT levels for PARENTS codes of level
# q - SPLIT at a time, which keeps its temporaries near 5 x 8 x PARENTS x
# 2^SPLIT bytes (0.2 MB) whatever q is
SPLIT, PARENTS = 10, 4
BLOCK = 4096        # codes per block of an array of log marginals
# sweeps whose uniforms one call draws; any value gives the same stream
SWEEP_ROWS = 256


def _model_sizes(q: int, dtype=np.uint8) -> np.ndarray:
    """The number of predictors of each model code 0, ..., 2^q - 1: codes
    2^j, ..., 2^(j+1) - 1 add predictor j to the codes below 2^j.  Filled in
    place, so building it takes no memory beyond its own."""
    sizes = np.zeros(1 << q, dtype=dtype)
    for j in range(q):
        np.add(sizes[:1 << j], 1, out=sizes[1 << j:2 << j])
    return sizes


def _log_marginal(m: int, size, rssr, g: float):
    """log m(y | gamma, g) on m observations, relative to the null model's,
    from the model size and 1 - R^2 (or arrays of them, signed sizes).  Every
    log marginal of the module comes from here, so the sampler's table and
    lazy paths, the weights and the enumeration use the same bits."""
    return 0.5 * (m - 1 - size) * np.log1p(g) - 0.5 * (m - 1) * np.log1p(g * rssr)


def _eliminate(S: np.ndarray) -> np.ndarray:
    """Eliminate the first column of a (k, k) matrix, or of each matrix of a
    stack (n, k, k): the Schur complement S[1:, 1:] - row' (row / pivot),
    with row = S[0, 1:] and pivot = S[0, 0].  The table build and the
    one-model fit both take their 1 - R^2 from here, and both give NaN for
    a model with a pivot that is not positive: its first column lies in
    the span of the columns eliminated before it."""
    row = S[..., :1, 1:]
    return S[..., 1:, 1:] - row.swapaxes(-1, -2) * (row / S[..., :1, :1])


def _next_level(S: np.ndarray) -> np.ndarray:
    """One level of the table build: the matrices of the stack S without
    their first column, then with it eliminated.  A matrix whose pivot is
    not positive gives NaN, so the model and every model the tree grows
    from it hold NaN."""
    E = _eliminate(S)
    E[~(S[:, 0, 0] > 0.0)] = np.nan
    return np.concatenate([S[:, 1:, 1:], E])


class _LazyLogMarginals(dict):
    """log m(y | gamma, g) at one g of the models tried so far, for
    q > TABLE_MAX_Q: a code read for the first time takes its 1 - R^2 from
    the family's dict of fitted models, fitting it there if it is new, and
    stores its log marginal, NaN for a model that cannot be fitted.  It
    refers to its family weakly, so the family's dict of stores makes no
    reference cycle."""

    def __init__(self, family: "BlvsFamily", g: float):
        super().__init__()
        self._family, self._g = weakref.ref(family), g

    def __missing__(self, code: int) -> float:
        family = self._family()
        rssr = family._fitted_rss_ratio(code)
        self[code] = lm = float(_log_marginal(family.m, code.bit_count(), rssr, self._g))
        return lm


@dataclass
class Dataset:
    """Transformed regression data: y and X are ready for analysis."""

    y: np.ndarray
    X: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        m, q = self.X.shape
        if self.y.shape != (m,):
            raise ValueError("y length must match rows of X")
        if len(self.names) != q:
            raise ValueError("need one name per predictor column")
        if not q:
            raise ValueError("no predictor columns")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise ValueError("dataset contains non-finite entries")
        yc = self.y - self.y.mean()
        if yc @ yc == 0.0:
            raise ValueError("response is constant")
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
    ``binary_names`` pass through untouched.  Raises, naming the file, on a
    file with no data rows, a missing column, a value that does not parse
    or is not finite, a non-positive value under the log, or data the
    Dataset refuses.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        header = list(reader.fieldnames)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
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
        if not np.isfinite(vals).all():
            raise ValueError(f"{path}: non-finite value in column {col!r}")
        if col in binary:
            return vals
        if np.any(vals <= 0.0):
            raise ValueError(f"{path}: non-positive value in log-transformed column {col!r}")
        return np.log(vals)

    y = column(response_name)
    X = np.empty((len(rows), len(names)))
    for j, c in enumerate(names):
        X[:, j] = column(c)
    try:
        return Dataset(y=y, X=X, names=names)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class BlvsStats:
    """Statistics sufficient for the weights at any (w, g): those of each
    distinct model among the draws, and each draw's index into them."""

    q_gamma: np.ndarray    # int, number of included predictors of each model
    rss_ratio: np.ndarray  # 1 - R^2 of each model
    which: np.ndarray      # (n,) each draw's model


class BlvsFamily(DensityFamily):
    """Density-family adapter plus all model-specific machinery."""

    coord_names = ("w", "g")
    domain = ((0, lambda w: (0.0 < w) & (w < 1.0), "lie in (0,1)"),
              (1, lambda g: g > 0.0, "be positive"))

    def __init__(self, dataset: Dataset):
        self.m = dataset.m
        self.q = dataset.q
        self.names = list(dataset.names)
        # the column of gamma of each inclusion indicator, by function name
        self._inclusion = {f"inclusion:{nm}": j for j, nm in enumerate(self.names)}
        self._yc = dataset.y - dataset.y.mean()
        self._tss = float(self._yc @ self._yc)
        self._Xc = dataset.X - dataset.X.mean(axis=0)
        # the bordered Gram matrix [X y]'[X y] of the centred data
        q = self.q
        self._G = np.empty((q + 1, q + 1))
        self._G[:q, :q] = self._Xc.T @ self._Xc
        self._G[:q, q] = self._G[q, :q] = self._Xc.T @ self._yc
        self._G[q, q] = self._tss
        # The model tables, shared by every chain and weight of both stages,
        # all indexed by the model code sum_i gamma_i 2^i: 1 - R^2 of every
        # model (NaN for one that cannot be fitted), one array built once by
        # model_table(), or for q > TABLE_MAX_Q a dict of the models the
        # chains tried; and for each g a chain ran at, the log marginals the
        # sampler reads (_log_marginal_store).  Every entry is a pure
        # function of its code, so the order in which chains fill a table
        # never changes a draw.
        self._table: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._rssr: dict[int, float] = {}
        self._lms: dict[float, memoryview | _LazyLogMarginals] = {}
        self._enumeration = None

    # one model's fit
    def _fit(self, code: int) -> float:
        """1 - R^2 of model `code` fitted on its own, by the eliminations of
        the table build on its own columns of G (its predictors, then the
        response's column q), so the two agree bit for bit: the residual sum
        of squares is what is left of G[q, q].  An exact or near-saturated
        fit (rss below 1e-10 tss) takes rss from the residual vector instead,
        with the coefficients from the Cholesky factor of X'X.  NaN marks a
        model that cannot be fitted: a pivot that is not positive, a failed
        factor, or more than m - 2 predictors; only _unfit names it."""
        idx = [j for j in range(self.q) if code >> j & 1]
        if len(idx) > self.m - 2:
            return math.nan
        cols = np.array(idx + [self.q])
        S = self._G[cols[:, None], cols]
        for _ in idx:
            if not S[0, 0] > 0.0:
                return math.nan
            S = _eliminate(S)
        rss = float(S[0, 0])
        if rss < 1e-10 * self._tss:
            try:
                L = np.linalg.cholesky(self._G[np.ix_(idx, idx)])
            except np.linalg.LinAlgError:
                return math.nan
            half = np.linalg.solve(L, self._G[idx, self.q])
            resid = self._yc - self._Xc[:, idx] @ np.linalg.solve(L.T, half)
            rss = float(resid @ resid)
        return rss / self._tss

    def _unfit(self, code: int) -> SingularDesignError:
        """The error that names model `code`, one _fit gives NaN for."""
        size = code.bit_count()
        if size > self.m - 2:
            return SingularDesignError(f"model with {size} predictors too large for m={self.m}")
        names = [nm for j, nm in enumerate(self.names) if code >> j & 1]
        return SingularDesignError(f"singular design for model {names}")

    def log_marginal_of_model(self, gamma, g: float) -> float:
        """log m(y | gamma, g) up to one additive constant shared by all models.

        The ratio against the null model is
        (1+g)^{(m-1-q_gamma)/2} [1 + g(1-R^2_gamma)]^{-(m-1)/2}.
        SingularDesignError names a model that cannot be fitted.
        """
        if g <= 0.0:
            raise InvalidHyperparameterError(f"g must be positive, got {g}")
        code = sum(1 << j for j in np.flatnonzero(np.asarray(gamma, dtype=bool)).tolist())
        rssr = self._fit(code)
        if rssr != rssr:
            raise self._unfit(code)
        return float(_log_marginal(self.m, code.bit_count(), rssr, g))

    def _log_marginals(self, rssr: np.ndarray, g: float) -> np.ndarray:
        """_log_marginal at g of every model code, from the array rssr of
        their 1 - R^2, by blocks of BLOCK codes so the temporaries stay
        small."""
        out, sizes = np.empty(rssr.size), self.model_sizes()
        for start in range(0, rssr.size, BLOCK):
            block = slice(start, start + BLOCK)
            out[block] = _log_marginal(self.m, sizes[block], rssr[block], g)
        return out

    # the model table
    def _fitted_rss_ratio(self, code: int) -> float:
        """1 - R^2 of model `code` from the dict of models fitted one at a
        time, fitting it there if it is new (_fit)."""
        rssr = self._rssr.get(code)
        if rssr is None:
            rssr = self._rssr[code] = self._fit(code)
        return rssr

    def _build_table(self) -> np.ndarray:
        """1 - R^2 of every model code, read-only, from one tree of
        eliminations (Furnival 1971).  The stack at level j holds, for each
        code below 2^j, G on columns j, ..., q with the code's predictors
        eliminated (_eliminate); eliminating column j from each gives the
        codes 2^j, ..., 2^(j+1) - 1, which extend them by predictor j.  At
        level q each model's residual sum of squares is all that is left.
        Each entry is the one _fit gives: NaN for a singular model (and so
        for every model the tree grows from it) and for a model of more than
        m - 2 predictors, and an exact fit refitted from its residual
        vector."""
        q = self.q
        top = max(q - SPLIT, 0)
        rss = np.empty(1 << q)
        # code i's descendant with the bits t above `top` is code t 2^top + i
        by_parent = rss.reshape(-1, 1 << top)
        with np.errstate(divide="ignore", invalid="ignore"):    # singular pivots
            S = self._G[None]
            for _ in range(top):
                S = _next_level(S)
            for start in range(0, 1 << top, PARENTS):
                T = S[start:start + PARENTS]
                parents = T.shape[0]
                for _ in range(q - top):
                    T = _next_level(T)
                by_parent[:, start:start + parents] = T.reshape(-1, parents)
                del T   # the chunk's last level, before the next chunk's first
        exact_fits = np.flatnonzero(rss < 1e-10 * self._tss).tolist()
        rss /= self._tss
        rss[_model_sizes(q) > self.m - 2] = np.nan
        for code in exact_fits:
            rss[code] = self._fit(code)
        rss.flags.writeable = False
        return rss

    def model_table(self) -> np.ndarray | None:
        """The array of _build_table the Gibbs sampler reads 1 - R^2 from
        when q <= TABLE_MAX_Q, else None: the sampler fits models as it tries
        them, and the enumeration builds an array of its own.  The array is
        built once, by the first caller."""
        if self.q > TABLE_MAX_Q:
            return None
        if self._table is None:
            self._table = self._build_table()
            self.model_sizes()      # every per-g array of log marginals reads both
        return self._table

    def model_sizes(self) -> np.ndarray:
        """The number of predictors of each model code, read-only and intp,
        so that neither m - 1 - size nor a gather by size casts it; built
        once, by the first caller, and shared by the arrays of log marginals
        and the enumeration."""
        if self._sizes is None:
            self._sizes = _model_sizes(self.q, np.intp)
            self._sizes.flags.writeable = False
        return self._sizes

    def _log_marginal_store(self, g: float) -> memoryview | _LazyLogMarginals:
        """log m(y | gamma, g) by model code, kept for every chain at g: a
        float array over all 2^q codes from the table when q <= TABLE_MAX_Q,
        seen through a memoryview, whose items are Python floats; else a
        _LazyLogMarginals, which fits each code on its first read.  Either
        way an entry is final when read, and NaN marks a model that cannot
        be fitted."""
        store = self._lms.get(g)
        if store is None:
            table = self.model_table()
            store = self._lms[g] = _LazyLogMarginals(self, g) if table is None \
                else memoryview(self._log_marginals(table, g))
        return store

    @property
    def models_fitted(self) -> int:
        """Number of models whose 1 - R^2 the sampler's table holds: 2^q
        when q <= TABLE_MAX_Q and the table is built, else the models the
        chains tried."""
        return len(self._rssr) if self._table is None else self._table.size

    # Gibbs sampler, the family's sampling method
    def sample_chains(self, specs: Sequence[ChainSpec]) -> list[np.ndarray]:
        """Marginalized sweeps over gamma, one chain after another, each on
        its own stream (_sweeps).  A chain is the (n, q) bool array of its
        draws' models, True where draw r includes predictor j.

        Each sweep updates every gamma_i from its Bernoulli full conditional
        under the integrated likelihood, so each chain has the posterior of
        gamma as its invariant law.  A candidate model that cannot be fitted
        is treated as having prior probability zero.
        """
        q, width = self.q, (self.q + 7) // 8
        chains = []
        for spec in specs:
            raw = b"".join(code.to_bytes(width, "little") for code in self._sweeps(spec))
            bits = np.frombuffer(raw, np.uint8).reshape(-1, width)
            chains.append(np.unpackbits(bits, axis=1, count=q, bitorder="little").view(bool))
        return chains

    def _sweeps(self, spec: ChainSpec) -> list[int]:
        """The model code of each kept sweep of one chain, reading each log
        marginal from the family's store at g (NaN: a model that cannot be
        fitted).  The chain's stream holds the start's q uniforms, then q
        uniforms per sweep, burn-in included, drawn SWEEP_ROWS sweeps at a
        time (Generator.random fills in order, so the block size does not
        change the stream).

        A flip is tested in logit space: with t = logit(u) - logit(w), an
        excluded predictor enters iff t < lm_try - lm_cur and an included
        one leaves iff t >= lm_cur - lm_try, which is u < expit(.) of its
        full conditional."""
        w, g = self.validate_h(spec.h)
        rng = np.random.default_rng(spec.seed)
        q = self.q
        log_odds = math.log(w) - math.log1p(-w)
        gamma = rng.random(q) < w
        lms = self._log_marginal_store(g)

        code = sum(1 << j for j in np.flatnonzero(gamma).tolist())
        lm_cur = lms[code]
        if lm_cur != lm_cur:    # a start that cannot be fitted: the null model instead
            code = 0
            lm_cur = lms[code]
        n, burn_in = spec.length, spec.burn_in
        codes = []
        bits = [1 << i for i in range(q)]
        warned = False
        for start in range(0, burn_in + n, SWEEP_ROWS):
            u = rng.random((min(SWEEP_ROWS, burn_in + n - start), q))
            with np.errstate(divide="ignore"):      # u = 0 gives t = -inf
                t = np.log(u) - np.log1p(-u) - log_odds
            thresholds = iter(t.ravel().tolist())
            for _ in range(u.shape[0]):
                # bits first, so zip stops after q thresholds
                for bit, ti in zip(bits, thresholds):
                    flipped = code ^ bit
                    lm_try = lms[flipped]
                    if lm_try != lm_try:    # NaN: a model that cannot be fitted
                        if not warned:
                            logger.warning(
                                "singular candidate model at predictor %s; treating it "
                                "as prior-probability zero", self.names[bit.bit_length() - 1])
                            warned = True
                        continue
                    if (ti >= lm_cur - lm_try) if code & bit else (ti < lm_try - lm_cur):
                        code = flipped
                        lm_cur = lm_try
                codes.append(code)
        return codes[burn_in:]

    # family contract
    def weight_stats(self, gamma: np.ndarray) -> BlvsStats:
        """The size and 1 - R^2 of each distinct model of the draws, read from
        the model table, or above TABLE_MAX_Q from the models the chains
        fitted (a model not fitted yet is fitted there)."""
        packed = np.packbits(gamma, axis=1, bitorder="little")
        table = self.model_table()
        if table is not None:
            codes, which = np.unique(packed.astype(np.intp) @ (1 << 8 * np.arange(packed.shape[1])),
                                     return_inverse=True)
            rss_ratio = table[codes]
        else:
            models, which = np.unique(packed, axis=0, return_inverse=True)
            rss_ratio = np.array([self._fitted_rss_ratio(int.from_bytes(row, "little"))
                                  for row in map(bytes, models)])
        which = which.ravel()
        q_gamma = np.empty(rss_ratio.size, dtype=np.intp)
        q_gamma[which] = gamma.sum(axis=1)
        return BlvsStats(q_gamma=q_gamma, rss_ratio=rss_ratio, which=which)

    def log_weights(self, h, stats: BlvsStats) -> np.ndarray:
        """log pi_w(gamma) + log m(y | gamma, g) of each draw, the
        log marginal relative to the null model's, which does not depend on
        g, so weights at different g are comparable; evaluated once per
        distinct model and gathered to the draws."""
        w, g = self.validate_h(h)
        per_model = stats.q_gamma * (math.log(w) - math.log1p(-w)) + self.q * math.log1p(-w) \
            + _log_marginal(self.m, stats.q_gamma, stats.rss_ratio, g)
        return per_model[stats.which]

    def cells(self, stats: BlvsStats) -> np.ndarray:
        """The model size of each draw."""
        return stats.q_gamma[stats.which]

    def lines(self, H, stats: BlvsStats):
        """A line for each distinct g, in increasing order: log nu_(w, g) of
        a model of size s is log m(y | gamma, g) + s log(w / (1 - w)) +
        q log(1 - w), so the line's points share the log marginals, and a
        point's coefficient of size s is the rest."""
        gs, line = np.unique(H[:, 1], return_inverse=True)
        sizes = np.arange(self.q + 1)
        for i, g in enumerate(gs.tolist()):
            rows = np.flatnonzero(line == i)
            w = H[rows, :1]
            log_c = sizes * (np.log(w) - np.log1p(-w)) + self.q * np.log1p(-w)
            yield rows, _log_marginal(self.m, stats.q_gamma, stats.rss_ratio, g)[stats.which], log_c

    def function_names(self, items):
        """inclusion:<predictor>, the indicator gamma_j of the predictor,
        and inclusion:*, one such name per predictor in their order."""
        out = []
        for item in items:
            if item == "inclusion:*":
                out.extend(self._inclusion)
            elif item in self._inclusion:
                out.append(item)
            elif item.startswith("inclusion:"):
                raise ConfigError(f"function {item!r}: unknown predictor "
                                  f"{item.partition(':')[2]!r} "
                                  f"(known: {', '.join(self.names)})")
            else:
                raise ConfigError(f"unknown function {item!r} for this model")
        return out

    def function_rows(self, names, gamma):
        return gamma[:, [self._inclusion[nm] for nm in names]].T.astype(float)

    def exact(self, h1, grid, names):
        # one pass of the enumeration over h1 and the grid, which keeps the grid's order
        log_m, incl = self.enumeration().evaluate(np.vstack([h1, grid]))
        bf = [math.exp(x - log_m[0]) for x in log_m[1:].tolist()]
        return np.array(bf), incl[1:, [self._inclusion[nm] for nm in names]]

    def enumeration(self) -> "ModelEnumeration":
        if self._enumeration is None:
            self._enumeration = ModelEnumeration(self)
        return self._enumeration


class ModelEnumeration:
    """Exact posterior quantities by summing over all 2^q models.

    R^2_gamma does not depend on (w, g), so the per-model fits are done
    once, by the family's table build; a model that cannot be fitted stops
    the enumeration, and the family's _unfit names the first.  The prior's
    w-part depends on the model size alone, so `evaluate` sums the model
    weights by size in one O(2^q q) pass over the table per distinct g, and
    then needs O(q^2) work per point.  Model `code` includes predictor i when bit i of the code is
    set.  The enumeration holds m and its own arrays, and no reference to
    the family, so it works after the family is gone and the family's cache
    of it makes no reference cycle.
    """

    def __init__(self, family: BlvsFamily):
        q = family.q
        if q > ENUMERATION_MAX_Q:
            raise ValueError(f"enumeration supports q <= {ENUMERATION_MAX_Q}, got q={q}")
        self.m, self.q = family.m, q
        rssr = family.model_table()
        if rssr is None:
            rssr = family._build_table()
        self.q_gamma = family.model_sizes()
        # a model that cannot be fitted holds NaN: name the first, in order
        # of size and then code
        bad = np.flatnonzero(np.isnan(rssr))
        if bad.size:
            raise family._unfit(int(bad[np.argmin(self.q_gamma[bad])]))
        self.rss_ratio = rssr
        # at a fixed size, log m(y | gamma, g) falls as 1 - R^2 rises, so at
        # every g the model of least 1 - R^2 of a size has its largest one
        self._least_rss_ratio = np.full(q + 1, np.inf)
        np.minimum.at(self._least_rss_ratio, self.q_gamma, rssr)

    def _size_sums(self, g: float, high: np.ndarray, low: np.ndarray):
        """(top, S) at g: top[s] is the largest log m(y | gamma, g) among the
        models of size s; S[i, s] sums exp(log m - top[s]) over the models of
        size s that hold predictor i, and S[q, s] over all models of size s.

        The shift by top[s] keeps every model that can matter at some w from
        underflowing; log m - top[s] is -(m - 1)/2 (log1p(g r) - log1p(g
        r_min[s])) for 1 - R^2 = r and its least value r_min[s] at the size,
        whose log1p(g) terms cancel.  The weights, as a (2^a, 2^b) matrix of
        high by low code bits with b = q // 2, reduce through
        `_half_indicators` of each half to sums by (predictor, high size, low
        size), whose anti-diagonals are the sums by size."""
        q = self.q
        b = q // 2
        a = q - b
        top = _log_marginal(self.m, np.arange(q + 1), self._least_rss_ratio, g)
        e = np.multiply(self.rss_ratio, g)
        np.log1p(e, out=e)
        e -= np.log1p(g * self._least_rss_ratio)[self.q_gamma]
        e *= -0.5 * (self.m - 1)
        weights = np.exp(e, out=e).reshape(1 << a, 1 << b)
        by_low_size = weights @ low[:, -(b + 1):]
        by_high_size = high[:, -(a + 1):].T @ weights
        # (q + 1, a + 1, b + 1): the low predictors, the high ones, then all
        sums = np.concatenate([
            (by_high_size @ low[:, :-(b + 1)]).reshape(a + 1, b, b + 1).transpose(1, 0, 2),
            (high.T @ by_low_size).reshape(a + 1, a + 1, b + 1)])
        S = np.zeros((q + 1, q + 1))
        for j in range(b + 1):
            S[:, j:j + a + 1] += sums[:, :, j]
        return top, S

    def evaluate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(log m_h, P(gamma_i = 1 | y) for each predictor i) at each point h
        of points, in their order; log m_h is up to one h-independent
        constant.  With the size sums of the point's g and
        v_s = exp(s log(w / (1 - w)) + top[s]), m_h = (1 - w)^q sum_s v_s S[q, s]
        and P(gamma_i = 1 | y) = sum_s v_s S[i, s] / sum_s v_s S[q, s].  Each
        point's sums run along its own row, so its numbers do not depend on
        the other points of the call."""
        q = self.q
        H = BlvsFamily.validate_grid(points)
        gs, which = np.unique(H[:, 1], return_inverse=True)
        log_m, incl = np.empty(len(H)), np.empty((len(H), q))
        high = _half_indicators(self.q_gamma, q - q // 2)
        low = _half_indicators(self.q_gamma, q // 2)
        sizes = np.arange(q + 1, dtype=float)
        for i, g in enumerate(gs.tolist()):
            rows = np.flatnonzero(which == i)
            top, S = self._size_sums(g, high, low)
            w = H[rows, 0].tolist()
            alpha = np.array([math.log(x) - math.log1p(-x) for x in w])
            log_v = alpha[:, None] * sizes + top
            shift = log_v.max(axis=1)
            log_v -= shift[:, None]
            # products and a sum along each row, not a matmul, whose blocking
            # may depend on how many rows there are
            sums = (np.exp(log_v, out=log_v)[:, None, :] * S).sum(axis=-1)
            incl[rows] = sums[:, :q] / sums[:, q:]
            log_m[rows] = np.array([q * math.log1p(-x) for x in w]) + shift + np.log(sums[:, q])
        return log_m, incl

    def log_marginal(self, h) -> float:
        """log m_h up to the same h-independent constant."""
        return float(self.evaluate([h])[0][0])


def _half_indicators(q_gamma: np.ndarray, bits: int) -> np.ndarray:
    """For the codes 0, ..., 2^bits - 1 of one half of a code's bits, the
    (2^bits, (bits + 1)^2) 0/1 matrix whose column i (bits + 1) + s marks the
    codes of size s that hold predictor i of the half; the last bits + 1
    columns (i = bits) mark the codes of size s."""
    n = 1 << bits
    size = q_gamma[:n, None] == np.arange(bits + 1)
    held = np.ones((n, bits + 1), dtype=bool)
    held[:, :bits] = np.arange(n)[:, None] >> np.arange(bits) & 1
    return (held[:, :, None] & size[:, None, :]).reshape(n, -1).astype(float)
