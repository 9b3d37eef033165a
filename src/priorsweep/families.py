"""Family contract for prior densities indexed by a hyperparameter, plus a
conjugate-normal toy family with closed-form answers for validation.

A family supplies Markov chains at the skeleton points (sample_chains, its
one sampling method) and, for hyperparameter h, the log weight log nu_h of
each draw: a density in h of whatever the chains carry, evaluated over
cached per-sample statistics so that sweeping a large hyperparameter grid
never re-touches per-sample density code.  A family may also split the
grid into lines along which the weights factor (lines, cells), so that
the sweep passes over the samples once per line, not once per point.
Weights are meaningful only through differences: implementations may add
any function of the draw alone, since every estimator downstream consumes
ratios nu_h / nu_{h'}.
The functions f(theta) whose posterior expectations a run estimates are
names, and only the family knows what a name means: it checks the names a
config gives (function_names), evaluates them over the pooled draws
(function_rows) and, where it can, gives their exact values (exact).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidHyperparameterError


@dataclass(frozen=True)
class ChainSpec:
    """One posterior run: where to sample, how long, and with which seed."""

    h: tuple[float, ...]
    length: int
    burn_in: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "h", _as_coords(self.h))
        if self.length <= 0:
            raise ValueError(f"chain length must be positive, got {self.length}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in}")


def _as_coords(h) -> tuple[float, ...]:
    if np.isscalar(h):
        coords = (float(h),)
    else:
        coords = tuple(float(c) for c in h)
    if not all(math.isfinite(c) for c in coords):
        raise InvalidHyperparameterError(f"non-finite hyperparameter {coords}")
    return coords


class DensityFamily(ABC):
    """Contract every model must satisfy to enter the two-stage pipeline."""

    coord_names: tuple[str, ...] = ("h",)
    # the domain, as (coordinate, test, rule) triples: each test holds for
    # one value or elementwise for an array of them, and a value that fails
    # is reported as "<coordinate> must <rule>"
    domain: tuple = ()

    # classmethods, as they read only coord_names and domain
    @classmethod
    def validate_h(cls, h) -> tuple[float, ...]:
        coords = _as_coords(h)
        if len(coords) != len(cls.coord_names):
            raise InvalidHyperparameterError(
                f"expected {len(cls.coord_names)} coordinates {cls.coord_names}, got {coords}"
            )
        for i, test, rule in cls.domain:
            if not test(coords[i]):
                raise InvalidHyperparameterError(
                    f"{cls.coord_names[i]} must {rule}, got {coords[i]}")
        return coords

    @classmethod
    def validate_grid(cls, points) -> np.ndarray:
        """The points as a read-only (G, d) float array, d the number of
        coordinates.  One vectorized test of the domain accepts a good grid;
        any other is checked point by point, so the error names its first
        bad point as validate_h does."""
        d = len(cls.coord_names)
        try:
            H = np.array(points, dtype=float)
        except (TypeError, ValueError):
            H = np.empty((0, 0))
        if H.ndim == 1 and (d == 1 or not H.size):
            H = H.reshape(-1, d)
        if H.shape[1:] != (d,) or not (
                np.isfinite(H).all()
                and all(test(H[:, i]).all() for i, test, _ in cls.domain)):
            H = np.array([cls.validate_h(h) for h in points]).reshape(-1, d)
        H.flags.writeable = False
        return H

    @abstractmethod
    def sample_chains(self, specs: Sequence[ChainSpec]) -> list:
        """The posterior sample paths of a stage, one per spec and in order,
        each an array with one draw per row, so the chains of a stage pool
        by np.concatenate; a chain depends on its own spec alone, so
        identical specs give identical paths."""

    @abstractmethod
    def weight_stats(self, samples):
        """Statistics of the samples sufficient to evaluate every sample's
        weight at any h (per sample, or per distinct value with each
        sample's index into them)."""

    @abstractmethod
    def log_weights(self, h, stats) -> np.ndarray:
        """log nu_h of every sample, from cached statistics, up to an
        additive function of the sample alone; -inf where nu_h = 0."""

    def cells(self, stats) -> np.ndarray | None:
        """The cell of each sample, ints from 0 (None: every sample in cell
        0): along a line of the grid (`lines`), the weights of the samples
        of one cell move by one factor.  A function of the samples alone."""
        return None

    def lines(self, H: np.ndarray, stats):
        """The grid points H as lines, one (rows, log_e, log_c) per line:
        rows, the indices in H of its points; log_e, a log weight of every
        sample shared by the line; and log_c, one row per point with a
        column for each cell, such that log nu_h of a sample of cell s at
        the point H[rows[i]] is log_e + log_c[i, s].  By default each point
        is a line of its own, with log_c 0."""
        for i, h in enumerate(H):
            yield np.array([i]), self.log_weights(h, stats), np.zeros((1, 1))

    def function_names(self, items: Sequence[str]) -> list[str]:
        """The functions f(theta) a config names, one name per function in
        the order of their rows; ConfigError names one this family lacks."""
        if items:
            raise ConfigError(f"unknown function {items[0]!r} for this model")
        return []

    def function_rows(self, names: Sequence[str], samples) -> np.ndarray:
        """(J, n) float array: row j holds the function names[j] at each of
        the n pooled samples (bounded f, as indicators, meet the CLT's moment
        condition)."""
        return np.empty((0, len(samples)))

    def exact(self, h1, grid: np.ndarray, names: Sequence[str]):
        """Exact Bayes factors B(h, h1) (G,) and posterior expectations of
        the named functions (G, J) at the points of grid."""
        raise ConfigError("no exact oracle for this model kind")


class ConjugateToy(DensityFamily):
    """Normal-normal conjugate model used as an end-to-end validation oracle.

    theta ~ N(h, prior_sd^2), y | theta ~ N(theta, like_sd^2).  Everything is
    available in closed form: the marginal likelihood m_h, the posterior
    mean/variance, and hence Bayes factors and posterior expectations.

    ``sampler="iid"`` draws exact posterior samples, isolating estimator
    formulas from mixing effects.  ``sampler="ar1"`` runs a stationary AR(1)
    chain with the same invariant posterior (autocorrelation ``ar1_phi``) for
    Markov-chain variance validation.
    """

    coord_names = ("h",)

    def __init__(self, y_obs: float = 0.0, prior_sd: float = 1.0, like_sd: float = 1.0,
                 sampler: str = "iid", ar1_phi: float = 0.5):
        if prior_sd <= 0 or like_sd <= 0:
            raise ValueError("prior_sd and like_sd must be positive")
        if sampler not in ("iid", "ar1"):
            raise ValueError(f"unknown sampler {sampler!r}")
        if not -1.0 < ar1_phi < 1.0:
            raise ValueError("ar1_phi must lie in (-1, 1)")
        self.y_obs = float(y_obs)
        self.prior_sd = float(prior_sd)
        self.like_sd = float(like_sd)
        self.sampler = sampler
        self.ar1_phi = float(ar1_phi)

    # closed-form posterior pieces
    def posterior_mean(self, h) -> float:
        (h,) = self.validate_h(h)
        prec = 1.0 / self.prior_sd**2 + 1.0 / self.like_sd**2
        return (h / self.prior_sd**2 + self.y_obs / self.like_sd**2) / prec

    def posterior_var(self) -> float:
        return 1.0 / (1.0 / self.prior_sd**2 + 1.0 / self.like_sd**2)

    def log_marginal(self, h) -> float:
        (h,) = self.validate_h(h)
        v = self.prior_sd**2 + self.like_sd**2
        return -0.5 * (self.y_obs - h) ** 2 / v - 0.5 * math.log(2.0 * math.pi * v)

    def exact_bf(self, h, h1) -> float:
        """Exact ratio of marginal likelihoods m_h / m_{h1}."""
        return math.exp(self.log_marginal(h) - self.log_marginal(h1))

    def exact(self, h1, grid, names):
        bf = [self.exact_bf(h, h1) for h in grid]
        pe = [[self.exact_pe(nm, h) for nm in names] for h in grid]
        return np.array(bf), np.array(pe).reshape(len(grid), len(names))

    def exact_pe(self, f_id: str, h) -> float:
        """Exact posterior expectation of f for f in {identity, square}."""
        mu = self.posterior_mean(h)
        if f_id == "identity":
            return mu
        if f_id == "square":
            return self.posterior_var() + mu**2
        raise ValueError(f"unknown toy function {f_id!r}")

    # family contract
    def function_names(self, items):
        for item in items:
            if item not in ("identity", "square"):
                raise ConfigError(f"unknown toy function {item!r}")
        return list(items)

    def function_rows(self, names, samples):
        s = np.asarray(samples, dtype=float)
        return np.array([s if nm == "identity" else s**2 for nm in names]).reshape(
            len(names), len(s))

    def sample_chains(self, specs: Sequence[ChainSpec]) -> list[np.ndarray]:
        return [self.sample_posterior(sp) for sp in specs]

    def sample_posterior(self, spec: ChainSpec) -> np.ndarray:
        """The draws of one chain."""
        (h,) = self.validate_h(spec.h)
        mu = self.posterior_mean(h)
        sd = math.sqrt(self.posterior_var())
        rng = np.random.default_rng(spec.seed)
        total = spec.length + spec.burn_in
        if self.sampler == "iid":
            draws = rng.normal(mu, sd, size=total)
        else:
            # doubling scan: after each pass x[n] = sum_{j < 2 step} phi^j e[n-j]
            phi = self.ar1_phi
            x0 = rng.normal(0.0, sd)
            x = rng.normal(0.0, sd * math.sqrt(1.0 - phi**2), size=total)
            x[0] += phi * x0
            step, c = 1, phi
            while step < total:
                x[step:] += c * x[:-step]
                step, c = 2 * step, c * c
            draws = mu + x
        return draws[spec.burn_in:]

    def weight_stats(self, samples) -> np.ndarray:
        return np.asarray(samples, dtype=float)

    def log_weights(self, h, stats) -> np.ndarray:
        (h,) = self.validate_h(h)
        return -0.5 * (stats - h) ** 2 / self.prior_sd**2

