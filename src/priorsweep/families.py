"""Family contract for prior densities indexed by a hyperparameter, plus a
conjugate-normal toy family with closed-form answers for validation.

A family supplies, for hyperparameter h and parameter value theta, the log
prior weight log nu_h(theta).  Weights are meaningful only through
differences: implementations may add any function of theta alone, since every
estimator downstream consumes ratios nu_h / nu_{h'}.  Families also supply a
posterior sampler and a vectorized weight evaluator over cached per-sample
statistics so that sweeping a large hyperparameter grid never re-touches
per-sample density code.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidHyperparameterError


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


@dataclass(frozen=True)
class FunctionOfTheta:
    """Named function f(theta) with a vectorized evaluator over a sample batch.

    The moment condition required for the posterior-expectation CLT is the
    caller's responsibility; indicators and other bounded f always satisfy it.
    """

    name: str
    batch: Callable[[object], np.ndarray]

    def __call__(self, samples) -> np.ndarray:
        out = np.asarray(self.batch(samples), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"function {self.name!r} returned non-finite values")
        return out


class DensityFamily(ABC):
    """Contract every model must satisfy to enter the two-stage pipeline."""

    coord_names: tuple[str, ...] = ("h",)

    @property
    def h_dim(self) -> int:
        return len(self.coord_names)

    def validate_h(self, h) -> tuple[float, ...]:
        coords = _as_coords(h)
        if len(coords) != self.h_dim:
            raise InvalidHyperparameterError(
                f"expected {self.h_dim} coordinates {self.coord_names}, got {coords}"
            )
        self._check_domain(coords)
        return coords

    def _check_domain(self, coords: tuple[float, ...]) -> None:
        """Raise InvalidHyperparameterError outside the family's domain."""

    @abstractmethod
    def log_prior_weight(self, h, state) -> float:
        """log nu_h(state), up to an additive function of state alone.

        Returns -inf iff nu_h(state) = 0.
        """

    @abstractmethod
    def sample_posterior(self, spec: ChainSpec):
        """Draw a posterior sample path; identical spec gives identical path."""

    @abstractmethod
    def weight_stats(self, samples):
        """Per-sample statistics sufficient to evaluate weights at any h."""

    @abstractmethod
    def log_weights(self, h, stats) -> np.ndarray:
        """Vectorized log nu_h over cached statistics (same offset as
        ``log_prior_weight``)."""

    def concat_chains(self, chains: Sequence):
        """Pool per-chain sample containers into one batch."""
        return np.concatenate([np.asarray(c, dtype=float) for c in chains])


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

    def __init__(self, y_obs: float, prior_sd: float = 1.0, like_sd: float = 1.0,
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

    def exact_pe(self, f_id: str, h) -> float:
        """Exact posterior expectation of f for f in {identity, square}."""
        mu = self.posterior_mean(h)
        if f_id == "identity":
            return mu
        if f_id == "square":
            return self.posterior_var() + mu**2
        raise ValueError(f"unknown toy function {f_id!r}")

    # family contract
    def log_prior_weight(self, h, state) -> float:
        (h,) = self.validate_h(h)
        return -0.5 * (float(state) - h) ** 2 / self.prior_sd**2

    def sample_posterior(self, spec: ChainSpec) -> np.ndarray:
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


def toy_function(f_id: str) -> FunctionOfTheta:
    """Vectorized toy functions matching ``ConjugateToy.exact_pe`` ids."""
    if f_id == "identity":
        return FunctionOfTheta("identity", lambda s: np.asarray(s, dtype=float))
    if f_id == "square":
        return FunctionOfTheta("square", lambda s: np.asarray(s, dtype=float) ** 2)
    raise ValueError(f"unknown toy function {f_id!r}")
