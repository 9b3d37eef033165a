"""The long-run variance behind the stage-1 sandwich and every stage-2 term
(tau^2, sigma^2, rho), and the stage-allocation planner.

Every long-run covariance is chain-centred batch means (Flegal & Jones
2010, Annals of Statistics), b = floor(sqrt(m)) draws a batch for a chain
of m draws (`BatchLayout`), on series with time along the last axis:
`batch_sums` gives S, the weighted centred batch sums, whose S S' is the
long-run covariance matrix (the stage-1 sandwich solves against S).  S is
linear in the series' sums over each batch, so `BatchLayout.centred`
takes those sums, however they were formed (the stage-2 sweep forms them
from tables, never from the series)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_SERIES_LENGTH = 10      # shortest chain a long-run variance is taken of


class BatchLayout:
    """The batches of pooled chains of the given lengths.  A chain of m
    draws has a = floor(m / b) batches of b = floor(sqrt(m)) consecutive
    draws from its first draw, and its last m - a b draws (fewer than b)
    fall in no batch.  Each batch mean is centred at its chain's mean of
    batch means and weighs a_l b / (a - 1), a_l the chain's share of the
    pooled draws.  Held: the first draw of every batch and of every chain's
    tail (`cuts`, for `np.add.reduceat`) and which of those segments are
    batches (`keep`, None without tails); each batch's chain, weight and
    scale sqrt(weight) / b; each chain's first batch and number of batches."""

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.min() < MIN_SERIES_LENGTH:
            raise ValueError(f"series too short for batch means (m={counts.min()})")
        self.n = int(counts.sum())
        size = np.array([math.isqrt(m) for m in counts.tolist()])
        self.per_chain = counts // size
        cuts, keep = [], []
        for first, m, b, a in zip((np.cumsum(counts) - counts).tolist(), counts.tolist(),
                                  size.tolist(), self.per_chain.tolist()):
            keep += range(len(cuts), len(cuts) + a)
            cuts += range(first, first + m, b)      # the batches, then any tail
        self.cuts = np.array(cuts)
        self.keep = None if len(keep) == len(cuts) else np.array(keep)
        self.chain = np.repeat(np.arange(len(counts)), self.per_chain)
        self.first = np.cumsum(self.per_chain) - self.per_chain
        self.weight = (counts / self.n * size / (self.per_chain - 1))[self.chain]
        self.scale = np.sqrt(self.weight) / size[self.chain]

    def centred(self, sums: np.ndarray) -> np.ndarray:
        """`batch_sums` of series from their float sums over each batch,
        along the last axis, computed in sums itself and returned; each row
        on its own, so stacking series changes no bit."""
        sums *= self.scale
        centre = np.add.reduceat(sums, self.first, axis=-1) / self.per_chain
        sums -= np.take(centre, self.chain, axis=-1)
        return sums


def batch_sums(X, layout: BatchLayout) -> np.ndarray:
    """S with S S' the long-run covariance of the series along the last
    axis: each batch mean less its chain's mean of them, times the root of
    the batch's weight."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != layout.n:
        raise ValueError(f"series of length {X.shape[-1]} for a layout of {layout.n} draws")
    S = np.add.reduceat(X, layout.cuts, axis=-1)
    if layout.keep is not None:
        S = np.take(S, layout.keep, axis=-1)     # in C order, so rows reduce alike
    return layout.centred(S)


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


def predicted_variance(plan: PlanInputs, q) -> np.ndarray:
    """V(q): variance attainable with budget T at stage-size ratio q."""
    q = np.asarray(q, dtype=float)
    return (plan.v1 + plan.v2 / q) * ((q + 1.0) * plan.t1 + q * plan.g * plan.t2) / plan.T


def q_opt(plan: PlanInputs) -> StagePlan:
    """Optimal stage-size ratio and the implied chain lengths.

    Balances time generating stage-1 chains against time evaluating grid
    terms; large g or expensive grid terms push q toward 0.
    """
    qo = math.sqrt(plan.v2 * plan.t1 / (plan.v1 * (plan.t1 + plan.g * plan.t2)))
    n = qo * plan.T / ((qo + 1.0) * plan.t1 + qo * plan.g * plan.t2)
    return StagePlan(q_opt=qo, n=n, N=n / qo)
