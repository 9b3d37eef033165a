"""Stage 1: estimate d = (m_{h_2}/m_{h_1}, ..., m_{h_k}/m_{h_1}) from pooled
chains via reverse logistic regression, with a sandwich estimate of the
asymptotic covariance of sqrt(N) (d_hat - d).

The log quasi-likelihood is maximized in eta = log d coordinates (eta_1
pinned to 0), where it is concave.  A damped Newton iteration is used, with
the classical self-consistency fixed point as a fallback when a Newton step
fails to increase the objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import ConnectivityError, ConvergenceError, SupportViolationError
from .families import DensityFamily
from .variance import SpectralConfig, chain_lrv

RATIO_SCHEMA_VERSION = 2


@dataclass
class LogWeightMatrix:
    """Cached log prior weights log nu_{h_s}(theta_p) for all skeleton points
    s and pooled samples p; every downstream estimator reuses it so model
    density code runs exactly once per sample."""

    logw: np.ndarray             # (k, M)
    counts: np.ndarray           # (k,) chain lengths, blocks are contiguous
    skeleton: list[tuple]
    family: DensityFamily
    stats: object                # pooled per-sample weight statistics
    samples: object              # pooled samples, for function evaluation

    @property
    def k(self) -> int:
        return self.logw.shape[0]

    @property
    def total(self) -> int:
        return self.logw.shape[1]

    @property
    def proportions(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def chain_slices(self) -> list[slice]:
        ends = np.cumsum(self.counts)
        starts = ends - self.counts
        return [slice(int(a), int(b)) for a, b in zip(starts, ends)]

    def chain_of(self, p: int) -> int:
        return int(np.searchsorted(np.cumsum(self.counts), p, side="right"))


def build_log_weight_matrix(family: DensityFamily, skeleton: Sequence,
                            chains: Sequence) -> LogWeightMatrix:
    """Evaluate log nu_{h_s} once for every pooled sample and skeleton point."""
    if len(skeleton) != len(chains) or len(skeleton) == 0:
        raise ValueError("need one chain per skeleton point (k >= 1)")
    hs = [family.validate_h(h) for h in skeleton]
    counts = np.array([len(c) for c in chains], dtype=np.int64)
    if np.any(counts == 0):
        raise ValueError("empty chain in stage input")
    pooled = family.concat_chains(chains)
    stats = family.weight_stats(pooled)
    rows = []
    for s, h in enumerate(hs):
        row = np.asarray(family.log_weights(h, stats), dtype=float)
        bad = np.flatnonzero(np.isnan(row) | np.isposinf(row))
        if bad.size:
            raise ValueError(
                f"family weight evaluation failed at skeleton {s}, pooled sample {bad[0]}"
            )
        rows.append(row)
    logw = np.vstack(rows)
    return LogWeightMatrix(logw=logw, counts=counts, skeleton=hs,
                           family=family, stats=stats, samples=pooled)


@dataclass
class RatioEstimate:
    """d_hat with first entry 1, its sandwich covariance, and solver info.

    skeleton and stage1_hash identify the stage-1 inputs, so that a stage-2
    run can refuse an estimate made for another skeleton or config; a file
    written without them loads with None.
    """

    d_hat: np.ndarray            # (k,)
    sigma_hat: np.ndarray        # (k-1, k-1), covariance of sqrt(N)(d_hat - d)
    N: int
    counts: np.ndarray
    iterations: int
    final_grad_norm: float
    skeleton: list[tuple] | None = None
    stage1_hash: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": RATIO_SCHEMA_VERSION,
            "d_hat": self.d_hat.tolist(),
            "sigma_hat": self.sigma_hat.tolist(),
            "N": int(self.N),
            "counts": self.counts.tolist(),
            "skeleton": (None if self.skeleton is None
                         else [list(h) for h in self.skeleton]),
            "stage1_hash": self.stage1_hash,
            "solver": {
                "iterations": int(self.iterations),
                "final_grad_norm": float(self.final_grad_norm),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RatioEstimate":
        return cls(
            d_hat=np.asarray(d["d_hat"], dtype=float),
            sigma_hat=np.asarray(d["sigma_hat"], dtype=float).reshape(
                len(d["d_hat"]) - 1, len(d["d_hat"]) - 1),
            N=int(d["N"]),
            counts=np.asarray(d["counts"], dtype=np.int64),
            iterations=int(d["solver"]["iterations"]),
            final_grad_norm=float(d["solver"]["final_grad_norm"]),
            skeleton=(None if d.get("skeleton") is None
                      else [tuple(float(c) for c in h) for h in d["skeleton"]]),
            stage1_hash=d.get("stage1_hash"),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "RatioEstimate":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _check_support(W: LogWeightMatrix) -> None:
    dead = np.flatnonzero(np.all(np.isneginf(W.logw), axis=0))
    if dead.size:
        p = int(dead[0])
        raise SupportViolationError(
            f"pooled sample {p} (chain {W.chain_of(p)}) has zero density "
            f"under every skeleton prior"
        )


def _objective_parts(base: np.ndarray, eta: np.ndarray, counts: np.ndarray):
    z = base - eta[:, None]
    # column max shift: _check_support has ruled out an all -inf column
    mx = z.max(axis=0)
    lse = mx + np.log(np.exp(z - mx).sum(axis=0))
    value = -float(counts @ eta) - float(lse.sum())
    return value, z, lse


def estimate_d(W: LogWeightMatrix, tol: float = 1e-10, max_iter: int = 200):
    """Maximize the reverse-logistic quasi-likelihood; returns the fitted
    ratios together with solver diagnostics.

    Converged when max_j |gradient_j| / N < tol.  Raises ConnectivityError
    when the pooled samples cannot identify all ratios.
    """
    k, N = W.k, W.total
    if k == 1:
        return np.ones(1), {"iterations": 0, "final_grad_norm": 0.0}
    _check_support(W)
    counts = W.counts.astype(float)
    log_a = np.log(counts) - np.log(N)
    base = W.logw + log_a[:, None]

    state = {}

    def set_point(eta, value, z, lse):
        P = np.exp(z - lse)                      # membership probabilities
        state.update(eta=eta, value=value, lse=lse, P=P,
                     grad=P.sum(axis=1) - counts)
        state["grad_norm"] = np.max(np.abs(state["grad"][1:])) / N

    def try_point(trial) -> bool:
        """Accept on objective increase or, near the float resolution of the
        objective, on gradient contraction."""
        t_value, t_z, t_lse = _objective_parts(base, trial, counts)
        if not np.isfinite(t_value):
            return False
        if t_value > state["value"]:
            set_point(trial, t_value, t_z, t_lse)
            return True
        if t_value >= state["value"] - 1e-13 * max(abs(state["value"]), 1.0):
            t_gn = np.max(np.abs(np.exp(t_z - t_lse).sum(axis=1)[1:] - counts[1:])) / N
            if t_gn < 0.9 * state["grad_norm"]:
                set_point(trial, t_value, t_z, t_lse)
                return True
        return False

    set_point(np.zeros(k), *_objective_parts(base, np.zeros(k), counts))
    for iterations in range(max_iter):
        if state["grad_norm"] < tol:
            _check_curvature(state["P"], counts)
            return np.exp(state["eta"]), {"iterations": iterations,
                                          "final_grad_norm": state["grad_norm"]}
        P = state["P"]
        B = np.diag(P.sum(axis=1)) - P @ P.T     # -Hessian of the objective
        try:
            step = np.linalg.solve(B[1:, 1:], state["grad"][1:])
        except np.linalg.LinAlgError:
            step = None
        moved = False
        if step is not None and np.all(np.isfinite(step)):
            alpha = 1.0
            for _ in range(40):
                trial = state["eta"].copy()
                trial[1:] += alpha * step
                if try_point(trial):
                    moved = True
                    break
                alpha *= 0.5
        if not moved:
            # self-consistency fixed point, re-pinned to eta_1 = 0
            trial = logsumexp(W.logw - state["lse"], axis=1) - np.log(N)
            trial = trial - trial[0]
            if not try_point(trial):
                raise ConnectivityError(
                    "quasi-likelihood solver stalled; skeleton chains "
                    "appear insufficiently connected"
                )
    if state["grad_norm"] >= tol:
        raise ConvergenceError(
            f"ratio solver did not reach tolerance after {max_iter} iterations "
            f"(gradient norm {state['grad_norm']:.3e})"
        )
    _check_curvature(state["P"], counts)
    return np.exp(state["eta"]), {"iterations": max_iter,
                                  "final_grad_norm": state["grad_norm"]}


def _check_curvature(P: np.ndarray, counts: np.ndarray) -> None:
    """The curvature matrix must be nonsingular at the optimum, else the
    ratios are not identified (e.g. chains with pairwise-disjoint support)."""
    B = (np.diag(P.sum(axis=1)) - P @ P.T)[1:, 1:]
    n_dim = B.shape[0]
    ridge = 1e-12 * max(np.trace(B), 1e-300) / n_dim
    try:
        np.linalg.cholesky(B + ridge * np.eye(n_dim))
    except np.linalg.LinAlgError:
        weak = [j + 2 for j in range(n_dim) if B[j, j] <= 1e-10 * counts[j + 1]]
        raise ConnectivityError(
            f"curvature matrix singular at the optimum; chains {weak or '(mixed)'} "
            f"do not overlap the rest of the skeleton"
        ) from None


def estimate_sigma(W: LogWeightMatrix, d_hat: np.ndarray,
                   spectral: SpectralConfig | None = None) -> np.ndarray:
    """Sandwich covariance of sqrt(N)(d_hat - d).

    B_hat is the averaged negative Hessian of the quasi-likelihood; S_hat is
    the chain-weighted spectral long-run covariance of the per-observation
    score, each coordinate centered at its chain mean (the per-chain means
    cancel only in aggregate, so centering must be per chain).
    """
    k, N = W.k, W.total
    if k == 1:
        return np.zeros((0, 0))
    spectral = spectral or SpectralConfig()
    counts = W.counts.astype(float)
    a = counts / N
    log_a = np.log(a)
    eta = np.log(np.asarray(d_hat, dtype=float))
    z = W.logw + log_a[:, None] - eta[:, None]
    P = np.exp(z - logsumexp(z, axis=0))

    B = (np.diag(P.sum(axis=1)) - P @ P.T)[1:, 1:] / N
    scores = -P[1:, :].T.copy()                  # (M, k-1)
    for j, sl in enumerate(W.chain_slices):
        if j >= 1:
            scores[sl, j - 1] += 1.0
    S = chain_lrv(scores, W.chain_slices, a, spectral)
    # S'S is PSD by construction; the clip removes rounding-level negatives
    evals, evecs = np.linalg.eigh((S + S.T) / 2.0)
    S = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    try:
        binv_s = np.linalg.solve(B, S)
        sigma_eta = np.linalg.solve(B, binv_s.T).T
    except np.linalg.LinAlgError:
        raise ConnectivityError(
            "curvature matrix is singular; skeleton chains appear "
            "insufficiently connected"
        ) from None
    sigma_eta = (sigma_eta + sigma_eta.T) / 2.0
    scale = np.asarray(d_hat, dtype=float)[1:]
    return sigma_eta * np.outer(scale, scale)


def estimate_ratios(W: LogWeightMatrix, tol: float = 1e-10,
                    spectral: SpectralConfig | None = None) -> RatioEstimate:
    """Run both halves of stage 1 and package the result."""
    d_hat, info = estimate_d(W, tol=tol)
    sigma_hat = estimate_sigma(W, d_hat, spectral=spectral)
    return RatioEstimate(d_hat=d_hat, sigma_hat=sigma_hat, N=W.total,
                         counts=W.counts.copy(), iterations=info["iterations"],
                         final_grad_norm=info["final_grad_norm"],
                         skeleton=list(W.skeleton))
