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

from .errors import (ConfigError, ConnectivityError, ConvergenceError,
                     SupportViolationError)
from .families import DensityFamily
from .variance import chain_lrv

RATIO_SCHEMA_VERSION = 2
TOL = 1e-10         # converged when max_j |gradient_j| / N < TOL
MAX_ITER = 200      # Newton iterations before ConvergenceError


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
    written without them loads with None.  trace is the solver's Newton
    trace (see estimate_d), None for a file written without it.
    """

    d_hat: np.ndarray            # (k,)
    sigma_hat: np.ndarray        # (k-1, k-1), covariance of sqrt(N)(d_hat - d)
    N: int
    counts: np.ndarray
    iterations: int
    final_grad_norm: float
    skeleton: list[tuple] | None = None
    stage1_hash: str | None = None
    trace: list[dict] | None = None

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
                "trace": self.trace,
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
            trace=d["solver"].get("trace"),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "RatioEstimate":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if version != RATIO_SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported schema_version {version!r}, "
                              f"expected {RATIO_SCHEMA_VERSION}; rerun stage 1")
        solver = doc.get("solver")
        missing = [key for key in ("d_hat", "sigma_hat", "N", "counts") if key not in doc]
        missing += [f"solver.{key}" for key in ("iterations", "final_grad_norm")
                    if not isinstance(solver, dict) or key not in solver]
        if missing:
            raise ConfigError(f"{path} lacks fields {', '.join(missing)}; "
                              f"rerun stage 1")
        return cls.from_dict(doc)


def _check_support(W: LogWeightMatrix, lse: np.ndarray) -> None:
    """Raise for a pooled sample whose log-terms are all -inf: the kernel
    gives it lse = -inf."""
    dead = np.flatnonzero(np.isneginf(lse))
    if dead.size:
        p = int(dead[0])
        raise SupportViolationError(
            f"pooled sample {p} (chain {W.chain_of(p)}) has zero density "
            f"under every skeleton prior"
        )


def _softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _objective(base: np.ndarray, eta: np.ndarray, counts: np.ndarray, out=None):
    """The log quasi-likelihood at eta with the column lse and the membership
    probabilities P from one kernel call; P is written into out if given."""
    lse, P = _softmax(np.subtract(base, eta[:, None], out=out))
    return -float(counts @ eta) - float(lse.sum()), lse, P


def estimate_d(W: LogWeightMatrix):
    """Maximize the reverse-logistic quasi-likelihood; returns the fitted
    ratios together with solver diagnostics.

    Converged when max_j |gradient_j| / N < TOL.  Raises ConnectivityError
    when the pooled samples cannot identify all ratios.  Besides the
    iteration count and final gradient norm, the diagnostics hold the trace
    (objective, gradient norm and sup-norm step in eta = log d at the start
    and after each iteration) and P at the optimum, for the sandwich.
    """
    k, N = W.k, W.total
    if k == 1:
        return np.ones(1), {"iterations": 0, "final_grad_norm": 0.0,
                            "trace": [], "P": np.ones((1, N))}
    counts = W.counts.astype(float)
    log_a = np.log(counts) - np.log(N)
    # three k x N arrays: base, the state's P and the trial buffer
    base = W.logw + log_a[:, None]
    buf = np.empty_like(base)
    state = {}
    trace = []

    def set_point(eta, value, lse, P, grad=None):
        nonlocal buf                             # the old P becomes the buffer
        if grad is None:
            grad = P.sum(axis=1) - counts
        step = float(np.max(np.abs(eta - state["eta"]))) if state else 0.0
        if P is buf:
            buf = state["P"]
        state.update(eta=eta, value=value, lse=lse, P=P, grad=grad,
                     grad_norm=np.max(np.abs(grad[1:])) / N)
        trace.append({"objective": value, "grad_norm": float(state["grad_norm"]),
                      "step": step})

    def try_point(trial) -> bool:
        """Accept on objective increase or, near the float resolution of the
        objective, on gradient contraction."""
        t_value, t_lse, t_P = _objective(base, trial, counts, out=buf)
        if not np.isfinite(t_value):
            return False
        if t_value > state["value"]:
            set_point(trial, t_value, t_lse, t_P)
            return True
        if t_value >= state["value"] - 1e-13 * max(abs(state["value"]), 1.0):
            t_grad = t_P.sum(axis=1) - counts
            if np.max(np.abs(t_grad[1:])) / N < 0.9 * state["grad_norm"]:
                set_point(trial, t_value, t_lse, t_P, t_grad)
                return True
        return False

    value, lse, P = _objective(base, np.zeros(k), counts)
    _check_support(W, lse)
    set_point(np.zeros(k), value, lse, P)
    for iterations in range(MAX_ITER):
        if state["grad_norm"] < TOL:
            break
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
            # self-consistency fixed point, re-pinned to eta_1 = 0: the row
            # log-sum-exp of logw - lse, the kernel on the transposed buffer
            row_lse, _ = _softmax(np.subtract(W.logw, state["lse"], out=buf).T)
            trial = row_lse - np.log(N)
            trial = trial - trial[0]
            if not try_point(trial):
                raise ConnectivityError(
                    "quasi-likelihood solver stalled; skeleton chains "
                    "appear insufficiently connected"
                )
    else:
        iterations = MAX_ITER
        if state["grad_norm"] >= TOL:
            raise ConvergenceError(
                f"ratio solver did not reach tolerance after {MAX_ITER} iterations "
                f"(gradient norm {state['grad_norm']:.3e})"
            )
    _check_curvature(state["P"], counts)
    return np.exp(state["eta"]), {"iterations": iterations,
                                  "final_grad_norm": float(state["grad_norm"]),
                                  "trace": trace, "P": state["P"]}


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


def estimate_sigma(W: LogWeightMatrix, d_hat: np.ndarray) -> np.ndarray:
    """Sandwich covariance of sqrt(N)(d_hat - d)."""
    z = W.logw + np.log(W.proportions)[:, None]
    z -= np.log(np.asarray(d_hat, dtype=float))[:, None]
    return _sandwich(W, d_hat, _softmax(z)[1])


def _sandwich(W: LogWeightMatrix, d_hat: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Sandwich covariance from the membership probabilities P at d_hat.

    B_hat is the averaged negative Hessian of the quasi-likelihood; S_hat is
    the chain-weighted spectral long-run covariance of the per-observation
    score, each coordinate centered at its chain mean (the per-chain means
    cancel only in aggregate, so centering must be per chain).
    """
    N = W.total
    if W.k == 1:
        return np.zeros((0, 0))
    B = (np.diag(P.sum(axis=1)) - P @ P.T)[1:, 1:] / N
    scores = -P[1:, :].T.copy()                  # (M, k-1)
    for j, sl in enumerate(W.chain_slices):
        if j >= 1:
            scores[sl, j - 1] += 1.0
    S = chain_lrv(scores, W.chain_slices, W.proportions)
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


def estimate_ratios(W: LogWeightMatrix) -> RatioEstimate:
    """Run both halves of stage 1 and package the result; the sandwich
    reuses the solver's P at the optimum."""
    d_hat, info = estimate_d(W)
    sigma_hat = _sandwich(W, d_hat, info["P"])
    return RatioEstimate(d_hat=d_hat, sigma_hat=sigma_hat, N=W.total,
                         counts=W.counts.copy(), iterations=info["iterations"],
                         final_grad_norm=info["final_grad_norm"],
                         skeleton=list(W.skeleton), trace=info["trace"])
