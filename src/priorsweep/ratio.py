"""Stage 1: estimate d = (m_{h_2}/m_{h_1}, ..., m_{h_k}/m_{h_1}) from pooled
chains via reverse logistic regression, with a sandwich estimate of the
asymptotic covariance of sqrt(N) (d_hat - d), C C' for C the curvature
solved against the batch sums of the scores (`variance.batch_sums`).
`RatioEstimate.save` and `load` are the whole ratio.json contract.

The log quasi-likelihood is maximized in eta = log d coordinates (eta_1
pinned to 0), where it is concave.  A damped Newton iteration is used,
started from one step of the classical self-consistency fixed point
(Geyer 1994) from eta = 0, with that step as a fallback when a Newton step
fails to increase the objective.  Every evaluation reads the one
exponentiated k x N array E of `Mixture`: a trial point costs one product
c E, an accepted point one E s^-1, and a Newton step one E s^-2 E'.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (ConfigError, ConnectivityError, ConvergenceError,
                     SupportViolationError, integer)
from .families import DensityFamily
from .variance import BatchLayout, batch_sums

RATIO_SCHEMA_VERSION = 4
TOL = 1e-10         # converged when max_j |gradient_j| / N < TOL
MAX_ITER = 200      # Newton iterations before ConvergenceError
REACH = 30.0        # E is re-taken past this from ref, so that s >= e^-30


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
    pooled = np.concatenate(chains)
    stats = family.weight_stats(pooled)
    logw = np.empty((len(hs), int(counts.sum())))
    for row, h in zip(logw, hs):
        row[:] = family.log_weights(h, stats)
    ok = logw < np.inf                           # false at nan and +inf
    if not ok.all():
        s, p = np.argwhere(~ok)[0]
        raise ValueError(f"family weight evaluation failed at skeleton {s}, pooled sample {p}")
    return LogWeightMatrix(logw=logw, counts=counts, skeleton=hs,
                           family=family, stats=stats, samples=pooled)


@dataclass
class RatioEstimate:
    """d_hat with first entry 1, its sandwich covariance, the skeleton it
    was estimated for, and solver info.  trace is the solver's Newton trace
    (see estimate_d), None for a file written without it.

    `save` writes the stage-1 config hash next to the estimate; `load`
    refuses a file that is missing, of another schema, short of a field or
    of a wrong type, whose numbers do not fit together, or that was made
    for another skeleton or stage-1 config hash.
    """

    d_hat: np.ndarray            # (k,)
    sigma_hat: np.ndarray        # (k-1, k-1), covariance of sqrt(N)(d_hat - d)
    N: int
    counts: np.ndarray
    iterations: int
    final_grad_norm: float
    skeleton: list[tuple]
    trace: list[dict] | None = None

    def save(self, path, stage1_hash: str) -> None:
        doc = {
            "schema_version": RATIO_SCHEMA_VERSION,
            "d_hat": self.d_hat.tolist(),
            "sigma_hat": self.sigma_hat.tolist(),
            "N": int(self.N),
            "counts": self.counts.tolist(),
            "skeleton": [list(h) for h in self.skeleton],
            "stage1_hash": stage1_hash,
            "solver": {
                "iterations": int(self.iterations),
                "final_grad_norm": float(self.final_grad_norm),
                "trace": self.trace,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    @classmethod
    def load(cls, path, skeleton, stage1_hash: str) -> "RatioEstimate":
        if not Path(path).exists():
            raise ConfigError(f"stage 2 requires {path} from a prior stage-1 run")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if version != RATIO_SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported schema_version {version!r}, "
                              f"expected {RATIO_SCHEMA_VERSION}; rerun stage 1")
        solver = doc.get("solver")
        missing = [key for key in ("d_hat", "sigma_hat", "N", "counts", "skeleton",
                                   "stage1_hash") if key not in doc]
        missing += [f"solver.{key}" for key in ("iterations", "final_grad_norm")
                    if not isinstance(solver, dict) or key not in solver]
        if missing:
            raise ConfigError(f"{path} lacks fields {', '.join(missing)}; "
                              f"rerun stage 1")
        try:
            k = len(doc["d_hat"])
            est = cls(
                d_hat=np.asarray(doc["d_hat"], dtype=float),
                sigma_hat=np.asarray(doc["sigma_hat"], dtype=float).reshape(k - 1, k - 1),
                N=integer(doc["N"], "N"),
                counts=np.array([integer(c, "counts entry") for c in doc["counts"]],
                                dtype=np.int64),
                iterations=integer(solver["iterations"], "solver.iterations"),
                final_grad_norm=float(solver["final_grad_norm"]),
                skeleton=[tuple(float(c) for c in h) for h in doc["skeleton"]],
                trace=solver.get("trace"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path} holds a field of the wrong type ({exc}); "
                              f"rerun stage 1") from None
        d, S, total = est.d_hat, est.sigma_hat, int(est.counts.sum())
        for bad, problem in (
                (not (np.isfinite(d).all() and (d > 0).all() and d[0] == 1.0),
                 "d_hat must be finite and positive, with first entry 1"),
                (len(est.counts) != len(d),
                 f"counts has {len(est.counts)} entries for {len(d)} skeleton points"),
                (est.N != total, f"N is {est.N}, but the counts sum to {total}"),
                (not (np.isfinite(S).all() and np.array_equal(S, S.T)),
                 "sigma_hat must be finite and symmetric")):
            if bad:
                raise ConfigError(f"{path}: {problem}; rerun stage 1")
        if est.skeleton != skeleton:
            raise ConfigError(f"{path} was estimated for skeleton {est.skeleton}, "
                              f"not {skeleton}; rerun stage 1")
        if doc["stage1_hash"] != stage1_hash:
            raise ConfigError(f"{path} was estimated under another model, skeleton "
                              f"or stage1 config; rerun stage 1")
        return est


class Mixture:
    """The skeleton mixture of the pooled samples from one exponentiation:
    E = exp(logw + log a - ref - mx) at a reference eta = ref, mx the column
    max, so every entry of E lies in [0, 1] and every column holds a 1.  At
    any eta = log d, with c = exp(ref - eta), the column sums s = c E give
    the log mixture density lse = mx + log s and the membership
    probabilities P = c E / s, so E is the only k x N array."""

    def __init__(self, W: LogWeightMatrix, ref: np.ndarray):
        self.W = W
        self.counts = W.counts.astype(float)
        self.E = np.empty_like(W.logw)
        self.reference(ref)

    def reference(self, ref: np.ndarray) -> None:
        """Take E at ref; raise for a pooled sample whose log-terms are all
        -inf."""
        E = np.add(self.W.logw, (np.log(self.W.proportions) - ref)[:, None], out=self.E)
        self.mx = E.max(axis=0)
        dead = np.flatnonzero(np.isneginf(self.mx))
        if dead.size:
            p = int(dead[0])
            raise SupportViolationError(
                f"pooled sample {p} (chain {self.W.chain_of(p)}) has zero density "
                f"under every skeleton prior")
        E -= self.mx
        np.exp(E, out=E)
        self.ref = ref

    def objective(self, eta: np.ndarray):
        """The log quasi-likelihood at eta, the column sums s and lse."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = np.exp(self.ref - eta) @ self.E
            lse = np.log(s)
        lse += self.mx
        return -float(self.counts @ eta) - float(lse.sum()), s, lse

    def masses(self, eta: np.ndarray, s: np.ndarray) -> np.ndarray:
        """P 1 = c (E s^-1), the row sums of P."""
        return np.exp(self.ref - eta) * (self.E @ (1.0 / s))

    def curvature(self, eta, s, out: np.ndarray) -> np.ndarray:
        """diag(P 1) - P P', the negative Hessian of the objective, with
        P P' = (c c') (E s^-2 E') and E s^-2 written into out.  Each column
        of P sums to 1, so each row of the curvature sums to 0: its diagonal
        is the sum of the row's off-diagonal products, which does not cancel
        P 1 against the squares of P when the chains barely overlap."""
        c, r = np.exp(self.ref - eta), 1.0 / s
        np.multiply(self.E, r * r, out=out)
        B = -np.outer(c, c) * (out @ self.E.T)
        np.fill_diagonal(B, 0.0)
        np.fill_diagonal(B, -B.sum(axis=1))
        return B

    def probabilities(self, eta, s, out: np.ndarray) -> np.ndarray:
        """P = c E / s, written into out (which may be E itself)."""
        np.divide(self.E, s, out=out)
        out *= np.exp(self.ref - eta)[:, None]
        return out


def estimate_d(W: LogWeightMatrix):
    """Maximize the reverse-logistic quasi-likelihood; returns the fitted
    ratios together with solver diagnostics.

    Converged when max_j |gradient_j| / N < TOL.  Raises ConnectivityError
    when the pooled samples cannot identify all ratios.  Besides the
    iteration count and final gradient norm, the diagnostics hold the trace
    (objective, gradient norm and sup-norm step in eta = log d at the start
    and after each iteration), and P and the curvature at the optimum.
    """
    k, N = W.k, W.total
    if k == 1:
        return np.ones(1), {"iterations": 0, "final_grad_norm": 0.0, "trace": [],
                            "P": np.ones((1, N)), "curvature": np.zeros((0, 0))}
    mix = Mixture(W, np.zeros(k))
    counts = mix.counts
    scratch = np.empty_like(mix.E)           # E s^-2 for each curvature, then P
    state = {}
    trace = []

    def set_point(eta, value, s):
        if np.max(np.abs(eta - mix.ref)) > REACH:
            mix.reference(eta)
            value, s, _ = mix.objective(eta)
        masses = mix.masses(eta, s)
        grad = masses - counts
        step = float(np.max(np.abs(eta - state["eta"]))) if state else 0.0
        state.update(eta=eta, value=value, s=s, masses=masses, grad=grad,
                     grad_norm=np.max(np.abs(grad[1:])) / N)
        trace.append({"objective": value, "grad_norm": float(state["grad_norm"]),
                      "step": step})

    def try_point(trial) -> bool:
        """Accept on objective increase or, near the float resolution of the
        objective, on gradient contraction."""
        t_value, t_s, _ = mix.objective(trial)
        if not np.isfinite(t_value):
            return False
        near = t_value >= state["value"] - 1e-13 * max(abs(state["value"]), 1.0)
        if t_value > state["value"] or (near and np.max(np.abs(
                (mix.masses(trial, t_s) - counts)[1:])) / N < 0.9 * state["grad_norm"]):
            set_point(trial, t_value, t_s)
            return True
        return False

    def fixed_point_step() -> bool:
        """One self-consistency step, re-pinned to eta_1 = 0: the row sums of
        nu_s / (N mixture), log(P 1) + eta - log counts."""
        with np.errstate(divide="ignore"):
            trial = np.log(state["masses"]) + state["eta"] - np.log(counts)
        return try_point(trial - trial[0])

    set_point(np.zeros(k), *mix.objective(np.zeros(k))[:2])
    # the first iteration is a fixed-point step, which lands near the
    # optimum; if it is rejected, Newton starts from eta = 0
    start = int(state["grad_norm"] >= TOL and fixed_point_step())
    for iterations in range(start, MAX_ITER):
        if state["grad_norm"] < TOL:
            break
        B = mix.curvature(state["eta"], state["s"], scratch)
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
        if not moved and not fixed_point_step():
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
    eta, s = state["eta"], state["s"]
    B = _check_curvature(mix.curvature(eta, s, scratch), counts)
    return np.exp(eta), {"iterations": iterations,
                         "final_grad_norm": float(state["grad_norm"]),
                         "trace": trace, "P": mix.probabilities(eta, s, scratch),
                         "curvature": B}


def _check_curvature(B: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The curvature matrix (the negative Hessian in eta_2..eta_k) from the
    k x k one at the optimum, which must be nonsingular, else the ratios are
    not identified (e.g. chains with pairwise-disjoint support)."""
    B = B[1:, 1:]
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
    return B


def _sandwich(W: LogWeightMatrix, d_hat: np.ndarray, P: np.ndarray,
              curvature: np.ndarray) -> np.ndarray:
    """Sandwich covariance of sqrt(N)(d_hat - d) from the membership
    probabilities P at d_hat and the curvature matrix there: C C', PSD and
    exactly symmetric by construction, for C = B_hat^-1 A with its rows
    scaled by d_hat_2..k.  B_hat is the curvature over N, and A A' the
    batch-means long-run covariance of the per-observation scores, A their
    weighted batch sums (`variance.batch_sums`), each batch centred at its
    chain's mean, since the per-chain means cancel only in aggregate.
    """
    # score j of a draw: 1 if chain j drew it, less P_j there; (k-1, N)
    scores = (np.arange(1, W.k)[:, None] == np.repeat(np.arange(W.k), W.counts)) - P[1:]
    A = batch_sums(scores, BatchLayout(W.counts))
    try:
        C = np.linalg.solve(curvature / W.total, A)
    except np.linalg.LinAlgError:
        raise ConnectivityError(
            "curvature matrix is singular; skeleton chains appear "
            "insufficiently connected"
        ) from None
    C *= np.asarray(d_hat, dtype=float)[1:, None]
    return C @ C.T


def estimate_ratios(W: LogWeightMatrix) -> RatioEstimate:
    """Run both halves of stage 1 and package the result; the sandwich
    reuses the solver's P and curvature matrix at the optimum."""
    d_hat, info = estimate_d(W)
    sigma_hat = _sandwich(W, d_hat, info["P"], info["curvature"])
    return RatioEstimate(d_hat=d_hat, sigma_hat=sigma_hat, N=W.total,
                         counts=W.counts.copy(), iterations=info["iterations"],
                         final_grad_norm=info["final_grad_norm"],
                         skeleton=list(W.skeleton), trace=info["trace"])
