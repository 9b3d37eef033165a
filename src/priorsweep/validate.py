"""Built-in replication suites validating the estimators end to end on the
conjugate toy model: ratio-estimator calibration, variance/coverage checks
for all three estimator families (plain, control-variate, posterior
expectation), exact algebraic identities, and the control-variate reduction
study.

Tolerances are pinned at the reference replication counts; running with
fewer replications widens the statistical bands by sqrt(ref/reps) so quick
smoke runs remain meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .families import ChainSpec, ConjugateToy
from .ratio import Mixture, build_log_weight_matrix, estimate_d, estimate_ratios
from .surface import Stage2Workspace, surface
from .variance import PlanInputs, predicted_variance, q_opt

# Suite sizes: draws per chain (V1, V4) or over all chains (V2), and the
# reference replication counts at which the tolerances are pinned
V1_PER_CHAIN, V1_REPS = 20000, 200
V2_N_TOTAL, V2_REPS = 10000, 500
V4_PER_CHAIN, V4_REPS = 1500, 200


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}: {self.name}"


def _chains(family, skeleton, lengths, seeds):
    """One chain per skeleton point; lengths is one length or one per point."""
    lengths = np.broadcast_to(lengths, len(skeleton)).tolist()
    return family.sample_chains([ChainSpec(h=h, length=n, seed=int(s))
                                 for h, n, s in zip(skeleton, lengths, seeds)])


def _known_d(ws, grid, F=None):
    """The surface over grid with d taken as known (q = 0, Sigma = 0)."""
    F = np.empty((0, ws.n)) if F is None else F
    return surface(ws, grid, F, np.zeros((ws.W.k - 1,) * 2), 0.0)


def _seed_block(master: int, rep: int, k: int, salt: int):
    return np.random.SeedSequence((master, salt, rep)).generate_state(k)


def suite_v1_ratio_calibration(reps: int = V1_REPS, master_seed: int = 1151) -> SuiteResult:
    """|d_hat_j - d_j| < 3 sqrt(Sigma_jj / N) in at least 93% of replications
    on the i.i.d. toy with a three-point skeleton."""
    family = ConjugateToy(y_obs=0.0)
    skeleton = [(0.0,), (1.0,), (2.0,)]
    d_true = np.array([family.exact_bf(h, skeleton[0]) for h in skeleton])
    hits = np.zeros(2)
    for rep in range(reps):
        chains = _chains(family, skeleton, V1_PER_CHAIN,
                         _seed_block(master_seed, rep, 3, 1))
        W = build_log_weight_matrix(family, skeleton, chains)
        est = estimate_ratios(W)
        se = np.sqrt(np.diag(est.sigma_hat) / est.N)
        hits += (np.abs(est.d_hat[1:] - d_true[1:]) < 3.0 * se)
    frac = hits / reps
    floor = 0.93 - max(0.0, 0.02 * (math.sqrt(V1_REPS / reps) - 1.0))
    passed = bool(np.all(frac >= floor))
    return SuiteResult(
        "V1 ratio-estimator calibration",
        passed,
        [f"coverage of 3-SE bands: {frac.round(3).tolist()} (floor {floor:.3f})"],
    )


def _v2_single_run(family, skeleton, h_star, f, lengths, seeds1, seeds2, q):
    W1 = build_log_weight_matrix(family, skeleton, _chains(family, skeleton, lengths, seeds1))
    est = estimate_ratios(W1)
    W2 = build_log_weight_matrix(family, skeleton, _chains(family, skeleton, lengths, seeds2))
    ws = Stage2Workspace(W2, est.d_hat)
    surf = surface(ws, [h_star], family.function_rows([f], W2.samples), est.sigma_hat, q)
    return (surf.bf[0], surf.bf_cv[0], surf.pe[0, 0]), surf.total[0], surf.se[0]


def suite_v2_variance_validation(variant: str = "iid", reps: int = V2_REPS,
                                 master_seed: int = 2062) -> SuiteResult:
    """Empirical variance of sqrt(n)(estimator - truth) must match the mean
    assembled plug-in variance within +-15%, and nominal 95% intervals must
    cover truth 93-97% of the time, for each of B_hat, the control-variate
    estimate, and the posterior expectation of f = theta."""
    family = ConjugateToy(y_obs=0.0, sampler=variant)
    skeleton = [(0.0,), (1.0,), (2.0,)]
    h_star = (0.5,)
    f = "identity"
    k = len(skeleton)
    lengths = [V2_N_TOTAL // k + (1 if i < V2_N_TOTAL % k else 0) for i in range(k)]
    q = 1.0     # n = N by construction

    truth = np.array([
        family.exact_bf(h_star, skeleton[0]),
        family.exact_bf(h_star, skeleton[0]),
        family.exact_pe(f, h_star),
    ])
    ests = np.empty((reps, 3))
    totals = np.empty((reps, 3))
    covered = np.zeros(3)
    for rep in range(reps):
        seeds = _seed_block(master_seed + (variant == "ar1"), rep, 2 * k, 2)
        ests[rep], totals[rep], ses = _v2_single_run(
            family, skeleton, h_star, f, lengths, seeds[:k], seeds[k:], q)
        covered += (np.abs(ests[rep] - truth) < 1.959964 * ses)

    n = sum(lengths)
    emp_var = n * ests.var(axis=0, ddof=1)
    mean_total = totals.mean(axis=0)
    ratio = emp_var / mean_total
    coverage = covered / reps

    widen = max(1.0, math.sqrt(V2_REPS / reps))
    band = 0.15 * widen
    # at the reference count this is the criterion's 93-97% window; smoke runs
    # get binomial-aware extra room
    cov_slack = 0.02 if reps >= V2_REPS else 0.02 * widen + math.sqrt(0.05 * 0.95 / reps)
    names = ["bf", "bf_cv", "pe"]
    details = [
        f"{nm}: emp/plug-in variance ratio {r:.3f} (band 1+-{band:.2f}), "
        f"coverage {c:.3f} (bounds {0.95 - cov_slack:.3f}-{0.95 + cov_slack:.3f})"
        for nm, r, c in zip(names, ratio, coverage)
    ]
    passed = bool(np.all(np.abs(ratio - 1.0) <= band)
                  and np.all(np.abs(coverage - 0.95) <= cov_slack))
    return SuiteResult(f"V2 variance validation ({variant})", passed, details)


def suite_v3_exact_identities(master_seed: int = 3033) -> SuiteResult:
    """Exact algebraic identities checked at machine-level tolerances."""
    family = ConjugateToy(y_obs=0.3)
    details: list[str] = []
    ok = True

    def check(label, cond):
        nonlocal ok
        details.append(f"{label}: {'ok' if cond else 'FAILED'}")
        ok = ok and bool(cond)

    # pe_hat(f == 1) is exactly 1 for any h and seed
    skeleton = [(0.0,), (1.2,)]
    chains = _chains(family, skeleton, 4000, _seed_block(master_seed, 0, 2, 3))
    W = build_log_weight_matrix(family, skeleton, chains)
    d_hat, _ = estimate_d(W)
    ws = Stage2Workspace(W, d_hat)
    pe = _known_d(ws, [(h,) for h in np.linspace(-1.0, 2.5, 7)], np.ones((1, ws.n))).pe
    check("pe_hat(f==1) == 1 exactly", bool(np.all(pe == 1.0)))

    # bf_hat(h1) == 1 exactly when k = 1
    chains1 = _chains(family, skeleton[:1], 3000, _seed_block(master_seed, 1, 1, 3))
    W1 = build_log_weight_matrix(family, skeleton[:1], chains1)
    ws1 = Stage2Workspace(W1, np.ones(1))
    check("bf_hat(h1) == 1 exactly (k=1)",
          _known_d(ws1, skeleton[:1]).bf[0] == 1.0)

    # stage-1 self-consistency: replaying bf_hat on stage-1 samples returns d_hat
    bf = _known_d(ws, skeleton).bf
    resid = float(np.max(np.abs(bf - d_hat) / d_hat))
    check(f"self-consistency residual {resid:.2e} < 1e-8", resid < 1e-8)

    # the solver's quasi-likelihood gradient vs central finite differences
    mix = Mixture(W, np.zeros(W.k))
    rng = np.random.default_rng(master_seed)
    worst = 0.0
    for _ in range(10):
        eta = np.concatenate([[0.0], rng.normal(0.0, 0.7, W.k - 1)])
        _, s, _ = mix.objective(eta)
        grad = (mix.masses(eta, s) - mix.counts)[1:]
        step = 1e-6
        for j in range(1, W.k):
            up, dn = eta.copy(), eta.copy()
            up[j] += step
            dn[j] -= step
            fd = (mix.objective(up)[0] - mix.objective(dn)[0]) / (2 * step)
            worst = max(worst, abs(fd - grad[j - 1]) / max(abs(fd), 1.0))
    check(f"l_N gradient vs finite differences rel err {worst:.2e} < 1e-6",
          worst < 1e-6)

    # planner: analytic optimum vs fine grid search
    rng = np.random.default_rng(master_seed + 1)
    worst_q = 0.0
    ratios = np.logspace(-1, 1, 20001)
    for _ in range(100):
        plan = PlanInputs(t1=rng.uniform(1e-4, 1e-1), t2=rng.uniform(1e-7, 1e-3),
                          g=rng.uniform(1, 2000), T=rng.uniform(10, 3600),
                          v1=rng.uniform(1e-4, 10), v2=rng.uniform(1e-4, 10))
        sol = q_opt(plan)
        grid = sol.q_opt * ratios
        q_grid = grid[int(np.argmin(predicted_variance(plan, grid)))]
        worst_q = max(worst_q, abs(q_grid - sol.q_opt) / sol.q_opt)
    check(f"q_opt analytic vs grid minimizer rel err {worst_q:.2e} < 1e-3",
          worst_q < 1e-3)

    return SuiteResult("V3 exact identities", ok, details)


def suite_v4_cv_reduction(reps: int = V4_REPS, master_seed: int = 4044) -> SuiteResult:
    """Var(bf_cv_hat) <= Var(bf_hat) at >= 80% of interior grid points, with
    d estimated from stage 1 of V4_PER_CHAIN draws per chain and stage 2 at the
    stage ratio q = n/N = 0.1.

    With d estimated, the two estimators have asymptotic variances
    q w'Sigma w + sigma^2 and q c'Sigma c + tau^2 (Buta & Doss 2011), and
    nothing orders them at q = 1: w can exceed c, and near the skeleton
    points bf_cv_hat carries the whole stage-1 error (it equals d_hat_j at
    h_j), so at q = 1 the plug-in variances predict a CV loss at about half
    the interior points.  q = 0.1 is the paper's allocation for the US crime
    study (10,000 stage-1 and 1,000 stage-2 draws per chain), where the
    control variates are meant to pay off."""
    q = 0.1
    per_chain2 = int(round(q * V4_PER_CHAIN))
    family = ConjugateToy(y_obs=0.0)
    skeleton = [(0.0,), (1.0,), (2.0,)]
    grid = [(h,) for h in np.linspace(0.1, 1.9, 19)]   # inside the skeleton hull
    bf = np.empty((reps, len(grid)))
    cv = np.empty((reps, len(grid)))
    for rep in range(reps):
        seeds = _seed_block(master_seed, rep, 6, 4)
        chains1 = _chains(family, skeleton, V4_PER_CHAIN, seeds[:3])
        W1 = build_log_weight_matrix(family, skeleton, chains1)
        d_hat, _ = estimate_d(W1)
        chains2 = _chains(family, skeleton, per_chain2, seeds[3:])
        W2 = build_log_weight_matrix(family, skeleton, chains2)
        ws = Stage2Workspace(W2, d_hat)
        est = _known_d(ws, grid)
        bf[rep], cv[rep] = est.bf, est.bf_cv
    wins = (cv.var(axis=0, ddof=1) <= bf.var(axis=0, ddof=1)).mean()
    floor = 0.80 - max(0.0, 0.05 * (math.sqrt(V4_REPS / reps) - 1.0))
    med = float(np.median(cv.var(axis=0, ddof=1) / bf.var(axis=0, ddof=1)))
    return SuiteResult(
        "V4 control-variate variance reduction",
        bool(wins >= floor),
        [f"stage ratio q = n/N = {per_chain2}/{V4_PER_CHAIN}; "
         f"CV wins at {wins:.0%} of interior points (floor {floor:.0%}); "
         f"median variance ratio {med:.3f}"],
    )


def run_all(reps_scale: float = 1.0) -> list[SuiteResult]:
    """Run every suite; reps_scale < 1 shrinks replication counts below the
    reference counts (tolerances widen accordingly)."""
    def scaled(n):
        return max(20, int(round(n * reps_scale)))

    return [
        suite_v1_ratio_calibration(reps=scaled(V1_REPS)),
        suite_v3_exact_identities(),
        suite_v2_variance_validation("iid", reps=scaled(V2_REPS)),
        suite_v2_variance_validation("ar1", reps=scaled(V2_REPS)),
        suite_v4_cv_reduction(reps=scaled(V4_REPS)),
    ]
