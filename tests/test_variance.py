import math
from fractions import Fraction

import numpy as np
import pytest

from priorsweep.errors import DegenerateDesignWarning
from priorsweep.families import ChainSpec, ConjugateToy, FunctionOfTheta, toy_function
from priorsweep.ratio import build_log_weight_matrix, estimate_d
from priorsweep.surface import Stage2Workspace, surface
from priorsweep.variance import (PlanInputs, SpectralConfig, VarianceBreakdown,
                                 assemble_variance, c_hat, chain_lrv,
                                 lrv_matrix, predicted_variance, q_opt,
                                 spectral_lrv, v_hat, w_hat)


def toy_workspace(skeleton, n, seed0=0, d=None, y_obs=0.0, sampler="iid"):
    fam = ConjugateToy(y_obs=y_obs, sampler=sampler)
    ch = [fam.sample_posterior(ChainSpec(h=h, length=n, seed=seed0 + i))
          for i, h in enumerate(skeleton)]
    W = build_log_weight_matrix(fam, skeleton, ch)
    if d is None:
        d, _ = estimate_d(W)
    return fam, Stage2Workspace(W, np.asarray(d, dtype=float))


def point(ws, h, functions=()):
    """The surface record at one h with sigma_hat = 0, so every variance is
    its stage-2 term: tau^2 ("bf"), sigma^2 ("bf_cv"), rho ("pe:<name>")."""
    return surface(ws, [h], list(functions), np.zeros((ws.k - 1, ws.k - 1)), q=0.0)[0]


class TestSpectralLrv:
    def test_iid_normal_near_one(self):
        x = np.random.default_rng(0).normal(size=100_000)
        assert spectral_lrv(x) == pytest.approx(1.0, rel=0.10)

    def test_constant_series_zero(self):
        assert spectral_lrv(np.full(500, 3.7)) == 0.0

    def test_ar1_long_run_variance(self):
        phi = 0.5
        rng = np.random.default_rng(1)
        innov = rng.normal(size=100_000)
        x = np.empty_like(innov)
        x[0] = innov[0]
        for t in range(1, len(x)):
            x[t] = phi * x[t - 1] + innov[t]
        want = 1.0 / (1.0 - phi) ** 2      # = (1+phi)/(1-phi) * marginal var
        assert spectral_lrv(x) == pytest.approx(want, rel=0.15)

    def test_series_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            spectral_lrv(np.ones(5))

    def test_matrix_version_diag_matches_scalar(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5000, 2))
        S = lrv_matrix(X)
        assert S[0, 0] == pytest.approx(spectral_lrv(X[:, 0]), rel=1e-12)
        assert S[1, 0] == S[0, 1]

    def test_chain_lrv_is_weighted_sum_over_chains(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(700, 2))
        slices = [slice(0, 300), slice(300, 700)]
        a = np.array([0.3, 0.7])
        want = 0.3 * lrv_matrix(X[:300]) + 0.7 * lrv_matrix(X[300:])
        np.testing.assert_array_equal(chain_lrv(X, slices, a), want)


class TestTauSigma:
    def test_identical_skeleton_and_baseline_gives_zero(self):
        _, ws = toy_workspace([(0.5,), (0.5,)], 1500, d=[1.0, 1.0])
        with pytest.warns(DegenerateDesignWarning):
            rec = point(ws, (0.5,))
        assert rec.var["bf"].stage2_term < 1e-25

    def test_nonnegative(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 1200, seed0=5)
        assert point(ws, (0.4,)).var["bf"].stage2_term >= 0.0

    def test_sigma_equals_tau_when_z_zero(self):
        _, ws = toy_workspace([(0.5,), (0.5,)], 800, d=[1.0, 1.0], seed0=7)
        assert np.all(ws.Z == 0.0)
        with pytest.warns(DegenerateDesignWarning):
            rec = point(ws, (1.1,))
        assert rec.var["bf_cv"].stage2_term == pytest.approx(
            rec.var["bf"].stage2_term, rel=1e-12)

    def test_tau_replication_iid(self):
        # empirical variance of sqrt(n)(B_hat - B) with the true d vs the
        # mean plug-in tau^2
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,)]
        dt = [1.0, fam.exact_bf((1.0,), (0.0,))]
        h = (0.5,)
        truth = fam.exact_bf(h, (0.0,))
        reps, n = 400, 2000
        est = np.empty(reps)
        taus = np.empty(reps)
        for rep in range(reps):
            seeds = np.random.SeedSequence((17, rep)).generate_state(2)
            ch = [fam.sample_posterior(ChainSpec(h=hh, length=n, seed=int(s)))
                  for hh, s in zip(skeleton, seeds)]
            W = build_log_weight_matrix(fam, skeleton, ch)
            ws = Stage2Workspace(W, np.asarray(dt))
            rec = point(ws, h)
            est[rep] = rec.bf
            taus[rep] = rec.var["bf"].stage2_term
        emp = 2 * n * est.var(ddof=1)
        assert emp / taus.mean() == pytest.approx(1.0, abs=0.15)

    def test_sigma_replication_iid(self):
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,)]
        dt = np.array([1.0, fam.exact_bf((1.0,), (0.0,))])
        h = (0.5,)
        reps, n = 400, 2000
        est = np.empty(reps)
        sig = np.empty(reps)
        for rep in range(reps):
            seeds = np.random.SeedSequence((19, rep)).generate_state(2)
            ch = [fam.sample_posterior(ChainSpec(h=hh, length=n, seed=int(s)))
                  for hh, s in zip(skeleton, seeds)]
            W = build_log_weight_matrix(fam, skeleton, ch)
            ws = Stage2Workspace(W, dt)
            rec = point(ws, h)
            est[rep] = rec.bf_cv
            sig[rep] = rec.var["bf_cv"].stage2_term
        emp = 2 * n * est.var(ddof=1)
        assert emp / sig.mean() == pytest.approx(1.0, abs=0.15)

    def test_cv_variance_leq_plain_at_interior(self):
        # reported (not asserted as a theorem): sigma^2 <= tau^2 here
        _, ws = toy_workspace([(0.0,), (1.0,)], 4000, seed0=23)
        rec = point(ws, (0.5,))
        assert rec.var["bf_cv"].stage2_term <= rec.var["bf"].stage2_term


def gamma_rho_reference(ws, h, f, cfg=SpectralConfig()):
    """rho by the delta method on the joint long-run covariance Gamma of
    (f Y, Y): (Gamma_00 - 2 I Gamma_01 + I^2 Gamma_11) / Ybar^2."""
    u, _ = ws.terms(h)
    fv = ws.function_values(f)
    ratio = float((fv * u).sum()) / float(u.sum())
    gamma = chain_lrv(np.column_stack([fv * u, u]), ws.chain_slices,
                      ws.proportions, cfg)
    u_mean = float(u.mean())
    return (gamma[0, 0] - 2.0 * ratio * gamma[0, 1] + ratio * ratio * gamma[1, 1]) \
        / (u_mean * u_mean)


def exact_rho(ws, h, f, cfg=SpectralConfig()):
    """rho in rational arithmetic from the same float terms."""
    u, _ = ws.terms(h)
    U = [Fraction(float(x)) for x in u]
    FV = [Fraction(float(x)) for x in ws.function_values(f)]
    ratio = sum(a * b for a, b in zip(FV, U)) / sum(U)
    total = Fraction(0)
    for a_l, sl in zip(ws.proportions, ws.chain_slices):
        x = [(FV[p] - ratio) * U[p] for p in range(sl.start, sl.stop)]
        n = len(x)
        mean = sum(x) / n
        x = [v - mean for v in x]
        L = cfg.lags(n)
        s = sum(v * v for v in x) / n
        for t in range(1, L + 1):
            s += 2 * (1 - Fraction(t, L + 1)) * sum(x[i] * x[i - t] for i in range(t, n)) / n
        total += Fraction(float(a_l)) * s
    return float(total / (sum(U) / len(U)) ** 2)


class TestGammaRho:
    def test_constant_function_rho_exactly_zero(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 900, seed0=2)
        f1 = FunctionOfTheta("one", lambda s: np.ones(len(np.asarray(s))))
        assert point(ws, (0.6,), [f1]).var["pe:one"].stage2_term == 0.0

    def test_stage2_terms_nonnegative(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 1100, seed0=3)
        rec = point(ws, (0.8,), [toy_function("identity")])
        assert all(vb.stage2_term >= 0 for vb in rec.var.values())

    def test_rho_matches_two_by_two_gamma_formula(self):
        _, ws = toy_workspace([(0.0,), (1.0,), (2.0,)], 1500, seed0=15)
        fs = [toy_function("square"),
              FunctionOfTheta("pos", lambda s: (np.asarray(s) > 0.5).astype(float))]
        for h in ((0.3,), (0.9,), (1.6,)):
            rec = point(ws, h, fs)
            for f in fs:
                if f.name == "pos":
                    assert 0.05 < rec.pe["pos"] < 0.95
                want = gamma_rho_reference(ws, h, f)
                assert rec.var[f"pe:{f.name}"].stage2_term == pytest.approx(want, rel=1e-10)

    def test_rho_exact_near_pe_one(self):
        # f is 0 only on the smallest pooled draw, which carries little weight
        # at h = 2.5, so 1 - pe is about 1e-5.  The 2x2 form subtracts nearly
        # equal terms there (about 1e-8 relative error on this draw); the
        # centered series does not.
        _, ws = toy_workspace([(0.0,), (1.0,)], 300, seed0=16)
        lowest = np.sort(np.asarray(ws.W.samples))[:2].mean()
        f = FunctionOfTheta("above", lambda s: (np.asarray(s) > lowest).astype(float))
        h = (2.5,)
        rec = point(ws, h, [f])
        assert 1.0 - 1e-4 < rec.pe["above"] < 1.0
        assert rec.var["pe:above"].stage2_term == pytest.approx(exact_rho(ws, h, f),
                                                                rel=1e-12)

    def test_rho_replication_iid(self):
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,)]
        dt = np.array([1.0, fam.exact_bf((1.0,), (0.0,))])
        f = toy_function("identity")
        h = (0.5,)
        reps, n = 400, 2000
        est = np.empty(reps)
        rhos = np.empty(reps)
        for rep in range(reps):
            seeds = np.random.SeedSequence((29, rep)).generate_state(2)
            ch = [fam.sample_posterior(ChainSpec(h=hh, length=n, seed=int(s)))
                  for hh, s in zip(skeleton, seeds)]
            W = build_log_weight_matrix(fam, skeleton, ch)
            ws = Stage2Workspace(W, dt)
            rec = point(ws, h, [f])
            est[rep] = rec.pe["identity"]
            rhos[rep] = rec.var["pe:identity"].stage2_term
        emp = 2 * n * est.var(ddof=1)
        assert emp / rhos.mean() == pytest.approx(1.0, abs=0.15)


class TestSensitivityVectors:
    def test_c_identical_densities_equals_proportion(self):
        _, ws = toy_workspace([(0.5,), (0.5,)], 1000, d=[1.0, 1.0], seed0=4)
        c = c_hat(ws, (0.5,))
        assert c[0] == pytest.approx(ws.proportions[1], abs=1e-12)

    def test_c_nonnegative(self):
        _, ws = toy_workspace([(0.0,), (1.0,), (2.0,)], 900, seed0=6)
        assert np.all(c_hat(ws, (0.7,)) >= 0.0)

    def test_w_reduces_to_c_when_beta_zero(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 700, seed0=8)
        h = (0.4,)
        np.testing.assert_allclose(w_hat(ws, h, np.zeros(1)), c_hat(ws, h),
                                   rtol=1e-12)

    def test_w_term3_vanishes_for_identical_densities(self):
        _, ws = toy_workspace([(0.5,), (0.5,)], 1000, d=[1.0, 1.0], seed0=9)
        h = (0.5,)
        beta = np.array([0.7])
        want = c_hat(ws, h) + beta / 1.0   # term 3 must vanish exactly
        np.testing.assert_allclose(w_hat(ws, h, beta), want, atol=1e-12)

    def test_v_zero_for_constant_function(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 800, seed0=10)
        f1 = FunctionOfTheta("one", lambda s: np.ones(len(np.asarray(s))))
        assert np.all(v_hat(ws, (0.9,), f1) == 0.0)

    def test_v_sign_flip(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 800, seed0=11)
        f = toy_function("identity")
        neg = FunctionOfTheta("neg", lambda s: -np.asarray(s, dtype=float))
        np.testing.assert_allclose(v_hat(ws, (0.9,), neg),
                                   -v_hat(ws, (0.9,), f), atol=1e-14)


class TestAssembleAndPlan:
    def test_q_zero_drops_stage1(self):
        vb = assemble_variance("bf", np.array([1.0]), np.array([[4.0]]), 2.5,
                               q=0.0, n=100)
        assert vb.stage1_term == 0.0 and vb.total == 2.5
        assert vb.se == pytest.approx(math.sqrt(2.5 / 100))

    def test_zero_sigma_drops_stage1(self):
        vb = assemble_variance("bf", np.array([1.0]), np.zeros((1, 1)), 2.5,
                               q=0.7, n=100)
        assert vb.total == 2.5

    def test_total_is_sum(self):
        vb = assemble_variance("bf_cv", np.array([1.0, 2.0]),
                               np.eye(2), 0.5, q=0.5, n=10)
        assert vb.stage1_term == pytest.approx(0.5 * 5.0)
        assert vb.total == pytest.approx(3.0)

    def test_q_opt_equal_components(self):
        plan = PlanInputs(t1=0.01, t2=1e-15, g=100, T=60, v1=2.0, v2=2.0)
        assert q_opt(plan).q_opt == pytest.approx(1.0, rel=1e-5)

    def test_q_opt_matches_grid_minimizer(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            plan = PlanInputs(t1=rng.uniform(1e-4, 0.1), t2=rng.uniform(1e-7, 1e-3),
                              g=rng.uniform(1, 2000), T=rng.uniform(10, 3600),
                              v1=rng.uniform(1e-4, 10), v2=rng.uniform(1e-4, 10))
            sol = q_opt(plan)
            grid = sol.q_opt * np.logspace(-1, 1, 20001)
            best = grid[int(np.argmin(predicted_variance(plan, grid)))]
            assert abs(best - sol.q_opt) / sol.q_opt < 1e-3

    def test_large_g_pushes_q_down(self):
        qs = [q_opt(PlanInputs(t1=0.01, t2=1e-4, g=g, T=100, v1=1.0, v2=1.0)).q_opt
              for g in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 0.1

    def test_plan_inputs_validated(self):
        with pytest.raises(ValueError):
            PlanInputs(t1=0.0, t2=1e-4, g=10, T=10, v1=1.0, v2=1.0)


class TestVarianceSurface:
    def test_single_point_grid(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 600, seed0=13)
        from priorsweep.ratio import estimate_sigma
        sigma = estimate_sigma(ws.W, ws.d_hat)
        recs = surface(ws, [(0.5,)], [], sigma, q=1.0)
        assert len(recs) == 1
        assert list(recs[0].h) == [0.5]
        assert recs[0].var["bf_cv"].total >= recs[0].var["bf_cv"].stage2_term

    def test_k1_uses_plain_estimator(self):
        fam = ConjugateToy(y_obs=0.0)
        ch = [fam.sample_posterior(ChainSpec(h=(0.0,), length=500, seed=1))]
        W = build_log_weight_matrix(fam, [(0.0,)], ch)
        ws = Stage2Workspace(W, np.ones(1))
        recs = surface(ws, [(0.3,), (0.6,)], [], np.zeros((0, 0)), q=0.5)
        for rec in recs:
            cv, plain = rec.var["bf_cv"], rec.var["bf"]
            assert cv.stage1_term == 0.0
            assert (cv.stage1_term, cv.stage2_term) == (plain.stage1_term, plain.stage2_term)

    def test_reported_se_zero_for_constant_function(self):
        # the f == 1 chain: v = 0 and rho = 0, so the pe se must be 0
        _, ws = toy_workspace([(0.0,), (1.0,)], 700, seed0=14)
        from priorsweep.ratio import estimate_sigma
        sigma = estimate_sigma(ws.W, ws.d_hat)
        f1 = FunctionOfTheta("one", lambda s: np.ones(len(np.asarray(s))))
        recs = surface(ws, [(0.5,)], [f1], sigma, q=1.0)
        assert recs[0].var["pe:one"].se == 0.0
