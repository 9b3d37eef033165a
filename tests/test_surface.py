import math

import numpy as np
import pytest
from scipy.special import logsumexp

from priorsweep.errors import (DegenerateDesignWarning, SupportViolationError,
                               SupportWarning)
from priorsweep.families import ChainSpec, ConjugateToy, FunctionOfTheta, toy_function
from priorsweep.ratio import LogWeightMatrix, build_log_weight_matrix, estimate_d
from priorsweep.surface import (Stage2Workspace, bf_cv_hat, bf_gradient_hat,
                                bf_hat, pe_hat, surface)


def two_stage(skeleton, n1, n2, y_obs=0.0, seed0=0, sampler="iid"):
    fam = ConjugateToy(y_obs=y_obs, sampler=sampler)
    c1 = [fam.sample_posterior(ChainSpec(h=h, length=n1, seed=seed0 + i))
          for i, h in enumerate(skeleton)]
    W1 = build_log_weight_matrix(fam, skeleton, c1)
    d, _ = estimate_d(W1)
    c2 = [fam.sample_posterior(ChainSpec(h=h, length=n2, seed=seed0 + 50 + i))
          for i, h in enumerate(skeleton)]
    W2 = build_log_weight_matrix(fam, skeleton, c2)
    return fam, W1, d, Stage2Workspace(W2, d)


class TestWorkspace:
    def test_k1_baseline_exactly_one(self):
        fam = ConjugateToy(y_obs=0.4)
        ch = [fam.sample_posterior(ChainSpec(h=(0.4,), length=1000, seed=1))]
        W = build_log_weight_matrix(fam, [(0.4,)], ch)
        ws = Stage2Workspace(W, np.ones(1))
        assert bf_hat(ws, (0.4,)) == 1.0

    def test_z_column_means_small(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,), (2.0,)], 4000, 20000, seed0=3)
        assert np.all(np.abs(ws.z_means) < 0.05)

    def test_grid_evaluation_never_touches_density_code(self):
        fam, _, d, _ = two_stage([(0.0,), (1.0,)], 500, 500)
        calls = {"scalar": 0, "stats": 0}
        orig_weight = fam.log_prior_weight
        orig_stats = fam.weight_stats

        class Counting(ConjugateToy):
            def log_prior_weight(self, h, state):
                calls["scalar"] += 1
                return orig_weight(h, state)

            def weight_stats(self, samples):
                calls["stats"] += 1
                return orig_stats(samples)

        counting = Counting(y_obs=0.0)
        chains = [counting.sample_posterior(ChainSpec(h=h, length=400, seed=9 + i))
                  for i, h in enumerate([(0.0,), (1.0,)])]
        W = build_log_weight_matrix(counting, [(0.0,), (1.0,)], chains)
        assert calls["stats"] == 1
        ws = Stage2Workspace(W, d)
        calls["scalar"] = 0
        surface(ws, [(h,) for h in np.linspace(-0.5, 2.5, 40)],
                [toy_function("identity")], np.zeros((1, 1)), q=0.0)
        assert calls["scalar"] == 0

    def test_kernel_terms_match_per_row_formulas(self):
        # the per-row formulas the workspace used before its one kernel call
        for k, seed0 in ((2, 1), (3, 5), (5, 9)):
            skeleton = [(0.6 * s,) for s in range(k)]
            _, _, _, ws = two_stage(skeleton, 800, 600, seed0=seed0)
            W = ws.W
            log_den = logsumexp(W.logw + (ws.log_a - ws.log_d)[:, None], axis=0)
            ref = np.exp(W.logw[0] - log_den)
            Z = np.column_stack([np.exp(W.logw[j] - ws.log_d[j] - log_den) - ref
                                 for j in range(1, k)])
            psi = np.column_stack([
                np.exp(ws.log_a[j] + W.logw[j] - 2.0 * ws.log_d[j] - log_den)
                for j in range(1, k)])
            # log_den and Z change sign: relative to their largest entry
            for got, want in ((ws.log_den, log_den), (ws.Z, Z)):
                np.testing.assert_allclose(got, want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max())
            np.testing.assert_allclose(ws.psi, psi, rtol=1e-13)

    def test_dead_mixture_sample_raises(self):
        fam, _, d, _ = two_stage([(0.0,), (1.0,)], 300, 300)
        ch = [fam.sample_posterior(ChainSpec(h=h, length=300, seed=70 + i))
              for i, h in enumerate([(0.0,), (1.0,)])]
        W = build_log_weight_matrix(fam, [(0.0,), (1.0,)], ch)
        W.logw[:, 5] = -np.inf
        with pytest.raises(SupportViolationError, match="pooled sample 5"):
            Stage2Workspace(W, d)

    def test_d_hat_validation(self):
        fam, _, _, _ = two_stage([(0.0,), (1.0,)], 200, 200)
        ch = [fam.sample_posterior(ChainSpec(h=h, length=200, seed=80 + i))
              for i, h in enumerate([(0.0,), (1.0,)])]
        W = build_log_weight_matrix(fam, [(0.0,), (1.0,)], ch)
        with pytest.raises(ValueError, match="first entry 1"):
            Stage2Workspace(W, np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="length k"):
            Stage2Workspace(W, np.array([1.0]))


class TestBfHat:
    def test_toy_within_three_se(self):
        fam, _, d, ws = two_stage([(0.0,), (1.0,)], 20000, 20000, seed0=11)
        truth = fam.exact_bf((0.5,), (0.0,))
        reps = [bf_hat(ws, (0.5,))]
        # plug-in se from the surface pass
        tau_sq = surface(ws, [(0.5,)], [], np.zeros((1, 1)), q=0.0)[0].var["bf"].stage2_term
        se = math.sqrt(tau_sq / ws.n) * 3  # stage-2 only; d is near-exact here
        assert abs(reps[0] - truth) < 3 * max(se, 0.005)

    def test_support_warning_when_numerator_dead(self):
        class Vanishing(ConjugateToy):
            def log_weights(self, h, stats):
                out = super().log_weights(h, stats)
                if h[0] > 9.0:
                    return np.full_like(out, -np.inf)
                return out

        fam = Vanishing(y_obs=0.0)
        ch = [fam.sample_posterior(ChainSpec(h=(0.0,), length=100, seed=1))]
        W = build_log_weight_matrix(fam, [(0.0,)], ch)
        ws = Stage2Workspace(W, np.ones(1))
        with pytest.warns(SupportWarning):
            assert bf_hat(ws, (9.5,)) == 0.0
        with pytest.warns(SupportWarning):
            assert math.isnan(pe_hat(ws, (9.5,), toy_function("identity")))


class TestControlVariates:
    def test_zero_z_columns_fall_back_to_plain(self):
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.6,), (0.6,)]
        ch = [fam.sample_posterior(ChainSpec(h=h, length=400, seed=30 + i))
              for i, h in enumerate(skeleton)]
        W = build_log_weight_matrix(fam, skeleton, ch)
        ws = Stage2Workspace(W, np.ones(2))
        assert np.all(ws.Z == 0.0)
        with pytest.warns(DegenerateDesignWarning):
            est, beta = bf_cv_hat(ws, (0.9,))
        assert est == bf_hat(ws, (0.9,))
        assert np.all(beta == 0.0)

    def test_exact_at_baseline(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 2000, 2000, seed0=17)
        est, _ = bf_cv_hat(ws, (0.0,))
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_exact_at_skeleton_points(self):
        _, _, d, ws = two_stage([(0.0,), (1.0,), (2.0,)], 2000, 2000, seed0=19)
        for j, h in enumerate(ws.W.skeleton):
            est, _ = bf_cv_hat(ws, h)
            assert est == pytest.approx(d[j], rel=1e-10)

    def test_unbiased_for_fixed_beta(self):
        # with the true d and an arbitrary fixed beta, the CV estimate is unbiased
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,)]
        d_true = np.array([1.0, fam.exact_bf((1.0,), (0.0,))])
        h = (0.5,)
        truth = fam.exact_bf(h, (0.0,))
        beta = np.array([0.37])
        reps = 400
        vals = np.empty(reps)
        for rep in range(reps):
            seeds = np.random.SeedSequence((31337, rep)).generate_state(2)
            ch = [fam.sample_posterior(ChainSpec(h=hh, length=400, seed=int(s)))
                  for hh, s in zip(skeleton, seeds)]
            W = build_log_weight_matrix(fam, skeleton, ch)
            ws = Stage2Workspace(W, d_true)
            u, shift = ws.terms(h)
            y_mean = math.exp(shift) * u.mean()
            vals[rep] = y_mean - float(ws.z_means @ beta)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - truth) < 3 * se


class TestPeHat:
    def test_constant_function_exactly_one(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 700, 700, seed0=23)
        f1 = FunctionOfTheta("one", lambda s: np.ones(len(np.asarray(s))))
        for h in np.linspace(-1, 3, 9):
            assert pe_hat(ws, (h,), f1) == 1.0

    def test_indicator_range_exact(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 900, 900, seed0=29)
        ind = FunctionOfTheta("pos", lambda s: (np.asarray(s) > 0).astype(float))
        for h in np.linspace(-2, 3, 21):
            v = pe_hat(ws, (h,), ind)
            assert 0.0 <= v <= 1.0

    def test_signed_function_against_direct_sum(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 800, 800, seed0=31)
        f = FunctionOfTheta("signed", lambda s: np.sin(np.asarray(s)))
        h = (0.7,)
        u, _ = ws.terms(h)
        fv = np.sin(np.asarray(ws.W.samples))
        want = float((fv * u).sum() / u.sum())
        assert pe_hat(ws, h, f) == pytest.approx(want, rel=1e-13)

    def test_toy_posterior_mean_recovered(self):
        fam, _, _, ws = two_stage([(0.0,), (1.0,)], 20000, 20000, seed0=37)
        got = pe_hat(ws, (1.0,), toy_function("identity"))
        assert got == pytest.approx(fam.exact_pe("identity", (1.0,)), abs=0.01)


class TestGradient:
    def test_zero_gradient_at_exact_maximum(self):
        # B(h, h1) is maximized at h = y; the estimated gradient there should
        # vanish within replication noise
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,)]
        reps = 50
        grads = np.empty(reps)
        for rep in range(reps):
            seeds = np.random.SeedSequence((99, rep)).generate_state(2)
            ch = [fam.sample_posterior(ChainSpec(h=h, length=600, seed=int(s)))
                  for h, s in zip(skeleton, seeds)]
            W = build_log_weight_matrix(fam, skeleton, ch)
            d, _ = estimate_d(W)
            ws = Stage2Workspace(W, d)
            grads[rep] = bf_gradient_hat(ws, (0.0,))[0]
        se = grads.std(ddof=1) / math.sqrt(reps)
        assert abs(grads.mean()) < 3 * se

    def test_matches_finite_difference_of_surface(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 4000, 4000, seed0=41)
        eps = 1e-4
        for h in (0.3, 0.9, 1.4):
            grad = bf_gradient_hat(ws, (h,))[0]
            fd = (bf_hat(ws, (h + eps,)) - bf_hat(ws, (h - eps,))) / (2 * eps)
            assert grad == pytest.approx(fd, rel=2e-2)


class TestSurfaceSweep:
    def _assert_one_path(self, ws, grid, functions):
        recs = surface(ws, grid, functions, np.zeros((ws.k - 1, ws.k - 1)), q=0.0)
        for rec, h in zip(recs, grid):
            assert rec.bf == bf_hat(ws, h)
            est, beta = bf_cv_hat(ws, h)
            assert rec.bf_cv == est
            assert np.array_equal(rec.beta, beta)
            for f in functions:
                assert rec.pe[f.name] == pe_hat(ws, h, f)

    def test_one_path_toy(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,), (2.0,)], 500, 500, seed0=47)
        functions = [toy_function("identity"), toy_function("square"),
                     FunctionOfTheta("pos", lambda s: (np.asarray(s) > 0.5).astype(float))]
        self._assert_one_path(ws, [(h,) for h in np.linspace(-0.5, 2.5, 13)], functions)

    def test_one_path_blvs(self, small_family):
        skeleton = [(0.3, 10.0), (0.6, 40.0), (0.5, 100.0)]
        chains = [small_family.gibbs_run(ChainSpec(h=h, length=150, burn_in=20, seed=60 + i))
                  for i, h in enumerate(skeleton)]
        W = build_log_weight_matrix(small_family, skeleton, chains)
        d, _ = estimate_d(W)
        ws = Stage2Workspace(W, d)
        functions = [small_family.inclusion_function(name) for name in small_family.names]
        grid = [(w, g) for w in (0.2, 0.45, 0.7) for g in (5.0, 50.0, 150.0)]
        self._assert_one_path(ws, grid, functions)

    def test_records_and_errors(self):
        fam, W1, d, ws = two_stage([(0.0,), (1.0,)], 3000, 3000, seed0=43)
        from priorsweep.ratio import estimate_sigma
        sigma = estimate_sigma(W1, d)
        grid = [(h,) for h in np.linspace(-0.5, 2.0, 11)]
        f = toy_function("identity")
        recs = surface(ws, grid, [f], sigma, q=1.0)
        assert len(recs) == 11
        for rec in recs:
            assert rec.bf > 0
            assert rec.var["bf"].se > 0
            assert math.isfinite(rec.var["bf_cv"].se)
            assert set(rec.pe) == {"identity"}
            assert set(rec.var) == {"bf", "bf_cv", "pe:identity"}
            assert rec.var["bf"].total >= rec.var["bf"].stage2_term

    def test_monotone_consistency_rate(self):
        # error at the sqrt(n) rate within a factor-2 band across decades
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,)]
        h = (0.5,)
        truth = fam.exact_bf(h, skeleton[0])
        rmse = []
        for n in (1000, 10_000, 100_000):
            errs = []
            for rep in range(12):
                seeds = np.random.SeedSequence((n, rep)).generate_state(2)
                ch = [fam.sample_posterior(ChainSpec(h=hh, length=n // 2, seed=int(s)))
                      for hh, s in zip(skeleton, seeds)]
                W = build_log_weight_matrix(fam, skeleton, ch)
                d, _ = estimate_d(W)
                ws = Stage2Workspace(W, d)
                errs.append(bf_hat(ws, h) - truth)
            rmse.append(float(np.sqrt(np.mean(np.square(errs)))))
        assert rmse[0] / rmse[1] == pytest.approx(math.sqrt(10), rel=0.55)
        assert rmse[1] / rmse[2] == pytest.approx(math.sqrt(10), rel=0.55)
