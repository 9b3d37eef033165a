import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from priorsweep import ratio
from priorsweep.errors import ConnectivityError, ConvergenceError, SupportViolationError
from priorsweep.families import ChainSpec, ConjugateToy
from priorsweep.ratio import (LogWeightMatrix, Mixture, RatioEstimate, _sandwich,
                              build_log_weight_matrix, estimate_d, estimate_ratios)
from priorsweep.surface import Stage2Workspace

from per_point import (bf_hat, curvature_of, estimate_d_softmax, estimate_sigma,
                       softmax)


def toy_matrix(skeleton, lengths, seed0=0, y_obs=0.0, sampler="iid"):
    fam = ConjugateToy(y_obs=y_obs, sampler=sampler)
    chains = [fam.sample_posterior(ChainSpec(h=h, length=n, seed=seed0 + i))
              for i, (h, n) in enumerate(zip(skeleton, lengths))]
    return fam, build_log_weight_matrix(fam, skeleton, chains)


class TestBuild:
    def test_k1_shape(self):
        _, W = toy_matrix([(0.0,)], [200])
        assert W.logw.shape == (1, 200)

    def test_equal_skeleton_rows_identical(self):
        _, W = toy_matrix([(0.7,), (0.7,)], [100, 150])
        np.testing.assert_array_equal(W.logw[0], W.logw[1])

    def test_mismatched_inputs(self):
        fam = ConjugateToy(y_obs=0.0)
        with pytest.raises(ValueError):
            build_log_weight_matrix(fam, [(0.0,)], [])

    def test_chain_bookkeeping(self):
        _, W = toy_matrix([(0.0,), (1.0,)], [100, 150])
        assert W.total == 250
        assert W.chain_of(0) == 0 and W.chain_of(99) == 0
        assert W.chain_of(100) == 1 and W.chain_of(249) == 1
        np.testing.assert_allclose(W.proportions, [0.4, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_failed_weight_names_first_bad_entry(self, bad):
        class Failing(ConjugateToy):
            def log_weights(self, h, stats):
                out = super().log_weights(h, stats)
                if h[0] >= 1.0:
                    out[[7, 3]] = bad           # the error names sample 3
                return out

        fam = Failing(y_obs=0.0)
        skeleton = [(0.0,), (1.0,), (2.0,)]
        chains = [fam.sample_posterior(ChainSpec(h=h, length=20, seed=i))
                  for i, h in enumerate(skeleton)]
        with pytest.raises(ValueError, match="failed at skeleton 1, pooled sample 3$"):
            build_log_weight_matrix(fam, skeleton, chains)

    def test_neg_inf_weight_accepted(self):
        class Vanishing(ConjugateToy):
            def log_weights(self, h, stats):
                out = super().log_weights(h, stats)
                out[5] = -np.inf
                return out

        fam = Vanishing(y_obs=0.0)
        chains = [fam.sample_posterior(ChainSpec(h=(0.0,), length=20, seed=1))]
        assert build_log_weight_matrix(fam, [(0.0,)], chains).logw[0, 5] == -np.inf


def log_terms(logw, counts):
    """A LogWeightMatrix holding logw alone, for the kernel."""
    return LogWeightMatrix(logw=logw, counts=np.asarray(counts), skeleton=None,
                           family=None, stats=None, samples=None)


def mixture_lse_and_p(z, ref, eta):
    """lse and P of the kernel on log-terms z (equal counts, so log a is one
    constant) at reference ref and point eta."""
    k = z.shape[0]
    mix = Mixture(log_terms(z + math.log(k), np.ones(k, dtype=np.int64)), ref)
    _, s, lse = mix.objective(eta)
    return lse, mix.probabilities(eta, s, np.empty_like(z))


class TestSoftmaxKernel:
    """The mixture kernel of the solver and stage 2, against scipy and the
    softmax reference of the tests, at its reference point and away from it."""

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_matches_scipy_logsumexp(self, k):
        rng = np.random.default_rng(k)
        z = rng.normal(0.0, 40.0, size=(k, 500))
        want = logsumexp(z, axis=0)
        lse, P = softmax(z.copy())
        np.testing.assert_allclose(lse, want, rtol=1e-13)
        np.testing.assert_allclose(P, np.exp(z - want), rtol=1e-13, atol=1e-300)
        assert np.max(np.abs(P.sum(axis=0) - 1.0)) <= 1e-15
        eta = rng.normal(0.0, 3.0, k)
        want = logsumexp(z - eta[:, None], axis=0)
        for ref in (eta, np.zeros(k)):
            lse, P = mixture_lse_and_p(z, ref, eta)
            np.testing.assert_allclose(lse, want, rtol=1e-13)
            np.testing.assert_allclose(P, np.exp(z - eta[:, None] - want),
                                       rtol=1e-12, atol=1e-300)
            assert np.max(np.abs(P.sum(axis=0) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_scattered_neg_inf_and_dead_column(self, k):
        rng = np.random.default_rng(5 + k)
        z = rng.normal(0.0, 30.0, size=(k, 300))
        z[rng.random(z.shape) < 0.4] = -np.inf
        z[:, 7] = -np.inf                          # a dead column
        z[:, 8] = -np.inf
        z[-1, 8] = 1.5                             # one live entry
        z[:, 0] = 700.0
        live = ~np.all(np.isneginf(z), axis=0)
        want = logsumexp(z, axis=0)
        lse, P = softmax(z.copy())
        assert lse[7] == -np.inf and not np.isnan(lse).any()
        # the kernel refuses a dead column when it takes E, naming the first
        first_dead = np.flatnonzero(~live)[0]
        with pytest.raises(SupportViolationError, match=f"pooled sample {first_dead} "):
            mixture_lse_and_p(z, np.zeros(k), np.zeros(k))
        lse_live, P_live = mixture_lse_and_p(z[:, live], np.zeros(k), np.zeros(k))
        for lse, P in ((lse[live], P[:, live]), (lse_live, P_live)):
            np.testing.assert_allclose(lse, want[live], rtol=1e-13)
            assert P[-1, np.count_nonzero(live[:8])] == 1.0       # column 8
            assert np.max(np.abs(P.sum(axis=0) - 1.0)) <= 1e-15
            assert np.all(P[np.isneginf(z[:, live])] == 0.0)

    def test_transposed_view_gives_row_lse(self):
        # the reference solver's self-consistency step runs softmax on z.T
        z = np.random.default_rng(3).normal(0.0, 20.0, size=(4, 700))
        lse, _ = softmax(z.copy().T)
        np.testing.assert_allclose(lse, logsumexp(z, axis=1), rtol=1e-13)

    def test_overwrites_its_input_with_p(self):
        z = np.random.default_rng(2).normal(size=(4, 50))
        _, P = softmax(z)
        assert P is z
        # stage 2 writes P over the kernel's own E
        mix = Mixture(log_terms(z, np.ones(4, dtype=np.int64)), np.zeros(4))
        _, s, _ = mix.objective(np.zeros(4))
        assert mix.probabilities(np.zeros(4), s, mix.E) is mix.E


class TestEstimateD:
    def test_k1_returns_unit(self):
        _, W = toy_matrix([(0.0,)], [50])
        d, info = estimate_d(W)
        np.testing.assert_array_equal(d, [1.0])

    def test_identical_densities_give_one(self):
        _, W = toy_matrix([(0.4,), (0.4,)], [3000, 2000])
        d, _ = estimate_d(W)
        assert d[1] == pytest.approx(1.0, abs=1e-9)

    def test_toy_recovers_exact_ratio(self):
        fam, W = toy_matrix([(0.0,), (1.0,)], [50_000, 50_000], seed0=100)
        est = estimate_ratios(W)
        truth = fam.exact_bf((1.0,), (0.0,))
        se = math.sqrt(est.sigma_hat[0, 0] / est.N)
        assert abs(est.d_hat[1] - truth) < 3 * se

    def test_self_consistency_fixed_point(self):
        fam, W = toy_matrix([(0.0,), (0.8,), (1.6,)], [4000, 3000, 5000], seed0=7)
        d, info = estimate_d(W)
        ws = Stage2Workspace(W, d)
        for j, h in enumerate(W.skeleton):
            assert abs(bf_hat(ws, h) / d[j] - 1.0) < 1e-8
        assert info["final_grad_norm"] < 1e-10

    def test_gradient_matches_finite_difference(self):
        _, W = toy_matrix([(0.0,), (1.0,), (2.0,)], [800, 700, 900], seed0=3)
        counts = W.counts.astype(float)
        mix = Mixture(W, np.zeros(3))
        rng = np.random.default_rng(12)
        for _ in range(10):
            eta = np.concatenate([[0.0], rng.normal(0, 0.8, 2)])
            _, s, _ = mix.objective(eta)
            grad = (mix.masses(eta, s) - counts)[1:]
            for j in (1, 2):
                up, dn = eta.copy(), eta.copy()
                up[j] += 1e-6
                dn[j] -= 1e-6
                fd = (mix.objective(up)[0] - mix.objective(dn)[0]) / 2e-6
                assert abs(fd - grad[j - 1]) / max(abs(fd), 1.0) < 1e-6

    def test_objective_lse_matches_scipy_with_neg_inf_entries(self):
        rng = np.random.default_rng(19)
        logw = rng.normal(0.0, 30.0, size=(5, 400))
        # -inf entries, but none in the last row: no column is all -inf
        logw[:4][rng.random((4, 400)) < 0.3] = -np.inf
        logw[:, 0] = [-np.inf, -np.inf, -np.inf, -np.inf, 2.0]
        logw[:, 1] = 700.0
        counts = np.array([60, 70, 80, 90, 100])
        eta = np.concatenate([[0.0], rng.normal(0, 2.0, 4)])
        want = logsumexp(logw + np.log(counts / counts.sum())[:, None] - eta[:, None],
                         axis=0)
        for ref in (np.zeros(5), eta, -eta):
            value, _, lse = Mixture(log_terms(logw, counts), ref).objective(eta)
            np.testing.assert_allclose(lse, want, rtol=1e-13)
            assert value == pytest.approx(-counts @ eta - want.sum(), rel=1e-13)

    def test_concavity_along_random_segments(self):
        _, W = toy_matrix([(0.0,), (1.2,)], [600, 600], seed0=5)
        mix = Mixture(W, np.zeros(2))
        rng = np.random.default_rng(0)
        for _ in range(20):
            e1 = np.array([0.0, rng.normal(0, 1.5)])
            e2 = np.array([0.0, rng.normal(0, 1.5)])
            v1 = mix.objective(e1)[0]
            v2 = mix.objective(e2)[0]
            for lam in (0.25, 0.5, 0.75):
                mid = mix.objective((1 - lam) * e1 + lam * e2)[0]
                assert mid >= (1 - lam) * v1 + lam * v2 - 1e-9

    def test_curvature_matches_softmax_reference(self):
        _, W = toy_matrix([(0.0,), (0.8,), (1.6,), (2.4,)], [900, 700, 800, 600],
                          seed0=11)
        counts = W.counts.astype(float)
        base = W.logw + np.log(counts / W.total)[:, None]
        rng = np.random.default_rng(8)
        for ref in (np.zeros(4), np.array([0.0, -20.0, 25.0, -5.0])):
            mix = Mixture(W, ref)
            for _ in range(5):
                eta = np.concatenate([[0.0], rng.normal(0, 1.5, 3)])
                _, s, _ = mix.objective(eta)
                B = mix.curvature(eta, s, np.empty_like(W.logw))
                want = curvature_of(softmax(base - eta[:, None])[1])
                np.testing.assert_allclose(B, want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())

    def test_far_skeleton_matches_softmax_solver(self):
        # log d_hat_3 is near -81, so the solver re-takes its kernel's E
        fam, W = toy_matrix([(0.0,), (9.0,), (18.0,)], [4000, 4000, 4000], seed0=30)
        d, info = estimate_d(W)
        d_ref, iterations, trace, P, B = estimate_d_softmax(W)
        assert math.log(d[2]) < -3 * ratio.REACH / 2
        np.testing.assert_allclose(d, d_ref, rtol=1e-12)
        assert info["iterations"] == iterations
        assert len(info["trace"]) == len(trace)
        np.testing.assert_allclose([t["objective"] for t in info["trace"]],
                                   [t["objective"] for t in trace], rtol=1e-12)
        np.testing.assert_allclose(info["P"], P, rtol=0, atol=1e-12)
        # diag(P 1) - P P' cancels from P 1 ~ 4000 to entries ~ 1 in both
        # solvers, so each carries an error of a few eps * 4000
        eps = np.finfo(float).eps
        np.testing.assert_allclose(info["curvature"], B, rtol=0,
                                   atol=8 * eps * W.counts.max())
        sigma, sigma_ref = (_sandwich(W, d, info["P"], info["curvature"]),
                            _sandwich(W, d_ref, P, B))
        np.testing.assert_allclose(sigma, sigma_ref, rtol=1e-10)

    def test_curvature_diagonal_matches_longdouble_reference(self):
        # P 1 is about 4000 on the diagonal and P P' about 4000 too, so
        # diag(P 1) - P P' would cancel to entries about 1
        _, W = toy_matrix([(0.0,), (9.0,), (18.0,)], [4000, 4000, 4000], seed0=30)
        eta = np.log(estimate_d(W)[0])
        mix = Mixture(W, eta)
        _, s, _ = mix.objective(eta)
        got = np.diag(mix.curvature(eta, s, np.empty_like(W.logw)))
        z = W.logw.astype(np.longdouble) + np.log(W.proportions)[:, None] - eta[:, None]
        P = np.exp(z - z.max(axis=0))
        P /= P.sum(axis=0)
        want = P.sum(axis=1) - np.einsum("jp,jp->j", P, P)
        assert np.all(want < 20.0) and np.all(P.sum(axis=1) > 3000.0)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_chain_permutation_equivariance(self):
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (0.9,), (1.7,)]
        chains = [fam.sample_posterior(ChainSpec(h=h, length=2000, seed=i))
                  for i, h in enumerate(skeleton)]
        W = build_log_weight_matrix(fam, skeleton, chains)
        d, _ = estimate_d(W)
        perm = [2, 0, 1]
        Wp = build_log_weight_matrix(fam, [skeleton[i] for i in perm],
                                     [chains[i] for i in perm])
        dp, _ = estimate_d(Wp)
        np.testing.assert_allclose(dp, np.array([d[i] for i in perm]) / d[2],
                                   rtol=1e-8)

    def test_invariance_to_theta_only_shifts(self):
        _, W = toy_matrix([(0.0,), (1.0,)], [1500, 1500], seed0=9)
        d, _ = estimate_d(W)
        rng = np.random.default_rng(1)
        shifted = LogWeightMatrix(
            logw=W.logw + rng.normal(0, 2.0, W.total)[None, :],
            counts=W.counts, skeleton=W.skeleton, family=W.family,
            stats=W.stats, samples=W.samples)
        d2, _ = estimate_d(shifted)
        np.testing.assert_allclose(d2, d, atol=1e-10)

    def test_dead_sample_raises_support_error(self):
        _, W = toy_matrix([(0.0,), (1.0,)], [50, 50])
        W.logw[:, 3] = -np.inf
        with pytest.raises(SupportViolationError, match="pooled sample 3"):
            estimate_d(W)

    def test_disjoint_support_raises_connectivity(self):
        _, W = toy_matrix([(0.0,), (1.0,)], [60, 60])
        W.logw[1, :60] = -np.inf
        W.logw[0, 60:] = -np.inf
        with pytest.raises(ConnectivityError):
            d, _ = estimate_d(W)
            estimate_sigma(W, d)

    def test_iteration_limit_raises_convergence_error(self, monkeypatch):
        _, W = toy_matrix([(0.0,), (1.0,), (2.0,)], [300, 300, 300])
        monkeypatch.setattr(ratio, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="after 1 iterations"):
            estimate_d(W)


class TestEstimateSigma:
    def test_identical_densities_zero_covariance(self):
        _, W = toy_matrix([(0.5,), (0.5,)], [2000, 2000])
        d, _ = estimate_d(W)
        sigma = estimate_sigma(W, d)
        assert abs(sigma[0, 0]) < 1e-18

    def test_symmetric_psd(self):
        _, W = toy_matrix([(0.0,), (0.7,), (1.5,)], [3000, 2500, 3500], seed0=21)
        est = estimate_ratios(W)
        s = est.sigma_hat
        assert np.array_equal(s, s.T)          # C C', symmetric by construction
        assert np.all(np.linalg.eigvalsh(s) > -1e-12)

    def test_estimate_ratios_reuses_solver_p(self):
        _, W = toy_matrix([(0.0,), (0.7,), (1.5,)], [3000, 2500, 3500], seed0=21)
        est = estimate_ratios(W)
        d, info = estimate_d(W)
        sigma = estimate_sigma(W, d)
        np.testing.assert_array_equal(est.d_hat, d)
        np.testing.assert_allclose(est.sigma_hat, sigma, rtol=1e-12,
                                   atol=1e-12 * np.abs(sigma).max())
        assert est.iterations == info["iterations"]

    def test_sigma_from_solver_curvature_matches_estimate_sigma(self):
        for skeleton, lengths, seed0 in (([(0.0,), (0.7,), (1.5,)], [3000, 2500, 3500], 21),
                                         ([(0.0,), (1.0,)], [800, 1300], 5)):
            _, W = toy_matrix(skeleton, lengths, seed0=seed0)
            est = estimate_ratios(W)
            sigma = estimate_sigma(W, est.d_hat)
            np.testing.assert_allclose(est.sigma_hat, sigma, rtol=1e-13,
                                       atol=1e-13 * np.abs(sigma).max())

    def test_k1_sigma_is_empty(self):
        _, W = toy_matrix([(0.0,)], [200])
        assert estimate_ratios(W).sigma_hat.shape == (0, 0)
        assert estimate_sigma(W, np.ones(1)).shape == (0, 0)

    def test_peak_memory_of_estimate_ratios(self):
        skeleton = [(0.2 * s,) for s in range(16)]
        _, W = toy_matrix(skeleton, [2500] * 16, seed0=40)
        unit = W.logw.nbytes                       # one k x N float array
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            estimate_ratios(W)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * unit, f"peak {peak / unit:.2f} k x N arrays"

    def test_peak_memory_of_estimate_d(self):
        skeleton = [(0.2 * s,) for s in range(16)]
        _, W = toy_matrix(skeleton, [2500] * 16, seed0=40)
        unit = W.logw.nbytes                       # one k x N float array
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            estimate_d(W)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * unit, f"peak {peak / unit:.2f} k x N arrays"

    def test_replication_calibration(self):
        # empirical covariance of sqrt(N)(d_hat - d) vs the mean sandwich
        # estimate, i.i.d. toy, moderate size
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,), (2.0,)]
        truth = np.array([fam.exact_bf(h, skeleton[0]) for h in skeleton])[1:]
        reps = 500
        scaled = np.empty((reps, 2))
        sigmas = np.zeros((2, 2))
        for rep in range(reps):
            seeds = np.random.SeedSequence((606, rep)).generate_state(3)
            chains = [fam.sample_posterior(ChainSpec(h=h, length=3000, seed=int(s)))
                      for h, s in zip(skeleton, seeds)]
            W = build_log_weight_matrix(fam, skeleton, chains)
            est = estimate_ratios(W)
            scaled[rep] = math.sqrt(est.N) * (est.d_hat[1:] - truth)
            sigmas += est.sigma_hat
        emp = np.cov(scaled.T)
        mean_sigma = sigmas / reps
        rel = np.linalg.norm(emp - mean_sigma) / np.linalg.norm(mean_sigma)
        assert rel < 0.20, f"relative Frobenius error {rel:.3f}"


class TestRatioEstimateIO:
    def test_json_round_trip(self, tmp_path):
        _, W = toy_matrix([(0.0,), (1.0,)], [500, 400], seed0=2)
        est = estimate_ratios(W)
        path = tmp_path / "ratio.json"
        est.save(path, "hash")
        back = RatioEstimate.load(path, [(0.0,), (1.0,)], "hash")
        np.testing.assert_array_equal(back.d_hat, est.d_hat)
        np.testing.assert_array_equal(back.sigma_hat, est.sigma_hat)
        assert back.N == est.N
        assert back.iterations == est.iterations
        assert back.skeleton == est.skeleton == [(0.0,), (1.0,)]
        assert back.trace == est.trace

    def test_newton_trace(self, tmp_path):
        _, W = toy_matrix([(0.0,), (0.9,), (1.8,)], [1500, 1200, 1800], seed0=4)
        est = estimate_ratios(W)
        trace = est.trace
        assert len(trace) == est.iterations + 1 > 1
        assert trace[0]["step"] == 0.0 and all(t["step"] > 0.0 for t in trace[1:])
        assert trace[-1]["grad_norm"] == est.final_grad_norm < 1e-10
        objective = [t["objective"] for t in trace]
        assert all(b >= a - 1e-13 * abs(a) for a, b in zip(objective, objective[1:]))
        path = tmp_path / "ratio.json"
        est.save(path, "hash")
        assert json.loads(path.read_text())["solver"]["trace"] == trace

    def test_file_without_trace_loads(self, tmp_path):
        _, W = toy_matrix([(0.0,), (1.0,)], [500, 400], seed0=2)
        path = tmp_path / "ratio.json"
        estimate_ratios(W).save(path, "hash")
        doc = json.loads(path.read_text())
        del doc["solver"]["trace"]
        path.write_text(json.dumps(doc))
        back = RatioEstimate.load(path, [(0.0,), (1.0,)], "hash")
        assert back.trace is None
        back.save(path, "hash")
        assert json.loads(path.read_text())["solver"]["trace"] is None
