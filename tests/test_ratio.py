import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from priorsweep.errors import ConnectivityError, SupportViolationError
from priorsweep.families import ChainSpec, ConjugateToy
from priorsweep.ratio import (LogWeightMatrix, RatioEstimate,
                              _objective, _softmax, build_log_weight_matrix,
                              estimate_d, estimate_ratios, estimate_sigma)
from priorsweep.surface import Stage2Workspace, bf_hat


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


class TestSoftmaxKernel:
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_matches_scipy_logsumexp(self, k):
        rng = np.random.default_rng(k)
        z = rng.normal(0.0, 40.0, size=(k, 500))
        lse, P = _softmax(z.copy())
        want = logsumexp(z, axis=0)
        np.testing.assert_allclose(lse, want, rtol=1e-13)
        np.testing.assert_allclose(P, np.exp(z - want), rtol=1e-13, atol=1e-300)
        assert np.max(np.abs(P.sum(axis=0) - 1.0)) <= 1e-15

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
        lse, P = _softmax(z.copy())
        want = logsumexp(z, axis=0)
        np.testing.assert_allclose(lse[live], want[live], rtol=1e-13)
        assert lse[7] == -np.inf and not np.isnan(lse).any()
        assert P[-1, 8] == 1.0
        assert np.max(np.abs(P[:, live].sum(axis=0) - 1.0)) <= 1e-15
        assert np.all(P[:, live][np.isneginf(z[:, live])] == 0.0)

    def test_transposed_view_gives_row_lse(self):
        # the self-consistency step of estimate_d runs the kernel on z.T
        z = np.random.default_rng(3).normal(0.0, 20.0, size=(4, 700))
        lse, _ = _softmax(z.copy().T)
        np.testing.assert_allclose(lse, logsumexp(z, axis=1), rtol=1e-13)

    def test_overwrites_its_input_with_p(self):
        z = np.random.default_rng(2).normal(size=(4, 50))
        _, P = _softmax(z)
        assert P is z


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
        base = W.logw + (np.log(counts) - np.log(W.total))[:, None]
        rng = np.random.default_rng(12)
        for _ in range(10):
            eta = np.concatenate([[0.0], rng.normal(0, 0.8, 2)])
            _, _, P = _objective(base, eta, counts)
            grad = (P.sum(axis=1) - counts)[1:]
            for j in (1, 2):
                up, dn = eta.copy(), eta.copy()
                up[j] += 1e-6
                dn[j] -= 1e-6
                fd = (_objective(base, up, counts)[0]
                      - _objective(base, dn, counts)[0]) / 2e-6
                assert abs(fd - grad[j - 1]) / max(abs(fd), 1.0) < 1e-6

    def test_objective_lse_matches_scipy_with_neg_inf_entries(self):
        rng = np.random.default_rng(19)
        base = rng.normal(0.0, 30.0, size=(5, 400))
        # -inf entries, but none in the last row: no column is all -inf
        base[:4][rng.random((4, 400)) < 0.3] = -np.inf
        base[:, 0] = [-np.inf, -np.inf, -np.inf, -np.inf, 2.0]
        base[:, 1] = 700.0
        counts = np.full(5, 80.0)
        eta = np.concatenate([[0.0], rng.normal(0, 2.0, 4)])
        value, lse, _ = _objective(base, eta, counts)
        want = logsumexp(base - eta[:, None], axis=0)
        np.testing.assert_allclose(lse, want, rtol=1e-13)
        assert value == pytest.approx(-counts @ eta - want.sum(), rel=1e-13)

    def test_concavity_along_random_segments(self):
        _, W = toy_matrix([(0.0,), (1.2,)], [600, 600], seed0=5)
        counts = W.counts.astype(float)
        base = W.logw + (np.log(counts) - np.log(W.total))[:, None]
        rng = np.random.default_rng(0)
        for _ in range(20):
            e1 = np.array([0.0, rng.normal(0, 1.5)])
            e2 = np.array([0.0, rng.normal(0, 1.5)])
            v1 = _objective(base, e1, counts)[0]
            v2 = _objective(base, e2, counts)[0]
            for lam in (0.25, 0.5, 0.75):
                mid = _objective(base, (1 - lam) * e1 + lam * e2, counts)[0]
                assert mid >= (1 - lam) * v1 + lam * v2 - 1e-9

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
        np.testing.assert_allclose(s, s.T, atol=1e-15)
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
        est.save(path)
        back = RatioEstimate.load(path)
        np.testing.assert_array_equal(back.d_hat, est.d_hat)
        np.testing.assert_array_equal(back.sigma_hat, est.sigma_hat)
        assert back.N == est.N
        assert back.iterations == est.iterations
        assert back.skeleton == est.skeleton == [(0.0,), (1.0,)]
        assert back.trace == est.trace

    def test_newton_trace(self):
        _, W = toy_matrix([(0.0,), (0.9,), (1.8,)], [1500, 1200, 1800], seed0=4)
        est = estimate_ratios(W)
        trace = est.trace
        assert len(trace) == est.iterations + 1 > 1
        assert trace[0]["step"] == 0.0 and all(t["step"] > 0.0 for t in trace[1:])
        assert trace[-1]["grad_norm"] == est.final_grad_norm < 1e-10
        objective = [t["objective"] for t in trace]
        assert all(b >= a - 1e-13 * abs(a) for a, b in zip(objective, objective[1:]))
        assert est.to_dict()["solver"]["trace"] == trace

    def test_file_without_trace_loads(self):
        _, W = toy_matrix([(0.0,), (1.0,)], [500, 400], seed0=2)
        d = estimate_ratios(W).to_dict()
        del d["solver"]["trace"]
        back = RatioEstimate.from_dict(d)
        assert back.trace is None
        assert back.to_dict()["solver"]["trace"] is None
