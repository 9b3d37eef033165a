import math
from fractions import Fraction

import numpy as np
import pytest

from priorsweep.blvs import BlvsFamily, Dataset
from priorsweep.errors import DegenerateDesignWarning
from priorsweep.families import ChainSpec, ConjugateToy
from priorsweep.ratio import build_log_weight_matrix, estimate_d
from priorsweep.surface import Stage2Workspace, surface
from priorsweep.variance import (MIN_SERIES_LENGTH, BatchLayout, PlanInputs, batch_sums,
                                 predicted_variance, q_opt)

from per_point import (batch_means_lrv, bf_hat, c_hat, draw_psi, estimate_sigma, point_terms,
                       spectral_lrv, w_hat)


def lrv_matrix(X, layout):
    """The batch-means long-run covariance matrix S S' of a (..., K, n)
    vector series, S its `batch_sums`."""
    S = batch_sums(X, layout)
    return S @ S.swapaxes(-1, -2)


def lrv_diag(X, layout):
    """One long-run variance per series of a (..., n) array, the diagonal
    of S S' for S its `batch_sums`, each reduced on its own: the stage-2
    sweep's einsum over the batch sums it forms from its tables."""
    S = batch_sums(X, layout)
    return np.einsum("...i,...i->...", S, S)


def toy_workspace(skeleton, n, seed0=0, d=None, y_obs=0.0, sampler="iid"):
    fam = ConjugateToy(y_obs=y_obs, sampler=sampler)
    ch = [fam.sample_posterior(ChainSpec(h=h, length=n, seed=seed0 + i))
          for i, h in enumerate(skeleton)]
    W = build_log_weight_matrix(fam, skeleton, ch)
    if d is None:
        d, _ = estimate_d(W)
    return fam, Stage2Workspace(W, np.asarray(d, dtype=float))


# the variance columns of a Surface
BF, BF_CV, PE = 0, 1, 2


def forms(ws, h, sigma, q=1.0, rows=()):
    """The surface at one h for the function rows given, whose stage-1
    terms are q vec' sigma vec for the sensitivity vector of each
    estimator: c (column BF), w (BF_CV), v (PE + j)."""
    F = np.array(rows, dtype=float).reshape(-1, ws.n)
    return surface(ws, [h], F, np.asarray(sigma, dtype=float), q=q)


def point(ws, h, rows=()):
    """`forms` with sigma_hat = 0, so every variance is its stage-2 term:
    tau^2 (column BF), sigma^2 (BF_CV), rho (PE + j)."""
    return forms(ws, h, np.zeros((ws.W.k - 1, ws.W.k - 1)), q=0.0, rows=rows)


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
        S = lrv_matrix(X.T, BatchLayout([5000]))
        assert S[0, 0] == pytest.approx(batch_means_lrv(X[:, :1], [5000])[0, 0], rel=1e-12)
        assert S[1, 0] == S[0, 1]

    def test_chain_lrv_is_weighted_sum_over_chains(self):
        # the pooled layout weights each chain alone by its share of draws
        rng = np.random.default_rng(4)
        X = rng.normal(size=(2, 700))
        want = (3 / 7) * lrv_matrix(X[:, :300], BatchLayout([300])) \
            + (4 / 7) * lrv_matrix(X[:, 300:], BatchLayout([400]))
        np.testing.assert_allclose(lrv_matrix(X, BatchLayout([300, 400])), want,
                                   rtol=1e-13, atol=0.0)


def ar1_series(n, p, phi, seed):
    innov = np.random.default_rng(seed).normal(size=(n, p))
    x = np.empty_like(innov)
    x[0] = innov[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + innov[t]
    return x


def slices_of(lengths):
    ends = np.cumsum(lengths)
    return [slice(int(e - m), int(e)) for e, m in zip(ends, lengths)]


class TestBatchLayout:
    @pytest.mark.parametrize("lengths", [(10,), (37, 100), (400, 250, 37)])
    def test_batches_of_each_chain(self, lengths):
        # b = isqrt(m) and a = m // b batches from the chain's first draw;
        # the last m - a b draws are a tail outside every batch
        layout = BatchLayout(lengths)
        starts = layout.cuts if layout.keep is None else layout.cuts[layout.keep]
        want_starts, want_weight, want_chain = [], [], []
        for l, sl in enumerate(slices_of(lengths)):
            m = sl.stop - sl.start
            b, a = math.isqrt(m), m // math.isqrt(m)
            want_starts += [sl.start + i * b for i in range(a)]
            want_weight += [m / sum(lengths) * b / (a - 1)] * a
            want_chain += [l] * a
        assert starts.tolist() == want_starts
        assert layout.chain.tolist() == want_chain
        np.testing.assert_allclose(layout.weight, want_weight, rtol=1e-15)
        tails = [m - (m // math.isqrt(m)) * math.isqrt(m) for m in lengths]
        assert (layout.keep is None) == (not any(tails))
        assert len(layout.cuts) == len(want_starts) + sum(t > 0 for t in tails)

    def test_too_short_chain_refused(self):
        with pytest.raises(ValueError, match="too short"):
            BatchLayout([MIN_SERIES_LENGTH - 1, 100])

    def test_wrong_series_length_refused(self):
        with pytest.raises(ValueError, match="length 99"):
            lrv_diag(np.ones((2, 99)), BatchLayout([100]))

    @pytest.mark.parametrize("m", [MIN_SERIES_LENGTH, 11, 38, 1000])
    def test_one_chain_with_and_without_a_tail(self, m):
        # k = 1: the one chain's share is 1; 10, 11 and 38 leave a tail
        X = ar1_series(m, 3, 0.5, seed=m) + 1.0
        np.testing.assert_allclose(lrv_diag(X.T, BatchLayout([m])),
                                   np.diag(batch_means_lrv(X, [m])), rtol=1e-13, atol=0.0)

    def test_tail_draws_do_not_enter(self):
        # 38 draws: b = 6, a = 6, and the last 2 draws in no batch
        X = np.random.default_rng(5).normal(size=(2, 38))
        Y = X.copy()
        Y[:, 36:] = 1e6
        layout = BatchLayout([38])
        assert np.array_equal(lrv_matrix(X, layout), lrv_matrix(Y, layout))

    def test_constant_within_chains_gives_zero(self):
        # each chain centred at its own mean: chain-wise constants vanish,
        # up to the rounding of their scaled batch sums
        X = np.concatenate([np.full(50, 2.0), np.full(37, -5.0)])
        assert lrv_diag(X, BatchLayout([50, 37])) < 1e-28


class TestBartlettKernel:
    """The batch-means kernel against the loop over batches in
    `per_point.batch_means_lrv`."""

    @pytest.mark.parametrize("p", [1, 2, 15, 17])
    @pytest.mark.parametrize("n", [MIN_SERIES_LENGTH + 1, 37, 1000])
    @pytest.mark.parametrize("phi", [0.0, 0.9])
    def test_matches_lag_loop(self, n, p, phi):
        X = ar1_series(n, p, phi, seed=100 * n + p) + 3.0
        want = batch_means_lrv(X, [n])
        got = lrv_matrix(X.T, BatchLayout([n]))
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(lrv_diag(X.T, BatchLayout([n])), np.diag(want),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [1, 2, 15, 17])
    def test_chain_weighted_diagonal_matches_lag_loop(self, p):
        X = np.vstack([ar1_series(400, p, 0.5, seed=p), ar1_series(250, p, 0.0, seed=p + 1)])
        want = np.diag(batch_means_lrv(X, [400, 250]))
        got = np.diag(lrv_matrix(X.T, BatchLayout([400, 250])))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_zero_series_exactly_zero(self):
        assert np.all(lrv_matrix(np.zeros((3, 50)), BatchLayout([50])) == 0.0)
        assert np.all(lrv_diag(np.zeros((3, 50)), BatchLayout([20, 30])) == 0.0)
        assert np.all(lrv_diag(np.zeros((4, 3, MIN_SERIES_LENGTH)),
                               BatchLayout([MIN_SERIES_LENGTH])) == 0.0)


class TestSeriesMajorLayout:
    """The kernel on (..., n) series against the time-major loop over
    batches, which takes (n, K) arrays."""

    @pytest.mark.parametrize("p", [1, 2, 17])
    @pytest.mark.parametrize("n", [MIN_SERIES_LENGTH, 11, 1000])
    def test_matches_time_major_reference(self, n, p):
        X = ar1_series(n, p, 0.7, seed=7 * n + p) - 2.0
        XT = np.ascontiguousarray(X.T)
        want = batch_means_lrv(X, [n])
        np.testing.assert_allclose(lrv_matrix(XT, BatchLayout([n])), want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(lrv_diag(XT, BatchLayout([n])), np.diag(want),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lengths", [(400, 250, 37), (MIN_SERIES_LENGTH, 60)])
    def test_chain_lrv_unequal_chains_matches_reference(self, lengths):
        # 250, 37, 10 and 60 draws leave tails of 10, 1, 1 and 4
        X = np.vstack([ar1_series(m, 3, 0.5, seed=m) + i for i, m in enumerate(lengths)])
        XT = np.ascontiguousarray(X.T)
        layout = BatchLayout(lengths)
        want = batch_means_lrv(X, lengths)
        np.testing.assert_allclose(lrv_matrix(XT, layout), want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(lrv_diag(XT, layout), np.diag(want), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("m", [MIN_SERIES_LENGTH, 250])
    def test_stacked_rows_bit_identical_to_each_alone(self, m):
        # the sweep's (B, J + 2, n) series: every row as if reduced alone
        X = np.random.default_rng(m).normal(size=(4, 5, 2 * m)) * np.arange(1.0, 6.0)[:, None]
        layout = BatchLayout([m, m])
        got = lrv_diag(X, layout)
        assert got.shape == (4, 5)
        for b in range(4):
            assert np.array_equal(got[b], lrv_diag(X[b], layout))
            for j in range(5):
                assert got[b, j] == lrv_diag(X[b, j], layout)


class TestTauSigma:
    def test_identical_skeleton_and_baseline_gives_zero(self):
        _, ws = toy_workspace([(0.5,), (0.5,)], 1500, d=[1.0, 1.0])
        with pytest.warns(DegenerateDesignWarning):
            surf = point(ws, (0.5,))
        assert surf.stage2[0, BF] < 1e-25

    def test_nonnegative(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 1200, seed0=5)
        assert point(ws, (0.4,)).stage2[0, BF] >= 0.0

    def test_sigma_equals_tau_when_z_zero(self):
        _, ws = toy_workspace([(0.5,), (0.5,)], 800, d=[1.0, 1.0], seed0=7)
        assert np.all(ws.Z == 0.0)
        with pytest.warns(DegenerateDesignWarning):
            surf = point(ws, (1.1,))
        assert surf.stage2[0, BF_CV] == pytest.approx(surf.stage2[0, BF], rel=1e-12)

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
            surf = point(ws, h)
            est[rep] = surf.bf[0]
            taus[rep] = surf.stage2[0, BF]
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
            surf = point(ws, h)
            est[rep] = surf.bf_cv[0]
            sig[rep] = surf.stage2[0, BF_CV]
        emp = 2 * n * est.var(ddof=1)
        assert emp / sig.mean() == pytest.approx(1.0, abs=0.15)

    def test_cv_variance_leq_plain_at_interior(self):
        # reported (not asserted as a theorem): sigma^2 <= tau^2 here
        _, ws = toy_workspace([(0.0,), (1.0,)], 4000, seed0=23)
        surf = point(ws, (0.5,))
        assert surf.stage2[0, BF_CV] <= surf.stage2[0, BF]


def gamma_rho_reference(ws, h, fv):
    """rho by the delta method on the joint long-run covariance Gamma of
    (f Y, Y), for the row fv of f at the pooled samples:
    (Gamma_00 - 2 I Gamma_01 + I^2 Gamma_11) / Ybar^2."""
    u, _ = point_terms(ws, h)
    ratio = float((fv * u).sum()) / float(u.sum())
    gamma = lrv_matrix(np.vstack([fv * u, u]), ws.batches)
    u_mean = float(u.mean())
    return (gamma[0, 0] - 2.0 * ratio * gamma[0, 1] + ratio * ratio * gamma[1, 1]) \
        / (u_mean * u_mean)


def exact_rho(ws, h, fv):
    """rho in rational arithmetic from the same float terms, batch by batch."""
    u, _ = point_terms(ws, h)
    U = [Fraction(float(x)) for x in u]
    FV = [Fraction(float(x)) for x in fv]
    ratio = sum(a * b for a, b in zip(FV, U)) / sum(U)
    total = Fraction(0)
    for a_l, sl in zip(ws.W.proportions, slices_of(ws.W.counts)):
        x = [(FV[p] - ratio) * U[p] for p in range(sl.start, sl.stop)]
        b = math.isqrt(len(x))
        a = len(x) // b
        means = [sum(x[i * b:(i + 1) * b]) / b for i in range(a)]
        centre = sum(means) / a
        s = sum((m - centre) ** 2 for m in means) * b / (a - 1)
        total += Fraction(float(a_l)) * s
    return float(total / (sum(U) / len(U)) ** 2)


class TestGammaRho:
    def test_constant_function_rho_exactly_zero(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 900, seed0=2)
        assert point(ws, (0.6,), [np.ones(ws.n)]).stage2[0, PE] == 0.0

    def test_stage2_terms_nonnegative(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 1100, seed0=3)
        surf = point(ws, (0.8,), [ws.W.samples])
        assert surf.stage2.shape == (1, 3) and np.all(surf.stage2 >= 0)

    def test_rho_matches_two_by_two_gamma_formula(self):
        _, ws = toy_workspace([(0.0,), (1.0,), (2.0,)], 1500, seed0=15)
        s = ws.W.samples
        fs = [s**2, (s > 0.5).astype(float)]      # theta^2, and theta > 0.5
        for h in ((0.3,), (0.9,), (1.6,)):
            surf = point(ws, h, fs)
            for j, f in enumerate(fs):
                if j == 1:
                    assert 0.05 < surf.pe[0, j] < 0.95
                want = gamma_rho_reference(ws, h, f)
                assert surf.stage2[0, PE + j] == pytest.approx(want, rel=1e-10)

    def test_rho_exact_near_pe_one(self):
        # f is 0 only on the smallest pooled draw, which carries little weight
        # at h = 2.5, so 1 - pe is about 1e-5.  The 2x2 form subtracts nearly
        # equal terms there (about 1e-8 relative error on this draw); the
        # centered series does not.
        _, ws = toy_workspace([(0.0,), (1.0,)], 300, seed0=16)
        lowest = np.sort(ws.W.samples)[:2].mean()
        f = (ws.W.samples > lowest).astype(float)
        h = (2.5,)
        surf = point(ws, h, [f])
        assert 1.0 - 1e-4 < surf.pe[0, 0] < 1.0
        assert surf.stage2[0, PE] == pytest.approx(exact_rho(ws, h, f), rel=1e-12)

    def test_rho_exact_near_pe_one_blvs(self):
        # x1's effect is moderate: 23 of the 600 stage-2 draws leave it out,
        # and at (0.96, 300) they carry so little weight that 1 - pe of its
        # inclusion is below 1e-4
        rng = np.random.default_rng(1234)
        X = rng.normal(size=(40, 5))
        y = 0.4 + X @ np.array([1.5, 0.5, 1.5, 0.0, 0.0]) + rng.normal(scale=0.7, size=40)
        fam = BlvsFamily(Dataset(y=y, X=X, names=[f"x{j}" for j in range(5)]))
        skeleton = [(0.3, 10.0), (0.6, 40.0)]
        W1 = build_log_weight_matrix(fam, skeleton, fam.sample_chains(
            [ChainSpec(h=h, length=300, burn_in=20, seed=3 + i) for i, h in enumerate(skeleton)]))
        W = build_log_weight_matrix(fam, skeleton, fam.sample_chains(
            [ChainSpec(h=h, length=300, burn_in=20, seed=13 + i) for i, h in enumerate(skeleton)]))
        ws = Stage2Workspace(W, estimate_d(W1)[0])
        F = fam.function_rows(fam.function_names(["inclusion:*"]), W.samples)
        h = (0.96, 300.0)
        surf = point(ws, h, F)
        assert 1.0 - 1e-4 < surf.pe[0, 1] < 1.0
        assert surf.stage2[0, PE + 1] == pytest.approx(exact_rho(ws, h, F[1]), rel=1e-12)

    def test_rho_replication_iid(self):
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.0,), (1.0,)]
        dt = np.array([1.0, fam.exact_bf((1.0,), (0.0,))])
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
            surf = point(ws, h, [W.samples])
            est[rep] = surf.pe[0, 0]
            rhos[rep] = surf.stage2[0, PE]
        emp = 2 * n * est.var(ddof=1)
        assert emp / rhos.mean() == pytest.approx(1.0, abs=0.15)


class TestSensitivityVectors:
    def test_c_identical_densities_equals_proportion(self):
        # Sigma = [[1]], q = 1: the stage-1 term of bf is c^2
        _, ws = toy_workspace([(0.5,), (0.5,)], 1000, d=[1.0, 1.0], seed0=4)
        with pytest.warns(DegenerateDesignWarning):
            surf = forms(ws, (0.5,), [[1.0]])
        assert math.sqrt(surf.stage1[0, BF]) == pytest.approx(ws.W.proportions[1], abs=1e-12)

    def test_c_nonnegative(self):
        # c_j is dB_hat/dd_j, the root of bf's stage-1 term under Sigma =
        # e_j e_j'; no output carries its sign, so B_hat must rise with d_j
        _, ws = toy_workspace([(0.0,), (1.0,), (2.0,)], 900, seed0=6)
        h = (0.7,)
        for j in range(1, ws.W.k):
            unit = np.zeros((ws.W.k - 1, ws.W.k - 1))
            unit[j - 1, j - 1] = 1.0
            c_j = math.sqrt(forms(ws, h, unit).stage1[0, BF])
            d = ws.d_hat.copy()
            d[j] *= 1.0 + 1e-6
            rise = (bf_hat(Stage2Workspace(ws.W, d), h) - bf_hat(ws, h)) / (d[j] - ws.d_hat[j])
            assert rise >= 0.0
            assert rise == pytest.approx(c_j, rel=1e-4)

    def test_w_is_c_plus_beta_m(self):
        # Sigma = [[1]], q = 1: the stage-1 terms of bf and bf_cv are c^2 and w^2
        _, ws = toy_workspace([(0.0,), (1.0,)], 700, seed0=8)
        surf = forms(ws, (0.4,), [[1.0]])
        w = math.sqrt(surf.stage1[0, BF]) + float(surf.beta[0] @ ws.M[:, 0])
        assert math.sqrt(surf.stage1[0, BF_CV]) == pytest.approx(abs(w), rel=1e-12)

    def test_w_reduces_to_c_when_beta_zero(self):
        # Z == 0 for identical densities, so the minimum-norm beta is 0
        _, ws = toy_workspace([(0.5,), (0.5,)], 700, d=[1.0, 1.0], seed0=8)
        with pytest.warns(DegenerateDesignWarning):
            surf = forms(ws, (0.4,), [[1.0]])
        assert np.all(surf.beta == 0.0)
        assert surf.stage1[0, BF_CV] == pytest.approx(surf.stage1[0, BF], rel=1e-12)

    def test_w_term3_vanishes_for_identical_densities(self):
        # M = diag(1/d) + chain-mean differences of psi, which must vanish
        _, ws = toy_workspace([(0.5,), (0.5,)], 1000, d=[1.0, 1.0], seed0=9)
        np.testing.assert_allclose(ws.M, np.diag(1.0 / ws.d_hat[1:]), atol=1e-12)

    def test_v_zero_for_constant_function(self):
        # f == 1: (f - I) u is exactly 0, so v and the stage-1 term are 0
        _, ws = toy_workspace([(0.0,), (1.0,)], 800, seed0=10)
        surf = forms(ws, (0.9,), random_spd(1, seed=10), rows=[np.ones(ws.n)])
        assert surf.stage1[0, PE] == 0.0

    def test_v_sign_flip(self):
        # v of -f is -v of f, so the stage-1 terms q v' Sigma v are equal
        _, ws = toy_workspace([(0.0,), (1.0,), (2.0,)], 800, seed0=11)
        f = ws.W.samples
        surf = forms(ws, (0.9,), random_spd(2, seed=11), rows=[-f, f])
        assert surf.stage1[0, PE] > 0.0
        np.testing.assert_allclose(surf.stage1[0, PE], surf.stage1[0, PE + 1],
                                   rtol=1e-14, atol=0.0)

    def test_v_matches_per_function_form(self):
        _, ws = toy_workspace([(0.0,), (1.0,), (2.0,)], 800, seed0=12)
        functions = [ws.W.samples, ws.W.samples**2]
        sigma = random_spd(2, seed=12)
        for h in [(0.3,), (1.4,), (2.6,)]:
            surf = forms(ws, h, sigma, q=1.0, rows=functions)
            for j, f in enumerate(functions):
                v = v_per_function(ws, h, f)
                np.testing.assert_allclose(surf.stage1[0, PE + j], v @ sigma @ v,
                                           rtol=1e-12, atol=0.0)


def random_spd(K, seed):
    """A random K x K symmetric positive definite Sigma_hat."""
    A = np.random.default_rng(seed).normal(size=(K, K))
    return A @ A.T + 0.1 * np.eye(K)


def v_per_function(ws, h, fv):
    """Reference: psi' (f - I) u / sum(u) for the row fv of one f,
    I = sum(f u) / sum(u)."""
    u, _ = point_terms(ws, h)
    den = float(u.sum())
    return draw_psi(ws) @ ((fv - float((fv * u).sum()) / den) * u) / den


class TestAssembleAndPlan:
    def test_q_zero_drops_stage1(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 600, seed0=15)
        surf = forms(ws, (0.5,), [[4.0]], q=0.0, rows=[ws.W.samples])
        assert np.all(surf.stage1 == 0.0)
        assert np.array_equal(surf.total, surf.stage2)
        assert np.array_equal(surf.se, np.sqrt(surf.stage2 / ws.n))

    def test_zero_sigma_drops_stage1(self):
        _, ws = toy_workspace([(0.0,), (1.0,)], 600, seed0=16)
        surf = forms(ws, (0.5,), np.zeros((1, 1)), q=0.7, rows=[ws.W.samples])
        assert np.all(surf.stage1 == 0.0)
        assert np.array_equal(surf.total, surf.stage2)

    def test_total_is_sum(self):
        _, ws = toy_workspace([(0.0,), (1.0,), (2.0,)], 600, seed0=17)
        h = (0.8,)
        surf = forms(ws, h, np.eye(2), q=0.5)
        u, shift = point_terms(ws, h)
        c = c_hat(ws, u, shift)
        w = w_hat(ws, c, surf.beta[0])
        assert surf.stage1[0, BF] == pytest.approx(0.5 * float(c @ c))
        assert surf.stage1[0, BF_CV] == pytest.approx(0.5 * float(w @ w))
        np.testing.assert_allclose(surf.total, surf.stage1 + surf.stage2)

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
        sigma = estimate_sigma(ws.W, ws.d_hat)
        surf = surface(ws, [(0.5,)], np.empty((0, ws.n)), sigma, q=1.0)
        assert surf.h.tolist() == [[0.5]]
        assert surf.total[0, BF_CV] >= surf.stage2[0, BF_CV]

    def test_k1_uses_plain_estimator(self):
        fam = ConjugateToy(y_obs=0.0)
        ch = [fam.sample_posterior(ChainSpec(h=(0.0,), length=500, seed=1))]
        W = build_log_weight_matrix(fam, [(0.0,)], ch)
        ws = Stage2Workspace(W, np.ones(1))
        surf = surface(ws, [(0.3,), (0.6,)], np.empty((0, ws.n)), np.zeros((0, 0)), q=0.5)
        assert surf.beta.shape == (2, 0)
        assert np.all(surf.stage1[:, BF_CV] == 0.0)
        assert np.array_equal(surf.bf_cv, surf.bf)
        assert np.array_equal(surf.stage1[:, BF_CV], surf.stage1[:, BF])
        assert np.array_equal(surf.stage2[:, BF_CV], surf.stage2[:, BF])

    def test_reported_se_zero_for_constant_function(self):
        # the f == 1 chain: v = 0 and rho = 0, so the pe se must be 0
        _, ws = toy_workspace([(0.0,), (1.0,)], 700, seed0=14)
        sigma = estimate_sigma(ws.W, ws.d_hat)
        surf = surface(ws, [(0.5,)], np.ones((1, ws.n)), sigma, q=1.0)
        assert surf.se[0, PE] == 0.0
