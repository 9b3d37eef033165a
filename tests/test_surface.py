import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import priorsweep.surface as surface_module
from priorsweep.blvs import BlvsFamily
from priorsweep.errors import (DegenerateDesignWarning, SupportViolationError,
                               SupportWarning)
from priorsweep.families import ChainSpec, ConjugateToy
from priorsweep.ratio import LogWeightMatrix, build_log_weight_matrix, estimate_d
from priorsweep.surface import _RANK_RTOL, Stage2Workspace, _pass, surface

from conftest import synthetic_dataset
from per_point import (bf_cv_hat, bf_hat, draw_psi, estimate_sigma, pe_hat, point_terms,
                       surface_by_point)


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
        # no control variates: the CV estimate is the plain one, beta is empty
        for h in (0.4, -0.3, 1.1):
            est, beta = bf_cv_hat(ws, (h,))
            assert est == bf_hat(ws, (h,))
            assert beta.shape == (0,)

    def test_z_column_means_small(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,), (2.0,)], 4000, 20000, seed0=3)
        assert np.all(np.abs(ws.z_means) < 0.05)

    def test_grid_evaluation_never_touches_density_code(self):
        # the per-sample statistics are built once, before the sweep, and
        # every grid point reads its weights from them
        _, _, d, _ = two_stage([(0.0,), (1.0,)], 500, 500)
        calls = {"stats": 0}

        class Counting(ConjugateToy):
            def weight_stats(self, samples):
                calls["stats"] += 1
                return super().weight_stats(samples)

        counting = Counting(y_obs=0.0)
        chains = counting.sample_chains([ChainSpec(h=h, length=400, seed=9 + i)
                                         for i, h in enumerate([(0.0,), (1.0,)])])
        W = build_log_weight_matrix(counting, [(0.0,), (1.0,)], chains)
        assert calls["stats"] == 1
        ws = Stage2Workspace(W, d)
        surf = surface(ws, [(h,) for h in np.linspace(-0.5, 2.5, 40)],
                       W.samples[None], np.zeros((1, 1)), q=0.0)
        assert surf.h.shape == (40, 1)
        assert calls["stats"] == 1

    def test_kernel_terms_match_per_row_formulas(self):
        # the per-row formulas the workspace used before its one kernel call
        for k, seed0 in ((2, 1), (3, 5), (5, 9)):
            skeleton = [(0.6 * s,) for s in range(k)]
            _, _, _, ws = two_stage(skeleton, 800, 600, seed0=seed0)
            W = ws.W
            log_a, log_d = np.log(W.proportions), np.log(ws.d_hat)
            log_den = logsumexp(W.logw + (log_a - log_d)[:, None], axis=0)
            ref = np.exp(W.logw[0] - log_den)
            Z = np.vstack([np.exp(W.logw[j] - log_d[j] - log_den) - ref
                           for j in range(1, k)])
            psi = np.vstack([
                np.exp(log_a[j] + W.logw[j] - 2.0 * log_d[j] - log_den)
                for j in range(1, k)])
            # log_den and Z change sign: relative to their largest entry
            for got, want in ((ws.log_den, log_den), (ws.Z, Z)):
                np.testing.assert_allclose(got, want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max())
            np.testing.assert_allclose(draw_psi(ws), psi, rtol=1e-13)

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
        tau_sq = surface(ws, [(0.5,)], no_rows(ws), np.zeros((1, 1)), q=0.0).stage2[0, 0]
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
            assert math.isnan(pe_hat(ws, (9.5,), W.samples))


class TestControlVariates:
    # a full-rank design, and one with two identical nonzero Z columns (two
    # skeleton chains at one h with equal d and equal length)
    @pytest.mark.parametrize("skeleton, d, deficient", [
        ([(0.0,), (1.0,), (2.0,)], None, False),
        ([(0.0,), (1.0,), (1.0,)], [1.0, 0.8, 0.8], True),
    ])
    def test_beta_matches_lstsq(self, skeleton, d, deficient):
        fam = ConjugateToy(y_obs=0.0)
        ch = [fam.sample_posterior(ChainSpec(h=h, length=500, seed=90 + i))
              for i, h in enumerate(skeleton)]
        W = build_log_weight_matrix(fam, skeleton, ch)
        if d is None:
            d, _ = estimate_d(W)
        ws = Stage2Workspace(W, np.asarray(d, dtype=float))
        design = np.column_stack([np.ones(ws.n), ws.Z.T])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for h in np.linspace(-0.5, 2.5, 7):
                u, shift = point_terms(ws, (h,))
                want = np.linalg.lstsq(design, u, rcond=_RANK_RTOL)[0][1:] * math.exp(shift)
                np.testing.assert_allclose(bf_cv_hat(ws, (h,))[1], want, rtol=1e-12)
        degenerate = [w for w in caught if w.category is DegenerateDesignWarning]
        assert len(degenerate) == (1 if deficient else 0)

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
            u, shift = point_terms(ws, h)
            y_mean = math.exp(shift) * u.mean()
            vals[rep] = y_mean - float(ws.z_means @ beta)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - truth) < 3 * se


class TestPeHat:
    def test_constant_function_exactly_one(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 700, 700, seed0=23)
        f1 = np.ones(ws.n)
        for h in np.linspace(-1, 3, 9):
            assert pe_hat(ws, (h,), f1) == 1.0

    def test_indicator_range_exact(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 900, 900, seed0=29)
        ind = (ws.W.samples > 0).astype(float)
        for h in np.linspace(-2, 3, 21):
            v = pe_hat(ws, (h,), ind)
            assert 0.0 <= v <= 1.0

    def test_signed_function_against_direct_sum(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 800, 800, seed0=31)
        fv = np.sin(ws.W.samples)
        h = (0.7,)
        u, _ = point_terms(ws, h)
        want = float((fv * u).sum() / u.sum())
        assert pe_hat(ws, h, fv) == pytest.approx(want, rel=1e-13)

    def test_toy_posterior_mean_recovered(self):
        fam, _, _, ws = two_stage([(0.0,), (1.0,)], 20000, 20000, seed0=37)
        got = pe_hat(ws, (1.0,), fam.function_rows(["identity"], ws.W.samples)[0])
        assert got == pytest.approx(fam.exact_pe("identity", (1.0,)), abs=0.01)


class TestSurfaceSweep:
    def _assert_one_path(self, ws, grid, F):
        surf = surface(ws, grid, F, np.zeros((ws.W.k - 1, ws.W.k - 1)), q=0.0)
        for i, h in enumerate(grid):
            assert surf.bf[i] == bf_hat(ws, h)
            est, beta = bf_cv_hat(ws, h)
            assert surf.bf_cv[i] == est
            assert np.array_equal(surf.beta[i], beta)
            for j, f in enumerate(F):
                assert surf.pe[i, j] == pe_hat(ws, h, f)

    def test_one_path_toy(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,), (2.0,)], 500, 500, seed0=47)
        self._assert_one_path(ws, [(h,) for h in np.linspace(-0.5, 2.5, 13)], toy_rows(ws))

    def test_one_path_blvs(self, small_family):
        skeleton = [(0.3, 10.0), (0.6, 40.0), (0.5, 100.0)]
        chains = small_family.sample_chains([ChainSpec(h=h, length=150, burn_in=20, seed=60 + i)
                                             for i, h in enumerate(skeleton)])
        W = build_log_weight_matrix(small_family, skeleton, chains)
        d, _ = estimate_d(W)
        ws = Stage2Workspace(W, d)
        grid = [(w, g) for w in (0.2, 0.45, 0.7) for g in (5.0, 50.0, 150.0)]
        self._assert_one_path(ws, grid, inclusion_rows(small_family, ws))

    def test_records_and_errors(self):
        fam, W1, d, ws = two_stage([(0.0,), (1.0,)], 3000, 3000, seed0=43)
        sigma = estimate_sigma(W1, d)
        grid = [(h,) for h in np.linspace(-0.5, 2.0, 11)]
        surf = surface(ws, grid, fam.function_rows(["identity"], ws.W.samples), sigma, q=1.0)
        assert np.array_equal(surf.h, np.array(grid))
        assert np.all(surf.bf > 0)
        assert np.all(surf.se[:, 0] > 0)
        assert np.all(np.isfinite(surf.se[:, 1]))
        # one pe column; variance columns bf, bf_cv and pe:identity
        assert surf.pe.shape == (11, 1)
        assert surf.stage1.shape == surf.stage2.shape == (11, 3)
        assert np.all(surf.total[:, 0] >= surf.stage2[:, 0])

    def test_refuses_rows_of_the_wrong_shape(self):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 300, 300, seed0=41)
        s = ws.W.samples
        for F in (s, s[None, :-1], np.ones((1, ws.n + 1)), np.ones((1, 1, ws.n)), []):
            with pytest.raises(ValueError, match="function rows have shape"):
                surface(ws, [(0.5,)], F, np.zeros((1, 1)), q=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_rows_that_are_not_finite(self, bad):
        _, _, _, ws = two_stage([(0.0,), (1.0,)], 300, 300, seed0=41)
        F = toy_rows(ws)
        F[1, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            surface(ws, [(0.5,)], F, np.zeros((1, 1)), q=0.0)

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


def rows_equal(a, i, b, j=0):
    """Every number of row i of surface a and row j of surface b, compared
    exactly (nan equal to nan)."""
    return a.n == b.n and all(np.array_equal(x[i], y[j], equal_nan=True)
                              for x, y in zip(a[:-1], b[:-1]))


def matches_alone(surf, alone):
    """Whether each row of surf is exactly the one-point surface in alone."""
    return len(surf.h) == len(alone) and all(rows_equal(surf, i, s)
                                             for i, s in enumerate(alone))


def toy_study(lengths, seed0=47):
    """Toy skeleton 0, 1, 2, ... with a stage-2 chain of each given length,
    and the stage-1 sigma_hat."""
    fam = ConjugateToy(y_obs=0.0)
    skeleton = [(float(s),) for s in range(len(lengths))]
    c1 = [fam.sample_posterior(ChainSpec(h=h, length=600, seed=seed0 + i))
          for i, h in enumerate(skeleton)]
    W1 = build_log_weight_matrix(fam, skeleton, c1)
    d, _ = estimate_d(W1)
    c2 = [fam.sample_posterior(ChainSpec(h=h, length=n2, seed=seed0 + 50 + i))
          for i, (h, n2) in enumerate(zip(skeleton, lengths))]
    ws = Stage2Workspace(build_log_weight_matrix(fam, skeleton, c2), d)
    return ws, estimate_sigma(W1, d)


def blvs_study(family, lengths, seed0=60, k=3):
    """BLVS skeleton of k points, the first k of SKELETON_5, with a stage-2
    chain of each given length, and the stage-1 sigma_hat."""
    skeleton = SKELETON_5[:k]
    c1 = family.sample_chains([ChainSpec(h=h, length=200, burn_in=20, seed=80 + i)
                               for i, h in enumerate(skeleton)])
    W1 = build_log_weight_matrix(family, skeleton, c1)
    d, _ = estimate_d(W1)
    c2 = family.sample_chains([ChainSpec(h=h, length=n2, burn_in=20, seed=seed0 + i)
                               for i, (h, n2) in enumerate(zip(skeleton, lengths))])
    ws = Stage2Workspace(build_log_weight_matrix(family, skeleton, c2), d)
    return ws, estimate_sigma(W1, d)


SKELETON_5 = [(0.3, 10.0), (0.6, 40.0), (0.5, 100.0), (0.4, 20.0), (0.7, 70.0)]
# three lines of a BLVS grid, g = 5, 50 and 150, in an order that
# interleaves them; the first three points share a line
LINES = [(0.2, 5.0), (0.45, 5.0), (0.7, 5.0), (0.3, 50.0), (0.6, 150.0), (0.45, 50.0),
         (0.8, 150.0)]


def no_rows(ws):
    """The function rows of a sweep with no functions."""
    return np.empty((0, ws.n))


def toy_rows(ws):
    """Rows of theta, theta^2 and the indicator theta > 0.5 at the pooled
    toy samples."""
    s = ws.W.samples
    return np.array([s, s**2, (s > 0.5).astype(float)])


def inclusion_rows(family, ws):
    """Rows of every inclusion indicator at the pooled BLVS samples."""
    return family.function_rows(family.function_names(["inclusion:*"]), ws.W.samples)


class TestBlockPath:
    """The sweep by lines of the grid (the class keeps the name of the
    sweep by blocks of points that it replaced): against the per-point
    reference, and each point's numbers whatever else its line holds."""

    def assert_matches_per_point(self, ws, grid, F, sigma):
        """The sweep against the per-point reference: estimates within
        1e-12 relative, every variance term within 1e-10 of its total and
        every standard error within 1e-10 relative; and each record exactly
        what the point gives alone."""
        got = surface(ws, grid, F, sigma, q=0.7)
        want = surface_by_point(ws, grid, F, sigma, q=0.7)
        assert matches_alone(got, [surface(ws, [h], F, sigma, q=0.7) for h in grid])
        assert len(got.h) == len(want)
        for i, w in enumerate(want):
            assert tuple(got.h[i]) == w.h
            for a, b in [(got.bf[i], w.bf), (got.bf_cv[i], w.bf_cv),
                         *zip(got.pe[i], w.pe.values())]:
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
            np.testing.assert_allclose(got.beta[i], w.beta, rtol=1e-12)
            assert got.ess[i] == pytest.approx(w.ess, rel=1e-12)
            assert got.max_weight_share[i] == pytest.approx(w.max_weight_share, rel=1e-12)
            # the columns are bf, bf_cv, pe:<row>..., the order of w.var
            assert list(w.var) == ["bf", "bf_cv", *[f"pe:{j}" for j in range(len(F))]]
            for col, vb in enumerate(w.var.values()):
                assert abs(got.stage1[i, col] - vb.stage1_term) <= 1e-10 * vb.total
                assert abs(got.stage2[i, col] - vb.stage2_term) <= 1e-10 * vb.total
                assert got.se[i, col] == pytest.approx(vb.se, rel=1e-10)

    def test_matches_per_point_reference_toy(self):
        ws, sigma = toy_study((500, 500, 500))
        self.assert_matches_per_point(ws, [(h,) for h in np.linspace(-0.5, 2.5, 13)],
                                      toy_rows(ws), sigma)

    def test_matches_per_point_reference_blvs(self, small_family):
        ws, sigma = blvs_study(small_family, (150, 150, 150))
        grid = [(w, g) for w in (0.2, 0.45, 0.7) for g in (5.0, 50.0, 150.0)]
        self.assert_matches_per_point(ws, grid, inclusion_rows(small_family, ws), sigma)

    def test_matches_per_point_reference_blvs_uneven_lines(self, small_family):
        # lines of three, two and one point; g = 7 and 100 lie on no
        # skeleton line, and w reaches 0.02 and 0.98
        ws, sigma = blvs_study(small_family, (150, 150, 150))
        grid = [(0.02, 40.0), (0.3, 7.0), (0.5, 40.0), (0.6, 100.0), (0.98, 7.0), (0.98, 40.0)]
        self.assert_matches_per_point(ws, grid, inclusion_rows(small_family, ws), sigma)

    def test_matches_per_point_reference_blvs_without_functions(self, small_family):
        ws, sigma = blvs_study(small_family, (150, 150, 150))
        self.assert_matches_per_point(ws, LINES, no_rows(ws), sigma)

    def test_matches_per_point_reference_blvs_one_chain(self, small_family):
        # k = 1: no control variates, and 137 draws make 11 batches of 11
        # and a tail of 16
        ws, sigma = blvs_study(small_family, (137,), k=1)
        assert ws.batches.keep is not None
        self.assert_matches_per_point(ws, LINES, inclusion_rows(small_family, ws), sigma)

    def test_unequal_chain_lengths(self, small_family):
        ws, sigma = toy_study((300, 420, 250), seed0=5)
        self.assert_matches_per_point(ws, [(h,) for h in np.linspace(-0.5, 2.5, 7)],
                                      toy_rows(ws), sigma)
        ws, sigma = blvs_study(small_family, (120, 175, 90))
        self.assert_matches_per_point(ws, LINES, inclusion_rows(small_family, ws), sigma)

    def test_one_chain_with_a_tail(self, small_family):
        # k = 1: no control variates and one chain, whose 437 draws make 21
        # batches of 20 and a tail of 17 outside them
        ws, sigma = toy_study((437,), seed0=9)
        F = toy_rows(ws)
        self.assert_matches_per_point(ws, [(h,) for h in np.linspace(-0.5, 1.5, 5)], F, sigma)
        ws, sigma = blvs_study(small_family, (437,), k=1)
        self.assert_matches_per_point(ws, LINES, inclusion_rows(small_family, ws), sigma)

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("k", [3, 5])
    def test_records_do_not_depend_on_block(self, monkeypatch, small_family, per_block, extra,
                                            k):
        # per_block points on one line, then extra points on another, swept
        # as one block of lines and, with LINES_BLOCK at 1, a line a block
        ws, sigma = blvs_study(small_family, (150,) * k, seed0=11, k=k)
        F = inclusion_rows(small_family, ws)
        points = [(w, 30.0) for w in (0.2, 0.5, 0.8)][:per_block] + [(0.4, 90.0)] * extra
        alone = {h: surface(ws, [h], F, sigma, q=0.7) for h in points}
        for lines_block in (surface_module.LINES_BLOCK, 1):
            monkeypatch.setattr(surface_module, "LINES_BLOCK", lines_block)
            for size in {1, per_block + extra}:
                surf = surface(ws, points[:size], F, sigma, q=0.7)
                assert len(surf.h) == size
                assert matches_alone(surf, [alone[h] for h in points[:size]])

    def test_no_functions_do_not_depend_on_block(self, monkeypatch, small_family):
        ws, sigma = blvs_study(small_family, (150, 150, 150), seed0=13)
        alone = [surface(ws, [h], no_rows(ws), sigma, q=0.7) for h in LINES]
        assert matches_alone(surface(ws, LINES, no_rows(ws), sigma, q=0.7), alone)
        # blocks of at most two lines, and of at most three points unless
        # one line holds more
        monkeypatch.setattr(surface_module, "LINES_BLOCK", 2 * ws.n)
        assert 2 * ws.n // (2 * len(ws.cells) * (len(ws.batches.chain) + 1)) == 3
        assert matches_alone(surface(ws, LINES, no_rows(ws), sigma, q=0.7), alone)

    def test_dead_point_among_live_ones(self):
        # nu_h vanishes at g = 500 (a line of its own) and, on the line
        # g = 30, at w = 0.9
        class Vanishing(BlvsFamily):
            def lines(self, H, stats):
                for rows, log_e, log_c in super().lines(H, stats):
                    if H[rows[0], 1] == 500.0:
                        log_e = np.full_like(log_e, -np.inf)
                    log_c[H[rows, 0] == 0.9] = -np.inf
                    yield rows, log_e, log_c

        fam = Vanishing(synthetic_dataset())
        ws, sigma = blvs_study(fam, (150, 150, 150))
        F = inclusion_rows(fam, ws)
        grid = [(0.2, 30.0), (0.5, 500.0), (0.9, 30.0), (0.6, 30.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            surf = surface(ws, grid, F, sigma, q=0.5)
        support = [str(w.message) for w in caught if w.category is SupportWarning]
        assert len(support) == 2 and "500.0" in support[0] and "0.9" in support[1]
        for i in (1, 2):
            assert surf.bf[i] == 0.0 and np.isnan(surf.pe[i]).all()
            assert np.isnan(surf.se[i, 2:]).all()
            assert surf.stage2[i, 0] == 0.0
        for i in (0, 3):
            assert rows_equal(surf, i, surface(ws, [grid[i]], F, sigma, q=0.5))

    @pytest.mark.parametrize("per_block", [1, 4])
    def test_constant_and_indicator_exact_in_blocks(self, small_family, per_block):
        # the toy's one-point lines, and BLVS lines of per_block points
        ws, sigma = toy_study((700, 700, 700), seed0=23)
        one_ind = np.array([np.ones(ws.n), (ws.W.samples > 0).astype(float)])
        surf = surface(ws, [(h,) for h in np.linspace(-3, 5, 17)], one_ind, sigma, q=0.5)
        assert np.all(surf.pe[:, 0] == 1.0)
        assert np.all(surf.se[:, 2] == 0.0)
        assert np.all((0.0 <= surf.pe[:, 1]) & (surf.pe[:, 1] <= 1.0))
        ws, sigma = blvs_study(small_family, (150, 150, 150), seed0=23)
        one_ind = np.vstack([np.ones(ws.n), inclusion_rows(small_family, ws)])
        grid = [(w, g) for g in (20.0, 60.0, 150.0) for w in (0.2, 0.4, 0.6, 0.8)[:per_block]]
        surf = surface(ws, grid, one_ind, sigma, q=0.5)
        assert np.all(surf.pe[:, 0] == 1.0)
        assert np.all(surf.se[:, 2] == 0.0)
        assert np.all((0.0 <= surf.pe) & (surf.pe <= 1.0))

    def test_degenerate_design_warns_once_per_workspace(self):
        fam = ConjugateToy(y_obs=0.0)
        skeleton = [(0.6,), (0.6,)]
        ch = [fam.sample_posterior(ChainSpec(h=h, length=400, seed=30 + i))
              for i, h in enumerate(skeleton)]
        ws = Stage2Workspace(build_log_weight_matrix(fam, skeleton, ch), np.ones(2))
        grid = [(h,) for h in np.linspace(0.0, 1.2, 5)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            surface(ws, grid, no_rows(ws), np.zeros((1, 1)), q=0.0)
            surface(ws, grid, no_rows(ws), np.zeros((1, 1)), q=0.0)
            bf_cv_hat(ws, (0.3,))
        assert [w.category for w in caught].count(DegenerateDesignWarning) == 1

    def test_terms_rows_match_one_point_terms(self, small_family):
        # a point's terms C_s e, put back in draw order, are its terms from
        # the family's log_weights: the toy's exactly, one line a point with
        # C = 1, and BLVS's to rounding
        for ws, grid, rel in ((toy_study((300, 300, 300), seed0=29)[0],
                               [(h,) for h in np.linspace(-1.0, 3.0, 6)], 0.0),
                              (blvs_study(small_family, (150, 150, 150))[0], LINES, 1e-13)):
            fam = ws.W.family
            H = fam.validate_grid(grid)
            cell = np.repeat(np.arange(len(ws.cells)), ws.cell_sizes)
            E = np.empty((1, 1, ws.n))
            for rows, log_e, log_c in fam.lines(H, ws.W.stats):
                C, shift, *_ = _pass(ws, log_e[None], log_c, np.zeros(len(rows), dtype=int),
                                     np.empty((0, ws.n)), E)
                for h, c, s in zip(H[rows], C, shift):
                    u = np.empty(ws.n)
                    u[ws.order] = c[cell] * E[0, 0]
                    want, s1 = point_terms(ws, h)
                    np.testing.assert_allclose(u, want, rtol=rel, atol=0.0)
                    assert s == pytest.approx(s1, rel=rel, abs=rel)


class TestWeightDiagnostics:
    def test_against_direct_formulas(self):
        ws, sigma = toy_study((500, 500, 500), seed0=31)
        grid = [(h,) for h in np.linspace(-0.5, 2.5, 9)]
        surf = surface(ws, grid, no_rows(ws), sigma, q=0.5)
        for h, ess, share in zip(surf.h, surf.ess, surf.max_weight_share):
            u, _ = point_terms(ws, h)
            assert ess == pytest.approx(u.sum() ** 2 / np.sum(u * u), rel=1e-12)
            assert share == pytest.approx(u.max() / u.sum(), rel=1e-12)
            assert 1.0 <= ess <= ws.n
            assert 0.0 < share <= 1.0

    def test_ess_falls_outside_the_skeleton_hull(self):
        ws, sigma = toy_study((500, 500, 500), seed0=37)
        surf = surface(ws, [(1.0,), (6.0,)], no_rows(ws), sigma, q=0.5)
        (ess_in, ess_out), (share_in, share_out) = surf.ess, surf.max_weight_share
        assert ess_out < 0.1 * ess_in
        assert share_out > 10 * share_in
