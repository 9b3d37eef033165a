import gc
import importlib.resources
import logging
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from priorsweep import blvs
from priorsweep.blvs import BlvsChain, BlvsFamily, Dataset, ModelEnumeration, ingest_csv
from priorsweep.errors import InvalidHyperparameterError, SingularDesignError
from priorsweep.families import ChainSpec
from priorsweep.variance import spectral_lrv

from conftest import synthetic_dataset


class TestIngest:
    def test_uscrime_shape(self, uscrime_path):
        ds = ingest_csv(uscrime_path, "y", ["S"])
        assert ds.m == 47 and ds.q == 15
        assert ds.names[1] == "S" and not ds.log_mask[1]

    def test_binary_column_passthrough(self, uscrime_path):
        ds = ingest_csv(uscrime_path, "y", ["S"])
        s = ds.X[:, ds.names.index("S")]
        assert set(np.unique(s)) == {0.0, 1.0}
        # everything else is on the log scale, including the response
        assert ds.y.max() < 10.0
        assert np.all(ds.X[:, ds.names.index("Age")] > 4.0)

    def test_nonpositive_value_under_log(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,a,b\n1.0,2.0,1\n2.0,0.0,0\n3.0,1.0,1\n")
        with pytest.raises(ValueError, match="non-positive"):
            ingest_csv(p, "y", ["b"])

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,a\n1.0,2.0\n")
        with pytest.raises(ValueError, match="missing column"):
            ingest_csv(p, "y", ["nope"])

    def test_parse_failure(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,a\n1.0,x\n")
        with pytest.raises(ValueError, match="could not parse"):
            ingest_csv(p, "y")


class TestLogMarginal:
    def test_matches_two_dimensional_quadrature(self):
        # m=8, q=2; single-predictor model checked against numeric
        # integration over (beta, sigma) with beta0 integrated analytically
        rng = np.random.default_rng(5)
        m = 8
        X = rng.normal(size=(m, 2))
        y = 1.0 + 0.8 * X[:, 0] + rng.normal(scale=0.6, size=m)
        ds = Dataset(y=y, X=X, names=["a", "b"], log_mask=np.zeros(2, bool))
        fam = BlvsFamily(ds)
        g = 6.0
        yc = y - y.mean()
        xc = X[:, 0] - X[:, 0].mean()
        gram = xc @ xc

        def integrand(beta, sigma):
            resid = yc - xc * beta
            loglik = -0.5 * (m - 1) * math.log(2 * math.pi * sigma**2) \
                - 0.5 * math.log(m) - 0.5 * resid @ resid / sigma**2
            logprior = -0.5 * math.log(2 * math.pi * g * sigma**2 / gram) \
                - 0.5 * beta**2 * gram / (g * sigma**2)
            return math.exp(loglik + logprior) * 2.0 / sigma  # d sigma^2/sigma^2 = 2 dsigma/sigma

        def null_integrand(sigma):
            loglik = -0.5 * (m - 1) * math.log(2 * math.pi * sigma**2) \
                - 0.5 * math.log(m) - 0.5 * yc @ yc / sigma**2
            return math.exp(loglik) * 2.0 / sigma

        num, _ = dblquad(integrand, 0.05, 30.0, -8.0, 8.0)
        den, _ = quad(null_integrand, 0.05, 30.0, limit=300)
        gamma = np.array([True, False])
        got = fam.log_marginal_of_model(gamma, g) - fam.log_marginal_of_model(
            np.zeros(2, bool), g)
        assert got == pytest.approx(math.log(num / den), abs=5e-6)

    def test_closed_form_ratio_formula(self, small_family):
        fam = small_family
        g = 11.0
        gamma = np.array([True, False, True, False, False])
        idx = np.flatnonzero(gamma)
        Xc = fam._Xc[:, idx]
        beta_ls, *_ = np.linalg.lstsq(Xc, fam._yc, rcond=None)
        r2 = 1 - ((fam._yc - Xc @ beta_ls) ** 2).sum() / fam._tss
        want = 0.5 * (fam.m - 1 - 2) * math.log1p(g) \
            - 0.5 * (fam.m - 1) * math.log1p(g * (1 - r2))
        got = fam.log_marginal_of_model(gamma, g) \
            - fam.log_marginal_of_model(np.zeros(5, bool), g)
        assert got == pytest.approx(want, abs=1e-10)

    def test_g_to_zero_ratio_one(self, small_family):
        fam = small_family
        g = 1e-14
        base = fam.log_marginal_of_model(np.zeros(5, bool), g)
        for code in range(1, 32):
            gamma = np.array([(code >> i) & 1 for i in range(5)], dtype=bool)
            assert fam.log_marginal_of_model(gamma, g) - base == pytest.approx(0.0, abs=1e-10)

    def test_duplicate_column_singular(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        X = np.column_stack([X, X[:, 0]])
        ds = Dataset(y=rng.normal(size=20), X=X, names=["a", "b", "a2"],
                     log_mask=np.zeros(3, bool))
        fam = BlvsFamily(ds)
        with pytest.raises(SingularDesignError):
            fam.log_marginal_of_model(np.array([True, False, True]), 5.0)

    def test_model_too_large(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 3))
        ds = Dataset(y=rng.normal(size=4), X=X, names=list("abc"),
                     log_mask=np.zeros(3, bool))
        fam = BlvsFamily(ds)
        with pytest.raises(SingularDesignError, match="too large"):
            fam.log_marginal_of_model(np.ones(3, bool), 5.0)


class TestEnumeration:
    def test_brute_force_cross_check(self, small_family):
        fam = small_family
        enum = fam.enumeration()
        h = (0.4, 9.0)
        # independent direct computation of all 2^5 model weights
        lw = np.empty(32)
        for code in range(32):
            gamma = np.array([(code >> i) & 1 for i in range(5)], dtype=bool)
            idx = np.flatnonzero(gamma)
            if idx.size:
                Xc = fam._Xc[:, idx]
                beta_ls, *_ = np.linalg.lstsq(Xc, fam._yc, rcond=None)
                r2 = 1 - ((fam._yc - Xc @ beta_ls) ** 2).sum() / fam._tss
            else:
                r2 = 0.0
            lw[code] = idx.size * math.log(0.4) + (5 - idx.size) * math.log(0.6) \
                + 0.5 * (fam.m - 1 - idx.size) * math.log1p(9.0) \
                - 0.5 * (fam.m - 1) * math.log1p(9.0 * (1 - r2))
        probs = np.exp(lw - logsumexp(lw))
        want_incl = np.array([probs[[(c >> i) & 1 == 1 for c in range(32)]].sum()
                              for i in range(5)])
        np.testing.assert_allclose(enum.inclusion_probs(h), want_incl, atol=1e-12)
        np.testing.assert_allclose(enum.model_probs(h), probs, atol=1e-12)

    def test_normalization(self, small_family):
        probs = small_family.enumeration().model_probs((0.3, 20.0))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_w_near_one_includes_everything(self, small_family):
        incl = small_family.enumeration().inclusion_probs((1 - 1e-12, 10.0))
        assert np.all(incl > 1 - 1e-6)

    def test_exact_bf_identity_and_cocycle(self, small_family):
        enum = small_family.enumeration()
        assert enum.exact_bf((0.5, 10.0), (0.5, 10.0)) == 1.0
        h1, h2, h3 = (0.3, 5.0), (0.6, 20.0), (0.45, 60.0)
        assert enum.exact_bf(h1, h2) * enum.exact_bf(h2, h3) == pytest.approx(
            enum.exact_bf(h1, h3), rel=1e-12)

    def test_q_guard(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 26))
        ds = Dataset(y=rng.normal(size=40), X=X,
                     names=[f"c{i}" for i in range(26)],
                     log_mask=np.zeros(26, bool))
        with pytest.raises(ValueError, match="q <= 25"):
            ModelEnumeration(BlvsFamily(ds))


    @pytest.mark.parametrize("exact_fit", [False, True])
    def test_batched_fits_match_per_model_path(self, exact_fit):
        # an exact fit sends every model holding x0 and x1 through the
        # near-saturated recompute
        ds = synthetic_dataset(m=30, q=10, seed=17, strong=(0, 1),
                               noise=0.0 if exact_fit else 0.7)
        fam = BlvsFamily(ds)
        enum = ModelEnumeration(fam)
        codes = range(1 << fam.q)
        per_model = np.array([fam._rss_ratio(fam._columns(c)) for c in codes])
        # the batched build and the per-model path agree bit for bit
        assert enum.rss_ratio.tobytes() == per_model.tobytes()
        bits = np.array([[(c >> i) & 1 for i in range(fam.q)] for c in codes], dtype=bool)
        for h in [(0.2, 4.0), (0.5, 15.0), (0.9, 100.0)]:
            lw = np.array([math.log(h[0]) * b.sum() + math.log1p(-h[0]) * (fam.q - b.sum())
                           + fam.log_marginal_of_model(b, h[1]) for b in bits])
            want = np.array([math.exp(logsumexp(lw[bits[:, i]]) - logsumexp(lw))
                             for i in range(fam.q)])
            np.testing.assert_allclose(enum.inclusion_probs(h), want, rtol=1e-12, atol=1e-12)
            assert enum.log_marginal(h) == pytest.approx(logsumexp(lw), rel=1e-12)

    def test_singular_design_names_the_model(self):
        with pytest.raises(SingularDesignError, match=r"\['a', 'a2'\]"):
            duplicate_column_family().enumeration()

    def test_family_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            fam = BlvsFamily(synthetic_dataset(q=4))
            enum = fam.enumeration()
            assert enum.family is fam
            ref = weakref.ref(fam)
            del fam
            assert ref() is None
            with pytest.raises(ReferenceError):
                enum.log_marginal((0.5, 10.0))
        finally:
            gc.enable()


def duplicate_column_family():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    X = np.column_stack([X, X[:, 0]])
    ds = Dataset(y=rng.normal(size=20), X=X, names=["a", "b", "a2"],
                 log_mask=np.zeros(3, bool))
    return BlvsFamily(ds)


def collinear_family(q=10):
    """Synthetic data whose last predictor repeats x0: every model holding
    both is singular, and most blocks of the table build hold one."""
    ds = synthetic_dataset(m=40, q=q - 1, seed=6, strong=(0, 1))
    ds = Dataset(y=ds.y, X=np.column_stack([ds.X, ds.X[:, 0]]),
                 names=ds.names + [f"x{q - 1}"], log_mask=np.zeros(q, bool))
    return BlvsFamily(ds)


class TestBlvsChain:
    def _arrays(self):
        gamma = np.array([[True, False, True], [False, False, False]])
        beta = np.array([[0.5, 0.0, -1.5], [0.0, 0.0, 0.0]])
        return dict(gamma=gamma, sigma=np.array([1.0, 2.0]),
                    beta0=np.array([0.1, -0.2]), beta=beta)

    def test_valid_chain(self):
        chain = BlvsChain(**self._arrays())
        assert len(chain) == 2 and chain.gamma.dtype == bool

    @pytest.mark.parametrize("bad_sigma", [0.0, -1.0])
    def test_rejects_nonpositive_sigma(self, bad_sigma):
        arrays = self._arrays()
        arrays["sigma"][1] = bad_sigma
        with pytest.raises(ValueError, match="sigma must be positive"):
            BlvsChain(**arrays)

    def test_rejects_nonzero_beta_off_gamma(self):
        arrays = self._arrays()
        arrays["beta"][0, 1] = 1e-300
        with pytest.raises(ValueError, match="beta must be 0"):
            BlvsChain(**arrays)

    def test_rejects_mismatched_shapes(self):
        arrays = self._arrays()
        arrays["beta"] = arrays["beta"][:, :2]
        with pytest.raises(ValueError):
            BlvsChain(**arrays)
        with pytest.raises(ValueError):
            BlvsChain(**{**self._arrays(), "sigma": np.ones(3)})


def one_row(chain, p):
    return BlvsChain(*(getattr(chain, f.name)[p:p + 1] for f in fields(BlvsChain)))


class TestPriorWeight:
    def _random_state(self, fam, rng, qon=2):
        """A one-row chain with qon predictors included."""
        gamma = np.zeros(fam.q, dtype=bool)
        gamma[rng.choice(fam.q, size=qon, replace=False)] = True
        beta = np.zeros(fam.q)
        beta[gamma] = rng.normal(size=qon)
        return BlvsChain(gamma=gamma[None], sigma=[float(rng.uniform(0.5, 2.0))],
                         beta0=[float(rng.normal())], beta=beta[None])

    def test_difference_matches_dense_densities(self):
        # m=10, q=3 random instance; compare against explicit multivariate
        # normal densities plus Bernoulli mass ratios
        rng = np.random.default_rng(21)
        ds = synthetic_dataset(m=10, q=3, seed=9, strong=(0,))
        fam = BlvsFamily(ds)
        for _ in range(20):
            st = self._random_state(fam, rng, qon=int(rng.integers(0, 4)))
            h1, h2 = (0.35, 4.0), (0.7, 19.0)
            got = fam.log_prior_weight(h1, st) - fam.log_prior_weight(h2, st)
            idx = np.flatnonzero(st.gamma[0])
            qg = idx.size
            want = qg * math.log(h1[0] / h2[0]) \
                + (fam.q - qg) * math.log((1 - h1[0]) / (1 - h2[0]))
            if qg:
                gram_inv = np.linalg.inv(fam._G[np.ix_(idx, idx)])
                for g, sign in ((h1[1], 1.0), (h2[1], -1.0)):
                    want += sign * multivariate_normal.logpdf(
                        st.beta[0, idx], mean=np.zeros(qg),
                        cov=g * st.sigma[0]**2 * gram_inv)
            assert got == pytest.approx(want, abs=1e-10)

    def test_same_h_zero(self, small_family):
        rng = np.random.default_rng(2)
        st = self._random_state(small_family, rng)
        h = (0.5, 8.0)
        assert small_family.log_prior_weight(h, st) \
            == small_family.log_prior_weight(h, st)

    def test_empty_model_reduces_to_bernoulli(self, small_family):
        st = BlvsChain(gamma=np.zeros((1, 5), bool), sigma=[1.0], beta0=[0.0],
                       beta=np.zeros((1, 5)))
        h1, h2 = (0.2, 5.0), (0.8, 50.0)
        got = small_family.log_prior_weight(h1, st) \
            - small_family.log_prior_weight(h2, st)
        want = 5 * math.log((1 - h1[0]) / (1 - h2[0]))
        assert got == pytest.approx(want, abs=1e-12)

    def test_path_additivity(self, small_family):
        rng = np.random.default_rng(8)
        st = self._random_state(small_family, rng)
        hs = [(0.2, 3.0), (0.55, 21.0), (0.9, 140.0)]
        w = [small_family.log_prior_weight(h, st) for h in hs]
        assert (w[0] - w[1]) + (w[1] - w[2]) == pytest.approx(w[0] - w[2],
                                                              abs=1e-12)

    def test_vectorized_matches_scalar(self, small_family):
        rng = np.random.default_rng(31)
        states = [self._random_state(small_family, rng, qon=j % 3) for j in range(6)]
        chain = small_family.concat_chains(states)
        stats = small_family.weight_stats(chain)
        h = (0.62, 33.0)
        vec = small_family.log_weights(h, stats)
        scal = [small_family.log_prior_weight(h, one_row(chain, p))
                for p in range(len(chain))]
        np.testing.assert_allclose(vec, scal, atol=1e-10)

    def test_domain_checks(self, small_family):
        for bad in [(0.0, 5.0), (1.0, 5.0), (0.5, 0.0), (0.5, -2.0)]:
            with pytest.raises(InvalidHyperparameterError):
                small_family.validate_h(bad)


class TestGibbs:
    def test_sweep_kernel_leaves_enumerated_posterior_invariant(self, tiny_family):
        # exact stationarity of the 2^3-state sweep kernel (beta and sigma
        # marginalized out)
        fam = tiny_family
        h = (0.45, 13.0)
        n_states = 1 << fam.q
        masks = [np.array([(c >> i) & 1 for i in range(fam.q)], dtype=bool)
                 for c in range(n_states)]
        kernel = np.eye(n_states)
        for i in range(fam.q):
            K = np.zeros((n_states, n_states))
            for c, mask in enumerate(masks):
                p1 = fam.conditional_inclusion_prob(mask, i, h)
                on = c | (1 << i)
                off = c & ~(1 << i)
                K[c, on] += p1
                K[c, off] += 1 - p1
            kernel = kernel @ K
        pi = fam.enumeration().model_probs(h)
        np.testing.assert_allclose(pi @ kernel, pi, atol=1e-12)

    def test_long_run_inclusion_matches_enumeration(self, small_family):
        fam = small_family
        h = (0.5, 16.0)
        chain = fam.gibbs_run(ChainSpec(h=h, length=6000, burn_in=300, seed=42))
        incl = chain.gamma.astype(float)
        want = fam.enumeration().inclusion_probs(h)
        for j in range(fam.q):
            se = math.sqrt(max(spectral_lrv(incl[:, j]), 1e-12) / len(chain))
            assert abs(incl[:, j].mean() - want[j]) < 3.0 * se + 1e-4, \
                f"variable {j}: {incl[:, j].mean()} vs {want[j]} (se {se})"

    def test_sigma2_consistent_across_seeds(self, small_family):
        fam = small_family
        h = (0.5, 16.0)
        means, ses = [], []
        for seed in (101, 505):
            chain = fam.gibbs_run(ChainSpec(h=h, length=4000, seed=seed))
            s2 = chain.sigma**2
            means.append(s2.mean())
            ses.append(math.sqrt(spectral_lrv(s2) / len(s2)))
        assert abs(means[0] - means[1]) < 4.0 * math.hypot(*ses)

    def test_w_near_one_absorbs(self, small_family):
        chain = small_family.gibbs_run(
            ChainSpec(h=(1 - 1e-12, 5.0), length=50, burn_in=50, seed=7))
        assert chain.gamma.all()

    def test_determinism(self, small_family):
        spec = ChainSpec(h=(0.5, 10.0), length=50, seed=11)
        c1 = small_family.gibbs_run(spec)
        c2 = small_family.gibbs_run(spec)
        assert np.array_equal(c1.gamma, c2.gamma) and np.array_equal(c1.sigma, c2.sigma) \
            and np.array_equal(c1.beta0, c2.beta0) and np.array_equal(c1.beta, c2.beta)

    def test_beta_dimension_tracks_gamma(self, small_family):
        chain = small_family.gibbs_run(ChainSpec(h=(0.5, 10.0), length=100, seed=3))
        assert len(chain) == 100
        assert np.array_equal(chain.beta != 0.0, chain.gamma)
        assert np.all(chain.sigma > 0)

    def test_exact_fit_chain(self):
        # y is exactly 0.4 + 1.5 x0 + 1.5 x1 (the exact_fit data of
        # test_batched_fits_match_per_model_path): the chain moves onto the
        # models holding x0 and x1, whose 1 - R^2 comes from the residual
        # vector (a bordered factor alone would leave about 1e-16), and the
        # (sigma, beta) draw stays finite
        fam = BlvsFamily(synthetic_dataset(m=30, q=10, seed=17, strong=(0, 1), noise=0.0))
        chain = fam.gibbs_run(ChainSpec(h=(0.5, 10.0), length=50, burn_in=10, seed=4))
        assert chain.gamma[:, :2].all()
        codes = {sum(1 << int(j) for j in np.flatnonzero(row)) for row in chain.gamma}
        assert len(codes) > 1
        table = fam.model_table()
        assert all(table[code] < 1e-20 for code in codes)
        assert np.all(np.isfinite(chain.sigma)) and np.all(chain.sigma > 0)
        assert np.all(np.isfinite(chain.beta))

    def test_us_crime_chain_codes_are_pinned(self):
        # the model codes this seed gave before the (sigma, beta) draw was
        # batched after the sweeps: the random stream is unchanged
        want = [12431, 30477, 23949, 5967, 5613, 5933, 13357, 5135, 4653, 7245,
                6925, 5133, 7469, 7567, 30125, 7197, 6679, 6153, 5405, 5175,
                7345, 13367, 5653, 5845, 5269, 6195, 12848, 12311, 5495, 5685,
                21389, 16335, 5005, 20748, 21165, 21519, 24461, 7453, 4365, 5183]
        chain = crime_family().gibbs_run(
            ChainSpec(h=(0.6, 50.0), length=40, burn_in=10, seed=2024))
        assert [sum(1 << int(j) for j in np.flatnonzero(row)) for row in chain.gamma] == want

    def test_normal_is_loc_plus_scale_times_standard_normal(self):
        # the sampler draws beta0 as ybar + sd z from one standard normal,
        # where it once called rng.normal(ybar, sd): the two agree bit for bit
        for seed in range(100):
            loc, sd = 10.0 * math.sin(seed), 0.01 + math.cos(seed) ** 2
            assert np.random.default_rng(seed).normal(loc, sd) \
                == loc + sd * np.random.default_rng(seed).standard_normal()

    def test_burn_in_sweeps_advance_the_stream(self):
        fam = crime_family()
        b, n = 25, 40
        short = fam.gibbs_run(ChainSpec(h=(0.6, 50.0), length=n, burn_in=b, seed=3))
        full = fam.gibbs_run(ChainSpec(h=(0.6, 50.0), length=b + n, seed=3))
        assert np.array_equal(short.gamma, full.gamma[b:])
        # the draws are batched over other rows, so they may differ in
        # summation order
        for name in ("sigma", "beta0", "beta"):
            got, want = getattr(short, name), getattr(full, name)[b:]
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(axis=0))


def chain_values(chain):
    return [getattr(chain, f.name).tobytes() for f in fields(BlvsChain)]


def table_paths(monkeypatch):
    """Yield "table", then "lazy" with TABLE_MAX_Q lowered below every
    family's q, so the sampler fits models one at a time."""
    yield "table"
    monkeypatch.setattr(blvs, "TABLE_MAX_Q", 0)
    yield "lazy"


def crime_family():
    return BlvsFamily(ingest_csv(
        importlib.resources.files("priorsweep") / "data" / "uscrime.csv", "y", ["S"]))


class TestModelTable:
    def test_cold_table_equals_prewarmed_table(self, uscrime_path, monkeypatch):
        ds = ingest_csv(uscrime_path, "y", ["S"])
        spec = ChainSpec(h=(0.5, 15.0), length=150, burn_in=20, seed=5)
        for path in table_paths(monkeypatch):
            cold = BlvsFamily(ds)
            warm = BlvsFamily(ds)
            for seed, h in enumerate([(0.3, 100.0), (0.8, 225.0)]):
                warm.gibbs_run(ChainSpec(h=h, length=150, burn_in=20, seed=seed))
            fitted = warm.models_fitted
            assert chain_values(cold.gibbs_run(spec)) == chain_values(warm.gibbs_run(spec))
            assert 0 < fitted <= warm.models_fitted
            assert (fitted == 1 << warm.q) == (path == "table")

    @pytest.mark.parametrize("make_family", [
        crime_family,
        duplicate_column_family,
        collinear_family,
        lambda: BlvsFamily(synthetic_dataset(m=40, q=blvs.TABLE_MAX_Q + 1, seed=5)),
    ], ids=["uscrime", "duplicate_column", "collinear", "q_above_limit"])
    def test_full_table_and_lazy_fits_give_identical_chains(self, make_family, monkeypatch):
        fam = make_family()
        specs = [ChainSpec(h=(w, g), length=40, burn_in=10, seed=s)
                 for s, (w, g) in enumerate([(0.5, 15.0), (0.3, 100.0), (0.8, 4.0)])]
        monkeypatch.setattr(blvs, "TABLE_MAX_Q", fam.q)
        full = [chain_values(fam.gibbs_run(sp)) for sp in specs]
        assert fam._table is not None and not fam._rssr
        monkeypatch.setattr(blvs, "TABLE_MAX_Q", fam.q - 1)
        lazy = make_family()
        assert [chain_values(lazy.gibbs_run(sp)) for sp in specs] == full
        assert lazy._table is None and 0 < lazy.models_fitted <= 1 << fam.q

    def test_table_log_marginal_equals_log_marginal_of_model(self, uscrime_path):
        # the sampler's array at g, built by blocks, holds the bits of the
        # one-model path
        fam = BlvsFamily(ingest_csv(uscrime_path, "y", ["S"]))
        g = 50.0
        table = fam.model_table()
        assert table.shape == (1 << fam.q,) and fam.models_fitted == table.size
        assert not np.isnan(table).any()
        store = fam._log_marginal_store(g)
        assert fam._log_marginal_store(g) is store and not np.isnan(store).any()
        rng = np.random.default_rng(9)
        for code in rng.choice(table.size, size=500, replace=False).tolist():
            gamma = np.array([(code >> i) & 1 for i in range(fam.q)], dtype=bool)
            assert store[code] == fam.log_marginal_of_model(gamma, g)

    def test_codes_beyond_int64(self):
        # model codes are Python integers, so q may exceed 63
        fam = BlvsFamily(synthetic_dataset(m=80, q=70, seed=6, strong=(0, 69)))
        chain = fam.gibbs_run(ChainSpec(h=(0.05, 20.0), length=15, burn_in=5, seed=1))
        assert chain.gamma[:, 69].any() and np.array_equal(chain.beta != 0.0, chain.gamma)
        assert fam._table is None and max(fam._rssr) >= 1 << 63

    def test_too_large_models_hold_nan(self):
        # m = 8: models of more than m - 2 = 6 predictors are not fitted
        fam = BlvsFamily(synthetic_dataset(m=8, q=7, seed=2, strong=(0,)))
        table = fam.model_table()
        sizes = np.array([code.bit_count() for code in range(table.size)])
        assert np.array_equal(np.isnan(table), sizes > 6)
        assert fam._table_rss_ratio(table.size - 1) is None
        with pytest.raises(SingularDesignError, match="7 predictors too large"):
            fam.enumeration()

    def test_collinear_build_fits_no_model_on_its_own(self):
        fam = collinear_family()
        factors, calls = fam._factors, []
        fam._factors = lambda cols: calls.append(cols.shape) or factors(cols)
        table = fam.model_table()
        # one factor call per block, and no refits: the models of a failed
        # block are left to whoever reads them
        blocks = [(min(blvs.FIT_BLOCK, n - start), size + 1)
                  for size, n in ((s, math.comb(fam.q, s)) for s in range(1, fam.q + 1))
                  for start in range(0, n, blvs.FIT_BLOCK)]
        assert calls == blocks
        both = 1 | 1 << (fam.q - 1)
        assert table[both] == blvs.UNFITTED
        assert fam._table_rss_ratio(both) is None and np.isnan(table[both])
        assert fam.models_fitted == table.size - np.count_nonzero(table == blvs.UNFITTED)
        # the enumeration fits models one at a time in order of size and
        # raises at the first singular one, before any larger model
        calls.clear()
        with pytest.raises(SingularDesignError, match=r"\['x0', 'x9'\]"):
            fam.enumeration()
        assert calls and max(s for _, s in calls) == 3

    def test_table_needs_no_numpy_2(self, monkeypatch):
        # the package supports numpy 1.24, which has no bitwise_count
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        fam = BlvsFamily(synthetic_dataset(m=30, q=6, seed=4))
        enum = fam.enumeration()
        sizes = [code.bit_count() for code in range(1 << fam.q)]
        assert enum.q_gamma.tolist() == sizes
        assert not np.isnan(fam.model_table()).any() and fam.models_fitted == 1 << fam.q

    def test_table_build_allocates_no_per_model_bit_matrix(self):
        # the table and its block temporaries, not (2^q, q) int64 arrays
        fam = BlvsFamily(synthetic_dataset(m=40, q=15, seed=3))
        tracemalloc.start()
        try:
            fam.model_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (8 << fam.q)

    def test_log_marginal_store_keeps_eight_bytes_per_code(self):
        # one float64 per code and small block temporaries, not a list of
        # Python floats (32 bytes per code)
        fam = BlvsFamily(synthetic_dataset(m=40, q=15, seed=3))
        fam.model_table()
        tracemalloc.start()
        try:
            for g in (4.0, 15.0, 100.0, 225.0):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fam._log_marginal_store(g)
                after, peak = tracemalloc.get_traced_memory()
                assert peak - before <= 2 * 8 << fam.q
                assert after - before <= (8 << fam.q) + 4096
        finally:
            tracemalloc.stop()

    def test_duplicate_column_warns_once_per_chain(self, caplog):
        fam = duplicate_column_family()
        # reference draws of the sampler that refit every model on every sweep
        want_codes = [[0, 4, 0, 2, 0, 1, 0, 4, 0, 1, 0, 4],
                      [0, 1, 0, 0, 1, 0, 6, 0, 2, 2, 4, 2]]
        want_sigma = [[0.929045037312, 1.09213558988, 0.877967189506, 0.904638850345],
                      [1.21609112199, 0.800466765174, 0.867330744703, 0.938548037436]]
        with caplog.at_level(logging.WARNING, logger="priorsweep.blvs"):
            for seed, codes, sigma in zip((1, 2), want_codes, want_sigma):
                caplog.clear()
                chain = fam.gibbs_run(ChainSpec(h=(0.5, 10.0), length=12, burn_in=3,
                                                seed=seed))
                singular = [r for r in caplog.records if "singular candidate" in r.getMessage()]
                assert len(singular) == 1
                assert [sum(1 << j for j in np.flatnonzero(row)) for row in chain.gamma] == codes
                np.testing.assert_allclose(chain.sigma[:4], sigma, rtol=1e-10)
        assert np.isnan(fam.model_table()[5])      # columns a and a2
        assert fam._table_rss_ratio(5) is None

    @pytest.mark.parametrize("make_family", [
        crime_family,
        lambda: BlvsFamily(synthetic_dataset(m=30, q=10, seed=17, strong=(0, 1), noise=0.0)),
    ], ids=["uscrime", "exact_fit"])
    def test_batched_draw_matches_per_row_reference(self, make_family):
        fam = make_family()
        # no burn-in, so every sweep's variates belong to a kept row
        spec = ChainSpec(h=(0.6, 15.0), length=300, seed=6)
        fam.gibbs_run(spec)     # the log marginals this chain reads, filled
        factors, calls = fam._factors, []

        def counted(cols):
            out = factors(cols)
            calls.append((cols.shape, out is None))
            return out

        fam._factors = counted
        chain = fam.gibbs_run(spec)
        codes = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in chain.gamma]
        # one factor call per model size, over the chain's distinct models of
        # that size; a block that holds an exact fit gives None and is fitted
        # one model at a time
        left = iter(calls)
        for size in sorted({c.bit_count() for c in codes}):
            n_models = len({c for c in codes if c.bit_count() == size})
            shape, failed = next(left)
            assert shape == (n_models, size + 1)
            if failed:
                assert n_models > 1
                assert [next(left) for _ in range(n_models)] \
                    == [((1, size + 1), False)] * n_models
        assert next(left, None) is None
        assert any(failed for _, failed in calls) == (fam.q == 10)
        # replay the stream: the start's uniforms, then per sweep q
        # uniforms, a gamma variate, one normal per included predictor and
        # one for beta0
        rng = np.random.default_rng(spec.seed)
        rng.random(fam.q)
        shrink = spec.h[1] / (1.0 + spec.h[1])
        n = len(chain)
        sigma, beta0, beta = np.empty(n), np.empty(n), np.zeros((n, fam.q))
        for r in range(n):
            rng.random(fam.q)
            idx = np.flatnonzero(chain.gamma[r])
            L = np.linalg.cholesky(fam._G[np.ix_(idx, idx)])
            half = np.linalg.solve(L, fam._G[idx, fam.q])
            sigma2 = 0.5 * (fam._tss - shrink * half @ half) \
                / rng.standard_gamma(0.5 * (fam.m - 1))
            z = rng.standard_normal(idx.size)
            beta[r, idx] = np.linalg.inv(L).T \
                @ (shrink * half + math.sqrt(sigma2 * shrink) * z)
            sigma[r] = math.sqrt(sigma2)
            beta0[r] = fam._ybar + math.sqrt(sigma2 / fam.m) * rng.standard_normal()
        np.testing.assert_allclose(chain.sigma, sigma, rtol=1e-12)
        np.testing.assert_allclose(chain.beta0, beta0, rtol=1e-12)
        np.testing.assert_allclose(chain.beta, beta, rtol=1e-12,
                                   atol=1e-12 * np.abs(beta).max())

    def test_threads_filling_one_table_match_serial_chains(self, uscrime_path, monkeypatch):
        ds = ingest_csv(uscrime_path, "y", ["S"])
        specs = [ChainSpec(h=(w, g), length=60, burn_in=10, seed=s)
                 for s, (w, g) in enumerate([(0.5, 15.0), (0.3, 50.0), (0.6, 100.0),
                                             (0.8, 225.0), (0.4, 20.0), (0.7, 70.0)])]
        for path in table_paths(monkeypatch):
            serial = BlvsFamily(ds)
            want = [chain_values(serial.gibbs_run(sp)) for sp in specs]
            # six threads start chains on a family with no table yet
            shared = BlvsFamily(ds)
            build, builds = shared._build_table, []
            shared._build_table = lambda: builds.append(1) or build()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=len(specs)) as ex:
                    futures = [ex.submit(shared.gibbs_run, sp) for sp in specs]
                    got = [chain_values(f.result(timeout=120)) for f in futures]
            finally:
                sys.setswitchinterval(interval)
            assert got == want
            assert shared._rssr == serial._rssr
            # the log marginals the chains read, one store per g
            assert shared._lms.keys() == serial._lms.keys()
            for g, store in serial._lms.items():
                if path == "table":
                    assert shared._lms[g].tobytes() == store.tobytes()
                else:
                    assert shared._lms[g] == store
            assert len(builds) == (path == "table")
            if path == "table":
                assert shared._table.tobytes() == serial._table.tobytes()
