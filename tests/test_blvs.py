import gc
import importlib.resources
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import logsumexp

from priorsweep import blvs
from priorsweep.blvs import BlvsFamily, Dataset, ModelEnumeration, ingest_csv
from priorsweep.config import load_config
from priorsweep.errors import ConfigError, InvalidHyperparameterError, SingularDesignError
from priorsweep.families import ChainSpec
from priorsweep.ratio import build_log_weight_matrix
from priorsweep.surface import Stage2Workspace, surface

from conftest import synthetic_dataset
from per_point import spectral_lrv


class TestIngest:
    def test_uscrime_shape(self, uscrime_path):
        ds = ingest_csv(uscrime_path, "y", ["S"])
        assert ds.m == 47 and ds.q == 15
        assert ds.names[1] == "S"

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

    # the Dataset makes every check of the data, so the error names the file
    @pytest.mark.parametrize("text, message", [
        ("y\n1\n2\n3\n", "no predictor columns"),
        ("y,a\n2,1\n2,3\n2,4\n", "response is constant"),
    ], ids=["response-only", "constant-response"])
    def test_unusable_data_names_the_file(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            ingest_csv(p, "y")
        assert str(exc.value) == f"{p}: {message}"


class TestLogMarginal:
    def test_matches_two_dimensional_quadrature(self):
        # m=8, q=2; single-predictor model checked against numeric
        # integration over (beta, sigma) with beta0 integrated analytically
        rng = np.random.default_rng(5)
        m = 8
        X = rng.normal(size=(m, 2))
        y = 1.0 + 0.8 * X[:, 0] + rng.normal(scale=0.6, size=m)
        ds = Dataset(y=y, X=X, names=["a", "b"])
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
        ds = Dataset(y=rng.normal(size=20), X=X, names=["a", "b", "a2"])
        fam = BlvsFamily(ds)
        with pytest.raises(SingularDesignError):
            fam.log_marginal_of_model(np.array([True, False, True]), 5.0)

    def test_model_too_large(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 3))
        ds = Dataset(y=rng.normal(size=4), X=X, names=list("abc"))
        fam = BlvsFamily(ds)
        with pytest.raises(SingularDesignError, match="too large"):
            fam.log_marginal_of_model(np.ones(3, bool), 5.0)


class TestEnumeration:
    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_any_split_of_the_code_bits(self, q):
        # q = 1 leaves the low half of the codes' bits empty, q = 5 splits
        # them 3 + 2
        fam = BlvsFamily(synthetic_dataset(m=20, q=q, seed=q, strong=(0,)))
        enum = fam.enumeration()
        bits = np.array([[(c >> i) & 1 for i in range(q)] for c in range(1 << q)], dtype=bool)
        for h in W_ENDS_AND_MIDDLE:
            lw = log_weights(fam, bits, h)
            want = [math.exp(logsumexp(lw[bits[:, i]]) - logsumexp(lw)) for i in range(q)]
            np.testing.assert_allclose(enum.evaluate([h])[1][0], want, rtol=1e-12, atol=0)
            assert enum.log_marginal(h) == pytest.approx(logsumexp(lw), rel=1e-12)

    def test_brute_force_cross_check(self, small_family):
        fam = small_family
        enum = fam.enumeration()
        # independent direct computation of all 2^5 model fits
        r2 = np.empty(32)
        for code in range(32):
            gamma = np.array([(code >> i) & 1 for i in range(5)], dtype=bool)
            idx = np.flatnonzero(gamma)
            if idx.size:
                Xc = fam._Xc[:, idx]
                beta_ls, *_ = np.linalg.lstsq(Xc, fam._yc, rcond=None)
                r2[code] = 1 - ((fam._yc - Xc @ beta_ls) ** 2).sum() / fam._tss
            else:
                r2[code] = 0.0
        sizes = np.array([code.bit_count() for code in range(32)])
        for w, g in [(0.4, 9.0), *W_ENDS_AND_MIDDLE]:
            lw = sizes * math.log(w) + (5 - sizes) * math.log1p(-w) \
                + 0.5 * (fam.m - 1 - sizes) * math.log1p(g) \
                - 0.5 * (fam.m - 1) * np.log1p(g * (1 - r2))
            probs = np.exp(lw - logsumexp(lw))
            want_incl = np.array([math.exp(logsumexp(lw[[(c >> i) & 1 == 1 for c in range(32)]])
                                           - logsumexp(lw)) for i in range(5)])
            np.testing.assert_allclose(enum.evaluate([(w, g)])[1][0], want_incl,
                                       rtol=1e-12, atol=0)
            assert enum.log_marginal((w, g)) == pytest.approx(logsumexp(lw), rel=1e-12)
            np.testing.assert_allclose(model_probs(enum, (w, g)), probs, atol=1e-12)

    def test_normalization(self, small_family):
        # log m_h of the enumeration normalizes the model weights
        enum, h = small_family.enumeration(), (0.3, 20.0)
        bits = np.array([[(c >> i) & 1 for i in range(5)] for c in range(32)], dtype=bool)
        probs = np.exp(log_weights(small_family, bits, h) - enum.log_marginal(h))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_each_row_matches_the_point_evaluated_alone(self, small_family):
        # shared g, duplicate points and extreme w in one call
        enum = small_family.enumeration()
        points = [(0.3, 5.0), (0.6, 5.0), (0.3, 5.0), (1e-12, 5.0), (0.45, 60.0),
                  (1 - 1e-12, 5.0), (0.6, 5.0), (0.45, 60.0), (0.2, 60.0)]
        log_m, incl = enum.evaluate(points)
        for i, h in enumerate(points):
            alone_m, alone_incl = enum.evaluate([h])
            assert log_m[i].tobytes() == alone_m[0].tobytes(), h
            assert incl[i].tobytes() == alone_incl[0].tobytes(), h

    def test_w_near_one_includes_everything(self, small_family):
        incl = small_family.enumeration().evaluate([(1 - 1e-12, 10.0)])[1][0]
        assert np.all(incl > 1 - 1e-6)

    def test_exact_bf_identity_and_cocycle(self, small_family):
        enum = small_family.enumeration()
        for h in [(0.5, 10.0), *W_ENDS_AND_MIDDLE]:
            log_m = enum.evaluate([h, h])[0]
            assert math.exp(log_m[0] - log_m[1]) == 1.0
        log_m = enum.evaluate([(0.3, 5.0), (0.6, 20.0), (0.45, 60.0)])[0]
        bf = [[math.exp(a - b) for b in log_m] for a in log_m]
        assert bf[0][1] * bf[1][2] == pytest.approx(bf[0][2], rel=1e-12)

    def test_q_guard(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 26))
        ds = Dataset(y=rng.normal(size=40), X=X,
                     names=[f"c{i}" for i in range(26)])
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
        per_model = np.array([fam._fit(c) for c in codes])
        # the batched build and the one-model fit agree bit for bit
        assert enum.rss_ratio.tobytes() == per_model.tobytes()
        bits = np.array([[(c >> i) & 1 for i in range(fam.q)] for c in codes], dtype=bool)
        for h in [(0.2, 4.0), (0.5, 15.0), (0.9, 100.0), *W_ENDS_AND_MIDDLE]:
            lw = log_weights(fam, bits, h)
            want = np.array([math.exp(logsumexp(lw[bits[:, i]]) - logsumexp(lw))
                             for i in range(fam.q)])
            np.testing.assert_allclose(enum.evaluate([h])[1][0], want, rtol=1e-12, atol=0)
            assert enum.log_marginal(h) == pytest.approx(logsumexp(lw), rel=1e-12)

    def test_singular_design_names_the_model(self):
        with pytest.raises(SingularDesignError, match=r"\['a', 'a2'\]"):
            duplicate_column_family().enumeration()

    def test_family_is_freed_without_the_cycle_collector(self, monkeypatch):
        # the family caches its enumeration and its lazy stores, and the
        # stores refer back to it; with the enumeration kept, the family is
        # still freed, and the enumeration still answers alone
        monkeypatch.setattr(blvs, "TABLE_MAX_Q", 0)
        gc.disable()
        try:
            fam = BlvsFamily(synthetic_dataset(q=4))
            fam.sample_chains([ChainSpec(h=(0.5, 10.0), length=10, seed=1)])[0]
            assert fam._lms and fam._table is None
            enum = fam.enumeration()
            before = enum.log_marginal((0.5, 10.0))
            ref = weakref.ref(fam)
            del fam
            assert ref() is None
            assert enum.log_marginal((0.5, 10.0)) == before
        finally:
            gc.enable()

    def test_enumeration_outlives_its_family(self, small_family):
        # the family of the one expression is gone before log_marginal runs
        # (outside the assert, whose rewriting would keep it alive)
        got = BlvsFamily(synthetic_dataset()).enumeration().log_marginal((0.3, 20.0))
        assert got == small_family.enumeration().log_marginal((0.3, 20.0))


# w at both ends of (0, 1) and at 1/2, at two g
W_ENDS_AND_MIDDLE = [(w, g) for g in (4.0, 100.0) for w in (1e-12, 0.5, 1 - 1e-12)]


def log_weights(fam, bits, h):
    """log[prior(gamma) m(y | gamma, g)] of each model, one row of bits each,
    from the one-model path."""
    w, g = h
    return np.array([b.sum() * math.log(w) + (fam.q - b.sum()) * math.log1p(-w)
                     + fam.log_marginal_of_model(b, g) for b in bits])


def model_probs(enum, h):
    """P(gamma | y, h) of every model code, from the enumeration's table."""
    w, g = h
    sizes = enum.q_gamma.astype(float)
    lw = sizes * math.log(w) + (enum.q - sizes) * math.log1p(-w) \
        + blvs._log_marginal(enum.m, enum.q_gamma, enum.rss_ratio, g)
    return np.exp(lw - logsumexp(lw))


def duplicate_column_family():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    X = np.column_stack([X, X[:, 0]])
    ds = Dataset(y=rng.normal(size=20), X=X, names=["a", "b", "a2"])
    return BlvsFamily(ds)


def collinear_family(q=10):
    """Synthetic data whose last predictor repeats x0: every model holding
    both is singular, and most blocks of the table build hold one."""
    ds = synthetic_dataset(m=40, q=q - 1, seed=6, strong=(0, 1))
    ds = Dataset(y=ds.y, X=np.column_stack([ds.X, ds.X[:, 0]]),
                 names=ds.names + [f"x{q - 1}"])
    return BlvsFamily(ds)


class TestBlvsChain:
    def test_valid_chain(self, small_family):
        # a chain is the (n, q) bool array of its draws' models, and the
        # chains of a stage pool by np.concatenate
        specs = [ChainSpec(h=(0.4, 10.0), length=30, seed=1),
                 ChainSpec(h=(0.6, 50.0), length=20, burn_in=5, seed=2)]
        chains = small_family.sample_chains(specs)
        assert [c.shape for c in chains] == [(30, 5), (20, 5)]
        assert all(c.dtype == bool for c in chains)
        W = build_log_weight_matrix(small_family, [sp.h for sp in specs], chains)
        assert np.array_equal(W.samples, np.vstack(chains))
        assert np.array_equal(W.stats.q_gamma[W.which], W.samples.sum(axis=1))


def random_chain(fam, rng, n):
    """n draws of random models, of random sizes."""
    gamma = np.zeros((n, fam.q), dtype=bool)
    for row, size in zip(gamma, rng.integers(0, fam.q + 1, n)):
        row[rng.choice(fam.q, size=size, replace=False)] = True
    return gamma


class TestInclusionFunctions:
    def test_rows_are_gamma_in_predictor_order(self, small_family):
        chain = random_chain(small_family, np.random.default_rng(4), 30)
        names = small_family.function_names(["inclusion:*"])
        assert names == [f"inclusion:{nm}" for nm in small_family.names]
        rows = small_family.function_rows(names, chain)
        assert rows.dtype == float and np.array_equal(rows, chain.T.astype(float))
        # named indicators, in the order named
        picked = small_family.function_names(["inclusion:x3", "inclusion:*", "inclusion:x0"])
        assert picked == ["inclusion:x3", *names, "inclusion:x0"]
        np.testing.assert_array_equal(small_family.function_rows(picked, chain),
                                      chain[:, [3, 0, 1, 2, 3, 4, 0]].T)
        assert small_family.function_rows([], chain).shape == (0, 30)

    def test_unknown_names_refused(self, small_family):
        with pytest.raises(ConfigError, match=r"^function 'inclusion:zz': unknown "
                                              r"predictor 'zz' \(known: x0, x1, x2, x3, x4\)$"):
            small_family.function_names(["inclusion:x1", "inclusion:zz"])
        with pytest.raises(ConfigError, match="^unknown function 'identity' for this model$"):
            small_family.function_names(["identity"])

    def test_exact_values_by_name(self, small_family):
        h1, grid = (0.5, 20.0), np.array([[0.3, 10.0], [0.6, 50.0], [0.8, 5.0]])
        bf, pe = small_family.exact(h1, grid, ["inclusion:x4", "inclusion:x1"])
        log_m, incl = small_family.enumeration().evaluate(np.vstack([h1, grid]))
        np.testing.assert_allclose(bf, np.exp(log_m[1:] - log_m[0]), rtol=1e-14)
        assert np.array_equal(pe, incl[1:, [4, 1]])
        assert small_family.exact(h1, grid, [])[1].shape == (3, 0)


def log_prior_and_marginal(fam, gamma, h):
    """log pi_w(gamma) + log m(y | gamma, g) of one model, from the
    one-model fit."""
    w, g = h
    size = int(gamma.sum())
    return size * math.log(w) + (fam.q - size) * math.log1p(-w) \
        + fam.log_marginal_of_model(gamma, g)


def dense_log_marginal(fam, gamma, g):
    """log m(y | gamma, g) up to a constant shared by every model and g,
    from the Gaussian density of y with beta integrated out: the centred y
    is N(0, sigma^2 S) with S = I + g X (X'X)^-1 X' on the model's centred
    columns X, and sigma^2, beta0 integrate to |S|^(-1/2) (y'S^-1 y)^(-(m-1)/2)."""
    X = fam._Xc[:, np.asarray(gamma, dtype=bool)]
    S = np.eye(fam.m) + g * X @ np.linalg.solve(X.T @ X, X.T)
    return -0.5 * np.linalg.slogdet(S)[1] \
        - 0.5 * (fam.m - 1) * math.log(fam._yc @ np.linalg.solve(S, fam._yc))


class TestPriorWeight:
    def test_difference_matches_dense_densities(self):
        # m=10, q=3 random instance; compare against explicit Gaussian
        # marginal densities of y plus Bernoulli mass ratios
        rng = np.random.default_rng(21)
        fam = BlvsFamily(synthetic_dataset(m=10, q=3, seed=9, strong=(0,)))
        chain = random_chain(fam, rng, 20)
        h1, h2 = (0.35, 4.0), (0.7, 19.0)
        stats, which = fam.weight_stats(chain)
        got = (fam.log_weights(h1, stats) - fam.log_weights(h2, stats))[which]
        for gamma, diff in zip(chain, got):
            qg = int(gamma.sum())
            want = qg * math.log(h1[0] / h2[0]) \
                + (fam.q - qg) * math.log((1 - h1[0]) / (1 - h2[0])) \
                + dense_log_marginal(fam, gamma, h1[1]) - dense_log_marginal(fam, gamma, h2[1])
            assert diff == pytest.approx(want, abs=1e-10)

    def test_same_h_zero(self, small_family):
        stats, _ = small_family.weight_stats(random_chain(small_family,
                                                          np.random.default_rng(2), 8))
        h = (0.5, 8.0)
        assert np.array_equal(small_family.log_weights(h, stats),
                              small_family.log_weights(h, stats))

    def test_empty_model_reduces_to_bernoulli(self, small_family):
        # the null model's log marginal is 0 at every g
        stats, _ = small_family.weight_stats(np.zeros((1, 5), bool))
        h1, h2 = (0.2, 5.0), (0.8, 50.0)
        got = small_family.log_weights(h1, stats) - small_family.log_weights(h2, stats)
        want = 5 * math.log((1 - h1[0]) / (1 - h2[0]))
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_path_additivity(self, small_family):
        stats, _ = small_family.weight_stats(random_chain(small_family,
                                                          np.random.default_rng(8), 8))
        hs = [(0.2, 3.0), (0.55, 21.0), (0.9, 140.0)]
        w = [small_family.log_weights(h, stats) for h in hs]
        np.testing.assert_allclose((w[0] - w[1]) + (w[1] - w[2]), w[0] - w[2], atol=1e-12)

    def test_vectorized_matches_scalar(self):
        # at random codes and points, log_weights is the one-model fit's
        # log pi_w(gamma) + log m(y | gamma, g), for a family whose weights
        # read the model table and one above TABLE_MAX_Q, whose weights read
        # the models the chains fitted
        rng = np.random.default_rng(31)
        points = [(float(rng.uniform(0.02, 0.98)), float(rng.uniform(1.0, 300.0)))
                  for _ in range(6)]
        for fam in (crime_family(),
                    BlvsFamily(synthetic_dataset(m=40, q=blvs.TABLE_MAX_Q + 1, seed=5))):
            sampled = fam.sample_chains([ChainSpec(h=(0.5, 15.0), length=30, seed=3)])[0]
            fitted = fam.models_fitted
            assert fam.weight_stats(sampled)[1].shape == (30,)
            assert fam.models_fitted == fitted     # every sampled model was fitted
            chain = np.concatenate([random_chain(fam, rng, 40), sampled,
                                    np.zeros((1, fam.q), bool), np.ones((1, fam.q), bool)])
            stats, which = fam.weight_stats(chain)
            assert (fam._table is None) == (fam.q > blvs.TABLE_MAX_Q)
            for h in points:
                want = [log_prior_and_marginal(fam, gamma, h) for gamma in chain]
                np.testing.assert_allclose(fam.log_weights(h, stats)[which], want,
                                           rtol=1e-12, atol=0)

    def test_per_model_weights_bit_identical_to_per_draw_form(self):
        # log_weights evaluates each distinct model once; gathered to the
        # draws, it has the bits of the closed form evaluated at every draw,
        # on the table path and above TABLE_MAX_Q
        rng = np.random.default_rng(37)
        for fam in (crime_family(),
                    BlvsFamily(synthetic_dataset(m=40, q=blvs.TABLE_MAX_Q + 1, seed=6))):
            chain = np.concatenate([
                fam.sample_chains([ChainSpec(h=(0.5, 15.0), length=60, seed=4)])[0],
                random_chain(fam, rng, 20)])
            chain = chain[rng.permutation(len(chain))]
            stats, which = fam.weight_stats(chain)
            assert len(stats.q_gamma) == len(np.unique(chain, axis=0)) < len(chain)
            sizes, rssr = stats.q_gamma[which], stats.rss_ratio[which]
            for w, g in [(0.3, 4.0), (0.65, 20.0), (0.9, 225.0)]:
                per_draw = sizes * (math.log(w) - math.log1p(-w)) + fam.q * math.log1p(-w) \
                    + blvs._log_marginal(fam.m, sizes, rssr, g)
                assert fam.log_weights((w, g), stats)[which].tobytes() == per_draw.tobytes()

    def test_domain_checks(self, small_family):
        for bad in [(0.0, 5.0), (1.0, 5.0), (0.5, 0.0), (0.5, -2.0)]:
            with pytest.raises(InvalidHyperparameterError):
                small_family.validate_h(bad)


def conditional_inclusion_prob(fam, gamma, i, h) -> float:
    """p(gamma_i = 1 | gamma_{-i}, y) with (beta, sigma) integrated out, by
    two one-model fits: the reference for the sampler's inlined update."""
    w, g = fam.validate_h(h)
    base = np.array(gamma, dtype=bool)
    base[i] = False
    lm0 = fam.log_marginal_of_model(base, g)
    base[i] = True
    try:
        lm1 = fam.log_marginal_of_model(base, g)
    except SingularDesignError:
        return 0.0
    logit = math.log(w) - math.log1p(-w) + lm1 - lm0
    if logit >= 0.0:
        return 1.0 / (1.0 + math.exp(-logit))
    e = math.exp(logit)
    return e / (1.0 + e)


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
                p1 = conditional_inclusion_prob(fam, mask, i, h)
                on = c | (1 << i)
                off = c & ~(1 << i)
                K[c, on] += p1
                K[c, off] += 1 - p1
            kernel = kernel @ K
        pi = model_probs(fam.enumeration(), h)
        np.testing.assert_allclose(pi @ kernel, pi, atol=1e-12)

    def test_long_run_inclusion_matches_enumeration(self, small_family):
        fam = small_family
        h = (0.5, 16.0)
        chain = fam.sample_chains([ChainSpec(h=h, length=6000, burn_in=300, seed=42)])[0]
        incl = chain.astype(float)
        want = fam.enumeration().evaluate([h])[1][0]
        for j in range(fam.q):
            se = math.sqrt(max(spectral_lrv(incl[:, j]), 1e-12) / len(chain))
            assert abs(incl[:, j].mean() - want[j]) < 3.0 * se + 1e-4, \
                f"variable {j}: {incl[:, j].mean()} vs {want[j]} (se {se})"

    def test_w_near_one_absorbs(self, small_family):
        chain = small_family.sample_chains([
            ChainSpec(h=(1 - 1e-12, 5.0), length=50, burn_in=50, seed=7)])[0]
        assert chain.all()

    def test_determinism(self, small_family):
        spec = ChainSpec(h=(0.5, 10.0), length=50, seed=11)
        c1 = small_family.sample_chains([spec])[0]
        c2 = small_family.sample_chains([spec])[0]
        assert len(c1) == 50 and np.array_equal(c1, c2)

    def test_exact_fit_chain(self):
        # y is exactly 0.4 + 1.5 x0 + 1.5 x1 (the exact_fit data of
        # test_batched_fits_match_per_model_path): the chain moves onto the
        # models holding x0 and x1, whose 1 - R^2 comes from the residual
        # vector (a bordered factor alone would leave about 1e-16)
        fam = BlvsFamily(synthetic_dataset(m=30, q=10, seed=17, strong=(0, 1), noise=0.0))
        chain = fam.sample_chains([ChainSpec(h=(0.5, 10.0), length=50, burn_in=10, seed=4)])[0]
        assert chain[:, :2].all()
        codes = {sum(1 << int(j) for j in np.flatnonzero(row)) for row in chain}
        assert len(codes) > 1
        table = fam.model_table()
        assert all(table[code] < 1e-20 for code in codes)

    def test_us_crime_chain_codes_are_pinned(self):
        # the model codes of this seed on its stream of uniforms; a sampler
        # that refits every model on every sweep gives the same codes
        want = [29975, 7071, 12424, 5197, 15405, 14717, 4145, 13837, 15375, 5389,
                23949, 12941, 15501, 6687, 24077, 5613, 12669, 5717, 23061, 7573,
                13687, 31765, 5261, 16093, 13965, 7181, 13581, 4109, 13325, 22703,
                29725, 21781, 21933, 21837, 7949, 13327, 6157, 5261, 24015, 5775]
        chain = crime_family().sample_chains([
            ChainSpec(h=(0.6, 50.0), length=40, burn_in=10, seed=2024)])[0]
        assert [sum(1 << int(j) for j in np.flatnonzero(row)) for row in chain] == want

    @pytest.mark.parametrize("h", [(0.5, 15.0), (0.05, 225.0), (1 - 1e-9, 4.0)])
    def test_logit_thresholds_match_expit_per_coordinate(self, h):
        # the old rule, u < expit(logit of the full conditional) coordinate
        # by coordinate, on the same uniforms gives the same codes
        fam = crime_family()
        spec = ChainSpec(h=h, length=2000, burn_in=100, seed=8)
        chain = fam.sample_chains([spec])[0]
        assert [sum(1 << int(j) for j in np.flatnonzero(row)) for row in chain] \
            == expit_sweeps(fam, spec)

    def test_uniform_block_size_does_not_change_the_chain(self, monkeypatch):
        fam = crime_family()
        spec = ChainSpec(h=(0.6, 50.0), length=300, burn_in=40, seed=5)
        want = chain_values(fam.sample_chains([spec])[0])
        for rows in (1, 7, 1000):
            monkeypatch.setattr(blvs, "SWEEP_ROWS", rows)
            assert chain_values(fam.sample_chains([spec])[0]) == want

    def test_burn_in_sweeps_advance_the_stream(self):
        fam = crime_family()
        b, n = 25, 40
        short = fam.sample_chains([ChainSpec(h=(0.6, 50.0), length=n, burn_in=b, seed=3)])[0]
        full = fam.sample_chains([ChainSpec(h=(0.6, 50.0), length=b + n, seed=3)])[0]
        assert np.array_equal(short, full[b:])


def expit_sweeps(fam, spec):
    """The kept codes of the sweep that tests u < expit(logit) at each
    coordinate, on the chain's uniforms: the start's q, then q per sweep."""
    w, g = fam.validate_h(spec.h)
    rng = np.random.default_rng(spec.seed)
    code = sum(1 << int(j) for j in np.flatnonzero(rng.random(fam.q) < w))
    lms = fam._log_marginal_store(g)
    if math.isnan(lms[code]):
        code = 0
    log_odds = math.log(w) - math.log1p(-w)
    codes = []
    for u in rng.random((spec.burn_in + spec.length, fam.q)).tolist():
        for i, ui in enumerate(u):
            flipped = code ^ 1 << i
            if math.isnan(lms[flipped]):
                continue
            on, off = (code, flipped) if code >> i & 1 else (flipped, code)
            logit = log_odds + lms[on] - lms[off]
            if logit >= 0.0:
                p = 1.0 / (1.0 + math.exp(-logit))
            else:
                p = math.exp(logit) / (1.0 + math.exp(logit))
            code = on if ui < p else off
        codes.append(code)
    return codes[spec.burn_in:]


def chain_values(chain):
    return chain.tobytes()


def table_paths(monkeypatch):
    """Yield "table", then "lazy" with TABLE_MAX_Q lowered below every
    family's q, so the sampler fits models one at a time."""
    yield "table"
    monkeypatch.setattr(blvs, "TABLE_MAX_Q", 0)
    yield "lazy"


def crime_family():
    return BlvsFamily(ingest_csv(
        importlib.resources.files("priorsweep") / "data" / "uscrime.csv", "y", ["S"]))


@st.composite
def small_designs(draw):
    """Random designs of up to 7 predictors: some with a duplicated column,
    some fitted exactly, and some with m <= q + 1 rows, so that models are
    singular, exact fits or too large."""
    q = draw(st.integers(1, 7))
    m = draw(st.integers(3, q + 1) if q >= 2 and draw(st.booleans())
             else st.integers(q + 2, q + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(m, q))
    if q >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
        X[:, j] = X[:, i]
    y = 0.4 + X @ rng.normal(size=q)
    if not draw(st.booleans()):     # noise, unless the fit is exact
        y = y + rng.normal(scale=0.5, size=m)
    return Dataset(y=y, X=X, names=[f"x{j}" for j in range(q)])


class TestModelTable:
    def test_cold_table_equals_prewarmed_table(self, uscrime_path, monkeypatch):
        ds = ingest_csv(uscrime_path, "y", ["S"])
        spec = ChainSpec(h=(0.5, 15.0), length=150, burn_in=20, seed=5)
        for path in table_paths(monkeypatch):
            cold = BlvsFamily(ds)
            warm = BlvsFamily(ds)
            for seed, h in enumerate([(0.3, 100.0), (0.8, 225.0)]):
                warm.sample_chains([ChainSpec(h=h, length=150, burn_in=20, seed=seed)])
            fitted = warm.models_fitted
            assert chain_values(cold.sample_chains([spec])[0]) \
                == chain_values(warm.sample_chains([spec])[0])
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
        full = [chain_values(c) for c in fam.sample_chains(specs)]
        assert fam._table is not None and not fam._rssr
        monkeypatch.setattr(blvs, "TABLE_MAX_Q", fam.q - 1)
        lazy = make_family()
        assert [chain_values(c) for c in lazy.sample_chains(specs)] == full
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
        chain = fam.sample_chains([ChainSpec(h=(0.05, 20.0), length=15, burn_in=5, seed=1)])[0]
        assert chain[:, 69].any()
        assert fam._table is None and max(fam._rssr) >= 1 << 63

    def test_too_large_models_hold_nan(self):
        # m = 8: models of more than m - 2 = 6 predictors are not fitted
        fam = BlvsFamily(synthetic_dataset(m=8, q=7, seed=2, strong=(0,)))
        table = fam.model_table()
        sizes = np.array([code.bit_count() for code in range(table.size)])
        assert np.array_equal(np.isnan(table), sizes > 6)
        with pytest.raises(SingularDesignError, match="7 predictors too large"):
            fam.enumeration()

    def test_collinear_build_fits_no_model_on_its_own(self):
        fam = collinear_family()
        fit, fits = fam._fit, []
        fam._fit = lambda code: fits.append(code) or fit(code)
        table = fam.model_table()
        # the build fits no model on its own: a model holding x0 and x9 has
        # a pivot of 0, and the build leaves it NaN
        assert fits == []
        codes = np.arange(table.size)
        both = (codes & 1 != 0) & (codes >> (fam.q - 1) & 1 != 0)
        assert np.array_equal(np.isnan(table), both)
        assert not table.flags.writeable
        assert fam.models_fitted == table.size
        # the enumeration names the first singular model, in order of size,
        # without fitting it
        with pytest.raises(SingularDesignError, match=r"\['x0', 'x9'\]"):
            fam.enumeration()
        assert fits == []

    @settings(max_examples=80, deadline=None)
    @given(design=small_designs())
    def test_table_entries_are_one_model_fits(self, design):
        # every entry of the built table is the one-model fit's 1 - R^2 bit
        # for bit, NaN included, and log_marginal_of_model raises exactly
        # where the fit is NaN, with the message of _unfit
        fam = BlvsFamily(design)
        table = fam.model_table()
        for code in range(table.size):
            want = fam._fit(code)
            assert table[code].tobytes() == np.float64(want).tobytes(), code
            gamma = np.array([code >> j & 1 for j in range(fam.q)], dtype=bool)
            if math.isnan(want):
                with pytest.raises(SingularDesignError) as err:
                    fam.log_marginal_of_model(gamma, 5.0)
                assert str(err.value) == str(fam._unfit(code)), code
            else:
                assert math.isfinite(fam.log_marginal_of_model(gamma, 5.0)), code

    def test_more_rows_than_a_uint8_size_holds(self):
        # m - 1 - size must not be taken in uint8, the dtype of the table
        # build's own sizes (numpy 2 raises OverflowError on 299 - uint8,
        # numpy 1 wraps): the family's sizes are intp
        fam = BlvsFamily(synthetic_dataset(m=300, q=6, seed=8, strong=(1, 4)))
        table = fam.model_table()
        assert not np.isnan(table).any()
        bits = np.array([[(c >> i) & 1 for i in range(fam.q)] for c in range(table.size)],
                        dtype=bool)
        lm = np.array([fam.log_marginal_of_model(b, 30.0) for b in bits])
        assert np.asarray(fam._log_marginal_store(30.0)).tobytes() == lm.tobytes()
        enum = fam.enumeration()
        assert enum.q_gamma is fam.model_sizes() and enum.q_gamma.dtype == np.intp
        w = 0.3
        lw = lm + bits.sum(axis=1) * math.log(w) + (fam.q - bits.sum(axis=1)) * math.log1p(-w)
        assert enum.log_marginal((w, 30.0)) == pytest.approx(logsumexp(lw), rel=1e-12)
        probs = np.exp(lw - logsumexp(lw))
        np.testing.assert_allclose(enum.evaluate([(w, 30.0)])[1][0],
                                   [probs[bits[:, i]].sum() for i in range(fam.q)],
                                   rtol=1e-12, atol=1e-15)

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

    @pytest.mark.parametrize("q", [16, 20])
    def test_table_build_peak_stays_near_the_table(self, q):
        # the last levels run a few parents at a time: a build of all 2^q
        # stacks at once peaked at 3.3 MB (q = 16) and 51 MB (q = 20)
        fam = BlvsFamily(synthetic_dataset(m=40, q=q, seed=3))
        tracemalloc.start()
        try:
            fam._build_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (8 << q) + (512 << 10)

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

    def test_duplicate_column_warns_once_per_chain(self, caplog, monkeypatch):
        # reference draws of the sampler that refit every model on every sweep
        want_codes = [[0, 2, 3, 0, 0, 2, 2, 0, 1, 1, 2, 0],
                      [0, 0, 2, 0, 0, 6, 0, 0, 0, 0, 0, 4]]
        for path in table_paths(monkeypatch):
            # the second chain reads the NaN the first one left in the store
            fam = duplicate_column_family()
            with caplog.at_level(logging.WARNING, logger="priorsweep.blvs"):
                for seed, codes in zip((1, 2), want_codes):
                    caplog.clear()
                    chain = fam.sample_chains([ChainSpec(h=(0.5, 10.0), length=12, burn_in=3,
                                                         seed=seed)])[0]
                    singular = [r for r in caplog.records
                                if "singular candidate" in r.getMessage()]
                    assert len(singular) == 1, path
                    assert [sum(1 << j for j in np.flatnonzero(row))
                            for row in chain] == codes
            # columns a and a2: NaN in the table's store, and stored by the
            # lazy one when a chain first read it
            store = fam._log_marginal_store(10.0)
            assert (path == "table" or 5 in store) and math.isnan(store[5])

    def test_stage_chains_match_chains_sampled_alone(self, uscrime_path, monkeypatch):
        ds = ingest_csv(uscrime_path, "y", ["S"])
        specs = [ChainSpec(h=h, length=n, burn_in=b, seed=s)
                 for s, (h, n, b) in enumerate([((0.5, 15.0), 60, 10), ((0.3, 50.0), 40, 0),
                                                ((0.6, 100.0), 70, 25), ((0.8, 225.0), 30, 5),
                                                ((0.4, 20.0), 50, 10), ((0.7, 70.0), 80, 3)])]
        for path in table_paths(monkeypatch):
            want = [chain_values(BlvsFamily(ds).sample_chains([sp])[0]) for sp in specs]
            serial = BlvsFamily(ds)
            for sp in specs:
                serial.sample_chains([sp])
            stage = BlvsFamily(ds)
            build, builds = stage._build_table, []
            stage._build_table = lambda: builds.append(1) or build()
            got = [chain_values(c) for c in stage.sample_chains(specs)]
            assert got == want
            assert stage._rssr == serial._rssr
            # the log marginals the chains read, one store per g
            assert stage._lms.keys() == serial._lms.keys()
            for g, store in serial._lms.items():
                if path == "table":
                    assert stage._lms[g].tobytes() == store.tobytes()
                else:
                    assert stage._lms[g] == store
            assert len(builds) == (path == "table")
            if path == "table":
                assert stage._table.tobytes() == serial._table.tobytes()


# grids with one bad point after a good one and before another bad one: the
# first bad point must be named as validate_h names it
BAD_POINTS = [(math.nan, 15.0), (0.5, math.inf), (0.0, 15.0), (1.0, 15.0), (1.2, 15.0),
              (0.5, 0.0), (0.5, -1.0), (0.5,), (0.5, 15.0, 1.0)]


def first_bad_message(fam, bad):
    with pytest.raises(InvalidHyperparameterError) as exc:
        fam.validate_h(bad)
    return str(exc.value)


class TestGridValidation:
    @pytest.mark.parametrize("bad", BAD_POINTS)
    def test_config_names_first_bad_point(self, tmp_path, uscrime_path, bad):
        raw = {"model": {"kind": "blvs", "dataset": str(uscrime_path),
                         "response": "y", "binary": ["S"]},
               "skeleton": [[0.5, 15]],
               "stage1": {"length": 50, "seed": 1}, "stage2": {"length": 50, "seed": 2},
               "grid": {"points": [[0.5, 15.0], list(bad), [1.5, -3.0]]}}
        p = tmp_path / "blvs.yaml"
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        family = BlvsFamily(ingest_csv(uscrime_path, "y", ["S"]))
        assert str(exc.value) == f"grid: {first_bad_message(family, bad)}"

    @pytest.mark.parametrize("bad", BAD_POINTS)
    def test_surface_names_first_bad_point(self, small_family, bad):
        skeleton = [(0.5, 15.0)]
        chains = small_family.sample_chains([ChainSpec(h=skeleton[0], length=20, seed=3)])
        ws = Stage2Workspace(build_log_weight_matrix(small_family, skeleton, chains), np.ones(1))
        with pytest.raises(InvalidHyperparameterError) as exc:
            surface(ws, [(0.5, 15.0), bad, (1.5, -3.0)], np.empty((0, ws.n)), np.zeros((0, 0)),
                    q=0.5)
        assert str(exc.value) == first_bad_message(small_family, bad)

    @pytest.mark.parametrize("bad", BAD_POINTS)
    def test_evaluate_names_first_bad_point(self, small_family, bad):
        with pytest.raises(InvalidHyperparameterError) as exc:
            small_family.enumeration().evaluate([(0.5, 15.0), bad, (1.5, -3.0)])
        assert str(exc.value) == first_bad_message(small_family, bad)

    @pytest.mark.parametrize("bad, message", [
        ((1.0, 15.0), "w must lie in (0,1), got 1.0"),
        ((0.5, -1.0), "g must be positive, got -1.0")])
    def test_domain_messages(self, small_family, bad, message):
        # one statement of the domain gives both the per-point and the grid check
        for check in (small_family.validate_h, lambda h: small_family.validate_grid([h])):
            with pytest.raises(InvalidHyperparameterError) as exc:
                check(bad)
            assert str(exc.value) == message

    def test_grid_is_a_read_only_array(self, small_family):
        grid = [(0.2, 10.0), (0.7, 40.0)]
        H = small_family.validate_grid(grid)
        assert H.dtype == float and H.shape == (2, 2) and not H.flags.writeable
        assert H.tolist() == [list(h) for h in grid]
        assert small_family.validate_grid([]).shape == (0, 2)
