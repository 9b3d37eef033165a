import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.stats import norm

from priorsweep.errors import InvalidHyperparameterError
from priorsweep.families import ChainSpec, ConjugateToy, toy_function


def quad_marginal(fam, h):
    like_sd, prior_sd, y = fam.like_sd, fam.prior_sd, fam.y_obs
    val, _ = quad(lambda t: norm.pdf(y, t, like_sd) * norm.pdf(t, h, prior_sd),
                  -30, 30, limit=200)
    return val


class TestExactOracles:
    def test_bf_identity(self):
        fam = ConjugateToy(y_obs=1.3)
        assert fam.exact_bf((0.7,), (0.7,)) == 1.0

    def test_bf_closed_form_values(self):
        fam = ConjugateToy(y_obs=0.0)
        assert fam.exact_bf((1.0,), (0.0,)) == pytest.approx(math.exp(-0.25), rel=1e-14)
        fam2 = ConjugateToy(y_obs=2.0)
        assert fam2.exact_bf((2.0,), (0.0,)) == pytest.approx(math.exp(1.0), rel=1e-14)

    def test_bf_matches_quadrature(self):
        fam = ConjugateToy(y_obs=0.8, prior_sd=1.4, like_sd=0.6)
        for h, h1 in [((0.3,), (1.1,)), ((-0.5,), (2.0,))]:
            exact = fam.exact_bf(h, h1)
            numeric = quad_marginal(fam, h[0]) / quad_marginal(fam, h1[0])
            assert exact == pytest.approx(numeric, abs=1e-10, rel=1e-10)

    def test_pe_values_and_quadrature(self):
        fam = ConjugateToy(y_obs=0.0)
        assert fam.exact_pe("identity", (0.0,)) == 0.0
        assert ConjugateToy(y_obs=1.0).exact_pe("identity", (0.0,)) == pytest.approx(0.5)
        assert fam.exact_pe("square", (0.0,)) == pytest.approx(0.5)
        # against quadrature on a non-default configuration
        fam = ConjugateToy(y_obs=-0.7, prior_sd=0.9, like_sd=1.3)
        h = 0.4
        m_h = quad_marginal(fam, h)
        num, _ = quad(lambda t: t * norm.pdf(fam.y_obs, t, fam.like_sd)
                      * norm.pdf(t, h, fam.prior_sd), -30, 30, limit=200)
        assert fam.exact_pe("identity", (h,)) == pytest.approx(num / m_h, abs=1e-10)

    def test_pe_unknown_function(self):
        with pytest.raises(ValueError, match="unknown toy function"):
            ConjugateToy(y_obs=0.0).exact_pe("cube", (0.0,))

    def test_bf_cocycle(self):
        fam = ConjugateToy(y_obs=0.37, prior_sd=1.2, like_sd=0.8)
        rng = np.random.default_rng(7)
        for _ in range(50):
            h, h1, h2 = rng.normal(0, 2, 3)
            lhs = fam.exact_bf((h,), (h1,)) * fam.exact_bf((h1,), (h2,))
            assert lhs == pytest.approx(fam.exact_bf((h,), (h2,)), rel=1e-12)


class TestLogPriorWeight:
    def test_same_h_difference_zero(self):
        fam = ConjugateToy(y_obs=0.0)
        for theta in (-1.2, 0.0, 3.4):
            assert fam.log_prior_weight((0.9,), theta) \
                == fam.log_prior_weight((0.9,), theta)

    def test_difference_is_log_density_ratio(self):
        fam = ConjugateToy(y_obs=0.0)
        rng = np.random.default_rng(11)
        for _ in range(30):
            h, h2, theta = rng.normal(0, 2, 3)
            got = fam.log_prior_weight((h,), theta) - fam.log_prior_weight((h2,), theta)
            want = norm.logpdf(theta, h, 1.0) - norm.logpdf(theta, h2, 1.0)
            assert got == pytest.approx(want, abs=1e-12)

    def test_rn_consistency_under_theta_shift(self):
        # adding any function of theta alone to the weights must not change
        # differences across h
        fam = ConjugateToy(y_obs=0.0)

        class Shifted(ConjugateToy):
            def log_weights(self, h, stats):
                return super().log_weights(h, stats) + np.sin(stats) + 3.0

        shifted = Shifted(y_obs=0.0)
        thetas = np.linspace(-2, 2, 9)
        for h, h2 in [((0.0,), (1.0,)), ((-1.5,), (0.25,))]:
            base = fam.log_weights(h, thetas) - fam.log_weights(h2, thetas)
            mod = shifted.log_weights(h, thetas) - shifted.log_weights(h2, thetas)
            np.testing.assert_allclose(mod, base, atol=1e-12)

    def test_vectorized_matches_scalar(self):
        fam = ConjugateToy(y_obs=0.5, prior_sd=1.7)
        thetas = np.array([-1.0, 0.0, 2.5])
        vec = fam.log_weights((0.3,), fam.weight_stats(thetas))
        scal = [fam.log_prior_weight((0.3,), t) for t in thetas]
        np.testing.assert_allclose(vec, scal, rtol=1e-15)

    def test_invalid_h(self):
        fam = ConjugateToy(y_obs=0.0)
        with pytest.raises(InvalidHyperparameterError):
            fam.validate_h((float("nan"),))
        with pytest.raises(InvalidHyperparameterError):
            fam.validate_h((0.0, 1.0))


class TestSampling:
    def test_posterior_mean_within_four_se(self):
        fam = ConjugateToy(y_obs=0.0)
        draws = fam.sample_posterior(ChainSpec(h=(0.0,), length=10_000, seed=4))
        se = math.sqrt(0.5 / 10_000)
        assert abs(draws.mean() - 0.0) < 4 * se

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ChainSpec(h=(0.0,), length=0, seed=1)

    def test_negative_burnin_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            ChainSpec(h=(0.0,), length=5, burn_in=-1, seed=1)

    def test_seeded_determinism(self):
        fam = ConjugateToy(y_obs=1.0, sampler="ar1")
        spec = ChainSpec(h=(0.5,), length=500, burn_in=10, seed=99)
        np.testing.assert_array_equal(fam.sample_posterior(spec),
                                      fam.sample_posterior(spec))

    def test_ar1_stationary_moments(self):
        fam = ConjugateToy(y_obs=0.0, sampler="ar1", ar1_phi=0.6)
        draws = fam.sample_posterior(ChainSpec(h=(1.0,), length=200_000, seed=3))
        mu, var = fam.posterior_mean((1.0,)), fam.posterior_var()
        assert draws.mean() == pytest.approx(mu, abs=0.02)
        assert draws.var() == pytest.approx(var, rel=0.05)
        lag1 = np.corrcoef(draws[1:], draws[:-1])[0, 1]
        assert lag1 == pytest.approx(0.6, abs=0.02)

    # the doubling scan against the recursion as lfilter runs it, on the same
    # stream: x0 first, then the innovations
    @pytest.mark.parametrize("phi", [-0.95, 0.0, 0.5, 0.99])
    @pytest.mark.parametrize("length", [1, 2, 5, 1025])
    @pytest.mark.parametrize("burn_in", [0, 7])
    def test_ar1_matches_lfilter(self, phi, length, burn_in):
        fam = ConjugateToy(y_obs=0.4, prior_sd=1.3, like_sd=0.7, sampler="ar1",
                           ar1_phi=phi)
        spec = ChainSpec(h=(0.2,), length=length, burn_in=burn_in, seed=17)
        mu, sd = fam.posterior_mean((0.2,)), math.sqrt(fam.posterior_var())
        rng = np.random.default_rng(spec.seed)
        x0 = rng.normal(0.0, sd)
        innov = rng.normal(0.0, sd * math.sqrt(1.0 - phi**2), size=length + burn_in)
        x, _ = lfilter([1.0], [1.0, -phi], innov, zi=np.array([phi * x0]))
        want = (mu + x)[burn_in:]
        got = fam.sample_posterior(spec)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            ConjugateToy(y_obs=0.0, sampler="hmc")


def test_toy_function_vectorization():
    ident = toy_function("identity")
    sq = toy_function("square")
    xs = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(ident(xs), xs)
    np.testing.assert_array_equal(sq(xs), xs**2)
    with pytest.raises(ValueError):
        toy_function("cube")
