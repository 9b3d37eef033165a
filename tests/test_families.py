import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.stats import norm

from priorsweep.errors import ConfigError, InvalidHyperparameterError
from priorsweep.families import ChainSpec, ConjugateToy, DensityFamily
from priorsweep.ratio import build_log_weight_matrix, estimate_ratios
from priorsweep.surface import Stage2Workspace, surface


def log_prior_weight(fam, h, theta):
    """log nu_h of one toy draw: the scalar reference of log_weights."""
    (h,) = fam.validate_h(h)
    return -0.5 * (float(theta) - h) ** 2 / fam.prior_sd**2


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
            assert log_prior_weight(fam, (0.9,), theta) \
                == log_prior_weight(fam, (0.9,), theta)

    def test_difference_is_log_density_ratio(self):
        fam = ConjugateToy(y_obs=0.0)
        rng = np.random.default_rng(11)
        for _ in range(30):
            h, h2, theta = rng.normal(0, 2, 3)
            got = log_prior_weight(fam, (h,), theta) - log_prior_weight(fam, (h2,), theta)
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
        scal = [log_prior_weight(fam, (0.3,), t) for t in thetas]
        np.testing.assert_allclose(vec, scal, rtol=1e-15)

    def test_invalid_h(self):
        fam = ConjugateToy(y_obs=0.0)
        with pytest.raises(InvalidHyperparameterError):
            fam.validate_h((float("nan"),))
        with pytest.raises(InvalidHyperparameterError):
            fam.validate_h((0.0, 1.0))

    def test_domain_gives_both_checks(self):
        class PositiveToy(ConjugateToy):
            domain = ((0, lambda h: h > 0.0, "be positive"),)

        fam = PositiveToy(y_obs=0.0)
        assert fam.validate_grid([0.5, 2.0]).tolist() == [[0.5], [2.0]]
        for check in (fam.validate_h, lambda h: fam.validate_grid([1.0, h, -2.0])):
            with pytest.raises(InvalidHyperparameterError) as exc:
                check(-1.0)
            assert str(exc.value) == "h must be positive, got -1.0"


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

    @pytest.mark.parametrize("sampler", ["iid", "ar1"])
    def test_sample_chains_is_sample_posterior_per_spec(self, sampler):
        fam = ConjugateToy(y_obs=1.0, sampler=sampler)
        specs = [ChainSpec(h=(h,), length=n, burn_in=b, seed=s)
                 for h, n, b, s in [(0.5, 300, 10, 99), (-1.0, 7, 0, 3), (0.5, 300, 10, 98)]]
        chains = fam.sample_chains(specs)
        assert len(chains) == len(specs)
        for spec, chain in zip(specs, chains):
            np.testing.assert_array_equal(chain, fam.sample_posterior(spec))

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
    # the rows of identity and square over a sample are s and s**2, in the
    # order the names come
    fam = ConjugateToy(y_obs=0.0)
    xs = np.array([1.0, -2.0, 0.5])
    assert fam.function_names(["square", "identity"]) == ["square", "identity"]
    rows = fam.function_rows(["identity", "square", "identity"], xs)
    assert rows.dtype == float
    np.testing.assert_array_equal(rows, [xs, xs**2, xs])
    assert fam.function_rows([], xs).shape == (0, 3)
    with pytest.raises(ConfigError, match="unknown toy function 'cube'"):
        fam.function_names(["identity", "cube"])


class MinimalFamily(DensityFamily):
    """A family with only the three methods the contract asks for: i.i.d.
    draws from the posterior N(h / 2, 1 / 2) of the default toy (y = 0, unit
    prior and likelihood variances), with the toy's weights."""

    def sample_chains(self, specs):
        return [np.random.default_rng(sp.seed).normal(sp.h[0] / 2.0, math.sqrt(0.5), sp.length)
                for sp in specs]

    def weight_stats(self, samples):
        return samples

    def log_weights(self, h, stats):
        (h,) = self.validate_h(h)
        return -0.5 * (stats - h) ** 2


def test_three_method_family_runs_both_stages():
    # the same draws and weights as the toy, so the same surface bit for bit
    skeleton = [(0.0,), (1.0,), (2.0,)]
    grid = [(h,) for h in np.linspace(-0.5, 2.5, 7)]
    surfaces = []
    for fam in (MinimalFamily(), ConjugateToy(y_obs=0.0)):
        specs1 = [ChainSpec(h=h, length=2000, seed=10 + i) for i, h in enumerate(skeleton)]
        specs2 = [ChainSpec(h=h, length=500, seed=20 + i) for i, h in enumerate(skeleton)]
        est = estimate_ratios(build_log_weight_matrix(fam, skeleton, fam.sample_chains(specs1)))
        ws = Stage2Workspace(build_log_weight_matrix(fam, skeleton, fam.sample_chains(specs2)),
                             est.d_hat)
        F = ConjugateToy(y_obs=0.0).function_rows(["identity"], ws.W.samples)
        surfaces.append(surface(ws, grid, F, est.sigma_hat, q=0.25))
    got, want = surfaces
    for col in ("h", "bf", "bf_cv", "pe", "stage1", "stage2"):
        assert np.array_equal(getattr(got, col), getattr(want, col))
    toy = ConjugateToy(y_obs=0.0)
    exact = np.array([toy.exact_bf(h, skeleton[0]) for h in grid])
    assert np.all(np.abs(got.bf_cv - exact) < 4.0 * got.se[:, 1])


def test_a_family_without_functions_or_oracle():
    # the defaults of the contract: no function names, no rows, no oracle
    fam = MinimalFamily()
    assert fam.function_names([]) == []
    with pytest.raises(ConfigError, match="unknown function 'identity' for this model"):
        fam.function_names(["identity"])
    assert fam.function_rows([], np.zeros(5)).shape == (0, 5)
    with pytest.raises(ConfigError, match="no exact oracle for this model kind"):
        fam.exact((0.0,), np.zeros((3, 1)), [])


def test_toy_exact_values_by_name():
    fam = ConjugateToy(y_obs=0.4)
    grid = np.array([[-0.5], [0.0], [1.5]])
    bf, pe = fam.exact((0.0,), grid, ["square", "identity"])
    assert bf.tolist() == [fam.exact_bf(h, (0.0,)) for h in grid]
    assert pe.tolist() == [[fam.exact_pe("square", h), fam.exact_pe("identity", h)]
                           for h in grid]
    assert fam.exact((0.0,), grid, [])[1].shape == (3, 0)
