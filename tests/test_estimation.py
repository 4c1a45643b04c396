import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import hermgauss.estimation
from hermgauss.estimation import (
    SampleBatch,
    crb_experiment,
    log_likelihood,
    mle_fit,
    sample,
)
from hermgauss.models import ModelPoint, StateSpec
from hermgauss.quadrature import integrate_real_line

ORIGIN = ModelPoint(0.0, 1.0)


class TestSampler:
    def test_determinism(self):
        spec = StateSpec.eigenstate(1)
        a = sample(spec, ORIGIN, 500, seed=42)
        b = sample(spec, ORIGIN, 500, seed=42)
        np.testing.assert_array_equal(a.draws, b.draws)
        c = sample(spec, ORIGIN, 500, seed=43)
        assert not np.array_equal(a.draws, c.draws)

    def test_gaussian_moments(self):
        # Eigenstate 0 positions are N(mu, sigma^2); check the mean to 4 SE.
        point = ModelPoint(1.5, 0.7)
        batch = sample(StateSpec.eigenstate(0), point, 40_000, seed=7)
        se = point.sigma / math.sqrt(batch.draws.size)
        assert abs(np.mean(batch.draws) - point.mu) < 4.0 * se
        assert np.std(batch.draws) == pytest.approx(point.sigma, rel=0.02)

    def test_node_region_mass_matches_quadrature(self):
        # Eigenstate 1 has a density node at y = 0; compare the sampled mass
        # of |y| < 0.5 against the quadrature value of the same window.
        from hermgauss.models import kernel

        spec = StateSpec.eigenstate(1)
        kf = kernel(spec)
        res = integrate_real_line(
            lambda y: np.where(np.abs(y) < 0.5, kf.f(y), 0.0),
            degree_hint=kf.degree_hint)
        expected = res.value * math.sqrt(2.0)
        batch = sample(spec, ORIGIN, 100_000, seed=5)
        y = batch.draws / math.sqrt(2.0)
        frac = np.mean(np.abs(y) < 0.5)
        se = math.sqrt(expected * (1 - expected) / y.size)
        assert abs(frac - expected) < 5.0 * se

    def test_kolmogorov_distance(self):
        # Sup distance between the empirical CDF and the kernel's CDF stays
        # under the 1% KS critical value 1.63 / sqrt(N).  The reference CDF
        # is Simpson's rule on a fine grid, independent of the sampler's
        # PCHIP table.
        from hermgauss.models import kernel

        spec = StateSpec.superposition({0: 0.6, 2: 0.8})
        n = 20_000
        batch = sample(spec, ORIGIN, n, seed=11)
        y = np.sort(batch.draws) / math.sqrt(2.0)
        grid = np.linspace(-12.0, 12.0, 100_001)
        cdf = cumulative_simpson(kernel(spec).f(grid), x=grid, initial=0.0)
        theory = np.interp(y, grid, cdf / cdf[-1])
        empirical = np.arange(1, n + 1) / n
        ks = np.max(np.abs(empirical - theory))
        assert ks < 1.63 / math.sqrt(n)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(StateSpec.eigenstate(0), ORIGIN, 0, seed=1)


class TestMle:
    def test_gaussian_fit_matches_moments(self):
        # For eigenstate 0 the MLE is the sample mean and (biased) std.
        batch = sample(StateSpec.eigenstate(0), ModelPoint(2.0, 1.3), 5000, seed=3)
        fit = mle_fit(batch)
        assert fit.mu == pytest.approx(float(np.mean(batch.draws)), abs=1e-6)
        assert fit.sigma == pytest.approx(float(np.std(batch.draws)), abs=1e-6)

    def test_second_level_recovers_truth(self):
        spec = StateSpec.eigenstate(2)
        point = ModelPoint(-0.5, 0.8)
        n = 100_000
        batch = sample(spec, point, n, seed=19)
        fit = mle_fit(batch)
        # Allow 5 bound standard errors in each coordinate.
        from hermgauss.geometry import crb_bound, metric_quadrature

        b = crb_bound(metric_quadrature(spec, point))
        assert abs(fit.mu - point.mu) < 5.0 * math.sqrt(b[0, 0] / n)
        assert abs(fit.sigma - point.sigma) < 5.0 * math.sqrt(b[1, 1] / n)

    def test_log_likelihood_gaussian_closed_form(self):
        x = np.array([0.0, 1.0, -0.5])
        ll = log_likelihood(StateSpec.eigenstate(0), x, 0.25, 1.1)
        expect = float(np.sum(-0.5 * ((x - 0.25) / 1.1) ** 2
                              - math.log(1.1 * math.sqrt(2 * math.pi))))
        assert ll == pytest.approx(expect, rel=1e-12)

    def test_sample_on_node_warns_not_fatal(self):
        spec = StateSpec.eigenstate(1)
        with pytest.warns(UserWarning):
            ll = log_likelihood(spec, np.array([0.0, 1.0]), 0.0, 1.0)
        assert np.isfinite(ll)

    def test_degenerate_batch_rejected(self):
        batch = SampleBatch(spec=StateSpec.eigenstate(0), true_point=ORIGIN,
                            draws=np.full(10, 3.0), rng_seed=0)
        with pytest.raises(ValueError):
            mle_fit(batch)

    def test_empty_batch_rejected(self):
        batch = SampleBatch(spec=StateSpec.eigenstate(0), true_point=ORIGIN,
                            draws=np.empty(0), rng_seed=0)
        with pytest.raises(ValueError):
            mle_fit(batch)


class TestCrbExperiment:
    def test_small_run_is_clean(self):
        rep = crb_experiment(StateSpec.eigenstate(0), ORIGIN,
                             trials=40, samples_per_trial=400, seed=8)
        assert rep.failed_trials == ()
        assert not any(v["violated"] for v in rep.violations.values())
        assert rep.empirical_cov.shape == (2, 2)
        assert rep.estimates.shape == (40, 2)

    def test_report_determinism(self):
        a = crb_experiment(StateSpec.eigenstate(1), ORIGIN,
                           trials=30, samples_per_trial=200, seed=4)
        b = crb_experiment(StateSpec.eigenstate(1), ORIGIN,
                           trials=30, samples_per_trial=200, seed=4)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.empirical_cov, b.empirical_cov)

    def test_failed_fits_raise_instead_of_nan(self, monkeypatch):
        def failing_fit(batch, spec=None):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(hermgauss.estimation, "mle_fit", failing_fit)
        with pytest.raises(RuntimeError, match="30 of 30") as info:
            crb_experiment(StateSpec.eigenstate(0), ORIGIN,
                           trials=30, samples_per_trial=50, seed=1)
        assert str(info.value.__cause__) == "no convergence"

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            crb_experiment(StateSpec.eigenstate(0), ORIGIN,
                           trials=10, samples_per_trial=100, seed=0)
