import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator

import hermgauss.estimation
from hermgauss.estimation import (
    SampleBatch,
    _cdf_table,
    _moment_init,
    _pchip_slopes,
    crb_experiment,
    log_likelihood,
    mle_fit,
    sample,
)
from hermgauss.models import ModelPoint, StateSpec, kernel
from hermgauss.quadrature import integrate_real_line

ORIGIN = ModelPoint(0.0, 1.0)


def scipy_cdf(spec, y):
    """scipy's PCHIP antiderivative of the clipped density on the nodes y."""
    dens = np.maximum(kernel(spec).f(y), 0.0)
    return PchipInterpolator(y, dens).antiderivative()


def bisect_cdf(spec, table, u, iterations=60):
    """Reference inverse: bisection, segment by segment, on scipy's PCHIP
    CDF over the table's nodes; it shares no coefficients with the table."""
    cdf = scipy_cdf(spec, table.y)
    vals = cdf(table.y)
    idx = np.clip(np.searchsorted(vals / vals[-1], u), 1, table.y.size - 1)
    lo = table.y[idx - 1].copy()
    hi = table.y[idx].copy()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) / vals[-1] < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def compass_fit(spec, x, tol=1e-9):
    """Reference MLE: compass search on (mu, log sigma) run down to tol."""
    init = _moment_init(spec, x)
    mu, ls = init.mu, math.log(init.sigma)
    best = log_likelihood(spec, x, mu, math.exp(ls))
    step_mu = max(0.25 * math.exp(ls), 10.0 * tol)
    step_ls = 0.25
    while step_mu > tol or step_ls > tol:
        improved = False
        for dm, dl in ((step_mu, 0.0), (-step_mu, 0.0),
                       (0.0, step_ls), (0.0, -step_ls)):
            cand = log_likelihood(spec, x, mu + dm, math.exp(ls + dl))
            if cand > best:
                best, mu, ls = cand, mu + dm, ls + dl
                improved = True
        if not improved:
            step_mu *= 0.5
            step_ls *= 0.5
    return mu, math.exp(ls)


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

    @pytest.mark.parametrize("spec", [
        StateSpec.eigenstate(0),
        StateSpec.eigenstate(1),
        StateSpec.superposition({0: 0.6, 2: 0.8}),
    ], ids=["ground", "node", "superposition"])
    def test_newton_inversion_matches_bisection(self, spec):
        table = _cdf_table(spec)
        u = np.random.default_rng(29).random(20_000)
        np.testing.assert_allclose(table.invert(u), bisect_cdf(spec, table, u),
                                   rtol=0.0, atol=1e-9)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(StateSpec.eigenstate(0), ORIGIN, 0, seed=1)


# Non-uniform node sets, each reaching one branch of the PCHIP slope rule;
# (index, slope) pins the branch's value.
_PCHIP_NODES = {
    "interior_sign_change": ([0.0, 0.7, 2.0, 2.4, 3.5], [0.0, 1.0, 0.2, 0.9, 1.0],
                             (1, 0.0)),
    "zero_secant": ([0.0, 1.0, 1.5, 3.0, 3.2], [0.0, 1.0, 1.0, 2.0, 4.0], (2, 0.0)),
    "end_clamped_to_zero": ([0.0, 1.0, 2.0, 4.0], [0.0, 1.0, 6.0, 7.0], (0, 0.0)),
    "end_clamped_to_3m0": ([0.0, 1.0, 11.0, 12.0], [0.0, 0.1, -29.9, -29.0],
                           (0, 0.3)),
    "plain_end_rule": ([0.0, 1.0, 3.0, 3.5, 5.0], [0.0, 1.0, 5.0, 5.5, 9.0],
                       (0, 2.0 / 3.0)),
}


class TestPchip:
    @pytest.mark.parametrize("name", sorted(_PCHIP_NODES))
    def test_slopes_match_scipy(self, name):
        x, y, (k, slope) = _PCHIP_NODES[name]
        x, y = np.array(x), np.array(y)
        d = _pchip_slopes(x, y)
        np.testing.assert_allclose(d, PchipInterpolator(x, y).derivative()(x),
                                   rtol=1e-14, atol=1e-15)
        assert d[k] == pytest.approx(slope, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", [
        StateSpec.eigenstate(0),
        StateSpec.eigenstate(12),
        StateSpec.mixture({0: 0.5, 1: 0.5}),
    ], ids=["ground", "n12", "rho01"])
    def test_table_matches_scipy_antiderivative(self, spec):
        table = _cdf_table(spec)
        cdf = scipy_cdf(spec, table.y)
        np.testing.assert_allclose(table.coeffs, cdf.c, rtol=1e-12, atol=0.0)
        vals = cdf(table.y)
        np.testing.assert_allclose(table.cdf_vals, vals / vals[-1],
                                   rtol=0.0, atol=1e-13)
        assert table.total == pytest.approx(vals[-1], rel=1e-13)


class TestMle:
    def test_gaussian_fit_matches_moments(self):
        # For eigenstate 0 the MLE is the sample mean and (biased) std.
        batch = sample(StateSpec.eigenstate(0), ModelPoint(2.0, 1.3), 5000, seed=3)
        fit = mle_fit(batch)
        assert fit.mu == pytest.approx(float(np.mean(batch.draws)), abs=1e-10)
        assert fit.sigma == pytest.approx(float(np.std(batch.draws)), abs=1e-10)

    def test_matches_reference_compass_search(self):
        # The log-likelihood is -inf wherever a sample meets a node of |2>,
        # so a fit that strays into a neighbouring cell shows here as a gap
        # of order 0.01 sigma.  Seeds 44 and 53 are batches on which Newton
        # started from the moment initializer ends in such a cell.
        spec = StateSpec.eigenstate(2)
        point = ModelPoint(0.3, 1.2)
        for seed in range(40, 60):
            batch = sample(spec, point, 5000, seed=seed)
            fit = mle_fit(batch)
            mu, sigma = compass_fit(spec, batch.draws)
            assert abs(fit.mu - mu) <= 1e-6 * sigma
            assert abs(fit.sigma - sigma) <= 1e-6 * sigma

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

    def test_failed_newton_resumes_compass_search(self, monkeypatch):
        # With every Newton pass refused, the fit is the compass search's
        # own result, bit for bit.
        monkeypatch.setattr(hermgauss.estimation, "_loglik_jet",
                            lambda *args: None)
        spec = StateSpec.eigenstate(1)
        batch = sample(spec, ModelPoint(0.4, 0.9), 2000, seed=6)
        fit = mle_fit(batch)
        assert (fit.mu, fit.sigma) == compass_fit(spec, batch.draws)

    def test_evaluation_budget_is_enforced(self):
        batch = sample(StateSpec.eigenstate(2), ORIGIN, 500, seed=2)
        with pytest.raises(RuntimeError, match="12 objective evaluations"):
            mle_fit(batch, max_iterations=12)

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
        assert rep.failure_reasons == ()
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
        def failing_fit(batch):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(hermgauss.estimation, "mle_fit", failing_fit)
        with pytest.raises(RuntimeError, match="30 of 30") as info:
            crb_experiment(StateSpec.eigenstate(0), ORIGIN,
                           trials=30, samples_per_trial=50, seed=1)
        assert str(info.value.__cause__) == "no convergence"

    def test_failure_reasons_are_reported(self, monkeypatch):
        real_fit = hermgauss.estimation.mle_fit
        calls = []

        def flaky_fit(batch):
            calls.append(1)
            if len(calls) in (1, 3):
                raise RuntimeError(f"no convergence in call {len(calls)}")
            return real_fit(batch)

        monkeypatch.setattr(hermgauss.estimation, "mle_fit", flaky_fit)
        rep = crb_experiment(StateSpec.eigenstate(0), ORIGIN,
                             trials=32, samples_per_trial=50, seed=1)
        assert rep.failed_trials == (0, 2)
        assert rep.failure_reasons == ("RuntimeError: no convergence in call 1",
                                       "RuntimeError: no convergence in call 3")
        assert rep.estimates.shape == (30, 2)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            crb_experiment(StateSpec.eigenstate(0), ORIGIN,
                           trials=10, samples_per_trial=100, seed=0)
