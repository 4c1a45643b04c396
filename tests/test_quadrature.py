import math

import numpy as np
import pytest

from hermgauss.hermite import hermite_normalized_all
from hermgauss.models import StateSpec, kernel
from hermgauss.quadrature import (
    IntegrandError,
    NonRemovableSingularityError,
    QuadConfig,
    guarded_ratio,
    integrate_real_line,
    truncation_halfwidth,
)


def gaussian_moment(k):
    """int y^{2k} e^{-y^2} dy = Gamma(k + 1/2), exact reference."""
    return math.gamma(k + 0.5)


class TestIntegrateRealLine:
    def test_gaussian_integral(self):
        res = integrate_real_line(lambda y: np.exp(-y * y))
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_hermite_orthogonality_pair(self):
        def integrand(y):
            psi = hermite_normalized_all(5, y)
            # back out e^{-y^2} H_3 H_5 up to the (finite, small-n) scale
            a3 = math.sqrt(2.0 ** 3 * math.factorial(3))
            a5 = math.sqrt(2.0 ** 5 * math.factorial(5))
            return psi[3] * psi[5] * a3 * a5

        res = integrate_real_line(integrand, degree_hint=9)
        assert abs(res.value) < 1e-10

    def test_kernel_mass_is_inverse_sqrt2(self):
        kf = kernel(StateSpec.eigenstate(4))
        res = integrate_real_line(kf.f, degree_hint=kf.degree_hint)
        assert res.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)

    @pytest.mark.parametrize("k", [*range(11), "stacked"])
    def test_tolerance_contract_on_moments(self, k):
        # "stacked" integrates all eleven moments as one (11, n) integrand.
        cfg = QuadConfig()
        ks = np.arange(11) if k == "stacked" else np.array(k)
        res = integrate_real_line(
            lambda y: y ** (2 * ks[..., None]) * np.exp(-y * y),
            cfg, degree_hint=2 * int(ks.max()) + 1)
        exact = np.array([gaussian_moment(j) for j in ks.flat])
        assert res.converged
        assert np.all(np.abs(res.value - exact)
                      <= np.maximum(cfg.rel_tol * np.abs(exact), cfg.abs_tol))

    def test_determinism(self):
        def f(y):
            return np.exp(-y * y) * np.cos(3 * y)

        a = integrate_real_line(f, degree_hint=6)
        b = integrate_real_line(f, degree_hint=6)
        assert a == b

    def test_refinement_respects_requested_tolerance(self):
        # Every run meets its own requested relative tolerance, down to a
        # small additive allowance for the summation roundoff floor.
        for k in (2, 5, 8):
            exact = gaussian_moment(k)
            for rel in (1e-6, 1e-8, 1e-12):
                cfg = QuadConfig(rel_tol=rel, abs_tol=1e-15)
                res = integrate_real_line(
                    lambda y: y ** (2 * k) * np.exp(-y * y), cfg, 2 * k + 1)
                err = abs(res.value - exact)
                assert err <= rel * exact + 64 * np.finfo(float).eps * exact

    def test_non_finite_integrand_raises_with_location(self):
        def f(y):
            out = np.exp(-y * y)
            out[y > 1.0] = np.nan
            return out

        with pytest.raises(IntegrandError) as err:
            integrate_real_line(f)
        assert err.value.y > 1.0

    def test_budget_exhaustion_reports_nonconvergence(self):
        cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_evaluations=300)
        res = integrate_real_line(lambda y: np.exp(-y * y) * np.cos(20 * y), cfg, 2)
        assert not res.converged

    def test_components_meet_their_own_tolerance(self):
        # Magnitudes 1e12 apart, and the small component needs more panels
        # than the large one: a tolerance shared with, or taken from, the
        # large component stops before the small one is resolved.
        cfg = QuadConfig(rel_tol=1e-10, abs_tol=1e-300)
        res = integrate_real_line(
            lambda y: np.stack([1e6 * np.exp(-y * y), 1e-6 * y * y * np.exp(-y * y)]),
            cfg, degree_hint=3)
        exact = np.array([1e6 * gaussian_moment(0), 1e-6 * gaussian_moment(1)])
        assert res.converged
        assert res.value.shape == res.abs_error_estimate.shape == (2,)
        assert np.all(res.abs_error_estimate <= cfg.rel_tol * exact)
        assert np.all(np.abs(res.value - exact) <= cfg.rel_tol * exact)

    def test_scalar_integrand_returns_floats(self):
        res = integrate_real_line(lambda y: np.exp(-y * y))
        assert type(res.value) is float
        assert type(res.abs_error_estimate) is float

    def test_misshapen_integrand_raises(self):
        with pytest.raises(IntegrandError):
            integrate_real_line(lambda y: np.exp(-y * y)[:-1])

    def test_truncation_halfwidth_grows_with_degree(self):
        assert truncation_halfwidth(40, 1e-12) > truncation_halfwidth(2, 1e-12)


class TestIntegrateRatio:
    def test_node_of_first_level_is_removable(self):
        kf = kernel(StateSpec.eigenstate(1))

        def num_den(y):
            f, d = kf.jet(y, 1)
            return d * d, f

        res = integrate_real_line(guarded_ratio(num_den),
                                  degree_hint=kf.degree_hint + 2)
        assert res.converged
        assert np.isfinite(res.value)

    def test_gaussian_fisher_mass(self):
        kf = kernel(StateSpec.eigenstate(0))

        def num_den(y):
            f, d = kf.jet(y, 1)
            return d * d, f

        res = integrate_real_line(guarded_ratio(num_den),
                                  degree_hint=kf.degree_hint + 2)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_third_level_reduced_component(self):
        kf = kernel(StateSpec.eigenstate(3))

        def num_den(y):
            f, d = kf.jet(y, 1)
            return d * d, f

        res = integrate_real_line(guarded_ratio(num_den),
                                  degree_hint=kf.degree_hint + 2)
        assert res.value / math.sqrt(2.0) == pytest.approx(7.0, rel=1e-9)

    def test_non_removable_singularity_is_flagged(self):
        ratio = guarded_ratio(lambda y: (np.ones_like(y), y * y))
        with pytest.raises(NonRemovableSingularityError):
            ratio(np.array([0.0, 1.0, 2.0]))

    def test_guard_fills_removable_zero(self):
        # num and den share the double zero at 0: limit is 1.
        ratio = guarded_ratio(lambda y: (y * y, y * y))
        out = ratio(np.array([0.0, 0.5]))
        assert out[0] == pytest.approx(1.0, rel=1e-6)
        assert out[1] == 1.0
