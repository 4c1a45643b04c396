import math

import numpy as np
import pytest

from hermgauss.hermite import hermite_normalized_all
from hermgauss.models import StateSpec, kernel
from hermgauss.quadrature import (
    IntegrandError,
    QuadConfig,
    _panel,
    integrate_real_line,
    truncation_halfwidth,
)


def gaussian_moment(k):
    """int y^{2k} e^{-y^2} dy = Gamma(k + 1/2), exact reference."""
    return math.gamma(k + 0.5)


def serial_reference(integrand, config, degree_hint):
    """Adaptive Gauss-Kronrod that bisects one panel per pass: the panel with
    the largest error against its component's tolerance, leftmost of ties."""
    cut = truncation_halfwidth(degree_hint, config.abs_tol)
    n0 = max(8, degree_hint + 2)
    edges = np.linspace(-cut, cut, n0 + n0 % 2 + 1)
    values, errors, _ = _panel(integrand, edges[:-1], edges[1:])
    while True:
        total = np.array([math.fsum(v) for v in values])
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(total))
        if all(math.fsum(e) <= t for e, t in zip(errors, tol)):
            return total
        i = int(np.argmax((errors / tol[:, None]).max(axis=0)))
        edges = np.insert(edges, i + 1, 0.5 * (edges[i] + edges[i + 1]))
        v, e, _ = _panel(integrand, edges[i:i + 2], edges[i + 1:i + 3])
        values = np.concatenate([values[:, :i], v, values[:, i + 1:]], axis=1)
        errors = np.concatenate([errors[:, :i], e, errors[:, i + 1:]], axis=1)


def oscillating(y):
    return np.exp(-y * y) * np.cos(20.0 * y)


def even_moments(y):
    return y ** (2 * np.arange(11)[:, None]) * np.exp(-y * y)


def fisher_integrand(spec):
    kf = kernel(spec)
    return (lambda y: y ** np.arange(3)[:, None] * kf.fisher_ratio(y),
            kf.degree_hint + 6)


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

    @pytest.mark.parametrize("case", ["oscillating", "moments", "fisher"])
    def test_agrees_with_serial_reference(self, case):
        # Batched and one-panel-per-pass refinement end on different
        # partitions of the same window; both meet the tolerance, and they
        # agree far inside it.  The exact values e^{-100} sqrt(pi) of the
        # oscillating integral and the odd off-diagonal Fisher integral of
        # an even state are zero to double precision, so those components
        # are compared against a scale instead: sqrt(pi) = int e^{-y^2}, and
        # the largest Fisher component (None).
        integrand, degree_hint, scale = {
            "oscillating": (oscillating, 2, math.sqrt(math.pi)),
            "moments": (even_moments, 21, 0.0),
            "fisher": (*fisher_integrand(StateSpec.mixture({0: 0.5, 20: 0.5})),
                       None),
        }[case]
        ref = serial_reference(integrand, QuadConfig(), degree_hint)
        scale = np.abs(ref).max() if scale is None else scale
        res = integrate_real_line(integrand, QuadConfig(), degree_hint)
        assert res.converged
        assert np.all(np.abs(res.value - ref)
                      <= np.maximum(1e-12 * np.abs(ref), 1e-15 * scale))

    def test_vector_refinement_is_deterministic(self):
        integrand, degree_hint = fisher_integrand(StateSpec.mixture({0: 0.5, 20: 0.5}))
        a = integrate_real_line(integrand, degree_hint=degree_hint)
        b = integrate_real_line(integrand, degree_hint=degree_hint)
        assert a == b

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_results_compare_by_value(self, case):
        integrand, degree_hint = {
            "scalar": (oscillating, 2),
            "vector": fisher_integrand(StateSpec.mixture({0: 0.5, 20: 0.5})),
        }[case]
        a = integrate_real_line(integrand, QuadConfig(), degree_hint)
        b = integrate_real_line(integrand, QuadConfig(), degree_hint)
        c = integrate_real_line(integrand, QuadConfig(rel_tol=1e-6, abs_tol=1e-8),
                                degree_hint)
        assert a == b and not a != b
        assert a != c and not a == c
        assert a != (a.value, a.abs_error_estimate, a.evaluations, a.converged)

    @pytest.mark.parametrize("budget", [120, 149, 150, 1000, 1234, 5000])
    def test_batches_are_trimmed_to_the_budget(self, budget):
        # Unreachable tolerance: refinement runs until not even one
        # bisection (30 evaluations) fits in what the budget has left.
        cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_evaluations=budget)
        res = integrate_real_line(oscillating, cfg, 2)
        assert not res.converged
        assert budget - 30 < res.evaluations <= budget

    def test_initial_partition_is_evaluated_past_the_budget(self):
        cfg = QuadConfig(max_evaluations=50)
        res = integrate_real_line(lambda y: np.exp(-y * y), cfg, 2)
        assert not res.converged
        assert res.evaluations == 8 * 15

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
        res = integrate_real_line(kf.fisher_ratio, degree_hint=kf.degree_hint + 2)
        assert res.converged
        assert np.isfinite(res.value)

    def test_gaussian_fisher_mass(self):
        kf = kernel(StateSpec.eigenstate(0))
        res = integrate_real_line(kf.fisher_ratio, degree_hint=kf.degree_hint + 2)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_third_level_reduced_component(self):
        kf = kernel(StateSpec.eigenstate(3))
        res = integrate_real_line(kf.fisher_ratio, degree_hint=kf.degree_hint + 2)
        assert res.value / math.sqrt(2.0) == pytest.approx(7.0, rel=1e-9)
