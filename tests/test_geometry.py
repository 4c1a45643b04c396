import math

import numpy as np
import pytest
import sympy as sp
from scipy.special import erf

import hermgauss.geometry
import hermgauss.quadrature
from hermgauss.geometry import (
    MetricTensor2,
    christoffel_reduced,
    crb_bound,
    curvature_finite_difference,
    geodesic_trace,
    metric_closed_form,
    metric_quadrature,
    metric_series_real,
    scalar_curvature_reduced,
    sigma_variance_bound,
)
from hermgauss.models import InvalidStateError, ModelPoint, StateSpec

ORIGIN = ModelPoint(0.0, 1.0)


def mixture_rho01():
    return StateSpec.mixture({0: 0.5, 1: 0.5})


def rho01_reduced():
    """Closed form of the 0/1 mixture metric under the standard erf."""
    c = math.sqrt(2.0 * math.e * math.pi)
    e = erf(1.0 / math.sqrt(2.0))
    return (2.0 + c * (e - 1.0), 0.0, 2.0 + c * (1.0 - e))


def ladder_metric(size):
    """Reduced metric of the real state sum_{n < size} alpha_n psi_n as
    exact polynomials in symbols alpha_n.

    In y, position is Y = (a + a^+)/sqrt(2) and d/dy is D = (a - a^+)/sqrt(2);
    with sqrt(2 pi) f = g^2 for g = sum alpha_n psi_n, the Fisher integrals
    are 2 |D alpha|^2, 2 sqrt(2) <D alpha, Y D alpha> and 4 |Y D alpha|^2 - 1.
    """
    alpha = sp.symbols(f"alpha0:{size}")
    dim = size + 2  # Y D reaches two levels above the top one
    lower = sp.zeros(dim, dim)
    for n in range(1, dim):
        lower[n - 1, n] = sp.sqrt(n)
    d_alpha = (lower - lower.T) / sp.sqrt(2) * sp.Matrix([*alpha, 0, 0])
    yd_alpha = (lower + lower.T) / sp.sqrt(2) * d_alpha
    components = (2 * d_alpha.dot(d_alpha),
                  2 * sp.sqrt(2) * d_alpha.dot(yd_alpha),
                  4 * yd_alpha.dot(yd_alpha) - 1)
    return alpha, [sp.expand(c) for c in components]


class TestClosedForm:
    def test_gaussian(self):
        m = metric_closed_form(StateSpec.eigenstate(0), ORIGIN)
        assert (m.i_mumu, m.i_musigma, m.i_sigmasigma) == (1.0, 0.0, 2.0)

    def test_third_level(self):
        m = metric_closed_form(StateSpec.eigenstate(3), ORIGIN)
        assert (m.i_mumu, m.i_sigmasigma) == (7.0, 26.0)

    def test_sigma_scaling(self):
        m = metric_closed_form(StateSpec.eigenstate(2), ModelPoint(0.0, 2.0))
        assert m.i_mumu == pytest.approx(5.0 / 4.0)
        assert m.i_sigmasigma == pytest.approx(14.0 / 4.0)

    def test_rejects_non_eigenstates(self):
        with pytest.raises(InvalidStateError):
            metric_closed_form(mixture_rho01(), ORIGIN)


class TestQuadratureMetric:
    @pytest.mark.parametrize("n", range(11))
    def test_matches_closed_form(self, n):
        q = metric_quadrature(StateSpec.eigenstate(n), ORIGIN)
        c = metric_closed_form(StateSpec.eigenstate(n), ORIGIN)
        np.testing.assert_allclose(q.reduced, c.reduced, rtol=1e-8, atol=1e-10)

    def test_mixture_rho01_erf_form(self):
        q = metric_quadrature(mixture_rho01(), ORIGIN)
        np.testing.assert_allclose(q.reduced, rho01_reduced(), rtol=1e-8)

    def test_even_superposition(self):
        s = StateSpec.superposition({0: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)})
        q = metric_quadrature(s, ORIGIN)
        assert q.reduced[0] == pytest.approx(3.0 - math.sqrt(2.0), rel=1e-10)
        assert q.reduced[1] == 0.0

    def test_forced_offdiagonal_confirms_oddness(self):
        q = metric_quadrature(mixture_rho01(), ORIGIN, force_offdiagonal=True)
        assert abs(q.reduced[1]) <= 1e-10

    @pytest.mark.parametrize("spec, force, components", [
        (StateSpec.eigenstate(2), False, 2),
        (StateSpec.superposition({0: 0.6, 1: 0.8}), False, 3),
        (StateSpec.eigenstate(2), True, 3),
    ], ids=["even", "non_even", "forced_offdiagonal"])
    def test_one_integral_per_metric(self, monkeypatch, spec, force, components):
        real = hermgauss.geometry.integrate_real_line
        results = []

        def counting(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(hermgauss.geometry, "integrate_real_line", counting)
        metric_quadrature(spec, ORIGIN, force_offdiagonal=force)
        assert len(results) == 1
        assert results[0].value.shape == (components,)

    @pytest.mark.parametrize("spec, most", [
        (StateSpec.mixture({0: 0.5, 20: 0.5}), 20),
        (StateSpec.eigenstate(40), 3),
    ], ids=["mixture_0_20", "eigenstate_40"])
    def test_refinement_is_batched(self, monkeypatch, spec, most):
        # Every pass bisects all the panels it picks in one integrand call;
        # one bisection per call takes 160 and 25 calls for these metrics.
        real = hermgauss.quadrature._panel
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hermgauss.quadrature, "_panel", counting)
        metric_quadrature(spec, ORIGIN)
        assert 1 <= len(calls) <= most

    def test_rank_one_density_matches_series(self):
        # A density table that is a pure real state factors to one packet.
        alpha = {0: 0.6, 1: -0.48, 3: 0.64}
        spec = StateSpec.density({(n, m): a * b for n, a in alpha.items()
                                  for m, b in alpha.items()})
        q = metric_quadrature(spec, ORIGIN)
        s = metric_series_real(alpha, ORIGIN)
        np.testing.assert_allclose(q.reduced, s.reduced, rtol=1e-10,
                                   atol=1e-10 * max(map(abs, s.reduced)))

    def test_density_within_eigenvalue_slack(self):
        # Eigenvalues 1 + e and -e, e = 5e-11: inside the density check's
        # tolerance; the negative direction is dropped from the kernel.
        e = 5e-11
        spec = StateSpec.density({(0, 0): 0.5, (1, 1): 0.5,
                                  (0, 1): 0.5 + e, (1, 0): 0.5 + e})
        q = metric_quadrature(spec, ORIGIN, force_offdiagonal=True)
        assert np.all(np.isfinite(q.reduced))
        assert np.all(np.linalg.eigvalsh(q.matrix()) > 0.0)
        pure = metric_series_real({0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)},
                                  ORIGIN)
        np.testing.assert_allclose(q.reduced, pure.reduced, rtol=1e-9)

    def test_point_only_rescales(self):
        s = StateSpec.eigenstate(1)
        a = metric_quadrature(s, ModelPoint(0.0, 1.0))
        b = metric_quadrature(s, ModelPoint(7.3, 0.5))
        assert a.reduced == b.reduced
        assert b.i_mumu == pytest.approx(4.0 * a.i_mumu)


class TestSeriesMetric:
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_single_term_collapses_to_eigenstate(self, n):
        m = metric_series_real({n: 1.0}, ORIGIN)
        assert m.reduced == (2 * n + 1, 0.0, 2 * n * n + 2 * n + 2)

    def test_even_pair(self):
        m = metric_series_real({0: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)}, ORIGIN)
        assert m.reduced[0] == pytest.approx(3.0 - math.sqrt(2.0), rel=1e-14)
        assert m.reduced[1] == 0.0

    def test_adjacent_pair_offdiagonal(self):
        coeffs = {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)}
        m = metric_series_real(coeffs, ORIGIN)
        q = metric_quadrature(StateSpec.superposition(coeffs), ORIGIN)
        np.testing.assert_allclose(m.reduced, q.reduced, rtol=1e-8)
        assert m.reduced[1] == pytest.approx(1.0, rel=1e-14)

    def test_requires_normalization(self):
        with pytest.raises(InvalidStateError):
            metric_series_real({0: 1.0, 2: 0.5}, ORIGIN)

    def test_matches_ladder_operator_derivation(self):
        # The series against the exact operator form, on random normalized
        # coefficient sets over levels 0..7 with some levels left empty.
        alpha, components = ladder_metric(8)
        reduced = sp.lambdify(alpha, components, "math")
        rng = np.random.default_rng(41)
        for _ in range(50):
            c = rng.normal(size=8) * (rng.random(8) < 0.7)
            c[rng.integers(8)] = 1.0
            c /= np.linalg.norm(c)
            want = reduced(*c)
            got = metric_series_real(
                {n: v for n, v in enumerate(c) if v != 0.0}, ORIGIN).reduced
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestScalarCurvature:
    @pytest.mark.parametrize("n", range(11))
    def test_eigenstate_closed_form(self, n):
        m = metric_closed_form(StateSpec.eigenstate(n), ORIGIN)
        r = scalar_curvature_reduced(m).scalar_r
        assert r == pytest.approx(-1.0 / (n * n + n + 1), abs=1e-14)

    def test_gaussian_constant_curvature(self):
        m = metric_closed_form(StateSpec.eigenstate(0), ModelPoint(2.0, 0.7))
        assert scalar_curvature_reduced(m).scalar_r == pytest.approx(-1.0)

    def test_mixture_rho01(self):
        m = metric_quadrature(mixture_rho01(), ORIGIN)
        assert scalar_curvature_reduced(m).scalar_r == pytest.approx(-0.604, abs=1e-3)

    def test_diagonal_case_identity(self):
        m = MetricTensor2(ORIGIN, (3.0, 0.0, 8.0), "closed_form")
        assert scalar_curvature_reduced(m).scalar_r == -2.0 / 8.0

    def test_degenerate_metric_rejected(self):
        m = MetricTensor2(ORIGIN, (1.0, 2.0, 1.0), "closed_form")
        with pytest.raises(ValueError):
            scalar_curvature_reduced(m)

    def test_two_dimensional_identities(self):
        m = metric_closed_form(StateSpec.eigenstate(1), ModelPoint(0.0, 1.5))
        rep = scalar_curvature_reduced(m)
        g = m.matrix()
        np.testing.assert_allclose(rep.ricci, 0.5 * rep.scalar_r * g, rtol=1e-13)
        assert rep.riemann_1212 == pytest.approx(
            0.5 * rep.scalar_r * np.linalg.det(g), rel=1e-13)


class TestFiniteDifferenceCurvature:
    def test_gaussian(self):
        rep = curvature_finite_difference(StateSpec.eigenstate(0), ORIGIN)
        assert rep.scalar_r == pytest.approx(-1.0, abs=1e-4)

    def test_second_level(self):
        rep = curvature_finite_difference(StateSpec.eigenstate(2),
                                          ModelPoint(0.5, 1.2))
        assert rep.scalar_r == pytest.approx(-1.0 / 7.0, abs=1e-4)

    def test_mixture_rho01(self):
        rep = curvature_finite_difference(mixture_rho01(), ORIGIN)
        assert rep.scalar_r == pytest.approx(-0.604, abs=1e-3)

    def test_christoffel_matches_analytic(self):
        spec = StateSpec.eigenstate(1)
        point = ModelPoint(0.3, 0.8)
        fd = curvature_finite_difference(spec, point)
        analytic = christoffel_reduced(
            metric_closed_form(spec, point).reduced, point.sigma)
        np.testing.assert_allclose(fd.christoffel, analytic, atol=1e-5)


class TestGeodesics:
    def test_zero_velocity_is_constant(self):
        tr = geodesic_trace(StateSpec.eigenstate(0), ModelPoint(1.0, 2.0),
                            (0.0, 0.0), 1.0, 100)
        np.testing.assert_array_equal(tr.samples[:, 1], 1.0)
        np.testing.assert_array_equal(tr.samples[:, 2], 2.0)

    def test_pure_sigma_motion_keeps_mu_fixed(self):
        tr = geodesic_trace(StateSpec.eigenstate(2), ModelPoint(0.4, 1.0),
                            (0.0, 0.5), 3.0, 500)
        np.testing.assert_allclose(tr.samples[:, 1], 0.4, atol=1e-14)
        assert not tr.boundary_hit

    def test_gaussian_geodesic_is_semicircle(self):
        # In coordinates (u, sigma) with u = mu/sqrt(2), the Gaussian metric
        # is a scaled hyperbolic half-plane: geodesics are semicircles
        # (u - u0)^2 + sigma^2 = r^2.
        start = ModelPoint(0.0, 1.0)
        v = (0.8, 0.4)
        tr = geodesic_trace(StateSpec.eigenstate(0), start, v, 4.0, 4000)
        u = tr.samples[:, 1] / math.sqrt(2.0)
        sig = tr.samples[:, 2]
        du0 = v[0] / math.sqrt(2.0)
        u0 = u[0] + sig[0] * v[1] / du0
        radius_sq = (u - u0) ** 2 + sig ** 2
        np.testing.assert_allclose(radius_sq, radius_sq[0], rtol=1e-8)

    def test_speed_conservation(self):
        for n in (0, 2):
            tr = geodesic_trace(StateSpec.eigenstate(n), ModelPoint(0.0, 1.0),
                                (0.3, 0.2), 5.0, 2000)
            speeds = tr.metric_speeds()
            drift = np.max(np.abs(speeds - speeds[0])) / abs(speeds[0])
            assert drift <= 1e-6

    def test_non_diagonal_state_solves_geodesic_equation(self):
        # 0.6|0> + 0.8|1> has Itilde_musigma != 0.  Central differences of
        # the samples must satisfy x'' + Gamma(x', x') = 0 with Gamma from
        # christoffel_reduced, which shares no code with the half-plane map.
        spec = StateSpec.superposition({0: 0.6, 1: 0.8})
        tr = geodesic_trace(spec, ORIGIN, (0.3, 0.2), 5.0, 2000)
        assert tr.reduced[1] == pytest.approx(0.96, rel=1e-9)
        x, v = tr.samples[:, 1:3], tr.samples[:, 3:5]
        h = tr.samples[1, 0]
        np.testing.assert_allclose((x[2:] - x[:-2]) / (2 * h), v[1:-1],
                                   rtol=0, atol=1e-6)
        acc = (x[2:] - 2 * x[1:-1] + x[:-2]) / h ** 2
        gamma_vv = np.array([
            np.einsum("kij,i,j->k", christoffel_reduced(tr.reduced, x[i, 1]),
                      v[i], v[i])
            for i in range(1, len(x) - 1)])
        assert np.max(np.abs(acc + gamma_vv)) <= 1e-5 * np.max(np.abs(acc))

    def test_boundary_halt(self):
        tr = geodesic_trace(StateSpec.eigenstate(0), ModelPoint(0.0, 0.05),
                            (0.0, -5.0), 10.0, 200)
        assert tr.boundary_hit
        assert np.all(tr.samples[:, 2] > 0.0)


class TestCrbBound:
    def test_first_level(self):
        b = crb_bound(metric_closed_form(StateSpec.eigenstate(1), ORIGIN))
        np.testing.assert_allclose(np.diag(b), [1 / 3, 1 / 6], rtol=1e-14)

    def test_gaussian_sigma2(self):
        b = crb_bound(metric_closed_form(StateSpec.eigenstate(0),
                                         ModelPoint(0.0, 2.0)))
        np.testing.assert_allclose(np.diag(b), [4.0, 2.0], rtol=1e-14)

    def test_inverse_property(self):
        m = metric_quadrature(StateSpec.superposition({0: 0.6, 1: 0.8}), ORIGIN)
        b = crb_bound(m)
        np.testing.assert_allclose(m.matrix() @ b, np.eye(2), atol=1e-12)

    def test_sigma_bound_matches_curvature(self):
        m = metric_closed_form(StateSpec.eigenstate(1), ModelPoint(0.0, 1.0))
        assert sigma_variance_bound(m) == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert sigma_variance_bound(m) == pytest.approx(crb_bound(m)[1, 1],
                                                        rel=1e-13)

    def test_singular_metric_rejected(self):
        m = MetricTensor2(ORIGIN, (1.0, 1.0, 1.0), "closed_form")
        with pytest.raises(ValueError):
            crb_bound(m)


class TestInvariances:
    def test_r_invariant_over_random_points(self):
        spec = StateSpec.superposition({0: 0.6, 3: 0.8})
        rng = np.random.default_rng(9)
        values = []
        for _ in range(5):
            p = ModelPoint(float(rng.uniform(-5, 5)), float(rng.uniform(0.2, 4)))
            values.append(scalar_curvature_reduced(
                metric_quadrature(spec, p)).scalar_r)
        assert max(values) - min(values) <= 1e-8

    def test_diagonality_of_even_family(self):
        specs = [
            StateSpec.mixture({0: 0.2, 1: 0.3, 4: 0.5}),
            StateSpec.superposition({1: 0.6, 3: -0.8}),
        ]
        for spec in specs:
            q = metric_quadrature(spec, ORIGIN, force_offdiagonal=True)
            assert abs(q.reduced[1]) <= 1e-10
