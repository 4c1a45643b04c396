import cmath
import dataclasses
import io
import json
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import hermgauss.geometry
import hermgauss.quadrature
from hermgauss.cli import parse_config, run
from hermgauss.geometry import (
    MetricTensor2,
    christoffel_reduced,
    crb_bound,
    curvature_finite_difference,
    geodesic_trace,
    metric_adaptive,
    metric_closed_form,
    metric_gauss_hermite,
    metric_quadrature,
    metric_series_real,
    scalar_curvature_reduced,
)
from hermgauss.models import InvalidStateError, ModelPoint, StateSpec, kernel
from test_verify_defects import POINT, STATES

ORIGIN = ModelPoint(0.0, 1.0)


def mixture_rho01():
    return StateSpec.mixture({0: 0.5, 1: 0.5})


def rho01_reduced():
    """Closed form of the 0/1 mixture metric under the standard erf."""
    c = math.sqrt(2.0 * math.e * math.pi)
    e = erf(1.0 / math.sqrt(2.0))
    return (2.0 + c * (e - 1.0), 0.0, 2.0 + c * (1.0 - e))


def complex_density():
    """Rank-three density table with complex coherences; not parity even."""
    return StateSpec.density({(0, 0): 0.5, (1, 1): 0.3, (3, 3): 0.2,
                              (0, 1): 0.1 + 0.2j, (1, 0): 0.1 - 0.2j,
                              (1, 3): 0.05 - 0.1j, (3, 1): 0.05 + 0.1j})


def ground_metric(point):
    """The |0> metric at ``point`` by the exact Gauss-Hermite rule."""
    return metric_quadrature(StateSpec.eigenstate(0), point)


def scaled_err(got, want):
    """Largest component error relative to the largest reference component."""
    return float(np.max(np.abs(np.subtract(got, want))) / np.max(np.abs(want)))


@st.composite
def rank_one_states(draw):
    """(state, real coefficients) whose kernel has rank one: a real
    superposition up to level 60, the same times a global phase, a one-term
    mixture or the density table of a real pure state."""
    top = draw(st.integers(0, 60))
    levels = sorted(set(draw(st.lists(st.integers(0, top), max_size=4))) | {top})
    size = st.floats(0.05, 1.0)
    v = np.array([draw(size) * draw(st.sampled_from([-1.0, 1.0]))
                  for _ in levels])
    coeffs = dict(zip(levels, map(float, v / np.linalg.norm(v))))
    kind = draw(st.sampled_from(["real", "phase", "mixture", "density"]))
    if kind == "real":
        return StateSpec.superposition(coeffs), coeffs
    if kind == "phase":
        phase = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        return StateSpec.superposition(
            {n: phase * a for n, a in coeffs.items()}), coeffs
    if kind == "mixture":
        return StateSpec.mixture({top: 1.0}), {top: 1.0}
    return StateSpec.density({(n, m): a * b for n, a in coeffs.items()
                              for m, b in coeffs.items()}), coeffs


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
        q = metric_adaptive(mixture_rho01(), ORIGIN, force_offdiagonal=True)
        assert abs(q.reduced[1]) <= 1e-10

    @pytest.mark.parametrize("spec, force, components", [
        (StateSpec.eigenstate(2), False, 2),
        (StateSpec.superposition({0: 0.6, 1: 0.8}), False, 3),
        (StateSpec.eigenstate(2), True, 3),
    ], ids=["even", "non_even", "forced_offdiagonal"])
    def test_one_integral_per_metric(self, monkeypatch, spec, force, components):
        # Only the two even diagonal integrands go on the half-line.
        real = hermgauss.geometry.integrate_real_line
        results = []

        def counting(*args, **kwargs):
            results.append((real(*args, **kwargs), kwargs.get("even", False)))
            return results[-1][0]

        monkeypatch.setattr(hermgauss.geometry, "integrate_real_line", counting)
        metric_adaptive(spec, ORIGIN, force_offdiagonal=force)
        (result, even), = results
        assert result.value.shape == (components,)
        assert even == (components == 2)

    @pytest.mark.parametrize("spec, most", [
        (StateSpec.mixture({0: 0.5, 20: 0.5}), 10),
        (StateSpec.eigenstate(40), 3),
    ], ids=["mixture_0_20", "eigenstate_40"])
    def test_refinement_is_batched(self, monkeypatch, spec, most):
        # Every pass quarters all the panels it picks in one integrand call;
        # one bisection per call takes 160 and 25 calls for these metrics.
        real = hermgauss.quadrature._panel
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hermgauss.quadrature, "_panel", counting)
        metric_adaptive(spec, ORIGIN)
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
        q = metric_adaptive(spec, ORIGIN, force_offdiagonal=True)
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


class TestHalfLineMetric:
    """``metric_adaptive`` on parity-even states, off-diagonal not forced: the
    diagonal integrals on y >= 0, doubled, against closed forms."""

    def test_rho01_erf_form(self):
        m = metric_adaptive(mixture_rho01(), ORIGIN)
        assert m.reduced[1] == 0.0
        np.testing.assert_allclose(m.reduced, rho01_reduced(), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [0, 3, 12, 40])
    def test_eigenstate_closed_form(self, n):
        spec = StateSpec.eigenstate(n)
        m = metric_adaptive(spec, ORIGIN)
        np.testing.assert_allclose(m.reduced, metric_closed_form(spec, ORIGIN).reduced,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("nbar", [0.5, 2.0])
    def test_thermal_state_is_gaussian(self, nbar):
        # Weights (1 - q) q^n, q = nbar / (nbar + 1), over levels 0..200 (the
        # tail left out is below 1e-35): by Mehler's formula the density is
        # Gaussian with Var y = nbar + 1/2, so Itilde = (1/(2 nbar + 1), 0, 2)
        # and R = -1, as for the normal family.  Itilde_sigmasigma is
        # sqrt(2) times an integral near 2.1 at rel_tol 1e-10, less 1.
        q = nbar / (nbar + 1.0)
        spec = StateSpec.mixture({n: (1.0 - q) * q ** n for n in range(201)})
        m = metric_adaptive(spec, ORIGIN)
        np.testing.assert_allclose(m.reduced, (1.0 / (2.0 * nbar + 1.0), 0.0, 2.0),
                                   rtol=2e-10, atol=0.0)
        assert scalar_curvature_reduced(m).scalar_r == pytest.approx(-1.0, abs=2e-10)


class TestGaussHermiteMetric:
    @pytest.mark.parametrize("n", [0, 100, 200])
    def test_matches_closed_form(self, n):
        spec = StateSpec.eigenstate(n)
        g = metric_gauss_hermite(spec, ORIGIN)
        c = metric_closed_form(spec, ORIGIN)
        assert g.path == "gauss_hermite"
        assert g.reduced[1] == 0.0
        np.testing.assert_allclose(g.reduced, c.reduced, rtol=1e-12, atol=0.0)

    def test_rejects_rank_two(self):
        with pytest.raises(InvalidStateError, match="rank 2"):
            metric_gauss_hermite(mixture_rho01(), ORIGIN)

    @pytest.mark.parametrize("spec, path", [
        (StateSpec.eigenstate(40), "gauss_hermite"),
        (StateSpec.eigenstate(200), "gauss_hermite"),
        (StateSpec.superposition({0: 0.5, 3: -0.5, 6: 0.5, 11: 0.5}),
         "gauss_hermite"),
        (StateSpec.superposition({0: 0.6j, 3: -0.8j}), "gauss_hermite"),
        (mixture_rho01(), "quadrature"),
        (StateSpec.superposition({0: 0.6, 1: 0.8j}), "quadrature"),
    ], ids=["eigenstate", "deep", "four_level", "imaginary", "rho01", "complex"])
    def test_dispatch_by_rank(self, monkeypatch, spec, path):
        real = hermgauss.geometry.integrate_real_line
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hermgauss.geometry, "integrate_real_line", counting)
        m = metric_quadrature(spec, ORIGIN)
        assert m.path == path
        assert len(calls) == (path == "quadrature")

    @settings(max_examples=60, deadline=None)
    @given(rank_one_states())
    def test_matches_adaptive_and_series(self, state):
        spec, coeffs = state
        assert kernel(spec).rank == 1
        g = metric_gauss_hermite(spec, ORIGIN).reduced
        a = metric_adaptive(spec, ORIGIN, force_offdiagonal=True).reduced
        s = metric_series_real(coeffs, ORIGIN).reduced
        assert scaled_err(g, a) <= 1e-10
        assert scaled_err(g, s) <= 1e-12


class TestCachedHermiteRows:
    """``metric_gauss_hermite`` reads the Hermite rows cached with the rule;
    recomputing them gives the same metric, bit for bit."""

    def states(self):
        yield from (StateSpec.eigenstate(n) for n in range(201))
        rng = np.random.default_rng(2303)
        for _ in range(50):
            top = int(rng.integers(0, 41))
            levels = set(rng.choice(top + 1, size=min(top + 1, 4), replace=False))
            yield StateSpec.superposition(
                {int(n): rng.normal() for n in levels | {top}}, renormalize=True)

    def test_rows_match_recomputed_metric(self, monkeypatch):
        point = ModelPoint(0.3, 1.2)
        cached = [metric_gauss_hermite(spec, point).reduced for spec in self.states()]
        rule = hermgauss.geometry._hermite_rule
        monkeypatch.setattr(hermgauss.geometry, "_hermite_rule",
                            lambda top: rule(top)[:2] + (None,))
        fresh = [metric_gauss_hermite(spec, point).reduced for spec in self.states()]
        assert len(cached) == 251
        assert cached == fresh

    def test_rule_is_shared_and_read_only(self):
        y, w, rows = hermgauss.geometry._hermite_rule(7)
        assert hermgauss.geometry._hermite_rule(7)[2] is rows
        assert y.shape == w.shape == (10,) and rows.shape == (8, 10)
        assert not (y.flags.writeable or w.flags.writeable or rows.flags.writeable)


class TestCoherentStates:
    """A coherent state |alpha> has a Gaussian position density centred at
    y0 = sqrt(2) Re(alpha): the ground state moved by y0, so
    Itilde = (1, sqrt(2) y0, 2 + 2 y0^2) and R = -1.  Truncated at level
    59 and renormalized, its kernel has rank two, so the adaptive integral
    takes it, off-diagonal included unless Re(alpha) = 0."""

    @pytest.mark.parametrize("alpha", [1.5 + 0.5j, 0.8j, 2.0 - 1.0j],
                             ids=["1.5+0.5i", "0.8i", "2-i"])
    def test_closed_form(self, alpha):
        coeffs, c = {}, cmath.exp(-0.5 * abs(alpha) ** 2)
        for n in range(60):
            coeffs[n] = c
            c *= alpha / math.sqrt(n + 1)
        spec = StateSpec.superposition(coeffs, renormalize=True)
        assert kernel(spec).rank == 2
        y0 = math.sqrt(2.0) * alpha.real
        m = metric_quadrature(spec, ModelPoint(0.3, 1.2))
        assert m.path == "quadrature"
        # atol: at alpha = 0.8i the off-diagonal is zero up to rounding.
        np.testing.assert_allclose(m.reduced, (1.0, math.sqrt(2.0) * y0,
                                               2.0 + 2.0 * y0 * y0),
                                   rtol=1e-12, atol=1e-15)
        assert scalar_curvature_reduced(m).scalar_r == pytest.approx(-1.0, abs=1e-12)


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

    @pytest.mark.parametrize("coeffs", [{0: math.nan}, {0: 0.6, 1: math.nan}],
                             ids=["nan", "nan_second"])
    def test_nan_coefficient_fails_normalization(self, coeffs):
        # A NaN coefficient must not reach MetricTensor2: the number rule
        # refuses it before the normalization check could see a NaN sum.
        with pytest.raises(InvalidStateError,
                           match="^series coefficient must be a finite number, got nan"):
            metric_series_real(coeffs, ORIGIN)

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidStateError,
                           match="level must be an integer >= 0"):
            metric_series_real({-1: 0.6, 0: 0.8}, ORIGIN)

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
        # The type, not the consumer, rejects a metric that is not
        # positive definite.
        with pytest.raises(ValueError, match="not positive definite"):
            MetricTensor2(ORIGIN, (1.0, 2.0, 1.0), "closed_form")

    @pytest.mark.parametrize("bound", [scalar_curvature_reduced, crb_bound],
                             ids=["curvature", "crb"])
    def test_nan_metric_rejected(self, bound):
        # No NaN metric reaches ``bound``: the type's number rule rejects
        # one built directly or by replacing the components of a valid one.
        valid = MetricTensor2(ORIGIN, (3.0, 0.0, 8.0), "closed_form")
        for build in (
                lambda: MetricTensor2(ORIGIN, (math.nan, 0.0, 1.0), "closed_form"),
                lambda: dataclasses.replace(valid, reduced=(math.nan, 0.0, 1.0))):
            with pytest.raises(ValueError,
                               match=r"^reduced\[0\] must be a finite number, got nan") as info:
                bound(build())
            assert [e.name for e in info.traceback[-2:]] == ["__post_init__", "_number"]

    @pytest.mark.parametrize("reduced", [
        (-1.0, 0.0, -1.0), (0.0, 0.0, 1.0), (1.0, math.nan, 1.0),
        (1.0, 0.0, math.nan), (math.inf, 0.0, 1.0), (1.0, 0.0, math.inf),
        (1.0, math.inf, 1.0)])
    def test_metric_tensor_invariant(self, reduced):
        # The number rule refuses a NaN or infinite component, naming it;
        # the positive-definite test refuses the finite ones.
        pattern = ("not positive definite" if all(map(math.isfinite, reduced))
                   else r"^reduced\[\d\] must be a finite number")
        with pytest.raises(ValueError, match=pattern):
            MetricTensor2(ORIGIN, reduced, "closed_form")

    def test_metric_tensor_holds_floats(self):
        m = MetricTensor2(ORIGIN, (np.float64(3.0), 0, 8), "closed_form")
        assert m.reduced == (3.0, 0.0, 8.0)
        assert all(type(v) is float for v in m.reduced)

    def test_two_dimensional_identities(self):
        # A diagonal metric and one with an off-diagonal, which det(g) sees.
        for m in (metric_closed_form(StateSpec.eigenstate(1), ModelPoint(0.0, 1.5)),
                  MetricTensor2(ModelPoint(0.3, 1.5), (3.0, 0.7, 8.0), "quadrature")):
            rep = scalar_curvature_reduced(m)
            g = m.matrix()
            np.testing.assert_allclose(rep.ricci, 0.5 * rep.scalar_r * g, rtol=1e-13)
            assert rep.riemann_1212 == pytest.approx(
                0.5 * rep.scalar_r * np.linalg.det(g), rel=1e-13)


class TestFiniteDifferenceCurvature:
    def test_gaussian(self):
        rep = curvature_finite_difference(
            metric_quadrature(StateSpec.eigenstate(0), ORIGIN))
        assert rep.scalar_r == pytest.approx(-1.0, abs=1e-4)

    def test_second_level(self):
        rep = curvature_finite_difference(
            metric_quadrature(StateSpec.eigenstate(2), ModelPoint(0.5, 1.2)))
        assert rep.scalar_r == pytest.approx(-1.0 / 7.0, abs=1e-4)

    def test_mixture_rho01(self):
        rep = curvature_finite_difference(metric_quadrature(mixture_rho01(),
                                                            ORIGIN))
        assert rep.scalar_r == pytest.approx(-0.604, abs=1e-3)

    def test_christoffel_matches_analytic(self):
        # An eigenstate, rho01 (a diagonal mixed metric) and a density table
        # with an off-diagonal metric, each against the reduced formula.
        point = ModelPoint(0.3, 0.8)
        eigen = StateSpec.eigenstate(1)
        density = complex_density()
        for spec, reduced in [
                (eigen, metric_closed_form(eigen, point).reduced),
                (mixture_rho01(), rho01_reduced()),
                (density, metric_quadrature(density, point).reduced)]:
            fd = curvature_finite_difference(metric_quadrature(spec, point))
            analytic = christoffel_reduced(reduced, point.sigma)
            np.testing.assert_allclose(fd.christoffel, analytic, atol=1e-5)

    def test_christoffel_matches_levi_civita_sum(self):
        # Gamma^k_ij = g^kl (d_i g_lj + d_j g_li - d_l g_ij) / 2 with the
        # exact d_sigma g = -2 A / sigma^3 (d_mu g = 0), on random positive-
        # definite A up to |b| = 0.999 sqrt(ac).
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, c = np.exp(rng.uniform(-2.0, 2.0, 2))
            b = 0.999 * math.sqrt(a * c) * rng.uniform(-1.0, 1.0)
            sigma = math.exp(rng.uniform(-1.5, 1.5))
            amat = np.array([[a, b], [b, c]])
            ginv = np.linalg.inv(amat / sigma**2)
            dg = np.zeros((2, 2, 2))  # dg[l, i, j] = d_l g_ij
            dg[1] = -2.0 * amat / sigma**3
            expect = 0.5 * (np.einsum("kl,ilj->kij", ginv, dg)
                            + np.einsum("kl,jli->kij", ginv, dg)
                            - np.einsum("kl,lij->kij", ginv, dg))
            got = christoffel_reduced((a, b, c), sigma)
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_integrates_nothing(self, monkeypatch):
        # The stencil is assembled from the given metric's reduced
        # components; curvature_finite_difference integrates nothing itself.
        metric = metric_quadrature(complex_density(), ModelPoint(-0.4, 1.3))

        def refuse(*args, **kwargs):
            raise AssertionError("integrate_real_line called")

        monkeypatch.setattr(hermgauss.geometry, "integrate_real_line", refuse)
        rep = curvature_finite_difference(metric)
        assert rep.scalar_r == pytest.approx(
            scalar_curvature_reduced(metric).scalar_r, abs=1e-4)


class TestGeodesics:
    def test_zero_velocity_is_constant(self):
        tr = geodesic_trace(ground_metric(ModelPoint(1.0, 2.0)), (0.0, 0.0),
                            1.0, 100)
        np.testing.assert_array_equal(tr.samples[:, 1], 1.0)
        np.testing.assert_array_equal(tr.samples[:, 2], 2.0)

    def test_pure_sigma_motion_keeps_mu_fixed(self):
        tr = geodesic_trace(
            metric_quadrature(StateSpec.eigenstate(2), ModelPoint(0.4, 1.0)),
            (0.0, 0.5), 3.0, 500)
        np.testing.assert_allclose(tr.samples[:, 1], 0.4, atol=1e-14)
        assert not tr.boundary_hit

    def test_gaussian_geodesic_is_semicircle(self):
        # In coordinates (u, sigma) with u = mu/sqrt(2), the Gaussian metric
        # is a scaled hyperbolic half-plane: geodesics are semicircles
        # (u - u0)^2 + sigma^2 = r^2.
        start = ModelPoint(0.0, 1.0)
        v = (0.8, 0.4)
        tr = geodesic_trace(ground_metric(start), v, 4.0, 4000)
        u = tr.samples[:, 1] / math.sqrt(2.0)
        sig = tr.samples[:, 2]
        du0 = v[0] / math.sqrt(2.0)
        u0 = u[0] + sig[0] * v[1] / du0
        radius_sq = (u - u0) ** 2 + sig ** 2
        np.testing.assert_allclose(radius_sq, radius_sq[0], rtol=1e-8)

    def test_speed_conservation(self):
        for n in (0, 2):
            m = metric_quadrature(StateSpec.eigenstate(n), ORIGIN)
            tr = geodesic_trace(m, (0.3, 0.2), 5.0, 2000)
            speeds = tr.metric_speeds()
            drift = np.max(np.abs(speeds - speeds[0])) / abs(speeds[0])
            assert drift <= 1e-6

    def test_non_diagonal_state_solves_geodesic_equation(self):
        # 0.6|0> + 0.8|1> has Itilde_musigma != 0.  Central differences of
        # the samples must satisfy x'' + Gamma(x', x') = 0 with Gamma from
        # christoffel_reduced, which shares no code with the half-plane map.
        spec = StateSpec.superposition({0: 0.6, 1: 0.8})
        tr = geodesic_trace(metric_quadrature(spec, ORIGIN), (0.3, 0.2), 5.0,
                            2000)
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

    def test_accepts_any_route(self):
        metric = metric_closed_form(StateSpec.eigenstate(2), ModelPoint(0.3, 1.4))
        tr = geodesic_trace(metric, (0.3, 0.2), 1.0, 4)
        assert tr.reduced == metric.reduced
        assert tuple(tr.samples[0, 1:3]) == (0.3, 1.4)

    @pytest.mark.parametrize("n", [0, 5])
    def test_eigenstate_takes_metric_quadrature(self, n):
        # One metric path for every state: the geodesic command traces the
        # exact Gauss-Hermite rule's metric at rank one, not the closed form.
        spec, start = StateSpec.eigenstate(n), ModelPoint(0.3, 1.4)
        out = io.StringIO()
        cfg = parse_config(json.dumps({
            "state": {"type": "eigenstate", "n": n},
            "point": {"mu": start.mu, "sigma": start.sigma},
            "command": "geodesic",
            "geodesic": {"velocity": [0.3, 0.2], "tau_end": 1.0, "steps": 4}}))
        assert run(cfg, out) == 0
        tr = geodesic_trace(metric_quadrature(spec, start), (0.3, 0.2), 1.0, 4)
        assert json.loads(out.getvalue())["samples"] == tr.samples.tolist()

    @pytest.mark.parametrize("velocity, tau_end, message", [
        ((0.3, 0.2), math.nan, "tau_end must be a finite number"),
        ((0.3, 0.2), math.inf, "tau_end must be a finite number"),
        ((math.inf, 0.0), 1.0, r"velocity\[0\] must be a finite number"),
        ((0.0, math.nan), 1.0, r"velocity\[1\] must be a finite number"),
        ((0.0, 1.0, 5.0), 1.0, "velocity must be a pair of numbers"),
        ((0.0,), 1.0, "velocity must be a pair of numbers"),
        (0.5, 1.0, "velocity must be a pair of numbers"),
        (None, 1.0, "velocity must be a pair of numbers"),
        (("a", 1.0), 1.0, r"velocity\[0\] must be a number")],
        ids=["tau_end_nan", "tau_end_inf", "velocity_inf", "velocity_nan",
             "velocity_three", "velocity_one", "velocity_scalar",
             "velocity_none", "velocity_string"])
    def test_non_finite_input_rejected(self, velocity, tau_end, message):
        with pytest.raises(ValueError, match="^" + message):
            geodesic_trace(metric_closed_form(StateSpec.eigenstate(1), ORIGIN),
                           velocity, tau_end, 10)

    def test_requires_a_step(self):
        with pytest.raises(ValueError, match="^steps must be an integer >= 1"):
            geodesic_trace(metric_closed_form(StateSpec.eigenstate(1), ORIGIN),
                           (0.3, 0.2), 1.0, 0)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True],
                             ids=["fraction", "float", "bool"])
    def test_steps_must_be_an_int(self, steps):
        # A float would space the rows by tau_end / steps and run past
        # tau_end: 2.5 gave tau = 0, 0.4, 0.8, 1.2.
        with pytest.raises(ValueError, match="^steps must be an integer >= 1, got"):
            geodesic_trace(metric_closed_form(StateSpec.eigenstate(0), ORIGIN),
                           (0.0, 1.0), 1.0, steps)

    def test_boundary_halt(self):
        tr = geodesic_trace(ground_metric(ModelPoint(0.0, 0.05)), (0.0, -5.0),
                            10.0, 200)
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

    @pytest.mark.parametrize("state", list(STATES))
    def test_sigma_bound_matches_curvature(self, state):
        # (I^-1)_sigmasigma = sigma^2 a / (ac - b^2) = -sigma^2 R / 2 for every
        # metric of the family, Itilde_musigma != 0 included (the real
        # superposition's and the density table's).
        m = metric_quadrature(STATES[state](), POINT)
        r = scalar_curvature_reduced(m).scalar_r
        assert crb_bound(m)[1, 1] == pytest.approx(-0.5 * POINT.sigma ** 2 * r,
                                                   rel=1e-13)

    def test_singular_metric_rejected(self):
        with pytest.raises(ValueError, match="not positive definite"):
            MetricTensor2(ORIGIN, (1.0, 1.0, 1.0), "closed_form")


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
            q = metric_adaptive(spec, ORIGIN, force_offdiagonal=True)
            assert abs(q.reduced[1]) <= 1e-10
