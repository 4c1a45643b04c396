import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermder, hermval

import hermgauss.models
from hermgauss.estimation import _loglik_jet
from hermgauss.hermite import MAX_DEGREE, hermite_normalized_all
from hermgauss.models import (
    InvalidStateError,
    KernelFn,
    ModelPoint,
    PhysicalOscillator,
    StateSpec,
    from_physical,
    kernel,
    pdf,
    wavefunction,
)
from hermgauss.quadrature import integrate_real_line


def eigen_pdf_direct(n, point, x):
    """Direct evaluation of the n-th model density via float coefficients;
    independent of the normalized recurrence (valid for small n)."""
    from numpy.polynomial.hermite import hermval

    y = (np.asarray(x, dtype=float) - point.mu) / (math.sqrt(2) * point.sigma)
    c = np.zeros(n + 1)
    c[n] = 1.0
    h = hermval(y, c)
    a2 = 1.0 / (2.0 ** n * math.factorial(n))
    return np.exp(-y * y) * a2 * h * h / (math.sqrt(2 * math.pi) * point.sigma)


def kernel_jet_direct(spec, y):
    """(f, f', f'') from the table and float Hermite coefficients: each
    phi_n = a_n exp(-y^2/2) H_n(y) and its derivatives come from hermval and
    hermder, independent of the normalized recurrence and of the oscillator
    equation."""
    g = np.exp(-0.5 * y * y)
    phi = {}
    for n in {k for nm in spec.table for k in nm}:
        c = np.zeros(n + 1)
        c[n] = 1.0 / math.sqrt(2.0 ** n * math.factorial(n))
        h0, h1, h2 = (hermval(y, hermder(c, k)) for k in range(3))
        phi[n] = (g * h0, g * (h1 - y * h0), g * (h2 - 2 * y * h1 + (y * y - 1) * h0))
    out = np.zeros((3, y.size))
    for (n, m), v in spec.table.items():
        p, q = phi[n], phi[m]
        out[0] += v.real * p[0] * q[0]
        out[1] += v.real * (p[1] * q[0] + p[0] * q[1])
        out[2] += v.real * (p[2] * q[0] + 2 * p[1] * q[1] + p[0] * q[2])
    return out / math.sqrt(2 * math.pi)


class TestModelPoint:
    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            ModelPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            ModelPoint(0.0, -1.0)

    def test_y_mapping(self):
        p = ModelPoint(1.0, 2.0)
        assert p.y_of_x(1.0 + 2.0 * math.sqrt(2.0)) == pytest.approx(1.0)


class TestPhysicalOscillator:
    def test_unit_case(self):
        pt = from_physical(PhysicalOscillator(mass=1, omega0=1, x0=0))
        assert pt.mu == 0.0
        assert pt.sigma == pytest.approx(math.sqrt(0.5))

    def test_heavier_oscillator(self):
        pt = from_physical(PhysicalOscillator(mass=2, omega0=1, x0=3))
        assert (pt.mu, pt.sigma) == (3.0, 0.5)

    def test_level_energies(self):
        osc = PhysicalOscillator(mass=1, omega0=2, x0=0)
        assert osc.energy(1) == 3.0

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            PhysicalOscillator(mass=0, omega0=1, x0=0)
        with pytest.raises(ValueError):
            PhysicalOscillator(mass=1, omega0=-2, x0=0)

    @pytest.mark.parametrize("field", ["mass", "omega0", "hbar", "x0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_constants(self, field, value):
        constants = {"mass": 1.0, "omega0": 1.0, "x0": 0.0, "hbar": 1.0}
        with pytest.raises(ValueError, match="finite"):
            PhysicalOscillator(**{**constants, field: value})


class TestStateSpecValidation:
    def test_mixture_must_sum_to_one(self):
        with pytest.raises(InvalidStateError):
            StateSpec.mixture({0: 0.5, 1: 0.5001})

    def test_mixture_renormalize(self):
        s = StateSpec.mixture({0: 2.0, 1: 2.0}, renormalize=True)
        assert s.table == {(0, 0): 0.5, (1, 1): 0.5}

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidStateError):
            StateSpec.mixture({0: 1.5, 1: -0.5})

    def test_superposition_norm(self):
        with pytest.raises(InvalidStateError):
            StateSpec.superposition({0: 1.0, 1: 0.1})
        s = StateSpec.superposition({0: 1.0, 1: 1.0}, renormalize=True)
        assert abs(s.coeffs[0]) == pytest.approx(1 / math.sqrt(2))

    @pytest.mark.parametrize("build, message", [
        (lambda: StateSpec.mixture({}), "mixture needs"),
        (lambda: StateSpec.superposition({}), "superposition needs"),
        (lambda: StateSpec.density({}), "density table is empty"),
        (lambda: StateSpec.mixture({0: 0.0, 1: 0.0}, renormalize=True),
         "mixture weight"),
        (lambda: StateSpec.superposition({0: 0.0, 3: 0.0}, renormalize=True),
         "superposition"),
        (lambda: StateSpec.density({(0, 0): -0.5, (1, 1): 0.25},
                                   renormalize=True), "density trace"),
        (lambda: StateSpec.density({(0, 0): 0.5, (1, 1): 0.25}),
         "density trace is 0.75"),
    ], ids=["mixture_empty", "superposition_empty", "density_empty",
            "mixture_zero_sum", "superposition_all_zero",
            "density_negative_trace", "density_trace_not_one"])
    def test_rejected_tables(self, build, message):
        with pytest.raises(InvalidStateError, match=message):
            build()

    def test_density_renormalize(self):
        s = StateSpec.density({(0, 0): 1.5, (1, 1): 0.5, (0, 1): 0.5j,
                               (1, 0): -0.5j}, renormalize=True)
        assert s.table == {(0, 0): 0.75, (1, 1): 0.25, (0, 1): 0.25j,
                           (1, 0): -0.25j}

    @pytest.mark.parametrize("build", [
        lambda: StateSpec.mixture({0: math.nan, 1: 0.5}),
        lambda: StateSpec.mixture({0: math.inf, 1: 0.5}, renormalize=True),
        lambda: StateSpec.superposition({0: math.nan, 1: 0.5}),
        lambda: StateSpec.superposition({0: 1.0, 1: math.inf}, renormalize=True),
        lambda: StateSpec.density({(0, 0): math.nan, (1, 1): 0.5}),
        lambda: StateSpec.density({(0, 0): 0.5, (1, 1): 0.5,
                                   (0, 1): math.nan, (1, 0): math.nan}),
        lambda: StateSpec.density({(0, 0): math.inf, (1, 1): 0.5},
                                  renormalize=True),
    ], ids=["mixture_weight_nan", "mixture_weight_inf", "superposition_nan",
            "superposition_inf", "density_diagonal_nan",
            "density_coherence_nan", "density_diagonal_inf"])
    def test_non_finite_table_rejected(self, build):
        with pytest.raises(InvalidStateError):
            build()

    def test_density_hermiticity(self):
        with pytest.raises(InvalidStateError):
            StateSpec.density({(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.3})
        with pytest.raises(InvalidStateError):
            StateSpec.density({(0, 0): 0.5, (1, 1): 0.5,
                               (0, 1): 0.3j, (1, 0): 0.3j})

    def test_density_psd(self):
        # Hermitian, trace one, but indefinite.
        with pytest.raises(InvalidStateError):
            StateSpec.density({(0, 0): 0.5, (1, 1): 0.5,
                               (0, 1): 0.9, (1, 0): 0.9})

    def test_large_indefinite_density_rejected(self):
        entries = {(n, n): 1.0 / 70 for n in range(70)}
        entries[(0, 0)] += 1.0 - sum(entries.values())
        entries[(3, 66)] = entries[(66, 3)] = 0.5
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            StateSpec.density(entries)
        with pytest.raises(InvalidStateError, match="indices"):
            StateSpec.density({(201, 201): 1.0})

    def test_large_valid_density_accepted(self):
        entries = {(n, n): 1.0 / 70 for n in range(70)}
        entries[(0, 0)] += 1.0 - sum(entries.values())
        entries[(3, 66)] = entries[(66, 3)] = 0.01
        s = StateSpec.density(entries)
        assert s.max_index == 69

    def test_indices_above_cap_rejected(self):
        top = MAX_DEGREE + 1
        with pytest.raises(InvalidStateError, match="eigenstate indices"):
            StateSpec.eigenstate(top)
        with pytest.raises(InvalidStateError, match="eigenstate indices"):
            StateSpec.eigenstate(-1)
        with pytest.raises(InvalidStateError, match="mixture indices"):
            StateSpec.mixture({0: 0.5, top: 0.5})
        with pytest.raises(InvalidStateError, match="mixture indices"):
            StateSpec.mixture({-1: 1.0})
        with pytest.raises(InvalidStateError, match="superposition indices"):
            StateSpec.superposition({0: 0.6, top: 0.8})
        assert StateSpec.eigenstate(MAX_DEGREE).max_index == MAX_DEGREE

    def test_immutable(self):
        s = StateSpec.eigenstate(0)
        with pytest.raises(AttributeError):
            s.kind = "other"

    def test_parity_flags(self):
        assert StateSpec.mixture({0: 0.25, 3: 0.75}).parity_even
        assert StateSpec.superposition(
            {0: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)}).parity_even
        assert not StateSpec.superposition(
            {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)}).parity_even


class TestPdf:
    def test_ground_state_peak(self):
        v = pdf(StateSpec.eigenstate(0), ModelPoint(0, 1), 0.0)
        assert v == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)

    def test_first_level_node(self):
        assert pdf(StateSpec.eigenstate(1), ModelPoint(0, 1), 0.0) == 0.0

    def test_mixture_is_convex_sum(self):
        mix = StateSpec.mixture({0: 0.5, 1: 0.5})
        v = pdf(mix, ModelPoint(0, 1), 0.0)
        assert v == pytest.approx(0.5 / math.sqrt(2 * math.pi), rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 20])
    def test_eigenstate_matches_direct_formula(self, n):
        rng = np.random.default_rng(n)
        point = ModelPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2)))
        x = rng.uniform(point.mu - 4, point.mu + 4, size=40)
        got = pdf(StateSpec.eigenstate(n), point, x)
        want = eigen_pdf_direct(n, point, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("spec", [
        StateSpec.eigenstate(3),
        StateSpec.mixture({0: 0.3, 2: 0.5, 5: 0.2}),
        StateSpec.superposition({0: 0.6, 1: 0.8}),
        StateSpec.density({(0, 0): 0.5, (2, 2): 0.5,
                           (0, 2): 0.25, (2, 0): 0.25}),
    ])
    def test_normalization_at_random_points(self, spec):
        rng = np.random.default_rng(17)
        kf = kernel(spec)
        for _ in range(5):
            point = ModelPoint(float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 3)))
            # int pdf dx = sqrt(2) sigma * int f dy / sigma
            res = integrate_real_line(kf.f, degree_hint=kf.degree_hint)
            assert math.sqrt(2.0) * res.value == pytest.approx(1.0, abs=1e-8)
            assert pdf(spec, point, point.mu + 0.37) >= 0.0


class TestKernel:
    def test_eigenstate_kernel_parity(self):
        kf = kernel(StateSpec.eigenstate(3))
        rng = np.random.default_rng(5)
        y = rng.uniform(-4, 4, size=100)
        np.testing.assert_array_equal(kf.f(y), kf.f(-y))

    def test_is_cached(self):
        s = StateSpec.eigenstate(2)
        assert kernel(s) is kernel(s)

    def test_derivative_matches_finite_difference(self):
        for spec in (StateSpec.eigenstate(4),
                     StateSpec.mixture({1: 0.5, 2: 0.5}),
                     StateSpec.superposition({0: 0.6, 3: 0.8})):
            kf = kernel(spec)
            rng = np.random.default_rng(23)
            y = rng.uniform(-4, 4, size=50)
            h = 1e-5
            exact = kf.jet(y, 2)
            up, down = kf.jet(y + h, 1), kf.jet(y - h, 1)
            for k in (1, 2):
                fd = (up[k - 1] - down[k - 1]) / (2 * h)
                tol = 1e-6 * np.maximum(1.0, np.abs(exact[k]))
                assert np.all(np.abs(exact[k] - fd) <= tol)

    @pytest.mark.parametrize("spec", [
        StateSpec.density({(0, 0): 0.5, (2, 2): 0.3, (5, 5): 0.2,
                           (0, 2): 0.1 + 0.2j, (2, 0): 0.1 - 0.2j,
                           (2, 5): -0.05j, (5, 2): 0.05j,
                           (0, 5): 0.08 - 0.1j, (5, 0): 0.08 + 0.1j}),
        StateSpec.mixture({0: 0.5, 20: 0.5}),
        StateSpec.superposition({1: 0.8, 4: -0.6}),
    ], ids=["density_0_2_5", "mixture_0_20", "superposition_1_4"])
    def test_jet_matches_direct_hermite_sum(self, spec):
        y = np.linspace(-6.0, 6.0, 241)
        want = kernel_jet_direct(spec, y)
        kf = kernel(spec)
        got = kf.jet(y, 2)
        for k in range(3):
            scale = np.max(np.abs(want[k]))
            assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * scale
            assert np.max(np.abs(kf.jet(y, k)[k] - want[k])) <= 1e-13 * scale
        np.testing.assert_array_equal(kf.f(y), got[0])
        np.testing.assert_array_equal(kf.f_prime(y), got[1])

    def test_jet_keeps_the_shape_of_y(self):
        kf = kernel(StateSpec.mixture({0: 0.5, 3: 0.5}))
        y = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        for k, v in enumerate(kf.jet(y, 2)):
            assert v.shape == (3, 4)
            np.testing.assert_array_equal(v, kf.jet(y.ravel(), 2)[k].reshape(3, 4))
        assert np.shape(kf.f(0.5)) == ()

    def test_one_recurrence_per_evaluation(self, monkeypatch):
        # The Fisher ratio and a Newton pass of the MLE each evaluate the
        # state's wavepackets and their derivatives from one Hermite
        # recurrence, whatever the kind and rank of the state.
        calls = []
        real = hermgauss.models.hermite_normalized_all

        def counted(n, y):
            calls.append(n)
            return real(n, y)

        monkeypatch.setattr(hermgauss.models, "hermite_normalized_all", counted)
        y = np.linspace(-3.0, 3.0, 30)
        for spec in (StateSpec.eigenstate(3),
                     StateSpec.mixture({0: 0.3, 2: 0.5, 5: 0.2}),
                     StateSpec.superposition({0: 0.6, 1: -0.8}),
                     StateSpec.superposition({0: 0.6, 1: 0.8j}),
                     StateSpec.density({(0, 0): 0.5, (2, 2): 0.5,
                                        (0, 2): 0.25, (2, 0): 0.25})):
            kf = kernel(spec)
            calls.clear()
            kf.fisher_ratio(y)
            assert len(calls) == 1
            calls.clear()
            assert _loglik_jet(kf, y, 0.1, 0.2) is not None
            assert len(calls) == 1

    def test_kernel_mass(self):
        for spec in (StateSpec.eigenstate(0), StateSpec.mixture({0: 0.5, 3: 0.5})):
            kf = kernel(spec)
            res = integrate_real_line(kf.f, degree_hint=kf.degree_hint)
            assert res.value == pytest.approx(1 / math.sqrt(2), abs=1e-10)

    def test_kernel_type(self):
        assert isinstance(kernel(StateSpec.eigenstate(0)), KernelFn)

    @pytest.mark.parametrize("spec, rank", [
        (StateSpec.eigenstate(7), 1),
        (StateSpec.superposition({0: 0.6, 2: -0.8}), 1),
        (StateSpec.superposition({1: 0.6j, 2: 0.8j}), 1),
        (StateSpec.density({(0, 0): 0.36, (0, 1): 0.48, (1, 0): 0.48,
                            (1, 1): 0.64}), 1),
        (StateSpec.superposition({0: 0.6, 1: 0.8j}), 2),
        (StateSpec.mixture({0: 0.2, 3: 0.3, 5: 0.5}), 3),
    ], ids=["eigenstate", "real", "imaginary", "pure_density", "complex",
            "mixture"])
    def test_rank(self, spec, rank):
        assert kernel(spec).rank == rank


def plain_ratio(kf, y):
    """(f')^2/f from the kernel jet, where f > 0."""
    f, d = kf.jet(y, 1)
    return d * d / f


@st.composite
def psd_tables(draw):
    """Real PSD density tables of rank 1-3 on levels <= 8; the odd-only
    supports put a zero of every packet at y = 0."""
    levels = draw(st.sampled_from([range(9), range(1, 9, 2)]))
    rank = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    table = np.zeros((9, 9))
    for _ in range(rank):
        v = np.zeros(9)
        for k in levels:
            v[k] = draw(unit)
        if np.linalg.norm(v) < 0.1:
            v[levels[0]] = 1.0
        table += draw(st.floats(0.05, 1.0)) * np.outer(v, v)
    table = 0.5 * (table + table.T) / np.trace(table)
    return StateSpec.density({(n, m): table[n, m]
                              for n in range(9) for m in range(9)
                              if table[n, m] != 0.0})


class TestFactoredKernel:
    def test_ground_state_ratio_is_symbolic_form(self):
        # For alpha_0 = 1: g' - y g = -y, so (f')^2/f = 4 y^2 e^{-y^2}/sqrt(2 pi)
        ratio = kernel(StateSpec.eigenstate(0)).fisher_ratio
        y = np.linspace(-3, 3, 41)
        want = 4 * y * y * np.exp(-y * y) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(ratio(y), want, rtol=1e-12, atol=1e-15)

    def test_finite_at_nodes(self):
        # Eigenstate 2 has nodes at y = +-1/sqrt(2); the ratio there is the
        # continuous limit of (f')^2/f.
        kf = kernel(StateSpec.eigenstate(2))
        node = 1.0 / math.sqrt(2.0)
        at_node = kf.fisher_ratio(np.array([node]))[0]
        assert np.isfinite(at_node)
        near = plain_ratio(kf, np.array([node + 1e-6]))[0]
        assert at_node == pytest.approx(near, rel=1e-4)

    def test_even_superposition_node_limit(self):
        # The 0 - 2 combination has a density node at y = sqrt((1+sqrt2)/2).
        coeffs = {0: 1 / math.sqrt(2), 2: -1 / math.sqrt(2)}
        kf = kernel(StateSpec.superposition(coeffs))
        node = math.sqrt((1.0 + math.sqrt(2.0)) / 2.0)
        assert kf.f(np.array([node]))[0] < 1e-30
        val = kf.fisher_ratio(np.array([node]))[0]
        unfact = plain_ratio(kf, np.array([node + 1e-6]))[0]
        assert val == pytest.approx(unfact, rel=1e-4)

    def test_factored_equals_plain_kernel(self):
        # Away from the density nodes the factored (f')^2/f matches the
        # ratio of the plain kernel and its derivative.
        kf = kernel(StateSpec.superposition({1: 0.8, 4: -0.6}))
        y = np.linspace(-3, 3, 31)
        y = y[kf.f(y) > 1e-3]
        np.testing.assert_allclose(kf.fisher_ratio(y), plain_ratio(kf, y),
                                   rtol=1e-11, atol=1e-15)

    @pytest.mark.parametrize("weights", [{1: 0.5, 3: 0.5},
                                         {1: 0.2, 5: 0.3, 9: 0.5}],
                             ids=["1_3", "1_5_9"])
    def test_common_zero_takes_the_limit(self, weights):
        # Every packet of an odd-level mixture vanishes at y = 0, so f does
        # too; the ratio there is the limit of (f')^2/f, not 0/0.
        kf = kernel(StateSpec.mixture(weights))
        assert kf.f(0.0) == 0.0
        at_zero = kf.fisher_ratio(np.array([0.0]))[0]
        assert np.isfinite(at_zero) and at_zero > 0.0
        near = plain_ratio(kf, np.array([-1e-6, 1e-6]))
        np.testing.assert_allclose(near, at_zero, rtol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(psd_tables())
    def test_ratio_of_random_psd_tables(self, spec):
        kf = kernel(spec)
        y = np.concatenate([np.linspace(-6.0, 6.0, 121), [0.0, -40.0, 40.0]])
        ratio = kf.fisher_ratio(y)
        assert np.all(np.isfinite(ratio)) and np.all(ratio >= 0.0)
        f = kf.f(y)
        big = f > 1e-3 * f.max()
        np.testing.assert_allclose(ratio[big], plain_ratio(kf, y[big]),
                                   rtol=1e-10)


class TestPacketRoots:
    def test_closed_forms(self):
        # rho01's packets are psi_0, with no root, and psi_1, with root 0.
        roots = kernel(StateSpec.mixture({0: 0.5, 1: 0.5})).roots()
        assert sorted(r.tolist() for r in roots) == [[], [0.0]]
        # 0.6 psi_0 + s 0.8 psi_2 vanishes where 0.6 + s 0.8 (4y^2 - 2)/sqrt(8)
        # does: y^2 = (2 - s 0.75 sqrt(8)) / 4, below zero for s = 1.
        for s in (1.0, -1.0):
            (roots,) = kernel(StateSpec.superposition({0: 0.6, 2: 0.8 * s})).roots()
            y = np.sqrt(complex((2.0 - s * 0.75 * math.sqrt(8.0)) / 4.0))
            np.testing.assert_allclose(np.sort_complex(roots),
                                       np.sort_complex([-y, y]),
                                       rtol=0.0, atol=1e-14)

    def test_is_cached(self):
        kf = kernel(StateSpec.mixture({0: 0.2, 3: 0.3, 5: 0.5}))
        assert kf.roots() is kf.roots()

    @pytest.mark.parametrize("n", [150, 200])
    def test_deep_eigenstate_roots(self, n):
        (roots,) = kernel(StateSpec.eigenstate(n)).roots()
        assert roots.size == n
        assert np.max(np.abs(hermite_normalized_all(n, roots)[n])) <= 1e-12

    def test_thermal_packets_are_levels(self):
        # Mean occupation 5 over every level: the kernel keeps the 169
        # levels above its eigenvalue cut, each a packet with n roots.
        q = 5.0 / 6.0
        spec = StateSpec.mixture({n: q ** n for n in range(MAX_DEGREE + 1)},
                                 renormalize=True)
        roots = sorted(kernel(spec).roots(), key=len)
        assert [r.size for r in roots] == list(range(169))
        for n, r in enumerate(roots):
            assert np.all(np.abs(hermite_normalized_all(n, r)[n]) <= 1e-12)

    def test_deep_superposition_real_roots(self):
        # The real roots of 0.8 psi_0 + 0.6 psi_150 are its sign changes.
        spec = StateSpec.superposition({0: 0.8, 150: 0.6})
        (roots,) = kernel(spec).roots()
        real = roots.real[roots.imag == 0.0]
        y = np.linspace(-20.0, 20.0, 40_001)
        psi = hermite_normalized_all(150, y)
        g = 0.8 * psi[0] + 0.6 * psi[150]
        assert roots.size == 150
        assert real.size == np.count_nonzero(np.diff(np.sign(g)))
        psi = hermite_normalized_all(150, real)
        assert np.max(np.abs(0.8 * psi[0] + 0.6 * psi[150])) <= 1e-12


class TestWavefunction:
    def test_ground_state_amplitude(self):
        assert wavefunction(0, ModelPoint(0, 1), 0.0) == pytest.approx(
            (2 * math.pi) ** -0.25, rel=1e-14)

    def test_first_level_is_odd(self):
        p = ModelPoint(0, 1)
        x = np.linspace(0.1, 3, 10)
        np.testing.assert_allclose(wavefunction(1, p, -x),
                                   -wavefunction(1, p, x), rtol=1e-14)

    def test_normalization(self):
        p = ModelPoint(0.5, 1.3)

        def sq(y):
            from hermgauss.hermite import hermite_normalized_all
            return hermite_normalized_all(3, y)[3] ** 2

        res = integrate_real_line(sq, degree_hint=8)
        # int phi^2 dx = sqrt(2) / sqrt(2 pi) * int psi^2 dy
        assert math.sqrt(2) * res.value / math.sqrt(2 * math.pi) == pytest.approx(
            1.0, abs=1e-10)

    def test_pdf_is_squared_wavefunction(self):
        p = ModelPoint(-0.7, 0.9)
        x = np.linspace(-4, 3, 40)
        for n in (0, 1, 4):
            got = pdf(StateSpec.eigenstate(n), p, x)
            want = wavefunction(n, p, x) ** 2
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-280)
