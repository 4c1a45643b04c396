import math

import numpy as np
import pytest

import hermgauss.geometry
from hermgauss.geometry import metric_adaptive
from hermgauss.hermite import hermite_normalized_all
from hermgauss.models import ModelPoint, StateSpec, kernel
from hermgauss.quadrature import (
    IntegrandError,
    QuadConfig,
    QuadResult,
    _GK_NODES,
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


def batched_reference(integrand, config, degree_hint, even=False):
    """The refinement loop of ``integrate_real_line`` as first written, with
    separate value, error and edge arrays, a halving loop for the quarter
    edges and a sentinel appended to the prefix test.  ``integrate_real_line``
    must return exactly this result: the same pairwise row sums, reversed
    cumsum, stable ranking and panel creation order."""
    cut = truncation_halfwidth(degree_hint, config.abs_tol)
    n0 = max(8, degree_hint + 2)
    if n0 % 2 == 1:
        n0 += 1
    if even:
        edges, fold = np.linspace(0.0, cut, n0 // 2 + 1), 2.0
    else:
        edges, fold = np.linspace(-cut, cut, n0 + 1), 1.0
    lo, hi = edges[:-1], edges[1:]
    values, errors, scalar = _panel(integrand, lo, hi)
    evaluations = lo.size * 15

    while True:
        total = values.sum(axis=1)
        total_err = errors.sum(axis=1)
        tol = np.maximum(config.abs_tol / fold, config.rel_tol * np.abs(total))
        converged = bool(np.all(total_err <= tol))
        room = (config.max_evaluations - evaluations) // 15
        if converged or room < 2:
            total, total_err = fold * total, fold * total_err
            if scalar:
                return QuadResult(float(total[0]), float(total_err[0]),
                                  evaluations, converged)
            return QuadResult(total, total_err, evaluations, converged)
        order = np.argsort(-(errors / tol[:, None]).max(axis=0), kind="stable")
        left = np.cumsum(errors[:, order[::-1]], axis=1)[:, -2::-1]
        enough = np.append(np.all(left <= tol[:, None] / 8.0, axis=0), True)
        parts = 4 if room >= 4 else 2
        pick = order[:min(int(np.argmax(enough)) + 1, room // parts)]
        cuts = [lo[pick], hi[pick]]
        while len(cuts) <= parts:
            halves = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
            cuts = [c for pair in zip(cuts, halves) for c in pair] + cuts[-1:]
        sub_lo, sub_hi = np.concatenate(cuts[:-1]), np.concatenate(cuts[1:])
        v, e, _ = _panel(integrand, sub_lo, sub_hi)
        evaluations += sub_lo.size * 15
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], sub_lo])
        hi = np.concatenate([hi[keep], sub_hi])
        values = np.concatenate([values[:, keep], v], axis=1)
        errors = np.concatenate([errors[:, keep], e], axis=1)


def assert_bit_identical(got, want):
    """Value and error estimate equal bit for bit, and of the same type."""
    for a, b in ((got.value, want.value),
                 (got.abs_error_estimate, want.abs_error_estimate)):
        assert type(a) is type(b)
        assert np.array_equal(np.asarray(a).view(np.int64),
                              np.asarray(b).view(np.int64))
    assert got.evaluations == want.evaluations
    assert got.converged == want.converged


def oscillating(y):
    return np.exp(-y * y) * np.cos(20.0 * y)


def even_moments(y):
    return y ** (2 * np.arange(11)[:, None]) * np.exp(-y * y)


def fisher_integrand(spec, powers=(0, 1, 2)):
    kf = kernel(spec)
    return (lambda y: y ** np.array(powers)[:, None] * kf.fisher_ratio(y),
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

    def test_every_budget_ends_within_one_bisection(self):
        # Four sub-panels (60 evaluations) per picked panel while they fit,
        # then one bisection: every budget stops less than one bisection
        # (30 evaluations) short of it.
        for budget in range(120, 601):
            cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_evaluations=budget)
            res = integrate_real_line(oscillating, cfg, 2)
            assert not res.converged
            assert budget - 30 < res.evaluations <= budget, budget

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

    def test_narrow_spike_has_closed_form(self):
        # int e^{-y^2} / (y^2 + eps^2) dy = (pi/eps) e^{eps^2} erfc(eps):
        # a peak 1e8 high and 1e-4 wide.  Each pass quarters the panels
        # next to it, so the passes grow with log4 of the width ratio.
        eps = 1e-4
        calls = []

        def spike(y):
            calls.append(y.size)
            return np.exp(-y * y) / (y * y + eps * eps)

        res = integrate_real_line(spike)
        exact = math.pi / eps * math.exp(eps * eps) * math.erfc(eps)
        assert res.converged
        assert abs(res.value - exact) <= 1e-12 * exact
        assert len(calls) <= 10

    def test_non_finite_integrand_raises_with_location(self):
        def f(y):
            out = np.exp(-y * y)
            out[y > 1.0] = np.nan
            return out

        with pytest.raises(IntegrandError) as err:
            integrate_real_line(f)
        assert err.value.y > 1.0

    def test_overflowing_sums_of_finite_values_are_not_an_integrand_error(self):
        # |f| sums to inf on every panel, which sends _panel to scan f; f is
        # finite, so it goes on (numpy's overflow warnings are the caller's).
        edges = np.linspace(-1.0, 1.0, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            values, _, scalar = _panel(lambda y: np.full_like(y, 1e308),
                                       edges[:-1], edges[1:])
        assert scalar and values.shape == (1, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "both"])
    def test_non_finite_value_is_located(self, bad):
        # The first node, in evaluation order, whose value is not finite.
        def f(y):
            out = np.exp(-y * y)
            at = (y > 0.3) & (y < 0.6)
            out[at] = bad if bad != "both" else np.where(y[at] > 0.45, np.inf, -np.inf)
            return out

        edges = np.linspace(-1.0, 1.0, 5)
        half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
        y = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
        with pytest.raises(IntegrandError) as err:
            _panel(f, edges[:-1], edges[1:])
        assert err.value.y == y[(y > 0.3) & (y < 0.6)][0]

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

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", math.nan), ("rel_tol", math.inf), ("abs_tol", math.inf),
        ("abs_tol", math.nan), ("max_evaluations", math.nan),
        ("max_evaluations", math.inf)])
    def test_config_rejects_non_finite(self, field, value):
        message = ("QuadConfig max_evaluations must be an integer >= 1"
                   if field == "max_evaluations" else f"{field} must be a finite number > 0")
        with pytest.raises(ValueError, match="^" + message):
            QuadConfig(**{field: value})

    @pytest.mark.parametrize("value", [300.0, True])
    def test_config_rejects_non_integer_budget(self, value):
        with pytest.raises(ValueError, match="must be an int"):
            QuadConfig(max_evaluations=value)

    def test_truncation_halfwidth_grows_with_degree(self):
        assert truncation_halfwidth(40, 1e-12) > truncation_halfwidth(2, 1e-12)


class TestEvenIntegrand:
    """``even=True``: the right half of the window, doubled."""

    def test_tolerance_contract_on_stacked_moments(self):
        cfg = QuadConfig()
        res = integrate_real_line(even_moments, cfg, degree_hint=21, even=True)
        exact = np.array([gaussian_moment(k) for k in range(11)])
        assert res.converged
        assert np.all(np.abs(res.value - exact)
                      <= np.maximum(cfg.rel_tol * np.abs(exact), cfg.abs_tol))
        # The tolerance applies to the doubled result and its doubled error.
        assert np.all(res.abs_error_estimate
                      <= np.maximum(cfg.rel_tol * np.abs(res.value), cfg.abs_tol))

    @pytest.mark.parametrize("weights", [{0: 0.5, 1: 0.5}, {0: 0.5, 4: 0.5}],
                             ids=["rho01", "mixture_0_4"])
    def test_agrees_with_full_line(self, weights):
        # The even diagonal Fisher integrands of a parity-even mixture.
        integrand, degree_hint = fisher_integrand(StateSpec.mixture(weights), (0, 2))
        full = integrate_real_line(integrand, QuadConfig(), degree_hint)
        half = integrate_real_line(integrand, QuadConfig(), degree_hint, even=True)
        assert full.converged and half.converged
        np.testing.assert_allclose(half.value, full.value, rtol=1e-13, atol=0.0)
        assert half.evaluations <= 0.55 * full.evaluations

    def test_is_deterministic(self):
        integrand, degree_hint = fisher_integrand(StateSpec.mixture({0: 0.5, 4: 0.5}),
                                                  (0, 2))
        a = integrate_real_line(integrand, degree_hint=degree_hint, even=True)
        b = integrate_real_line(integrand, degree_hint=degree_hint, even=True)
        assert a == b


def spike(y):
    return np.exp(-y * y) / (y * y + 1e-8)


UNREACHABLE = dict(rel_tol=1e-15, abs_tol=1e-300)


class TestBatchedReference:
    """``integrate_real_line`` against ``batched_reference``, bit for bit."""

    @pytest.mark.parametrize("integrand, degree_hint, even", [
        (oscillating, 2, False),
        (spike, 2, False),
        (lambda y: np.exp(-y * y) * np.cos(3 * y), 6, False),
        (lambda y: np.exp(-y * y) * np.cos(3 * y), 6, True),
        (fisher_integrand(StateSpec.mixture({0: 0.5, 20: 0.5}))[0], 46, False),
        (fisher_integrand(StateSpec.mixture({0: 0.5, 4: 0.5}), (0, 2))[0], 14,
         True),
        (even_moments, 21, False),
        (even_moments, 21, True),
    ], ids=["oscillating", "spike", "cos3", "cos3_even", "fisher_k3",
            "fisher_even", "moments_k11", "moments_k11_even"])
    @pytest.mark.parametrize("config", [
        QuadConfig(), QuadConfig(rel_tol=1e-6, abs_tol=1e-8),
        QuadConfig(rel_tol=1e-13, abs_tol=1e-15)], ids=["default", "loose", "tight"])
    def test_converged_runs(self, integrand, degree_hint, even, config):
        assert_bit_identical(
            integrate_real_line(integrand, config, degree_hint, even=even),
            batched_reference(integrand, config, degree_hint, even))

    @pytest.mark.parametrize("budget", [149, 150, 165, 179, 194, 1000, 1234, 5000])
    @pytest.mark.parametrize("case", ["scalar", "vector", "even"])
    def test_budget_paths(self, budget, case):
        # Budgets 150 and 165 leave room for 2 and 3 sub-panels after the
        # initial partition, the single-bisection path; 149 leaves room < 2.
        integrand, degree_hint, even = {
            "scalar": (oscillating, 2, False),
            "vector": (*fisher_integrand(StateSpec.mixture({0: 0.5, 1: 0.5})),
                       False),
            "even": (oscillating, 2, True),
        }[case]
        config = QuadConfig(**UNREACHABLE, max_evaluations=budget)
        got = integrate_real_line(integrand, config, degree_hint, even=even)
        assert_bit_identical(
            got, batched_reference(integrand, config, degree_hint, even))
        assert not got.converged

    @pytest.mark.parametrize("spec", [
        StateSpec.eigenstate(3),
        StateSpec.mixture({0: 0.5, 1: 0.5}),
        StateSpec.mixture({0: 0.5, 20: 0.5}),
        StateSpec.superposition({0: 0.6, 1: 0.48, 3: 0.64}),
        StateSpec.superposition({0: 0.6, 1: 0.8j}),
        StateSpec.density({(0, 0): 0.5, (1, 1): 0.3, (3, 3): 0.2,
                           (0, 1): 0.1 + 0.2j, (1, 0): 0.1 - 0.2j,
                           (1, 3): 0.05 - 0.1j, (3, 1): 0.05 + 0.1j}),
    ], ids=["eigenstate", "rho01", "mixture_0_20", "real_superposition",
            "complex_superposition", "density"])
    @pytest.mark.parametrize("force", [False, True], ids=["parity", "forced"])
    def test_metric_adaptive_integrand(self, monkeypatch, spec, force):
        calls = []

        def recording(integrand, config, degree_hint, *, even=False):
            res = integrate_real_line(integrand, config, degree_hint, even=even)
            calls.append((integrand, config, degree_hint, even, res))
            return res

        monkeypatch.setattr(hermgauss.geometry, "integrate_real_line", recording)
        metric_adaptive(spec, ModelPoint(0.3, 1.2), force_offdiagonal=force)
        (integrand, config, degree_hint, even, got), = calls
        assert_bit_identical(got, batched_reference(
            integrand, config or QuadConfig(), degree_hint, even))


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
