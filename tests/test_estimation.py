import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.special import erfc

import hermgauss.estimation
from hermgauss.estimation import (
    MleFit,
    SampleBatch,
    _INVERT_TOL,
    _cdf_table,
    _moment_init,
    _newton_polish,
    _real_nodes,
    _shallow,
    _start_cell,
    _y_moments,
    crb_experiment,
    log_likelihood,
    mle_fit,
    sample,
)
from hermgauss.hermite import MAX_DEGREE
from hermgauss.models import ModelPoint, StateSpec, kernel
from hermgauss.quadrature import QuadConfig, integrate_real_line

ORIGIN = ModelPoint(0.0, 1.0)
RHO01 = StateSpec.mixture({0: 0.5, 1: 0.5})
# States shallow at 5,000 samples: the narrowest dip of f is at least
# 50 / 5,000 = 1e-2 sqrt(Var y) wide.
SHALLOW = {
    "ground": StateSpec.eigenstate(0),
    "rho01": RHO01,
    "mixture_0_4": StateSpec.mixture({0: 0.5, 4: 0.5}),
    "mixture_2_5_11": StateSpec.mixture({2: 0.3, 5: 0.3, 11: 0.4}),
    "complex_0_1": StateSpec.superposition({0: 0.6, 1: 0.8j}),
}
# Nodal states, none shallow: Newton from the start's cell, or the
# compass search when that fit is refused.
NODAL = {
    "n1": StateSpec.eigenstate(1),
    "n3": StateSpec.eigenstate(3),
    "real_0_1": StateSpec.superposition({0: 0.6, 1: 0.8}),
}
# 5,000-sample batches (state, true point, seed) on which Newton from the
# start ends in the start's own cell at a log L 7.2, 3.8 and 14.5 below the
# compass search's: the maximum lies in a cell one sample over.
WORSE_CELL = {
    "n2_a": (StateSpec.eigenstate(2),
             (2.379974043807424, 0.8509286671057771), 3982035768),
    "n2_b": (StateSpec.eigenstate(2),
             (-2.56904919480751, 1.8584366793938507), 2810294827),
    "real_0_1_2": (StateSpec.superposition({0: 0.2917337690280108,
                                            1: -0.5399633859710288,
                                            2: 0.7895131093398089}),
                   (1.8018136727319076, 2.7118096197822106), 1351693725),
}


def thermal(nbar):
    """The thermal state of mean occupation nbar over every level."""
    q = nbar / (nbar + 1.0)
    return StateSpec.mixture({n: q ** n for n in range(MAX_DEGREE + 1)},
                             renormalize=True)


def scipy_cdf(spec, y):
    """scipy's antiderivative of the density's cubic Hermite interpolant,
    with f and f' from the kernel, on the nodes y."""
    kf = kernel(spec)
    return CubicHermiteSpline(y, kf.f(y), kf.f_prime(y)).antiderivative()


def bisect_cdf(spec, table, u, iterations=60):
    """Reference inverse: bisection, segment by segment, on scipy's cubic
    Hermite CDF over the table's nodes; it shares no coefficients with the
    table."""
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


def unsorted_invert(table, u):
    """Reference inversion on u in its own order: the segment lookup, the
    coefficient gather and the bracketed Newton passes of ``invert`` without
    the sort and the scatter back.  ``invert`` must match it bit for bit."""
    k = np.clip(np.searchsorted(table.cdf_vals, u), 1, table.y.size - 1) - 1
    c4, c3, c2, c1, c0 = table.coeffs[:, k]
    h = table.y[k + 1] - table.y[k]
    target = u * table.total
    lo = np.zeros_like(h)
    hi = h.copy()
    mass = table.cdf_vals[k + 1] - table.cdf_vals[k]
    frac = np.divide(u - table.cdf_vals[k], mass,
                     out=np.full_like(h, 0.5), where=mass > 0.0)
    t = h * np.clip(frac, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            r = (((c4 * t + c3) * t + c2) * t + c1) * t + c0 - target
            d = ((4.0 * c4 * t + 3.0 * c3) * t + 2.0 * c2) * t + c1
            below = r < 0.0
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            step = t - r / d
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.abs(step - t) <= _INVERT_TOL * h
            t = step
            if done.all():
                break
    return table.y[k] + t


def exact_cdf(spec, y):
    """Closed-form CDF of y: sum_nm Re(lambda_nm) I_nm(y) / sqrt(pi), with
    I_nm = int_{-inf}^y psi_n psi_m over psi_n = H_n e^{-y^2/2} / sqrt(2^n n!).

    psi_n'' = (y^2 - 1 - 2n) psi_n makes (psi_m psi_n' - psi_n psi_m')' =
    2 (m - n) psi_m psi_n, so for n != m
    I_nm = (sqrt(2n) psi_m psi_{n-1} - sqrt(2m) psi_n psi_{m-1}) / (2 (m - n));
    I_nn = I_{n-1,n-1} - psi_n psi_{n-1} / sqrt(2n) and
    I_00 = sqrt(pi) erfc(-y) / 2.  Neither the kernel nor the table is used.
    """
    top = spec.max_index
    # Row 0 is psi_{-1} = 0, row n + 1 is psi_n.
    psi = np.zeros((top + 2, y.size))
    psi[1] = np.exp(-0.5 * y * y)
    for n in range(top):
        psi[n + 2] = (math.sqrt(2.0 / (n + 1)) * y * psi[n + 1]
                      - math.sqrt(n / (n + 1)) * psi[n])
    diag = [0.5 * math.sqrt(math.pi) * erfc(-y)]
    for n in range(1, top + 1):
        diag.append(diag[-1] - psi[n + 1] * psi[n] / math.sqrt(2.0 * n))
    out = np.zeros_like(y)
    for (n, m), v in spec.table.items():
        if n == m:
            out += v.real * diag[n]
        else:
            out += v.real * (math.sqrt(2.0 * n) * psi[m + 1] * psi[n]
                             - math.sqrt(2.0 * m) * psi[n + 1] * psi[m]) / (2.0 * (m - n))
    return out / math.sqrt(math.pi)


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


def integral_moments(spec):
    """Reference (E[y], Var y): adaptive quadrature of y f and y^2 f."""
    kf = kernel(spec)
    res = integrate_real_line(lambda y: np.stack([y, y * y]) * kf.f(y),
                              QuadConfig(rel_tol=1e-13, abs_tol=1e-14),
                              kf.degree_hint + 2)
    assert res.converged
    e1, e2 = math.sqrt(2.0) * res.value
    return e1, e2 - e1 * e1


def random_states(kind, count=6, top=12, seed=0):
    """Random states of one kind on 2-5 distinct levels up to ``top``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lv = rng.choice(top + 1, size=int(rng.integers(2, 6)), replace=False)
        lv = [int(n) for n in lv]
        z = rng.normal(size=(2, len(lv), len(lv)))
        if kind == "mixture":
            yield StateSpec.mixture(dict(zip(lv, rng.random(len(lv)))),
                                    renormalize=True)
        elif kind == "real":
            yield StateSpec.superposition(dict(zip(lv, z[0, 0])), renormalize=True)
        elif kind == "complex":
            yield StateSpec.superposition(dict(zip(lv, z[0, 0] + 1j * z[1, 0])),
                                          renormalize=True)
        else:
            b = z[0] + 1j * z[1]
            rho = b @ b.conj().T
            yield StateSpec.density({(n, m): rho[i, j] for i, n in enumerate(lv)
                                     for j, m in enumerate(lv)},
                                    renormalize=True)


class TestMoments:
    @pytest.mark.parametrize("spec, ey, vy", [
        *((StateSpec.eigenstate(n), 0.0, n + 0.5) for n in (0, 1, 7, 40, 200)),
        (StateSpec.mixture({0: 0.5, 1: 0.5}), 0.0, 1.0),
        (StateSpec.superposition({0: 1.0, 1: 1.0}, renormalize=True),
         math.sqrt(0.5), 0.5),
    ], ids=["n0", "n1", "n7", "n40", "n200", "rho01", "plus"])
    def test_exact_values(self, spec, ey, vy):
        got = _y_moments(spec)
        assert got[0] == pytest.approx(ey, rel=1e-15, abs=1e-15)
        assert got[1] == pytest.approx(vy, rel=1e-15)

    @pytest.mark.parametrize("kind", ["eigenstate", "mixture", "real",
                                      "complex", "density"])
    def test_match_quadrature(self, kind):
        specs = ([StateSpec.eigenstate(n) for n in (0, 1, 7, 40, 200)]
                 if kind == "eigenstate" else random_states(kind))
        for spec in specs:
            ey, vy = _y_moments(spec)
            ref_ey, ref_vy = integral_moments(spec)
            assert abs(ey - ref_ey) <= 1e-12
            assert abs(vy - ref_vy) <= 1e-12 * ref_vy

    def test_cached_on_the_spec(self):
        spec = StateSpec.superposition({0: 0.6, 1: 0.8})
        assert _y_moments(spec) is _y_moments(spec)


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
        # table.
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

    @pytest.mark.parametrize("specs, bound", [
        ([StateSpec.eigenstate(0), StateSpec.mixture({0: 0.5, 1: 0.5}),
          StateSpec.superposition({0: 0.6, 1: 0.64, 2: 0.48})], 1e-12),
        ([StateSpec.eigenstate(7), StateSpec.eigenstate(12),
          *(s for kind in ("mixture", "real", "complex", "density")
            for s in random_states(kind))], 5e-11),
        ([StateSpec.eigenstate(40)], 1e-9),
        ([StateSpec.eigenstate(150)], 1e-7),
    ], ids=["shallow", "level12", "n40", "n150"])
    def test_draws_match_exact_cdf(self, specs, bound):
        u = np.random.default_rng(31).random(20_000)
        for spec in specs:
            table = _cdf_table(spec)
            assert np.all(np.diff(table.cdf_vals) >= 0.0)
            assert np.max(np.abs(exact_cdf(spec, table.invert(u)) - u)) <= bound

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(StateSpec.eigenstate(0), ORIGIN, 0, seed=1)

    @pytest.mark.parametrize("count", [2.5, True, 3.0])
    def test_count_that_is_not_an_int_is_refused(self, count):
        with pytest.raises(ValueError, match="count"):
            sample(StateSpec.eigenstate(0), ORIGIN, count, seed=1)

    @pytest.mark.parametrize("spec", [
        StateSpec.eigenstate(0),
        StateSpec.eigenstate(2),
        StateSpec.eigenstate(150),
        RHO01,
        StateSpec.mixture({0: 0.5, 20: 0.5}),
        StateSpec.superposition({0: 0.6, 1: 0.48j, 2: 0.64}),
    ], ids=["ground", "n2", "n150", "rho01", "mixture_0_20", "complex_0_1_2"])
    @pytest.mark.parametrize("size", [1, 7, 256, 5000])
    def test_sorted_inversion_is_bit_identical(self, spec, size):
        table = _cdf_table(spec)
        rng = np.random.default_rng(size)
        u = rng.random(size)
        # Ties and a key of exactly 0.0, when the batch has room for them.
        u[size // 2:] = u[:size - size // 2]
        u[size // 3] = 0.0
        got = table.invert(u)
        assert np.array_equal(got.view(np.int64),
                              unsorted_invert(table, u).view(np.int64))
        p = rng.permutation(size)
        assert np.array_equal(table.invert(u[p]).view(np.int64),
                              got[p].view(np.int64))

    def test_deep_state_draws_without_warnings(self):
        # The tabulated tails of |150> reach 5e-324; under the suite's
        # filterwarnings = "error" an overflow or underflow warning in the
        # table build or the inversion would fail this draw.
        spec = StateSpec.eigenstate(150)
        assert sample(spec, ORIGIN, 1000, seed=3).draws.size == 1000


class TestPchip:
    """The table's piecewise cubic Hermite interpolating polynomial
    against scipy's."""

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

    def test_evaluation_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(hermgauss.estimation, "_MAX_EVALUATIONS", 12)
        batch = sample(StateSpec.eigenstate(2), ORIGIN, 500, seed=2)
        with pytest.raises(RuntimeError, match="12 objective evaluations"):
            mle_fit(batch)

    def test_log_likelihood_gaussian_closed_form(self):
        x = np.array([0.0, 1.0, -0.5])
        ll = log_likelihood(StateSpec.eigenstate(0), x, 0.25, 1.1)
        expect = float(np.sum(-0.5 * ((x - 0.25) / 1.1) ** 2
                              - math.log(1.1 * math.sqrt(2 * math.pi))))
        assert ll == pytest.approx(expect, rel=1e-12)

    def test_sample_on_node_is_minus_inf(self):
        # |1> vanishes at y = 0: log L is -inf there, as in the Newton jet.
        spec = StateSpec.eigenstate(1)
        ll = log_likelihood(spec, np.array([0.0, 1.0]), 0.0, 1.0)
        assert ll == -math.inf

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


    @pytest.mark.parametrize("spec", [StateSpec.eigenstate(0), RHO01],
                             ids=["n0", "rho01"])
    def test_single_sample_rejected(self, spec):
        # One sample's likelihood has no maximum: sigma -> 0 on |0>.
        batch = sample(spec, ModelPoint(0.3, 1.2), 1, seed=1)
        with pytest.raises(ValueError, match="two distinct samples"):
            mle_fit(batch)

    @pytest.mark.parametrize("n, seed, start, node, passes", [
        (1, 1, (0.3, math.log(1.2)), True, 1),
        (0, 2, (5.0, 0.0), False, 1),
        (0, 2, (0.0, 2.0), False, 2),
    ], ids=["sample_on_node", "hessian_indefinite", "step_overshoots"])
    def test_newton_polish_refusals(self, n, seed, start, node, passes):
        # A sample on the node of |1> makes f = 0 there, so the jet is None;
        # far off in mu the Hessian of |0> is not negative definite; from
        # sigma = e^2 the first Newton step overshoots to sigma ~ e^-25,
        # where f underflows to 0, and the polish stops after two passes.
        spec = StateSpec.eigenstate(n)
        truth = ModelPoint(0.3, 1.2) if node else ORIGIN
        x = sample(spec, truth, 500, seed).draws
        if node:
            x = np.append(x, 0.3)
        assert _newton_polish(kernel(spec), x, *start, 50) == (None, passes)


class TestNewtonFirst:
    @pytest.mark.parametrize("spec", SHALLOW.values(), ids=SHALLOW)
    def test_matches_reference_compass_search(self, spec):
        point = ModelPoint(0.3, 1.2)
        for seed in range(40, 60):
            batch = sample(spec, point, 5000, seed=seed)
            fit = mle_fit(batch)
            mu, sigma = compass_fit(spec, batch.draws)
            assert abs(fit.mu - mu) <= 1e-6 * sigma
            assert abs(fit.sigma - sigma) <= 1e-6 * sigma
            assert fit.compass_evaluations == 0
            assert fit.newton_passes > 0

    def test_refused_newton_falls_back_to_compass_search(self, monkeypatch):
        monkeypatch.setattr(hermgauss.estimation, "_loglik_jet",
                            lambda *args: None)
        batch = sample(RHO01, ModelPoint(0.4, 0.9), 2000, seed=6)
        fit = mle_fit(batch)
        assert (fit.mu, fit.sigma) == compass_fit(RHO01, batch.draws)
        # One refused pass from the start, one at the compass hand-over.
        assert fit.newton_passes == 2
        assert fit.compass_evaluations > 0

    @pytest.mark.parametrize("spec, shallow", [
        *((s, True) for s in SHALLOW.values()),
        (StateSpec.eigenstate(1), False),
        (StateSpec.eigenstate(2), False),
        (StateSpec.superposition({0: 0.6, 1: 0.8}), False),
        # f > 0 at every packet root, but the outer dips of psi_12 and
        # psi_20 are 1.1e-4 and 7.7e-8 sqrt(Var y) wide.
        (StateSpec.mixture({0: 0.5, 12: 0.5}), False),
        (StateSpec.mixture({0: 0.5, 20: 0.5}), False),
    ], ids=[*SHALLOW, "n1", "n2", "real_0_1", "mixture_0_12", "mixture_0_20"])
    def test_dip_width_classification(self, spec, shallow):
        assert _shallow(spec, 5000) is shallow

    @pytest.mark.parametrize("spec, shallow", [
        (StateSpec.eigenstate(150), False),
        (StateSpec.eigenstate(200), False),
        (thermal(5.0), True),
    ], ids=["n150", "n200", "thermal5"])
    def test_deep_states_classify_without_warnings(self, spec, shallow):
        # The suite's filterwarnings = "error" fails any overflow or
        # invalid-value warning in the root locator or the dip widths.
        assert _shallow(spec, 5000) is shallow

    def test_fit_equality_ignores_counters(self):
        a, b = MleFit(0.1, 1.2, 0, 3), MleFit(0.1, 1.2, 25, 4)
        assert a == b and hash(a) == hash(b)
        assert a != MleFit(0.1, 1.3, 0, 3)

    def test_threshold_scales_with_sample_count(self):
        # {0: 1/2, 4: 1/2}'s narrowest dip is 0.091 sqrt(Var y) wide: shallow
        # from 548 samples on.  A state without dips is shallow at any count.
        spec = SHALLOW["mixture_0_4"]
        assert [_shallow(spec, n) for n in (50, 547, 548)] == [False, False, True]
        assert _shallow(StateSpec.eigenstate(0), 1)

    def test_small_batch_takes_compass_path(self):
        # {0: 1/2, 5: 1/2} is shallow at 5,000 samples, but on this batch of
        # 50 Newton from the initializer ends 0.39 sigma away, at a local
        # maximum 11 below the compass search's log L.
        spec = StateSpec.mixture({0: 0.5, 5: 0.5})
        batch = sample(spec, ModelPoint(0.3, 1.2), 50, seed=14)
        fit = mle_fit(batch)
        mu, sigma = compass_fit(spec, batch.draws)
        assert abs(fit.mu - mu) <= 1e-6 * sigma
        assert abs(fit.sigma - sigma) <= 1e-6 * sigma
        assert fit.compass_evaluations > 0

    @pytest.mark.parametrize("seed", [3, 5])
    def test_near_barrier_mixture_takes_compass_path(self, seed):
        # Newton started from the initializer lands about 0.07 sigma away
        # from the maximum on these batches: a dip narrower than a sample
        # spacing is as much a barrier as a density zero.
        spec = StateSpec.mixture({0: 0.5, 20: 0.5})
        batch = sample(spec, ModelPoint(0.3, 1.2), 5000, seed=seed)
        fit = mle_fit(batch)
        mu, sigma = compass_fit(spec, batch.draws)
        assert abs(fit.mu - mu) <= 1e-6 * sigma
        assert abs(fit.sigma - sigma) <= 1e-6 * sigma
        assert fit.compass_evaluations > 0


def assert_matches_compass(spec, batch, fit):
    mu, sigma = compass_fit(spec, batch.draws)
    assert abs(fit.mu - mu) <= 1e-6 * sigma
    assert abs(fit.sigma - sigma) <= 1e-6 * sigma


class TestCellStart:
    @pytest.mark.parametrize("spec", NODAL.values(), ids=NODAL)
    def test_matches_reference_compass_search(self, spec):
        newton_first = 0
        for seed in range(40, 60):
            batch = sample(spec, ModelPoint(0.3, 1.2), 5000, seed)
            fit = mle_fit(batch)
            assert_matches_compass(spec, batch, fit)
            newton_first += fit.compass_evaluations == 0
        # 19, 15 and 18 of the 20 take Newton from the start's cell.
        assert newton_first >= 10

    @pytest.mark.parametrize("spec, point, seed", WORSE_CELL.values(),
                             ids=WORSE_CELL)
    def test_worse_cell_is_refused(self, spec, point, seed):
        batch = sample(spec, ModelPoint(*point), 5000, seed)
        assert _start_cell(spec, batch.draws,
                           _moment_init(spec, batch.draws)) is not None
        fit = mle_fit(batch)
        assert_matches_compass(spec, batch, fit)
        assert fit.compass_evaluations > 0

    def test_complex_roots_take_compass_path(self):
        # The packet's roots are +-0.0139i: f dips to 7e-8 of its peak at
        # y = 0 but has no node, so the cells are no concavity domains.
        spec = StateSpec.superposition({0: 0.5775, 2: math.sqrt(1 - 0.5775 ** 2)})
        assert _real_nodes(spec) is None and not _shallow(spec, 5000)
        for seed in range(40, 45):
            batch = sample(spec, ModelPoint(0.3, 1.2), 5000, seed)
            fit = mle_fit(batch)
            assert_matches_compass(spec, batch, fit)
            assert fit.compass_evaluations > 0

    def test_small_batch_takes_compass_path(self):
        # 500 samples are below the cell-start floor.
        spec = StateSpec.eigenstate(1)
        for seed in range(40, 45):
            batch = sample(spec, ModelPoint(0.3, 1.2), 500, seed)
            fit = mle_fit(batch)
            assert_matches_compass(spec, batch, fit)
            assert fit.compass_evaluations > 0

    @pytest.mark.parametrize("spec, nodes", [
        (StateSpec.eigenstate(2), [-math.sqrt(0.5), math.sqrt(0.5)]),
        (StateSpec.superposition({0: 0.6, 1: 0.8}), [-0.75 / math.sqrt(2.0)]),
        (StateSpec.superposition({0: 0.6j, 1: 0.8j}), [-0.75 / math.sqrt(2.0)]),
        (StateSpec.superposition({0: 0.6, 2: 0.8}), None),
        (StateSpec.superposition({0: 0.6, 1: 0.8j}), None),
        (RHO01, None),
    ], ids=["n2", "real_0_1", "imaginary_0_1", "complex_roots", "complex_0_1",
            "rho01"])
    def test_real_nodes(self, spec, nodes):
        # 0.6 psi_0 + 0.8 psi_1 vanishes where 0.6 + 0.8 sqrt(2) y = 0.
        got = _real_nodes(spec)
        if nodes is None:
            assert got is None
        else:
            np.testing.assert_allclose(got, nodes, rtol=1e-14, atol=1e-15)
        assert _real_nodes(spec) is got


class TestCrbExperiment:
    def test_small_run_is_clean(self):
        rep = crb_experiment(StateSpec.eigenstate(0), ORIGIN,
                             trials=40, samples_per_trial=400, seed=8)
        assert rep.failed_trials == ()
        assert rep.failure_reasons == ()
        assert not any(v["violated"] for v in rep.violations.values())
        assert rep.empirical_cov.shape == (2, 2)
        assert rep.estimates.shape == (40, 2)
        # |0> takes Newton-first on every trial.
        assert rep.compass_evaluations == 0
        assert rep.newton_passes >= 40

    @pytest.mark.parametrize("spec, samples, compass, passes", [
        (StateSpec.eigenstate(2), 500, 922, 99),
        (StateSpec.eigenstate(2), 5000, 58, 109),
        (RHO01, 500, 0, 118),
        (StateSpec.eigenstate(0), 500, 0, 30),
    ], ids=["n2", "n2_5000", "rho01", "n0"])
    def test_fit_counters(self, spec, samples, compass, passes):
        # The compass search then Newton on |2> at 500 samples, below the
        # cell-start floor; at 5,000 Newton from the start's cell stands on
        # 28 of 30 trials.  Newton-first on the others: any change to the
        # order of hand-offs moves these counts.
        rep = crb_experiment(spec, ModelPoint(0.3, 1.2),
                             trials=30, samples_per_trial=samples, seed=1)
        assert (rep.compass_evaluations, rep.newton_passes) == (compass, passes)

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
