import math
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgauss.hermite import (
    MAX_DEGREE,
    hermite_all,
    hermite_normalized_all,
    orthogonality_residual,
)
from hermgauss.quadrature import QuadConfig, QuadratureError


def rodrigues(n, y):
    """Small-n oracle: (-1)^n e^{y^2} d^n/dy^n e^{-y^2}, evaluated symbolically."""
    t = sympy.Symbol("t")
    expr = (-1) ** n * sympy.exp(t ** 2) * sympy.diff(sympy.exp(-t ** 2), t, n)
    return float(expr.subs(t, sympy.Rational(y)).evalf(30))


def hermite(n, y):
    return hermite_all(n, y)[n]


def hermite_normalized(n, y):
    return hermite_normalized_all(n, y)[n]


class TestHermite:
    def test_degree_zero_is_one(self):
        assert hermite(0, 3.7) == 1.0

    def test_degree_two(self):
        assert hermite(2, 1.0) == 2.0  # 4y^2 - 2

    def test_degree_one(self):
        assert hermite(1, -0.25) == -0.5

    @pytest.mark.parametrize("n,y", [(6, 0.5), (5, -1.5), (8, 2.0), (3, 0.0)])
    def test_matches_rodrigues_oracle(self, n, y):
        assert hermite(n, y) == pytest.approx(rodrigues(n, y), rel=1e-12)

    def test_vectorized(self):
        y = np.linspace(-2, 2, 7)
        v = hermite(4, y)
        assert v.shape == y.shape
        assert v[3] == hermite(4, 0.0)

    def test_overflow_is_signaled(self):
        # Only the OverflowError may escape: no numpy warning before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                hermite(200, 40.0)

    def test_degree_cap(self):
        for rows in (hermite_all, hermite_normalized_all):
            with pytest.raises(ValueError):
                rows(MAX_DEGREE + 1, 0.0)
            with pytest.raises(ValueError):
                rows(-1, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 60), y=st.floats(-5, 5))
    def test_parity_is_exact(self, n, y):
        # The recurrences preserve the sign symmetry bit for bit.
        assert hermite(n, -y) == (-1) ** n * hermite(n, y)
        assert hermite_normalized(n, -y) == (-1) ** n * hermite_normalized(n, y)

    def test_recurrence_consistency_is_exact(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(-3, 3, size=100)
        rows = hermite_all(25, y)
        for n in range(1, 25):
            resid = rows[n + 1] - (2.0 * y * rows[n] - 2.0 * n * rows[n - 1])
            assert np.max(np.abs(resid)) == 0.0


class TestNormalized:
    def test_ground_level_at_origin(self):
        assert hermite_normalized(0, 0.0) == 1.0

    def test_first_level_node(self):
        assert hermite_normalized(1, 0.0) == 0.0

    def test_against_log_domain_oracle(self):
        # a_50 H_50(2) e^{-2} at 50 digits
        with mpmath.workdps(50):
            expect = (mpmath.hermite(50, 2) * mpmath.exp(-2)
                      / mpmath.sqrt(2 ** 50 * mpmath.factorial(50)))
            expect = float(expect)
        assert hermite_normalized(50, 2.0) == pytest.approx(expect, rel=1e-12)

    def test_finite_over_whole_envelope(self):
        y = np.linspace(-40, 40, 81)
        rows = hermite_normalized_all(200, y)
        assert np.all(np.isfinite(rows))

    def test_consistent_with_raw(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 25))
            y = float(rng.uniform(-4, 4))
            a_n = 1.0 / math.sqrt(2.0 ** n * math.factorial(n))
            raw = hermite_normalized(n, y) * math.exp(0.5 * y * y) / a_n
            assert raw == pytest.approx(hermite(n, y), rel=1e-10)

    def test_squared_norm_is_sqrt_pi(self):
        from hermgauss.quadrature import integrate_real_line

        for n in (0, 3, 17):
            res = integrate_real_line(
                lambda y, n=n: hermite_normalized_all(n, y)[n] ** 2,
                degree_hint=2 * n + 1)
            assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


class TestOrthogonality:
    @pytest.mark.parametrize("n,m,bound", [(3, 5, 1e-10), (0, 0, 1e-12), (7, 7, 1e-10)])
    def test_examples(self, n, m, bound):
        assert orthogonality_residual(n, m) < bound

    def test_high_degree(self):
        assert orthogonality_residual(40, 40) < 1e-10
        assert orthogonality_residual(12, 60) < 1e-10

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            orthogonality_residual(61, 0)

    def test_unconverged_integral_raises(self):
        # The initial partition alone (84 panels of 15 points) overruns a
        # budget of 150 evaluations.
        with pytest.raises(QuadratureError, match="1260 evaluations"):
            orthogonality_residual(40, 40, QuadConfig(max_evaluations=150))
