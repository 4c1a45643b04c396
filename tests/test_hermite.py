import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgauss.hermite import MAX_DEGREE, hermite_normalized_all
from hermgauss.quadrature import integrate_real_line


def rodrigues(n, y):
    """Small-n oracle: a_n (-1)^n e^{y^2/2} d^n/dy^n e^{-y^2}, evaluated
    symbolically."""
    t = sympy.Symbol("t")
    expr = ((-1) ** n * sympy.exp(t ** 2 / 2) * sympy.diff(sympy.exp(-t ** 2), t, n)
            / sympy.sqrt(2 ** n * sympy.factorial(n)))
    return float(expr.subs(t, sympy.Rational(y)).evalf(30))


def mp_normalized(n, y, dps=50):
    """a_n H_n(y) e^{-y^2/2} from mpmath's Hermite polynomial at ``dps`` digits."""
    with mpmath.workdps(dps):
        y = mpmath.mpf(y)
        return float(mpmath.hermite(n, y) * mpmath.exp(-y * y / 2)
                     / mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n)))


def hermite_normalized(n, y):
    return hermite_normalized_all(n, y)[n]


class TestHermite:
    def test_degree_zero_is_one(self):
        # psi_0 = exp(-y^2/2): H_0 = 1.
        assert hermite_normalized(0, 3.7) == math.exp(-0.5 * 3.7 * 3.7)

    def test_degree_two(self):
        # psi_2 = (4y^2 - 2) e^{-y^2/2} / sqrt(8)
        assert hermite_normalized(2, 1.0) == pytest.approx(
            2.0 * math.exp(-0.5) / math.sqrt(8.0), rel=1e-15)

    def test_degree_one(self):
        # psi_1 = 2y e^{-y^2/2} / sqrt(2)
        assert hermite_normalized(1, -0.25) == pytest.approx(
            -0.5 * math.exp(-0.03125) / math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("n,y", [(6, 0.5), (5, -1.5), (8, 2.0), (3, 0.0)])
    def test_matches_rodrigues_oracle(self, n, y):
        assert hermite_normalized(n, y) == pytest.approx(rodrigues(n, y),
                                                         rel=1e-12, abs=1e-300)

    def test_vectorized(self):
        y = np.linspace(-2, 2, 7)
        v = hermite_normalized(4, y)
        assert v.shape == y.shape
        assert v[3] == hermite_normalized(4, 0.0)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            hermite_normalized_all(MAX_DEGREE + 1, 0.0)
        with pytest.raises(ValueError):
            hermite_normalized_all(-1, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 60), y=st.floats(-5, 5))
    def test_parity_is_exact(self, n, y):
        # The recurrence preserves the sign symmetry bit for bit.
        assert hermite_normalized(n, -y) == (-1) ** n * hermite_normalized(n, y)


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

    @pytest.mark.parametrize("n", [40, 100, 150, 200])
    def test_envelope_against_mpmath(self, n):
        # Far out, psi_0 is subnormal (|y| > 37.6) or 0 (|y| > 38.6), and so
        # is every row; on the max(1, |v|) scale that is still exact.
        y = np.array([0.0, 0.37, 1.3, 2.9, 5.1, 9.7, 14.2, 19.9, 27.5, 39.0])
        got = hermite_normalized_all(n, y)[n]
        expect = np.array([mp_normalized(n, v, dps=60) for v in y])
        assert np.max(np.abs(got - expect) / np.maximum(1.0, np.abs(expect))) <= 1e-14

    def test_consistent_with_raw(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 25))
            y = float(rng.uniform(-4, 4))
            assert hermite_normalized(n, y) == pytest.approx(
                mp_normalized(n, y), rel=1e-10, abs=1e-300)

    def test_squared_norm_is_sqrt_pi(self):
        for n in (0, 3, 17):
            res = integrate_real_line(
                lambda y, n=n: hermite_normalized_all(n, y)[n] ** 2,
                degree_hint=2 * n + 1)
            assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


class TestOrthogonality:
    @staticmethod
    def residual(n, m):
        """|int psi_n psi_m - sqrt(pi) delta_nm| / sqrt(pi) by one adaptive
        integral, which must converge."""
        top = max(n, m)
        res = integrate_real_line(
            lambda y: np.prod(hermite_normalized_all(top, y)[[n, m]], axis=0),
            degree_hint=n + m + 1)
        assert res.converged
        target = math.sqrt(math.pi) if n == m else 0.0
        return abs(res.value - target) / math.sqrt(math.pi)

    @pytest.mark.parametrize("n,m,bound", [(3, 5, 1e-10), (0, 0, 1e-12), (7, 7, 1e-10)])
    def test_examples(self, n, m, bound):
        assert self.residual(n, m) < bound

    def test_high_degree(self):
        assert self.residual(40, 40) < 1e-10
        assert self.residual(12, 60) < 1e-10
