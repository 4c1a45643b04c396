"""Physicists' Hermite polynomials and their Gaussian-normalized forms.

Raw H_n grows like (2y)^n and overflows quickly, so every probability
density in this package is built on the normalized functions
psi_n(y) = a_n * H_n(y) * exp(-y^2/2) with a_n = 1/sqrt(2^n n!), whose
three-term recurrence multiplies by bounded factors and stays representable
for n <= 200 and |y| <= 40.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadConfig, integrate_real_line

__all__ = [
    "MAX_DEGREE",
    "hermite_all",
    "hermite_normalized_all",
    "orthogonality_residual",
]

# Hard cap on the polynomial degree.  All worked cases in this problem
# domain use small n; the cap keeps the overflow envelope auditable.
MAX_DEGREE = 200


def _check_degree(n: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported cap {MAX_DEGREE}")
    return n


def hermite_all(n: int, y):
    """All H_0(y) .. H_n(y) by the upward recurrence, stacked along axis 0.

    Raises OverflowError if any intermediate leaves the double range; raw
    Hermite values are meant for small n, use the normalized form otherwise.
    """
    n = _check_degree(n)
    y = np.asarray(y, dtype=float)
    out = np.empty((n + 1,) + y.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = 2.0 * y
    for k in range(1, n):
        out[k + 1] = 2.0 * y * out[k] - 2.0 * k * out[k - 1]
        if not np.all(np.isfinite(out[k + 1])):
            raise OverflowError(
                f"Hermite recurrence overflowed at degree {k + 1}")
    return out


def hermite_normalized_all(n: int, y):
    """psi_0(y) .. psi_n(y), psi_k = a_k H_k(y) exp(-y^2/2), along axis 0.

    The recurrence is carried directly on psi_k:
        psi_{k+1} = sqrt(2/(k+1)) * y * psi_k - sqrt(k/(k+1)) * psi_{k-1},
    so each step multiplies by bounded factors and nothing overflows in the
    stated envelope (n <= 200, |y| <= 40).
    """
    n = _check_degree(n)
    y = np.asarray(y, dtype=float)
    out = np.empty((n + 1,) + y.shape)
    out[0] = np.exp(-0.5 * y * y)
    if n >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, n):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * y * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def orthogonality_residual(n: int, m: int, config: QuadConfig | None = None) -> float:
    """Relative residual of the weighted orthogonality of H_n and H_m.

    The integral int exp(-y^2) H_n H_m dy equals sqrt(pi) 2^n n! delta_nm.
    It is evaluated through the normalized functions,
    int psi_n psi_m dy = sqrt(pi) delta_nm, and the residual is reported
    relative to the geometric mean sqrt(pi) sqrt(2^n n! 2^m m!) of the two
    diagonal normalizations (for n = m this is exactly the diagonal value).
    Serves as a joint self-test of the recurrences and the quadrature.
    """
    n = _check_degree(n)
    m = _check_degree(m)
    if n > 60 or m > 60:
        raise ValueError("orthogonality residual is validated for n, m <= 60")
    top = max(n, m)

    def integrand(y):
        psi = hermite_normalized_all(top, y)
        return psi[n] * psi[m]

    res = integrate_real_line(integrand, config, degree_hint=n + m + 1)
    target = math.sqrt(math.pi) if n == m else 0.0
    return abs(res.value - target) / math.sqrt(math.pi)
