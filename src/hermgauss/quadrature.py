"""Adaptive quadrature over the real line for Gaussian-weighted integrands.

Every integrand handled here decays like exp(-y^2) times a polynomial, so
the real line is truncated to a finite window whose half-width comes from
the Gaussian tail bound, and the window is integrated by adaptive bisection
with a Gauss-Kronrod 7-15 pair per panel.  The routines are deterministic:
identical inputs produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "IntegrandError",
    "NonRemovableSingularityError",
    "truncation_halfwidth",
    "integrate_real_line",
]


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class IntegrandError(QuadratureError):
    """The integrand returned a non-finite value.

    Attributes
    ----------
    y : float
        The sample point at which the integrand misbehaved.
    """

    def __init__(self, message, y):
        super().__init__(f"{message} (at y = {y!r})")
        self.y = y


class NonRemovableSingularityError(QuadratureError):
    """A guarded ratio blew up at a zero of the denominator."""


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_evaluations: int = 2_000_000
    # Override for the truncation half-width, in units of the dimensionless
    # variable y.  None means "derive from degree_hint and abs_tol".
    tail_cutoff: float | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_evaluations <= 0:
            raise ValueError("QuadConfig fields must be positive")


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


# Gauss-Kronrod 7-15 pair on [-1, 1].  First seven nodes are the Gauss
# points (nonzero Gauss weight), the remaining eight are Kronrod-only.
_GK_NODES = np.array([
    +0.949107912342759, -0.949107912342759,
    +0.741531185599394, -0.741531185599394,
    +0.405845151377397, -0.405845151377397,
    0.000000000000000,
    +0.991455371120813, -0.991455371120813,
    +0.864864423359769, -0.864864423359769,
    +0.586087235467691, -0.586087235467691,
    +0.207784955007898, -0.207784955007898,
])
_GAUSS_W = np.array([
    0.129484966168870, 0.129484966168870,
    0.279705391489277, 0.279705391489277,
    0.381830050505119, 0.381830050505119,
    0.417959183673469,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
])
_KRONROD_W = np.array([
    0.063092092629979, 0.063092092629979,
    0.140653259715525, 0.140653259715525,
    0.190350578064785, 0.190350578064785,
    0.209482141084728,
    0.022935322010529, 0.022935322010529,
    0.104790010322250, 0.104790010322250,
    0.169004726639267, 0.169004726639267,
    0.204432940075298, 0.204432940075298,
])


def truncation_halfwidth(degree_hint: int, abs_tol: float) -> float:
    """Half-width Y such that the tail of exp(-y^2) * y^degree beyond |Y| is
    below abs_tol.

    For |y| >= Y the integrand is bounded by exp(-y^2) * y^d, and
    int_Y^inf exp(-y^2) y^d dy <= exp(-Y^2/2) * C once
    Y^2 >= d*log(d + e) + 2*log(1/abs_tol), which is the bound used here.
    """
    d = max(int(degree_hint), 0)
    y2 = d * math.log(d + math.e) + 2.0 * math.log(1.0 / abs_tol)
    return math.sqrt(max(y2, 4.0))


def _panel(integrand, a, b):
    """Gauss-Kronrod 7-15 estimate of a single panel [a, b].

    Returns (kronrod_value, error_estimate, samples_y, samples_f).
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = mid + half * _GK_NODES
    f = np.asarray(integrand(y), dtype=float)
    if f.shape != y.shape:
        raise IntegrandError("integrand is not vectorized over its argument", y[0])
    bad = ~np.isfinite(f)
    if bad.any():
        raise IntegrandError("non-finite integrand value", float(y[bad][0]))
    k = half * float(_KRONROD_W @ f)
    g = half * float(_GAUSS_W @ f)
    # QUADPACK-style sharpened error estimate.
    resabs = half * float(_KRONROD_W @ np.abs(f))
    diff = abs(k - g)
    if resabs > 0.0 and diff > 0.0:
        err = resabs * min(1.0, (200.0 * diff / resabs) ** 1.5)
    else:
        err = diff
    return k, err


def integrate_real_line(integrand, config: QuadConfig | None = None,
                        degree_hint: int = 2) -> QuadResult:
    """Integrate a Gaussian-decaying, vectorized integrand over the real line.

    Parameters
    ----------
    integrand : callable
        Maps an ndarray of y values to an ndarray of integrand values.
    config : QuadConfig
        Tolerances and evaluation budget.
    degree_hint : int
        Bound on the polynomial degree multiplying exp(-y^2); controls the
        truncation window.
    """
    if config is None:
        config = QuadConfig()
    if config.tail_cutoff is not None:
        cut = float(config.tail_cutoff)
    else:
        cut = truncation_halfwidth(degree_hint, config.abs_tol)

    # Symmetric initial partition; enough panels that the first pass already
    # resolves the polynomial oscillations of degree_hint.
    n0 = max(8, degree_hint + 2)
    if n0 % 2 == 1:
        n0 += 1
    edges = np.linspace(-cut, cut, n0 + 1)
    panels = []  # list of (a, b, value, err)
    evaluations = 0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = _panel(integrand, float(a), float(b))
        panels.append((float(a), float(b), v, e))
        evaluations += _GK_NODES.size

    while True:
        total = math.fsum(p[2] for p in panels)
        total_err = math.fsum(p[3] for p in panels)
        tol = max(config.abs_tol, config.rel_tol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err, evaluations, True)
        if evaluations + 2 * _GK_NODES.size > config.max_evaluations:
            return QuadResult(total, total_err, evaluations, False)
        # Bisect the worst panel; ties broken by leftmost position so the
        # refinement order is deterministic.
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        a, b, _, _ = panels.pop(worst)
        m = 0.5 * (a + b)
        left = _panel(integrand, a, m)
        right = _panel(integrand, m, b)
        evaluations += 2 * _GK_NODES.size
        panels.append((a, m) + left)
        panels.append((m, b) + right)
        panels.sort(key=lambda p: p[0])


def guarded_ratio(num, den, den_floor: float = 1e-300,
                  blowup_factor: float = 1e12):
    """Vectorized num/den with a continuity fill at removable singularities.

    Where den falls below ``den_floor`` the ratio is replaced by the average
    of the ratio at y +- h with h = 1e-7 * (1 + |y|).  If the filled value
    exceeds ``blowup_factor`` times the local median of the regular values,
    the singularity is not removable and an error is raised.
    """

    def ratio(y):
        y = np.asarray(y, dtype=float)
        n = np.asarray(num(y), dtype=float)
        d = np.asarray(den(y), dtype=float)
        out = np.empty_like(d)
        small = d < den_floor
        ok = ~small
        out[ok] = n[ok] / d[ok]
        if small.any():
            ys = y[small]
            h = 1e-7 * (1.0 + np.abs(ys))
            fill = np.empty_like(ys)
            for side in (+1.0, -1.0):
                yy = ys + side * h
                dd = np.asarray(den(yy), dtype=float)
                nn = np.asarray(num(yy), dtype=float)
                with np.errstate(divide="ignore", invalid="ignore"):
                    r = np.where(dd >= den_floor, nn / np.maximum(dd, den_floor), 0.0)
                if side > 0:
                    fill = 0.5 * r
                else:
                    fill = fill + 0.5 * r
            if ok.any():
                local = float(np.median(np.abs(out[ok])))
            else:
                local = 0.0
            limit = blowup_factor * max(local, 1e-30)
            if np.any(np.abs(fill) > limit):
                bad = ys[np.abs(fill) > limit][0]
                raise NonRemovableSingularityError(
                    f"denominator zero at y = {bad!r} is not matched by the "
                    "numerator; the state spec is likely invalid")
            out[small] = fill
        return out

    return ratio

