"""Adaptive quadrature over the real line for Gaussian-weighted integrands.

Every integrand handled here decays like exp(-y^2) times a polynomial, so
the real line is truncated to a finite window whose half-width comes from
the Gaussian tail bound, and the window is integrated by adaptive bisection
with a Gauss-Kronrod 7-15 pair per panel.  Refinement is batched, as in
scipy's quad_vec: each pass ranks the panels by error against their
component's tolerance and bisects the shortest prefix that leaves at most
tol/8 of error in every component, all new halves in one integrand call.
The routines are deterministic: identical inputs produce bit-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "IntegrandError",
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


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_evaluations: int = 2_000_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_evaluations <= 0:
            raise ValueError("QuadConfig fields must be positive")


@dataclass(frozen=True)
class QuadResult:
    """Value and error estimate: floats, or length-k arrays for k integrands."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int
    converged: bool

    def __eq__(self, other):
        # The generated __eq__ compares field tuples: ambiguous for arrays.
        if not isinstance(other, QuadResult):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


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


def _panel(integrand, lo, hi):
    """Gauss-Kronrod 7-15 estimates of the panels [lo[i], hi[i]].

    The integrand is called once, on all panels' nodes together.  Returns
    (values, errors), each of shape (k, panels) for an integrand with k
    components (k = 1 for a scalar integrand), and whether it is scalar.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    y = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
    f = np.asarray(integrand(y), dtype=float)
    scalar = f.shape == y.shape
    if not scalar and (f.ndim != 2 or f.shape[1] != y.size):
        raise IntegrandError("integrand is not vectorized over its argument", y[0])
    bad = ~np.isfinite(f)
    if bad.any():
        raise IntegrandError("non-finite integrand value",
                             float(y[bad.reshape(-1, y.size).any(axis=0)][0]))
    f = f.reshape(-1, half.size, _GK_NODES.size)
    k = half * (f @ _KRONROD_W)
    g = half * (f @ _GAUSS_W)
    # QUADPACK-style sharpened error estimate.
    resabs = half * (np.abs(f) @ _KRONROD_W)
    diff = np.abs(k - g)
    scaled = np.divide(200.0 * diff, resabs, out=np.zeros_like(diff),
                       where=resabs > 0.0)
    err = np.where(scaled > 0.0, resabs * np.minimum(1.0, scaled ** 1.5), diff)
    return k, err, scalar


def integrate_real_line(integrand, config: QuadConfig | None = None,
                        degree_hint: int = 2) -> QuadResult:
    """Integrate a Gaussian-decaying, vectorized integrand over the real line.

    Parameters
    ----------
    integrand : callable
        Maps an ndarray of n y values to n integrand values, or to a (k, n)
        array for k integrands.  The k integrals share one set of panels,
        and the result's value and error estimate are then arrays of
        length k; each component meets its own tolerance.
    config : QuadConfig
        Tolerances and evaluation budget.  The initial partition is always
        evaluated, even past ``max_evaluations``; after it, each pass
        bisects only as many panels as the budget still allows, and the
        result is unconverged once not even one bisection fits.
    degree_hint : int
        Bound on the polynomial degree multiplying exp(-y^2); controls the
        truncation window.

    Each pass ranks the panels by max_c error[c] / tol[c], where
    tol[c] = max(abs_tol, rel_tol * |value[c]|), with a stable sort so
    ties go leftmost.  It bisects the shortest prefix after which every
    component's unpicked error is at most tol[c]/8, and evaluates all new
    halves in one integrand call.  It stops when every component's error
    estimate is within its tol[c].
    """
    if config is None:
        config = QuadConfig()
    cut = truncation_halfwidth(degree_hint, config.abs_tol)

    # Symmetric initial partition; enough panels that the first pass already
    # resolves the polynomial oscillations of degree_hint.
    n0 = max(8, degree_hint + 2)
    if n0 % 2 == 1:
        n0 += 1
    edges = np.linspace(-cut, cut, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    values, errors, scalar = _panel(integrand, lo, hi)
    evaluations = n0 * _GK_NODES.size
    per_bisection = 2 * _GK_NODES.size

    while True:
        total = np.array([math.fsum(v) for v in values])
        total_err = np.array([math.fsum(e) for e in errors])
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(total))
        converged = bool(np.all(total_err <= tol))
        budget = (config.max_evaluations - evaluations) // per_bisection
        if converged or budget < 1:
            if scalar:
                return QuadResult(float(total[0]), float(total_err[0]),
                                  evaluations, converged)
            return QuadResult(total, total_err, evaluations, converged)
        order = np.argsort(-(errors / tol[:, None]).max(axis=0), kind="stable")
        # left[:, m - 1] is the error outside the first m ranked panels.
        left = np.cumsum(errors[:, order[::-1]], axis=1)[:, -2::-1]
        enough = np.append(np.all(left <= tol[:, None] / 8.0, axis=0), True)
        pick = order[:min(int(np.argmax(enough)) + 1, budget)]
        mid = 0.5 * (lo[pick] + hi[pick])
        v, e, _ = _panel(integrand, np.concatenate([lo[pick], mid]),
                         np.concatenate([mid, hi[pick]]))
        evaluations += pick.size * per_bisection
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], lo[pick], mid])
        hi = np.concatenate([hi[keep], mid, hi[pick]])
        at = np.argsort(lo)  # panels stay in order along y: ties rank leftmost
        lo, hi = lo[at], hi[at]
        values = np.concatenate([values[:, keep], v], axis=1)[:, at]
        errors = np.concatenate([errors[:, keep], e], axis=1)[:, at]
