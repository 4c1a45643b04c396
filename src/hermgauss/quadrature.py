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


def _panel(integrand, edges):
    """Gauss-Kronrod 7-15 estimates of every panel between sorted ``edges``.

    The integrand is called once, on all panels' nodes together.  Returns
    (values, errors), each of shape (k, panels) for an integrand with k
    components (k = 1 for a scalar integrand), and whether it is scalar.
    """
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
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
        Tolerances and evaluation budget.
    degree_hint : int
        Bound on the polynomial degree multiplying exp(-y^2); controls the
        truncation window.
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
    values, errors, scalar = _panel(integrand, edges)
    evaluations = n0 * _GK_NODES.size

    while True:
        total = np.array([math.fsum(v) for v in values])
        total_err = np.array([math.fsum(e) for e in errors])
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(total))
        converged = bool(np.all(total_err <= tol))
        if converged or evaluations + 2 * _GK_NODES.size > config.max_evaluations:
            if scalar:
                return QuadResult(float(total[0]), float(total_err[0]),
                                  evaluations, converged)
            return QuadResult(total, total_err, evaluations, converged)
        # Bisect the panel whose error is largest against its component's
        # tolerance; argmax takes the leftmost of ties, so the refinement
        # order is deterministic.
        i = int(np.argmax((errors / tol[:, None]).max(axis=0)))
        split = np.array([edges[i], 0.5 * (edges[i] + edges[i + 1]), edges[i + 1]])
        v, e, _ = _panel(integrand, split)
        evaluations += 2 * _GK_NODES.size
        edges = np.concatenate([edges[:i], split, edges[i + 2:]])
        values = np.concatenate([values[:, :i], v, values[:, i + 1:]], axis=1)
        errors = np.concatenate([errors[:, :i], e, errors[:, i + 1:]], axis=1)


_DEN_FLOOR = 1e-300
_BLOWUP_FACTOR = 1e12


def guarded_ratio(num_den):
    """Vectorized num/den with a continuity fill at removable singularities.

    ``num_den(y)`` returns the pair (num, den) at y, so the two share one
    evaluation.  Where den falls below ``_DEN_FLOOR`` the ratio is replaced
    by the average of the ratio at y +- h with h = 1e-7 * (1 + |y|).  If the
    filled value exceeds ``_BLOWUP_FACTOR`` times the local median of the
    regular values, the singularity is not removable and an error is raised.
    """

    def ratio(y):
        y = np.asarray(y, dtype=float)
        n, d = (np.asarray(v, dtype=float) for v in num_den(y))
        out = np.empty_like(d)
        small = d < _DEN_FLOOR
        ok = ~small
        out[ok] = n[ok] / d[ok]
        if small.any():
            ys = y[small]
            h = 1e-7 * (1.0 + np.abs(ys))
            fill = 0.0
            for yy in (ys + h, ys - h):
                nn, dd = (np.asarray(v, dtype=float) for v in num_den(yy))
                with np.errstate(divide="ignore", invalid="ignore"):
                    r = np.where(dd >= _DEN_FLOOR, nn / np.maximum(dd, _DEN_FLOOR), 0.0)
                fill = fill + 0.5 * r
            local = float(np.median(np.abs(out[ok]))) if ok.any() else 0.0
            limit = _BLOWUP_FACTOR * max(local, 1e-30)
            if np.any(np.abs(fill) > limit):
                bad = ys[np.abs(fill) > limit][0]
                raise NonRemovableSingularityError(
                    f"denominator zero at y = {bad!r} is not matched by the "
                    "numerator; the state spec is likely invalid")
            out[small] = fill
        return out

    return ratio
