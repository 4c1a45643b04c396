"""Adaptive quadrature over the real line for Gaussian-weighted integrands.

Every integrand handled here decays like exp(-y^2) times a polynomial, so
the real line is truncated to a finite window whose half-width comes from
the Gaussian tail bound, and the window is integrated by adaptive
subdivision with a Gauss-Kronrod 7-15 pair per panel.  Refinement is
batched, as in scipy's quad_vec: each pass cuts the panels that carry the
error into four sub-panels each, all of them in one integrand call.  A
pass costs a fixed overhead besides its evaluations, mostly numpy's cost
per call: a forced full-line Fisher metric takes 85-210 us a pass on a
2-vCPU host.  The Hermite rows take 4 numpy calls a level, ``_panel`` 27
and the bookkeeping 29 a quartering pass.  So quarters, which reach a
narrow feature in half the passes that halves take, are worth their few
percent more evaluations.  Totals are numpy's pairwise sums over panels in
creation order: cheaper than exact sums over sorted panels, and off by
rounding only.  The routines are deterministic: identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .hermite import _flag, _integer, _number

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "IntegrandError",
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
        for name in ("rel_tol", "abs_tol"):
            object.__setattr__(self, name, _number(getattr(self, name), name, above=0.0))
        # A float budget would reach refinement as a slice bound.
        object.__setattr__(self, "max_evaluations", _integer(
            self.max_evaluations, "QuadConfig max_evaluations", 1))


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
    f = f.reshape(-1, half.size, _GK_NODES.size)
    resabs = np.abs(f) @ _KRONROD_W
    # No non-finite f escapes these sums; f is scanned only when one is not
    # finite, which an overflow of finite values can also cause.
    if not np.isfinite(resabs).all() and not np.isfinite(f).all():
        bad = ~np.isfinite(f).reshape(-1, y.size).all(axis=0)
        raise IntegrandError("non-finite integrand value", float(y[bad][0]))
    resabs *= half
    k = half * (f @ _KRONROD_W)
    g = half * (f @ _GAUSS_W)
    # QUADPACK-style sharpened error estimate.
    diff = np.abs(k - g)
    scaled = np.divide(200.0 * diff, resabs, out=np.zeros(diff.shape),
                       where=resabs > 0.0)
    err = np.where(scaled > 0.0, resabs * np.minimum(1.0, scaled ** 1.5), diff)
    return k, err, scalar


def integrate_real_line(integrand, config: QuadConfig | None = None,
                        degree_hint: int = 2, *, even: bool = False) -> QuadResult:
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
        evaluated, even past ``max_evaluations``; after it, the budget is
        counted in sub-panels of 15 evaluations.  Each pass quarters only
        as many panels as four sub-panels each still fit, bisects a single
        panel when only two or three fit, and the result is unconverged
        once not even one bisection fits.
    degree_hint : int
        Bound on the polynomial degree multiplying exp(-y^2), an integer
        >= 0 (else ValueError); controls the truncation window.
    even : bool
        The integrand is even in y (every component).  It is then
        integrated on [0, Y], the right half of the initial partition, and
        the value and error estimate are doubled; the tolerance applies to
        the doubled result.  Nothing checks the evenness: an odd component
        comes back as twice its half-line integral, not 0.

    Each pass sums every component's panel values and errors with numpy's
    pairwise sum, and ranks the panels by max_c error[c] / tol[c], where
    tol[c] = max(abs_tol, rel_tol * |value[c]|), with a stable sort over the
    panels in creation order (the initial partition left to right, then
    each pass's first quarters in rank order, its second quarters, and so
    on), so ties go to the oldest panel.  It cuts each panel of the shortest
    prefix after which every component's unpicked error is at most tol[c]/8
    into four, with edges lo, (lo+mid)/2, mid, (mid+hi)/2 and hi for
    mid = (lo+hi)/2, evaluated in one integrand call.  It stops when every
    component's error estimate is within its tol[c].
    """
    degree_hint = _integer(degree_hint, "degree_hint")
    if config is None:
        config = QuadConfig()
    cut = truncation_halfwidth(degree_hint, config.abs_tol)

    # Symmetric initial partition; enough panels that the first pass already
    # resolves the polynomial oscillations of degree_hint.  n0 is even, so
    # 0 is an edge and the half-line route takes the right n0/2 panels.
    n0 = max(8, degree_hint + 2)
    if n0 % 2 == 1:
        n0 += 1
    if _flag(even, "even"):
        edges, fold = np.linspace(0.0, cut, n0 // 2 + 1), 2.0
    else:
        edges, fold = np.linspace(-cut, cut, n0 + 1), 1.0
    values, errors, scalar = _panel(integrand, edges[:-1], edges[1:])
    evaluations = (edges.size - 1) * _GK_NODES.size
    # One block, a column per panel in creation order: c values, c errors, lo, hi.
    c = values.shape[0]
    block = np.concatenate((values, errors, edges[None, :-1], edges[None, 1:]))

    while True:
        sums = block.sum(axis=1)
        total, total_err = sums[:c], sums[c:2 * c]
        # A half-line total is half the result: it meets half its tolerance.
        tol = np.maximum(config.abs_tol / fold, config.rel_tol * np.abs(total))
        converged = bool((total_err <= tol).all())
        room = (config.max_evaluations - evaluations) // _GK_NODES.size
        if converged or room < 2:
            total, total_err = fold * total, fold * total_err
            if scalar:
                return QuadResult(float(total[0]), float(total_err[0]),
                                  evaluations, converged)
            return QuadResult(total, total_err, evaluations, converged)
        errors = block[c:2 * c]
        # Keys -max_c error[c] / tol[c], as a min over -tol.
        order = (errors / -tol[:, None]).min(axis=0).argsort(kind="stable")
        # left[:, m - 1] is the error outside the first m ranked panels.
        left = errors.take(order[::-1], axis=1).cumsum(axis=1)[:, -2::-1]
        enough = (left <= tol[:, None] / 8.0).all(axis=0)
        first = int(enough.argmax())
        parts = 4 if room >= 4 else 2
        m = min(first + 1 if enough[first] else order.size, room // parts)
        pick = order[:m]
        # Row j holds the picked panels' j-th edge of parts + 1: lo and hi,
        # their midpoint, then for quarters the midpoints either side of it.
        cuts = np.empty((parts + 1, m))
        block[2 * c:].take(pick, axis=1, out=cuts[::parts])
        cuts[parts // 2] = 0.5 * (cuts[0] + cuts[parts])
        if parts == 4:
            cuts[1::2] = 0.5 * (cuts[:-1:2] + cuts[2::2])
        sub_lo, sub_hi = cuts[:-1].ravel(), cuts[1:].ravel()
        v, e, _ = _panel(integrand, sub_lo, sub_hi)
        evaluations += sub_lo.size * _GK_NODES.size
        # Panels stay in creation order, the new ones last.
        keep = np.ones(order.size, dtype=bool)
        keep[pick] = False
        new = np.concatenate((v, e, sub_lo[None], sub_hi[None]))
        block = np.concatenate((block.compress(keep, axis=1), new), axis=1)
