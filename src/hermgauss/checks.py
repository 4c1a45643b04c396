"""The cross-checks of ``verify``: one table of route pairs.

A route computes one quantity of a state at a point; ``Routes`` computes
each once per run, and a row of ``CHECKS`` compares two of them.  Routes
call the library through its modules (``geometry.metric_quadrature``), so
that a patch or a wrapper set on a module attribute reaches them.
"""

import math

import numpy as np

from . import estimation, geometry, models, quadrature

ROUTES = {
    "closed_form": lambda r: geometry.metric_closed_form(r.spec, r.point),
    "quadrature": lambda r: geometry.metric_quadrature(r.spec, r.point, r.config),
    "series": lambda r: geometry.metric_series_real(
        r.spec.real_superposition_coeffs(), r.point),
    "full_line": lambda r: geometry.metric_adaptive(  # off-diagonal integrated
        r.spec, r.point, r.config, force_offdiagonal=True),
    "zero_by_parity": lambda r: 0.0,
    "variance_ladder": lambda r: models._y_moments(r.spec)[1],  # Var y, no quadrature
    "reduced_curvature": lambda r: geometry.scalar_curvature_reduced(r["quadrature"]),
    "fd_curvature": lambda r: geometry.curvature_finite_difference(r["quadrature"]),
    # Itilde depends on neither mu nor sigma, so one rerun at a point moved in
    # both is the determinism rerun and both invariance moves at once.
    "quadrature_moved": lambda r: geometry.metric_quadrature(
        r.spec, models.ModelPoint(r.point.mu + 7.3, 3.0 * r.point.sigma), r.config),
    "unit_mass": lambda r: 1.0 / math.sqrt(2.0),  # int f dy at unit trace
    "kernel_mass": lambda r: quadrature.integrate_real_line(
        (kf := models.kernel(r.spec)).f, r.config, kf.degree_hint),
    "geodesic": lambda r: geometry.geodesic_trace(r["quadrature"], (0.3, 0.2), 5.0, 2000),
    "sample": lambda r: estimation.sample(r.spec, r.point, 256, r.seed),
}
ROUTES.update(sample_again=ROUTES["sample"])


class Routes(dict):
    """The routes' values on one state at one point, each computed once."""

    def __init__(self, spec, point, config=None, seed=0):
        self.spec, self.point, self.config, self.seed = spec, point, config, seed

    def __missing__(self, route):
        self[route] = value = ROUTES[route](self)
        return value


def _always(spec):
    return True


# The metric routes, in the order ``metric`` reports them, and when each applies.
METRIC_ROUTES = {"closed_form": lambda spec: spec.kind == "eigenstate",
                 "quadrature": _always,
                 "series": lambda spec: spec.real_superposition_coeffs() is not None}


def _within(figure, bound):
    return figure <= bound, figure


def _relative(k):  # two metrics' reduced components k, relative to max(1, |reference|)
    return lambda ref, got, bound: _within(max(abs(g - w) / max(1.0, abs(w)) for g, w in
                                               zip(got.reduced[k], ref.reduced[k])), bound)


def _speed_drift(trace, _, bound):  # one trace: each sample's speed against the start's
    speeds = trace.metric_speeds()
    return _within(float(np.max(np.abs(speeds - speeds[0])) / abs(speeds[0])), bound)


# Rows: (name, (reference, tested), applies(spec), compare(reference, tested, bound)
# -> (passed, detail), bound), None asking for equal bits.  The quadrature metric is
# the exact rule at rank one, and above it integrates a parity-even state's diagonal
# on the half line: the full-line metric checks both.
CHECKS = (
    *((f"{k}_vs_quadrature", (k, "quadrature"), applies, _relative(slice(3)), 1e-8)
      for k, applies in METRIC_ROUTES.items() if k != "quadrature"),
    ("exact_rule_vs_adaptive", ("quadrature", "full_line"),
     lambda spec: models.kernel(spec).rank == 1, _relative(slice(3)), 1e-8),
    ("offdiagonal_vanishes", ("zero_by_parity", "full_line"), lambda spec: spec.parity_even,
     lambda zero, m, bound: (abs(m.reduced[1] - zero) <= bound, m.reduced[1]), 1e-10),
    ("half_line_vs_full_line", ("full_line", "quadrature"),
     lambda spec: spec.parity_even and models.kernel(spec).rank != 1,
     _relative(slice(0, 3, 2)), 1e-8),
    ("location_crb", ("variance_ladder", "quadrature"), _always,  # Var x = 2 sigma^2 Var y
     lambda var_y, m, bound: ((ratio := 2.0 * m.reduced[0] * var_y) >= 1.0 - bound, ratio),
     1e-12),
    ("curvature_paths_agree", ("reduced_curvature", "fd_curvature"), _always,
     lambda a, b, bound: _within(abs(a.scalar_r - b.scalar_r), bound), 1e-4),
    ("mu_independence", ("quadrature", "quadrature_moved"), _always,
     lambda a, b, bound: _within(max(abs(x - y) for x, y in zip(a.reduced, b.reduced)),
                                 bound), 1e-10),
    ("sigma_scaling", ("quadrature", "quadrature_moved"), _always,
     lambda m, s, bound: _within(max(abs(s.point.sigma ** 2 * a - m.point.sigma ** 2 * b)
                                     for a, b in zip(s.matrix().ravel(), m.matrix().ravel())),
                                 bound), 1e-10),
    ("kernel_normalization", ("unit_mass", "kernel_mass"), _always,
     lambda exact, res, bound: _within(abs(res.value - exact), bound) if res.converged
     else (False, f"not converged within {res.evaluations} evaluations"), 1e-8),
    ("geodesic_speed_conservation", ("geodesic", "geodesic"), _always, _speed_drift, 1e-6),
    ("sampler_determinism", ("sample", "sample_again"), _always,
     lambda a, b, _: (np.array_equal(a.draws, b.draws), a.rng_seed), None),
    ("metric_determinism", ("quadrature", "quadrature_moved"), _always,
     lambda a, b, _: (b.reduced == a.reduced, a.reduced), None),
)


def verify(spec, point, config=None, seed=0):
    """Yield each row of ``CHECKS`` that applies, as {"name", "passed", "detail"};
    the quadrature metric comes first, so that its failure is the one raised."""
    values = Routes(spec, point, config, seed)
    values["quadrature"]
    for name, routes, applies, compare, bound in CHECKS:
        if applies(spec):
            passed, detail = compare(*map(values.__getitem__, routes), bound)
            yield {"name": name, "passed": bool(passed), "detail": detail}
