"""An independence audit of ``verify``: what the two sides of each check share.

Two routes that share the code under test are not a check.  Each side of
each row of ``checks.CHECKS`` runs under ``sys.setprofile``, on a fresh spec
and with ``geometry._hermite_rule``'s cache cleared, on one state of each
kind (the defect matrix's states, at its point and seed).  The ``hermgauss``
functions that both sides call, named ``module.function``, must be exactly
those that ``SHARED`` records for the check, each with the reason it is
shared.  A new check, or a new shared function, fails until ``SHARED``
records it; a recorded function that no side shares any more fails too.

Names come from ``f_globals["__name__"]`` and ``co_name`` (``co_qualname``
exists only from Python 3.11), so a dataclass's generated ``__init__``
counts under its module.  Not recorded: ``hermgauss.checks`` itself, which
only dispatches, and nested code objects (``<lambda>``, ``<genexpr>``, ...),
whose enclosing function is recorded.
"""

import sys

import pytest

from hermgauss import checks, geometry
from test_verify_defects import POINT, STATES

CONSTRUCTORS = dict.fromkeys(
    ["hermgauss.geometry.__init__", "hermgauss.geometry.__post_init__",
     "hermgauss.hermite._number"],
    "MetricTensor2's constructor, the number rule it reads its components "
    "with and its refusal of a metric that is not positive definite: it "
    "holds the result, and computes none of it")
INTEGER_RULE = {"hermgauss.hermite._integer":
                "the integer rule for levels and counts; it computes no "
                "compared number"}
NUMBER_RULES = dict.fromkeys(
    ["hermgauss.hermite._number", "hermgauss.hermite._flag"],
    "the number and flag rules, for QuadConfig's tolerances and the half-line "
    "and off-diagonal flags; they compute no compared number")
MEMO = {"hermgauss.models.memoized":
        "the per-spec memo's wrapper (models._per_spec); what it memoizes is "
        "listed on its own"}
# The kernel under test and the metric's assembly from its Fisher moments:
# a fault in either moves both sides alike (the defect matrix's top-row
# cell, and a packet dropped by the rank cut).
KERNEL = dict.fromkeys(
    ["hermgauss.models.kernel", "hermgauss.models.__init__",
     "hermgauss.models.packets", "hermgauss.models.fisher_ratio",
     "hermgauss.hermite.hermite_normalized_all",
     "hermgauss.geometry._fisher_metric"],
    "the kernel, its Hermite rows and Fisher ratio, and the metric's "
    "assembly from the Fisher moments are on both sides")
# The adaptive integrator and its window: a fault in either moves both
# sides alike (the defect matrix's window cell).
ADAPTIVE = dict.fromkeys(
    ["hermgauss.geometry.metric_adaptive", "hermgauss.geometry.integrand",
     "hermgauss.models.psum", "hermgauss.quadrature.integrate_real_line",
     "hermgauss.quadrature._panel", "hermgauss.quadrature.truncation_halfwidth",
     "hermgauss.quadrature.__init__", "hermgauss.quadrature.__post_init__"],
    "both sides integrate with metric_adaptive, on the same window and panels")
# Every function that metric_quadrature runs, by the exact rule at rank one
# and by the adaptive integral above it.
QUADRATURE_ROUTE = [*CONSTRUCTORS, *INTEGER_RULE, *NUMBER_RULES, *MEMO, *KERNEL, *ADAPTIVE,
                    "hermgauss.geometry.metric_quadrature",
                    "hermgauss.geometry.metric_gauss_hermite",
                    "hermgauss.geometry._hermite_rule"]


def same_route(reason):
    return dict.fromkeys(QUADRATURE_ROUTE, "same route: " + reason)


SHARED = {
    "closed_form_vs_quadrature": CONSTRUCTORS,
    "series_vs_quadrature": {**CONSTRUCTORS, **INTEGER_RULE},
    # The exact rule against the full-line adaptive integral of one kernel.
    "exact_rule_vs_adaptive": {**CONSTRUCTORS, **INTEGER_RULE, **MEMO, **KERNEL},
    # Against an exact zero.
    "offdiagonal_vanishes": {},
    "half_line_vs_full_line": {**CONSTRUCTORS, **INTEGER_RULE, **NUMBER_RULES, **MEMO,
                               **KERNEL, **ADAPTIVE},
    # Var y is summed over the state's table, with no kernel or quadrature.
    "location_crb": MEMO,
    "curvature_paths_agree": same_route(
        "both curvatures take the one quadrature metric; the check tests the "
        "finite-difference assembly against the reduced formula, not the metric"),
    # Today's metric_quadrature integrates in y, never reads mu, and reads
    # sigma only to divide at the end: these two checks are vacuous on it.
    "mu_independence": same_route(
        "the quadrature metric at the point and at (mu + 7.3, 3 sigma); the "
        "check compares the reduced components, which sigma does not move"),
    "sigma_scaling": same_route(
        "the quadrature metric at the point and at (mu + 7.3, 3 sigma); the "
        "check compares sigma^2 times the physical components, which mu does "
        "not move"),
    # Against the exact unit mass, 1/sqrt(2).
    "kernel_normalization": {},
    "geodesic_speed_conservation": {
        **same_route("one trace from the quadrature metric; the check compares "
                     "its speed along the path with its speed at the start"),
        "hermgauss.geometry.geodesic_trace": "same route: the one trace",
        "hermgauss.geometry._velocity": "same route: the one trace's velocity"},
    "sampler_determinism": dict.fromkeys(
        ["hermgauss.estimation.sample", "hermgauss.estimation._cdf_table",
         "hermgauss.estimation.__init__", "hermgauss.estimation.segments",
         "hermgauss.estimation._horner", "hermgauss.estimation.invert",
         "hermgauss.models.jet", "hermgauss.models.kernel",
         "hermgauss.models.__init__", "hermgauss.models.packets",
         "hermgauss.models.psum", "hermgauss.models.memoized",
         "hermgauss.hermite._integer", "hermgauss.hermite.hermite_normalized_all",
         "hermgauss.quadrature.truncation_halfwidth"],
        "same route: the sampler twice with one seed, each on a fresh CDF table"),
    "metric_determinism": same_route(
        "the quadrature metric, computed twice: at the point and at "
        "(mu + 7.3, 3 sigma), where the reduced components are the same"),
}


def calls(state, route):
    """The hermgauss functions that ``route`` calls on a fresh ``state``."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
            if (module.startswith("hermgauss.") and module != "hermgauss.checks"
                    and not name.startswith("<")):
                seen.add(f"{module}.{name}")

    geometry._hermite_rule.cache_clear()
    values = checks.Routes(STATES[state](), POINT, seed=7)
    sys.setprofile(profile)
    try:
        values[route]
    finally:
        sys.setprofile(None)
        geometry._hermite_rule.cache_clear()
    return seen


@pytest.fixture(scope="module")
def shared():
    """{check: {state: the functions both sides call}}, where it applies."""
    return {name: {state: calls(state, a) & calls(state, b)
                   for state, build in STATES.items() if applies(build())}
            for name, (a, b), applies, *_ in checks.CHECKS}


def test_every_check_is_recorded():
    assert [row[0] for row in checks.CHECKS] == list(SHARED)
    assert all(reason.strip() for entry in SHARED.values() for reason in entry.values())


@pytest.mark.parametrize("check", [row[0] for row in checks.CHECKS])
def test_shared_functions_are_recorded(check, shared):
    assert shared[check], f"{check} applies to none of the audited states"
    seen = set().union(*shared[check].values())
    recorded = set(SHARED.get(check, {}))
    assert not seen - recorded, f"shared but not recorded: {sorted(seen - recorded)}"
    assert not recorded - seen, f"recorded but not shared: {sorted(recorded - seen)}"
