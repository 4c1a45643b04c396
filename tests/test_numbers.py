"""The package's number rule, ``hermite._number``, at every entry point that
takes a real or a coefficient, and its flag rule, ``hermite._flag``, at every
entry point that takes a flag.

A real entry accepts a Python float, an int and the same value as a numpy
float64 or float32 scalar, stores a Python float and gives the float
input's results bit for bit.  It refuses both bools, a numeric string,
None, a complex number, a 1-element or 0-d array, NaN, +-inf and the values
just outside its range, with the entry's error type and a message naming
the argument.  A coefficient entry takes a complex number too, as a Python
complex.  A flag entry takes a bool or a numpy bool, nothing else.
"""

import json
import math
import pickle

import numpy as np
import pytest

from hermgauss.cli import ConfigError, _typed, parse_config
from hermgauss.estimation import MleFit
from hermgauss.geometry import (MetricTensor2, crb_bound, geodesic_trace,
                                metric_adaptive, metric_closed_form,
                                metric_quadrature, metric_series_real)
from hermgauss.models import (InvalidStateError, ModelPoint, PhysicalOscillator,
                              StateSpec, from_physical, pdf)
from hermgauss.quadrature import QuadConfig, integrate_real_line

ORIGIN = ModelPoint(0.0, 1.0)
FIRST = StateSpec.eigenstate(1)
TINY = 5e-324  # the least positive double


def gaussian(config):
    return integrate_real_line(lambda y: np.exp(-y * y), config).value


def point(mu, sigma):
    p = ModelPoint(mu, sigma)
    return p.mu, p.sigma, metric_quadrature(FIRST, p).i_mumu, pdf(FIRST, p, 0.3)


def fit(mu, sigma):
    f = MleFit(mu, sigma, 3, 4)
    return f.mu, f.sigma, f.compass_evaluations, f.newton_passes


def physical(**given):
    fields = {"mass": 2.0, "omega0": 1.0, "x0": 3.0, "hbar": 1.0, **given}
    osc = PhysicalOscillator(**fields)
    p = from_physical(osc)
    return osc.mass, osc.omega0, osc.x0, osc.hbar, p.mu, p.sigma, osc.energy(2)


def quad(**given):
    config = QuadConfig(**given)
    return config.rel_tol, config.abs_tol, gaussian(config)


def geodesic(velocity=(0.3, 0.2), tau_end=1.0):
    return geodesic_trace(metric_closed_form(FIRST, ORIGIN), velocity, tau_end, 8).samples


def cli_field(name):
    return lambda v: _typed({name: v}, "'block'")[name]


def metric(k, v):
    reduced = [3.0, 0.0, 8.0]
    reduced[k] = v
    return MetricTensor2(ORIGIN, tuple(reduced), "closed_form").reduced


# (call of one real argument, an accepted integral value, range: "finite",
#  "> 0" or ">= 0", error type, message pattern)
REALS = {
    "model_point_mu": (lambda v: point(v, 1.0), 2, "finite", ValueError,
                       "^mu must be a"),
    "model_point_sigma": (lambda v: point(0.0, v), 2, "> 0", ValueError,
                          "^sigma must be a"),
    "mle_fit_mu": (lambda v: fit(v, 1.0), 2, "finite", ValueError, "^mu must be a"),
    "mle_fit_sigma": (lambda v: fit(0.0, v), 2, "> 0", ValueError,
                      "^sigma must be a"),
    **{f"physical_{name}": (lambda v, name=name: physical(**{name: v}), 2, bound,
                            ValueError, f"^{name} must be a")
       for name, bound in (("mass", "> 0"), ("omega0", "> 0"), ("x0", "finite"),
                           ("hbar", "> 0"))},
    **{f"quad_{name}": (lambda v, name=name: quad(**{name: v}), 1, "> 0",
                        ValueError, f"^{name} must be a")
       for name in ("rel_tol", "abs_tol")},
    "geodesic_tau_end": (lambda v: geodesic(tau_end=v), 2, "finite", ValueError,
                         "^tau_end must be a"),
    "geodesic_velocity_mu": (lambda v: geodesic(velocity=(v, 0.2)), 2, "finite",
                             ValueError, r"^velocity\[0\] must be a"),
    "geodesic_velocity_sigma": (lambda v: geodesic(velocity=[0.3, v]), 2, "finite",
                                ValueError, r"^velocity\[1\] must be a"),
    # Each component; the positive-definite test refuses a sign that the rule takes.
    **{f"metric_reduced_{k}": (lambda v, k=k: metric(k, v), 2, "finite", ValueError,
                               rf"^reduced\[{k}\] must be a")
       for k in range(3)},
    "mixture_weight": (
        lambda v: StateSpec.mixture({0: v, 1: 2.0}, renormalize=True).table, 2,
        ">= 0", InvalidStateError, "^mixture weight must be a"),
    "series_coefficient": (lambda v: metric_series_real({1: v}, ORIGIN).reduced, 1,
                           "finite", InvalidStateError,
                           "^series coefficient must be a"),
    **{f"cli_{name}": (cli_field(name), 2, "finite", ConfigError,
                       f"^invalid {name!r} in 'block': expected a")
       for name in ("weight", "re", "im", "mu", "sigma", "mass", "omega0", "x0",
                    "hbar", "rel_tol", "abs_tol", "tau_end")},
    "cli_velocity": (lambda v: cli_field("velocity")([v, 0.0]), 2, "finite",
                     ConfigError,
                     r"^invalid 'velocity' in 'block': velocity\[0\] must be a"),
}

# (call of one coefficient, an accepted integral value, error type, pattern)
COEFFICIENTS = {
    "superposition": (lambda v: StateSpec.superposition({0: v}).coeffs, 1,
                      InvalidStateError, "^superposition coefficient must be a"),
    "density": (lambda v: StateSpec.density({(0, 0): v}).table, 1,
                InvalidStateError, "^density coefficient must be a"),
}


def same_bits(a, b):
    # pickle compares bit for bit and tells a float from a numpy float.
    return pickle.dumps(a) == pickle.dumps(b)


def stored_types(value):
    """The types of the scalars in a call's result, arrays aside."""
    if isinstance(value, (tuple, list)):
        return {t for v in value for t in stored_types(v)}
    if isinstance(value, dict):
        return {t for v in value.values() for t in stored_types(v)}
    return set() if isinstance(value, np.ndarray) else {type(value)}


@pytest.mark.parametrize("entry", sorted(REALS))
@pytest.mark.parametrize("form", [int, np.float64, np.float32])
def test_real_forms_give_the_float_results(entry, form):
    call, good = REALS[entry][:2]
    want = call(float(good))
    assert same_bits(call(form(good)), want)
    assert stored_types(want) <= {float, int, complex}


@pytest.mark.parametrize("entry", sorted(COEFFICIENTS))
@pytest.mark.parametrize("form", [int, np.float64, np.float32, complex, np.complex128])
def test_coefficient_forms_give_the_float_results(entry, form):
    call, good = COEFFICIENTS[entry][:2]
    got = call(form(good))
    assert same_bits(got, call(float(good)))
    assert stored_types(got) == {complex}


def test_a_complex_coefficient_is_kept():
    assert StateSpec.superposition({0: 0.6j, 1: np.complex128(0.8)}).coeffs == {
        0: 0.6j, 1: 0.8 + 0j}


BAD = {"bool": True, "numpy_bool": np.True_, "string": "2", "none": None,
       "array": np.array([2.0]), "zero_d_array": np.array(2.0), "nan": math.nan,
       "inf": math.inf,
       "minus_inf": -math.inf}
OUTSIDE = {"finite": {}, "> 0": {"zero": 0.0, "negative": -TINY},
           ">= 0": {"negative": -TINY}}


def refusals():
    for entry, (_, _, bound, _, _) in sorted(REALS.items()):
        for name, bad in {**BAD, "complex": 2 + 0j, **OUTSIDE[bound]}.items():
            yield pytest.param(REALS[entry], bad, id=f"{entry}-{name}")
    for entry, (call, good, error, message) in sorted(COEFFICIENTS.items()):
        for name, bad in {**BAD, "complex_nan": complex(math.nan, 0.0)}.items():
            yield pytest.param((call, good, "finite", error, message), bad,
                               id=f"{entry}-{name}")


@pytest.mark.parametrize("entry, bad", refusals())
def test_refused(entry, bad):
    call, _, _, error, message = entry
    with pytest.raises(error, match=message) as info:
        call(bad)
    assert type(info.value) is error


def test_an_int_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match=r"^sigma must be a finite number > 0, got 1000"):
        ModelPoint(0.0, 10 ** 400)


# -- flags -------------------------------------------------------------------


def gaussian_moment(even):
    return integrate_real_line(lambda y: np.exp(-y * y) * (1.0 + y * y), even=even).value


def cli_renormalize(flag):
    return parse_config(json.dumps({
        "state": {"type": "mixture", "terms": [{"n": 0, "weight": 2.0},
                                               {"n": 1, "weight": 2.0}]},
        "renormalize": flag, "point": {"mu": 0.0, "sigma": 1.0},
        "command": "metric"})).state.table


# (call of one flag, error type, message pattern)
FLAGS = {
    "mixture_renormalize": (
        lambda f: StateSpec.mixture({0: 0.5, 1: 0.5}, renormalize=f).table,
        InvalidStateError, "^renormalize must be a boolean"),
    "superposition_renormalize": (
        lambda f: StateSpec.superposition({0: 0.6, 1: 0.8}, renormalize=f).coeffs,
        InvalidStateError, "^renormalize must be a boolean"),
    "density_renormalize": (
        lambda f: StateSpec.density({(0, 0): 0.5, (1, 1): 0.5}, renormalize=f).table,
        InvalidStateError, "^renormalize must be a boolean"),
    "integrate_even": (gaussian_moment, ValueError, "^even must be a boolean"),
    "force_offdiagonal": (
        lambda f: metric_adaptive(StateSpec.mixture({0: 0.5, 2: 0.5}), ORIGIN,
                                  force_offdiagonal=f).reduced,
        ValueError, "^force_offdiagonal must be a boolean"),
    # JSON has no numpy bool; the CLI reads the library's rule.
    "cli_renormalize": (cli_renormalize, ConfigError,
                        "^'renormalize' must be a boolean"),
}


@pytest.mark.parametrize("entry", sorted(set(FLAGS) - {"cli_renormalize"}))
@pytest.mark.parametrize("flag", [False, True])
def test_numpy_bool_is_the_same_flag(entry, flag):
    call = FLAGS[entry][0]
    assert same_bits(call(np.bool_(flag)), call(flag))


BAD_FLAGS = {"zero": 0, "one": 1, "float": 1.0, "string_false": "false",
             "string_no": "no", "none": None, "array": np.array(True)}


def flag_refusals():
    for entry in sorted(FLAGS):
        for name, bad in BAD_FLAGS.items():
            if not (entry == "cli_renormalize" and name == "array"):  # not JSON
                yield pytest.param(entry, bad, id=f"{entry}-{name}")


@pytest.mark.parametrize("entry, bad", flag_refusals())
def test_flag_refused(entry, bad):
    call, error, message = FLAGS[entry]
    with pytest.raises(error, match=message) as info:
        call(bad)
    assert type(info.value) is error


# -- the defects the rules close, with their figures ---------------------------


def test_float32_sigma_gives_the_float64_results():
    # A float32 sigma used to carry single precision into every result:
    # i_mumu 2.4793386 and crb_bound's sigma entry 0.20166668.
    narrow = metric_quadrature(FIRST, ModelPoint(0, np.float32(1.1)))
    wide = metric_quadrature(FIRST, ModelPoint(0, float(np.float32(1.1))))
    assert type(narrow.i_mumu) is float
    assert same_bits(narrow.i_mumu, wide.i_mumu)
    assert narrow.i_mumu == 2.4793387354987666
    assert same_bits(crb_bound(narrow), crb_bound(wide))
    assert crb_bound(narrow)[1, 1] == 0.20166667540868094


def test_bool_tolerance_is_refused():
    # QuadConfig(rel_tol=True) was a tolerance of 1: Itilde_mumu of
    # {0: 1/2, 3: 1/2} at (0, 1) came back as 1.3924254434672954, converged.
    with pytest.raises(ValueError, match="^rel_tol must be a number, got True"):
        QuadConfig(rel_tol=True)
    mixed = StateSpec.mixture({0: 0.5, 3: 0.5})
    assert metric_quadrature(mixed, ORIGIN).reduced[0] == pytest.approx(
        1.3924256708784846, rel=1e-12)


def test_string_mixture_weight_is_refused():
    with pytest.raises(InvalidStateError,
                       match="^mixture weight must be a number, got '1'"):
        StateSpec.mixture({0: "1"})


@pytest.mark.parametrize("build", [lambda: ModelPoint("0", 1),
                                   lambda: PhysicalOscillator("1", 1, 0)],
                         ids=["model_point", "physical"])
def test_string_point_raises_value_error(build):
    with pytest.raises(ValueError, match="must be a number, got '[01]'") as info:
        build()
    assert type(info.value) is ValueError


def test_odd_integrand_with_a_string_flag_is_refused():
    # even="no" was truthy: exp(-y^2)(1 + y) integrated to 2.7725, not sqrt(pi).
    odd = lambda y: np.exp(-y * y) * (1.0 + y)  # noqa: E731
    with pytest.raises(ValueError, match="^even must be a boolean, got 'no'"):
        integrate_real_line(odd, even="no")
    assert integrate_real_line(odd).value == pytest.approx(math.sqrt(math.pi))
