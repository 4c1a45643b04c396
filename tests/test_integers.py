"""The package's one integer rule, ``hermite._integer``, at every entry point
that takes a level, degree, count, seed, step count, budget or derivative
order.

Each entry accepts a Python integer and the same numpy integer with
bit-identical results, and refuses a fraction, an integral float, both
bools, a numeric string, None and the values just outside its range, with
the entry's error type and a message naming the argument.
"""

import pickle

import numpy as np
import pytest

from hermgauss.cli import ConfigError, _typed
from hermgauss.estimation import crb_experiment, sample
from hermgauss.geometry import geodesic_trace, metric_closed_form, metric_series_real
from hermgauss.hermite import MAX_DEGREE, hermite_normalized_all
from hermgauss.models import (
    InvalidStateError,
    ModelPoint,
    PhysicalOscillator,
    StateSpec,
    kernel,
    wavefunction,
)
from hermgauss.quadrature import QuadConfig, integrate_real_line

ORIGIN = ModelPoint(0.0, 1.0)
GROUND = StateSpec.eigenstate(0)


def crb(trials=30, samples_per_trial=20, seed=2):
    rep = crb_experiment(GROUND, ORIGIN, trials, samples_per_trial, seed)
    return rep.trials, rep.samples_per_trial, rep.estimates, rep.empirical_cov


def draws(seed):
    batch = sample(GROUND, ORIGIN, 3, seed)
    return batch.draws, batch.rng_seed


def geodesic(steps):
    metric = metric_closed_form(StateSpec.eigenstate(1), ORIGIN)
    return geodesic_trace(metric, (0.3, 0.2), 1.0, steps).samples


def budget(k):
    config = QuadConfig(max_evaluations=k)  # stored as the rule returns it
    return config.max_evaluations, integrate_real_line(lambda y: np.exp(-y * y), config)


def gaussian(degree_hint):
    return integrate_real_line(lambda y: np.exp(-y * y), None, degree_hint)


def jet(order):
    return kernel(StateSpec.eigenstate(1)).jet(np.array([0.3, -1.2]), order)


def cli_field(name):
    return lambda k: _typed({name: k}, "'block'")[name]


LEVEL = "^level must be an integer"

# (call of one integer argument, an accepted value, least, cap or None,
#  error type, message pattern)
ENTRIES = {
    "eigenstate": (lambda k: StateSpec.eigenstate(k).table, 2, 0, MAX_DEGREE,
                   InvalidStateError, LEVEL),
    "mixture": (lambda k: StateSpec.mixture([(0, 0.5), (k, 0.5)]).table, 2, 0,
                MAX_DEGREE, InvalidStateError, LEVEL),
    "superposition": (lambda k: StateSpec.superposition([(0, 0.6), (k, 0.8)]).coeffs,
                      2, 0, MAX_DEGREE, InvalidStateError, LEVEL),
    "density_n": (lambda k: StateSpec.density({(k, k): 1.0}).table, 2, 0,
                  MAX_DEGREE, InvalidStateError, LEVEL),
    "density_m": (lambda k: StateSpec.density({(0, 0): 0.5, (2, 2): 0.5,
                                               (2, k): 0.1, (k, 2): 0.1}).table,
                  0, 0, MAX_DEGREE, InvalidStateError, LEVEL),
    "wavefunction": (lambda k: wavefunction(k, ORIGIN, 0.3), 2, 0, MAX_DEGREE,
                     InvalidStateError, LEVEL),
    "energy": (lambda k: PhysicalOscillator(1.0, 1.0, 0.0).energy(k), 2, 0, None,
               ValueError, LEVEL),
    "metric_series_real": (
        lambda k: metric_series_real([(0, 0.6), (k, 0.8)], ORIGIN).reduced, 2, 0,
        None, InvalidStateError, LEVEL),
    "hermite_normalized_all": (lambda k: hermite_normalized_all(k, 0.3), 2, 0,
                               MAX_DEGREE, ValueError, "^degree must be an integer"),
    "sample_count": (lambda k: sample(GROUND, ORIGIN, k, 1).draws, 2, 1, None,
                     ValueError, "^count must be an integer"),
    "sample_seed": (draws, 2, 0, None, ValueError, "^seed must be an integer"),
    "crb_trials": (lambda k: crb(trials=k), 30, 30, None, ValueError,
                   "^trials must be an integer"),
    "crb_samples_per_trial": (lambda k: crb(samples_per_trial=k), 20, 2, None,
                              ValueError, "^samples_per_trial must be an integer"),
    "crb_seed": (lambda k: crb(seed=k), 2, 0, None, ValueError,
                 "^seed must be an integer"),
    "geodesic_steps": (geodesic, 2, 1, None, ValueError, "^steps must be an integer"),
    "degree_hint": (gaussian, 2, 0, None, ValueError,
                    "^degree_hint must be an integer"),
    "jet_order": (jet, 2, 0, 2, ValueError, "^order must be an integer"),
    "max_evaluations": (budget, 2, 1, None, ValueError,
                        "^QuadConfig max_evaluations must be an integer"),
    **{f"cli_{name}": (cli_field(name), least, least, None, ConfigError,
                       f"^invalid {name!r} in 'block': {name} must be an integer")
       for name, least in (("n", 0), ("m", 0), ("max_evaluations", 1),
                           ("trials", 30), ("samples_per_trial", 2),
                           ("seed", 0), ("count", 1), ("steps", 1))},
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numpy_integer_is_the_same_integer(entry):
    call, good = ENTRIES[entry][:2]
    # pickle compares bit for bit and tells an int from a numpy integer.
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


BAD = {"fraction": 2.5, "float": 3.0, "bool": True, "numpy_bool": np.True_,
       "string": "2", "none": None}


def refusals():
    for entry, (_, _, least, most, _, _) in sorted(ENTRIES.items()):
        cases = {**BAD, "below_least": least - 1}
        if most is not None:
            cases["above_cap"] = most + 1
        for name, bad in cases.items():
            yield pytest.param(entry, bad, id=f"{entry}-{name}")


@pytest.mark.parametrize("entry, bad", refusals())
def test_refused(entry, bad):
    call, _, _, _, error, message = ENTRIES[entry]
    with pytest.raises(error, match=message) as info:
        call(bad)
    assert type(info.value) is error


@pytest.mark.parametrize("key", [(0,), (0, 0, 0), 0, None],
                         ids=["one_level", "three_levels", "int", "none"])
def test_density_key_that_is_not_a_pair_is_refused(key):
    with pytest.raises(InvalidStateError,
                       match=r"density entry .* is not a pair of levels"):
        StateSpec.density({key: 1.0})
