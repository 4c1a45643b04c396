"""A defect matrix for ``verify``: planted defects, and the checks that fail.

Each defect is applied with ``monkeypatch``, and ``verify`` runs at
(0.3, 1.2), seed 7, on a fresh spec of each kind.  Each cell asserts the
exact set of failing checks.  Where the defect applies, the cell also
asserts that it bites: the quantity it acts on (the metric, the kernel or
the draws) moves by at least a stated amount, so an empty set there means
that the checks are blind to it, not that the defect did nothing.  Where
the defect does not apply, nothing moves and nothing fails.
"""

import io
import json

import numpy as np
import pytest

from hermgauss import estimation, geometry, hermite, models, quadrature
from hermgauss.cli import RunConfig, run
from hermgauss.estimation import sample
from hermgauss.geometry import metric_quadrature
from hermgauss.models import ModelPoint, StateSpec, kernel
from hermgauss.quadrature import QuadConfig

POINT = ModelPoint(0.3, 1.2)

STATES = {
    "eigenstate": lambda: StateSpec.eigenstate(3),
    "real_superposition":
        lambda: StateSpec.superposition({0: 0.6, 1: 0.48, 3: 0.64}),
    "complex_superposition": lambda: StateSpec.superposition({0: 0.6, 1: 0.8j}),
    # The weight 0.01 lies under the raised rank cut.
    "mixture": lambda: StateSpec.mixture({0: 0.55, 2: 0.44, 5: 0.01}),
    # Itilde_musigma != 0, and the eigenvalue 0.007 lies under the raised cut.
    "density": lambda: StateSpec.density({(0, 0): 0.5, (1, 1): 0.3, (3, 3): 0.2,
                                          (0, 1): 0.38, (1, 0): 0.38}),
}


def offdiagonal_sign(mp):
    fisher = geometry._fisher_metric
    mp.setattr(geometry, "_fisher_metric",
               lambda point, path, m0, m1, m2: fisher(point, path, m0, -m1, m2))


def rank_cut(mp):
    # The kernel keeps p > max(p) * levels * 1e-2 instead of * eps.
    mp.setattr(models, "_EPS", 1e-2)


def top_row(mp):
    rows = hermite.hermite_normalized_all

    def scaled(n, y):
        out = rows(n, y)
        out[-1] *= 1.0 + 1e-6
        return out

    for module in (models, geometry):
        mp.setattr(module, "hermite_normalized_all", scaled)


def window(mp):
    halfwidth = quadrature.truncation_halfwidth
    for module in (quadrature, estimation):
        mp.setattr(module, "truncation_halfwidth",
                   lambda degree, tol: 0.35 * halfwidth(degree, tol))


def cdf_table(mp):
    mp.setattr(estimation, "_CDF_NODES", 64)


# defect: (the quantity it moves, by at least, {state: failing checks}); a
# state missing from the map is one where the defect does not apply.
MATRIX = {
    offdiagonal_sign: ("metric", 0.5, {
        "real_superposition": {"series_vs_quadrature"},
        "density": set(),
    }),
    rank_cut: ("kernel", 1e-3, {
        "mixture": {"kernel_normalization"},
        "density": {"kernel_normalization"},
    }),
    top_row: ("metric", 1e-7, {
        "eigenstate": {"closed_form_vs_quadrature", "series_vs_quadrature",
                       "kernel_normalization"},
        "real_superposition": {"series_vs_quadrature", "kernel_normalization"},
        "complex_superposition": {"kernel_normalization"},
        "mixture": {"kernel_normalization"},
        "density": {"kernel_normalization"},
    }),
    window: ("draws", 1e-3, {
        "eigenstate": {"exact_rule_vs_adaptive", "kernel_normalization"},
        "real_superposition": {"exact_rule_vs_adaptive", "kernel_normalization"},
        "complex_superposition": {"kernel_normalization"},
        "mixture": {"kernel_normalization"},
        "density": {"kernel_normalization"},
    }),
    cdf_table: ("draws", 1e-4, {state: set() for state in STATES}),
}


def verify(spec):
    """The failing checks of ``verify`` on ``spec``."""
    out = io.StringIO()
    status = run(RunConfig(state=spec, point=POINT, command="verify",
                           quad=QuadConfig(), output_format="json",
                           estimation={"seed": 7}, geodesic={}), out)
    failed = {c["name"] for c in json.loads(out.getvalue())["checks"]
              if not c["passed"]}
    assert status == (1 if failed else 0)
    return failed


def quantities(spec):
    return {"metric": np.array(metric_quadrature(spec, POINT).reduced),
            "kernel": kernel(spec).f(np.linspace(-3.0, 3.0, 61)),
            "draws": sample(spec, POINT, 256, 7).draws}


def move(got, clean):
    return float(np.max(np.abs(got - clean) / np.maximum(1.0, np.abs(clean))))


@pytest.fixture(scope="module")
def clean():
    for build in STATES.values():
        assert verify(build()) == set()
    return {state: quantities(build()) for state, build in STATES.items()}


@pytest.mark.parametrize("state", list(STATES))
@pytest.mark.parametrize("defect", list(MATRIX), ids=lambda d: d.__name__)
def test_defect_matrix(defect, state, clean, monkeypatch):
    quantity, floor, failing = MATRIX[defect]
    # The rule caches Hermite rows: none may outlive the defect.
    geometry._hermite_rule.cache_clear()
    try:
        with monkeypatch.context() as mp:
            defect(mp)
            failed = verify(STATES[state]())
            got = quantities(STATES[state]())
    finally:
        geometry._hermite_rule.cache_clear()
    if state in failing:
        assert move(got[quantity], clean[state][quantity]) >= floor
        assert failed == failing[state]
    else:
        assert max(move(got[k], clean[state][k]) for k in got) <= 1e-15
        assert failed == set()
