"""Planted defects in the quadrature metric, and the checks of ``verify``
that must catch them.

``mu_independence``, ``sigma_scaling`` and ``metric_determinism`` each compare
the quadrature metric at the point with a rerun of it.  Each defect below
moves Itilde_mumu of every ``geometry.metric_quadrature`` result, by the
point it is computed at or by being a rerun; ``verify`` runs at the defect
matrix's point and seed, on rho01 and on the matrix's density table, and the
check that the defect targets must fail.
"""

import itertools
import math

import pytest

from hermgauss import checks, geometry
from hermgauss.geometry import MetricTensor2
from hermgauss.models import StateSpec
from test_verify_defects import POINT, STATES

SPECS = {"rho01": lambda: StateSpec.mixture({0: 0.5, 1: 0.5}),
         "density": STATES["density"]}

# check: Itilde_mumu as the defect gives it, from (Itilde_mumu, point, run),
# run counting the calls from 0.
DEFECTS = {
    # Every rerun one ulp above the first run.
    "metric_determinism": lambda a, point, run: math.nextafter(a, math.inf) if run else a,
    "mu_independence": lambda a, point, run: a + 1e-6 * point.mu,
    "sigma_scaling": lambda a, point, run: a + 1e-6 * point.sigma,
}


def plant(mp, moved):
    real, runs = geometry.metric_quadrature, itertools.count()

    def metric_quadrature(*args, **kwargs):
        m = real(*args, **kwargs)
        a, b, c = m.reduced
        return MetricTensor2(m.point, (moved(a, m.point, next(runs)), b, c), m.path)

    mp.setattr(geometry, "metric_quadrature", metric_quadrature)


def failing(spec):
    return {row["name"] for row in checks.verify(spec, POINT, seed=7) if not row["passed"]}


@pytest.mark.parametrize("state", list(SPECS))
@pytest.mark.parametrize("check", list(DEFECTS))
def test_planted_defect_fails_its_check(check, state, monkeypatch):
    assert failing(SPECS[state]()) == set()
    with monkeypatch.context() as mp:
        plant(mp, DEFECTS[check])
        assert check in failing(SPECS[state]())
