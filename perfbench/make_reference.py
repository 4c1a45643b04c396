"""Regenerate ``reference.json``: the pool of guarded-ratio states that
``geometry_sweep`` draws from, with their reference reduced metrics.

    PYTHONPATH=src python3 perfbench/make_reference.py

The pool is fixed (generator seed ``POOL_SEED``), so the stored table
covers every input any ``--seed`` can produce.  A stratum is one level set
with ``VARIANTS`` random weight or coefficient sets; a workload seed picks
one variant per stratum, so the cost of an input set stays steady while
the inputs change.

Each reference is ``metric_quadrature`` at ``rel_tol`` 1e-13.  As a check
that does not go through hermgauss's Hermite rows, kernels or quadrature,
the script recomputes every entry with ``scipy.integrate.quad`` on a
kernel built from ``numpy.polynomial.hermite`` and stores the worst
relative disagreement.  It fails if that exceeds ``CROSS_CHECK_TOL``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import hermite as nph
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hermgauss.geometry import metric_quadrature  # noqa: E402
from hermgauss.models import ModelPoint  # noqa: E402
from hermgauss.quadrature import QuadConfig  # noqa: E402
from workloads import (REFERENCE_PATH, _levels, _unit, build_state,  # noqa: E402
                       density, mixture, superposition)

POOL_SEED = 1811_01207
VARIANTS = 3
STRATA = {"mixture": 14, "complex": 14, "density": 16}
MAX_INDEX = 12
REFERENCE_CONFIG = QuadConfig(rel_tol=1e-13, abs_tol=1e-15)
CROSS_CHECK_TOL = 1e-9


def independent_reduced(spec):
    """Reduced metric from scipy quad on (f')^2/f, Hermite via numpy."""
    top = spec.max_index
    norms = [1.0 / math.sqrt(2.0 ** k * math.factorial(k)) for k in range(top + 1)]
    entries = [(n, m, v.real) for (n, m), v in spec.table.items() if v.real != 0.0]

    def rows(y):
        h = [nph.hermval(y, [0.0] * k + [1.0]) for k in range(top + 1)]
        dh = [2.0 * k * h[k - 1] if k else 0.0 * y for k in range(top + 1)]
        return h, dh

    def ratio(y):
        h, dh = rows(y)
        g = sum(lam * norms[n] * norms[m] * h[n] * h[m] for n, m, lam in entries)
        dg = sum(lam * norms[n] * norms[m] * (dh[n] * h[m] + h[n] * dh[m])
                 for n, m, lam in entries)
        # f = exp(-y^2) g / sqrt(2 pi); f' = exp(-y^2) (g' - 2 y g) / sqrt(2 pi)
        return math.exp(-y * y) * (dg - 2.0 * y * g) ** 2 / g / math.sqrt(2.0 * math.pi)

    cut = math.sqrt(2.0 * top * math.log(2.0 * top + math.e) + 2.0 * math.log(1e17))
    breaks = np.linspace(-cut, cut, 4 * top + 9)
    moments = []
    for power in range(3):
        total = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            v, _ = quad(lambda y: y ** power * ratio(y), a, b,
                        epsabs=1e-15, epsrel=1e-13, limit=200)
            total += v
        moments.append(total)
    return (moments[0] / math.sqrt(2.0), moments[1],
            math.sqrt(2.0) * moments[2] - 1.0)


def make_pool(rng):
    pool = {kind: [] for kind in STRATA}
    for kind, count in STRATA.items():
        for k in range(count):
            top = 1 + (k * MAX_INDEX) // count
            levels = _levels(rng, top, int(rng.integers(2, 4 if kind != "mixture" else 5)))
            variants = []
            for _ in range(VARIANTS):
                if kind == "mixture":
                    desc = mixture(rng, levels)
                elif kind == "complex":
                    desc = superposition(rng, levels, complex_coeffs=True)
                else:
                    # Rank 2, eigenvalues unbounded below: near-zeros occur.
                    p = rng.uniform(0.2, 0.8)
                    vectors = [_unit(rng, len(levels), True) for _ in range(2)]
                    desc = density(levels, [p, 1.0 - p], vectors)
                variants.append({"state": desc})
            pool[kind].append(variants)
    return pool


def main():
    pool = make_pool(np.random.default_rng(POOL_SEED))
    worst = 0.0
    for kind, strata in pool.items():
        for variants in strata:
            for entry in variants:
                spec = build_state(entry["state"])
                m = metric_quadrature(spec, ModelPoint(0.0, 1.0), REFERENCE_CONFIG)
                entry["reduced"] = list(m.reduced)
                other = independent_reduced(spec)
                err = max(abs(a - b) / max(1.0, abs(b))
                          for a, b in zip(m.reduced, other))
                worst = max(worst, err)
                print(f"{kind:8s} levels {sorted({t for k in spec.table for t in k})}"
                      f" reduced {m.reduced} scipy rel diff {err:.2e}")
    if worst > CROSS_CHECK_TOL:
        sys.exit(f"scipy cross-check disagrees by {worst:.2e}")
    doc = {
        "about": "Reference reduced metrics (Itilde_mumu, Itilde_musigma, "
                 "Itilde_sigmasigma) of the guarded-ratio states that "
                 "geometry_sweep draws from; written by make_reference.py.",
        "pool_seed": POOL_SEED,
        "rel_tol": REFERENCE_CONFIG.rel_tol,
        "abs_tol": REFERENCE_CONFIG.abs_tol,
        "scipy_cross_check_worst_rel_diff": worst,
        "pool": pool,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH} (scipy cross-check worst {worst:.2e})")


if __name__ == "__main__":
    main()
