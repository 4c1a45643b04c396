"""Metric of coherent superpositions: series sums vs quadrature.

For real coefficient vectors the three reduced components reduce to short
sums over neighboring coefficients; mixed parity turns on the off-diagonal
term.  The script draws a few random superpositions and compares the
series values against direct quadrature.
"""

import numpy as np

from hermgauss import (
    ModelPoint,
    StateSpec,
    metric_adaptive,
    metric_quadrature,
    metric_series_real,
)

point = ModelPoint(0.0, 1.0)
rng = np.random.default_rng(7)

print("equal 0+2 superposition (even parity, diagonal metric):")
coeffs = {0: 1 / np.sqrt(2), 2: 1 / np.sqrt(2)}
s = metric_series_real(coeffs, point)
q = metric_quadrature(StateSpec.superposition(coeffs), point)
print(f"  series:     {s.reduced}")
print(f"  quadrature: {q.reduced}")
print(f"  note I_mumu = 3 - sqrt(2) = {3 - np.sqrt(2):.12f}")

print()
print("random mixed-parity superpositions:")
for trial in range(4):
    count = int(rng.integers(2, 6))
    levels = rng.choice(9, size=count, replace=False)
    v = rng.uniform(-1, 1, size=count)
    v /= np.linalg.norm(v)
    coeffs = {int(n): float(c) for n, c in zip(levels, v)}
    spec = StateSpec.superposition(coeffs)
    s = metric_series_real(coeffs, point)
    q = metric_adaptive(spec, point, force_offdiagonal=True)
    err = np.max(np.abs(np.asarray(s.reduced) - np.asarray(q.reduced)))
    terms = ", ".join(f"{n}:{c:+.3f}" for n, c in sorted(coeffs.items()))
    print(f"  [{terms}]")
    print(f"    reduced = ({s.reduced[0]:.6f}, {s.reduced[1]:+.6f}, "
          f"{s.reduced[2]:.6f}),  series-vs-quadrature err = {err:.2e}")
