"""Fisher-Rao metric of oscillator eigenstates, four ways.

For the n-th eigenstate the reduced (dimensionless) metric has the closed
form diag(2n+1, 2(n^2+n+1)).  This script recomputes it by adaptive
quadrature, by the Gauss-Hermite rule that is exact for pure states and,
for real coefficient vectors, by the series sums, and prints the agreement.
"""

import numpy as np

from hermgauss import (
    ModelPoint,
    StateSpec,
    metric_adaptive,
    metric_closed_form,
    metric_gauss_hermite,
    metric_quadrature,
    metric_series_real,
)

point = ModelPoint(mu=0.0, sigma=1.0)

print(f"{'n':>3} {'closed form':>24} {'adaptive err':>13} "
      f"{'Gauss-Hermite err':>18} {'series err':>11}")
for n in range(8):
    spec = StateSpec.eigenstate(n)
    closed = metric_closed_form(spec, point)
    ref = np.asarray(closed.reduced)
    errs = [np.max(np.abs(np.asarray(m.reduced) - ref)) for m in (
        metric_adaptive(spec, point), metric_gauss_hermite(spec, point),
        metric_series_real({n: 1.0}, point))]
    label = f"diag({closed.reduced[0]:.0f}, {closed.reduced[2]:.0f})"
    print(f"{n:>3} {label:>24} {errs[0]:>13.2e} {errs[1]:>18.2e} {errs[2]:>11.2e}")

print()
print("The reduced metric never depends on the parameter point; the full")
print("metric is just reduced / sigma^2:")
for sigma in (0.5, 1.0, 2.0):
    m = metric_quadrature(StateSpec.eigenstate(2), ModelPoint(1.3, sigma))
    print(f"  sigma={sigma:<4} I_mumu={m.i_mumu:<8.4f} "
          f"I_sigmasigma={m.i_sigmasigma:.4f}")
