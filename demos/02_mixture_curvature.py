"""Scalar curvature of mixed states.

Eigenstates give R(n) = -1/(n^2+n+1); mixing levels changes the curvature.
The equal 0/1 mixture has an erf-based closed form and R close to -0.604.
Both curvature paths are shown, the reduced formula and the finite-difference
assembly, each taking the same quadrature metric.
"""

import math

from hermgauss import (
    ModelPoint,
    StateSpec,
    curvature_finite_difference,
    metric_quadrature,
    scalar_curvature_reduced,
)

point = ModelPoint(0.0, 1.0)

print("eigenstate curvature R(n) = -1/(n^2+n+1):")
for n in range(5):
    m = metric_quadrature(StateSpec.eigenstate(n), point)
    r = scalar_curvature_reduced(m).scalar_r
    print(f"  n={n}: R = {r:+.10f}   (exact {-1/(n*n+n+1):+.10f})")

print()
print("equal 0/1 mixture:")
mix = StateSpec.mixture({0: 0.5, 1: 0.5})
m = metric_quadrature(mix, point)
c = math.sqrt(2.0 * math.e * math.pi)
e = math.erf(1.0 / math.sqrt(2.0))
closed = (2.0 + c * (e - 1.0), 0.0, 2.0 + c * (1.0 - e))
print(f"  reduced metric (quadrature):  {m.reduced}")
print(f"  reduced metric (erf form):    {closed}")
r_reduced = scalar_curvature_reduced(m).scalar_r
r_fd = curvature_finite_difference(m).scalar_r
print(f"  R (reduced formula):      {r_reduced:+.7f}")
print(f"  R (finite differences):   {r_fd:+.7f}")
print(f"  discrepancy:              {abs(r_reduced - r_fd):.2e}")

print()
print("curvature interpolates between the pure levels as the weight moves:")
for w in (0.0, 0.25, 0.5, 0.75, 1.0):
    spec = (StateSpec.eigenstate(1) if w == 1.0 else
            StateSpec.eigenstate(0) if w == 0.0 else
            StateSpec.mixture({0: 1.0 - w, 1: w}))
    r = scalar_curvature_reduced(metric_quadrature(spec, point)).scalar_r
    print(f"  weight on level 1 = {w:<5} R = {r:+.6f}")
