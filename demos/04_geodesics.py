"""Geodesics on the (mu, sigma) half-plane.

The Gaussian family is a scaled hyperbolic plane, so its geodesics are
semicircles in the coordinates (mu/sqrt(2), sigma).  Higher eigenstates
rescale the metric but keep the structure.  A trace takes a metric from
any route and is sampled from its closed-form semicircles, so metric speed
is conserved to rounding.
"""

import numpy as np

from hermgauss import ModelPoint, StateSpec, geodesic_trace, metric_quadrature

start = ModelPoint(mu=0.0, sigma=1.0)
ground = StateSpec.eigenstate(0)

print("Gaussian geodesic through (0, 1) with velocity (0.8, 0.4):")
tr = geodesic_trace(metric_quadrature(ground, start), (0.8, 0.4), 4.0, 2000)
u = tr.samples[:, 1] / np.sqrt(2.0)
sig = tr.samples[:, 2]
u0 = u[0] + sig[0] * 0.4 / (0.8 / np.sqrt(2.0))
radius = np.sqrt((u - u0) ** 2 + sig ** 2)
print(f"  semicircle center u0 = {u0:.6f}, radius = {radius[0]:.6f}")
print(f"  radius drift over the trace: {np.ptp(radius):.2e}")

for i in range(0, 2001, 400):
    tau, mu, s = tr.samples[i, :3]
    print(f"  tau={tau:4.1f}  mu={mu:+8.4f}  sigma={s:7.4f}")

print()
print("metric speed conservation (relative drift over 2000 samples):")
for n in (0, 2):
    m = metric_quadrature(StateSpec.eigenstate(n), start)
    tr = geodesic_trace(m, (0.3, 0.2), 5.0, 2000)
    speeds = tr.metric_speeds()
    drift = np.max(np.abs(speeds - speeds[0])) / abs(speeds[0])
    print(f"  eigenstate {n}: drift = {drift:.2e}")

print()
print("a trajectory aimed at sigma -> 0 stops where sigma underflows to 0:")
tr = geodesic_trace(metric_quadrature(ground, ModelPoint(0.0, 0.05)),
                    (0.0, -5.0), 10.0, 200)
print(f"  boundary_hit = {tr.boundary_hit}, "
      f"last sigma = {tr.samples[-1, 2]:.3g} at tau = {tr.samples[-1, 0]:.4f}")
