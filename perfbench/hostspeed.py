"""Host-speed scaling of measured times.

On a shared host other tenants' load slows the same code by 1.5x and more,
from second to second and from run to run, so raw times of one program
spread by 15-40% between 30 s runs.  Right after each timed stretch (an op
or the set-up) the worker runs a fixed calibration kernel for CAL_SHARE of
that stretch's time, and scales the stretch's time by the kernel's
reference time over its measured mean time.  A scaled time is the time on
a host that runs the kernel in its reference time.

The kernels share no code with hermgauss, so a change to hermgauss moves
a scaled time as much as a raw one, while load that slows the op and the
kernel alike cancels out.  Load does not slow all code alike, so each
workload names, in ``Workload.calibration``, the kernel whose speed
tracks its ops:

* ``panel``  -- a short numpy recurrence driven from Python, as the
  Hermite rows on a quadrature panel, plus a little vector work;
* ``vector`` -- whole-array work on 5000 points, as the likelihood and the
  CDF inversion over a trial's samples.

and whether each op is scaled by the sample taken right after it
(geometry_sweep and cli_verify, whose ops take milliseconds to a second)
or every op by the mean of the samples over the run (crb_monte_carlo,
whose 2 s ops average over the host's fast and slow phases themselves, so
that one sample after an op is noisier than the op).  The reference times are the kernels' median times on the
host the baseline in meta.json was measured on, at one moment; only
ratios to them matter.
"""

from __future__ import annotations

import math
import time

import numpy as np

CAL_SHARE = 0.1

_PANEL_Y = np.linspace(-4.0, 4.0, 15)
_PANEL_X = np.linspace(-6.0, 6.0, 2048)
_PANEL_U = 0.5 * (1.0 + np.sin(7.0 * _PANEL_X))
_VECTOR_X = np.linspace(-5.0, 5.0, 5000)
_VECTOR_U = 0.5 * (1.0 + np.sin(13.0 * _VECTOR_X))
_VECTOR_CDF = np.cumsum(np.exp(-0.5 * _VECTOR_X * _VECTOR_X))


def panel_kernel():
    y = _PANEL_Y
    prev, cur = np.zeros_like(y), np.exp(-0.5 * y * y)
    for k in range(40):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * y * cur - math.sqrt(k / (k + 1.0)) * prev
    cdf = np.cumsum(np.exp(-0.5 * _PANEL_X * _PANEL_X))
    idx = np.searchsorted(cdf, cdf[-1] * _PANEL_U)
    return float(cur @ cur + np.log1p(cdf).sum() + idx.sum())


def vector_kernel():
    y = 0.9 * _VECTOR_X + 0.1
    h1 = math.sqrt(2.0) * y
    h2 = (math.sqrt(2.0) * y * h1 - 1.0) / math.sqrt(2.0)
    p = np.exp(-0.5 * y * y) * (0.5 + 0.3 * h1 + 0.2 * h2) ** 2 + 1e-300
    idx = np.searchsorted(_VECTOR_CDF, _VECTOR_CDF[-1] * _VECTOR_U)
    return float(np.log(p).sum() + idx.sum())


# name -> (kernel, reference time in ns)
KERNELS = {"panel": (panel_kernel, 300_000), "vector": (vector_kernel, 250_000)}


def sample(kernel_name, busy_ns):
    """Run the kernel for about CAL_SHARE * ``busy_ns``, at least once.

    Returns (runs, elapsed ns).
    """
    kernel = KERNELS[kernel_name][0]
    clock = time.perf_counter_ns
    start = clock()
    until = start + int(CAL_SHARE * busy_ns)
    runs = 0
    while True:
        kernel()
        runs += 1
        now = clock()
        if now >= until:
            return runs, now - start


def scales(kernel_name, per_op, samples):
    """Scale factor for each stretch, from the sample taken after it.

    ``per_op`` False gives every stretch the factor of the pooled samples.
    """
    ref_ns = KERNELS[kernel_name][1]
    if per_op:
        return [ref_ns * runs / ns for runs, ns in samples]
    pooled = ref_ns * sum(r for r, _ in samples) / sum(ns for _, ns in samples)
    return [pooled] * len(samples)
