"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import io
import json
import math
import time

import mpmath
import numpy as np
import pytest

from hermgauss.cli import parse_config, run
from hermgauss.estimation import crb_experiment
from hermgauss.geometry import (
    curvature_finite_difference,
    geodesic_trace,
    metric_adaptive,
    metric_quadrature,
    metric_series_real,
    scalar_curvature_reduced,
)
from hermgauss.hermite import hermite_normalized_all
from hermgauss.models import ModelPoint, StateSpec
from hermgauss.quadrature import integrate_real_line

ORIGIN = ModelPoint(0.0, 1.0)


def report(number, title, passed):
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {title}")
    assert passed


def random_weights(rng, count):
    w = rng.uniform(0.1, 1.0, size=count)
    return w / w.sum()


def random_unit(rng, count, low=0.15):
    """Random real unit vector with no component smaller than `low`."""
    while True:
        v = rng.uniform(-1.0, 1.0, size=count)
        v /= np.linalg.norm(v)
        if np.min(np.abs(v)) >= low:
            return v


def test_criterion_1_eigenstate_metric_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in range(11):
        spec = StateSpec.eigenstate(n)
        for sigma in (0.5, 1.0, 3.0):
            for mu in (0.0, 1.7):
                m = metric_quadrature(spec, ModelPoint(mu, sigma))
                exact = ((2 * n + 1) / sigma ** 2, 0.0,
                         2 * (n * n + n + 1) / sigma ** 2)
                got = (m.i_mumu, m.i_musigma, m.i_sigmasigma)
                for g, e in zip(got, exact):
                    worst = max(worst, abs(g - e) / max(1.0, abs(e)))
    elapsed = time.monotonic() - start
    report(1, f"eigenstate metric (max rel err {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-8 and elapsed <= 30.0)


def test_criterion_2_curvature_closed_forms():
    worst_reduced = 0.0
    worst_fd = 0.0
    for n in range(11):
        spec = StateSpec.eigenstate(n)
        exact = -1.0 / (n * n + n + 1)
        m = metric_quadrature(spec, ORIGIN)
        r = scalar_curvature_reduced(m).scalar_r
        worst_reduced = max(worst_reduced, abs(r - exact))
        fd = curvature_finite_difference(m).scalar_r
        worst_fd = max(worst_fd, abs(fd - exact))
    report(2, f"eigenstate curvature (reduced {worst_reduced:.2e}, "
              f"fd {worst_fd:.2e})",
           worst_reduced <= 1e-10 and worst_fd <= 1e-4)


def test_criterion_3_mixture_rho01():
    from scipy.special import erf

    spec = StateSpec.mixture({0: 0.5, 1: 0.5})
    m = metric_quadrature(spec, ORIGIN)
    r1 = scalar_curvature_reduced(m).scalar_r
    r2 = curvature_finite_difference(m).scalar_r
    c = math.sqrt(2.0 * math.e * math.pi)
    e = erf(1.0 / math.sqrt(2.0))
    closed = (2.0 + c * (e - 1.0), 0.0, 2.0 + c * (1.0 - e))
    metric_err = max(abs(a - b) / max(1.0, abs(b))
                     for a, b in zip(m.reduced, closed))
    ok = (abs(r1 + 0.604) <= 1e-3 and abs(r2 + 0.604) <= 1e-3
          and metric_err <= 1e-8)
    report(3, f"rho01 mixture (R {r1:.5f}/{r2:.5f}, metric err "
              f"{metric_err:.2e})", ok)


def test_criterion_4_diagonality():
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for _ in range(20):
        count = int(rng.integers(2, 6))
        levels = rng.choice(12, size=count, replace=False)
        weights = dict(zip(map(int, levels), map(float, random_weights(rng, count))))
        spec = StateSpec.mixture(weights)
        m = metric_adaptive(spec, ORIGIN, force_offdiagonal=True)
        worst = max(worst, abs(m.reduced[1]))
    for _ in range(20):
        count = int(rng.integers(2, 5))
        parity = int(rng.integers(0, 2))
        levels = parity + 2 * rng.choice(6, size=count, replace=False)
        coeffs = dict(zip(map(int, levels), map(float, random_unit(rng, count))))
        spec = StateSpec.superposition(coeffs)
        m = metric_adaptive(spec, ORIGIN, force_offdiagonal=True)
        worst = max(worst, abs(m.reduced[1]))
    report(4, f"diagonality of pure-parity states (worst {worst:.2e})",
           worst <= 1e-10)


def test_criterion_5_series_vs_quadrature():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        count = int(rng.integers(2, 7))
        levels = rng.choice(10, size=count, replace=False)
        coeffs = dict(zip(map(int, levels), map(float, random_unit(rng, count))))
        spec = StateSpec.superposition(coeffs)
        q = metric_adaptive(spec, ORIGIN, force_offdiagonal=True)
        s = metric_series_real(coeffs, ORIGIN)
        for a, b in zip(q.reduced, s.reduced):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    # Purely imaginary coefficients reduce to the same real-series sums.
    v = random_unit(rng, 3)
    levels = (0, 1, 4)
    spec_im = StateSpec.superposition(
        {n: 1j * float(c) for n, c in zip(levels, v)})
    coeffs_im = spec_im.real_superposition_coeffs()
    q = metric_adaptive(spec_im, ORIGIN, force_offdiagonal=True)
    s = metric_series_real(coeffs_im, ORIGIN)
    for a, b in zip(q.reduced, s.reduced):
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    report(5, f"series vs quadrature (worst rel err {worst:.2e})",
           worst <= 1e-8)


def test_criterion_6_corollary_invariances():
    worst_mu = 0.0
    worst_scale = 0.0
    for n in range(11):
        spec = StateSpec.eigenstate(n)
        for sigma in (0.5, 1.0, 3.0):
            base = metric_quadrature(spec, ModelPoint(0.0, sigma))
            other = metric_quadrature(spec, ModelPoint(1.7, sigma))
            worst_mu = max(worst_mu, max(
                abs(a - b) for a, b in zip(base.reduced, other.reduced)))
            scaled = np.asarray(base.matrix()) * sigma ** 2
            ref = metric_quadrature(spec, ModelPoint(0.0, 1.0))
            worst_scale = max(worst_scale, float(np.max(np.abs(
                scaled - np.asarray(ref.matrix())))))
    report(6, f"invariances (mu {worst_mu:.2e}, scaling {worst_scale:.2e})",
           worst_mu <= 1e-10 and worst_scale <= 1e-10)


def test_criterion_7_cramer_rao_experiment():
    start = time.monotonic()
    ok = True
    details = []
    for n in (0, 1, 2):
        rep = crb_experiment(StateSpec.eigenstate(n), ORIGIN,
                             trials=200, samples_per_trial=5000, seed=8)
        for name, v in rep.violations.items():
            ratio = v["scaled_variance"] / v["bound"]
            details.append(f"n={n} {name} {ratio:.3f}")
            if v["violated"] or abs(ratio - 1.0) > 0.10:
                ok = False
    elapsed = time.monotonic() - start
    report(7, f"CRB efficiency ({'; '.join(details)}; {elapsed:.0f}s)",
           ok and elapsed <= 300.0)


def test_criterion_8_hermite_kernel():
    # The library's own rows: the Gram matrix of psi_0 .. psi_20 in one
    # adaptive integral, and psi_0 .. psi_21 against 50-digit mpmath.
    def gram(y):
        psi = hermite_normalized_all(20, y)
        return (psi[:, None] * psi[None, :]).reshape(21 * 21, -1)

    res = integrate_real_line(gram, degree_hint=41)
    assert res.converged
    g = res.value.reshape(21, 21)
    worst_orth = float(np.max(np.abs(g - math.sqrt(math.pi) * np.eye(21)))
                       / math.sqrt(math.pi))
    rng = np.random.default_rng(2)
    y = rng.uniform(-4.0, 4.0, size=100)
    rows = hermite_normalized_all(21, y)
    with mpmath.workdps(50):
        expect = np.array([[float(mpmath.hermite(n, v) * mpmath.exp(-v * v / 2)
                                  / mpmath.sqrt(2 ** n * mpmath.factorial(n)))
                            for v in map(mpmath.mpf, y)] for n in range(22)])
    worst_rows = float(np.max(np.abs(rows - expect)
                              / np.maximum(1.0, np.abs(expect))))
    report(8, f"hermite kernel (orth {worst_orth:.2e}, rows {worst_rows:.2e})",
           worst_orth < 1e-10 and worst_rows < 1e-12)


def test_criterion_9_geodesic_speed():
    worst = 0.0
    for n in (0, 2):
        m = metric_quadrature(StateSpec.eigenstate(n), ModelPoint(0.0, 1.0))
        tr = geodesic_trace(m, (0.3, 0.2), 5.0, 2000)
        speeds = tr.metric_speeds()
        worst = max(worst, float(np.max(np.abs(speeds - speeds[0]))
                                 / abs(speeds[0])))
    report(9, f"geodesic speed drift {worst:.2e}", worst <= 1e-6)


def test_criterion_10_determinism():
    cfg_text = json.dumps({
        "state": {"type": "superposition",
                  "terms": [{"n": 0, "re": 0.6}, {"n": 2, "re": 0.8}]},
        "point": {"mu": 0.3, "sigma": 1.2},
        "command": "verify",
        "estimation": {"seed": 123},
    })
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        status = run(parse_config(cfg_text), out)
        outputs.append((status, out.getvalue()))
    report(10, "verify reports byte-identical across runs",
           outputs[0] == outputs[1] and outputs[0][0] == 0)
