"""Workload inputs, operations and correctness checks.

Every input is generated from the ``--seed`` argument; the library sees
only the generated inputs.  A state is described in the CLI's JSON schema
(``{"type": "mixture", "terms": [...]}`` and so on).  Each operation builds
a fresh ``StateSpec`` from its description, because the library caches the
kernel and the CDF table on a spec; a reused spec would let later passes
over the input set skip that work.

Each case is checked against a reference that shares no code with the
route under test:

* eigenstates: ``metric_closed_form``;
* real superpositions: ``metric_series_real``;
* the rho01 mixture: the erf closed form of acceptance criterion 3;
* other mixtures, complex superpositions and density tables: the stored
  table ``reference.json`` (see ``make_reference.py``);
* ``cli_verify``: exit status 0, ``all_passed`` and a report byte-identical
  to the first run of the same configuration;
* ``crb_monte_carlo``: no violated component, no failed trial, and a bound
  equal to the inverse of the reference metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

import hermgauss.cli
import hermgauss.estimation
import hermgauss.geometry
from hermgauss.geometry import metric_closed_form, metric_series_real
from hermgauss.models import ModelPoint, StateSpec

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-8
CRB_TRIALS = 30
CRB_SAMPLES = 5000

_SALT = {"geometry_sweep": 1, "crb_monte_carlo": 2, "cli_verify": 3}


def build_state(desc) -> StateSpec:
    kind = desc["type"]
    if kind == "eigenstate":
        return StateSpec.eigenstate(desc["n"])
    if kind == "mixture":
        return StateSpec.mixture({t["n"]: t["weight"] for t in desc["terms"]})
    if kind == "superposition":
        return StateSpec.superposition(
            {t["n"]: complex(t.get("re", 0.0), t.get("im", 0.0))
             for t in desc["terms"]})
    if kind == "density":
        return StateSpec.density(
            {(e["n"], e["m"]): complex(e.get("re", 0.0), e.get("im", 0.0))
             for e in desc["entries"]})
    raise ValueError(f"unknown state type {kind!r}")


# -- random states ---------------------------------------------------------


def _levels(rng, top, count):
    """``count`` distinct levels in 0..top that include ``top``."""
    others = rng.choice(top, size=min(count, top + 1) - 1, replace=False)
    return sorted([top, *map(int, others)])


def _unit(rng, k, complex_coeffs=False):
    v = rng.normal(size=k) + (1j * rng.normal(size=k) if complex_coeffs else 0.0)
    return v / np.linalg.norm(v)


def eigenstate(n):
    return {"type": "eigenstate", "n": int(n)}


def rho01():
    return {"type": "mixture", "terms": [{"n": 0, "weight": 0.5},
                                         {"n": 1, "weight": 0.5}]}


def _weights(rng, count, floor):
    """Random convex weights, each at least ``floor``."""
    return floor + (1.0 - floor * count) * rng.dirichlet(np.ones(count))


def mixture(rng, levels, floor=0.0):
    w = _weights(rng, len(levels), floor)
    return {"type": "mixture",
            "terms": [{"n": n, "weight": float(v)} for n, v in zip(levels, w)]}


def superposition(rng, levels, complex_coeffs):
    c = _unit(rng, len(levels), complex_coeffs)
    return {"type": "superposition",
            "terms": [{"n": n, "re": float(v.real), "im": float(v.imag)}
                      for n, v in zip(levels, c)]}


def orthonormal(rng, k):
    """k random orthonormal complex vectors of length k."""
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return list(q.T)


def density(levels, weights, vectors):
    """Density table sum_k weights[k] |v_k><v_k| on ``levels``; complex
    vectors v_k give it complex coherences."""
    rho = sum(p * np.outer(v, v.conj()) for p, v in zip(weights, vectors))
    rho /= math.fsum(rho.diagonal().real)
    entries = []
    for i, n in enumerate(levels):
        for j, m in enumerate(levels):
            v = rho[i, j] if i <= j else rho[j, i].conjugate()
            entries.append({"n": n, "m": m, "re": float(v.real),
                            "im": 0.0 if i == j else float(v.imag)})
    return {"type": "density", "entries": entries}


def _stratified(rng, count, lo, hi):
    """``count`` integers in [lo, hi], one draw per equal-width stratum, shuffled.

    Keeps the cost of an input set steady from seed to seed while every
    seed still draws different values.
    """
    span = hi - lo + 1
    values = [lo + int((k + rng.random()) * span / count) for k in range(count)]
    rng.shuffle(values)
    return values


def _point(rng):
    return float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.5, 3.0))


def is_factored(desc):
    """True when the library takes the factored-integrand (pure, real) path."""
    return build_state(desc).real_superposition_coeffs() is not None


# -- references ------------------------------------------------------------


def _rho01_reduced():
    c = math.sqrt(2.0 * math.e * math.pi)
    e = math.erf(1.0 / math.sqrt(2.0))
    return (2.0 + c * (e - 1.0), 0.0, 2.0 + c * (1.0 - e))


def reference_reduced(desc, table_value=None):
    if desc == rho01():
        return _rho01_reduced()
    spec = build_state(desc)
    if spec.kind == "eigenstate":
        return metric_closed_form(spec, ModelPoint(0.0, 1.0)).reduced
    coeffs = spec.real_superposition_coeffs()
    if coeffs is not None:
        return metric_series_real(coeffs, ModelPoint(0.0, 1.0)).reduced
    if table_value is None:
        raise ValueError("state needs a stored reference")
    return tuple(table_value)


def _rel_err(got, ref):
    return max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, ref))


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- workloads -------------------------------------------------------------


class Case:
    """One input of a workload: what the op needs and what the check needs."""

    __slots__ = ("state", "point", "factored", "reference", "extra")

    def __init__(self, state, point, reference, extra=None):
        self.state = state
        self.point = point
        self.factored = is_factored(state)
        self.reference = reference
        self.extra = extra


class Workload:
    # (hostspeed kernel, scale each op by its own sample); see hostspeed.
    calibration = ("panel", True)

    def trace_counts(self, output):
        """Counter increments, read from an op's output, for a traced run."""
        return {}


class GeometrySweep(Workload):
    """metric_quadrature + scalar_curvature_reduced for one state."""

    name = "geometry_sweep"
    # Inputs per class.  Factored path: eigenstates and real superpositions.
    # Guarded-ratio path: the rho01 mixture and two states per stratum of
    # the pool in reference.json (14 mixtures, 14 complex superpositions and
    # 16 density tables); 240 inputs in all.  With 120 the inputs near the
    # median changed enough from seed to seed to move op_p50_ms by 5%.
    EIGEN_LOW = 72        # n in 0..12
    EIGEN_DEEP = 24       # n in 20..40
    REAL_SUPER = 48       # 2-4 terms, top level in 1..12
    RHO01 = 8
    PER_STRATUM = 2

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, _SALT[self.name]])
        ref = load_reference()
        descs = []
        descs += [(eigenstate(n), None) for n in _stratified(rng, self.EIGEN_LOW, 0, 12)]
        descs += [(eigenstate(n), None) for n in _stratified(rng, self.EIGEN_DEEP, 20, 40)]
        for top in _stratified(rng, self.REAL_SUPER, 1, 12):
            levels = _levels(rng, top, int(rng.integers(2, 5)))
            descs.append((superposition(rng, levels, False), None))
        descs += [(rho01(), None)] * self.RHO01
        # Guarded-ratio states: distinct variants from each stratum of the
        # stored pool.
        for kind in ("mixture", "complex", "density"):
            for stratum in ref["pool"][kind]:
                for j in rng.choice(len(stratum), self.PER_STRATUM, replace=False):
                    entry = stratum[int(j)]
                    descs.append((entry["state"], entry["reduced"]))
        rng.shuffle(descs)
        return [Case(d, _point(rng), reference_reduced(d, table))
                for d, table in descs]

    def op(self, case):
        spec = build_state(case.state)
        point = ModelPoint(*case.point)
        metric = hermgauss.geometry.metric_quadrature(spec, point)
        curvature = hermgauss.geometry.scalar_curvature_reduced(metric)
        return metric, curvature

    def check(self, case, output, first):
        metric, curvature = output
        if (metric.point.mu, metric.point.sigma) != case.point:
            return f"metric at {metric.point}, expected {case.point}"
        err = _rel_err(metric.reduced, case.reference)
        if not err <= REL_TOL:
            return f"reduced metric {metric.reduced} vs {case.reference}: rel err {err:.3e}"
        a, b, c = case.reference
        r_ref = 2.0 * a / (b * b - a * c)
        err = abs(curvature.scalar_r - r_ref) / max(1.0, abs(r_ref))
        if not err <= REL_TOL:
            return f"scalar curvature {curvature.scalar_r} vs {r_ref}: rel err {err:.3e}"
        return None


class CrbMonteCarlo(Workload):
    """crb_experiment at the criterion-7 sample size, one state per op."""

    name = "crb_monte_carlo"
    # Ops of 2 s of whole-array work on 5000 samples: the panel kernel's
    # speed does not track them, and one sample after an op is noisier
    # than the op itself.
    calibration = ("vector", False)

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, _SALT[self.name]])
        # A non-even real superposition: the |1> term keeps both parities,
        # so the off-diagonal of the bound is non-zero.
        a = rng.normal(size=3)
        a[1] = math.copysign(max(abs(a[1]), 0.5), a[1])
        a /= np.linalg.norm(a)
        sup = {"type": "superposition",
               "terms": [{"n": n, "re": float(v)} for n, v in enumerate(a)]}
        descs = [eigenstate(0), eigenstate(1), eigenstate(2), rho01(), sup]
        return [Case(d, _point(rng), reference_reduced(d),
                     extra=int(rng.integers(2 ** 31)))
                for d in descs]

    def op(self, case):
        return hermgauss.estimation.crb_experiment(
            build_state(case.state), ModelPoint(*case.point),
            CRB_TRIALS, CRB_SAMPLES, case.extra)

    def check(self, case, report, first):
        if report.failed_trials:
            return f"failed trials {list(report.failed_trials)}"
        violated = [k for k, v in report.violations.items() if v["violated"]]
        if violated:
            return f"Cramer-Rao bound violated for {violated}: {report.violations}"
        sigma = case.point[1]
        a, b, c = case.reference
        det = a * c - b * b
        expected = sigma ** 2 * np.array([[c, -b], [-b, a]]) / det
        err = float(np.max(np.abs(np.asarray(report.bound) - expected))
                    / np.max(np.abs(expected)))
        if not err <= REL_TOL:
            return f"bound {report.bound.tolist()} vs {expected.tolist()}: rel err {err:.3e}"
        return None


class CliVerify(Workload):
    """``hermgauss.cli.main([config])`` running ``verify``, in-process."""

    name = "cli_verify"
    # The eight states are drawn once, from PANEL_SEED; the workload seed
    # draws their order, points and sampler seeds.  Verify's cost does not
    # depend on the point, so the cost of an input set does not move with
    # the seed, while the adaptive quadrature makes it swing by up to 2x
    # with the weights and coefficients of a state.  Eight states leave
    # about eight repeats of each in a 30 s run.  Mixture weights and
    # density eigenvalues are at least WEIGHT_FLOOR.  Max index 7.
    PANEL_SEED = 7
    EIGEN_LEVELS = (3, 7)
    LEVEL_SETS = ((0, 2, 5), (4, 7))
    WEIGHT_FLOOR = 0.15

    def panel(self):
        rng = np.random.default_rng(self.PANEL_SEED)
        floor = self.WEIGHT_FLOOR
        descs = [eigenstate(n) for n in self.EIGEN_LEVELS]
        descs += [mixture(rng, levels, floor) for levels in self.LEVEL_SETS]
        # The first superposition is complex (guarded ratio), the second
        # real (factored path).
        descs += [superposition(rng, levels, complex_coeffs=k == 0)
                  for k, levels in enumerate(self.LEVEL_SETS)]
        descs += [density(levels, _weights(rng, len(levels), floor),
                          orthonormal(rng, len(levels)))
                  for levels in self.LEVEL_SETS]
        return descs

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, _SALT[self.name]])
        descs = self.panel()
        rng.shuffle(descs)
        os.makedirs(workdir, exist_ok=True)
        cases = []
        for i, desc in enumerate(descs):
            mu, sigma = _point(rng)
            config = {"state": desc, "point": {"mu": mu, "sigma": sigma},
                      "command": "verify",
                      "estimation": {"seed": int(rng.integers(2 ** 31))}}
            path = os.path.join(workdir, f"verify-{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            cases.append(Case(desc, (mu, sigma), None, extra=path))
        return cases

    def op(self, case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = hermgauss.cli.main([case.extra])
        return status, out.getvalue(), err.getvalue()

    def trace_counts(self, output):
        return {"cli.report_bytes": len(output[1].encode("utf-8"))}

    def check(self, case, output, first):
        status, report, err = output
        if status != 0 and not report:
            return f"exit status {status}: {err.strip()}"
        failed = [c["name"] for c in json.loads(report)["checks"] if not c["passed"]]
        if status != 0 or failed:
            return f"exit status {status}, failed checks {failed}"
        if first is not None and report != first[1]:
            return "report differs from the first run of the same config"
        return None


WORKLOADS = {w.name: w for w in (GeometrySweep(), CrbMonteCarlo(), CliVerify())}
