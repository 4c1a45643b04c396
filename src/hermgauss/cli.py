"""Command-line front end.

Reads a JSON run configuration (file path argument or standard input),
dispatches to the library and writes a machine-readable report to standard
output.  Floats are serialized with shortest-round-trip precision, so
emitting a report and re-reading it preserves every numeric field exactly.

Exit codes: 0 success, 1 computational failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .estimation import _MIN_TRIALS, _y_moments, crb_experiment, sample
from .geometry import (
    curvature_finite_difference,
    geodesic_trace,
    metric_adaptive,
    metric_closed_form,
    metric_quadrature,
    metric_series_real,
    scalar_curvature_reduced,
)
from .models import (
    InvalidStateError,
    ModelPoint,
    PhysicalOscillator,
    StateSpec,
    from_physical,
    kernel,
)
from .quadrature import QuadConfig, QuadratureError, integrate_real_line

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

_COMMANDS = ("metric", "curvature", "crb", "geodesic", "sample", "verify")


class ConfigError(ValueError):
    """The run configuration is malformed; the message names the field."""


@dataclass(frozen=True)
class RunConfig:
    state: StateSpec
    point: ModelPoint
    command: str
    quad: QuadConfig
    output_format: str
    estimation: dict
    geodesic: dict


def _need(obj, key, where):
    if key not in obj:
        raise ConfigError(f"missing field {key!r} in {where}")
    return obj[key]


def _real(v):
    """A finite JSON number, never a boolean, as a float.  Python's json
    reads NaN, Infinity and overflowing literals such as 1e999."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return v


def _index(v):
    """A JSON integer, never a boolean."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _pair(v):
    a, b = v
    return [_real(a), _real(b)]


# Types of the fields the library reads, in any block; others pass through.
_CONVERT = {
    **dict.fromkeys(("n", "m", "max_evaluations", "trials",
                     "samples_per_trial", "seed", "count", "steps"), _index),
    **dict.fromkeys(("weight", "re", "im", "mu", "sigma", "mass", "omega0",
                     "x0", "hbar", "rel_tol", "abs_tol", "tau_end"), _real),
    "velocity": _pair,
}
# The least value of each count that the library accepts.
_LEAST = {"trials": _MIN_TRIALS, "samples_per_trial": 1, "count": 1,
          "steps": 1, "seed": 0}


def _typed(obj, where):
    """The object ``obj`` with its known fields converted."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    out = {}
    for k, v in obj.items():
        try:
            out[k] = _CONVERT.get(k, lambda v: v)(v)
            if k in _LEAST and out[k] < _LEAST[k]:
                raise ValueError(f"must be >= {_LEAST[k]}, got {v}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {k!r} in {where}: {exc}") from exc
    return out


def _block(raw, key):
    """The object under ``key`` ({} when absent), its fields converted."""
    return _typed(raw.get(key, {}), repr(key))


def _parse_state(block, renormalize):
    block = _typed(block, "'state'")
    kind = _need(block, "type", "'state'")

    def terms(key):
        return [_typed(t, "a 'state' term") for t in _need(block, key, "'state'")]

    try:
        if kind == "eigenstate":
            return StateSpec.eigenstate(_need(block, "n", "'state'"))
        if kind == "mixture":
            weights = {t["n"]: t["weight"] for t in terms("terms")}
            return StateSpec.mixture(weights, renormalize=renormalize)
        if kind == "superposition":
            coeffs = {t["n"]: complex(t.get("re", 0.0), t.get("im", 0.0))
                      for t in terms("terms")}
            return StateSpec.superposition(coeffs, renormalize=renormalize)
        if kind == "density":
            table = {(t["n"], t["m"]): complex(t.get("re", 0.0), t.get("im", 0.0))
                     for t in terms("entries")}
            return StateSpec.density(table, renormalize=renormalize)
    except InvalidStateError as exc:
        raise ConfigError(f"invalid 'state': {exc}") from exc
    except ConfigError:  # a term's field, already named by _typed
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed 'state' term: {exc}") from exc
    raise ConfigError(f"unknown state type {kind!r}")


def parse_config(text: str) -> RunConfig:
    """Validate a JSON configuration string into a RunConfig."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    renormalize = raw.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise ConfigError("'renormalize' must be true or false")
    state = _parse_state(_need(raw, "state", "config"), renormalize)

    has_point = "point" in raw
    has_phys = "physical" in raw
    if has_point == has_phys:
        raise ConfigError("exactly one of 'point' or 'physical' is required")
    try:
        if has_point:
            blk = _block(raw, "point")
            point = ModelPoint(_need(blk, "mu", "'point'"),
                               _need(blk, "sigma", "'point'"))
        else:
            blk = _block(raw, "physical")
            point = from_physical(PhysicalOscillator(
                mass=_need(blk, "mass", "'physical'"),
                omega0=_need(blk, "omega0", "'physical'"),
                x0=_need(blk, "x0", "'physical'"),
                hbar=blk.get("hbar", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameter point: {exc}") from exc

    command = _need(raw, "command", "config")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {_COMMANDS}")

    qblk = _block(raw, "quad")
    try:
        quad = QuadConfig(**{k: qblk[k] for k in ("rel_tol", "abs_tol",
                                                  "max_evaluations") if k in qblk})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'quad' block: {exc}") from exc

    fmt = _block(raw, "output").get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")

    return RunConfig(state=state, point=point, command=command, quad=quad,
                     output_format=fmt,
                     estimation=_block(raw, "estimation"),
                     geodesic=_block(raw, "geodesic"))


# -- report rendering -----------------------------------------------------


def _metric_entry(m):
    return {
        "path": m.path,
        "reduced": list(m.reduced),
        "i_mumu": m.i_mumu,
        "i_musigma": m.i_musigma,
        "i_sigmasigma": m.i_sigmasigma,
    }


def _emit(report, fmt, out):
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        _emit_csv(report, out, prefix="")


def _emit_csv(obj, out, prefix):
    if isinstance(obj, dict):
        for k in obj:
            _emit_csv(obj[k], out, f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _emit_csv(v, out, f"{prefix}{i}.")
    else:
        out.write(f"{prefix.rstrip('.')},{obj!r}\n" if not isinstance(obj, str)
                  else f"{prefix.rstrip('.')},{obj}\n")


def _rows_csv(header, rows, out):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(repr(float(v)) for v in row) + "\n")


# -- commands -------------------------------------------------------------


def _cmd_metric(cfg, out):
    paths = []
    if cfg.state.kind == "eigenstate":
        paths.append(_metric_entry(metric_closed_form(cfg.state, cfg.point)))
    paths.append(_metric_entry(metric_quadrature(cfg.state, cfg.point, cfg.quad)))
    coeffs = cfg.state.real_superposition_coeffs()
    if coeffs is not None:
        paths.append(_metric_entry(metric_series_real(coeffs, cfg.point)))
    report = {
        "command": "metric",
        "point": {"mu": cfg.point.mu, "sigma": cfg.point.sigma},
        "paths": paths,
    }
    _emit(report, cfg.output_format, out)
    return 0


def _cmd_curvature(cfg, out):
    metric = metric_quadrature(cfg.state, cfg.point, cfg.quad)
    reduced = scalar_curvature_reduced(metric)
    fd = curvature_finite_difference(metric)
    report = {
        "command": "curvature",
        "point": {"mu": cfg.point.mu, "sigma": cfg.point.sigma},
        "reduced_formula": {"scalar_r": reduced.scalar_r,
                            "riemann_1212": reduced.riemann_1212},
        "finite_difference": {"scalar_r": fd.scalar_r,
                              "riemann_1212": fd.riemann_1212},
        "discrepancy": abs(reduced.scalar_r - fd.scalar_r),
    }
    _emit(report, cfg.output_format, out)
    return 0


def _cmd_crb(cfg, out):
    trials = cfg.estimation.get("trials", 50)
    spt = cfg.estimation.get("samples_per_trial", 1000)
    seed = cfg.estimation.get("seed", 0)
    rep = crb_experiment(cfg.state, cfg.point, trials, spt, seed)
    report = {
        "command": "crb",
        "point": {"mu": cfg.point.mu, "sigma": cfg.point.sigma},
        "trials": rep.trials,
        "samples_per_trial": rep.samples_per_trial,
        "bound": [list(map(float, r)) for r in rep.bound],
        "empirical_scaled_cov": [list(map(float, r)) for r in rep.empirical_cov],
        "violations": rep.violations,
        "failed_trials": list(rep.failed_trials),
        "failure_reasons": list(rep.failure_reasons),
        "compass_evaluations": rep.compass_evaluations,
        "newton_passes": rep.newton_passes,
    }
    _emit(report, cfg.output_format, out)
    return 0


def _cmd_geodesic(cfg, out):
    velocity = cfg.geodesic.get("velocity", [0.0, 1.0])
    tau_end = cfg.geodesic.get("tau_end", 1.0)
    steps = cfg.geodesic.get("steps", 1000)
    trace = geodesic_trace(metric_quadrature(cfg.state, cfg.point, cfg.quad),
                           velocity, tau_end, steps)
    if cfg.output_format == "json":
        report = {
            "command": "geodesic",
            "boundary_hit": trace.boundary_hit,
            "samples": [list(map(float, r)) for r in trace.samples],
        }
        _emit(report, "json", out)
    else:
        _rows_csv(("tau", "mu", "sigma", "dmu_dtau", "dsigma_dtau"),
                  trace.samples, out)
    return 0


def _cmd_sample(cfg, out):
    count = cfg.estimation.get("count", 1000)
    seed = cfg.estimation.get("seed", 0)
    batch = sample(cfg.state, cfg.point, count, seed)
    if cfg.output_format == "json":
        report = {"command": "sample", "seed": seed, "count": count,
                  "draws": [float(v) for v in batch.draws]}
        _emit(report, "json", out)
    else:
        _rows_csv(("x",), [(v,) for v in batch.draws], out)
    return 0


def _rel_err(got, want):
    return max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))


def _cmd_verify(cfg, out):
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    mq = metric_quadrature(cfg.state, cfg.point, cfg.quad)

    if cfg.state.kind == "eigenstate":
        err = _rel_err(mq.reduced, metric_closed_form(cfg.state, cfg.point).reduced)
        check("closed_form_vs_quadrature", err <= 1e-8, err)

    coeffs = cfg.state.real_superposition_coeffs()
    if coeffs is not None:
        err = _rel_err(mq.reduced, metric_series_real(coeffs, cfg.point).reduced)
        check("series_vs_quadrature", err <= 1e-8, err)

    # At rank one mq is the exact rule; one adaptive metric, its
    # off-diagonal integrated, checks it and the parity argument.
    rank_one = kernel(cfg.state).rank == 1
    if rank_one or cfg.state.parity_even:
        adaptive = metric_adaptive(cfg.state, cfg.point, cfg.quad,
                                   force_offdiagonal=True)
    if rank_one:
        err = _rel_err(adaptive.reduced, mq.reduced)
        check("exact_rule_vs_adaptive", err <= 1e-8, err)
    if cfg.state.parity_even:
        check("offdiagonal_vanishes", abs(adaptive.reduced[1]) <= 1e-10,
              adaptive.reduced[1])

    # Location Cramer-Rao: I_mumu >= 1 / Var x with Var x = 2 sigma^2 Var y,
    # Var y summed over the table by the ladder identity (no quadrature).
    ratio = 2.0 * mq.reduced[0] * _y_moments(cfg.state)[1]
    check("location_crb", ratio >= 1.0 - 1e-12, ratio)

    reduced = scalar_curvature_reduced(mq)
    fd = curvature_finite_difference(mq)
    check("curvature_paths_agree",
          abs(reduced.scalar_r - fd.scalar_r) <= 1e-4,
          abs(reduced.scalar_r - fd.scalar_r))

    shifted = ModelPoint(cfg.point.mu + 7.3, cfg.point.sigma)
    mq2 = metric_quadrature(cfg.state, shifted, cfg.quad)
    err = max(abs(a - b) for a, b in zip(mq.reduced, mq2.reduced))
    check("mu_independence", err <= 1e-10, err)

    scaled = ModelPoint(cfg.point.mu, 3.0 * cfg.point.sigma)
    mq3 = metric_quadrature(cfg.state, scaled, cfg.quad)
    err = max(abs(scaled.sigma ** 2 * a - cfg.point.sigma ** 2 * b)
              for a, b in zip(mq3.matrix().ravel(), mq.matrix().ravel()))
    check("sigma_scaling", err <= 1e-10, err)

    kf = kernel(cfg.state)
    res = integrate_real_line(kf.f, cfg.quad, kf.degree_hint)
    err = abs(res.value - 1.0 / math.sqrt(2.0))
    check("kernel_normalization", res.converged and err <= 1e-8,
          err if res.converged
          else f"not converged within {res.evaluations} evaluations")

    trace = geodesic_trace(mq, (0.3, 0.2), 5.0, 2000)
    speeds = trace.metric_speeds()
    drift = float(np.max(np.abs(speeds - speeds[0])) / abs(speeds[0]))
    check("geodesic_speed_conservation", drift <= 1e-6, drift)

    seed = cfg.estimation.get("seed", 0)
    b1 = sample(cfg.state, cfg.point, 256, seed)
    b2 = sample(cfg.state, cfg.point, 256, seed)
    check("sampler_determinism", bool(np.array_equal(b1.draws, b2.draws)), seed)

    mq_again = metric_quadrature(cfg.state, cfg.point, cfg.quad)
    check("metric_determinism", mq_again.reduced == mq.reduced, mq.reduced)

    all_passed = all(c["passed"] for c in checks)
    report = {"command": "verify", "all_passed": all_passed, "checks": checks}
    _emit(report, cfg.output_format, out)
    return 0 if all_passed else 1


_DISPATCH = {
    "metric": _cmd_metric,
    "curvature": _cmd_curvature,
    "crb": _cmd_crb,
    "geodesic": _cmd_geodesic,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def run(config: RunConfig, out=None) -> int:
    """Execute one configured command; returns the process exit status."""
    if out is None:
        out = sys.stdout
    try:
        return _DISPATCH[config.command](config, out)
    except (QuadratureError, InvalidStateError, ValueError, RuntimeError,
            OverflowError) as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hermgauss",
        description="Fisher-Rao geometry of oscillator-state position "
                    "distributions")
    parser.add_argument("config", nargs="?", default="-",
                        help="JSON config file path, or '-' for stdin")
    parser.add_argument("--mu", type=float, help="override point mu")
    parser.add_argument("--sigma", type=float, help="override point sigma")
    parser.add_argument("--tol", type=float, help="override quadrature rel_tol")
    parser.add_argument("--seed", type=int, help="override estimation seed")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="override output format")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        if args.mu is not None or args.sigma is not None:
            cfg = replace(cfg, point=ModelPoint(
                args.mu if args.mu is not None else cfg.point.mu,
                args.sigma if args.sigma is not None else cfg.point.sigma))
        if args.tol is not None:
            cfg = replace(cfg, quad=replace(cfg.quad, rel_tol=args.tol))
        if args.seed is not None:
            cfg = replace(cfg, estimation={**cfg.estimation,
                                           **_typed({"seed": args.seed}, "--seed")})
        if args.format is not None:
            cfg = replace(cfg, output_format=args.format)
    except ValueError as exc:  # also a flag that ModelPoint or QuadConfig rejects
        json.dump({"error": {"type": "ConfigError", "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
