"""Command-line front end.

Reads a JSON run configuration (file path argument or standard input),
dispatches to the library and writes a machine-readable report to standard
output.  Floats are serialized with shortest-round-trip precision, so
emitting a report and re-reading it preserves every numeric field exactly.

Exit codes: 0 success, 1 computational failure, 2 configuration error; a
failure is written to standard error as {"error": {"type", "message"}}.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, checks
from .estimation import _MIN_SAMPLES, _MIN_TRIALS, crb_experiment, sample
from .geometry import _velocity, geodesic_trace, metric_quadrature
from .hermite import _flag, _integer, _number
from .models import (InvalidStateError, ModelPoint, PhysicalOscillator, StateSpec,
                     from_physical)
from .quadrature import QuadConfig, QuadratureError

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


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


# Types of the fields the library reads, in any block; others pass through.
# An integer field takes the least value the library accepts.
_CONVERT = {
    **{k: functools.partial(_integer, what=k, least=least) for k, least in (
        ("n", 0), ("m", 0), ("max_evaluations", 1), ("trials", _MIN_TRIALS),
        ("samples_per_trial", _MIN_SAMPLES), ("seed", 0), ("count", 1),
        ("steps", 1))},
    **dict.fromkeys(("weight", "re", "im", "mu", "sigma", "mass", "omega0", "x0", "hbar",
                     "rel_tol", "abs_tol", "tau_end"), functools.partial(_number, what=None)),
    "velocity": _velocity,
}


def _typed(obj, where):
    """The object ``obj`` with its known fields converted."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    out = {}
    for k, v in obj.items():
        try:
            out[k] = _CONVERT.get(k, lambda v: v)(v)
        except ValueError as exc:
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
            weights = [(t["n"], t["weight"]) for t in terms("terms")]
            return StateSpec.mixture(weights, renormalize=renormalize)
        if kind == "superposition":
            coeffs = [(t["n"], complex(t.get("re", 0.0), t.get("im", 0.0)))
                      for t in terms("terms")]
            return StateSpec.superposition(coeffs, renormalize=renormalize)
        if kind == "density":
            table = [((t["n"], t["m"]), complex(t.get("re", 0.0), t.get("im", 0.0)))
                     for t in terms("entries")]
            return StateSpec.density(table, renormalize=renormalize)
    except InvalidStateError as exc:
        raise ConfigError(f"invalid 'state': {exc}") from exc
    except (KeyError, TypeError) as exc:  # a missing field, or terms not in a list
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
    renormalize = _flag(raw.get("renormalize", False), "'renormalize'", ConfigError)
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
    except ConfigError:  # a field, already named by _typed or _need
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid parameter point: {exc}") from exc

    command = _need(raw, "command", "config")
    if command not in tuple(_DISPATCH):  # a tuple: the name may be unhashable
        raise ConfigError(f"unknown command {command!r}; "
                          f"expected one of {tuple(_DISPATCH)}")

    qblk = _block(raw, "quad")
    try:
        quad = QuadConfig(**{k: qblk[k] for k in ("rel_tol", "abs_tol",
                                                  "max_evaluations") if k in qblk})
    except ValueError as exc:
        raise ConfigError(f"invalid 'quad' block: {exc}") from exc

    fmt = _block(raw, "output").get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")

    return RunConfig(state=state, point=point, command=command, quad=quad,
                     output_format=fmt,
                     estimation=_block(raw, "estimation"),
                     geodesic=_block(raw, "geodesic"))


# -- report rendering -----------------------------------------------------


# The commands whose CSV form is a table: (header, report key of the rows).
_TABLES = {"geodesic": (("tau", "mu", "sigma", "dmu_dtau", "dsigma_dtau"), "samples"),
           "sample": (("x",), "draws")}


def _emit(report, fmt, out):
    """Write a report, converting its arrays (a CSV table row by row)."""
    if fmt == "json":
        json.dump(report, out, indent=2, default=np.ndarray.tolist)
        out.write("\n")
    elif report["command"] in _TABLES:
        header, key = _TABLES[report["command"]]
        rows = report[key]
        out.write(",".join(header) + "\n")
        for row in rows.reshape(len(rows), len(header)):
            out.write(",".join(map(repr, row.tolist())) + "\n")
    else:
        _emit_csv(report, out, prefix="")


def _emit_csv(obj, out, prefix):
    obj = obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj
    if isinstance(obj, dict):
        for k in obj:
            _emit_csv(obj[k], out, f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _emit_csv(v, out, f"{prefix}{i}.")
    else:
        out.write(f"{prefix.rstrip('.')},{obj!r}\n" if not isinstance(obj, str)
                  else f"{prefix.rstrip('.')},{obj}\n")


# -- commands -------------------------------------------------------------


def _cmd_metric(cfg):
    routes = checks.Routes(cfg.state, cfg.point, cfg.quad)
    metrics = [routes[k] for k, applies in checks.METRIC_ROUTES.items() if applies(cfg.state)]
    return {"command": "metric", "point": {"mu": cfg.point.mu, "sigma": cfg.point.sigma},
            "paths": [{"path": m.path, "reduced": list(m.reduced), "i_mumu": m.i_mumu,
                       "i_musigma": m.i_musigma, "i_sigmasigma": m.i_sigmasigma}
                      for m in metrics]}


def _cmd_curvature(cfg):
    routes = checks.Routes(cfg.state, cfg.point, cfg.quad)
    reduced, fd = routes["reduced_curvature"], routes["fd_curvature"]
    return {
        "command": "curvature",
        "point": {"mu": cfg.point.mu, "sigma": cfg.point.sigma},
        "reduced_formula": {"scalar_r": reduced.scalar_r,
                            "riemann_1212": reduced.riemann_1212},
        "finite_difference": {"scalar_r": fd.scalar_r,
                              "riemann_1212": fd.riemann_1212},
        "discrepancy": abs(reduced.scalar_r - fd.scalar_r),
    }


def _cmd_crb(cfg):
    trials = cfg.estimation.get("trials", 50)
    spt = cfg.estimation.get("samples_per_trial", 1000)
    seed = cfg.estimation.get("seed", 0)
    rep = crb_experiment(cfg.state, cfg.point, trials, spt, seed, cfg.quad)
    return {
        "command": "crb",
        "point": {"mu": cfg.point.mu, "sigma": cfg.point.sigma},
        "trials": rep.trials,
        "samples_per_trial": rep.samples_per_trial,
        "bound": rep.bound,
        "empirical_scaled_cov": rep.empirical_cov,
        "violations": rep.violations,
        "failed_trials": rep.failed_trials,
        "failure_reasons": rep.failure_reasons,
        "compass_evaluations": rep.compass_evaluations,
        "newton_passes": rep.newton_passes,
    }


def _cmd_geodesic(cfg):
    velocity = cfg.geodesic.get("velocity", [0.0, 1.0])
    tau_end = cfg.geodesic.get("tau_end", 1.0)
    steps = cfg.geodesic.get("steps", 1000)
    trace = geodesic_trace(metric_quadrature(cfg.state, cfg.point, cfg.quad),
                           velocity, tau_end, steps)
    return {"command": "geodesic", "boundary_hit": trace.boundary_hit,
            "samples": trace.samples}


def _cmd_sample(cfg):
    count = cfg.estimation.get("count", 1000)
    seed = cfg.estimation.get("seed", 0)
    batch = sample(cfg.state, cfg.point, count, seed)
    return {"command": "sample", "seed": seed, "count": count,
            "draws": batch.draws}


def _cmd_verify(cfg):
    rows = list(checks.verify(cfg.state, cfg.point, cfg.quad,
                              cfg.estimation.get("seed", 0)))
    return {"command": "verify", "all_passed": all(r["passed"] for r in rows),
            "checks": rows}


_DISPATCH = {"metric": _cmd_metric, "curvature": _cmd_curvature, "crb": _cmd_crb,
             "geodesic": _cmd_geodesic, "sample": _cmd_sample, "verify": _cmd_verify}


def _error(kind, message, status):
    """Write ``{"error": {"type": kind, "message": message}}`` to stderr and
    return the exit status."""
    json.dump({"error": {"type": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")
    return status


def run(config: RunConfig, out=None) -> int:
    """Execute one configured command; returns the process exit status."""
    try:
        report = _DISPATCH[config.command](config)
        _emit(report, config.output_format, sys.stdout if out is None else out)
    except (QuadratureError, ValueError, RuntimeError, ArithmeticError) as exc:
        return _error(type(exc).__name__, str(exc), 1)
    return 0 if report.get("all_passed", True) else 1


@functools.cache
def _parser():
    """The command-line parser, built once: ``parse_args`` keeps no state."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _error("ConfigError", f"cannot read config: {exc}", 2)

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
    except ValueError as exc:  # also a rejected flag
        return _error("ConfigError", str(exc), 2)

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
