"""One workload process, started by ``run.py``; prints one JSON line.

Modes:

* ``probe``   -- set up (import hermgauss, generate the inputs) and exit;
* ``measure`` -- set up, then run ops over the input set in a closed loop
  (one client) until ``--seconds`` have passed, and at least one full pass;
* ``trace``   -- set up, then one untraced pass and one pass with the
  tracer installed; the pair gives the tracing overhead.  Counters come
  from the traced pass only, so they depend on the seed alone.

Set-up time runs from ``--spawned-at``, the parent's ``time.monotonic()``
just before it started this process (CLOCK_MONOTONIC is system-wide), to
the end of input generation.

Set-up and op times are scaled to a reference host speed by ``hostspeed``;
so are the two passes of ``trace`` that give the tracing overhead.  The
per-layer times the tracer records are not.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(cases, times_ns):
    """End-to-end metrics from per-case op times.

    Each input's latency is the median of its repeats in the run;
    percentiles are taken over inputs.
    """
    per_case = [statistics.median(t) / 1e9 for t in times_ns]
    pure = [s for c, s in zip(cases, per_case) if c.factored]
    mixed = [s for c, s in zip(cases, per_case) if not c.factored]
    return {
        "wall_s": sum(per_case),
        "op_p50_ms": _percentile(per_case, 50) * 1e3,
        "op_p90_ms": _percentile(per_case, 90) * 1e3,
        "pure_s": sum(pure),
        "mixed_s": sum(mixed),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--replica", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hermgauss
    if Path(hermgauss.__file__).resolve().parent != ROOT / "src" / "hermgauss":
        sys.exit(f"imported hermgauss from {hermgauss.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        cases = workload.setup(args.seed, str(workdir))
        setup_s = time.monotonic() - args.spawned_at
        result = {"raw_setup_s": setup_s}
        if args.mode != "trace":
            kernel, _ = workload.calibration
            [scale] = hostspeed.scales(kernel, True, [hostspeed.sample(kernel, setup_s * 1e9)])
            result["setup_s"] = setup_s * scale
        if args.mode == "measure":
            result.update(run_ops(workload, cases, args.seconds, scaled=True))
        elif args.mode == "trace":
            result.update(run_traced(workload, cases, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)


def run_traced(workload, cases, args):
    from tracer import Tracer

    untraced = run_ops(workload, cases, None, scaled=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, cases, None, tracer, scaled=True)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.replica}.jsonl"
    tracer.write(path)
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "errors": untraced["errors"] + traced["errors"],
        "overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
        "layers": tracer.metrics(),
        "spans": len(tracer.spans),
        "spans_file": str(path.relative_to(ROOT)),
    }


def run_ops(workload, cases, seconds, tracer=None, scaled=False):
    """Run ops in a closed loop; ``seconds=None`` means exactly one pass.

    With ``scaled``, the workload's calibration kernel is sampled after
    each op and the op times are scaled by ``hostspeed.scales``.
    """
    clock = time.perf_counter_ns
    ops = []
    samples = []
    first = [None] * len(cases)
    attempted = failed = 0
    errors = []
    deadline = clock() + int((seconds or 0.0) * 1e9)
    i = 0
    while i < len(cases) or not (seconds is None or clock() >= deadline):
        k = i % len(cases)
        case = cases[k]
        if tracer is not None:
            tracer.op_id = i
            tracer.begin("bench.op")
        start = clock()
        try:
            output, problem = workload.op(case), None
        except Exception as exc:  # an op that raises counts as failed
            output, problem = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if tracer is not None:
            tracer.end()
        if problem is None:
            try:
                problem = workload.check(case, output, first[k])
            except Exception as exc:  # so does an output the check cannot read
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if tracer is not None and output is not None:
            for key, value in workload.trace_counts(output).items():
                tracer.counts[key] += value
        if first[k] is None:
            first[k] = output
        attempted += 1
        if problem is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"case {k} {json.dumps(case.state)}: {problem}")
        if scaled:
            samples.append(hostspeed.sample(workload.calibration[0], elapsed))
        ops.append((k, elapsed))
        i += 1

    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    scales = [1.0] * len(ops)
    if scaled:
        scales = hostspeed.scales(*workload.calibration, samples)
        result["host_scale"] = statistics.median(scales)
    times = [[] for _ in cases]
    for (k, elapsed), scale in zip(ops, scales):
        times[k].append(elapsed * scale)
    result.update(summarize(cases, times))
    return result


if __name__ == "__main__":
    main()
