"""hermgauss benchmark: one workload per invocation.

    python3 perfbench/run.py --workload geometry_sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``meta.json`` for why each exists):
``geometry_sweep``, ``crb_monte_carlo`` and ``cli_verify``.  All are
closed loops with one client in one process.

``--trace 0`` starts ``PROBES`` set-up-only processes and then one
measuring process, one after another, and prints the end-to-end metrics,
every time scaled to a reference host speed (see ``hostspeed.py``).
``--trace 1`` starts two fresh processes, one after the other; each runs
one untraced and one traced pass of the input set.  It prints the
per-layer metrics of the first traced pass, and the tracing overhead
averaged over both.  The two traced passes must give identical counters.

Every process the script starts runs with BLAS/OpenMP threads pinned to
1 and is waited for before the next starts, so at most two processes (this
one, mostly idle, and one worker) exist at a time.  The last line of
standard output is one JSON object; the exit status is 0 only when every
op produced a correct output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("geometry_sweep", "crb_monte_carlo", "cli_verify")
PROBES = 6
TIME_LIMIT_S = 170.0
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _units(section):
    """name -> unit of the metrics BENCHMARK.json lists under ``section``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def worker(args, mode, deadline, replica=0):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--spawned-at", repr(spawned_at), "--replica", str(replica)]
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def end_to_end(args, deadline):
    probes = [worker(args, "probe", deadline) for _ in range(PROBES)]
    res = worker(args, "measure", deadline)
    runs = [*probes, res]
    print(f"host scale: median {res['host_scale']:.4f} over the measured ops; "
          f"unscaled set-up median {statistics.median(r['raw_setup_s'] for r in runs):.4f} s")
    res["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    units = _units("end_to_end")
    metrics = {name: res[name] for name in units}
    return res, metrics, units, res["failed"] == 0


def per_layer(args, deadline):
    traced = [worker(args, "trace", deadline, replica) for replica in (1, 2)]
    units = _units("per_layer")
    layers = [r["layers"] for r in traced]
    mismatched = [name for name in layers[0]
                  if units[name] != "s" and layers[0][name] != layers[1][name]]
    for name in mismatched:
        print(f"counter {name} differs between traced runs: "
              f"{layers[0][name]} vs {layers[1][name]}", file=sys.stderr)
    metrics = dict(layers[0])
    metrics["trace.overhead_frac"] = statistics.mean(r["overhead_frac"] for r in traced)
    metrics = {name: metrics[name] for name in units}
    res = {"attempted": sum(r["attempted"] for r in traced),
           "failed": sum(r["failed"] for r in traced),
           "errors": [e for r in traced for e in r["errors"]]}
    print(f"spans: {traced[0]['spans']} in {traced[0]['spans_file']}, "
          f"{traced[1]['spans']} in {traced[1]['spans_file']}")
    return res, metrics, units, res["failed"] == 0 and not mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        run = per_layer if args.trace else end_to_end
        res, metrics, units, correct = run(args, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    for error in res["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    print(f"  failed_frac {failed / attempted:.6g} ratio ({failed} failed / "
          f"{attempted} attempted)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
