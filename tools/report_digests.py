"""sha256 digests of seeded CLI reports, one line per report, for checking
that reports stay byte-identical across runs and across commits.

The reports are all six commands, ``metric``, ``curvature``, ``geodesic``
(the default 1,000 steps), ``verify``, ``crb`` (30 trials of 500 samples)
and ``sample`` (the default 1,000 draws), on nine states: |0>, |200>,
rho01 = (|0><0| + |1><1|) / 2, 0.6|0> + 0.48|1> + 0.64|3>,
0.6|0> + 0.8i|1>, |2>, 0.5|0> - 0.5|3> + 0.5|6> + 0.5|11>, the mixture
{0: .3, 2: .3, 5: .4} and the density table on levels 0, 2, 4 with
(0, 2) = (2, 0) = .1; on |2>, ``crb`` at 30 x 5,000 samples and ``sample``
at 5,000 draws; and ``crb`` at 30 x 5,000 samples on 0.6|0> + 0.8|1> and
on |5>, whose fits, like those of |2>, reach the maximum likelihood's
cell certificate, and on 0.6|0> + 0.48|1> + 0.64|3>, a node beside a
complex pair too wide to be deep, which the cell start serves, and
{0: 1/2, 12: 1/2}, whose deep dips are not nodes, so that its fits go to
the compass search.  Each runs at
(mu, sigma) = (0.3, 1.2) with seed 7, in JSON and in CSV: 120 lines of
digest, exit status, command, state (``node_5000``, ``real01_5000``,
``level5_5000``, ``real3_5000`` and ``mixture_0_12_5000`` for the
5,000-size reports) and format.  The tool exits 1
when any report exits non-zero.

The reports run in-process through ``hermgauss.cli.main``, so they are
those of the hermgauss on the import path; compare two checkouts by
running the tool with each one's ``src`` first on it.

Usage: PYTHONPATH=src python tools/report_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys

from hermgauss.cli import main


STATES = {
    "ground": {"type": "eigenstate", "n": 0},
    "deep": {"type": "eigenstate", "n": 200},
    "rho01": {"type": "mixture", "terms": [{"n": 0, "weight": 0.5},
                                           {"n": 1, "weight": 0.5}]},
    "real3": {"type": "superposition", "terms": [{"n": 0, "re": 0.6},
                                                 {"n": 1, "re": 0.48},
                                                 {"n": 3, "re": 0.64}]},
    "complex": {"type": "superposition", "terms": [{"n": 0, "re": 0.6},
                                                   {"n": 1, "im": 0.8}]},
    "node": {"type": "eigenstate", "n": 2},
    "four": {"type": "superposition", "terms": [{"n": 0, "re": 0.5},
                                                {"n": 3, "re": -0.5},
                                                {"n": 6, "re": 0.5},
                                                {"n": 11, "re": 0.5}]},
    "even_mixture": {"type": "mixture", "terms": [{"n": 0, "weight": 0.3},
                                                  {"n": 2, "weight": 0.3},
                                                  {"n": 5, "weight": 0.4}]},
    "even_density": {"type": "density", "entries": [
        {"n": 0, "m": 0, "re": 0.5}, {"n": 2, "m": 2, "re": 0.3},
        {"n": 4, "m": 4, "re": 0.2}, {"n": 0, "m": 2, "re": 0.1},
        {"n": 2, "m": 0, "re": 0.1}]},
}
# States that only the 5,000-sample crb runs on.
CERTIFIED = {
    "real01": {"type": "superposition", "terms": [{"n": 0, "re": 0.6},
                                                  {"n": 1, "re": 0.8}]},
    "level5": {"type": "eigenstate", "n": 5},
    "real3": STATES["real3"],
    "mixture_0_12": {"type": "mixture", "terms": [{"n": 0, "weight": 0.5},
                                                  {"n": 12, "weight": 0.5}]},
}
ESTIMATION = {"trials": 30, "samples_per_trial": 500, "seed": 7}
LARGE_CRB = {"trials": 30, "samples_per_trial": 5000, "seed": 7}
# (command, label, state, estimation block) of each report, run in both formats.
RUNS = [(command, name, state, ESTIMATION)
        for command in ("metric", "curvature", "geodesic", "verify", "crb",
                        "sample")
        for name, state in STATES.items()]
RUNS += [("crb", "node_5000", STATES["node"], LARGE_CRB),
         ("sample", "node_5000", STATES["node"], {"count": 5000, "seed": 7})]
RUNS += [("crb", f"{name}_5000", state, LARGE_CRB)
         for name, state in CERTIFIED.items()]
# ((command, label, format), config) of every report, in print order.
REPORTS = [((command, label, fmt), {
    "state": state, "point": {"mu": 0.3, "sigma": 1.2}, "command": command,
    "estimation": estimation, "output": {"format": fmt}})
    for command, label, state, estimation in RUNS for fmt in ("json", "csv")]


def report(config):
    """(exit status, stdout) of ``hermgauss -`` on ``config``."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(config))
    try:
        with contextlib.redirect_stdout(out):
            status = main(["-"])
    finally:
        sys.stdin = stdin
    return status, out.getvalue()


def print_digests(reports=REPORTS):
    """Print one line per report; 1 if any report exited non-zero, else 0."""
    failed = False
    for label, config in reports:
        status, text = report(config)
        print(hashlib.sha256(text.encode()).hexdigest(), status, *label)
        failed = failed or status != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(print_digests())
