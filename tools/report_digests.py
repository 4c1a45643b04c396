"""sha256 digests of seeded CLI reports, one line per report, for checking
that reports stay byte-identical across runs and across commits.

The reports are ``metric``, ``verify``, ``crb`` (30 trials of 500 samples)
and ``sample`` (the default 1,000 draws) on |0>, |200>, rho01 = (|0><0| +
|1><1|) / 2, 0.6|0> + 0.48|1> + 0.64|3> and 0.6|0> + 0.8i|1>, at
(mu, sigma) = (0.3, 1.2) with seed 7, each in JSON and in CSV: 40 lines of
digest, exit status, command, state and format.  The reports run in-process
through ``hermgauss.cli.main``, so they are those of the hermgauss on the
import path; compare two checkouts by running the tool with each one's
``src`` first on it.

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
}
ESTIMATION = {"trials": 30, "samples_per_trial": 500, "seed": 7}


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


def print_digests():
    for command in ("metric", "verify", "crb", "sample"):
        for name, state in STATES.items():
            for fmt in ("json", "csv"):
                status, text = report({
                    "state": state, "point": {"mu": 0.3, "sigma": 1.2},
                    "command": command, "estimation": ESTIMATION,
                    "output": {"format": fmt}})
                digest = hashlib.sha256(text.encode()).hexdigest()
                print(digest, status, command, name, fmt)


if __name__ == "__main__":
    print_digests()
