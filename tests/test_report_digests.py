"""``tools/report_digests.py``, the determinism gate over seeded reports: its
exit status on one passing and one failing report (the full report set is
not run here)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ground(command, estimation):
    return {"state": {"type": "eigenstate", "n": 0},
            "point": {"mu": 0.3, "sigma": 1.2}, "command": command,
            "estimation": estimation, "output": {"format": "json"}}


@pytest.mark.parametrize("command, estimation, status", [
    ("metric", {}, 0),
    # 29 trials is below the least crb takes: a configuration error.
    ("crb", {"trials": 29, "samples_per_trial": 500, "seed": 7}, 2),
], ids=["passing", "failing"])
def test_exit_status_follows_the_reports(tool, capsys, command, estimation,
                                         status):
    label = (command, "ground", "json")
    reports = [(label, ground(command, estimation))]
    assert tool.print_digests(reports) == int(status != 0)
    digest, printed, *rest = capsys.readouterr().out.split()
    assert len(digest) == 64
    assert (int(printed), tuple(rest)) == (status, label)


def test_pins_every_command_state_and_format(tool):
    labels = [label for label, _ in tool.REPORTS]
    assert len(labels) == len(set(labels)) == 120
    assert {c for c, _, _ in labels} == {"metric", "curvature", "geodesic",
                                         "verify", "crb", "sample"}
    assert {s for _, s, _ in labels} == set(tool.STATES) | {
        "node_5000", "real01_5000", "level5_5000", "real3_5000",
        "mixture_0_12_5000"}
    assert {f for _, _, f in labels} == {"json", "csv"}
