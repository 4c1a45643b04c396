import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermgauss
import hermgauss.estimation
import hermgauss.geometry
from hermgauss.cli import ConfigError, main, parse_config, run
from hermgauss.geometry import metric_quadrature
from hermgauss.quadrature import QuadResult


def config_text(**overrides):
    base = {
        "state": {"type": "eigenstate", "n": 1},
        "point": {"mu": 0.0, "sigma": 1.0},
        "command": "metric",
    }
    base.update(overrides)
    return json.dumps(base)


def run_capture(text):
    cfg = parse_config(text)
    out = io.StringIO()
    status = run(cfg, out)
    return status, out.getvalue()


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(config_text())
        assert cfg.command == "metric"
        assert cfg.state.kind == "eigenstate"
        assert (cfg.point.mu, cfg.point.sigma) == (0.0, 1.0)

    def test_physical_block(self):
        raw = json.loads(config_text())
        del raw["point"]
        raw["physical"] = {"mass": 2.0, "omega0": 1.0, "x0": 3.0}
        cfg = parse_config(json.dumps(raw))
        assert cfg.point.mu == 3.0
        assert cfg.point.sigma == pytest.approx(0.5)

    def test_point_and_physical_conflict(self):
        raw = json.loads(config_text())
        raw["physical"] = {"mass": 1.0, "omega0": 1.0, "x0": 0.0}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(raw))

    def test_superposition_terms(self):
        cfg = parse_config(config_text(state={
            "type": "superposition",
            "terms": [{"n": 0, "re": 0.6}, {"n": 2, "re": 0.8}]}))
        assert cfg.state.kind == "superposition"

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(command="sing"))

    def test_unnormalized_state_rejected_without_flag(self):
        state = {"type": "mixture",
                 "terms": [{"n": 0, "weight": 0.4}, {"n": 1, "weight": 0.4}]}
        with pytest.raises(ConfigError):
            parse_config(config_text(state=state))
        cfg = parse_config(config_text(state=state, renormalize=True))
        assert cfg.state.kind == "mixture"

    def test_missing_state(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"command": "metric",
                                     "point": {"mu": 0, "sigma": 1}}))

    def test_bad_sigma(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(point={"mu": 0.0, "sigma": -1.0}))


class TestCommands:
    def test_metric_eigenstate_three_paths(self):
        status, text = run_capture(config_text(
            state={"type": "eigenstate", "n": 3}))
        assert status == 0
        report = json.loads(text)
        assert len(report["paths"]) == 3
        for entry in report["paths"]:
            assert entry["reduced"][0] == pytest.approx(7.0, rel=1e-8)
            assert entry["reduced"][2] == pytest.approx(26.0, rel=1e-8)

    def test_curvature_mixture(self):
        state = {"type": "mixture",
                 "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]}
        status, text = run_capture(config_text(state=state, command="curvature"))
        assert status == 0
        report = json.loads(text)
        assert report["reduced_formula"]["scalar_r"] == pytest.approx(-0.604,
                                                                      abs=1e-3)
        assert report["discrepancy"] <= 1e-4

    @pytest.mark.parametrize("command, integrals", [
        ("verify", 5), ("curvature", 1)])
    def test_fisher_integrals_per_command(self, monkeypatch, command, integrals):
        # rho01 (rank two, parity even).  verify integrates at the point, once
        # with the off-diagonal forced, at the shifted and the scaled point
        # and again for metric_determinism; the finite-difference curvature
        # and the geodesic take the metric it holds, as curvature's does.
        real = hermgauss.geometry.integrate_real_line
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hermgauss.geometry, "integrate_real_line", counting)
        state = {"type": "mixture",
                 "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]}
        status, _ = run_capture(config_text(state=state, command=command))
        assert status == 0
        assert len(calls) == integrals

    def test_verify_even_superposition(self):
        state = {"type": "superposition",
                 "terms": [{"n": 0, "re": 0.6}, {"n": 2, "re": 0.8}]}
        status, text = run_capture(config_text(state=state, command="verify"))
        assert status == 0
        report = json.loads(text)
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "offdiagonal_vanishes" in names
        assert "series_vs_quadrature" in names

    @pytest.mark.parametrize("state, rank_one", [
        ({"type": "eigenstate", "n": 3}, True),
        ({"type": "superposition",
          "terms": [{"n": 0, "re": 0.6}, {"n": 1, "re": 0.8}]}, True),
        ({"type": "mixture",
          "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]}, False),
    ], ids=["eigenstate", "non_even", "rho01"])
    def test_verify_checks_exact_rule_at_rank_one(self, state, rank_one):
        status, text = run_capture(config_text(state=state, command="verify"))
        assert status == 0
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert ("exact_rule_vs_adaptive" in checks) == rank_one
        assert all(c["passed"] for c in checks.values())

    @pytest.mark.parametrize("state, ratio, tol", [
        ({"type": "eigenstate", "n": 0}, 1.0, 1e-14),
        # Var y = 1 and Itilde_mumu = 0.68864..: 1/(2 Var y) = 0.5 <= 0.6886.
        ({"type": "mixture",
          "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]},
         2.0 * (2.0 + math.sqrt(2.0 * math.e * math.pi)
                * (math.erf(1.0 / math.sqrt(2.0)) - 1.0)), 1e-8),
    ], ids=["ground_tight", "rho01"])
    def test_verify_location_crb(self, state, ratio, tol):
        status, text = run_capture(config_text(state=state, command="verify"))
        assert status == 0
        check, = [c for c in json.loads(text)["checks"]
                  if c["name"] == "location_crb"]
        assert check["passed"]
        assert abs(check["detail"] - ratio) <= tol

    def test_verify_fails_unconverged_normalization(self, monkeypatch):
        # The exact value with converged=False must not pass the check.
        monkeypatch.setattr(
            hermgauss.cli, "integrate_real_line",
            lambda *args: QuadResult(1.0 / math.sqrt(2.0), 1.0, 4321, False))
        status, text = run_capture(config_text(command="verify"))
        assert status == 1
        report = json.loads(text)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["kernel_normalization"]
        assert "4321 evaluations" in failed[0]["detail"]

    def test_verify_is_byte_identical_across_runs(self):
        text = config_text(command="verify")
        _, a = run_capture(text)
        _, b = run_capture(text)
        assert a == b

    def test_geodesic_csv(self):
        raw = json.loads(config_text(command="geodesic"))
        raw["geodesic"] = {"velocity": [0.2, 0.1], "tau_end": 1.0, "steps": 50}
        raw["output"] = {"format": "csv"}
        status, text = run_capture(json.dumps(raw))
        assert status == 0
        lines = text.strip().splitlines()
        assert lines[0] == "tau,mu,sigma,dmu_dtau,dsigma_dtau"
        assert len(lines) == 52

    def test_metric_csv(self):
        raw = json.loads(config_text())
        raw["output"] = {"format": "csv"}
        cfg = parse_config(json.dumps(raw))
        status, text = run_capture(json.dumps(raw))
        assert status == 0
        quad = metric_quadrature(cfg.state, cfg.point, cfg.quad).reduced
        rows = []
        for i, (path, a, c) in enumerate((
                ("closed_form", "3.0", "6.0"),
                ("gauss_hermite", repr(quad[0]), repr(quad[2])),
                ("series", "3.0", "6.0"))):
            rows += [f"paths.{i}.path,{path}", f"paths.{i}.reduced.0,{a}",
                     f"paths.{i}.reduced.1,0.0", f"paths.{i}.reduced.2,{c}",
                     f"paths.{i}.i_mumu,{a}", f"paths.{i}.i_musigma,0.0",
                     f"paths.{i}.i_sigmasigma,{c}"]
        assert text == "\n".join(
            ["command,metric", "point.mu,0.0", "point.sigma,1.0"] + rows) + "\n"

    def test_sample_command_seeded(self):
        raw = json.loads(config_text(command="sample"))
        raw["estimation"] = {"count": 16, "seed": 9}
        _, a = run_capture(json.dumps(raw))
        _, b = run_capture(json.dumps(raw))
        assert a == b
        assert len(json.loads(a)["draws"]) == 16

    def test_crb_reports_failure_reasons(self, monkeypatch):
        real_fit = hermgauss.estimation.mle_fit
        calls = []

        def flaky_fit(batch):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("no convergence")
            return real_fit(batch)

        monkeypatch.setattr(hermgauss.estimation, "mle_fit", flaky_fit)
        raw = json.loads(config_text(command="crb"))
        raw["estimation"] = {"trials": 31, "samples_per_trial": 50, "seed": 2}
        status, text = run_capture(json.dumps(raw))
        assert status == 0
        report = json.loads(text)
        assert report["failed_trials"] == [1]
        assert report["failure_reasons"] == ["RuntimeError: no convergence"]

    @pytest.mark.parametrize("state, newton_first", [
        ({"type": "mixture",
          "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]}, True),
        ({"type": "eigenstate", "n": 2}, False),
    ], ids=["rho01", "n2"])
    def test_crb_reports_fit_counters(self, state, newton_first):
        raw = json.loads(config_text(command="crb", state=state))
        raw["estimation"] = {"trials": 30, "samples_per_trial": 200, "seed": 2}
        _, a = run_capture(json.dumps(raw))
        _, b = run_capture(json.dumps(raw))
        assert a == b
        report = json.loads(a)
        assert (report["compass_evaluations"] == 0) is newton_first
        assert report["newton_passes"] >= 30

    def test_json_floats_round_trip(self):
        status, text = run_capture(config_text(
            state={"type": "mixture",
                   "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]}))
        report = json.loads(text)
        # Re-serializing the parsed report reproduces the bytes exactly:
        # every float is emitted with shortest round-trip precision.
        assert json.dumps(report, indent=2) + "\n" == text

    def test_computational_failure_exits_one(self, capsys):
        raw = json.loads(config_text(
            state={"type": "mixture",
                   "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]}))
        raw["quad"] = {"rel_tol": 1e-15, "abs_tol": 1e-300,
                       "max_evaluations": 60}
        cfg = parse_config(json.dumps(raw))
        status = run(cfg, io.StringIO())
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err


class TestMain:
    def test_file_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(config_text())
        assert main([str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "metric"

    def test_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(config_text())
        assert main([str(path), "--mu", "1.0", "--sigma", "2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["point"] == {"mu": 1.0, "sigma": 2.0}
        # reduced components are point-independent; full ones pick up 1/sigma^2
        assert report["paths"][0]["i_mumu"] == pytest.approx(3.0 / 4.0)

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_index_above_cap_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(config_text(state={"type": "eigenstate", "n": 500}))
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "0..200" in err["error"]["message"]

    @pytest.mark.parametrize("override", [
        {"point": 5},
        {"state": {"type": "mixture", "terms": [{"n": 0, "weight": "a"}]}},
        {"state": {"type": "eigenstate", "n": "x"}},
        {"output": "csv"},
        {"command": "geodesic", "geodesic": {"velocity": [1.0]}},
        {"command": "crb", "estimation": {"trials": "x"}},
        {"state": {"type": "mixture", "terms": [{"n": 0, "weight": 1.0},
                                                {"n": 1, "weight": 1.0}]},
         "renormalize": "false"},
        {"quad": {"rel_tol": True}},
        {"quad": {"max_evaluations": "300000"}},
        {"quad": {"max_evaluations": 2.7e5}},
        {"state": {"type": "eigenstate", "n": True}},
        {"point": {"mu": 0.0, "sigma": True}},
        {"point": {"mu": "0.5", "sigma": 1.0}},
        {"command": "crb", "estimation": {"seed": True}},
        {"command": "geodesic", "geodesic": {"tau_end": "2"}},
        {"state": {"type": "mixture", "terms": [{"n": 0, "weight": "0.5"},
                                                {"n": 1, "weight": 0.5}]}},
        {"state": {"type": "superposition", "terms": [{"n": 0, "re": True}]}},
        {"state": {"type": "wavefunction", "n": 0}},
        {"quad": {"rel_tol": -1e-10}},
        {"output": {"format": "xml"}},
        {"command": "sample", "estimation": {"count": 0}},
        {"command": "crb", "estimation": {"trials": 5}},
        {"command": "crb", "estimation": {"samples_per_trial": 0}},
        {"command": "geodesic", "geodesic": {"steps": 0}},
        {"command": "sample", "estimation": {"seed": -1}},
        None,
    ], ids=["point_number", "weight_string", "index_string", "output_string",
            "velocity_length", "trials_string", "renormalize_string",
            "rel_tol_bool", "max_evaluations_string", "max_evaluations_float",
            "index_bool", "sigma_bool", "mu_string", "seed_bool",
            "tau_end_string", "weight_numeric_string", "re_bool",
            "state_type_unknown", "quad_rejected", "format_unknown",
            "count_zero", "trials_too_few", "samples_per_trial_zero",
            "steps_zero", "seed_negative", "top_level_array"])
    def test_malformed_config_exits_two(self, override, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]" if override is None else config_text(**override))
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("case", [
        "density_state", "geodesic_json", "sample_csv", "stdin", "seed_flag",
        "format_flag"])
    def test_input_and_output_routes(self, case, tmp_path, monkeypatch, capsys):
        # (config fields, arguments after the file path or None for stdin,
        # check on stdout)
        overrides, flags, check = {
            "density_state": (
                {"state": {"type": "density", "entries": [
                    {"n": 0, "m": 0, "re": 0.5}, {"n": 1, "m": 1, "re": 0.5},
                    {"n": 0, "m": 1, "im": 0.25}, {"n": 1, "m": 0, "im": -0.25}]}},
                [], lambda out: json.loads(out)["paths"][0]["path"] == "quadrature"),
            "geodesic_json": (
                {"command": "geodesic", "geodesic": {"steps": 4}}, [],
                lambda out: (json.loads(out)["command"] == "geodesic"
                             and len(json.loads(out)["samples"]) == 5)),
            "sample_csv": (
                {"command": "sample", "estimation": {"count": 3},
                 "output": {"format": "csv"}}, [],
                lambda out: (out.splitlines()[0] == "x"
                             and len(out.splitlines()) == 4)),
            "stdin": ({}, None, lambda out: json.loads(out)["command"] == "metric"),
            "seed_flag": (
                {"command": "sample", "estimation": {"count": 3, "seed": 1}},
                ["--seed", "5"], lambda out: json.loads(out)["seed"] == 5),
            "format_flag": ({}, ["--format", "csv"],
                            lambda out: out.startswith("command,metric\n")),
        }[case]
        text = config_text(**overrides)
        if flags is None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            argv = ["-"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(text)
            argv = [str(path)] + flags
        assert main(argv) == 0
        assert check(capsys.readouterr().out)

    @pytest.mark.parametrize("override, literal", [
        ({"state": {"type": "mixture", "terms": [{"n": 0, "weight": "X"},
                                                 {"n": 1, "weight": 0.5}]}},
         "NaN"),
        ({"state": {"type": "superposition", "terms": [{"n": 0, "re": "X"},
                                                       {"n": 1, "re": 0.5}]}},
         "NaN"),
        ({"state": {"type": "density", "entries": [
            {"n": 0, "m": 0, "re": "X"}, {"n": 1, "m": 1, "re": 0.5}]}}, "NaN"),
        ({"quad": {"abs_tol": "X"}}, "Infinity"),
        ({"quad": {"rel_tol": "X"}}, "1e999"),
        ({"command": "geodesic", "geodesic": {"tau_end": "X"}}, "NaN"),
        ({"command": "geodesic", "geodesic": {"velocity": ["X", 0.0]}},
         "Infinity"),
    ], ids=["weight_nan", "re_nan", "density_nan", "abs_tol_infinity",
            "rel_tol_overflow", "tau_end_nan", "velocity_infinity"])
    def test_non_finite_number_exits_two(self, override, literal, tmp_path,
                                         capsys):
        # Python's json reads NaN, Infinity and 1e999 (as inf).
        path = tmp_path / "cfg.json"
        path.write_text(config_text(**override).replace('"X"', literal))
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "finite" in err["error"]["message"]

    def test_state_term_error_has_one_prefix(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(config_text(state={"type": "mixture", "terms": [
            {"n": 0, "weight": "X"}, {"n": 1, "weight": 0.5}]}
        ).replace('"X"', "NaN"))
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == (
            "invalid 'weight' in a 'state' term: expected a finite number, "
            "got nan")

    @pytest.mark.parametrize("flags", [["--sigma", "-1"], ["--tol", "0"],
                                       ["--seed", "-3"], ["--tol", "nan"],
                                       ["--tol", "inf"]])
    def test_invalid_override_exits_two(self, flags, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(config_text())
        assert main([str(path)] + flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{")
        assert main([str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err


# Runs the given statements, then prints the scipy modules loaded so far
# as the last line on stderr.
_LOADED_SCIPY = ("import sys\n{}\n"
                 "print(sorted(m for m in sys.modules "
                 "if m.partition('.')[0] == 'scipy'), file=sys.stderr)")


def run_fresh(code, *args):
    env = dict(os.environ)
    src = str(Path(hermgauss.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", _LOADED_SCIPY.format(code), *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestRuntimeDependencies:
    def test_import_loads_no_scipy(self):
        proc = run_fresh("import hermgauss, hermgauss.cli")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"

    def test_metric_command_loads_no_scipy(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(config_text())
        proc = run_fresh("import hermgauss.cli\n"
                         "assert hermgauss.cli.main(sys.argv[1:]) == 0", str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"
        assert json.loads(proc.stdout)["command"] == "metric"
