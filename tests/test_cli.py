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
import hermgauss.quadrature
from hermgauss.cli import ConfigError, main, parse_config, run
from hermgauss.geometry import crb_bound, metric_quadrature
from hermgauss.quadrature import QuadConfig, QuadResult


def config_text(**overrides):
    base = {
        "state": {"type": "eigenstate", "n": 1},
        "point": {"mu": 0.0, "sigma": 1.0},
        "command": "metric",
    }
    base.update(overrides)
    return json.dumps(base)


# A crb batch of one sample: the CI job without the test extra probes it too.
ONE_SAMPLE = {"command": "crb", "estimation": {"samples_per_trial": 1}}


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
        ("verify", 3), ("curvature", 1)])
    def test_fisher_integrals_per_command(self, monkeypatch, command, integrals):
        # rho01 (rank two, parity even).  verify integrates at the point, once
        # with the off-diagonal forced, and once at (mu + 7.3, 3 sigma), the
        # one rerun that mu_independence, sigma_scaling and metric_determinism
        # read; the finite-difference curvature and the geodesic take the
        # metric it holds, as curvature's does.
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
        ({"type": "mixture", "terms": [{"n": 0, "weight": 0.3},
                                       {"n": 2, "weight": 0.3},
                                       {"n": 5, "weight": 0.4}]}, False),
        ({"type": "density", "entries": [
            {"n": 0, "m": 0, "re": 0.5}, {"n": 2, "m": 2, "re": 0.3},
            {"n": 4, "m": 4, "re": 0.2}, {"n": 0, "m": 2, "re": 0.1},
            {"n": 2, "m": 0, "re": 0.1}]}, False),
    ], ids=["eigenstate", "non_even", "rho01", "mixture_0_2_5", "density_0_2_4"])
    def test_verify_checks_exact_rule_at_rank_one(self, state, rank_one):
        status, text = run_capture(config_text(state=state, command="verify"))
        assert status == 0
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert ("exact_rule_vs_adaptive" in checks) == rank_one
        # The states above rank one are parity even: their metric has the
        # half-line diagonal, checked against the full line.
        assert ("half_line_vs_full_line" in checks) == (not rank_one)
        assert all(c["passed"] for c in checks.values())

    def test_verify_flags_half_line_miss_on_deep_mixture(self):
        # {0: 1/2, 20: 1/2}: the half-line diagonal misses the full line's by
        # about 5e-7 (the adaptive integral's known fault on deep two-level
        # mixtures), and this check alone reports it.
        state = {"type": "mixture",
                 "terms": [{"n": 0, "weight": 0.5}, {"n": 20, "weight": 0.5}]}
        status, text = run_capture(config_text(
            state=state, point={"mu": 0.3, "sigma": 1.2}, command="verify"))
        assert status == 1
        report = json.loads(text)
        assert not report["all_passed"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["half_line_vs_full_line"]
        assert 1e-7 < failed[0]["detail"] < 1e-5

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
        # The table's kernel_mass route reads quadrature.integrate_real_line;
        # the metric routes keep geometry's own binding.
        monkeypatch.setattr(
            hermgauss.quadrature, "integrate_real_line",
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

    def test_empty_geodesic_agrees_across_formats(self):
        # At the subnormal sigma 5e-324 the trace stops before its first
        # sample: the JSON form has "samples": [], and the CSV form its
        # header alone, both with exit 0.
        raw = json.loads(config_text(command="geodesic"))
        raw["point"] = {"mu": 0.0, "sigma": 5e-324}
        assert run_capture(json.dumps(raw)) == (0, json.dumps(
            {"command": "geodesic", "boundary_hit": True, "samples": []},
            indent=2) + "\n")
        raw["output"] = {"format": "csv"}
        assert run_capture(json.dumps(raw)) == (
            0, "tau,mu,sigma,dmu_dtau,dsigma_dtau\n")

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

    @pytest.mark.parametrize("state", [
        {"type": "eigenstate", "n": 2},
        {"type": "mixture", "terms": [{"n": 0, "weight": 0.5},
                                      {"n": 1, "weight": 0.5}]},
        {"type": "superposition", "terms": [{"n": 0, "re": 0.6}, {"n": 1, "im": 0.8}]},
        {"type": "density", "entries": [
            {"n": 0, "m": 0, "re": 0.5}, {"n": 2, "m": 2, "re": 0.3},
            {"n": 4, "m": 4, "re": 0.2}, {"n": 0, "m": 2, "re": 0.1},
            {"n": 2, "m": 0, "re": 0.1}]},
    ], ids=["eigenstate", "mixture", "superposition", "density"])
    def test_verify_csv_cells_are_plain(self, state):
        # Each CSV cell is the JSON report's leaf as Python writes it: a
        # number or bool by repr, a string as is; never a numpy scalar.
        raw = {"state": state, "point": {"mu": 0.3, "sigma": 1.2}, "command": "verify"}
        _, text = run_capture(json.dumps(raw))
        raw["output"] = {"format": "csv"}
        _, csv = run_capture(json.dumps(raw))

        def cells(obj, prefix):
            if not isinstance(obj, (dict, list)):
                yield f"{prefix[:-1]},{obj if isinstance(obj, str) else repr(obj)}"
                return
            for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
                yield from cells(v, f"{prefix}{k}.")

        assert csv.splitlines() == list(cells(json.loads(text), ""))
        assert "np." not in csv

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

    def test_crb_bound_reads_the_quad_block(self):
        # rho01 has rank two, so its bound takes the adaptive integral,
        # which a loose quad block moves.
        state = {"type": "mixture",
                 "terms": [{"n": 0, "weight": 0.5}, {"n": 1, "weight": 0.5}]}
        quad = {"rel_tol": 1e-3, "abs_tol": 1e-3, "max_evaluations": 200}
        raw = json.loads(config_text(command="crb", state=state,
                                     point={"mu": 0.3, "sigma": 1.2}))
        raw["estimation"] = {"trials": 30, "samples_per_trial": 200, "seed": 2}
        _, default = run_capture(json.dumps(raw))
        raw["quad"] = quad
        status, loose = run_capture(json.dumps(raw))
        assert status == 0
        cfg = parse_config(json.dumps(raw))
        want = crb_bound(metric_quadrature(cfg.state, cfg.point, QuadConfig(**quad)))
        assert json.loads(loose)["bound"] == want.tolist()
        assert json.loads(loose)["bound"] != json.loads(default)["bound"]
        # The fits do not read the block.
        assert (json.loads(loose)["empirical_scaled_cov"]
                == json.loads(default)["empirical_scaled_cov"])

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

    def test_flags_do_not_carry_over_to_the_next_call(self, tmp_path, capsys):
        # The parser is built once per process; a second call without flags
        # prints what a call in a fresh process prints.
        path = tmp_path / "cfg.json"
        path.write_text(config_text())
        assert main([str(path), "--mu", "1.0", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("command,metric")
        assert main([str(path)]) == 0
        second = capsys.readouterr().out
        fresh = run_fresh("from hermgauss.cli import main\nmain()", str(path))
        assert fresh.returncode == 0, fresh.stderr
        assert second == fresh.stdout
        assert json.loads(second)["point"] == {"mu": 0.0, "sigma": 1.0}

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("override, status, kind", [
        # sigma^2 underflows to 0 in MetricTensor2.i_mumu.
        ({"point": {"mu": 0.0, "sigma": 1e-200}}, 1, "ZeroDivisionError"),
        ({"point": {"mu": 0.0, "sigma": 1e-200}, "command": "crb",
          "estimation": {"trials": 30, "samples_per_trial": 2}}, 1,
         "ZeroDivisionError"),
        # sigma^4 underflows to 0 in the Riemann component; the Christoffel
        # symbols' overflow is never reached, so numpy writes no warning
        # (an error under this suite's filter).
        ({"point": {"mu": 0.0, "sigma": 5e-324}, "command": "curvature"}, 1,
         "ZeroDivisionError"),
        ({"point": {"mu": 0.0, "sigma": 5e-324}, "command": "verify"}, 1,
         "ZeroDivisionError"),
        # 2 m omega0 underflows to 0 in PhysicalOscillator.sigma.
        ({"point": None, "physical": {"mass": 1e-300, "omega0": 1e-300, "x0": 0.0}},
         2, "ConfigError"),
    ], ids=["metric_sigma_underflow", "crb_sigma_underflow",
            "curvature_sigma_subnormal", "verify_sigma_subnormal",
            "physical_sigma_underflow"])
    def test_arithmetic_failure_is_one_json_error(self, override, status, kind,
                                                  tmp_path, capsys):
        raw = {k: v for k, v in json.loads(config_text(**override)).items()
               if v is not None}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([str(path)]) == status
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)  # one object, no traceback
        assert list(err) == ["error"] and err["error"]["type"] == kind
        assert err["error"]["message"]

    @pytest.mark.parametrize("state, message", [
        ({"type": "mixture", "terms": [{"n": 0, "weight": 1e308},
                                       {"n": 1, "weight": 1e308}]},
         "mixture weight sum must be positive and finite, got inf"),
        ({"type": "superposition", "terms": [{"n": 0, "re": 1e200}]},
         "superposition norm must be positive and finite, got inf"),
        ({"type": "density", "entries": [{"n": 0, "m": 0, "re": 1e308},
                                         {"n": 1, "m": 1, "re": 1e308}]},
         "density trace must be positive and finite, got inf"),
        ({"type": "density", "entries": [
            {"n": 0, "m": 0, "re": 0.5}, {"n": 1, "m": 1, "re": 0.5},
            {"n": 0, "m": 1, "re": 1.7e308, "im": 1.7e308},
            {"n": 1, "m": 0, "re": 1.7e308, "im": -1.7e308}]},
         "density coefficient at (0, 1) has a modulus past the float range"),
        ({"type": "density", "entries": [
            {"n": 0, "m": 0, "re": 1e-300}, {"n": 1, "m": 1, "re": 1e-300},
            {"n": 0, "m": 1, "re": 1e10}, {"n": 1, "m": 0, "re": 1e10}]},
         "density table has negative eigenvalue nan"),
    ], ids=["mixture", "superposition", "density", "density_coherence_modulus",
            "density_renormalized_coherence"])
    def test_overflowing_state_total_exits_two(self, state, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(config_text(state=state, renormalize=True))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {
            "type": "ConfigError", "message": f"invalid 'state': {message}"}}

    @pytest.mark.parametrize("command, im", [("metric", "im"), ("verify", "re")])
    def test_subnormal_state_total_exits_two(self, command, im, tmp_path, capsys):
        # Renormalizing by a subnormal norm gave metric a 1.1e-5 relative
        # error with exit 0, and verify an InvalidStateError from the series
        # route with exit 1; the state is now refused up front.
        state = {"type": "superposition",
                 "terms": [{"n": 0, "re": 1e-160}, {"n": 1, im: 1e-160}]}
        path = tmp_path / "cfg.json"
        path.write_text(config_text(state=state, renormalize=True, command=command))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {
            "type": "ConfigError", "message": "invalid 'state': superposition "
            "norm 2e-320 is below the normal float range"}}

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
        ONE_SAMPLE,
        {"command": "geodesic", "geodesic": {"steps": 0}},
        {"command": "sample", "estimation": {"seed": -1}},
        None,
        {"command": ["metric"]},
    ], ids=["point_number", "weight_string", "index_string", "output_string",
            "velocity_length", "trials_string", "renormalize_string",
            "rel_tol_bool", "max_evaluations_string", "max_evaluations_float",
            "index_bool", "sigma_bool", "mu_string", "seed_bool",
            "tau_end_string", "weight_numeric_string", "re_bool",
            "state_type_unknown", "quad_rejected", "format_unknown",
            "count_zero", "trials_too_few", "samples_per_trial_zero",
            "samples_per_trial_one", "steps_zero", "seed_negative",
            "top_level_array", "command_unhashable"])
    def test_malformed_config_exits_two(self, override, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]" if override is None else config_text(**override))
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        if override is ONE_SAMPLE:  # as the runtime-only CI job probes it
            assert "'samples_per_trial'" in err["error"]["message"]

    @pytest.mark.parametrize("case", [
        "density_state", "geodesic_json", "sample_csv", "curvature_quad", "stdin",
        "seed_flag", "format_flag"])
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
            "curvature_quad": (
                {"state": {"type": "mixture", "terms": [{"n": 0, "weight": 0.5},
                                                        {"n": 1, "weight": 0.5}]},
                 "command": "curvature", "quad": {"rel_tol": 1e-12}}, [],
                lambda out: json.loads(out)["discrepancy"] <= 1e-4),
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

    @pytest.mark.parametrize("override, message", [
        ({"point": {"mu": "a", "sigma": 1.0}},
         "invalid 'mu' in 'point': expected a number, got 'a'"),
        ({"point": None, "physical": {"mass": 1.0, "omega0": 1.0}},
         "missing field 'x0' in 'physical'"),
        ({"state": {"type": "mixture", "terms": [{"n": 0}]}},
         "malformed 'state' term: 'weight'"),
        ({"state": {"type": "mixture", "terms": [
            {"n": 0, "weight": 0.3}, {"n": 0, "weight": 0.2},
            {"n": 1, "weight": 0.5}]}, "renormalize": True},
         "invalid 'state': mixture level 0 is given twice"),
        ({"state": {"type": "superposition", "terms": [
            {"n": 0, "re": 0.6}, {"n": 1, "re": 0.8}, {"n": 1, "im": 0.8}]}},
         "invalid 'state': superposition level 1 is given twice"),
        ({"state": {"type": "density", "entries": [
            {"n": 0, "m": 0, "re": 0.5}, {"n": 1, "m": 1, "re": 0.5},
            {"n": 0, "m": 1, "re": 0.1}, {"n": 1, "m": 0, "re": 0.1},
            {"n": 0, "m": 1, "re": 0.2}]}},
         "invalid 'state': density entry (0, 1) is given twice"),
    ], ids=["point_mu_string", "physical_x0_missing", "term_weight_missing",
            "mixture_level_repeated", "superposition_level_repeated",
            "density_entry_repeated"])
    def test_config_error_message(self, override, message, tmp_path, capsys):
        # Each message names the field once, under one prefix; a None
        # override drops the field.
        raw = {k: v for k, v in json.loads(config_text(**override)).items()
               if v is not None}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] == message

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
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert err["message"].startswith("cannot read config: ")

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{")
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert err["message"].startswith("cannot read config: ")


# Runs the given statements, then prints the scipy modules and the
# numpy.polynomial modules loaded so far as the last two lines on stderr.
_LOADED = ("import sys\n{}\n"
           "for package in ('scipy', 'numpy.polynomial'):\n"
           "    print(sorted(m for m in sys.modules if m == package "
           "or m.startswith(package + '.')), file=sys.stderr)")


def run_fresh(code, *args):
    env = dict(os.environ)
    src = str(Path(hermgauss.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", _LOADED.format(code), *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestRuntimeDependencies:
    def test_import_loads_no_scipy(self):
        proc = run_fresh("import hermgauss, hermgauss.cli")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-2:] == ["[]", "[]"]

    def test_metric_command_loads_no_scipy(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(config_text())
        proc = run_fresh("import hermgauss.cli\n"
                         "assert hermgauss.cli.main(sys.argv[1:]) == 0", str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-2] == "[]"
        assert json.loads(proc.stdout)["command"] == "metric"

    @pytest.mark.parametrize("state, loaded", [
        ("StateSpec.mixture({0: 0.5, 1: 0.5})", False),
        ("StateSpec.eigenstate(2)", True)], ids=["rho01", "eigenstate_2"])
    def test_numpy_polynomial_loads_with_the_exact_rule_only(self, state, loaded):
        # KernelFn.roots and geometry._hermite_rule import numpy.polynomial
        # inside the function; only a rank-one metric takes the exact rule.
        proc = run_fresh("from hermgauss import ModelPoint, StateSpec, "
                         "metric_quadrature\n"
                         f"metric_quadrature({state}, ModelPoint(0.3, 1.2))")
        assert proc.returncode == 0, proc.stderr
        modules = proc.stderr.splitlines()[-1]
        assert ("'numpy.polynomial.hermite'" in modules) is loaded
        assert (modules == "[]") is not loaded
