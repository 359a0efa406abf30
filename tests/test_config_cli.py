"""Unit tests for config parsing/validation and the command line front end,
including sweep determinism and resumability."""

import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgflrw import comparison_ode, field_solver
from kgflrw.cli import emit_report, main, run_sweep
from kgflrw.config import (
    ConfigError,
    RunSpec,
    SweepAxis,
    SweepSpec,
    parse_config,
    parse_config_dict,
)


class TestConfigParsing:
    def test_defaults(self):
        spec = parse_config_dict({"n": 2})
        assert spec.n == 2
        assert spec.H == 0.0 and spec.sigma == 0.0 and spec.m_sq == 0.0
        assert spec.c == 1.0 and spec.a0 == 1.0 and spec.lam == 1.0
        assert spec.p == 2.0 and spec.theta == 0.5
        assert spec.w0 == 10.0 and spec.w1 is None
        assert spec.sweep is None

    def test_lambda_key_maps_to_lam(self):
        assert parse_config_dict({"n": 1, "lambda": 2.5}).lam == 2.5

    @pytest.mark.parametrize("raw,fragment", [
        ({}, "n is required"),
        ({"n": 0}, "positive integer"),
        ({"n": 1, "bogus": 3}, "unknown config keys"),
        ({"n": 1, "theta": 1.0}, "theta must lie in (0, 1)"),
        ({"n": 1, "p": 1.0}, "p must exceed 1"),
        ({"n": 1, "lambda": -1.0}, "lambda must be positive"),
        ({"n": 1, "r0": 0.0}, "r0 must be positive"),
        ({"n": 1, "c": 0.0}, "c must be positive"),
        ({"n": 1, "a0": -1.0}, "a0 must be positive"),
        ({"n": 1, "t_end": 0.0}, "t_end must be positive"),
        ({"n": 1, "output_interval": -1.0}, "output_interval must be positive"),
        ({"n": 1, "safety": 1.5}, "unknown config keys ['safety']"),  # the CFL step is a constant
        ({"n": 1, "num_nodes": 2}, "num_nodes"),
        ({"n": 1, "H": "fast"}, "H must be a number"),
        # n(1+sigma)H, the mass shift or c/(a0 H) past the float range
        ({"n": 2, "H": 1.7976931348623157e308}, "out of the float range"),
        ({"n": 2, "H": 2.0, "a0": 1.7976931348623157e308}, "out of the float range"),
        ({"n": 2, "H": 5e-324}, "out of the float range"),
    ])
    def test_rejections(self, raw, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(raw)
        assert fragment in str(err.value)

    def test_sweep_validation(self):
        good = {"n": 1, "sweep": {
            "axis1": {"name": "p", "min": 1.5, "max": 3.0, "count": 4},
            "axis2": {"name": "sigma", "min": -3.0, "max": -2.0, "count": 3},
        }}
        spec = parse_config_dict(good)
        assert spec.sweep.axis1.name == "p"
        assert spec.sweep.axis2.count == 3
        assert spec.sweep.run_ode is False
        assert spec.sweep.base == (("n", 1),)  # the config's other keys, as written

        bad_name = json.loads(json.dumps(good))
        bad_name["sweep"]["axis1"]["name"] = "n"
        with pytest.raises(ConfigError, match="axis1.name"):
            parse_config_dict(bad_name)

        bad_count = json.loads(json.dumps(good))
        bad_count["sweep"]["axis2"]["count"] = 1
        with pytest.raises(ConfigError, match="count"):
            parse_config_dict(bad_count)

        infinite = json.loads(json.dumps(good))
        infinite["sweep"]["axis1"]["max"] = math.inf
        with pytest.raises(ConfigError, match="sweep.axis1.max must be finite"):
            parse_config_dict(infinite)

        duplicate = json.loads(json.dumps(good))
        duplicate["sweep"]["axis2"]["name"] = "p"
        with pytest.raises(ConfigError, match="distinct"):
            parse_config_dict(duplicate)

    def test_w1_default_matches_threshold_equality(self):
        spec = parse_config_dict({"n": 1, "m_sq": -4.0, "w0": 3.0})
        assert spec.resolved_w1() == pytest.approx(2.0 * 3.0)  # c N w0 with N = 2

    def test_w1_default_falls_back_to_zero(self):
        # real mass on a static background has no damping rate
        spec = parse_config_dict({"n": 1, "m_sq": 1.0})
        assert spec.resolved_w1() == 0.0

    def test_parse_config_reports_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1,\n  "p": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)


def _write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


class TestCliCommands:
    def test_missing_config_is_exit_1(self, capsys):
        assert main(["regime", "--config", "/nonexistent/run.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_is_exit_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"n": 1, "theta": 2.0})
        assert main(["threshold", "--config", cfg]) == 1

    def test_usage_errors_are_exit_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"n": 1})
        assert main(["regime"]) == 1  # no --config
        assert main(["bogus"]) == 1
        assert main(["regime", "--config", cfg, "--jobs", "2"]) == 1  # --jobs is sweep's
        capsys.readouterr()
        assert main(["-h"]) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["pde", "identity"])
    @pytest.mark.parametrize("override, key", [
        ({"num_nodes": 64}, "num_nodes"),  # 10 nodes across the bump, 32 needed
        ({"r_max": 0.4}, "r_max"),  # inside the bump
        ({"r_max": 1.2}, "r_max"),  # short of the light cone r(1.2) = 1.7
    ])
    def test_grid_that_cannot_carry_the_run_is_exit_1(self, tmp_path, capsys, command,
                                                      override, key):
        cfg = _write_config(tmp_path, {"n": 1, "r0": 0.5, "r_max": 3.0, "t_end": 1.2,
                                       "R": 1.2, **override})
        assert main([command, "--config", cfg]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["w0", "w1", "H", "m_sq", "r_max", "t_end"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_exit_1(self, tmp_path, capsys, key, literal):
        path = tmp_path / "run.json"
        path.write_text(f'{{"n": 1, "m_sq": -1.0, "r0": 0.5, "{key}": {literal}}}\n')
        assert main(["ode", "--config", str(path)]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["regime", "threshold", "ode", "pde"])
    def test_dimension_whose_ball_volume_overflows_is_exit_1(self, tmp_path, capsys, command):
        # Gamma(n/2 + 1) overflows from n = 342 on
        cfg = _write_config(tmp_path, {"n": 400, "m_sq": -1.0, "r0": 0.5, "w0": 10.0, "w1": 10.0})
        assert main([command, "--config", cfg]) == 1
        assert "n = 400" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pde", "identity"])
    @pytest.mark.parametrize("key, value", [
        ("w0", 1e308),  # the bump's amplitude w0 / mean overflows
        ("n", 300),  # an amplitude near 1e289, whose |u|^2 overflows
    ])
    def test_field_that_is_not_finite_at_the_start_is_exit_1(self, tmp_path, capsys, command,
                                                             key, value):
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": -1.0, "r0": 0.5, "w0": 10.0, "w1": 10.0,
                                       "r_max": 3.0, "t_end": 1.2, "R": 1.2, key: value})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} = {value}" in err and "Warning" not in err

    def test_scaling_whose_volumes_overflow_is_exit_0(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"n": 300, "m_sq": -1.0, "r0": 0.5, "w0": 10.0, "w1": 10.0})
        assert main(["scaling", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["II_slope"] == pytest.approx(300.0, rel=1e-2)
        assert payload["III_slope"] == pytest.approx(300.0, rel=1e-2)
        assert not payload["disagreement"]

    def test_ode_right_side_that_overflows_at_the_start_is_exit_1(self, tmp_path, capsys):
        # b |w0|^2 overflows at t = 0, where the run used to collapse its first step
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": -1.0, "r0": 0.5, "w0": 1e308, "w1": 1e308})
        assert main(["ode", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "w0 = 1e+308" in err and "w1 = 1e+308" in err

    def test_step_collapse_is_exit_2(self, tmp_path, capsys):
        # t* ~ 1e-50 lies below the step floor: the right side at t = 0 is finite
        # (b w0^2 = 1e200), the first step's stages overflow at any dt above the floor
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": -1.0, "r0": 0.5, "w0": 1e100})
        assert main(["ode", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "StiffnessError" in err

    def test_runtime_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def escape(*args, **kwargs):
            raise field_solver.ConeViolationError("support radius exceeds cone radius")

        monkeypatch.setattr(field_solver, "run_until", escape)
        cfg = _write_config(tmp_path, {"n": 1, "r0": 1.0, "w0": 1.0, "t_end": 0.5})
        assert main(["pde", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "ConeViolationError" in err

    def test_regime_command(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"n": 3, "H": -1.0, "sigma": 0.0})
        out_dir = tmp_path / "out"
        assert main(["regime", "--config", cfg, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "regime.json").read_text())
        assert payload["regime"] == "big_crunch"
        assert payload["horizon_time"] == pytest.approx(2.0 / 3.0)
        printed = json.loads(capsys.readouterr().out)
        assert printed["regime"] == "big_crunch"

    def test_threshold_command(self, tmp_path):
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": -1.0, "r0": 0.5,
                                       "w0": 10.0, "w1": 10.0})
        out_dir = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "threshold.json").read_text())
        assert payload["verdict"] == "admissible"
        assert payload["N"] == pytest.approx(1.0)

    def test_threshold_of_a_massless_static_point_prints_a_positive_zero_N(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": 0.0, "r0": 0.5})
        assert main(["threshold", "--config", cfg]) == 0
        assert '"N": 0.0,' in capsys.readouterr().out

    def test_ode_command(self, tmp_path):
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": -1.0, "r0": 0.5,
                                       "w0": 10.0, "t_end": 5.0})
        out_dir = tmp_path / "out"
        assert main(["ode", "--config", cfg, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "ode.json").read_text())
        assert payload["blowup"] is True
        assert payload["t_star"] < 5.0
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "trajectory.json").exists()

    def test_ode_without_damping_rate_is_exit_1(self, tmp_path):
        cfg = _write_config(tmp_path, {"n": 2, "H": 1.0, "sigma": -2.0,
                                       "m_sq": -1.0})
        assert main(["ode", "--config", cfg]) == 1

    def test_threshold_with_a_set_N_refuses_a_real_mass(self, tmp_path, capsys):
        # M^2 = 5 > 0 lies outside -N^2 <= M^2 <= 0 whatever N is set
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": 5.0, "r0": 0.5, "N": 0.0,
                                       "w0": 10.0, "w1": 10.0})
        assert main(["threshold", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"].startswith("inadmissible(case mismatch: sup M^2 = 5.0 > 0")
        assert payload["hypothesis_flags"] == {"mass_window_1_10": False}

    def test_ode_with_a_set_N_and_a_real_mass_is_exit_1(self, tmp_path, capsys):
        # an oscillation of c sqrt(M^2) ~ 34 with t_end = 1e300 would never end
        cfg = _write_config(tmp_path, {"n": 2, "H": 1.48, "sigma": 0.405, "m_sq": 4.58,
                                       "c": 15.8, "N": 0.0, "t_end": 1e300})
        assert main(["ode", "--config", cfg]) == 1
        assert "m_sq must drop by at least" in capsys.readouterr().err

    def test_ode_at_the_step_cap_is_exit_1_naming_t_end(self, tmp_path, capsys, monkeypatch):
        # w ~ -2t grows without blowing up, so no cap on t_end lets this run end
        monkeypatch.setattr(comparison_ode, "_MAX_ATTEMPTS", 1000)
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": -1.0, "r0": 1.0, "w0": -0.5,
                                       "w1": 0.0, "t_end": 1e300})
        assert main(["ode", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "1000 steps tried" in err and "lower t_end = 1e+300" in err

    def test_pde_command(self, tmp_path):
        cfg = _write_config(tmp_path, {"n": 1, "r0": 1.0, "w0": 1.0,
                                       "t_end": 0.5})
        out_dir = tmp_path / "out"
        assert main(["pde", "--config", cfg, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "pde.json").read_text())
        assert payload["diverged"] is False
        assert payload["final_t"] == pytest.approx(0.5, abs=1e-9)
        assert payload["stop_reason"] == "t_end"
        assert payload["steps"] > 0
        # the default grid has 512 nodes per unit radius out to the cone at t_end plus 0.5
        assert 0 < payload["node_steps"] < payload["steps"] * (512 * 2 + 1)
        header = (out_dir / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,mean,sup,energy,support_radius,cone_radius,mass_integral"

    @pytest.mark.parametrize("config", [
        # n (1 + sigma) < 2: r(t) grows without bound toward the crunch, to r(0.99 T0) = 1.33e6
        {"n": 1, "H": -1.0, "sigma": -0.5, "m_sq": -1.0, "r0": 0.5},
        # 512 r_max overflows
        {"n": 1, "r0": 0.5, "r_max": 1e306, "t_end": 1.0},
    ])
    def test_pde_grid_over_the_work_bound_is_exit_1_before_allocation(self, tmp_path, capsys,
                                                                     monkeypatch, config):
        def allocate(*args, **kwargs):
            raise AssertionError("init_field called")

        monkeypatch.setattr(field_solver, "init_field", allocate)
        assert main(["pde", "--config", _write_config(tmp_path, config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "node-steps" in err
        assert all(key in err for key in ("t = ", "r_max = ", "num_nodes = "))

    @pytest.mark.parametrize("config", [
        # 9e9 node-steps pass the work bound, yet each array would take 72 GB
        {"n": 1, "num_nodes": 9000000000, "t_end": 1e-12},
        # the default 512 r_max + 1 nodes, on a run of about two steps
        {"n": 1, "r0": 0.5, "r_max": 30000.0, "t_end": 1e-3},
    ])
    def test_pde_grid_over_the_node_bound_is_exit_1_before_allocation(self, tmp_path, capsys,
                                                                     monkeypatch, config):
        def allocate(*args, **kwargs):
            raise AssertionError("init_field called")

        monkeypatch.setattr(field_solver, "init_field", allocate)
        assert main(["pde", "--config", _write_config(tmp_path, config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1e+07 nodes" in err
        assert all(key in err for key in ("r_max = ", "num_nodes = "))


class TestSweep:
    CONFIG = {
        "n": 1, "m_sq": -1.0, "r0": 0.5, "w0": 10.0, "w1": 10.0,
        "sweep": {"axis1": {"name": "p", "min": 1.5, "max": 2.5, "count": 2},
                  "axis2": {"name": "theta", "min": 0.3, "max": 0.6, "count": 2}},
    }

    def test_sweep_produces_grid_and_report(self, tmp_path):
        cfg = _write_config(tmp_path, self.CONFIG)
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("p,theta,N,S,")
        assert len(rows) == 5
        assert all("admissible" in row for row in rows[1:])
        assert (out_dir / "summary.txt").exists()
        assert (out_dir / "boundary.csv").exists()
        summary = (out_dir / "summary.txt").read_text()
        assert "grid points: 4" in summary

    def test_sweep_requires_out_and_sweep_block(self, tmp_path):
        cfg = _write_config(tmp_path, self.CONFIG)
        assert main(["sweep", "--config", cfg]) == 1
        plain = _write_config(tmp_path, {"n": 1}, name="plain.json")
        assert main(["sweep", "--config", plain, "--out", str(tmp_path / "o")]) == 1

    def test_sweep_deterministic_and_resumable(self, tmp_path):
        spec = parse_config_dict(self.CONFIG)
        out_dir = tmp_path / "out"
        path = run_sweep(spec, out_dir)
        first = path.read_bytes()

        # rerun over the existing file: all rows are reused, bytes identical
        assert run_sweep(spec, out_dir).read_bytes() == first

        # drop an interior row and rerun: only the hole is recomputed
        lines = first.decode().splitlines()
        (out_dir / "sweep.csv").write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        assert run_sweep(spec, out_dir).read_bytes() == first

        # a parallel run matches the serial bytes
        par_dir = tmp_path / "par"
        assert run_sweep(spec, par_dir, jobs=2).read_bytes() == first

    def test_each_point_is_validated_on_its_own(self, tmp_path):
        # theta in [-0.5, 1.5] and p in [0.5, 2] both leave their ranges
        config = {**self.CONFIG, "sweep": {
            "axis1": {"name": "theta", "min": -0.5, "max": 1.5, "count": 5},
            "axis2": {"name": "p", "min": 0.5, "max": 2.0, "count": 4}}}
        cfg = _write_config(tmp_path, config)
        outputs = []
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", cfg, "--out", str(out_dir), "--jobs", str(jobs)]) == 0
            outputs.append((out_dir / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rows = list(csv.DictReader(outputs[0].decode().splitlines()))
        assert len(rows) == 20
        for row in rows:
            theta, p = float(row["theta"]), float(row["p"])
            if not 0.0 < theta < 1.0:
                assert row["error"] == f"ConfigError: theta must lie in (0, 1), got {theta}"
            elif p <= 1.0:
                assert row["error"] == f"ConfigError: p must exceed 1, got {p}"
            else:
                assert row["error"] == "" and row["verdict"]

    def test_emit_report_boundary(self, tmp_path):
        spec = parse_config_dict(self.CONFIG)
        out_dir = tmp_path / "out"
        run_sweep(spec, out_dir)
        emit_report(out_dir)
        boundary = (out_dir / "boundary.csv").read_text().splitlines()
        assert boundary[0] == "p,max_admissible_theta"
        # every p value is admissible up to the largest theta sampled
        assert len(boundary) == 3
        for line in boundary[1:]:
            assert float(line.split(",")[1]) == pytest.approx(0.6)


def _readme_configs():
    """The README's JSON blocks: the run config, then the sweep config."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


class TestReadmeExamples:
    def test_sweep_example_shows_admissible_points_at_any_job_count(self, tmp_path):
        run_config, sweep_config = _readme_configs()
        parse_config_dict(run_config)
        parse_config_dict(sweep_config)
        cfg = _write_config(tmp_path, sweep_config)
        outputs = []
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", cfg, "--out", str(out_dir), "--jobs", str(jobs)]) == 0
            outputs.append((out_dir / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rows = list(csv.DictReader(outputs[0].decode().splitlines()))
        assert len(rows) == 90
        assert sum(row["verdict"] == "admissible" for row in rows) > 0

    def test_identity_on_a_diverging_run_is_exit_1(self, tmp_path, capsys):
        # the README run diverges at t = 0.82, before any window R > 2 r0 = 1 ends
        cfg = _write_config(tmp_path, _readme_configs()[0])
        assert main(["identity", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "diverges at t = 0.82" in err
        assert "R = 3.0" in err and "2 r0 = 1.0" in err

    @pytest.mark.parametrize("config", [
        {"n": 2, "H": -1.0, "sigma": 0.0, "m_sq": 0.0, "r0": 0.25, "R": 1.5, "w0": 0.1,
         "lambda": 1e-3},  # T0 = 1
        {"n": 3, "H": -0.5, "sigma": 0.0, "m_sq": -1.0, "r0": 0.25, "R": 2.0, "w0": 0.1,
         "lambda": 1e-3},  # T0 = 4/3
    ])
    def test_identity_whose_window_passes_the_run_is_exit_1(self, tmp_path, capsys, config):
        # psi_R vanishes only from t = R on, past the run's end 0.99 T0
        assert main(["identity", "--config", _write_config(tmp_path, config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"R = {config['R']}" in err and "0.99 T0" in err
        if config["n"] == 2:  # a window inside the run
            assert main(["identity", "--config", _write_config(tmp_path, {**config, "R": 0.9})]) == 0

    def test_identity_without_divergence_is_exit_0(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"n": 1, "m_sq": -1.0, "r0": 0.5, "w0": 0.1, "R": 1.5})
        assert main(["identity", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] < 1e-4


_BIG, _TINY = 1.7976931348623157e308, 5e-324


def _reals(extremes=(0.0, _TINY, 1e-300, 1e300, _BIG)):
    """Finite floats of either sign: a moderate range, and the extremes of the float range."""
    return st.floats(-10.0, 10.0) | st.sampled_from([s * x for x in extremes for s in (1, -1)])


def _positive(extremes=(_TINY, 1e-300, 1e300, _BIG)):
    return st.floats(1e-3, 1e3) | st.sampled_from(extremes)


_CONFIG_KEYS = {
    "n": st.integers(1, 8) | st.sampled_from([341, 342, 400, 10**9]),
    "H": _reals(), "sigma": _reals(), "m_sq": _reals(),
    "c": _positive(), "a0": _positive(), "lambda": _positive(),
    "p": st.floats(1.0, 10.0, exclude_min=True) | st.sampled_from([1.0 + 2**-52, 1e300, _BIG]),
    "theta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([_TINY, 1.0 - 2**-53]),
    "N": st.floats(0.0, 10.0) | st.sampled_from([_TINY, 1e300, _BIG]),
    "r0": _positive(), "w0": _reals(), "w1": _reals(),
    "t_end": st.floats(1e-3, 50.0) | st.sampled_from([_TINY, 1e-300]),
}


@st.composite
def _configs(draw):
    keys = draw(st.sets(st.sampled_from(sorted(set(_CONFIG_KEYS) - {"n"}))))
    return {"n": draw(_CONFIG_KEYS["n"]), **{key: draw(_CONFIG_KEYS[key]) for key in sorted(keys)}}


@settings(max_examples=40)
@given(config=_configs())
def test_any_config_exits_0_or_1_or_2_only_on_a_step_collapse(tmp_path_factory, config):
    cfg = _write_config(tmp_path_factory.mktemp("cfg"), config)
    for command in ("regime", "threshold", "ode", "scaling"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg])
        assert code in (0, 1) or (code == 2 and "StiffnessError" in err.getvalue()), (
            command, err.getvalue())
