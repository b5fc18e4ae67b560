import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import argparse_namespace
from test_cli_golden import record, write_inputs

from accordion_gripper import __version__, cli
from accordion_gripper.chamber import reachable_pressure_range
from accordion_gripper.cli import build_validation_report, main
from accordion_gripper.config import ConfigError, ModelContext, default_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_prints_json(capsys):
    code, out, _ = run(capsys, "config")
    assert code == 0
    assert json.loads(out)["material"]["c1_kPa"] == 119.0


def test_config_print_default(capsys):
    code, out, _ = run(capsys, "config", "--print-default")
    assert code == 0
    assert json.loads(out)["assembly"]["n_chambers"] == 22


def test_solve_zero_pressure_json(capsys):
    code, out, _ = run(capsys, "solve", "--pressure", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r0_mm"] == 4.56
    assert payload["r1_mm"] == 3.0
    assert payload["Rg_mm"] == pytest.approx(20.676, abs=1e-3)


def test_solve_text_output(capsys):
    code, out, _ = run(capsys, "solve", "--pressure", "20")
    assert code == 0
    assert "aperture Rg" in out
    assert "21.5787016" in out  # 9 significant digits


def test_solve_negative_pressure_exit_2(capsys):
    code, _, err = run(capsys, "solve", "--pressure", "-5")
    assert code == 2
    assert "inflation branch only" in err


def test_solve_unreachable_pressure_exit_2(capsys):
    code, _, err = run(capsys, "solve", "--pressure", "100")
    assert code == 2
    assert "reachable" in err


def test_invert_round_trip(capsys):
    code, out, _ = run(capsys, "solve", "--pressure", "17.5", "--json")
    assert code == 0
    rg = json.loads(out)["Rg_mm"]
    code, out, _ = run(capsys, "invert", "--aperture", str(rg), "--json")
    assert code == 0
    assert json.loads(out)["pressure_kPa"] == pytest.approx(17.5, abs=1e-5)


def test_invert_out_of_range_exit_2(capsys):
    code, _, err = run(capsys, "invert", "--aperture", "30")
    assert code == 2
    assert "achievable" in err


def test_workspace_json(capsys):
    code, out, _ = run(capsys, "workspace", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_aperture_mm"] == 5.0
    assert payload["rest_aperture_mm"] == pytest.approx(20.676, abs=1e-3)
    assert payload["max_aperture_mm"] == pytest.approx(22.5435, abs=1e-3)
    lo, hi = payload["contraction_object_diameter_mm"]
    assert lo == pytest.approx(10.0)
    assert hi == pytest.approx(50.0018, abs=1e-3)


def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--from", "0", "--to", "40", "--steps", "11",
        "--out", str(out_path),
    )
    assert code == 0
    assert "wrote 11 rows" in out
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("pressure_kPa,r0_mm,r1_mm")
    assert len(lines) == 12


def test_sweep_repeat_byte_identical(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "sweep", "--out", str(p1))[0] == 0
    assert run(capsys, "sweep", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_bad_range_exit_1(capsys):
    code, _, err = run(capsys, "sweep", "--from", "10", "--to", "5", "--out", "/dev/null")
    assert code == 1
    assert "empty sweep" in err


def test_validate_passes(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "overall: PASS" in out
    assert "FAIL" not in out.replace("PASS/FAIL", "")


def test_validate_json_structure(capsys):
    code, out, _ = run(capsys, "validate", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert {
        "fixed_point",
        "rest_aperture_pin",
        "closed_form_vs_quadrature",
        "constraint_residuals",
        "aperture_monotone",
        "printed_form_zero_deformation",
        "printed_discrepancy_identity",
        "inverse_round_trip",
    } <= names
    assert "search_box_audit" in report


def test_validation_report_deterministic(ctx):
    a = build_validation_report(ctx)
    b = build_validation_report(ctx)
    assert a == b


def write_object(tmp_path, payload):
    path = tmp_path / "object.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_plan_contraction(capsys, tmp_path):
    path = write_object(
        tmp_path, {"shape_class": "cylinder", "characteristic_diameter_mm": 40.0}
    )
    code, out, _ = run(capsys, "plan", "--object", path)
    assert code == 0
    plan = json.loads(out)
    assert plan["mode"] == "contraction"
    assert plan["feasible"] is True
    assert plan["predicted_capacity_N"] == pytest.approx(20.0)


def test_plan_suction(capsys, tmp_path):
    path = write_object(
        tmp_path, {"shape_class": "flat_plate", "characteristic_diameter_mm": 300.0}
    )
    code, out, _ = run(capsys, "plan", "--object", path)
    assert code == 0
    plan = json.loads(out)
    assert plan["mode"] == "suction"
    assert plan["predicted_capacity_N"] == pytest.approx(31.55, abs=0.01)


def test_plan_infeasible_exit_2(capsys, tmp_path):
    path = write_object(
        tmp_path, {"shape_class": "sphere", "characteristic_diameter_mm": 200.0}
    )
    code, out, _ = run(capsys, "plan", "--object", path)
    assert code == 2
    plan = json.loads(out)
    assert plan["feasible"] is False
    assert "exceeds workspace" in plan["rationale"]


def test_plan_too_heavy_to_lift_exit_2(capsys, tmp_path):
    # 100 kg weighs 980.665 N, against a 20 N contraction capacity.
    path = write_object(
        tmp_path, {"shape_class": "cylinder", "characteristic_diameter_mm": 40, "mass_kg": 100}
    )
    code, out, err = run(capsys, "plan", "--object", path)
    assert (code, err) == (2, "")
    plan = json.loads(out)
    assert plan["feasible"] is False and plan["predicted_capacity_N"] == 20.0
    assert "weight 980.665 N exceeds the predicted capacity 20 N" in plan["rationale"]


def test_plan_bad_descriptor_exit_1(capsys, tmp_path):
    path = write_object(tmp_path, {"shape_class": "blob", "characteristic_diameter_mm": 40.0})
    code, _, err = run(capsys, "plan", "--object", path)
    assert code == 1
    assert "unknown shape_class" in err


CYLINDER = {"shape_class": "cylinder", "characteristic_diameter_mm": 40.0}


@pytest.mark.parametrize(
    "descriptor, named",
    [
        ([CYLINDER], "JSON object"),
        (CYLINDER | {"mass_kg": None}, "mass_kg"),
        (CYLINDER | {"characteristic_diameter_mm": [40]}, "characteristic_diameter_mm"),
        (CYLINDER | {"characteristic_diameter_mm": {"a": 1}}, "characteristic_diameter_mm"),
        (CYLINDER | {"characteristic_diameter_mm": 10**400}, "characteristic_diameter_mm"),
        # Each value must have its field's JSON type: no string, bool or number is coerced.
        (CYLINDER | {"has_flat_sealable_surface": "false"}, "has_flat_sealable_surface"),
        (CYLINDER | {"has_aperture": 1, "aperture_diameter_mm": 20.0}, "has_aperture"),
        (CYLINDER | {"characteristic_diameter_mm": "40"}, "characteristic_diameter_mm"),
        (CYLINDER | {"mass_kg": True}, "mass_kg"),
        (CYLINDER | {"has_aperture": True, "aperture_diameter_mm": "20"}, "aperture_diameter_mm"),
        (CYLINDER | {"orientation_note": "stem up"},
         "unknown object descriptor keys: ['orientation_note']"),
    ],
    ids=["array", "null-mass", "list-diameter", "object-diameter", "huge-int-diameter",
         "string-flag", "number-flag", "string-diameter", "bool-mass", "string-aperture",
         "unknown-note"],
)
def test_plan_malformed_descriptor_exit_1(capsys, tmp_path, descriptor, named):
    code, out, err = run(capsys, "plan", "--object", write_object(tmp_path, descriptor))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_fit_c1_from_csv(capsys, tmp_path, assembly):
    from accordion_gripper import aperture_vs_pressure

    path = tmp_path / "series.csv"
    lines = ["pressure_kPa,aperture_mm"]
    for p in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        lines.append(f"{p},{aperture_vs_pressure(assembly, p):.9g}")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fit-c1", "--data", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["params"]["c1_kPa"] == pytest.approx(119.0, rel=1e-3)


def test_fit_c1_bad_header_exit_1(capsys, tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("p,a\n1,2\n2,3\n3,4\n")
    code, _, err = run(capsys, "fit-c1", "--data", str(path))
    assert code == 1
    assert "expected header" in err


def test_fit_c1_below_rest_exit_1(capsys, tmp_path):
    # 28 chambers at c1 = 210 kPa rest at 26.31 mm: every aperture of the series lies below.
    config = tmp_path / "c1_210_n28.json"
    config.write_text(json.dumps({"material": {"c1_kPa": 210.0}, "assembly": {"n_chambers": 28}}))
    path = tmp_path / "aperture.csv"
    path.write_text("pressure_kPa,aperture_mm\n5,20.8\n10,20.97\n20,21.55\n30,22.05\n40,22.5\n")
    code, out, err = run(capsys, "--config", str(config), "fit-c1", "--data", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: fit_c1 failed: ") and err.count("\n") == 1
    assert "rest aperture 26.31" in err and "row 1: 20.8 mm" in err


def test_fit_suction_from_csv(capsys, tmp_path):
    path = tmp_path / "suction.csv"
    path.write_text("pressure_kPa,force_N\n0,15\n20,30\n")
    code, out, _ = run(capsys, "fit-suction", "--data", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["params"]["A_eff_mm2"] > 0
    assert report["params"]["h_eff_mm"] > 0


def test_peak_force_json(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("displacement_mm,force_N\n0,1.0\n1,4.5\n2,2.0\n")
    code, out, _ = run(capsys, "peak-force", "--data", str(path), "--json")
    assert code == 0
    assert json.loads(out)["peak_force_N"] == 4.5


@pytest.mark.parametrize("command", ["fit-c1", "fit-suction", "peak-force"])
@pytest.mark.parametrize("data", ["missing.csv", "."], ids=["missing", "directory"])
def test_unreadable_data_exit_1(capsys, tmp_path, monkeypatch, command, data):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--data", data)
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"suction": {"ambient_kPa": -101}}, ["fit-suction", "--data", "suction.csv"],
         "ambient pressure must be positive"),
        ({"suction": {"lift_volume_increase_mm3": -1e6}}, ["fit-suction", "--data", "suction.csv"],
         "lift volume increase must be >= 0"),
        ({"grasp": {"stretch_margin_mm": -100}}, ["workspace"], "stretch margin must be >= 0"),
        ({"solver": {"theta_tol_rad": 0}}, ["solve", "--pressure", "10"],
         "solver.theta_tol_rad must be positive, got 0.0"),
        # Values only a flat-plate plan or no command at all used to read.
        ({"suction": {"ambient_kPa": -101, "A_eff_mm2": -5}}, ["solve", "--pressure", "1"],
         "ambient pressure must be positive"),
        ({"grasp": {"stretch_margin_mm": -100}}, ["plan", "--object", "object.json"],
         "stretch margin must be >= 0"),
        ({"grasp": {"open_kPa": 50}}, ["plan", "--object", "object.json"],
         "'open' pressure 50.0 kPa exceeds"),
        ({"solver": {"p_max_kPa": -5}}, ["solve", "--pressure", "10"],
         "solver.p_max_kPa must be >= 0"),
        ({"solver": {"quad_rel_tol": 0}}, ["sweep", "--out", "sweep.csv"],
         "solver.quad_rel_tol must be positive"),
        # Values that loaded: a plan then failed naming no key, quoted the built-in 20 N
        # for a 45 mm cylinder, or printed a min aperture above the rest aperture.
        ({"capacity": {"cylinder": {"prestretch_N": -50}}}, ["config"],
         "capacity.cylinder.prestretch_N must be >= 0, got -50.0"),
        ({"capacity": {"cylindre": {"slope_N_per_kPa": 5, "plateau_N": 99}}}, ["config"],
         "capacity.cylindre names no shape class, so no lookup reads it; expected one of "
         "['cylinder', 'sphere', 'cone', 'pyramid', 'cube', 'irregular', 'flat_plate', 'default']"),
        ({"assembly": {"folded_aperture_mm": 30}}, ["workspace"],
         "assembly.folded_aperture_mm 30.0 must not exceed the rest aperture R_g(0) = 20.675956 mm"),
        # The solver brackets on the angle alone, from the rest angle to the box top; no
        # solve read the radial ranges or a lower angle.
        ({"solver": {"box": {"r0_mm": [3.0, 5.0]}}}, ["config"],
         "unknown config key 'solver.box.r0_mm'"),
        ({"solver": {"box": {"r1_mm": [3.0, 5.0]}}}, ["config"],
         "unknown config key 'solver.box.r1_mm'"),
        ({"solver": {"box": {"theta0_deg": [57.6, 80.0]}}}, ["solve", "--pressure", "0"],
         "unknown config key 'solver.box.theta0_deg'"),
    ],
    ids=["negative-ambient", "negative-lift", "negative-margin", "zero-theta-tol",
         "negative-ambient-and-area", "negative-margin-plate", "open-pressure-above-limit",
         "negative-p-max", "zero-quad-tol", "negative-prestretch", "misspelt-capacity-shape",
         "folded-above-rest", "radial-box-r0", "radial-box-r1", "box-angle-pair"],
)
def test_bad_model_parameter_exit_1(capsys, tmp_path, monkeypatch, config, argv, message):
    # The value is rejected when the config is loaded, so every command fails alike.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "suction.csv").write_text("pressure_kPa,force_N\n0,15\n20,30\n40,41\n")
    commands = all_commands(tmp_path)  # its object.json is a flat plate
    cfg = write_config(tmp_path, config)
    for command in [argv, *commands]:
        code, out, err = run(capsys, "--config", cfg, *command)
        assert (code, out, err.count("\n")) == (1, "", 1), command
        assert err.startswith("config error: ") and message in err, command
    assert not (tmp_path / "sweep.csv").exists()  # no command ran
    code, out, _ = run(capsys, "--config", cfg, "config", "--print-default")
    assert code == 0 and json.loads(out) == default_config()


def test_print_default_reads_no_config(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GRIPPER_CONFIG", write_config(tmp_path, {"material": {"c1_kPa": -1}}))
    assert run(capsys, "config")[0] == 1
    for prefix in ([], ["--config", str(tmp_path / "missing.json")]):
        code, out, err = run(capsys, *prefix, "config", "--print-default")
        assert (code, err) == (0, "")
        assert json.loads(out) == default_config()


def test_bad_config_exit_1(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"material": {"c1_kPa": -1}}')
    code, _, err = run(capsys, "--config", str(path), "solve", "--pressure", "0")
    assert code == 1
    assert "config error" in err


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_pressure_below_the_rest_noise_solves_to_rest(capsys, tmp_path):
    # c1*q(Theta0) rounds to +1.06e-13 kPa on this geometry; the range still starts at 0.
    cfg = write_config(tmp_path, {"geometry": {"R0_mm": 4.846, "R1_mm": 2.851,
                                               "Theta0_deg": 56.76}})
    code, out, err = run(capsys, "--config", cfg, "solve", "--pressure", "1e-15", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)  # the rest state, to the 9 digits printed
    assert (payload["theta0_deg"], payload["r0_mm"], payload["r1_mm"]) == (56.76, 4.846, 2.851)
    code, out, err = run(capsys, "--config", cfg, "solve", "--pressure", "100")
    assert (code, out) == (2, "")
    assert "outside the range [0, 90.175] kPa" in err


def test_plan_suction_checks_configured_box(capsys, tmp_path):
    # The box reaches only [0, 12.68] kPa, below the 20 kPa suction phase.
    cfg = write_config(
        tmp_path, {"solver": {"box": {"theta0_max_deg": 62}, "p_max_kPa": 5}}
    )
    path = write_object(
        tmp_path, {"shape_class": "flat_plate", "characteristic_diameter_mm": 300.0}
    )
    code, _, err = run(capsys, "--config", cfg, "plan", "--object", path)
    assert code == 2
    assert "12.68" in err


def test_plan_contraction_checks_p_max(capsys, tmp_path):
    # The 40 kPa "open" phase is above the 5 kPa the workspace was solved at.
    cfg = write_config(
        tmp_path, {"solver": {"box": {"theta0_max_deg": 62}, "p_max_kPa": 5}}
    )
    path = write_object(
        tmp_path, {"shape_class": "cylinder", "characteristic_diameter_mm": 40.0}
    )
    code, out, err = run(capsys, "--config", cfg, "plan", "--object", path)
    assert code == 2
    assert out == ""
    assert "'open' at 40 kPa" in err
    assert "[0, 5] kPa" in err


@pytest.mark.parametrize("command", [["solve", "--pressure", "0"], ["workspace"], ["validate"]])
def test_box_below_rest_angle_exit_1(capsys, tmp_path, command):
    # The box top is below Theta0 = 57.6 deg, so no pressure is reachable.
    cfg = write_config(tmp_path, {"solver": {"box": {"theta0_max_deg": 50}}})
    code, out, err = run(capsys, "--config", cfg, *command)
    assert (code, out) == (1, "")
    assert "below the rest angle" in err


@pytest.mark.parametrize("command", [
    ["solve", "--pressure", "0"], ["sweep", "--out", "sweep.csv"], ["validate"],
    ["invert", "--aperture", "21"], ["workspace"], ["plan", "--object", "object.json"],
    ["fit-suction", "--data", "suction.csv"],
], ids=lambda argv: argv[0])
def test_box_at_rest_angle_with_rest_noise_above_zero(capsys, tmp_path, monkeypatch, command):
    # P(Theta0) rounds to +5.7e-14 kPa here, so a solve at 0 kPa on the bracket
    # [Theta0, top] had no sign change and every command failed at config load.
    monkeypatch.chdir(tmp_path)
    write_object(tmp_path, {"shape_class": "flat_plate", "characteristic_diameter_mm": 300.0})
    (tmp_path / "suction.csv").write_text("pressure_kPa,force_N\n0,15\n20,30\n")
    cfg = write_config(tmp_path, {"geometry": {"R0_mm": 4.5, "R1_mm": 2.8, "Theta0_deg": 55}})
    code, _, err = run(capsys, "--config", cfg, *command)
    assert (code, err) == (0, "")


def test_sweep_unwritable_out_runs_no_solve(capsys, tmp_path, monkeypatch, series_draws):
    import accordion_gripper.gripper as gripper

    solves, real = [], gripper.solve_deformation

    def spy(*args, **kwargs):
        solves.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(gripper, "solve_deformation", spy)
    assert run(capsys, "config")[0] == 0
    at_load = len(solves)  # the suction model's rest volume
    drawn_at_load = sum(map(len, series_draws))
    code, _, err = run(capsys, "sweep", "--out", str(tmp_path / "no-dir" / "sweep.csv"))
    assert code == 1 and err.startswith("error: [Errno 2]")
    assert len(solves) == 2 * at_load
    assert sum(map(len, series_draws)) == 2 * drawn_at_load  # no row's pressure was solved
    # A bad range still fails before the file is created.
    out = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", "--from", "10", "--to", "5", "--out", str(out))[0] == 1
    assert not out.exists()


@pytest.mark.parametrize("bounds, message", [
    (["--to", "100"], "pressure 100.0 kPa outside the range [0, 68.6442] kPa reachable "
                      "inside the solver box"),
    (["--from", "-5"], "inflation branch only: pressure must be >= 0 kPa, got -5.0"),
], ids=["past-the-box", "negative"])
def test_failed_sweep_leaves_no_file(capsys, tmp_path, bounds, message):
    # Both ends are checked before --out is opened: no file is made, and an existing
    # one is never truncated.
    out = tmp_path / "sweep.csv"
    for before in (None, b"keep me\n"):
        if before is not None:
            out.write_bytes(before)
        code, stdout, err = run(capsys, "sweep", *bounds, "--out", str(out))
        assert (code, stdout, err) == (2, "", f"out of workspace: {message}\n")
        assert (out.read_bytes() if out.exists() else None) == before


@pytest.mark.parametrize("command", [["validate"], ["sweep", "--out", "sweep.csv"],
                                     ["workspace"], ["invert", "--aperture", "21"]])
def test_unreachable_p_max_is_named(capsys, tmp_path, monkeypatch, command):
    # The box reaches only [0, 5.77] kPa at c1 = 10 kPa; each command names p_max itself.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"material": {"c1_kPa": 10}})
    code, out, err = run(capsys, "--config", cfg, *command)
    assert (code, out) == (2, "")
    assert "pressure 40.0 kPa outside the range [0, 5.76842] kPa" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_to_defaults_to_p_max(capsys, tmp_path):
    # The box reaches only [0, 12.68] kPa; the sweep ends at the configured 5 kPa.
    cfg = write_config(
        tmp_path, {"solver": {"box": {"theta0_max_deg": 62}, "p_max_kPa": 5}}
    )
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(capsys, "--config", cfg, "sweep", "--steps", "3", "--out", str(out))
    assert (code, stdout) == (0, f"wrote 3 rows to {out}\n")
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "2.5", "5"]


def test_plan_suction_below_seal_threshold_exit_1(capsys, tmp_path):
    # The 20 kPa suction phase cannot form a seal that needs 30 kPa.
    cfg = write_config(tmp_path, {"suction": {"seal_threshold_kPa": 30}})
    path = write_object(
        tmp_path, {"shape_class": "flat_plate", "characteristic_diameter_mm": 300.0}
    )
    code, out, err = run(capsys, "--config", cfg, "plan", "--object", path)
    assert code == 1
    assert out == ""
    assert "below seal threshold" in err


def test_suction_below_seal_threshold_is_a_config_error(capsys, tmp_path):
    """A suction phase that cannot seal is refused at load, naming both keys, so every
    command exits 1, not only a suction plan; a phase at the threshold loads."""
    cfg = write_config(tmp_path, {"grasp": {"suction_kPa": 20},
                                  "suction": {"seal_threshold_kPa": 25}})
    lead = ("config error: invalid config: grasp.suction_kPa 20.0, "
            "suction.seal_threshold_kPa 25.0: chamber pressure 20.0 kPa below seal threshold")
    for argv in (["config"], ["solve", "--pressure", "10"], ["workspace"]):
        code, out, err = run(capsys, "--config", cfg, *argv)
        assert (code, out, err.startswith(lead)) == (1, "", True), (argv, err)
    ModelContext.from_config({"grasp": {"suction_kPa": 25}, "suction": {"seal_threshold_kPa": 25}})


def test_validate_quadrature_at_soft_material(capsys, tmp_path):
    # The 30 kPa sweep point once stopped the quadrature 1.9e-6 off.
    cfg = write_config(tmp_path, {"material": {"c1_kPa": 99.43333166710374}})
    code, out, _ = run(capsys, "--config", cfg, "validate")
    assert code == 0
    assert "PASS  closed_form_vs_quadrature" in out


@pytest.mark.parametrize("n_chambers", [16, 28])
def test_validate_other_chamber_counts(capsys, tmp_path, n_chambers):
    cfg = write_config(tmp_path, {"assembly": {"n_chambers": n_chambers}})
    code, out, _ = run(capsys, "--config", cfg, "validate")
    assert code == 0
    # The 20.676 mm pin is the published assembly's; fixed_point covers Rg(0) here.
    assert "rest_aperture_pin" not in out
    assert "PASS  fixed_point" in out
    assert "overall: PASS" in out


@pytest.mark.parametrize("config", [
    {"solver": {"p_max_kPa": 28.77975602804722}},
    {"geometry": {"R0_mm": 4.058026863274308, "R1_mm": 2.535132809527206,
                  "Theta0_deg": 59.69654777875791},
     "material": {"c1_kPa": 96.2176012907255}, "assembly": {"n_chambers": 28},
     "solver": {"box": {"theta0_max_deg": 75.07716438821367},
                "p_max_kPa": 25.832450340642087, "theta_tol_rad": 1e-10}},
], ids=["default-geometry", "n28"])
def test_validate_round_trip_ends_on_p_max(capsys, tmp_path, config):
    # p_max*10/10 rounds an ulp above p_max here, so a round trip at that
    # pressure asks the inverse for an aperture just outside the workspace.
    cfg = write_config(tmp_path, config)
    code, out, err = run(capsys, "--config", cfg, "validate")
    assert (code, err) == (0, "")
    assert "PASS  inverse_round_trip" in out


def test_validate_solves_only_its_sweep(ctx, series_draws):
    import accordion_gripper.gripper as gripper

    build_validation_report(ctx)  # the range ends are now cached
    grid = [row.pressure_kPa for row in gripper.sweep(ctx.assembly, 0.0, ctx.p_max_kPa, 41)]
    series_draws.clear()
    assert build_validation_report(ctx)["pass"]
    # One series of 41 solves: the round trip reads rows 4, 8, ..., 40.
    assert series_draws == [grid]


def write_fit_data(tmp_path, command):
    path = tmp_path / f"{command}.csv"
    if command == "fit-c1":
        path.write_text("pressure_kPa,aperture_mm\n10,21.0\n20,21.6\n30,22.1\n")
    else:
        path.write_text("pressure_kPa,force_N\n0,15\n20,30\n")
    return ["--data", str(path)]


@pytest.mark.parametrize(
    "command",
    ["solve", "invert", "workspace", "plan", "sweep", "validate", "fit-c1", "fit-suction"],
)
def test_theta_tol_reaches_every_solve(capsys, tmp_path, monkeypatch, command):
    import accordion_gripper.chamber as chamber
    import accordion_gripper.gripper as gripper

    xtols, real = [], chamber._brent

    def brent(f, a, b, fa, fb, xtol, *args):  # the body every solve and inverse runs
        xtols.append(xtol)
        return real(f, a, b, fa, fb, xtol, *args)

    monkeypatch.setattr(chamber, "_brent", brent)
    argv = {
        "solve": ["--pressure", "20"],
        "invert": ["--aperture", "21.5"],
        "workspace": [],
        "plan": ["--object", write_object(
            tmp_path, {"shape_class": "flat_plate", "characteristic_diameter_mm": 300.0}
        )],
        "sweep": ["--out", str(tmp_path / "sweep.csv")],
        "validate": [],
        "fit-c1": write_fit_data(tmp_path, command),
        "fit-suction": write_fit_data(tmp_path, command),
    }[command]
    cfg = write_config(tmp_path, {"solver": {"theta_tol_rad": 1e-3}})
    gripper._range_ends.cache_clear()  # else an earlier case's range ends make no solve here
    run(capsys, "--config", cfg, command, *argv)
    assert xtols
    assert set(xtols) == {1e-3}


IMPORT_PROBE = textwrap.dedent(
    """
    import json, sys
    from accordion_gripper.cli import main

    watch = set(json.loads(sys.argv[2]))
    loaded = {}
    for argv in json.loads(sys.argv[1]):
        code = main(argv)
        loaded[argv[0]] = [code, sorted(watch & set(sys.modules))]
    print(json.dumps(loaded), file=sys.stderr)
    """
)


#: Modules no command loads: numpy and scipy; dataclasses and the inspect it pulls in;
#: argparse and the gettext and locale it pulls in; and csv, as the commands' CSVs are plain.
WATCHED_MODULES = frozenset({"numpy", "scipy", "dataclasses", "inspect", "argparse", "gettext",
                             "locale", "csv"})


def probe_imports(tmp_path, commands):
    """Exit code and the watched modules loaded after each command, run in turn in
    one fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("GRIPPER_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands),
         json.dumps(sorted(WATCHED_MODULES))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stderr.splitlines()[-1])


def all_commands(tmp_path):
    """One invocation of each of the ten commands, with its input files."""
    obj = write_object(tmp_path, {"shape_class": "flat_plate", "characteristic_diameter_mm": 300.0})
    trace = tmp_path / "trace.csv"
    trace.write_text("displacement_mm,force_N\n0,1.0\n1,4.5\n2,2.0\n")
    return [
        ["config"],
        ["solve", "--pressure", "20"],
        ["invert", "--aperture", "21.5"],
        ["workspace"],
        ["plan", "--object", obj],
        ["sweep", "--out", "sweep.csv"],
        ["validate"],
        ["fit-c1", *write_fit_data(tmp_path, "fit-c1")],
        ["fit-suction", *write_fit_data(tmp_path, "fit-suction")],
        ["peak-force", "--data", str(trace), "--window", "2"],
    ]


def test_commands_run_on_the_standard_library_alone(capsys, tmp_path, monkeypatch):
    """``python -S`` puts only PYTHONPATH and the standard library on sys.path: each of
    the ten commands, run through ``__main__``, exits 0 and prints what ``main`` prints."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRIPPER_CONFIG", raising=False)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in all_commands(tmp_path):
        proc = subprocess.run([sys.executable, "-S", "-m", "accordion_gripper", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert run(capsys, *argv) == (0, proc.stdout, ""), argv


@pytest.mark.parametrize("row", ["1," + "1" * 131_073, "1,\x002"], ids=["field_over_limit", "nul"])
def test_a_csv_reader_error_is_one_error_line(tmp_path, monkeypatch, row):
    """A CSV that csv.reader itself rejects (a field over its size limit; a NUL on
    Python 3.10) exits 1 with one ``error:`` line naming the file, not a traceback."""
    monkeypatch.delenv("GRIPPER_CONFIG", raising=False)
    trace = tmp_path / "trace.csv"
    trace.write_text(f"displacement_mm,force_N\n0,1\n{row}\n2,3\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-S", "-m", "accordion_gripper", "peak-force",
                           "--data", str(trace)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {trace}:3: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def all_commands_probe(tmp_path_factory):
    """All ten commands run in turn in one interpreter, watching ``WATCHED_MODULES``;
    the import tests below each read their own modules from this one launch."""
    tmp_path = tmp_path_factory.mktemp("probe")
    return probe_imports(tmp_path, all_commands(tmp_path))


def loaded_among(probe, commands, modules):
    """Each command's exit code and which of ``modules`` were loaded after it."""
    return {name: [probe[name][0], sorted(set(probe[name][1]) & modules)] for name in commands}


ALL_COMMANDS = ("config", "solve", "invert", "workspace", "plan", "sweep", "validate",
                "fit-c1", "fit-suction", "peak-force")


def test_model_commands_import_neither_numpy_nor_scipy(all_commands_probe):
    model = ("solve", "invert", "workspace", "plan", "sweep", "config")
    assert loaded_among(all_commands_probe, model, {"numpy", "scipy"}) == {
        k: [0, []] for k in model
    }


def test_no_command_imports_scipy(all_commands_probe):
    """All ten commands in one interpreter: each exits 0, and afterwards
    neither scipy nor numpy is loaded."""
    assert list(all_commands_probe) == list(ALL_COMMANDS)
    assert loaded_among(all_commands_probe, ALL_COMMANDS, {"numpy", "scipy"}) == {
        k: [0, []] for k in ALL_COMMANDS
    }


def test_no_command_imports_dataclasses(all_commands_probe):
    """All ten commands in one interpreter: each exits 0, and afterwards
    neither dataclasses nor the inspect module it pulls in is loaded."""
    assert loaded_among(all_commands_probe, ALL_COMMANDS, {"dataclasses", "inspect"}) == {
        k: [0, []] for k in ALL_COMMANDS
    }


NAMEDTUPLE_PROBE = textwrap.dedent(
    """
    import collections, json, sys

    callers, real = [], collections.namedtuple

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals.get("__name__"))
        return real(*args, **kwargs)

    collections.namedtuple = spy
    import accordion_gripper.cli
    print(json.dumps(callers))
    """
)


def test_no_package_module_calls_namedtuple():
    """``import accordion_gripper.cli`` with ``collections.namedtuple`` wrapped first:
    no package module calls it, as every record subclasses ``records.Record``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", NAMEDTUPLE_PROBE],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120, check=True)
    callers = json.loads(proc.stdout.splitlines()[-1])
    assert [c for c in callers if (c or "").startswith("accordion_gripper")] == []


def test_no_command_imports_a_parser(all_commands_probe):
    """All ten commands in one interpreter: each exits 0, and afterwards no argparse,
    the gettext and locale it pulls in, or csv (their CSVs are plain) is loaded."""
    parser_modules = {"argparse", "gettext", "locale", "csv"}
    assert loaded_among(all_commands_probe, ALL_COMMANDS, parser_modules) == {
        k: [0, []] for k in ALL_COMMANDS
    }


def test_a_quoted_csv_loads_csv_and_names_its_line(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text('"displacement_mm","force_N"\n0,1\n"1",x\n')
    argv = ["peak-force", "--data", str(trace)]
    assert probe_imports(tmp_path, [argv]) == {"peak-force": [1, ["csv"]]}
    assert run(capsys, *argv) == (1, "", f"error: {trace}:3: non-numeric value in ['1', 'x']\n")


def package_trees():
    """(module name, parsed source) for each module of the package."""
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "accordion_gripper")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read())


def test_no_private_name_crosses_a_module():
    """No package module imports an underscore name from another.  Dunder names are
    public."""
    crossing = set()
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("accordion_gripper")):
                crossing |= {(module, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")}
    assert crossing == set()


def unread_by_design(module: str, function: str, parameter: str) -> bool:
    """The parameters a body may leave unread, each kept for its caller."""
    if module == "cli" and function.startswith("cmd_"):
        # The signature every command shares: main calls each as args.func(ctx, args).
        return parameter in ("ctx", "args")
    # perfbench/ops.py passes it positionally, so it goes with a change to the benchmark.
    return (module, function, parameter) == ("grasp", "plan_grasp", "assembly")


def test_every_parameter_is_read():
    """Each parameter of each function (lambdas included) in the package is read in
    its body, nested functions included, but for those ``unread_by_design`` names."""
    unread = set()
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread |= {(module, name, p) for p in params
                       if p not in read and not unread_by_design(module, name, p)}
    assert unread == set()


PLAN = ["plan", "--object", "object.json"]


@pytest.mark.parametrize(
    "config, descriptor, argv",
    [
        ({"suction": {"A_eff_mm2": math.nan}}, None, ["solve", "--pressure", "0"]),
        ({"solver": {"p_max_kPa": math.inf}}, None, ["workspace"]),
        ({"solver": {"box": {"theta0_max_deg": math.inf}}}, None, ["solve", "--pressure", "0"]),
        ({"capacity": {"cone": {"slope_N_per_kPa": math.nan, "plateau_N": 8.0}}}, None,
         ["solve", "--pressure", "0"]),
        (None, None, ["solve", "--pressure", "inf"]),
        (None, None, ["solve", "--pressure", "nan"]),
        (None, None, ["invert", "--aperture", "nan"]),
        (None, None, ["workspace", "--p-max", "inf"]),
        (None, None, ["sweep", "--from", "nan", "--out", "unused.csv"]),
        (None, None, ["sweep", "--to", "inf", "--out", "unused.csv"]),
        (None, {"characteristic_diameter_mm": math.nan}, PLAN),
        (None, {"mass_kg": math.inf}, PLAN),
        (None, {"has_aperture": True, "aperture_diameter_mm": math.inf}, PLAN),
        (None, None, ["fit-c1", "--data", "nan.csv"]),
        # Integers too large for a float.
        ({"material": {"c1_kPa": 10**400}}, None, ["solve", "--pressure", "0"]),
        ({"capacity": {"cone": {"slope_N_per_kPa": 10**400, "plateau_N": 8.0}}}, None,
         ["solve", "--pressure", "0"]),
        # Finite data near the float limit whose fitted area and residual norm, or window
        # sum, overflow to inf: both commands printed Infinity, which JSON cannot hold.
        (None, None, ["fit-suction", "--data", "big-suction.csv"]),
        (None, None, ["peak-force", "--data", "big-trace.csv", "--window", "2", "--json"]),
    ],
)
def test_non_finite_input_exit_1(capsys, tmp_path, monkeypatch, config, descriptor, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.csv").write_text("pressure_kPa,aperture_mm\n5,20.8\n10,nan\n15,21.2\n")
    (tmp_path / "big-suction.csv").write_text(
        "pressure_kPa,force_N\n0,1e300\n20,1e308\n40,1.7e308\n")
    (tmp_path / "big-trace.csv").write_text(
        "displacement_mm,force_N\n0,1.7e308\n1,1.7e308\n2,1\n")
    if descriptor is not None:
        write_object(
            tmp_path,
            {"shape_class": "cylinder", "characteristic_diameter_mm": 40.0} | descriptor,
        )
    prefix = ["--config", write_config(tmp_path, config)] if config else []
    code, _, err = run(capsys, *prefix, *argv)
    assert code == 1
    assert "finite" in err


BOM = "\ufeff"


@pytest.mark.parametrize(
    "command, text",
    [
        ("fit-c1", "pressure_kPa,aperture_mm\n5,20.8\n10,20.97\n20,21.55\n30,22.05\n40,22.5\n"),
        ("fit-suction", "pressure_kPa,force_N\n0,15\n20,30\n40,41\n"),
        ("peak-force", "displacement_mm,force_N\n0,0.5\n1,1.8\n2,3.9\n3,4.6\n4,4.4\n"),
    ],
    ids=["fit-c1", "fit-suction", "peak-force"],
)
def test_byte_order_mark_series_reads_like_plain(capsys, tmp_path, command, text):
    # Spreadsheet "CSV UTF-8" exports start with a BOM, often with CRLF line ends.
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes((BOM + text.replace("\n", "\r\n")).encode("utf-8"))
    expected = run(capsys, command, "--data", str(plain))
    assert expected[0] == 0
    assert run(capsys, command, "--data", str(marked)) == expected


def test_byte_order_mark_config_and_descriptor_load(capsys, tmp_path):
    config = json.dumps({"material": {"c1_kPa": 150.0}})
    descriptor = json.dumps({"shape_class": "cylinder", "characteristic_diameter_mm": 40.0})
    for name, text in (("cfg", config), ("obj", descriptor)):
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
        (tmp_path / f"{name}-bom.json").write_text(BOM + text, encoding="utf-8")
    expected = run(capsys, "--config", str(tmp_path / "cfg.json"),
                   "plan", "--object", str(tmp_path / "obj.json"))
    assert expected[0] == 0
    assert run(capsys, "--config", str(tmp_path / "cfg-bom.json"),
               "plan", "--object", str(tmp_path / "obj-bom.json")) == expected
    code, out, _ = run(capsys, "--config", str(tmp_path / "cfg-bom.json"), "config")
    assert code == 0 and json.loads(out)["material"]["c1_kPa"] == 150.0


@pytest.mark.parametrize("argv", [["solve", "--pressure", "12.5"], ["workspace"], ["config"]])
@pytest.mark.parametrize(
    "config, prefix",
    [
        ({"geometry": {"R0_mm": 1e200}}, "config error: "),
        ({"geometry": {"R1_mm": 1e-300}}, "config error: "),
        ({"geometry": {"Theta0_deg": 1e-300}}, "config error: "),
    ],
    ids=["R0-overflows", "R1-underflows", "box-angle-underflows"],
)
def test_degenerate_number_exit_1(capsys, tmp_path, config, prefix, argv):
    code, out, err = run(capsys, "--config", write_config(tmp_path, config), *argv)
    assert (code, out) == (1, "")
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["config"], ["solve", "--pressure", "12.5"], ["validate"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("config", [
    # The pressure is c1 times a finite unit curve, but 2*c1 overflows the material law.
    {"material": {"c1_kPa": 1.7e308}},
    # 2*c1 is a float, but c1 times the box top's unit pressure, 2.34, is not.
    {"material": {"c1_kPa": 8.9e307},
     "geometry": {"R0_mm": 4.56, "R1_mm": 3.79, "Theta0_deg": 12.1},
     "solver": {"box": {"theta0_max_deg": 86.5}}},
], ids=["stress-law", "box-top-pressure"])
def test_c1_whose_pressures_overflow_exit_1(capsys, tmp_path, config, argv):
    code, out, err = run(capsys, "--config", write_config(tmp_path, config), *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("config error: ") and "material.c1_kPa" in err


def test_fit_c1_recovers_a_stiff_wall_from_its_own_sweep(capsys, tmp_path):
    # c1 = 2000 kPa, about 17 times the default: fit-c1 on columns 1 and 6 of a 40-400 kPa sweep.
    cfg = write_config(tmp_path, {"material": {"c1_kPa": 2000}})
    swept, series = tmp_path / "stiff.csv", tmp_path / "stiff-aperture.csv"
    code, _, _ = run(capsys, "--config", cfg, "sweep", "--from", "40", "--to", "400",
                     "--steps", "10", "--out", str(swept))
    assert code == 0
    rows = [line.split(",") for line in swept.read_text().splitlines()[1:]]
    series.write_text("pressure_kPa,aperture_mm\n" + "".join(f"{r[0]},{r[5]}\n" for r in rows))
    code, out, _ = run(capsys, "--config", cfg, "fit-c1", "--data", str(series))
    report = json.loads(out)
    assert code == 0 and report["at_bound"] is False
    assert abs(report["params"]["c1_kPa"] / 2000 - 1) < 1e-6


@pytest.mark.parametrize("argv", [
    ["config"], ["solve", "--pressure", "10"], ["workspace"], ["invert", "--aperture", "19.0"],
    ["validate"],
], ids=lambda argv: argv[0])
def test_geometry_whose_aperture_closes_exit_1(capsys, tmp_path, argv):
    # The wall distance falls from the rest angle: workspace printed a max aperture
    # (18.49 mm) below the rest aperture (19.37 mm), and every invert exited 2.
    cfg = write_config(tmp_path,
                       {"geometry": {"R0_mm": 6.885, "R1_mm": 4.286, "Theta0_deg": 16.02}})
    code, out, err = run(capsys, "--config", cfg, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("config error: ") and "close the aperture under inflation" in err
    assert all(key in err for key in ("geometry.R0_mm", "geometry.R1_mm", "geometry.Theta0_deg",
                                      "solver.box.theta0_max_deg"))


def test_validate_audits_the_published_box_not_the_configured_one(capsys, tmp_path):
    cfg = write_config(
        tmp_path, {"solver": {"box": {"theta0_max_deg": 62}, "p_max_kPa": 5}}
    )
    code, out, _ = run(capsys, "--config", cfg, "validate", "--json")
    assert code == 0
    assert json.loads(out)["search_box_audit"]["published_box"] == {
        "r0_mm": [4.56, 5.0], "r1_mm": [3.0, 3.8], "theta0_deg": [57.6, 80.0]}


# ---------------------------------------------------------------------------
# Boundary properties of the in-process ``main``

#: Edge values of any number: signed zeros, the least subnormal, far magnitudes, the
#: float top and the ends of the angle range.
EDGES = (0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, 1.7e308, 90.0, -90.0)


def _numbers(default):
    """A number a config key or option may take: an edge, its default or a float neighbour."""
    near = (math.nextafter(default, -math.inf), default, math.nextafter(default, math.inf))
    ints = (2, 3, 10**6) if isinstance(default, int) else ()
    return st.sampled_from(EDGES + near + ints)


def _leaves(node, path=()):
    """(path, strategy) for every number and [lo, hi] pair of a config."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        yield path, st.tuples(*map(_numbers, node)).map(list)
    else:
        yield path, _numbers(node)


LEAVES = dict(_leaves(default_config()))


@st.composite
def edge_configs(draw):
    """A config that sets up to three keys, each to an edge value."""
    cfg = {}
    for path in draw(st.lists(st.sampled_from(sorted(LEAVES)), max_size=3, unique=True)):
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(LEAVES[path])
    return cfg


def _option(name, default):
    return _numbers(default).map(lambda value: [f"--{name}={value!r}"])


COMMANDS = st.one_of(
    st.just(["config"]),
    _option("pressure", 12.5).map(lambda opt: ["solve", *opt]),
    st.just(["sweep", "--out", "sweep.csv"]),
    _option("aperture", 21.5).map(lambda opt: ["invert", *opt]),
    st.just(["workspace"]),
    _option("p-max", 20.0).map(lambda opt: ["workspace", *opt]),
    st.just(["validate"]),
    st.sampled_from(["cylinder.json", "plate.json", "ring.json", "sphere.json"]).map(
        lambda name: ["plan", "--object", name]),
    st.just(["fit-c1", "--data", "aperture.csv"]),
    st.just(["fit-suction", "--data", "suction.csv"]),
    st.just(["peak-force", "--data", "trace.csv"]),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding the golden test's input files."""
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


def run_in(directory, config, argv) -> dict:
    """``record`` of ``main`` on ``config`` with every file argument inside ``directory``."""
    (directory / "edge.json").write_text(json.dumps(config))
    files = [str(directory / arg) if arg.endswith((".json", ".csv")) else arg for arg in argv]
    return record(["--config", str(directory / "edge.json"), *files])


@settings(max_examples=300, deadline=None)
@given(config=edge_configs(), argv=COMMANDS)
def test_every_command_keeps_the_exit_code_contract(inputs, config, argv):
    # A traceback escapes as an exception; exit 2 is OutOfWorkspaceError's, and every
    # nonzero exit prints one line, but an infeasible plan and a failed validate.
    entry = run_in(inputs, config, argv)
    code, out, err = entry["exit"], "".join(entry["stdout"]), entry["stderr"]
    assert code in (0, 1, 2)
    if code == 0:
        assert err == []
    elif argv[0] == "plan" and code == 2 and not err:
        assert json.loads(out)["feasible"] is False
    elif argv[0] == "validate" and code == 1 and not err:
        assert "FAIL" in out
    else:
        assert len(err) == 1 and err[0].endswith("\n") and "Traceback" not in err[0]
        assert err[0].startswith("out of workspace: ") == (code == 2)


@settings(max_examples=200, deadline=None)
@given(r_outer_0=st.floats(min_value=-1.0, max_value=3.0).map(lambda e: 10.0**e),
       ratio=st.floats(min_value=0.05, max_value=0.98),
       half_angle_0=st.floats(min_value=5.0, max_value=85.0),
       c1=st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0**e),
       n_chambers=st.integers(min_value=3, max_value=200))
def test_plausible_models_validate_or_name_an_unreachable_p_max(
        inputs, r_outer_0, ratio, half_angle_0, c1, n_chambers):
    # The box top is 89 deg, so more of the models load.
    config = {"geometry": {"R0_mm": r_outer_0, "R1_mm": r_outer_0 * ratio,
                           "Theta0_deg": half_angle_0},
              "material": {"c1_kPa": c1},
              "assembly": {"n_chambers": n_chambers, "folded_aperture_mm": 0.0},
              "solver": {"box": {"theta0_max_deg": 89.0}}}
    try:
        ctx = ModelContext.from_config(config)
    except ConfigError:
        return  # e.g. a geometry whose aperture closes under inflation
    entry = run_in(inputs, config, ["validate"])
    if entry["exit"] == 0:
        assert entry["stdout"][-1] == "overall: PASS\n"
        return
    # Some pressure of validate's sweep to p_max lies past the box top's.
    top = reachable_pressure_range(ctx.geometry, ctx.material, ctx.box)[1]
    assert entry["exit"] == 2 and len(entry["stderr"]) == 1
    message = entry["stderr"][0]
    assert message.startswith("out of workspace: pressure ")
    assert top < float(message.split()[4]) <= ctx.p_max_kPa


# ---------------------------------------------------------------------------
# The command line


@pytest.mark.parametrize("argv, named", [
    (["solve", "--pressure", "abc"], "--pressure takes a number, got 'abc'"),
    (["sweep", "--out", "sweep.csv", "--steps", "5.0"], "--steps takes an integer, got '5.0'"),
    ([], "missing command"),
    (["--config", "cfg.json"], "missing command"),
    (["slove", "--pressure", "20"], "unknown command 'slove'"),
    (["solve"], "solve needs --pressure"),
    (["sweep", "--from", "5"], "sweep needs --out"),
    (["solve", "--pressure", "20", "--jsn"], "unrecognized argument '--jsn'"),
    (["solve", "--pressure", "20", "5"], "unrecognized argument '5'"),
    (["solve", "--pressure", "20", "--config", "cfg.json"], "unrecognized argument '--config'"),
    (["solve", "--pressure"], "--pressure needs a value"),
    (["sweep", "--out", "--steps", "5"], "--out needs a value, got the option '--steps'"),
    (["solve", "--pressure", "-1e3"], "--pressure needs a value, got the option '-1e3'"),
    (["solve", "--pres", "20"], "unrecognized argument '--pres'"),
    (["workspace", "--json=yes"], "--json takes no value"),
    (["--version=1"], "--version takes no value"),
    # argparse read --aperture=-- as an empty list, and invert exited with a traceback.
    (["invert", "--aperture=--"], "--aperture takes a number, got '--'"),
], ids=["non-numeric", "float-steps", "no-command", "config-only", "unknown-command",
        "missing-required", "missing-required-out", "unknown-option", "stray-value",
        "config-after-command", "no-value-at-end", "option-as-value", "dash-exponent",
        "abbreviation", "flag-with-value", "version-with-value", "equals-dash-dash"])
def test_malformed_command_line_exit_1(capsys, argv, named):
    # argparse exited 2 here, the code of an unreachable pressure, with a usage dump.
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: ") and named in err


def test_malformed_command_line_exit_1_from_a_fresh_process():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-S", "-m", "accordion_gripper", "solve",
                           "--pressure", "abc"], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: --pressure takes a number, got 'abc'\n"


@pytest.mark.parametrize("argv", [["--pressure=-5"], ["--pressure", "-5"], ["--pressure=-inf"],
                                  ["--json", "--pressure", "-.5", "--pressure", "7"]])
def test_option_forms(argv):
    args = cli.parse_args(["--config", "a.json", "--config=b.json", "solve", *argv])
    assert (args.config, args.command, args.func) == ("b.json", "solve", cli.cmd_solve)
    assert args.pressure == float(argv[-1].rpartition("=")[2])


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--config", "cfg.json", "-h"]])
def test_help_lists_every_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: gripper [--config PATH] COMMAND")
    for name, (_, text, _) in cli.COMMANDS.items():
        assert f"  {name} " in out and text in out
    assert all(flag in out for flag in ("--config PATH", "--version", "-h, --help"))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_lists_every_option(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    options = cli.COMMANDS[command][2]
    assert options
    for flag, _, kind, _, text in options:
        assert f"  {flag} " in out and text in out
    assert run(capsys, command, "--bogus", "-h") == (0, out, "")  # as argparse: help wins


def test_version(capsys):
    assert run(capsys, "--version") == (0, f"gripper {__version__}\n", "")
    assert __version__ == "0.1.0"


#: Option values: numbers in each form float() and int() read, words, and dash-led
#: words that are options to argparse (-1e3, -inf, -x, --json) unless given as --opt=value.
WORDS = ("5", "-5", "-.5", "-0.5", "-5.", "0.0", "-0", "1e3", "-1e3", "1_0", " 7 ", "+3", "inf",
         "-inf", "nan", "5.0", "abc", "", "-", "-x", "-a b", "--json", "--json=a b", "--", "-h",
         "-5\n", "\u0663", "-\u0663", "a.csv")
#: Words that no parser reads as an option's abbreviation.
JUNK = ("--bogus", "--jsonx", "-x", "stray", "--", "-5", "--config", "--version", "--json",
        "-h", "--help", "--json=1", "--print-default")


def _values(kind):
    numbers = {float: st.floats().map(repr), int: st.integers(-10**6, 10**6).map(str)}
    return st.one_of(numbers[kind], st.sampled_from(WORDS)) if kind in numbers \
        else st.sampled_from(WORDS)


def _given(draw, flag, kind):
    if kind is bool:
        return [flag]
    value = draw(_values(kind))
    # argparse read --opt=-- as an empty list, which each command met with a traceback.
    return [f"{flag}={value}"] if draw(st.booleans()) and value != "--" else [flag, value]


@st.composite
def command_lines(draw):
    """A command line of each command: its options in any order, in both forms, each
    given up to twice (a required one mostly once), then up to two junk words anywhere."""
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += _given(draw, "--config", str)
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    groups = []
    for flag, _, kind, default, _ in cli.COMMANDS[command][2]:
        times = draw(st.sampled_from((1, 1, 1, 0, 2) if default is cli.REQUIRED else (0, 1, 2)))
        groups += [_given(draw, flag, kind) for _ in range(times)]
    argv += [command, *(word for group in draw(st.permutations(groups)) for word in group)]
    for junk in draw(st.lists(st.sampled_from(JUNK), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv


def _shown(namespace) -> dict:
    # repr tells -0.0 from 0.0, and a NaN equals a NaN
    return {name: repr(value) for name, value in vars(namespace).items()}


@settings(max_examples=600, deadline=None)
@given(argv=command_lines())
@example(argv=["peak-force", "--data", "--json=a b"])  # names --json, so is no value
@example(argv=["sweep", "--out", "-a b"])  # holds a space, so is a value
@example(argv=["solve", "--pressure", "5", "--", "-h"])  # no option follows --
@example(argv=["--bogus", "-h"])  # an unknown option is reported after a later -h
def test_parser_reads_command_lines_as_argparse_did(argv):
    """The table's parser against the argparse parser it replaced (``oracles``): the
    same namespace, help or version where argparse gave them, and exit 1 with one
    error line where argparse exited 2.  Left out: abbreviations, which argparse
    accepted, and ``--opt=--``.  (argparse as of Python 3.10 and 3.11.)"""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            expected = argparse_namespace(argv)
        except SystemExit as exc:
            expected = exc.code
    if expected == 2:
        with pytest.raises(ValueError):
            cli.parse_args(argv)
        err = StringIO()
        with redirect_stdout(StringIO()) as out, redirect_stderr(err):
            assert main(argv) == 1
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    elif expected == 0:
        assert isinstance(cli.parse_args(argv), str)  # the help or version text
    else:
        assert _shown(cli.parse_args(argv)) == _shown(expected)
