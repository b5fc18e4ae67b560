"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they are produced).

Criterion 04 (all sweep solutions inside the published radial search box)
is implemented exactly as stated and is expected to fail: the pin and area
constraints force both radii to decrease under inflation, so the solution
path exits the box's radial lower corner at any positive pressure.  See
the ``validate`` report's search-box audit.
"""

import json
import math
import time

import numpy as np
import pytest

from accordion_gripper import (
    GripperAssembly,
    HyperelasticMaterial,
    aperture_vs_pressure,
    inverse_pressure,
    solve_deformation,
    strain_energy_density,
    stress_difference,
    sweep,
)
from accordion_gripper.calibration import (
    MeasurementSeries,
    SeriesKind,
    fit_c1,
    fit_suction,
)
from accordion_gripper.chamber import PUBLISHED_BOX, pressure_closed_form, state_at_angle
from accordion_gripper.cli import main
from accordion_gripper.grasp import (
    CapacityCalibration,
    ObjectDescriptor,
    ShapeClass,
    contraction_capacity,
)
from oracles import grid_search_state


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_fixed_point(ctx):
    start = time.perf_counter()
    state = solve_deformation(ctx.geometry, ctx.material, 0.0, ctx.box)
    rg = aperture_vs_pressure(ctx.assembly, 0.0, ctx.box)
    elapsed = time.perf_counter() - start
    dev = max(
        abs(state.r_outer - ctx.geometry.r_outer_0),
        abs(state.r_inner - ctx.geometry.r_inner_0),
        abs(state.half_angle - ctx.geometry.half_angle_0),
    )
    ok = dev < 1e-9 and abs(rg - 20.676) < 1e-3 and elapsed < 1.0
    report(
        1,
        "zero-pressure fixed point",
        ok,
        f"max state deviation {dev:.2e}, Rg(0) = {rg:.6f} mm, {elapsed:.3f} s",
    )


def test_criterion_02_oracle_equivalence(ctx):
    start = time.perf_counter()
    rows = sweep(ctx.assembly, 0.0, 40.0, 41, ctx.box)
    max_rel = 0.0
    max_resid = 0.0
    for row in rows:
        closed = pressure_closed_form(
            ctx.geometry, state_at_angle(ctx.geometry, row.theta0_rad), ctx.material
        )
        max_rel = max(
            max_rel,
            abs(closed - row.quadrature_check_kPa) / max(1.0, abs(closed)),
        )
        max_resid = max(max_resid, abs(row.pin_residual), abs(row.area_residual))
    elapsed = time.perf_counter() - start
    ok = max_rel < 1e-6 and max_resid < 1e-8 and elapsed < 5.0
    report(
        2,
        "closed form vs quadrature over 41-point sweep",
        ok,
        f"max rel deviation {max_rel:.2e}, max residual {max_resid:.2e}, {elapsed:.2f} s",
    )


def test_criterion_03_printed_equation_audit(ctx, capsys):
    code = main(["validate", "--json"])
    out = capsys.readouterr().out
    with capsys.disabled():
        validate_report = json.loads(out)
        checks = {c["name"]: c for c in validate_report["checks"]}
        geom, mat = ctx.geometry, ctx.material
        printed_at_rest = pressure_closed_form(
            geom, geom.undeformed_state(), mat, "as_printed"
        )
        rng = np.random.default_rng(1)
        worst = 0.0
        for theta in rng.uniform(ctx.geometry.half_angle_0, ctx.box.half_angle_max, size=100):
            state = state_at_angle(geom, float(theta))
            gap = pressure_closed_form(geom, state, mat, "as_printed") - (
                pressure_closed_form(geom, state, mat, "rederived")
            )
            identity = (
                mat.c1
                * (geom.half_angle_0 / state.half_angle)
                * math.log(state.r_outer / state.r_inner)
            )
            worst = max(worst, abs(gap - identity) / abs(identity))
        ok = (
            code == 0
            and checks["printed_form_zero_deformation"]["pass"]
            and checks["printed_discrepancy_identity"]["pass"]
            and abs(printed_at_rest - 49.83) < 0.01
            and worst < 1e-9
        )
        report(
            3,
            "as-printed closed-form audit",
            ok,
            f"value at zero deformation {printed_at_rest:.4f} kPa, "
            f"identity deviation {worst:.2e} over 100 states",
        )


def test_criterion_04_solver_box_compliance(ctx):
    rows = sweep(ctx.assembly, 0.0, 40.0, 41, ctx.box)
    (r0_lo, r0_hi), (r1_lo, r1_hi), (th_lo, th_hi) = PUBLISHED_BOX
    tol = 1e-12
    violations = [
        row.pressure_kPa
        for row in rows
        if not (
            r0_lo - tol <= row.r0_mm <= r0_hi + tol
            and r1_lo - tol <= row.r1_mm <= r1_hi + tol
            and th_lo - tol <= row.theta0_rad <= th_hi + tol
        )
    ]
    ok = not violations
    report(
        4,
        "sweep solutions inside the published search box",
        ok,
        f"{len(violations)}/41 points outside the radial ranges "
        "(inflation drives r0 and r1 below the box's lower corner; "
        "see the search-box audit in `gripper validate`)",
    )


def test_criterion_05_monotone_and_round_trip(ctx):
    rows = sweep(ctx.assembly, 0.0, 40.0, 41, ctx.box)
    rgs = [row.Rg_mm for row in rows]
    monotone = all(b > a for a, b in zip(rgs, rgs[1:]))
    worst = 0.0
    for i in range(10):
        p = 40.0 * (i + 1) / 10.0
        rg = aperture_vs_pressure(ctx.assembly, p, ctx.box)
        p_back = inverse_pressure(ctx.assembly, rg, 40.0, box=ctx.box)
        worst = max(worst, abs(p_back - p) / max(1.0, abs(p)))
    ok = monotone and worst < 1e-6
    report(
        5,
        "aperture monotone and inverse round trip",
        ok,
        f"Rg {rgs[0]:.4f} -> {rgs[-1]:.4f} mm, max round-trip error {worst:.2e}",
    )


def test_criterion_06_grid_search_oracle(ctx):
    start = time.perf_counter()
    state = solve_deformation(ctx.geometry, ctx.material, 20.0, ctx.box)
    (g_r0, g_r1, g_th), (d_r0, d_r1, d_th) = grid_search_state(
        ctx.geometry, ctx.material, 20.0, ctx.box, n=400
    )
    elapsed = time.perf_counter() - start
    cells = (
        abs(g_r0 - state.r_outer) / d_r0,
        abs(g_r1 - state.r_inner) / d_r1,
        abs(g_th - state.half_angle) / d_th,
    )
    ok = all(c <= 1.0 for c in cells) and elapsed < 60.0
    report(
        6,
        "solver vs brute-force grid search at 20 kPa",
        ok,
        f"offsets {cells[0]:.2f}/{cells[1]:.2f}/{cells[2]:.2f} grid cells, "
        f"{elapsed:.1f} s at 400 points per axis",
    )


def test_criterion_07_calibration_round_trips(ctx):
    geom = ctx.geometry
    pressures = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0]
    truth = GripperAssembly(geom, HyperelasticMaterial(119.0))
    clean = np.array([aperture_vs_pressure(truth, p) for p in pressures])

    series = MeasurementSeries.from_pairs(
        SeriesKind.PRESSURE_APERTURE, zip(pressures, clean)
    )
    c1_clean = fit_c1(series, geom).params["c1_kPa"]

    rng = np.random.default_rng(7)
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(len(clean)))
    noisy_series = MeasurementSeries.from_pairs(
        SeriesKind.PRESSURE_APERTURE, zip(pressures, noisy)
    )
    c1_noisy = fit_c1(noisy_series, geom).params["c1_kPa"]

    truth_a, truth_h = 2000.0, 46.0
    rg0 = aperture_vs_pressure(ctx.assembly, 0.0)
    v0 = math.pi * rg0 * rg0 * truth_h
    rows = []
    for p in (0.0, 5.0, 10.0, 15.0, 20.0):
        rg = aperture_vs_pressure(ctx.assembly, p)
        v = math.pi * rg * rg * truth_h + 5000.0
        rows.append((p, (101.325 - 101.325 * v0 / v) * truth_a / 1000.0))
    synth = fit_suction(
        MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, rows), ctx.assembly
    )
    a_err = abs(synth.params["A_eff_mm2"] - truth_a) / truth_a
    h_err = abs(synth.params["h_eff_mm"] - truth_h) / truth_h

    anchors = fit_suction(
        MeasurementSeries.from_pairs(
            SeriesKind.SUCTION_FORCE, [(0.0, 15.0), (20.0, 30.0)]
        ),
        ctx.assembly,
    )
    anchor_err = max(
        abs(pt["error"]) / pt["measured"] for pt in anchors.per_point
    )

    ok = (
        abs(c1_clean - 119.0) / 119.0 < 0.01
        and abs(c1_noisy - 119.0) / 119.0 < 0.05
        and a_err < 0.02
        and h_err < 0.02
        and anchor_err < 0.10
    )
    report(
        7,
        "calibration round trips",
        ok,
        f"c1 clean {c1_clean:.3f}, noisy {c1_noisy:.2f} kPa; suction param errors "
        f"{a_err:.2%}/{h_err:.2%}; anchor reproduction error {anchor_err:.2%}",
    )


def test_criterion_08_capacity_plateau():
    calib = CapacityCalibration.defaults()
    obj = ObjectDescriptor(
        shape_class=ShapeClass.CYLINDER, characteristic_diameter_mm=40.0
    )
    ps = np.linspace(0.0, -40.0, 41)
    fs = [contraction_capacity(obj, float(p), calib, 20.676) for p in ps]
    monotone = all(b >= a for a, b in zip(fs, fs[1:]))
    flat = [f for p, f in zip(ps, fs) if abs(p) >= 30.0]
    ok = monotone and max(flat) == min(flat)
    report(
        8,
        "squeeze capacity plateau",
        ok,
        f"non-decreasing to {fs[-1]:.1f} N, constant for |p| >= 30 kPa "
        f"({len(flat)} scan points)",
    )


def test_criterion_09_stress_gradient_check():
    mat = HyperelasticMaterial()
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for lt, lr in rng.uniform(0.5, 2.0, size=(50, 2)):
        dw_t = (
            strain_energy_density(mat, lt + h, lr)
            - strain_energy_density(mat, lt - h, lr)
        ) / (2 * h)
        dw_r = (
            strain_energy_density(mat, lt, lr + h)
            - strain_energy_density(mat, lt, lr - h)
        ) / (2 * h)
        expected = lt * dw_t - lr * dw_r
        got = stress_difference(mat, lt, lr)
        worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    ok = worst < 1e-6
    report(
        9,
        "stress equals stretch-weighted energy gradient",
        ok,
        f"max relative error {worst:.2e} at 50 random stretch pairs",
    )


def test_criterion_10_deterministic_sweep(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = main(["sweep", "--out", str(p1)])
    code2 = main(["sweep", "--out", str(p2)])
    capsys.readouterr()
    identical = p1.read_bytes() == p2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(
        10,
        "repeated sweep invocations byte-identical",
        ok,
        f"{p1.stat().st_size} bytes each, identical={identical}",
    )
