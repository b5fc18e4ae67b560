import math
import os

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from accordion_gripper import (
    ChamberGeometry,
    ConfigError,
    GripperAssembly,
    HyperelasticMaterial,
    OutOfWorkspaceError,
    SolverBox,
    aperture_radius,
    aperture_vs_pressure,
    inverse_pressure,
    solve_deformation,
    sweep,
    wall_distance,
    workspace,
)
from accordion_gripper.chamber import pressure_at_angle, state_at_angle
from accordion_gripper.cli import build_validation_report
from accordion_gripper.config import ModelContext
from accordion_gripper.gripper import (
    SWEEP_CSV_HEADER,
    _range_end,
    contraction_diameter_range,
    write_sweep_csv,
)

from oracles import nested_inverse_pressure


def test_sector_angle(assembly):
    assert assembly.sector_angle == pytest.approx(2.0 * math.pi / 22.0, rel=1e-15)


def test_assembly_validation(geom, mat):
    with pytest.raises(ValueError, match="n_chambers"):
        GripperAssembly(geom, mat, n_chambers=2)
    with pytest.raises(ValueError, match="folded_aperture"):
        GripperAssembly(geom, mat, folded_aperture_mm=-1.0)


def test_aperture_radius_scaling(assembly):
    assert aperture_radius(0.0, assembly) == 0.0
    assert aperture_radius(assembly.sector_angle, assembly) == pytest.approx(1.0)
    with pytest.raises(ValueError, match=">= 0"):
        aperture_radius(-1.0, assembly)


def test_forward_map_frozen_values(assembly):
    # Independently computed with 40-digit arithmetic.
    assert aperture_vs_pressure(assembly, 0.0) == pytest.approx(
        20.675956017774557, rel=1e-12
    )
    assert aperture_vs_pressure(assembly, 20.0) == pytest.approx(
        21.57870157801612, rel=1e-12
    )
    assert aperture_vs_pressure(assembly, 40.0) == pytest.approx(
        22.54353891181218, rel=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=40.0))
def test_inverse_round_trip(assembly, p):
    rg = aperture_vs_pressure(assembly, p)
    assert inverse_pressure(assembly, rg) == pytest.approx(p, abs=1e-7)


@pytest.mark.parametrize("n_chambers", [16, 22, 28])
@pytest.mark.parametrize("c1", [85.0, 119.0, 160.0, 210.0])
def test_inverse_matches_nested_oracle(geom, c1, n_chambers):
    assembly = GripperAssembly(geom, HyperelasticMaterial(c1), n_chambers)
    ws = workspace(assembly)
    span = ws.max_aperture_mm - ws.rest_aperture_mm
    for f in (0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
        target = ws.rest_aperture_mm + f * span
        assert inverse_pressure(assembly, target) == pytest.approx(
            nested_inverse_pressure(assembly, target), abs=1e-9
        )


def test_inverse_just_above_rest_stays_on_inflation_branch(assembly):
    rest = aperture_vs_pressure(assembly, 0.0)
    p = inverse_pressure(assembly, math.nextafter(rest, math.inf))
    assert p >= 0.0
    assert aperture_vs_pressure(assembly, p) == pytest.approx(rest, abs=1e-12)


def test_inverse_out_of_range_reports_reachable(assembly):
    with pytest.raises(OutOfWorkspaceError, match="achievable") as exc:
        inverse_pressure(assembly, 30.0)
    lo, hi = exc.value.reachable
    assert lo == pytest.approx(20.675956017774557, rel=1e-9)
    assert hi == pytest.approx(22.54353891181218, rel=1e-9)
    with pytest.raises(OutOfWorkspaceError):
        inverse_pressure(assembly, 10.0)


def test_workspace_values(assembly):
    ws = workspace(assembly, 40.0)
    assert ws.min_aperture_mm == 5.0
    assert ws.rest_aperture_mm == pytest.approx(20.675956017774557, rel=1e-12)
    assert ws.max_aperture_mm == pytest.approx(22.54353891181218, rel=1e-12)
    assert ws.as_dict()["rest_aperture_mm"] == ws.rest_aperture_mm
    with pytest.raises(ValueError, match="p_max"):
        workspace(assembly, -1.0)


def test_contraction_diameter_range(assembly):
    ws = workspace(assembly, 40.0)
    lo, hi = contraction_diameter_range(ws, stretch_margin_mm=8.65)
    assert lo == pytest.approx(10.0)
    assert hi == pytest.approx(2.0 * 20.675956017774557 + 8.65, rel=1e-12)
    with pytest.raises(ValueError, match="stretch margin must be >= 0"):
        contraction_diameter_range(ws, stretch_margin_mm=-100.0)


def test_sweep_validation(assembly):
    with pytest.raises(ValueError, match="empty sweep"):
        sweep(assembly, 10.0, 10.0, 5)
    with pytest.raises(ValueError, match="at least 2"):
        sweep(assembly, 0.0, 10.0, 1)


def test_sweep_grid_and_residuals(assembly):
    rows = sweep(assembly, 0.0, 40.0, 9)
    assert len(rows) == 9
    assert rows[0].pressure_kPa == 0.0
    assert rows[-1].pressure_kPa == 40.0
    assert rows[3].pressure_kPa == pytest.approx(15.0)
    for row in rows:
        assert abs(row.pin_residual) < 1e-8
        assert abs(row.area_residual) < 1e-8
        assert row.quadrature_check_kPa == pytest.approx(
            row.pressure_kPa, rel=1e-6, abs=1e-6
        )
    rgs = [row.Rg_mm for row in rows]
    assert all(b > a for a, b in zip(rgs, rgs[1:]))


def test_sweep_csv_format(assembly, tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep(assembly, 0.0, 40.0, 3), path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 4
    assert text.endswith("\n")
    # Every value at 9 significant digits, comma separated.
    for line in lines[1:]:
        assert len(line.split(",")) == 9


def test_sweep_deterministic(assembly, tmp_path):
    path1 = tmp_path / "one.csv"
    path2 = tmp_path / "two.csv"
    write_sweep_csv(sweep(assembly, 0.0, 40.0, 11), path1)
    write_sweep_csv(sweep(assembly, 0.0, 40.0, 11), path2)
    assert path1.read_bytes() == path2.read_bytes()


@settings(max_examples=30, deadline=None)
@given(p_from=st.floats(min_value=0.0, max_value=68.6),
       p_to=st.floats(min_value=0.0, max_value=68.6),  # the default box reaches 68.64 kPa
       steps=st.integers(min_value=2, max_value=60))
@example(p_from=0.0932358916629128, p_to=56.65809179313147, steps=41)  # ended 1 ulp past p_to
def test_sweep_ends_on_p_to(assembly, p_from, p_to, steps):
    assume(p_from < p_to)
    pressures = [row.pressure_kPa for row in sweep(assembly, p_from, p_to, steps)]
    assert pressures[-1] == p_to
    assert pressures[:-1] == [p_from + (p_to - p_from) * i / (steps - 1)
                              for i in range(steps - 1)]


def failing_rows(rows, fail_at):
    for i, row in enumerate(rows):
        if i == fail_at:
            raise OutOfWorkspaceError("past the box")
        yield row


@pytest.mark.parametrize("fail_at", [0, 2])
def test_failed_sweep_csv_is_removed(assembly, tmp_path, fail_at):
    path = tmp_path / "sweep.csv"
    with pytest.raises(OutOfWorkspaceError, match="past the box"):
        write_sweep_csv(failing_rows(sweep(assembly, 0.0, 40.0, 3), fail_at), path)
    assert not path.exists()


def test_failed_sweep_csv_keeps_a_link(assembly, tmp_path):
    # Only a regular file is removed: a link (such as /dev/stdout) stays.
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("")
    os.symlink(target, link)
    with pytest.raises(OutOfWorkspaceError):
        write_sweep_csv(failing_rows(sweep(assembly, 0.0, 40.0, 3), 1), link)
    assert link.is_symlink() and target.read_text().startswith(SWEEP_CSV_HEADER)


@settings(max_examples=50, deadline=None)
@given(p_max=st.floats(min_value=1.0, max_value=68.6),
       tol=st.sampled_from([1e-12, 1e-10, 1e-8]),
       target=st.floats(min_value=20.6, max_value=24.1))
@example(p_max=12.5, tol=1e-12, target=21.234399220858606)  # gave 12.500000000014154 kPa
@example(p_max=57.34305331173955, tol=1e-8, target=23.452238531249876)  # 9.5e-10 relative over
def test_inverse_stays_within_zero_and_p_max(assembly, p_max, tol, target):
    ws = workspace(assembly, p_max, tol=tol)
    target = min(max(target, ws.rest_aperture_mm), ws.max_aperture_mm)
    assert 0.0 <= inverse_pressure(assembly, target, p_max, SolverBox(), tol) <= p_max


# ---------------------------------------------------------------------------
# Range ends, solved once per (assembly, p, box, tol)


def direct_ends(assembly, p_max, box=SolverBox(), tol=1e-12):
    return (aperture_vs_pressure(assembly, 0.0, box, tol),
            aperture_vs_pressure(assembly, p_max, box, tol))


def test_range_ends_cold_equal_warm_equal_direct(assembly, box):
    _range_end.cache_clear()
    cold_ws = workspace(assembly, 40.0, box)
    cold_p = inverse_pressure(assembly, 21.5, 40.0, box=box)
    assert _range_end.cache_info().misses == 2
    assert workspace(assembly, 40.0, box) == cold_ws
    assert inverse_pressure(assembly, 21.5, 40.0, box=box) == cold_p
    assert _range_end.cache_info().misses == 2
    rest, largest = direct_ends(assembly, 40.0, box)
    assert (cold_ws.rest_aperture_mm, cold_ws.max_aperture_mm) == (rest, largest)
    # The inverse returns an end's pressure only on an exact match of its aperture.
    assert inverse_pressure(assembly, rest, 40.0, box=box) == 0.0
    assert inverse_pressure(assembly, largest, 40.0, box=box) == 40.0
    with pytest.raises(OutOfWorkspaceError) as exc:
        inverse_pressure(assembly, 30.0, 40.0, box=box)
    assert exc.value.reachable == (rest, largest)


def test_default_box_left_out_or_passed_is_one_key(assembly):
    # A box left out is the default box: one cache key, so 2 range-end misses, not 4.
    _range_end.cache_clear()
    assert workspace(assembly, 40.0) == workspace(assembly, 40.0, SolverBox())
    assert _range_end.cache_info().misses == 2


def test_range_ends_each_key_part_gets_its_own_value(geom, mat, box):
    _range_end.cache_clear()
    base = GripperAssembly(geom, mat)
    workspace(base, 40.0, box)
    variants = {
        "c1": (GripperAssembly(geom, HyperelasticMaterial(150.0)), 40.0, box, 1e-12),
        "n_chambers": (GripperAssembly(geom, mat, 28), 40.0, box, 1e-12),
        "Theta0": (GripperAssembly(ChamberGeometry(half_angle_0=math.radians(60.0)), mat),
                   40.0, box, 1e-12),
        "box top": (base, 40.0, SolverBox(half_angle_max=math.radians(75.0)), 1e-12),
        "tol": (base, 40.0, box, 1e-3),
        "p_max": (base, 30.0, box, 1e-12),
    }
    for part, (assembly, p_max, variant_box, tol) in variants.items():
        misses = _range_end.cache_info().misses
        ws = workspace(assembly, p_max, variant_box, tol)
        assert _range_end.cache_info().misses > misses, part
        assert (ws.rest_aperture_mm, ws.max_aperture_mm) == direct_ends(
            assembly, p_max, variant_box, tol), part
        with pytest.raises(OutOfWorkspaceError) as exc:
            inverse_pressure(assembly, 30.0, p_max, variant_box, tol)
        assert exc.value.reachable == direct_ends(assembly, p_max, variant_box, tol), part


def test_unreachable_p_max_raises_on_every_call(assembly):
    narrow = SolverBox(half_angle_max=math.radians(62.0))  # <= 12.7 kPa
    for _ in range(2):
        with pytest.raises(OutOfWorkspaceError, match="reachable inside the solver box"):
            workspace(assembly, 40.0, narrow)
        with pytest.raises(OutOfWorkspaceError, match="reachable inside the solver box"):
            inverse_pressure(assembly, 21.0, 40.0, box=narrow)


@settings(max_examples=25, deadline=None)
@given(
    c1=st.floats(min_value=80.0, max_value=300.0),  # the box reaches 40 kPa
    k=st.floats(min_value=0.2, max_value=5.0),
    n_chambers=st.sampled_from([16, 22, 28]),
    f=st.floats(min_value=0.01, max_value=0.99),
)
def test_range_ends_scale_with_c1(geom, c1, k, n_chambers, f):
    # P is linear in c1: scaling c1 and p_max by k keeps every angle and aperture.
    assembly = GripperAssembly(geom, HyperelasticMaterial(c1), n_chambers)
    scaled = GripperAssembly(geom, HyperelasticMaterial(k * c1), n_chambers)
    ws, ws_k = workspace(assembly, 40.0), workspace(scaled, k * 40.0)
    assert ws_k.rest_aperture_mm == pytest.approx(ws.rest_aperture_mm, rel=1e-9)
    assert ws_k.max_aperture_mm == pytest.approx(ws.max_aperture_mm, rel=1e-9)
    target = ws.rest_aperture_mm + f * (ws.max_aperture_mm - ws.rest_aperture_mm)
    assert inverse_pressure(scaled, target, k * 40.0) == pytest.approx(
        k * inverse_pressure(assembly, target, 40.0), rel=1e-9
    )


# ---------------------------------------------------------------------------
# Scaling laws: P/c1 and R_g/R0 depend only on theta0, R1/R0, Theta0 and N

scale_factors = st.floats(min_value=math.log(1e-2), max_value=math.log(1e3)).map(math.exp)


@settings(max_examples=25, deadline=None)
@given(
    k=scale_factors,
    c1=st.floats(min_value=80.0, max_value=300.0),  # the box reaches 40 kPa
    n_chambers=st.sampled_from([16, 22, 28]),
    t=st.floats(min_value=0.05, max_value=1.0),
    f=st.floats(min_value=0.01, max_value=0.99),
)
def test_scaling_the_radii_scales_the_apertures(geom, c1, k, n_chambers, t, f):
    # (R0, R1) -> k*(R0, R1) at fixed Theta0, c1 and N: every angle and pressure
    # stays, every length grows by k.
    mat = HyperelasticMaterial(c1)
    scaled_geom = ChamberGeometry(k * geom.r_outer_0, k * geom.r_inner_0, geom.half_angle_0)
    assembly = GripperAssembly(geom, mat, n_chambers)
    scaled = GripperAssembly(scaled_geom, mat, n_chambers)
    lo, hi = geom.half_angle_0, SolverBox().half_angle_max
    theta = lo + t * (hi - lo)
    assert pressure_at_angle(scaled_geom, mat, theta) == pytest.approx(
        pressure_at_angle(geom, mat, theta), rel=1e-12)
    ws, ws_k = workspace(assembly, 40.0), workspace(scaled, 40.0)
    assert ws_k.rest_aperture_mm == pytest.approx(k * ws.rest_aperture_mm, rel=1e-12)
    assert ws_k.max_aperture_mm == pytest.approx(k * ws.max_aperture_mm, rel=1e-12)
    target = ws.rest_aperture_mm + f * (ws.max_aperture_mm - ws.rest_aperture_mm)
    assert inverse_pressure(scaled, k * target, 40.0) == pytest.approx(
        inverse_pressure(assembly, target, 40.0), rel=1e-9
    )


def scaled_config(k):
    """The default model with every length times k, the folded aperture too."""
    return {"geometry": {"R0_mm": k * 4.56, "R1_mm": k * 3.0},
            "assembly": {"folded_aperture_mm": k * 5.0}}


@settings(max_examples=10, deadline=None)
@given(k=scale_factors)
@example(k=1e-3)
@example(k=1500.0)  # area residual 1.5e-8 mm^2*rad: rounding of a 2.7e7 mm^2*rad area
@example(k=1e4)
def test_validation_passes_at_every_scale(k):
    ctx = ModelContext.from_config(scaled_config(k))
    report = build_validation_report(ctx)
    assert report["pass"], [check for check in report["checks"] if not check["pass"]]


@pytest.mark.parametrize("k", [1e-3, 1.0, 1500.0, 1e4])
@pytest.mark.parametrize("check, violate", [
    ("fixed_point", lambda row, geom: row._replace(r0_mm=geom.r_outer_0 * (1.0 + 1e-8))),
    ("constraint_residuals",
     lambda row, geom: row._replace(pin_residual=1e-6 * geom.pin_half_distance)),
    ("constraint_residuals",
     lambda row, geom: row._replace(area_residual=1e-6 * geom.sector_area_scale)),
], ids=["rest-radius", "pin", "area"])
def test_validation_fails_on_a_real_violation_at_every_scale(monkeypatch, k, check, violate):
    # The residual checks are relative: a violation of 1e-6 of its own scale
    # (1e-8 for the rest state) fails at every size of the geometry.
    ctx = ModelContext.from_config(scaled_config(k))

    def violated_sweep(*args):
        rows = sweep(*args)
        rows[0] = violate(rows[0], ctx.geometry)
        return rows

    monkeypatch.setattr("accordion_gripper.cli.sweep", violated_sweep)
    report = build_validation_report(ctx)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert not report["pass"] and failed == {check}


@settings(max_examples=25, deadline=None)
@given(n_chambers=st.integers(min_value=3, max_value=200), p=st.floats(min_value=0.0, max_value=40.0))
def test_wall_distance_is_independent_of_chamber_count(geom, mat, n_chambers, p):
    # D = R_g*2*pi/N is one chamber's: the count only divides the ring.
    assembly = GripperAssembly(geom, mat, n_chambers)
    d = aperture_vs_pressure(assembly, p) * assembly.sector_angle
    assert d == pytest.approx(wall_distance(solve_deformation(geom, mat, p)), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(ratio=st.floats(min_value=0.05, max_value=0.98),
       theta0_deg=st.floats(min_value=5.0, max_value=75.0),
       top=st.floats(min_value=0.0, max_value=1.0))
@example(ratio=3.0 / 4.56, theta0_deg=57.6, top=1.0)  # the default model, box to 80 deg
@example(ratio=4.286 / 6.885, theta0_deg=16.02, top=1.0)  # closes: D falls from rest
def test_every_config_that_loads_opens_under_inflation(ratio, theta0_deg, top):
    # Over half of uniform draws from these ranges close under inflation: config errors.
    hi_deg = theta0_deg + 0.5 + top * (79.5 - theta0_deg)
    try:
        ctx = ModelContext.from_config({
            "geometry": {"R0_mm": 4.56, "R1_mm": 4.56 * ratio, "Theta0_deg": theta0_deg},
            "assembly": {"folded_aperture_mm": 0.0},
            "solver": {"box": {"theta0_max_deg": hi_deg}}})
    except ConfigError as exc:
        assert "close the aperture under inflation" in str(exc)
        return
    lo, hi = ctx.geometry.half_angle_0, ctx.box.half_angle_max
    thetas = [lo + (hi - lo) * i / 200 for i in range(201)]
    ps = [pressure_at_angle(ctx.geometry, ctx.material, t) for t in thetas]
    rgs = [aperture_radius(wall_distance(state_at_angle(ctx.geometry, t)), ctx.assembly)
           for t in thetas]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    assert all(b > a for a, b in zip(rgs, rgs[1:]))
