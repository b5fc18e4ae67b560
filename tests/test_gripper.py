import math

import pytest
from hypothesis import given, settings, strategies as st

from accordion_gripper import (
    GripperAssembly,
    HyperelasticMaterial,
    OutOfWorkspaceError,
    aperture_radius,
    aperture_vs_pressure,
    inverse_pressure,
    sweep,
    workspace,
)
from accordion_gripper.gripper import (
    SWEEP_CSV_HEADER,
    contraction_diameter_range,
    format_sweep_csv,
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


def test_sweep_csv_format(assembly):
    rows = sweep(assembly, 0.0, 40.0, 3)
    text = format_sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 4
    assert text.endswith("\n")
    # Every value at 9 significant digits, comma separated.
    for line in lines[1:]:
        assert len(line.split(",")) == 9


def test_sweep_deterministic(assembly, tmp_path):
    a = format_sweep_csv(sweep(assembly, 0.0, 40.0, 11))
    b = format_sweep_csv(sweep(assembly, 0.0, 40.0, 11))
    assert a == b
    path1 = tmp_path / "one.csv"
    path2 = tmp_path / "two.csv"
    write_sweep_csv(sweep(assembly, 0.0, 40.0, 11), path1)
    write_sweep_csv(sweep(assembly, 0.0, 40.0, 11), path2)
    assert path1.read_bytes() == path2.read_bytes()
