"""Command-line interface.

Exit codes: 0 success, 1 input/config error, 2 infeasible or out of
workspace.  All numeric output is printed at 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import __version__
from .calibration import (
    SeriesKind,
    extract_peak_force,
    fit_c1,
    fit_suction,
    load_series_csv,
)
from .chamber import (
    PUBLISHED_BOX,
    ChamberGeometry,
    pin_residual,
    area_residual,
    pressure_at_angle,
    pressure_closed_form,
    solve_deformation,
    state_at_angle,
    wall_distance,
)
from .config import ENV_CONFIG_VAR, ModelContext, default_config, load_context, read_json
from .errors import GripperError, OutOfWorkspaceError
from .gripper import (
    GripperAssembly,
    aperture_radius,
    contraction_diameter_range,
    inverse_pressure,
    iter_sweep,
    sweep,
    workspace,
    write_sweep_csv,
)
from .grasp import SCHEDULE_KPA, ObjectDescriptor, plan_grasp


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _round9(value):
    """Round floats (recursively) to 9 significant digits for JSON output."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(v) for v in value]
    return value


def _print_json(payload: dict) -> None:
    print(json.dumps(_round9(payload), indent=2))


# ---------------------------------------------------------------------------
# Commands


def cmd_config(ctx: ModelContext, args) -> int:
    print(json.dumps(ctx.config, indent=2))
    return 0


def _solve_payload(ctx: ModelContext, pressure: float) -> dict:
    state = solve_deformation(ctx.geometry, ctx.material, pressure, ctx.box, ctx.theta_tol_rad)
    d = wall_distance(state)
    return {
        "pressure_kPa": pressure,
        "r0_mm": state.r_outer,
        "r1_mm": state.r_inner,
        "theta0_rad": state.half_angle,
        "theta0_deg": math.degrees(state.half_angle),
        "D_mm": d,
        "Rg_mm": aperture_radius(d, ctx.assembly),
        "pin_residual": pin_residual(ctx.geometry, state),
        "area_residual": area_residual(ctx.geometry, state),
    }


def cmd_solve(ctx: ModelContext, args) -> int:
    payload = _solve_payload(ctx, args.pressure)
    if args.json:
        _print_json(payload)
    else:
        print(f"pressure     {_fmt(payload['pressure_kPa'])} kPa")
        print(f"r0           {_fmt(payload['r0_mm'])} mm")
        print(f"r1           {_fmt(payload['r1_mm'])} mm")
        print(
            f"theta0       {_fmt(payload['theta0_rad'])} rad "
            f"({_fmt(payload['theta0_deg'])} deg)"
        )
        print(f"wall dist D  {_fmt(payload['D_mm'])} mm")
        print(f"aperture Rg  {_fmt(payload['Rg_mm'])} mm")
        print(f"pin residual {_fmt(payload['pin_residual'])} mm")
        print(f"area resid.  {_fmt(payload['area_residual'])} mm^2*rad")
    return 0


def cmd_sweep(ctx: ModelContext, args) -> int:
    # The range is checked before --out is opened; each row is written as it is solved.
    to_kpa = ctx.p_max_kPa if args.to_kpa is None else args.to_kpa
    rows = iter_sweep(ctx.assembly, args.from_kpa, to_kpa, args.steps, ctx.box,
                      ctx.quad_rel_tol, ctx.theta_tol_rad)
    write_sweep_csv(rows, args.out)
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


def cmd_invert(ctx: ModelContext, args) -> int:
    p = inverse_pressure(ctx.assembly, args.aperture, ctx.p_max_kPa, ctx.box, ctx.theta_tol_rad)
    if args.json:
        _print_json({"target_Rg_mm": args.aperture, "pressure_kPa": p})
    else:
        print(f"pressure  {_fmt(p)} kPa for aperture {_fmt(args.aperture)} mm")
    return 0


def cmd_workspace(ctx: ModelContext, args) -> int:
    p_max = args.p_max if args.p_max is not None else ctx.p_max_kPa
    ws = workspace(ctx.assembly, p_max, ctx.box, ctx.theta_tol_rad)
    d_lo, d_hi = contraction_diameter_range(ws, ctx.config["grasp"]["stretch_margin_mm"])
    payload = ws.as_dict() | {
        "contraction_object_diameter_mm": [d_lo, d_hi],
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"min aperture   {_fmt(ws.min_aperture_mm)} mm (configured folded bound)")
        print(f"rest aperture  {_fmt(ws.rest_aperture_mm)} mm")
        print(f"max aperture   {_fmt(ws.max_aperture_mm)} mm")
        print(f"contraction-feasible object diameters  [{_fmt(d_lo)}, {_fmt(d_hi)}] mm")
    return 0


def cmd_plan(ctx: ModelContext, args) -> int:
    obj = ObjectDescriptor.from_dict(read_json(args.object))
    grasp_cfg = ctx.config["grasp"]
    ws = workspace(ctx.assembly, ctx.p_max_kPa, ctx.box, ctx.theta_tol_rad)
    plan = plan_grasp(
        obj,
        ctx.assembly,
        ws,
        ctx.capacity,
        suction_model=ctx.suction_model(),
        stretch_margin_mm=grasp_cfg["stretch_margin_mm"],
        lift_volume_increase_mm3=ctx.config["suction"]["lift_volume_increase_mm3"],
        **{key: grasp_cfg[key] for key in SCHEDULE_KPA},
    )
    _print_json(plan.to_dict())
    return 0 if plan.feasible else 2


def cmd_fit_c1(ctx: ModelContext, args) -> int:
    series = load_series_csv(args.data, SeriesKind.PRESSURE_APERTURE)
    report = fit_c1(
        series, ctx.geometry, ctx.assembly.n_chambers, box=ctx.box, tol=ctx.theta_tol_rad
    )
    _print_json(report.to_dict())
    return 0


def cmd_fit_suction(ctx: ModelContext, args) -> int:
    series = load_series_csv(args.data, SeriesKind.SUCTION_FORCE)
    report = fit_suction(
        series,
        ctx.assembly,
        lift_volume_increase_mm3=ctx.config["suction"]["lift_volume_increase_mm3"],
        ambient_pressure_kPa=ctx.config["suction"]["ambient_kPa"],
        box=ctx.box,
        tol=ctx.theta_tol_rad,
    )
    _print_json(report.to_dict())
    return 0


def cmd_peak_force(ctx: ModelContext, args) -> int:
    series = load_series_csv(args.data, SeriesKind.FORCE_DISPLACEMENT)
    peak = extract_peak_force(series, args.window)
    if args.json:
        _print_json({"peak_force_N": peak, "smoothing_window": args.window})
    else:
        print(f"peak force {_fmt(peak)} N (smoothing window {args.window})")
    return 0


# ---------------------------------------------------------------------------
# Validation report


def build_validation_report(ctx: ModelContext, seed: int = 20260824) -> dict:
    """Run the oracle suite against the configured model.

    Checks: the zero-pressure fixed point, closed-form vs quadrature
    agreement over a pressure sweep, constraint residuals, aperture
    monotonicity, the printed-variant audit (value at zero deformation and
    the analytic discrepancy identity at random states) and the
    forward/inverse round trip.  The published search box (``PUBLISHED_BOX``),
    whatever box is configured, is reported for audit only: under inflation the
    pin and area constraints drive r0 and r1 below its lower edges.
    """
    geom, mat, assembly, box = ctx.geometry, ctx.material, ctx.assembly, ctx.box
    checks = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "pass": bool(passed), "detail": detail})

    rows = sweep(assembly, 0.0, ctx.p_max_kPa, 41, box, ctx.quad_rel_tol, ctx.theta_tol_rad)
    # Row 0 is the 0 kPa state.  Each residual is judged relative to its own
    # scale, so the checks mean the same at every size of the geometry.
    rest = rows[0]
    rest_pairs = ((rest.r0_mm, geom.r_outer_0), (rest.r1_mm, geom.r_inner_0),
                  (rest.theta0_rad, geom.half_angle_0))
    fixed_err = max(abs(value - ref) for value, ref in rest_pairs)
    add("fixed_point", all(abs(value - ref) < 1e-10 * ref for value, ref in rest_pairs),
        f"max deviation {fixed_err:.3e}")

    # The published rest aperture holds only for the published assembly; on
    # any other, Rg(0) is the undeformed geometry's, which fixed_point checks.
    if geom == ChamberGeometry() and assembly.n_chambers == GripperAssembly(geom, mat).n_chambers:
        add(
            "rest_aperture_pin",
            abs(rest.Rg_mm - 20.676) < 1e-3,
            f"Rg(0) = {rest.Rg_mm:.6f} mm (pinned 20.676 +/- 0.001)",
        )

    max_rel = 0.0
    max_pin = 0.0
    max_area = 0.0
    for row in rows:
        closed = pressure_at_angle(geom, mat, row.theta0_rad)
        scale = max(1.0, abs(closed))
        max_rel = max(max_rel, abs(closed - row.quadrature_check_kPa) / scale)
        max_pin = max(max_pin, abs(row.pin_residual))
        max_area = max(max_area, abs(row.area_residual))
    add(
        "closed_form_vs_quadrature",
        max_rel < 1e-6,
        f"max relative deviation {max_rel:.3e} over {len(rows)} points",
    )
    add(
        "constraint_residuals",
        max_pin < 1e-10 * geom.pin_half_distance and max_area < 1e-10 * geom.sector_area_scale,
        f"max pin {max_pin:.3e} mm, max area {max_area:.3e} mm^2*rad",
    )
    rgs = [row.Rg_mm for row in rows]
    add(
        "aperture_monotone",
        all(b > a for a, b in zip(rgs, rgs[1:])),
        f"Rg from {rgs[0]:.4f} to {rgs[-1]:.4f} mm",
    )

    printed_at_rest = pressure_closed_form(geom, geom.undeformed_state(), mat, "as_printed")
    expected = mat.c1 * math.log(geom.r_outer_0 / geom.r_inner_0)
    add(
        "printed_form_zero_deformation",
        abs(printed_at_rest - expected) <= 1e-9 * abs(expected),
        f"as-printed value at zero deformation {printed_at_rest:.4f} kPa "
        f"(= c1*ln(R0/R1) = {expected:.4f} kPa; the rederived variant gives 0)",
    )

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        state = state_at_angle(geom, rng.uniform(geom.half_angle_0, box.half_angle_max))
        printed = pressure_closed_form(geom, state, mat, "as_printed")
        rederived = pressure_closed_form(geom, state, mat, "rederived")
        identity = (
            mat.c1
            * (geom.half_angle_0 / state.half_angle)
            * math.log(state.r_outer / state.r_inner)
        )
        gap = abs((printed - rederived) - identity)
        worst = max(worst, gap / max(abs(identity), 1e-300))
    add(
        "printed_discrepancy_identity",
        worst < 1e-9,
        f"max relative deviation {worst:.3e} at 100 random states",
    )

    # Rows 4, 8, ..., 40 of the sweep: p_max*k/10 for k < 10 (exact: 4k/40 = k/10), then p_max.
    worst_rt = 0.0
    for row in rows[4::4]:
        p = row.pressure_kPa
        p_back = inverse_pressure(assembly, row.Rg_mm, ctx.p_max_kPa, box, ctx.theta_tol_rad)
        worst_rt = max(worst_rt, abs(p_back - p) / max(1.0, abs(p)))
    add(
        "inverse_round_trip",
        worst_rt < 1e-6,
        f"max relative pressure error {worst_rt:.3e} at 10 points",
    )

    report = {
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
        "search_box_audit": {
            "published_box": {"r0_mm": list(PUBLISHED_BOX[0]), "r1_mm": list(PUBLISHED_BOX[1]),
                              "theta0_deg": [math.degrees(a) for a in PUBLISHED_BOX[2]]},
            "sweep_ranges": {
                "r0_mm": [min(r.r0_mm for r in rows), max(r.r0_mm for r in rows)],
                "r1_mm": [min(r.r1_mm for r in rows), max(r.r1_mm for r in rows)],
                "theta0_deg": [
                    math.degrees(min(r.theta0_rad for r in rows)),
                    math.degrees(max(r.theta0_rad for r in rows)),
                ],
            },
            "note": (
                "inflation increases theta0 and decreases r0 and r1, so the "
                "solution path exits the published radial lower bounds; only "
                "the angle range constrains the solver"
            ),
        },
    }
    return report


def cmd_validate(ctx: ModelContext, args) -> int:
    report = build_validation_report(ctx)
    if args.json:
        _print_json(report)
    else:
        for check in report["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"{status}  {check['name']}: {check['detail']}")
        audit = report["search_box_audit"]
        print(
            "note  search-box audit: sweep ranges "
            f"r0 {audit['sweep_ranges']['r0_mm']}, "
            f"r1 {audit['sweep_ranges']['r1_mm']}, "
            f"theta0(deg) {audit['sweep_ranges']['theta0_deg']} "
            f"vs published box {audit['published_box']['r0_mm']}, "
            f"{audit['published_box']['r1_mm']}, "
            f"{audit['published_box']['theta0_deg']}"
        )
        print("overall:", "PASS" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gripper",
        description=(
            "Pressure-deformation model, grasp planning and calibration for a "
            "multi-chamber accordion soft gripper."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        metavar="PATH",
        help=f"JSON config file (default: ${ENV_CONFIG_VAR} or embedded defaults)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="show the active or default configuration")
    p.add_argument("--print-default", action="store_true", help="print embedded defaults")
    p.set_defaults(func=cmd_config)

    p = sub.add_parser("solve", help="deformed state and aperture at one pressure")
    p.add_argument("--pressure", type=float, required=True, metavar="KPA")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="pressure sweep exported as CSV")
    p.add_argument("--from", dest="from_kpa", type=float, default=0.0, metavar="KPA")
    p.add_argument("--to", dest="to_kpa", type=float, default=None, metavar="KPA",
                   help="end of the range (default: solver.p_max_kPa)")
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("invert", help="pressure for a target aperture radius")
    p.add_argument("--aperture", type=float, required=True, metavar="MM")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("workspace", help="reachable aperture range")
    p.add_argument("--p-max", type=float, default=None, metavar="KPA")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_workspace)

    p = sub.add_parser("validate", help="run the model oracle suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="grasp plan for an object descriptor JSON")
    p.add_argument("--object", required=True, metavar="PATH")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("fit-c1", help="fit the material constant from CSV data")
    p.add_argument("--data", required=True, metavar="CSV")
    p.set_defaults(func=cmd_fit_c1)

    p = sub.add_parser("fit-suction", help="fit suction model parameters from CSV data")
    p.add_argument("--data", required=True, metavar="CSV")
    p.set_defaults(func=cmd_fit_suction)

    p = sub.add_parser("peak-force", help="peak of a force-displacement trace")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--window", type=int, default=1, help="moving-average window (1 = none)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_peak_force)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            print(f"error: {name} must be a finite number, got {value}", file=sys.stderr)
            return 1
    if getattr(args, "print_default", False):  # the defaults, whatever the active config
        print(json.dumps(default_config(), indent=2))
        return 0
    try:
        ctx = load_context(args.config)
    except (GripperError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(ctx, args)
    except OutOfWorkspaceError as exc:
        print(f"out of workspace: {exc}", file=sys.stderr)
        return 2
    except (GripperError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
