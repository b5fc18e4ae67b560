"""Command-line interface.

Exit codes: 0 success, 1 input/config error, 2 infeasible or out of
workspace.  All numeric output is printed at 9 significant digits.
"""

from __future__ import annotations

import json
import math
import re
import sys
from types import SimpleNamespace

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

    import random  # only validate draws random states

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
# Command line

#: The default of an option that must be given.
REQUIRED = object()

#: An option is (flag, dest, type, default, help); a bool option is a flag that takes no
#: value, and one with no dest prints a text.  ``--config`` goes before the command.
CONFIG_OPTION = ("--config", "config", str, None,
                 f"JSON config file (default: ${ENV_CONFIG_VAR} or embedded defaults)")
VERSION_OPTION = ("--version", None, bool, None, "show the version and exit")
HELP_OPTION = ("-h, --help", None, bool, None, "show this help and exit")
HELP_FLAGS = ("-h", "--help")
JSON_OPTION = ("--json", "json", bool, False, "print JSON")
DATA_OPTION = ("--data", "data", str, REQUIRED, "measurement CSV file")
METAVARS = {bool: "", float: " NUMBER", int: " N", str: " PATH"}

#: command -> (handler, help, options): what the parser reads and the help lists.
COMMANDS = {
    "config": (cmd_config, "show the active or default configuration",
               [("--print-default", "print_default", bool, False, "print embedded defaults")]),
    "solve": (cmd_solve, "deformed state and aperture at one pressure",
              [("--pressure", "pressure", float, REQUIRED, "chamber pressure, kPa"), JSON_OPTION]),
    "sweep": (cmd_sweep, "pressure sweep exported as CSV",
              [("--from", "from_kpa", float, 0.0, "first pressure, kPa"),
               ("--to", "to_kpa", float, None, "last pressure, kPa (default: solver.p_max_kPa)"),
               ("--steps", "steps", int, 41, "number of rows"),
               ("--out", "out", str, REQUIRED, "CSV file to write")]),
    "invert": (cmd_invert, "pressure for a target aperture radius",
               [("--aperture", "aperture", float, REQUIRED, "aperture radius, mm"), JSON_OPTION]),
    "workspace": (cmd_workspace, "reachable aperture range",
                  [("--p-max", "p_max", float, None,
                    "top pressure, kPa (default: solver.p_max_kPa)"), JSON_OPTION]),
    "validate": (cmd_validate, "run the model oracle suite", [JSON_OPTION]),
    "plan": (cmd_plan, "grasp plan for an object descriptor JSON",
             [("--object", "object", str, REQUIRED, "object descriptor JSON file")]),
    "fit-c1": (cmd_fit_c1, "fit the material constant from CSV data", [DATA_OPTION]),
    "fit-suction": (cmd_fit_suction, "fit suction model parameters from CSV data", [DATA_OPTION]),
    "peak-force": (cmd_peak_force, "peak of a force-displacement trace",
                   [DATA_OPTION, ("--window", "window", int, 1, "moving-average window (1 = none)"),
                    JSON_OPTION]),
}


def help_text(command: str | None = None) -> str:
    """``gripper --help``, or ``gripper COMMAND --help``, read from ``COMMANDS``."""
    _, text, options = COMMANDS[command] if command else (
        None, "Pressure-deformation model, grasp planning and calibration for a multi-chamber "
        "accordion soft gripper.", [CONFIG_OPTION, VERSION_OPTION])
    rows = [(flag + METAVARS[kind],
             f"{about} (required)" if default is REQUIRED
             else about if default is None or kind is bool else f"{about} (default {default})")
            for flag, _, kind, default, about in [*options, HELP_OPTION]]
    commands = [] if command else [(name, entry[1]) for name, entry in COMMANDS.items()]
    width = max(len(left) for left, _ in rows + commands) + 2

    def table(title, pairs):
        return f"\n\n{title}:" + "".join(f"\n  {left:<{width}}{right}" for left, right in pairs)

    return (f"usage: gripper [--config PATH] {command or 'COMMAND'} [OPTION ...]\n\n{text}"
            + (table("commands", commands) if commands else "") + table("options", rows))


def _is_value(token: str) -> bool:
    """Whether ``token`` is a value rather than an option: a token that starts with a
    dash is an option unless it is a lone dash, a plain negative number such as -5 or
    -.5, or holds a space (argparse's rule)."""
    return (token[:1] != "-" or token == "-" or " " in token
            or re.match(r"-\d+$|-\d*\.\d+$", token) is not None)


def parse_args(argv) -> SimpleNamespace | str:
    """The namespace of a command line, or the help or version text it asks for.

    An option is named in full, as ``--opt value`` or ``--opt=value``; a value that
    starts with a dash and is not a plain negative number takes the ``=`` form.  A
    malformed line raises ValueError naming the option or command at fault.
    """
    args = SimpleNamespace(config=None, command=None, func=None)
    options, stray, tokens = [CONFIG_OPTION, VERSION_OPTION], [], iter(argv)
    for token in tokens:
        flags = {option[0] for option in options}.union(HELP_FLAGS)
        flag, eq, value = token.partition("=")
        if flag not in flags and _is_value(token):
            if args.command is not None:
                stray.append(token)
                continue
            if token not in COMMANDS:
                raise ValueError(f"unknown command {token!r}; expected one of "
                                 f"{', '.join(COMMANDS)}")
            args.command = token
            args.func, _, options = COMMANDS[token]
            vars(args).update((dest, default) for _, dest, _, default, _ in options)
        elif flag not in flags:  # reported once the line is read, as a later -h still helps
            stray += [token, *tokens] if token == "--" else [token]  # no option follows --
        else:
            _, dest, kind, _, _ = next((o for o in options if o[0] == flag), HELP_OPTION)
            if kind is bool and eq:
                raise ValueError(f"{flag} takes no value, got {token!r}")
            if dest is None:
                return help_text(args.command) if flag in HELP_FLAGS else f"gripper {__version__}"
            if kind is not bool and not eq:
                value = next(tokens, None)
                if value is None or value.partition("=")[0] in flags or not _is_value(value):
                    raise ValueError(f"{flag} needs a value" + ("" if value is None else
                                     f", got the option {value!r} (write {flag}=VALUE for a "
                                     "value that starts with '-')"))
            try:
                setattr(args, dest, True if kind is bool else kind(value))
            except ValueError:
                raise ValueError(f"{flag} takes {'an integer' if kind is int else 'a number'}, "
                                 f"got {value!r}") from None
    if args.command is None:
        raise ValueError(f"missing command; expected one of {', '.join(COMMANDS)}")
    if stray:
        raise ValueError(f"unrecognized argument {stray[0]!r} for {args.command}")
    missing = [flag for flag, dest, *_ in options if getattr(args, dest) is REQUIRED]
    if missing:
        raise ValueError(f"{args.command} needs {missing[0]}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(args, str):  # the help or version text
        print(args)
        return 0
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
