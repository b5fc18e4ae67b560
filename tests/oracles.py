"""Independent oracles used by the test suite.

These deliberately avoid the library's solver path: the grid search scans
the full 3-D unknown space with its own (numpy) pressure evaluation, so a
bug in the scalar reduction cannot hide.  The nested inverse inverts the
forward map by root finding over pressure, so it shares no step with the
library's inverse, which solves over theta0.  The row-by-row CSV reader
parses every file with ``csv.reader`` alone, one Python step per row; the row
loop checks a series' values one row at a time, and the list-based peak keeps
every force and prefix sum in a list, as the package did before its one-pass
forms.  The argparse parser is the command line's parser as it was before the CLI read
its options from a table.
"""

import argparse
import csv
import math
from itertools import accumulate
from operator import sub

import numpy as np
from scipy.optimize import brentq

from accordion_gripper import CalibrationError, SolverBox, __version__, aperture_vs_pressure
from accordion_gripper.calibration import MeasurementSeries, SeriesKind
from accordion_gripper.cli import (
    cmd_config,
    cmd_fit_c1,
    cmd_fit_suction,
    cmd_invert,
    cmd_peak_force,
    cmd_plan,
    cmd_solve,
    cmd_sweep,
    cmd_validate,
    cmd_workspace,
)
from accordion_gripper.config import ENV_CONFIG_VAR

CSV_HEADERS = {
    SeriesKind.PRESSURE_APERTURE: ("pressure_kPa", "aperture_mm"),
    SeriesKind.FORCE_DISPLACEMENT: ("displacement_mm", "force_N"),
    SeriesKind.SUCTION_FORCE: ("pressure_kPa", "force_N"),
}


def nested_inverse_pressure(assembly, target_rg, p_max=40.0, box=SolverBox()):
    """Pressure (kPa) of aperture target_rg (mm): Brent over p of the forward map."""
    return brentq(
        lambda p: aperture_vs_pressure(assembly, p, box) - target_rg,
        0.0,
        p_max,
        xtol=1e-12,
    )


def grid_search_state(geom, mat, p_target, box, n=400):
    """Brute-force minimizer over (r0, r1, theta0) for one target pressure.

    Scans an n^3 grid over the angles from the rest angle to the box top and
    radial ranges padded to cover the constraint manifold, minimizing the squared pressure and
    constraint residuals (each scaled by its per-grid-cell sensitivity).
    Returns the best grid point and the grid spacings.
    """
    th_lo, th_hi = geom.half_angle_0, box.half_angle_max
    a = geom.pin_half_distance
    area0 = geom.sector_area_scale
    c1 = mat.c1
    big_theta = geom.half_angle_0
    log_rr = math.log(geom.r_outer_0 / geom.r_inner_0)
    r1_sq = geom.r_inner_0**2

    # Radial ranges implied by the constraints over the angle range, padded.
    r1_ends = (a / math.sin(th_hi), a / math.sin(th_lo))
    r1_lo, r1_hi = min(r1_ends) * 0.95, max(r1_ends) * 1.05

    def r0_of(th, r1):
        return math.sqrt(r1 * r1 + area0 / th)

    r0_ends = (r0_of(th_hi, r1_ends[0]), r0_of(th_lo, r1_ends[1]))
    r0_lo, r0_hi = min(r0_ends) * 0.95, max(r0_ends) * 1.05

    thetas = np.linspace(th_lo, th_hi, n)
    r0g = np.linspace(r0_lo, r0_hi, n)
    r1g = np.linspace(r1_lo, r1_hi, n)
    d_r0, d_r1, d_th = r0g[1] - r0g[0], r1g[1] - r1g[0], thetas[1] - thetas[0]

    th_mid = 0.5 * (th_lo + th_hi)
    sig_pin = math.sin(th_mid) * d_r1
    sig_area = 2.0 * float(np.mean(r0g)) * th_mid * d_r0

    def pressure(th, r0v, r1v):
        return (
            2.0 * c1 * (th / big_theta) * log_rr
            + c1
            * (big_theta / th**2)
            * (r1_sq * big_theta - r1v**2 * th)
            * (1.0 / r0v**2 - 1.0 / r1v**2)
            - 2.0 * c1 * (big_theta / th) * np.log(r0v / r1v)
        )

    sig_p = abs(
        pressure(th_hi, r0_ends[0], r1_ends[0])
        - pressure(th_lo, r0_ends[1], r1_ends[1])
    ) / (n - 1)

    r0v, r1v = np.meshgrid(r0g, r1g, indexing="ij")
    best_obj = np.inf
    best = None
    for th in thetas:
        pin = np.abs(r1g * math.sin(th) - a)
        area = np.abs(area0 - (r0v**2 - r1v**2) * th)
        p = pressure(th, r0v, r1v)
        obj = (
            ((p - p_target) / sig_p) ** 2
            + (pin[None, :] / sig_pin) ** 2
            + (area / sig_area) ** 2
        )
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        if obj[i, j] < best_obj:
            best_obj = obj[i, j]
            best = (float(r0g[i]), float(r1g[j]), float(th))
    return best, (float(d_r0), float(d_r1), float(d_th))


def load_series_csv_by_rows(path, kind):
    """A measurement CSV read by one ``csv.reader`` loop over its rows, each error naming
    the physical line its record ends on (``reader.line_num``): past the record count
    when a quoted field holds a line break."""
    expected = CSV_HEADERS[kind]
    pairs = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise CalibrationError(f"{path}: empty file") from None
            if tuple(h.strip() for h in header) != expected:
                raise CalibrationError(
                    f"{path}:1: expected header {','.join(expected)!r}, "
                    f"got {','.join(header)!r}"
                )
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise CalibrationError(
                        f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
                try:
                    pairs.append((float(row[0]), float(row[1])))
                except ValueError:
                    raise CalibrationError(
                        f"{path}:{reader.line_num}: non-numeric value in {row!r}"
                    ) from None
        except csv.Error as exc:
            raise CalibrationError(f"{path}:{reader.line_num}: {exc}") from None
    return MeasurementSeries(kind, tuple(pairs))


#: The fewest rows a series of each kind holds.
MIN_ROWS = {SeriesKind.PRESSURE_APERTURE: 3, SeriesKind.FORCE_DISPLACEMENT: 3,
            SeriesKind.SUCTION_FORCE: 2}


def series_rows_by_loop(kind, rows):
    """The rows a ``MeasurementSeries`` of ``kind`` keeps, checked one row at a time: the
    first non-finite row is named, and whatever a row's unpacking or ``math.isfinite``
    raises is raised."""
    kind = SeriesKind(kind)
    if len(rows) < MIN_ROWS[kind]:
        raise CalibrationError(
            f"{kind.value} series needs at least {MIN_ROWS[kind]} rows, got {len(rows)}")
    for i, (x, y) in enumerate(rows, start=1):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise CalibrationError(f"{kind.value} series row {i}: non-finite value ({x}, {y})")
    if kind is SeriesKind.PRESSURE_APERTURE:
        xs = [x for x, _ in rows]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise CalibrationError(
                "pressure_aperture series must have strictly increasing pressures")
    return rows


def peak_force_by_lists(series, window):
    """The peak of ``series``' forces averaged over ``window`` rows, from a list of the
    forces and a list of their prefix sums (no checks)."""
    ys = [y for _, y in series.rows]
    if window == 1:
        return max(ys)
    sums = list(accumulate(ys, initial=0.0))
    return max(map(sub, sums[window:], sums)) / window


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


def argparse_namespace(argv):
    """The argparse namespace of a ``gripper`` command line, as its own parser reads it;
    a malformed line raises ``SystemExit(2)``, and help or version ``SystemExit(0)``."""
    return build_parser().parse_args(argv)
