"""Independent oracles used by the test suite.

These deliberately avoid the library's solver path: the grid search scans
the full 3-D unknown space with its own (numpy) pressure evaluation, so a
bug in the scalar reduction cannot hide.  The nested inverse inverts the
forward map by root finding over pressure, so it shares no step with the
library's inverse, which solves over theta0.  The row-by-row CSV reader
parses every file with ``csv.reader`` alone, one Python step per row.
"""

import csv
import math

import numpy as np
from scipy.optimize import brentq

from accordion_gripper import CalibrationError, SolverBox, aperture_vs_pressure
from accordion_gripper.calibration import MeasurementSeries, SeriesKind

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
