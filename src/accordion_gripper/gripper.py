"""Whole-gripper assembly: aperture mapping, forward/inverse queries,
workspace reporting and pressure sweeps.

The gripper is a ring of N identical chambers, each occupying a sector of
angle alpha = 2*pi/N.  The deformed wall distance D of one chamber
approximates the arc length of its sector, so the aperture radius is
R_g = D/alpha.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import stat

from .chamber import (
    QUAD_REL_TOL,
    THETA_TOL_RAD,
    ChamberGeometry,
    SolverBox,
    angle_at_aperture,
    angles_at_pressures,
    area_residual,
    pin_residual,
    pressure_at_angle,
    pressure_quadrature,
    reachable_pressure_range,
    solve_deformation,
    state_at_angle,
    wall_distance,
    wall_distance_at_angle,
)
from .errors import OutOfWorkspaceError
from .material import HyperelasticMaterial
from .records import Record

#: Default upper end (kPa) of the inflation range: inverse and workspace.
P_MAX_KPA = 40.0

#: Default stretch margin (mm) of the contraction-feasible diameters.
STRETCH_MARGIN_MM = 8.65

#: Range-end tuples ``_range_ends`` keeps, the least recently used dropped first.
_RANGE_END_CACHE_SIZE = 128


class GripperAssembly(Record, fields="geometry material n_chambers folded_aperture_mm"):
    """Ring of identical chambers plus the shared wall material.

    ``folded_aperture_mm`` is the contraction-side bound, configured not modelled.
    """

    __slots__ = ()

    def __new__(cls, geometry: ChamberGeometry, material: HyperelasticMaterial,
                n_chambers: int = 22, folded_aperture_mm: float = 5.0):
        if not (isinstance(n_chambers, int) and n_chambers >= 3):
            raise ValueError(f"n_chambers must be an integer >= 3, got {n_chambers}")
        if not folded_aperture_mm >= 0:  # a NaN fails every comparison
            raise ValueError(f"folded_aperture_mm must be >= 0, got {folded_aperture_mm}")
        return tuple.__new__(cls, (geometry, material, n_chambers, folded_aperture_mm))

    @property
    def sector_angle(self) -> float:
        """alpha = 2*pi/N, rad."""
        return 2.0 * math.pi / self.n_chambers


class Workspace(Record, fields="min_aperture_mm rest_aperture_mm max_aperture_mm p_max_kPa"):
    """Aperture radii reachable by the gripper, mm, and the pressure (kPa)
    the range was solved up to."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "min_aperture_mm": self.min_aperture_mm,
            "rest_aperture_mm": self.rest_aperture_mm,
            "max_aperture_mm": self.max_aperture_mm,
        }


class SweepRow(Record, fields="pressure_kPa r0_mm r1_mm theta0_rad D_mm Rg_mm pin_residual "
                             "area_residual quadrature_check_kPa"):
    __slots__ = ()


#: Column order of the sweep CSV export: the ``SweepRow`` fields.
SWEEP_CSV_HEADER = ",".join(SweepRow._fields)


def aperture_radius(d: float, assembly: GripperAssembly) -> float:
    """Aperture radius R_g = D/alpha for wall distance d (mm)."""
    if not d >= 0:
        raise ValueError(f"wall distance must be >= 0, got {d}")
    return d / assembly.sector_angle


def apertures_at_pressures(assembly: GripperAssembly, pressures, box: SolverBox = SolverBox(),
                           tol: float = THETA_TOL_RAD) -> list[float]:
    """Forward map: aperture radius (mm) at each inflation pressure (kPa), on floats; each
    point is checked as ``solve_deformation`` and ``aperture_radius`` check it, in order."""
    geom = assembly.geometry
    return [aperture_radius(wall_distance_at_angle(geom, t), assembly)
            for t in angles_at_pressures(geom, assembly.material, pressures, box, tol)]


def aperture_vs_pressure(
    assembly: GripperAssembly,
    p: float,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> float:
    """Forward map: aperture radius (mm) at pressure p (kPa); ``apertures_at_pressures``'s point."""
    geom = assembly.geometry
    (theta,) = angles_at_pressures(geom, assembly.material, (p,), box, tol)
    return aperture_radius(wall_distance_at_angle(geom, theta), assembly)


@functools.lru_cache(maxsize=_RANGE_END_CACHE_SIZE)
def _range_ends(assembly: GripperAssembly, p_max: float, box: SolverBox,
                tol: float) -> tuple[float, float, float]:
    """(R_g mm at 0 kPa, then theta0 rad and R_g mm at p_max); theta0 at 0 kPa is Theta0.

    A p_max below 0 or NaN is a ValueError, and so is an aperture that falls from 0 kPa
    to p_max, the rule ``config`` applies to a geometry at load, for callers that skip
    the config.  The records in the key are immutable, so stored ends never go stale; an
    exception is raised afresh on every call, never stored.
    """
    if not p_max >= 0:  # a NaN fails it too
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    geom = assembly.geometry
    (_, rg_lo), (theta_hi, rg_hi) = [
        (t, aperture_radius(wall_distance_at_angle(geom, t), assembly))
        for t in angles_at_pressures(geom, assembly.material, (0.0, p_max), box, tol)]
    if rg_hi < rg_lo:
        raise ValueError(f"the aperture closes under inflation: R_g({p_max} kPa) = "
                         f"{rg_hi:.9g} mm is below R_g(0) = {rg_lo:.9g} mm")
    return rg_lo, theta_hi, rg_hi


def inverse_pressure(
    assembly: GripperAssembly,
    target_rg: float,
    p_max: float = P_MAX_KPA,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> float:
    """Pressure (kPa) at which the aperture radius equals target_rg (mm).

    R_g is explicit in theta0, so one bracketed solve on theta0 (tolerance
    ``tol``, rad) between Theta0 and the angle at p_max (``_range_ends``)
    finds the angle of the target aperture; its pressure follows in closed form.
    """
    if math.isnan(target_rg):
        raise ValueError(f"target aperture must be a number, got {target_rg}")
    geom = assembly.geometry
    rg_lo, theta_hi, rg_hi = _range_ends(assembly, p_max, box, tol)
    if not rg_lo <= target_rg <= rg_hi:
        raise OutOfWorkspaceError(
            f"target aperture {target_rg} mm outside the achievable range "
            f"[{rg_lo:.6g}, {rg_hi:.6g}] mm for pressures in [0, {p_max}] kPa",
            reachable=(rg_lo, rg_hi),
        )
    if rg_lo == target_rg:
        return 0.0
    if rg_hi == target_rg:
        return p_max
    theta = angle_at_aperture(geom, assembly.sector_angle, target_rg, theta_hi, rg_lo, rg_hi, tol)
    # Past [0, p_max] by rounding near rest, or near p_max because that end is solved to tol.
    return min(max(pressure_at_angle(geom, assembly.material, theta), 0.0), p_max)


def workspace(
    assembly: GripperAssembly,
    p_max: float = P_MAX_KPA,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> Workspace:
    """Aperture range over the admissible pressure span.

    The contraction-side minimum is the configured folded aperture; the
    folding branch is not modelled analytically.
    """
    rest, _, top = _range_ends(assembly, p_max, box, tol)
    return Workspace(assembly.folded_aperture_mm, rest, top, p_max)


def contraction_diameter_range(
    ws: Workspace, stretch_margin_mm: float = STRETCH_MARGIN_MM
) -> tuple[float, float]:
    """Feasible object diameters (mm) for contraction grasping.

    Lower end: twice the folded aperture.  Upper end: twice the rest
    aperture plus a stretch margin for objects the gripper can stretch
    around after contact.
    """
    check_stretch_margin(stretch_margin_mm)
    return (
        2.0 * ws.min_aperture_mm,
        2.0 * ws.rest_aperture_mm + stretch_margin_mm,
    )


def check_stretch_margin(stretch_margin_mm: float) -> None:
    """Reject a negative stretch margin (mm)."""
    if not stretch_margin_mm >= 0:
        raise ValueError(f"stretch margin must be >= 0 mm, got {stretch_margin_mm}")


def iter_sweep(
    assembly: GripperAssembly,
    p_from: float,
    p_to: float,
    steps: int,
    box: SolverBox = SolverBox(),
    quad_rel_tol: float = QUAD_REL_TOL,
    tol: float = THETA_TOL_RAD,
):
    """The rows of ``sweep``, each solved as it is read; the range is checked at the call.

    The angles come from one ``angles_at_pressures`` series over the grid, which draws
    each pressure as its row is read.
    """
    if not p_from < p_to:
        raise ValueError(f"empty sweep range [{p_from}, {p_to}]")
    try:
        if steps < 2:
            raise ValueError(f"sweep needs at least 2 steps, got {steps}")
        indices = range(steps)
    except TypeError:
        raise ValueError(f"sweep steps must be an integer, got {steps!r}") from None
    geom, mat = assembly.geometry, assembly.material
    top = reachable_pressure_range(geom, mat, box)[1]
    if p_to > top or p_from < 0:
        # An end past the range, p_to's first: the solver's own error, before any Brent step.
        solve_deformation(geom, mat, p_to if p_to > top else p_from, box, tol)

    def row(p: float, theta: float) -> SweepRow:
        state = state_at_angle(geom, theta)
        d = wall_distance(state)
        return SweepRow(p, state.r_outer, state.r_inner, theta, d, aperture_radius(d, assembly),
                        pin_residual(geom, state), area_residual(geom, state),
                        pressure_quadrature(geom, state, mat, quad_rel_tol))

    last = steps - 1
    grid, solved = itertools.tee(p_from + (p_to - p_from) * i / last if i < last else p_to
                                 for i in indices)
    return map(row, grid, angles_at_pressures(geom, mat, solved, box, tol))


def sweep(
    assembly: GripperAssembly,
    p_from: float,
    p_to: float,
    steps: int,
    box: SolverBox = SolverBox(),
    quad_rel_tol: float = QUAD_REL_TOL,
    tol: float = THETA_TOL_RAD,
) -> list[SweepRow]:
    """Evaluate the forward model on a uniform pressure grid ending on p_to itself.

    Each row carries the solved state, aperture, constraint residuals and
    an independent quadrature check of the pressure.  Deterministic.
    """
    return list(iter_sweep(assembly, p_from, p_to, steps, box, quad_rel_tol, tol))


def _csv_line(row: SweepRow) -> str:
    return ",".join(f"{value:.9g}" for value in row) + "\n"


def write_sweep_csv(rows, path) -> None:
    """Write sweep rows (any iterable) to ``path`` as CSV, one line as each row is read.

    If reading a row raises, the partial file is removed (a regular file only,
    never a device or a link) and the error re-raised.
    """
    with open(path, "w", newline="") as fh:
        try:
            fh.write(SWEEP_CSV_HEADER + "\n")
            fh.writelines(map(_csv_line, rows))
        except BaseException:
            fh.close()
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise
