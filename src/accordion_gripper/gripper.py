"""Whole-gripper assembly: aperture mapping, forward/inverse queries,
workspace reporting and pressure sweeps.

The gripper is a ring of N identical chambers, each occupying a sector of
angle alpha = 2*pi/N.  The deformed wall distance D of one chamber
approximates the arc length of its sector, so the aperture radius is
R_g = D/alpha.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from collections import namedtuple

from .chamber import (
    QUAD_REL_TOL,
    THETA_TOL_RAD,
    ChamberGeometry,
    DeformedState,
    SolverBox,
    _outside_box,
    _radii,
    _wall_distance,
    area_residual,
    brentq,
    pin_residual,
    pressure_at_angle,
    pressure_quadrature,
    reachable_pressure_range,
    solve_deformation,
    wall_distance,
)
from .errors import OutOfWorkspaceError
from .material import HyperelasticMaterial
from .records import CheckedRecord

#: Default upper end (kPa) of the inflation range: inverse and workspace.
P_MAX_KPA = 40.0

#: Default stretch margin (mm) of the contraction-feasible diameters.
STRETCH_MARGIN_MM = 8.65

#: Range ends ``_range_end`` keeps, the least recently used dropped first.
_RANGE_END_CACHE_SIZE = 128


class GripperAssembly(CheckedRecord, namedtuple("GripperAssembly",
                                                "geometry material n_chambers folded_aperture_mm")):
    """Ring of identical chambers plus the shared wall material.

    ``folded_aperture_mm`` is the contraction-side bound, configured not modelled.
    """

    __slots__ = ()

    def __new__(cls, geometry: ChamberGeometry, material: HyperelasticMaterial,
                n_chambers: int = 22, folded_aperture_mm: float = 5.0):
        if not (isinstance(n_chambers, int) and n_chambers >= 3):
            raise ValueError(f"n_chambers must be an integer >= 3, got {n_chambers}")
        if folded_aperture_mm < 0:
            raise ValueError(f"folded_aperture_mm must be >= 0, got {folded_aperture_mm}")
        return tuple.__new__(cls, (geometry, material, n_chambers, folded_aperture_mm))

    @property
    def sector_angle(self) -> float:
        """alpha = 2*pi/N, rad."""
        return 2.0 * math.pi / self.n_chambers


class Workspace(namedtuple("Workspace",
                           "min_aperture_mm rest_aperture_mm max_aperture_mm p_max_kPa")):
    """Aperture radii reachable by the gripper, mm, and the pressure (kPa)
    the range was solved up to."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "min_aperture_mm": self.min_aperture_mm,
            "rest_aperture_mm": self.rest_aperture_mm,
            "max_aperture_mm": self.max_aperture_mm,
        }


SweepRow = namedtuple("SweepRow", "pressure_kPa r0_mm r1_mm theta0_rad D_mm Rg_mm "
                                  "pin_residual area_residual quadrature_check_kPa")

#: Column order of the sweep CSV export: the ``SweepRow`` fields.
SWEEP_CSV_HEADER = ",".join(SweepRow._fields)


def aperture_radius(d: float, assembly: GripperAssembly) -> float:
    """Aperture radius R_g = D/alpha for wall distance d (mm)."""
    if d < 0:
        raise ValueError(f"wall distance must be >= 0, got {d}")
    return d / assembly.sector_angle


def aperture_vs_pressure(
    assembly: GripperAssembly,
    p: float,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> float:
    """Forward map: aperture radius (mm) at inflation pressure p (kPa)."""
    return _forward(assembly, p, box, tol)[2]


def _forward(assembly: GripperAssembly, p: float, box: SolverBox,
             tol: float) -> tuple[DeformedState, float, float]:
    """(state, D mm, R_g mm) at pressure p (kPa): the one body of every forward output."""
    state = solve_deformation(assembly.geometry, assembly.material, p, box, tol)
    d = wall_distance(state)
    return state, d, aperture_radius(d, assembly)


#: The forward body at the range ends, computed once per argument tuple.  The
#: records in the key are immutable, so a stored end never goes stale; an
#: exception is raised afresh on every call, never stored.
_range_end = functools.lru_cache(maxsize=_RANGE_END_CACHE_SIZE)(_forward)


def inverse_pressure(
    assembly: GripperAssembly,
    target_rg: float,
    p_max: float = P_MAX_KPA,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> float:
    """Pressure (kPa) at which the aperture radius equals target_rg (mm).

    R_g is explicit in theta0, so one bracketed solve on theta0 (tolerance
    ``tol``, rad) between the angles at 0 kPa and at p_max (``_range_end``)
    finds the angle of the target aperture; its pressure follows in closed form.
    """
    geom = assembly.geometry
    state_lo, _, rg_lo = _range_end(assembly, 0.0, box, tol)
    state_hi, _, rg_hi = _range_end(assembly, p_max, box, tol)
    lo, hi = state_lo.half_angle, state_hi.half_angle

    def rg(theta: float) -> float:
        return aperture_radius(_wall_distance(*_radii(geom, theta), theta), assembly)

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
    ends = {lo: rg_lo, hi: rg_hi}  # brentq starts at the range ends: evaluate them once
    theta = brentq(lambda t: (ends[t] if t in ends else rg(t)) - target_rg, lo, hi, xtol=tol)
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
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    return Workspace(
        min_aperture_mm=assembly.folded_aperture_mm,
        rest_aperture_mm=_range_end(assembly, 0.0, box, tol)[2],
        max_aperture_mm=_range_end(assembly, p_max, box, tol)[2],
        p_max_kPa=p_max,
    )


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
    if stretch_margin_mm < 0:
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
    """The rows of ``sweep``, each solved as it is read; the range is checked at the call."""
    if not p_from < p_to:
        raise ValueError(f"empty sweep range [{p_from}, {p_to}]")
    if steps < 2:
        raise ValueError(f"sweep needs at least 2 steps, got {steps}")
    geom = assembly.geometry
    reachable = reachable_pressure_range(geom, assembly.material, box)
    if p_to > reachable[1]:
        raise _outside_box(p_to, reachable)

    def row(p: float) -> SweepRow:
        state, d, rg = _forward(assembly, p, box, tol)
        return SweepRow(p, state.r_outer, state.r_inner, state.half_angle, d, rg,
                        pin_residual(geom, state), area_residual(geom, state),
                        pressure_quadrature(geom, state, assembly.material, quad_rel_tol))

    last = steps - 1
    return (row(p_from + (p_to - p_from) * i / last if i < last else p_to) for i in range(steps))


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
