"""Grasp-mode selection, pressure schedules, squeeze-capacity estimates and
the expansion-driven suction force model.

The capacity model is deliberately empirical: a per-shape slope plus a
plateau that reflects buckling of the chamber walls under vacuum (forces
stop growing beyond roughly -30 kPa).  It is calibrated from measurements,
never derived from the hyperelastic wall model.

The suction model closes the qualitative mechanism (sealing a lip against a
flat surface and inflating/lifting so the enclosed volume grows) with an
isothermal ideal-gas law: P_I * V = P_atm * V0.  The enclosed volume is a
single-parameter cylinder model V(P_C) = pi * R_g(P_C)^2 * h_eff.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum

from .chamber import THETA_TOL_RAD, SolverBox
from .errors import CalibrationError, OutOfWorkspaceError
from .gripper import (
    STRETCH_MARGIN_MM,
    GripperAssembly,
    Workspace,
    aperture_vs_pressure,
    contraction_diameter_range,
)
from .records import CheckedRecord

PRESSURE_LIMIT_KPA = 40.0  # schedules never exceed +/- this

#: Default ambient pressure, kPa.
AMBIENT_KPA = 101.325

#: Default chamber pressure (kPa) below which no suction seal forms.
SEAL_THRESHOLD_KPA = 0.0

#: Default growth of the sealed volume while lifting, mm^3.
LIFT_VOLUME_INCREASE_MM3 = 5000.0

#: Default target pressure (kPa) of each schedule phase, by keyword.
SCHEDULE_KPA = {"open_kPa": 40.0, "envelop_kPa": -40.0, "insert_kPa": -40.0,
                "expand_kPa": 40.0, "suction_kPa": 20.0}


class ShapeClass(str, Enum):
    CYLINDER = "cylinder"
    SPHERE = "sphere"
    CONE = "cone"
    PYRAMID = "pyramid"
    CUBE = "cube"
    IRREGULAR = "irregular"
    FLAT_PLATE = "flat_plate"


class GraspMode(str, Enum):
    CONTRACTION = "contraction"
    EXPANSION = "expansion"
    SUCTION = "suction"


class ObjectDescriptor(CheckedRecord, namedtuple("ObjectDescriptor", (
        "shape_class", "characteristic_diameter_mm", "mass_kg", "has_aperture",
        "aperture_diameter_mm", "has_flat_sealable_surface", "orientation_note"))):
    """Size/shape/pose summary of a candidate object."""

    __slots__ = ()

    def __new__(cls, shape_class: ShapeClass, characteristic_diameter_mm: float,
                mass_kg: float = 0.0, has_aperture: bool = False,
                aperture_diameter_mm: float | None = None,
                has_flat_sealable_surface: bool = False, orientation_note: str = ""):
        d = characteristic_diameter_mm
        if not (math.isfinite(d) and d > 0):
            raise ValueError(f"characteristic diameter must be finite and > 0, got {d}")
        if not (math.isfinite(mass_kg) and mass_kg >= 0):
            raise ValueError(f"mass must be finite and >= 0, got {mass_kg}")
        if has_aperture != (aperture_diameter_mm is not None):
            raise ValueError("aperture_diameter_mm must be present iff has_aperture")
        d = aperture_diameter_mm
        if d is not None and not (math.isfinite(d) and d > 0):
            raise ValueError(f"aperture diameter must be finite and > 0, got {d}")
        return tuple.__new__(cls, (shape_class, characteristic_diameter_mm, mass_kg, has_aperture,
                                   aperture_diameter_mm, has_flat_sealable_surface,
                                   orientation_note))

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectDescriptor":
        if not isinstance(data, dict):
            raise ValueError(f"object descriptor must be a JSON object, got {type(data).__name__}")
        try:
            shape = ShapeClass(data["shape_class"])
        except KeyError:
            raise ValueError("object descriptor missing 'shape_class'") from None
        except ValueError:
            raise ValueError(
                f"unknown shape_class {data.get('shape_class')!r}; expected one of "
                f"{[s.value for s in ShapeClass]}"
            ) from None
        kinds = {"characteristic_diameter_mm": float, "mass_kg": float, "has_aperture": bool,
                 "aperture_diameter_mm": float, "has_flat_sealable_surface": bool,
                 "orientation_note": str}
        unknown = set(data) - {"shape_class", *kinds}
        if unknown:
            raise ValueError(f"unknown object descriptor keys: {sorted(unknown)}")
        if "characteristic_diameter_mm" not in data:
            raise ValueError("object descriptor missing 'characteristic_diameter_mm'")
        # A key left out takes the field's default; a null aperture diameter means none.
        kwargs = {"shape_class": shape}
        for key, value in data.items():
            if key == "shape_class" or (value is None and key == "aperture_diameter_mm"):
                continue
            kind = kinds[key]
            if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
                valid = abs(value) <= sys.float_info.max  # not a NaN, nor an int beyond floats
            else:
                valid = isinstance(value, kind)
            if not valid:
                name = {float: "a finite number", bool: "true or false", str: "a string"}[kind]
                raise ValueError(f"{key} must be {name}, got {value!r}")
            kwargs[key] = kind(value)
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Squeeze capacity (contraction mode)


class CapacityEntry(CheckedRecord, namedtuple(
        "CapacityEntry", "slope_N_per_kPa plateau_N threshold_kPa prestretch_N")):
    """Empirical capacity parameters for one shape class.

    ``threshold_kPa`` is the vacuum level beyond which the walls buckle;
    ``prestretch_N`` the baseline when the object pre-stretches the gripper.
    """

    __slots__ = ()

    def __new__(cls, slope_N_per_kPa: float, plateau_N: float, threshold_kPa: float = 30.0,
                prestretch_N: float = 0.0):
        for field, value in (("slope_N_per_kPa", slope_N_per_kPa), ("plateau_N", plateau_N),
                             ("prestretch_N", prestretch_N)):
            if value < 0:
                raise ValueError(f"{field} must be >= 0, got {value}")
        if threshold_kPa <= 0:
            raise ValueError(f"threshold_kPa must be > 0, got {threshold_kPa}")
        return tuple.__new__(cls, (slope_N_per_kPa, plateau_N, threshold_kPa, prestretch_N))


class CapacityCalibration(CheckedRecord, namedtuple("CapacityCalibration", "entries")):
    """Per-shape-class capacity table; 'default' applies to unlisted shapes."""

    __slots__ = ()

    def __new__(cls, entries: dict | None = None):
        entries = {} if entries is None else entries
        names = [shape.value for shape in ShapeClass] + ["default"]  # the names lookup reads
        for name in entries:
            if name not in names:
                raise ValueError(f"capacity.{name} names no shape class, so no lookup reads it; "
                                 f"expected one of {names}")
        return tuple.__new__(cls, (entries,))

    def lookup(self, shape: ShapeClass) -> CapacityEntry:
        key = shape.value if isinstance(shape, ShapeClass) else str(shape)
        if key in self.entries:
            return self.entries[key]
        if "default" in self.entries:
            return self.entries["default"]
        raise CalibrationError(f"uncalibrated shape class {key!r}")

    @classmethod
    def defaults(cls) -> "CapacityCalibration":
        """The default table, also the config file's default ``capacity``."""
        return cls(
            entries={
                "cylinder": CapacityEntry(1.0, 20.0, prestretch_N=20.0),
                "sphere": CapacityEntry(0.75, 15.0, prestretch_N=15.0),
                "default": CapacityEntry(0.5, 10.0, prestretch_N=10.0),
            }
        )


def contraction_capacity(
    obj: ObjectDescriptor,
    p_vac: float,
    calib: CapacityCalibration,
    rest_aperture_mm: float | None = None,
) -> float:
    """Predicted lifting capacity (N) at vacuum pressure p_vac (kPa, <= 0).

    F = min(F_pre + slope*min(|p_vac|, threshold), plateau): non-decreasing
    in |p_vac| and exactly constant once the walls buckle.  F_pre is the
    pre-stretch baseline, applied only when the object is wider than the
    rest interior diameter (contact without any vacuum).
    """
    if p_vac > 0:
        raise ValueError(f"vacuum pressure must be <= 0 kPa, got {p_vac}")
    entry = calib.lookup(obj.shape_class)
    prestretched = (
        rest_aperture_mm is not None
        and obj.characteristic_diameter_mm > 2.0 * rest_aperture_mm
    )
    base = entry.prestretch_N if prestretched else 0.0
    cap = max(entry.plateau_N, base)
    return min(base + entry.slope_N_per_kPa * min(abs(p_vac), entry.threshold_kPa), cap)


# ---------------------------------------------------------------------------
# Expansion-driven suction


def suction_law(ambient_kPa, effective_seal_area_mm2, rest_volume_mm3, volume_mm3):
    """Suction force (N) of the isothermal closure P_I*V = P_atm*V0, on floats.

    Force is (P_atm - P_I)*A_eff = P_atm*(V - V0)/V*A_eff floored at zero,
    which is exactly 0 at V = V0; kPa*mm^2 = mN.
    """
    force_mN = ambient_kPa * (volume_mm3 - rest_volume_mm3) / volume_mm3 * effective_seal_area_mm2
    return max(0.0, force_mN) / 1000.0


def sealed_volume(aperture_radius_mm: float, h_eff_mm: float) -> float:
    """Volume (mm^3) sealed under the gripper, the cylinder pi*R_g^2*h_eff."""
    return math.pi * aperture_radius_mm * aperture_radius_mm * h_eff_mm


class SuctionModel(CheckedRecord, namedtuple("SuctionModel", (
        "assembly", "effective_seal_area_mm2", "h_eff_mm", "ambient_pressure_kPa", "box", "tol",
        "seal_threshold_kPa", "rest_volume_mm3"))):
    """Isothermal gas closure of the sealed space V(P_C) = pi*R_g(P_C)^2*h_eff.

    ``rest_volume_mm3``, V(0), is computed at construction, not passed, from
    the rest geometry, which at 0 kPa needs no solve; ``_replace`` computes it again.
    """

    __slots__ = ()
    _inputs = 7

    def __new__(cls, assembly: GripperAssembly, effective_seal_area_mm2: float, h_eff_mm: float,
                ambient_pressure_kPa: float = AMBIENT_KPA, box: SolverBox = SolverBox(),
                tol: float = THETA_TOL_RAD, seal_threshold_kPa: float = SEAL_THRESHOLD_KPA):
        check_ambient_pressure(ambient_pressure_kPa)
        if effective_seal_area_mm2 <= 0:
            raise ValueError("effective seal area must be positive")
        if h_eff_mm <= 0:
            raise ValueError(f"effective height must be positive, got {h_eff_mm}")
        rest_volume = sealed_volume(aperture_vs_pressure(assembly, 0.0, box, tol), h_eff_mm)
        return tuple.__new__(cls, (assembly, effective_seal_area_mm2, h_eff_mm,
                                   ambient_pressure_kPa, box, tol, seal_threshold_kPa,
                                   rest_volume))

    def volume(self, p_chamber: float) -> float:
        """Enclosed volume (mm^3) at chamber pressure p_chamber (kPa)."""
        rg = aperture_vs_pressure(self.assembly, p_chamber, self.box, self.tol)
        return sealed_volume(rg, self.h_eff_mm)

    @classmethod
    def from_assembly(cls, *args, **kwargs) -> "SuctionModel":
        """``SuctionModel(assembly, ...)``, the model's documented constructor."""
        return cls(*args, **kwargs)


def suction_force(
    model: SuctionModel,
    p_chamber: float,
    lift_volume_increase_mm3: float,
) -> float:
    """Suction lifting force (N) with the seal formed.

    ``suction_law`` with V = V(p_chamber) + lift_volume_increase; below the
    model's seal threshold no seal forms and ValueError is raised.
    """
    if p_chamber < model.seal_threshold_kPa:
        raise ValueError(
            f"chamber pressure {p_chamber} kPa below seal threshold "
            f"{model.seal_threshold_kPa} kPa; no seal is formed"
        )
    check_lift_volume(lift_volume_increase_mm3)
    volume = model.volume(p_chamber) + lift_volume_increase_mm3
    return suction_law(
        model.ambient_pressure_kPa,
        model.effective_seal_area_mm2,
        model.rest_volume_mm3,
        volume,
    )


def check_lift_volume(lift_volume_increase_mm3: float) -> None:
    """Reject a negative growth (mm^3) of the sealed volume while lifting."""
    if lift_volume_increase_mm3 < 0:
        raise ValueError("lift volume increase must be >= 0")


def check_ambient_pressure(ambient_pressure_kPa: float) -> None:
    """Reject an ambient pressure (kPa) that is not positive."""
    if ambient_pressure_kPa <= 0:
        raise ValueError("ambient pressure must be positive")


# ---------------------------------------------------------------------------
# Mode selection and planning


ModeSelection = namedtuple("ModeSelection", "mode feasible reason")


class GraspPlan(CheckedRecord, namedtuple("GraspPlan",
                                          "mode schedule predicted_capacity_N feasible rationale")):
    """``schedule`` is the ordered list of (phase label, target pressure kPa)."""

    __slots__ = ()

    def __new__(cls, mode: GraspMode | None, schedule: list, predicted_capacity_N: float,
                feasible: bool, rationale: str):
        if predicted_capacity_N < 0:
            raise ValueError("predicted capacity must be >= 0")
        return tuple.__new__(cls, (mode, schedule, predicted_capacity_N, feasible, rationale))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value if self.mode else None,
            "schedule": [
                {"phase": label, "pressure_kPa": p} for label, p in self.schedule
            ],
            "predicted_capacity_N": self.predicted_capacity_N,
            "feasible": self.feasible,
            "rationale": self.rationale,
        }


def select_mode(
    obj: ObjectDescriptor,
    assembly: GripperAssembly,
    ws: Workspace,
    stretch_margin_mm: float = STRETCH_MARGIN_MM,
) -> ModeSelection:
    """Pick a grasp mode for an object; infeasibility is a value, not an error.

    Priority: expansion into a suitable opening, then suction on flat
    surfaces, then contraction around objects inside the workspace.
    """
    if obj.has_aperture and obj.aperture_diameter_mm is not None:
        lo = 2.0 * ws.min_aperture_mm
        hi = 2.0 * ws.max_aperture_mm
        if lo <= obj.aperture_diameter_mm <= hi:
            return ModeSelection(
                GraspMode.EXPANSION,
                True,
                f"object opening {obj.aperture_diameter_mm} mm within the "
                f"expandable range [{lo:.1f}, {hi:.1f}] mm",
            )
    if obj.shape_class is ShapeClass.FLAT_PLATE or obj.has_flat_sealable_surface:
        return ModeSelection(
            GraspMode.SUCTION, True, "flat sealable surface; expansion-driven suction"
        )
    d_lo, d_hi = contraction_diameter_range(ws, stretch_margin_mm)
    if d_lo <= obj.characteristic_diameter_mm <= d_hi:
        return ModeSelection(
            GraspMode.CONTRACTION,
            True,
            f"diameter {obj.characteristic_diameter_mm} mm within the "
            f"contraction workspace [{d_lo:.1f}, {d_hi:.1f}] mm",
        )
    if obj.characteristic_diameter_mm > d_hi:
        reason = (
            f"exceeds workspace: diameter {obj.characteristic_diameter_mm} mm above "
            f"the contraction limit {d_hi:.1f} mm and no usable opening or flat surface"
        )
    else:
        reason = (
            f"below workspace: diameter {obj.characteristic_diameter_mm} mm under "
            f"the folded aperture limit {d_lo:.1f} mm"
        )
    return ModeSelection(None, False, reason)


def pressure_schedule(
    mode: GraspMode,
    open_kPa: float = SCHEDULE_KPA["open_kPa"],
    envelop_kPa: float = SCHEDULE_KPA["envelop_kPa"],
    insert_kPa: float = SCHEDULE_KPA["insert_kPa"],
    expand_kPa: float = SCHEDULE_KPA["expand_kPa"],
    suction_kPa: float = SCHEDULE_KPA["suction_kPa"],
) -> list:
    """Ordered (phase, target pressure kPa) pairs for a grasp mode."""
    if mode is GraspMode.CONTRACTION:
        schedule = [("open", open_kPa), ("envelop", envelop_kPa)]
    elif mode is GraspMode.EXPANSION:
        schedule = [("insert", insert_kPa), ("expand", expand_kPa)]
    elif mode is GraspMode.SUCTION:
        schedule = [("seal+inflate", suction_kPa)]
    else:
        raise ValueError(f"unknown grasp mode {mode!r}")
    for label, p in schedule:
        if abs(p) > PRESSURE_LIMIT_KPA:
            raise ValueError(
                f"configured {label!r} pressure {p} kPa exceeds "
                f"+/-{PRESSURE_LIMIT_KPA} kPa"
            )
    return schedule


def plan_grasp(
    obj: ObjectDescriptor,
    assembly: GripperAssembly,
    ws: Workspace,
    calib: CapacityCalibration,
    suction_model: SuctionModel | None = None,
    stretch_margin_mm: float = STRETCH_MARGIN_MM,
    lift_volume_increase_mm3: float = LIFT_VOLUME_INCREASE_MM3,
    **schedule_pressures,
) -> GraspPlan:
    """Full plan for one object: mode, schedule, capacity, feasibility.

    A positive schedule pressure above ``ws.p_max_kPa``, the pressure the
    workspace was solved up to, raises OutOfWorkspaceError.
    """
    sel = select_mode(obj, assembly, ws, stretch_margin_mm)
    if not sel.feasible:
        return GraspPlan(None, [], 0.0, False, sel.reason)
    schedule = pressure_schedule(sel.mode, **schedule_pressures)
    if sel.mode is GraspMode.CONTRACTION:
        capacity = contraction_capacity(
            obj, schedule[-1][1], calib, rest_aperture_mm=ws.rest_aperture_mm
        )
    elif sel.mode is GraspMode.EXPANSION:
        # No analytical model for expansion forces; quote the calibrated plateau.
        capacity = calib.lookup(obj.shape_class).plateau_N
    else:
        if suction_model is None:
            raise ValueError("suction mode selected but no suction model supplied")
        capacity = suction_force(
            suction_model, schedule[-1][1], lift_volume_increase_mm3
        )
    # Checked after the capacity, so that a suction pressure the solver box
    # cannot reach at all reports the box's own range.
    for label, p in schedule:
        if p > ws.p_max_kPa:
            raise OutOfWorkspaceError(
                f"schedule phase {label!r} at {p:g} kPa is outside the range "
                f"[0, {ws.p_max_kPa:g}] kPa the workspace was solved over (solver.p_max_kPa)",
                reachable=(0.0, ws.p_max_kPa),
            )
    return GraspPlan(sel.mode, schedule, capacity, True, sel.reason)
