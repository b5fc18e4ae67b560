"""Shared JSON configuration with full embedded defaults.

The tool runs with zero arguments; a user config file only needs to list
the keys it overrides.  Angles are degrees in the file and radians
internally; lengths are mm, pressures kPa.

Each default is read from the domain type that owns it.  The uninflated
(R0, R1, Theta0) are the lower corner of the published search box
(``chamber.PUBLISHED_BOX``), since the undeformed state must be reachable at
zero pressure; the ``validate`` report pins the implied rest aperture so silent
drift is caught.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import sys
from collections import namedtuple

from .chamber import QUAD_REL_TOL, THETA_TOL_RAD, ChamberGeometry, SolverBox, _box_end_pressures
from .chamber import _radii, _wall_distance
from .errors import ConfigError
from .grasp import AMBIENT_KPA, LIFT_VOLUME_INCREASE_MM3, SCHEDULE_KPA, SEAL_THRESHOLD_KPA
from .grasp import CapacityCalibration, CapacityEntry, GraspMode, SuctionModel
from .grasp import check_lift_volume, pressure_schedule
from .gripper import P_MAX_KPA, STRETCH_MARGIN_MM, GripperAssembly, aperture_vs_pressure
from .gripper import check_stretch_margin
from .material import HyperelasticMaterial

ENV_CONFIG_VAR = "GRIPPER_CONFIG"

# Default instances: each record's defaults live in its constructor.
_ASM = GripperAssembly(ChamberGeometry(), HyperelasticMaterial())

DEFAULT_CONFIG = {
    "geometry": {"R0_mm": _ASM.geometry.r_outer_0, "R1_mm": _ASM.geometry.r_inner_0,
                 "Theta0_deg": math.degrees(_ASM.geometry.half_angle_0)},
    "material": {"c1_kPa": _ASM.material.c1},
    "assembly": {"n_chambers": _ASM.n_chambers, "folded_aperture_mm": _ASM.folded_aperture_mm},
    "solver": {
        "box": {"theta0_max_deg": math.degrees(SolverBox().half_angle_max)},
        "theta_tol_rad": THETA_TOL_RAD,
        "quad_rel_tol": QUAD_REL_TOL,
        "p_max_kPa": P_MAX_KPA,
    },
    "suction": {
        "ambient_kPa": AMBIENT_KPA,
        "A_eff_mm2": 2264.0,
        "h_eff_mm": 53.0,
        "lift_volume_increase_mm3": LIFT_VOLUME_INCREASE_MM3,
        "seal_threshold_kPa": SEAL_THRESHOLD_KPA,
    },
    "grasp": {"stretch_margin_mm": STRETCH_MARGIN_MM, **SCHEDULE_KPA},
    "capacity": {name: e._asdict() for name, e in CapacityCalibration.defaults().entries.items()},
}

# A capacity shape the defaults lack takes a CapacityEntry's fields; None marks a required one.
_REQUIRED = len(CapacityEntry._fields) - len(CapacityEntry.__new__.__defaults__)
_NEW_CAPACITY = dict(zip(CapacityEntry._fields,
                         (None,) * _REQUIRED + CapacityEntry.__new__.__defaults__))
_DEFAULT_BYTES = marshal.dumps(DEFAULT_CONFIG)


def default_config() -> dict:
    return marshal.loads(_DEFAULT_BYTES)  # a fresh deep copy


def read_json(path):
    """The JSON value in ``path``; a decode error becomes a ValueError that names the file."""
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from None


def _merge(default, value, where: str = ""):
    """``value`` laid over ``default`` in new dicts, in one walk that gives it the shape
    of ``default``: an object or a finite number, each number in the type of its default
    (an int for an int, else a float)."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {where} must be an object, got {value!r}")
        out = dict(default)
        for key, item in value.items():
            at = f"{where}.{key}" if where else key
            if key in default:
                out[key] = _merge(default[key], item, at)
            elif where == "capacity":
                out[key] = _merge(_NEW_CAPACITY, item, at)
                missing = [field for field, number in out[key].items() if number is None]
                if missing:
                    raise ConfigError(f"config key {at} missing {missing[0]!r}")
            else:
                raise ConfigError(f"unknown config key {at!r}")
        return out
    # json accepts NaN, Infinity and integers beyond the float range.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"config key {where} must be a finite number, got {value!r}")
    if isinstance(default, int):
        if int(value) != value:
            raise ConfigError(f"{where} must be an integer, got {value}")
        return int(value)
    return float(value)


def _user_config(path: str | None) -> dict:
    """The JSON object in ``path`` or $GRIPPER_CONFIG; {} when neither is set."""
    path = path or os.environ.get(ENV_CONFIG_VAR)
    if not path:
        return {}
    try:
        user = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(user, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(user).__name__}")
    return user


def load_config(path: str | None = None) -> dict:
    """Load defaults, optionally merged with a user JSON file.

    The path comes from the argument or the GRIPPER_CONFIG environment
    variable; when neither is set the embedded defaults are used.
    """
    return _merge(default_config(), _user_config(path))


def _check_box(geometry, box, geo, box_cfg) -> None:
    """Reject a model whose c1 = 1 kPa pressure at an end of the bracket [Theta0, top] is
    not finite, or whose wall distance D, and so its aperture, does not grow under
    inflation: dD/dtheta0 <= 0 at Theta0, or D(top) <= D(Theta0), each in closed form.

    Every solve scales that unit pressure pair by c1, so the first solve finds it stored.
    """
    keys = (f"geometry.R0_mm {geo['R0_mm']}, geometry.R1_mm {geo['R1_mm']} and geometry."
            f"Theta0_deg {geo['Theta0_deg']} with solver.box.theta0_max_deg "
            f"{box_cfg['theta0_max_deg']}")
    try:
        ends = _box_end_pressures(geometry, box.half_angle_max)
        fault = "" if all(map(math.isfinite, ends)) else f"they are {ends[0]} and {ends[1]} kPa"
    except (ValueError, ArithmeticError) as exc:  # e.g. r1**2 underflowing to 0 in a 1/r1**2
        fault = exc
    if fault:
        raise ValueError(f"{keys} give no finite pressure at the bracket ends ({fault})")
    r0, r1, rest = geometry[:3]
    slope = 2.0 * (r1 / math.sin(rest)
                   - (r1 * r1 / math.tan(rest) + (r0 * r0 - r1 * r1) / (2.0 * rest)) / r0)
    d_rest, d_hi = (_wall_distance(*_radii(geometry, t), t) for t in (rest, box.half_angle_max))
    if not (slope > 0 and d_hi > d_rest):
        raise ValueError(
            f"{keys} close the aperture under inflation (dD/dtheta0 {slope:.6g} mm/rad at "
            f"rest; D {d_rest:.6g} mm at rest, {d_hi:.6g} mm at the box top)")


class ModelContext(namedtuple("ModelContext", "config geometry material assembly box capacity "
                                              "theta_tol_rad quad_rel_tol p_max_kPa suction")):
    """Validated domain objects and knobs built from one config dict."""

    __slots__ = ()

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelContext":
        """A context from ``cfg``; a key it leaves out takes its default.

        The one place a config value is typed, checked and built into a record,
        so a value out of range is a ConfigError whichever command reads it.
        """
        cfg = _merge(default_config(), cfg)
        geo, solver, suction, grasp = cfg["geometry"], cfg["solver"], cfg["suction"], cfg["grasp"]
        box_cfg = solver["box"]
        try:
            geometry = ChamberGeometry(geo["R0_mm"], geo["R1_mm"], math.radians(geo["Theta0_deg"]))
            try:
                material = HyperelasticMaterial(cfg["material"]["c1_kPa"])
            except ValueError as exc:
                raise ValueError(f"material.c1_kPa: {exc}") from None
            assembly = GripperAssembly(geometry, material, cfg["assembly"]["n_chambers"],
                                       cfg["assembly"]["folded_aperture_mm"])
            box = SolverBox(math.radians(box_cfg["theta0_max_deg"]))
            entries = {}
            for name, entry in cfg["capacity"].items():
                try:
                    entries[name] = CapacityEntry(**entry)
                except ValueError as exc:  # its message starts with the field's name
                    raise ValueError(f"capacity.{name}.{exc}") from None
            capacity = CapacityCalibration(entries)
            if not geometry.half_angle_0 < box.half_angle_max:
                raise ValueError(
                    f"solver.box.theta0_max_deg {box_cfg['theta0_max_deg']} is at or below the "
                    f"rest angle Theta0 = {geo['Theta0_deg']} deg; it must lie above it")
            _check_box(geometry, box, geo, box_cfg)
            ends = _box_end_pressures(geometry, box.half_angle_max)
            if not all(math.isfinite(material.c1 * q) for q in ends):
                raise ValueError(f"material.c1_kPa {material.c1} with solver.box.theta0_max_deg "
                                 f"{box_cfg['theta0_max_deg']} overflows the pressure at a "
                                 "bracket end")
            if solver["p_max_kPa"] < 0:
                raise ValueError(f"solver.p_max_kPa must be >= 0, got {solver['p_max_kPa']}")
            if solver["quad_rel_tol"] <= 0:
                raise ValueError(
                    f"solver.quad_rel_tol must be positive, got {solver['quad_rel_tol']}")
            if solver["theta_tol_rad"] <= 0:
                raise ValueError(
                    f"solver.theta_tol_rad must be positive, got {solver['theta_tol_rad']}")
            rest = aperture_vs_pressure(assembly, 0.0, box, solver["theta_tol_rad"])
            if assembly.folded_aperture_mm > rest:
                raise ValueError(f"assembly.folded_aperture_mm {assembly.folded_aperture_mm} must "
                                 f"not exceed the rest aperture R_g(0) = {rest:.9g} mm")
            model = SuctionModel.from_assembly(
                assembly, suction["A_eff_mm2"], suction["h_eff_mm"], suction["ambient_kPa"], box,
                solver["theta_tol_rad"], suction["seal_threshold_kPa"])
            check_lift_volume(suction["lift_volume_increase_mm3"])
            check_stretch_margin(grasp["stretch_margin_mm"])
            for mode in GraspMode:
                pressure_schedule(mode, **{key: grasp[key] for key in SCHEDULE_KPA})
        except (ValueError, ArithmeticError) as exc:  # e.g. a float overflow or a 1/0
            raise ConfigError(f"invalid config: {exc}") from exc
        return cls(cfg, geometry, material, assembly, box, capacity, solver["theta_tol_rad"],
                   solver["quad_rel_tol"], solver["p_max_kPa"], model)

    def suction_model(self) -> SuctionModel:
        """The configured suction model, built once with the context."""
        return self.suction


def load_context(path: str | None = None) -> ModelContext:
    """The context of ``path`` or $GRIPPER_CONFIG, merged onto the defaults in one walk."""
    return ModelContext.from_config(_user_config(path))
