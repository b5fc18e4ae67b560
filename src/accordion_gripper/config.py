"""Shared JSON configuration with full embedded defaults.

The tool runs with zero arguments; a user config file only needs to list
the keys it overrides.  Angles are degrees in the file and radians
internally; lengths are mm, pressures kPa.

Each default is read from the domain type that owns it.  The uninflated
(R0, R1, Theta0) are the lower corner of the published solver search box
(``SolverBox``), since the undeformed state must be reachable at zero
pressure; the ``validate`` report pins the implied rest aperture so silent
drift is caught.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import sys
from collections import namedtuple

from .chamber import QUAD_REL_TOL, THETA_TOL_RAD, ChamberGeometry, SolverBox
from .errors import ConfigError
from .grasp import AMBIENT_KPA, LIFT_VOLUME_INCREASE_MM3, SCHEDULE_KPA, SEAL_THRESHOLD_KPA
from .grasp import CapacityCalibration, CapacityEntry, SuctionModel
from .gripper import P_MAX_KPA, STRETCH_MARGIN_MM, GripperAssembly
from .material import HyperelasticMaterial

ENV_CONFIG_VAR = "GRIPPER_CONFIG"

# Default instances: each record's defaults live in its constructor.
_ASM = GripperAssembly(ChamberGeometry(), HyperelasticMaterial())
_BOX = SolverBox()

DEFAULT_CONFIG = {
    "geometry": {"R0_mm": _ASM.geometry.r_outer_0, "R1_mm": _ASM.geometry.r_inner_0,
                 "Theta0_deg": math.degrees(_ASM.geometry.half_angle_0)},
    "material": {"c1_kPa": _ASM.material.c1},
    "assembly": {"n_chambers": _ASM.n_chambers, "folded_aperture_mm": _ASM.folded_aperture_mm},
    "solver": {
        "box": {
            "r0_mm": list(_BOX.r_outer_range),
            "r1_mm": list(_BOX.r_inner_range),
            "theta0_deg": [math.degrees(a) for a in _BOX.half_angle_range],
        },
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

_CAPACITY_KEYS = set(CapacityEntry._fields)
_DEFAULT_BYTES = marshal.dumps(DEFAULT_CONFIG)


def default_config() -> dict:
    return marshal.loads(_DEFAULT_BYTES)  # a fresh deep copy


def read_json(path):
    """The JSON value in ``path``; a decode error becomes a ValueError that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from None


def _require_finite(value, where: str):
    # json accepts NaN, Infinity and integers beyond the float range.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"config key {where} must be a finite number, got {value!r}")
    return value


def _merge(default, value, where: str = ""):
    """``value`` laid over ``default`` in new dicts and lists, in one walk that gives it
    the shape of ``default``: an object, a [lo, hi] pair of finite numbers, a finite
    number or an integer."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {where} must be an object, got {value!r}")
        out = dict(default)
        for key, item in value.items():
            at = f"{where}.{key}" if where else key
            if key in default:
                out[key] = _merge(default[key], item, at)
            elif where == "capacity":  # open-ended shapes: see _capacity_entries
                out[key] = item
            else:
                raise ConfigError(f"unknown config key {at!r}")
        return out
    if isinstance(default, list):
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(f"config key {where} must be a [lo, hi] number pair, got {value!r}")
        return [_require_finite(item, where) for item in value]
    _require_finite(value, where)
    if isinstance(default, int) and int(value) != value:
        raise ConfigError(f"{where} must be an integer, got {value}")
    return value


def load_config(path: str | None = None) -> dict:
    """Load defaults, optionally merged with a user JSON file.

    The path comes from the argument or the GRIPPER_CONFIG environment
    variable; when neither is set the embedded defaults are used.
    """
    path = path or os.environ.get(ENV_CONFIG_VAR)
    cfg = default_config()
    if path:
        try:
            user = read_json(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(user, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(user).__name__}")
        cfg = _merge(cfg, user)
    return cfg


class ModelContext(namedtuple("ModelContext", "config geometry material assembly box capacity "
                                              "theta_tol_rad quad_rel_tol p_max_kPa")):
    """Validated domain objects and knobs built from one config dict."""

    __slots__ = ()

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelContext":
        """A context from ``cfg``; a key it leaves out takes its default."""
        cfg = _merge(default_config(), cfg)
        geo, solver, box_cfg = cfg["geometry"], cfg["solver"], cfg["solver"]["box"]
        try:
            geometry = ChamberGeometry(
                r_outer_0=float(geo["R0_mm"]),
                r_inner_0=float(geo["R1_mm"]),
                half_angle_0=math.radians(geo["Theta0_deg"]),
            )
            material = HyperelasticMaterial(c1=float(cfg["material"]["c1_kPa"]))
            assembly = GripperAssembly(
                geometry=geometry,
                material=material,
                n_chambers=int(cfg["assembly"]["n_chambers"]),
                folded_aperture_mm=float(cfg["assembly"]["folded_aperture_mm"]),
            )
            box = SolverBox(
                r_outer_range=tuple(map(float, box_cfg["r0_mm"])),
                r_inner_range=tuple(map(float, box_cfg["r1_mm"])),
                half_angle_range=tuple(map(math.radians, box_cfg["theta0_deg"])),
            )
            capacity = CapacityCalibration(
                entries={
                    name: CapacityEntry(**{
                        key: float(_require_finite(v, f"capacity.{name}.{key}"))
                        for key, v in entry.items()
                    })
                    for name, entry in _capacity_entries(cfg).items()
                }
            )
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if box.half_angle_range[1] <= geometry.half_angle_0:
            raise ConfigError(
                f"solver.box.theta0_deg ends at {box_cfg['theta0_deg'][1]} deg, at or below the "
                f"rest angle Theta0 = {geo['Theta0_deg']} deg: no pressure > 0 is reachable"
            )
        return cls(
            config=cfg,
            geometry=geometry,
            material=material,
            assembly=assembly,
            box=box,
            capacity=capacity,
            theta_tol_rad=float(solver["theta_tol_rad"]),
            quad_rel_tol=float(solver["quad_rel_tol"]),
            p_max_kPa=float(solver["p_max_kPa"]),
        )

    def suction_model(self) -> SuctionModel:
        suction = self.config["suction"]
        return SuctionModel.from_assembly(
            self.assembly,
            effective_seal_area_mm2=float(suction["A_eff_mm2"]),
            h_eff_mm=float(suction["h_eff_mm"]),
            ambient_pressure_kPa=float(suction["ambient_kPa"]),
            box=self.box,
            tol=self.theta_tol_rad,
            seal_threshold_kPa=float(suction["seal_threshold_kPa"]),
        )


def _capacity_entries(cfg: dict) -> dict:
    for name, entry in cfg["capacity"].items():
        if not isinstance(entry, dict):
            raise ConfigError(f"capacity.{name} must be an object")
        unknown = set(entry) - _CAPACITY_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in capacity.{name}: {sorted(unknown)}")
        for key in ("slope_N_per_kPa", "plateau_N"):
            if key not in entry:
                raise ConfigError(f"capacity.{name} missing {key!r}")
    return cfg["capacity"]


def load_context(path: str | None = None) -> ModelContext:
    return ModelContext.from_config(load_config(path))
