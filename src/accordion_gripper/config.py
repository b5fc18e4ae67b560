"""Shared JSON configuration with full embedded defaults.

The tool runs with zero arguments; a user config file only needs to list
the keys it overrides.  Angles are degrees in the file and radians
internally; lengths are mm, pressures kPa.

Note on the geometry defaults: the uninflated (R0, R1, Theta0) were
inferred as the lower corner of the published solver search box, since the
undeformed state must be reachable at zero pressure.  They are
configurable, and the ``validate`` report pins the implied rest aperture
so silent drift is caught.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, fields

from .chamber import THETA_TOL_RAD, ChamberGeometry, SolverBox
from .errors import ConfigError
from .grasp import AMBIENT_KPA, LIFT_VOLUME_INCREASE_MM3, SCHEDULE_KPA
from .grasp import CapacityCalibration, CapacityEntry, SuctionModel
from .gripper import P_MAX_KPA, STRETCH_MARGIN_MM, GripperAssembly
from .material import HyperelasticMaterial

ENV_CONFIG_VAR = "GRIPPER_CONFIG"

DEFAULT_CONFIG = {
    "geometry": {"R0_mm": 4.56, "R1_mm": 3.0, "Theta0_deg": 57.6},
    "material": {"c1_kPa": 119.0},
    "assembly": {"n_chambers": GripperAssembly.n_chambers, "folded_aperture_mm": 5.0},
    "solver": {
        "box": {
            "r0_mm": [4.56, 5.0],
            "r1_mm": [3.0, 3.8],
            "theta0_deg": [57.6, 80.0],
        },
        "theta_tol_rad": THETA_TOL_RAD,
        "quad_rel_tol": 1e-9,
        "p_max_kPa": P_MAX_KPA,
    },
    "suction": {
        "ambient_kPa": AMBIENT_KPA,
        "A_eff_mm2": 2264.0,
        "h_eff_mm": 53.0,
        "lift_volume_increase_mm3": LIFT_VOLUME_INCREASE_MM3,
        "seal_threshold_kPa": 0.0,
    },
    "grasp": {"stretch_margin_mm": STRETCH_MARGIN_MM, **SCHEDULE_KPA},
    "capacity": {name: asdict(e) for name, e in CapacityCalibration.defaults().entries.items()},
}

_CAPACITY_KEYS = {f.name for f in fields(CapacityEntry)}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base and path != "capacity":
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require_finite(value, where: str):
    # json accepts NaN and Infinity.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"config key {where} must be a finite number, got {value!r}")
    return value


def _require_number(cfg: dict, section: str, key: str):
    try:
        value = cfg[section][key]
    except (KeyError, TypeError):
        raise ConfigError(f"missing config key {section}.{key}") from None
    return _require_finite(value, f"{section}.{key}")


def _require_pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"config key {where} must be a [lo, hi] number pair, got {value!r}")
    return float(_require_finite(value[0], where)), float(_require_finite(value[1], where))


def load_config(path: str | None = None) -> dict:
    """Load defaults, optionally merged with a user JSON file.

    The path comes from the argument or the GRIPPER_CONFIG environment
    variable; when neither is set the embedded defaults are used.
    """
    path = path or os.environ.get(ENV_CONFIG_VAR)
    cfg = default_config()
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(user).__name__}")
        cfg = _merge(cfg, user)
    return cfg


@dataclass(frozen=True)
class ModelContext:
    """Validated domain objects and knobs built from one config dict."""

    config: dict
    geometry: ChamberGeometry
    material: HyperelasticMaterial
    assembly: GripperAssembly
    box: SolverBox
    capacity: CapacityCalibration
    theta_tol_rad: float
    quad_rel_tol: float
    p_max_kPa: float

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelContext":
        try:
            geometry = ChamberGeometry(
                r_outer_0=float(_require_number(cfg, "geometry", "R0_mm")),
                r_inner_0=float(_require_number(cfg, "geometry", "R1_mm")),
                half_angle_0=math.radians(_require_number(cfg, "geometry", "Theta0_deg")),
            )
            material = HyperelasticMaterial(c1=float(_require_number(cfg, "material", "c1_kPa")))
            n_chambers = _require_number(cfg, "assembly", "n_chambers")
            if int(n_chambers) != n_chambers:
                raise ConfigError(f"assembly.n_chambers must be an integer, got {n_chambers}")
            assembly = GripperAssembly(
                geometry=geometry,
                material=material,
                n_chambers=int(n_chambers),
                folded_aperture_mm=float(
                    _require_number(cfg, "assembly", "folded_aperture_mm")
                ),
            )
            box_cfg = cfg["solver"]["box"]
            theta_lo, theta_hi = _require_pair(box_cfg.get("theta0_deg"), "solver.box.theta0_deg")
            box = SolverBox(
                r_outer_range=_require_pair(box_cfg.get("r0_mm"), "solver.box.r0_mm"),
                r_inner_range=_require_pair(box_cfg.get("r1_mm"), "solver.box.r1_mm"),
                half_angle_range=(math.radians(theta_lo), math.radians(theta_hi)),
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
            for section in ("suction", "grasp"):
                for key in DEFAULT_CONFIG[section]:
                    _require_number(cfg, section, key)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        return cls(
            config=cfg,
            geometry=geometry,
            material=material,
            assembly=assembly,
            box=box,
            capacity=capacity,
            theta_tol_rad=float(_require_number(cfg, "solver", "theta_tol_rad")),
            quad_rel_tol=float(_require_number(cfg, "solver", "quad_rel_tol")),
            p_max_kPa=float(_require_number(cfg, "solver", "p_max_kPa")),
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
    table = cfg.get("capacity")
    if not isinstance(table, dict) or not table:
        raise ConfigError("config key 'capacity' must be a non-empty object")
    for name, entry in table.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"capacity.{name} must be an object")
        unknown = set(entry) - _CAPACITY_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in capacity.{name}: {sorted(unknown)}")
        for key in ("slope_N_per_kPa", "plateau_N"):
            if key not in entry:
                raise ConfigError(f"capacity.{name} missing {key!r}")
    return table


def load_context(path: str | None = None) -> ModelContext:
    return ModelContext.from_config(load_config(path))
