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
from functools import reduce

from .chamber import QUAD_REL_TOL, THETA_TOL_RAD, ChamberGeometry, SolverBox
from .chamber import reachable_pressure_range, wall_distance_at_angle
from .errors import ConfigError
from .grasp import AMBIENT_KPA, LIFT_VOLUME_INCREASE_MM3, SCHEDULE_KPA, SEAL_THRESHOLD_KPA
from .grasp import CapacityCalibration, CapacityEntry, GraspMode, SuctionModel
from .grasp import check_lift_volume, check_seal, pressure_schedule
from .gripper import P_MAX_KPA, STRETCH_MARGIN_MM, GripperAssembly, aperture_vs_pressure
from .gripper import check_stretch_margin
from .material import HyperelasticMaterial
from .records import Record

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


def _check_opens(geometry, box) -> None:
    """Reject a model whose wall distance D, and so its aperture, does not grow under
    inflation: dD/dtheta0 <= 0 at Theta0, or D(top) <= D(Theta0), each in closed form."""
    r0, r1, rest = geometry[:3]
    slope = 2.0 * (r1 / math.sin(rest)
                   - (r1 * r1 / math.tan(rest) + (r0 * r0 - r1 * r1) / (2.0 * rest)) / r0)
    d_rest, d_hi = (wall_distance_at_angle(geometry, t) for t in (rest, box.half_angle_max))
    if not (slope > 0 and d_hi > d_rest):
        raise ValueError(f"they close the aperture under inflation (dD/dtheta0 {slope:.6g} mm/rad "
                         f"at rest; D {d_rest:.6g} mm at rest, {d_hi:.6g} mm at the box top)")


class ModelContext(Record, fields="config geometry material assembly box capacity theta_tol_rad "
                                  "quad_rel_tol p_max_kPa suction"):
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

        def keys(*paths: str) -> str:
            """Each config key in ``paths`` with its value: the lead of an error about them."""
            return ", ".join(f"{p} {reduce(dict.get, p.split('.'), cfg)}" for p in paths) + ": "

        def named(lead, build, *args, **kwargs):
            """``build(*args, **kwargs)``; a ValueError or ArithmeticError (e.g. a float overflow
            or a 1/0) becomes the config error, led by ``lead``: a tuple of config keys, shown
            with their values, or a string put before the message as it is."""
            try:
                return build(*args, **kwargs)
            except (ValueError, ArithmeticError) as exc:
                lead = lead if isinstance(lead, str) else keys(*lead)
                raise ConfigError(f"invalid config: {lead}{exc}") from exc

        geo_keys = ("geometry.R0_mm", "geometry.R1_mm", "geometry.Theta0_deg")
        top_key, schedule = "solver.box.theta0_max_deg", {key: grasp[key] for key in SCHEDULE_KPA}
        try:
            geometry = named(geo_keys, ChamberGeometry, geo["R0_mm"], geo["R1_mm"],
                             math.radians(geo["Theta0_deg"]))
            material = named(("material.c1_kPa",), HyperelasticMaterial, cfg["material"]["c1_kPa"])
            assembly = named(("assembly.n_chambers", "assembly.folded_aperture_mm"),
                             GripperAssembly, geometry, material, **cfg["assembly"])
            box = named((top_key,), SolverBox, math.radians(solver["box"]["theta0_max_deg"]))
            # A CapacityEntry's message starts with the field's name.
            capacity = CapacityCalibration({name: named(f"capacity.{name}.", CapacityEntry, **entry)
                                            for name, entry in cfg["capacity"].items()})
            top = named((*geo_keys, top_key), reachable_pressure_range, geometry, material, box)[1]
            named((*geo_keys, top_key), _check_opens, geometry, box)
            if not math.isfinite(top):
                raise ValueError(f"{keys('material.c1_kPa', top_key)}c1 times the pressure at a "
                                 "bracket end overflows")
            if solver["p_max_kPa"] < 0:
                raise ValueError(f"solver.p_max_kPa must be >= 0, got {solver['p_max_kPa']}")
            for key in ("quad_rel_tol", "theta_tol_rad"):
                if solver[key] <= 0:
                    raise ValueError(f"solver.{key} must be positive, got {solver[key]}")
            rest = aperture_vs_pressure(assembly, 0.0, box, solver["theta_tol_rad"])
            if assembly.folded_aperture_mm > rest:
                raise ValueError(f"assembly.folded_aperture_mm {assembly.folded_aperture_mm} must "
                                 f"not exceed the rest aperture R_g(0) = {rest:.9g} mm")
            model = named(("suction.A_eff_mm2", "suction.h_eff_mm", "suction.ambient_kPa",
                           "suction.seal_threshold_kPa"), SuctionModel.from_assembly,
                          assembly, suction["A_eff_mm2"], suction["h_eff_mm"],
                          suction["ambient_kPa"], box, solver["theta_tol_rad"],
                          suction["seal_threshold_kPa"])
            named(("grasp.suction_kPa", "suction.seal_threshold_kPa"), check_seal,
                  grasp["suction_kPa"], suction["seal_threshold_kPa"])
            named(("suction.lift_volume_increase_mm3",), check_lift_volume,
                  suction["lift_volume_increase_mm3"])
            named(("grasp.stretch_margin_mm",), check_stretch_margin, grasp["stretch_margin_mm"])
            for mode in GraspMode:
                named([f"grasp.{key}" for key in schedule], pressure_schedule, mode, **schedule)
        except (ValueError, ArithmeticError) as exc:  # a rule of the config's own
            raise ConfigError(f"invalid config: {exc}") from exc
        return cls(cfg, geometry, material, assembly, box, capacity, solver["theta_tol_rad"],
                   solver["quad_rel_tol"], solver["p_max_kPa"], model)

    def suction_model(self) -> SuctionModel:
        """The configured suction model, built once with the context."""
        return self.suction


def load_context(path: str | None = None) -> ModelContext:
    """The context of ``path`` or $GRIPPER_CONFIG, merged onto the defaults in one walk."""
    return ModelContext.from_config(_user_config(path))
