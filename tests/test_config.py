import copy
import json
import math
import pickle
import sys
from collections import namedtuple

import pytest

from accordion_gripper import (
    CalibrationError,
    CapacityCalibration,
    CapacityEntry,
    ChamberGeometry,
    ConfigError,
    DeformedState,
    GraspMode,
    GraspPlan,
    GripperAssembly,
    HyperelasticMaterial,
    ObjectDescriptor,
    ShapeClass,
    SolverBox,
    SuctionModel,
    aperture_vs_pressure,
    plan_grasp,
    select_mode,
    solve_deformation,
    sweep,
    workspace,
)
from accordion_gripper.calibration import FitReport, MeasurementSeries, SeriesKind
from accordion_gripper.chamber import QUAD_REL_TOL
from accordion_gripper.config import (
    DEFAULT_CONFIG,
    ENV_CONFIG_VAR,
    ModelContext,
    default_config,
    load_config,
    load_context,
)
from accordion_gripper.grasp import SEAL_THRESHOLD_KPA, sealed_volume
from accordion_gripper.records import Record


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_default_config_is_a_copy():
    cfg = default_config()
    cfg["material"]["c1_kPa"] = 1.0
    assert DEFAULT_CONFIG["material"]["c1_kPa"] == 119.0


def test_load_config_without_path_uses_defaults(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)
    assert load_config() == DEFAULT_CONFIG


def test_load_config_merges_overrides(tmp_path):
    path = write_config(tmp_path, {"material": {"c1_kPa": 80.0}})
    cfg = load_config(path)
    assert cfg["material"]["c1_kPa"] == 80.0
    assert cfg["geometry"]["R0_mm"] == 4.56


def test_load_config_env_var(tmp_path, monkeypatch):
    path = write_config(tmp_path, {"assembly": {"n_chambers": 16}})
    monkeypatch.setenv(ENV_CONFIG_VAR, path)
    assert load_config()["assembly"]["n_chambers"] == 16


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, {"materiel": {"c1_kPa": 80.0}})
    with pytest.raises(ConfigError, match="unknown config key 'materiel'"):
        load_config(path)
    path = write_config(tmp_path, {"material": {"c2_kPa": 80.0}}, "b.json")
    with pytest.raises(ConfigError, match="material.c2_kPa"):
        load_config(path)


def test_load_config_allows_new_capacity_shapes(tmp_path):
    path = write_config(
        tmp_path,
        {"capacity": {"cone": {"slope_N_per_kPa": 0.4, "plateau_N": 8}}},
    )
    ctx = ModelContext.from_config(load_config(path))
    # The fields left out take the record's defaults, in the config too.
    assert ctx.capacity.entries["cone"] == CapacityEntry(0.4, 8.0)
    assert ctx.config["capacity"]["cone"] == CapacityEntry(0.4, 8.0)._asdict()
    assert type(ctx.config["capacity"]["cone"]["plateau_N"]) is float
    # Defaults survive the merge.
    assert ctx.capacity.entries["cylinder"].plateau_N == 20.0


def test_config_numbers_take_their_default_type(tmp_path):
    ints = {
        "geometry": {"R0_mm": 5, "R1_mm": 3, "Theta0_deg": 58},
        "material": {"c1_kPa": 150},
        "assembly": {"n_chambers": 16.0, "folded_aperture_mm": 4},
        "solver": {"box": {"theta0_max_deg": 80}, "p_max_kPa": 30},
        "suction": {"A_eff_mm2": 2000, "seal_threshold_kPa": 0},
        "grasp": {"open_kPa": 30, "stretch_margin_mm": 8},
        "capacity": {"cone": {"slope_N_per_kPa": 1, "plateau_N": 8}},
    }
    ctx = load_context(write_config(tmp_path, ints))

    def numbers(value):
        if isinstance(value, dict):
            return [n for item in value.values() for n in numbers(item)]
        return [value]

    n_chambers = ctx.config["assembly"].pop("n_chambers")
    assert type(n_chambers) is int and n_chambers == ctx.assembly.n_chambers == 16
    assert {type(n) for n in numbers(ctx.config)} == {float}
    built = (ctx.material.c1, ctx.p_max_kPa, *ctx.box,
             *ctx.capacity.entries["cone"])
    assert {type(n) for n in built} == {float}


def test_load_context_walks_the_config_once(tmp_path, monkeypatch):
    import accordion_gripper.config as config

    walks = []
    real = config._merge

    def spy(default, value, where=""):
        walks.append(where)
        return real(default, value, where)

    monkeypatch.setattr(config, "_merge", spy)
    path = write_config(tmp_path, {"material": {"c1_kPa": 80.0}})
    assert load_context(path).config == real(default_config(), {"material": {"c1_kPa": 80.0}})
    assert walks.count("") == 1


def test_context_suction_model_runs_no_solve(monkeypatch):
    import accordion_gripper.gripper as gripper

    ctx = load_context(None)
    monkeypatch.setattr(gripper, "solve_deformation", None)  # any solve would fail
    assert ctx.suction_model() is ctx.suction_model() is ctx.suction


def test_load_context_runs_no_solver(monkeypatch):
    # The rest state, which the suction model's rest volume reads, is the geometry.
    import accordion_gripper.chamber as chamber

    calls, real = [], chamber._brent

    def brent(*args):  # the body every solve and inverse runs
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chamber, "_brent", brent)
    ctx = load_context(None)
    assert calls == []
    chamber.solve_deformation(ctx.geometry, ctx.material, 20.0)  # the spy sees a solve
    assert len(calls) == 1


@pytest.mark.parametrize(
    "payload, value",
    [
        ({"geometry": {"R1_mm": 1e-300}}, "geometry.R1_mm 1e-300"),
        ({"geometry": {"Theta0_deg": 1e-300}}, "geometry.Theta0_deg 1e-300"),
    ],
    ids=["R1-underflows", "box-angle-underflows"],
)
def test_config_without_finite_box_end_pressures_names_the_keys(tmp_path, payload, value):
    # Both load as numbers, but at the box top 1/r1**2 divides by an r1**2 that underflows
    # to 0: r1 = R1*sin(Theta0)/sin(top).
    with pytest.raises(ConfigError) as info:
        load_context(write_config(tmp_path, payload))
    message = str(info.value)
    assert value in message
    assert all(key in message
               for key in ("geometry.R0_mm", "geometry.R1_mm", "geometry.Theta0_deg",
                           "solver.box.theta0_max_deg"))
    assert "float division by zero" in message


def test_load_context_stores_the_box_end_pressures_the_first_solve_reads():
    import accordion_gripper.chamber as chamber

    ctx = ModelContext.from_config({"material": {"c1_kPa": 131.0}})
    before = chamber._box_end_pressures.cache_info()
    solve_deformation(ctx.geometry, ctx.material, 12.5, ctx.box, ctx.theta_tol_rad)
    after = chamber._box_end_pressures.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_load_config_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(lst))


def test_context_from_defaults(ctx):
    assert ctx.geometry.r_outer_0 == 4.56
    assert ctx.geometry.half_angle_0 == pytest.approx(math.radians(57.6))
    assert ctx.material.c1 == 119.0
    assert ctx.assembly.n_chambers == 22
    assert ctx.box.half_angle_max == pytest.approx(math.radians(80.0))
    assert ctx.p_max_kPa == 40.0
    assert ctx.capacity.lookup("sphere").slope_N_per_kPa == 0.75
    # Every default is the domain type's own.
    assert ctx.geometry == ChamberGeometry()
    assert ctx.material == HyperelasticMaterial()
    assert ctx.box == SolverBox() and SolverBox._fields == ("half_angle_max",)
    assert default_config()["solver"]["box"] == {"theta0_max_deg": 80.0}
    assert ctx.capacity == CapacityCalibration.defaults()
    assert ctx.quad_rel_tol == QUAD_REL_TOL
    assert ctx.suction_model().seal_threshold_kPa == SEAL_THRESHOLD_KPA


def test_context_rejects_bad_values(tmp_path):
    cases = [
        {"material": {"c1_kPa": -5.0}},
        {"material": {"c1_kPa": "soft"}},
        {"assembly": {"n_chambers": 21.5}},
        {"geometry": {"Theta0_deg": 0.0}},
        {"solver": {"box": {"theta0_max_deg": [80.0]}}},
        {"solver": {"box": 5}},
        {"solver": {"box": {"theta0_max_deg": 50.0}}},
        {"solver": {"box": {"theta0_max_deg": 57.6}}},  # ends at the rest angle
        {"solver": {"box": {"theta0_max_deg": 90.0}}},  # at pi/2
        {"capacity": {"cone": {"plateau_N": 8.0}}},
        {"capacity": {"cone": {"slope_N_per_kPa": 0.4, "plateau_N": 8.0, "hue": 1}}},
    ]
    for i, payload in enumerate(cases):
        path = write_config(tmp_path, payload, f"case{i}.json")
        with pytest.raises(ConfigError):
            load_context(path)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"solver": {"box": 5}}, "config key solver.box must be an object, got 5"),
        ({"solver": {"box": {"theta0_max_deg": "x"}}},
         "config key solver.box.theta0_max_deg must be a finite"),
        ({"solver": {"box": {"theta0_deg": [57.6, 80.0]}}},
         "unknown config key 'solver.box.theta0_deg'"),
        ({"assembly": {"n_chambers": 21.5}}, "assembly.n_chambers must be an integer"),
        ({"capacity": 5}, "config key capacity must be an object"),
        ({"capacity": {"cone": 5}}, "capacity.cone must be an object"),
        ({"capacity": {"cylinder": {"plateau_N": None}}},
         "config key capacity.cylinder.plateau_N must be a finite number"),
        ({"capacity": {"cone": {"plateau_N": 8.0}}},
         "config key capacity.cone missing 'slope_N_per_kPa'"),
        ({"capacity": {"cone": {"slope_N_per_kPa": 0.4}}},
         "config key capacity.cone missing 'plateau_N'"),
        ({"capacity": {"cone": {"slope_N_per_kPa": 0.4, "plateau_N": 8.0, "hue": 1}}},
         "unknown config key 'capacity.cone.hue'"),
        ({"solver": {"box": {"theta0_max_deg": 57.6}}},
         "geometry.Theta0_deg 57.6, solver.box.theta0_max_deg 57.6: the solver box top 57.6 deg "
         "is at or below the rest angle"),
        ({"solver": {"p_max_kPa": -5}}, "invalid config: solver.p_max_kPa must be >= 0, got -5.0"),
        ({"solver": {"quad_rel_tol": 0}},
         "invalid config: solver.quad_rel_tol must be positive, got 0.0"),
        ({"solver": {"theta_tol_rad": 0}},
         "invalid config: solver.theta_tol_rad must be positive, got 0.0"),
        # A record's own rule is led by the keys its fields came from, with their values.
        ({"solver": {"box": {"theta0_max_deg": 90}}},
         "invalid config: solver.box.theta0_max_deg 90.0: half_angle_max must lie in (0, pi/2)"),
        ({"geometry": {"Theta0_deg": 95}},
         "invalid config: geometry.R0_mm 4.56, geometry.R1_mm 3.0, geometry.Theta0_deg 95.0: "
         "require 0 < Theta0 < pi/2 rad"),
        ({"assembly": {"n_chambers": 2}},
         "invalid config: assembly.n_chambers 2, assembly.folded_aperture_mm 5.0: n_chambers "
         "must be an integer >= 3, got 2"),
    ],
)
def test_config_shape_errors_name_the_key(tmp_path, payload, message):
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError) as info:
        load_context(path)
    assert message in str(info.value)
    # A dict handed to from_config directly goes through the same checks.
    with pytest.raises(ConfigError) as info:
        ModelContext.from_config(payload)
    assert message in str(info.value)


def test_folded_aperture_may_reach_the_rest_aperture_but_not_pass_it():
    rest = aperture_vs_pressure(GripperAssembly(ChamberGeometry(), HyperelasticMaterial()), 0.0)
    ctx = ModelContext.from_config({"assembly": {"folded_aperture_mm": rest}})
    ws = workspace(ctx.assembly, ctx.p_max_kPa, ctx.box)
    assert ws.min_aperture_mm == ws.rest_aperture_mm == rest
    with pytest.raises(ConfigError, match=r"assembly\.folded_aperture_mm 20\.67"):
        ModelContext.from_config(
            {"assembly": {"folded_aperture_mm": math.nextafter(rest, math.inf)}})
    # The default 5 mm is above the rest aperture of a ring of 5 chambers or fewer.
    assert ModelContext.from_config({"assembly": {"n_chambers": 6}}).assembly.n_chambers == 6
    with pytest.raises(ConfigError, match=r"R_g\(0\) = 4\.69908091 mm"):
        ModelContext.from_config({"assembly": {"n_chambers": 5}})


def test_context_fills_missing_keys_from_defaults():
    ctx = ModelContext.from_config({"material": {"c1_kPa": 80.0}})
    assert ctx.material.c1 == 80.0
    assert ctx.geometry == ChamberGeometry()
    assert ctx.config == load_config() | {"material": {"c1_kPa": 80.0}}
    assert ModelContext.from_config({}) == ModelContext.from_config(load_config())


def test_context_suction_model(ctx):
    model = ctx.suction_model()
    assert model.effective_seal_area_mm2 == 2264.0
    assert model.rest_volume_mm3 == pytest.approx(
        math.pi * 20.675956017774557**2 * 53.0, rel=1e-9
    )


@pytest.fixture(scope="module")
def records(ctx):
    """One instance of each of the package's records, by class name."""
    asm = ctx.assembly
    ws = workspace(asm, ctx.p_max_kPa, ctx.box)
    obj = ObjectDescriptor(ShapeClass.CYLINDER, 40.0)
    found = [
        ctx, ctx.geometry, ctx.material, asm, ctx.box, ctx.capacity,
        ctx.capacity.lookup("sphere"), ctx.suction_model(), ws, obj,
        solve_deformation(ctx.geometry, ctx.material, 10.0),
        sweep(asm, 0.0, 10.0, 2)[0],
        select_mode(obj, ws),
        plan_grasp(obj, asm, ws, ctx.capacity),
        MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, [(10.0, 1.0), (20.0, 2.0)]),
        FitReport({"c1_kPa": 119.0}, 0.0, ()),
    ]
    return {type(r).__name__: r for r in found}


RECORDS = (
    "ModelContext", "ChamberGeometry", "HyperelasticMaterial", "GripperAssembly", "SolverBox",
    "CapacityCalibration", "CapacityEntry", "SuctionModel", "Workspace", "ObjectDescriptor",
    "DeformedState", "SweepRow", "ModeSelection", "GraspPlan", "MeasurementSeries", "FitReport",
)


def package_records() -> dict:
    """Every record class the package's modules define, by name; not the ``Record`` base."""
    package = [m for name, m in sys.modules.items() if name.startswith("accordion_gripper.")]
    return {
        name: v for m in package for name, v in vars(m).items()
        if isinstance(v, type) and issubclass(v, tuple) and v.__module__ == m.__name__
        and v is not Record
    }


def test_records_list_every_record():
    assert set(package_records()) == set(RECORDS)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a record holding a dict or a list
        return str(exc)


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaves_as_its_namedtuple(records, name):
    """Each record against a namedtuple of the same name and fields: repr, ``_asdict``
    and ``_fields``; equality and hash as a plain tuple; copy, deepcopy and pickle at
    every protocol give an equal record of the same class."""
    record = records[name]
    oracle = namedtuple(name, record._fields)(*record)
    assert record._fields == oracle._fields
    assert repr(record) == repr(oracle)
    assert list(record._asdict().items()) == list(oracle._asdict().items())
    assert record == oracle == tuple(record) and not record != tuple(record)
    assert hash_or_error(record) == hash_or_error(tuple(record)) == hash_or_error(oracle)
    copies = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert copied == record and type(copied) is type(record)


def test_a_record_without_its_own_constructor_is_built_positionally():
    """The base constructor fills the trailing defaults and refuses any other count."""
    assert FitReport({}, 0.0, ()) == ({}, 0.0, (), False, "", 0)
    for values in (({}, 0.0), ({}, 0.0, (), False, "", 0, None)):
        with pytest.raises(TypeError, match="FitReport takes 6 fields, got"):
            FitReport(*values)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen(records, name):
    record = records[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1.0


_ASM = GripperAssembly(ChamberGeometry(), HyperelasticMaterial())
_PLAN = GraspPlan(GraspMode.SUCTION, [("seal", 10.0)], 5.0, True, "flat")
_SERIES = MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, [(10.0, 1.0), (20.0, 2.0)])

#: For each record whose constructor checks its fields: the record, a change the
#: constructor rejects, the error it raises, a change it accepts, and the fresh record
#: that change should give.
REPLACE_CASES = {
    "HyperelasticMaterial": (HyperelasticMaterial(), {"c1": -5.0}, (ValueError, "positive"),
                             {"c1": 200.0}, HyperelasticMaterial(200.0)),
    "ChamberGeometry": (ChamberGeometry(), {"r_inner_0": 5.0}, (ValueError, "R1 < R0"),
                        {"half_angle_0": 1.0}, ChamberGeometry(half_angle_0=1.0)),
    "DeformedState": (DeformedState(4.5, 3.0, 1.0), {"r_inner": -1.0}, (ValueError, "r1 < r0"),
                      {"half_angle": 1.2}, DeformedState(4.5, 3.0, 1.2)),
    "SolverBox": (SolverBox(), {"half_angle_max": 2.0}, (ValueError, "half_angle_max"),
                  {"half_angle_max": 1.2}, SolverBox(half_angle_max=1.2)),
    "GripperAssembly": (_ASM, {"n_chambers": 1}, (ValueError, "n_chambers"), {"n_chambers": 16},
                        GripperAssembly(ChamberGeometry(), HyperelasticMaterial(), 16)),
    "CapacityEntry": (CapacityEntry(0.1, 2.0), {"plateau_N": -1.0}, (ValueError, "plateau"),
                      {"threshold_kPa": 20.0}, CapacityEntry(0.1, 2.0, 20.0)),
    "ObjectDescriptor": (ObjectDescriptor(ShapeClass.CYLINDER, 40.0), {"mass_kg": -1.0},
                         (ValueError, "mass"), {"mass_kg": 0.5},
                         ObjectDescriptor(ShapeClass.CYLINDER, 40.0, 0.5)),
    "SuctionModel": (SuctionModel(_ASM, 2264.0, 53.0), {"h_eff_mm": 0.0},
                     (ValueError, "effective height"), {"h_eff_mm": 100.0},
                     SuctionModel(_ASM, 2264.0, 100.0)),
    "GraspPlan": (_PLAN, {"predicted_capacity_N": -1.0}, (ValueError, "capacity"),
                  {"feasible": False},
                  GraspPlan(GraspMode.SUCTION, [("seal", 10.0)], 5.0, False, "flat")),
    "MeasurementSeries": (_SERIES, {"rows": ((10.0, 1.0),)}, (CalibrationError, "at least"),
                          {"rows": ((5.0, 1.0), (20.0, 2.0))},
                          MeasurementSeries(SeriesKind.SUCTION_FORCE, ((5.0, 1.0), (20.0, 2.0)))),
}


def test_every_record_with_its_own_constructor_rebuilds_through_it():
    assert all(issubclass(cls, Record) for cls in package_records().values())
    own = {name for name, cls in package_records().items() if "__new__" in vars(cls)}
    assert own == set(REPLACE_CASES) | {"CapacityCalibration"}
    # CapacityCalibration checks nothing, but its constructor turns None into {}.
    assert CapacityCalibration()._replace(entries=None) == CapacityCalibration()


@pytest.mark.parametrize("name", REPLACE_CASES)
def test_replace_runs_the_constructor_checks(name):
    record, bad, (error, match), good, fresh = REPLACE_CASES[name]
    with pytest.raises(error, match=match):
        record._replace(**bad)
    replaced = record._replace(**good)
    assert replaced == fresh and type(replaced) is type(fresh)
    assert record._replace() == record
    with pytest.raises(ValueError, match="unexpected field names"):
        record._replace(no_such_field=1.0)
    for copied in (copy.copy(replaced), copy.deepcopy(replaced),
                   pickle.loads(pickle.dumps(replaced))):
        assert copied == fresh


def test_suction_model_rest_volume(assembly):
    model = SuctionModel(assembly, 2264.0, 53.0)
    assert model.rest_volume_mm3 == sealed_volume(aperture_vs_pressure(assembly, 0.0), 53.0)
    # copy rebuilds through __new__, which solves the rest volume again.
    assert copy.deepcopy(model) == model
