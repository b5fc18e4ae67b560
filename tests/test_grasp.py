import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accordion_gripper import (
    CalibrationError,
    CapacityCalibration,
    CapacityEntry,
    GraspMode,
    GraspPlan,
    ObjectDescriptor,
    OutOfWorkspaceError,
    ShapeClass,
    SolverBox,
    SuctionModel,
    contraction_capacity,
    plan_grasp,
    pressure_schedule,
    select_mode,
    suction_force,
    workspace,
)
from accordion_gripper.grasp import STANDARD_GRAVITY, check_lift_volume
from accordion_gripper.gripper import aperture_radius, check_stretch_margin, inverse_pressure

REST_RG = 20.675956017774557


@pytest.fixture(scope="module")
def ws(assembly):
    return workspace(assembly, 40.0)


@pytest.fixture(scope="module")
def calib():
    return CapacityCalibration.defaults()


@pytest.fixture(scope="module")
def suction(assembly):
    return SuctionModel.from_assembly(assembly, effective_seal_area_mm2=2264.0, h_eff_mm=53.0)


def obj(shape=ShapeClass.CYLINDER, d=40.0, **kwargs):
    return ObjectDescriptor(shape_class=shape, characteristic_diameter_mm=d, **kwargs)


# ---------------------------------------------------------------------------
# Object descriptors


def test_descriptor_validation():
    with pytest.raises(ValueError, match="diameter"):
        obj(d=0.0)
    with pytest.raises(ValueError, match="mass"):
        obj(mass_kg=-1.0)
    with pytest.raises(ValueError, match="aperture"):
        obj(has_aperture=True)
    with pytest.raises(ValueError, match="aperture"):
        obj(aperture_diameter_mm=30.0)
    for bad in (math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(ValueError, match="aperture diameter must be finite and > 0"):
            obj(has_aperture=True, aperture_diameter_mm=bad)


def test_descriptor_from_dict_round_trip():
    data = {
        "shape_class": "sphere",
        "characteristic_diameter_mm": 35.0,
        "mass_kg": 0.2,
        "has_aperture": False,
        "aperture_diameter_mm": None,
        "has_flat_sealable_surface": False,
    }
    o = ObjectDescriptor.from_dict(data)
    assert o.shape_class is ShapeClass.SPHERE
    assert o.characteristic_diameter_mm == 35.0
    assert o.aperture_diameter_mm is None
    assert o._asdict() == {**data, "shape_class": ShapeClass.SPHERE}
    # A key no field reads is refused, not carried.
    with pytest.raises(ValueError, match=r"unknown object descriptor keys: \['orientation_note'\]"):
        ObjectDescriptor.from_dict(data | {"orientation_note": "stem up"})
    # A JSON integer is a number.
    o = ObjectDescriptor.from_dict({"shape_class": "cube", "characteristic_diameter_mm": 35})
    assert type(o.characteristic_diameter_mm) is float


def test_descriptor_from_dict_errors():
    with pytest.raises(ValueError, match="shape_class"):
        ObjectDescriptor.from_dict({"characteristic_diameter_mm": 10.0})
    with pytest.raises(ValueError, match="unknown shape_class"):
        ObjectDescriptor.from_dict(
            {"shape_class": "dodecahedron", "characteristic_diameter_mm": 10.0}
        )
    with pytest.raises(ValueError, match="unknown object descriptor keys"):
        ObjectDescriptor.from_dict(
            {"shape_class": "cube", "characteristic_diameter_mm": 10.0, "colour": "red"}
        )
    with pytest.raises(ValueError, match="characteristic_diameter_mm"):
        ObjectDescriptor.from_dict({"shape_class": "cube"})


#: Every JSON type, so a descriptor dict's value may be any of them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=3,
)
NUMBERS = st.floats(-1.0, 500.0) | st.integers(-5, 500) | st.sampled_from([10**400, -(10**400)])


@st.composite
def descriptor_dicts(draw):
    """Descriptor dicts with the required keys and only known ones, each value a
    plausible one or any JSON value."""
    values = {
        "shape_class": st.sampled_from([s.value for s in ShapeClass]),
        "characteristic_diameter_mm": NUMBERS,
        "mass_kg": NUMBERS,
        "has_aperture": st.booleans(),
        "aperture_diameter_mm": st.none() | NUMBERS,
        "has_flat_sealable_surface": st.booleans(),
    }
    keys = ["shape_class", "characteristic_diameter_mm"] + draw(
        st.lists(st.sampled_from(list(values)[2:]), unique=True))
    return {key: draw(values[key] | JSON_VALUES) for key in keys}


@settings(max_examples=300, deadline=None)
@given(descriptor_dicts())
def test_from_dict_and_the_constructor_agree(data):
    """The constructor is the one home of the descriptor's rules: ``from_dict`` gives
    the record, or the error, that ``ObjectDescriptor(**data)`` gives."""
    try:
        record = ObjectDescriptor(**data)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            ObjectDescriptor.from_dict(data)
        assert str(raised.value) == str(exc)
    else:
        loaded = ObjectDescriptor.from_dict(data)
        assert loaded == record
        assert list(map(type, loaded)) == list(map(type, record))
        assert record.shape_class in ShapeClass


@pytest.mark.parametrize("fields, message", [
    ({"has_flat_sealable_surface": "false"},
     "has_flat_sealable_surface must be true or false, got 'false'"),
    ({"has_aperture": 1, "aperture_diameter_mm": 20.0},
     "has_aperture must be true or false, got 1"),
    ({"characteristic_diameter_mm": "40"},
     "characteristic_diameter_mm must be a finite number, got '40'"),
    ({"mass_kg": True}, "mass_kg must be a finite number, got True"),
    ({"mass_kg": None}, "mass_kg must be a finite number, got None"),
    ({"has_aperture": True, "aperture_diameter_mm": [20]},
     "aperture_diameter_mm must be a finite number, got [20]"),
    ({"characteristic_diameter_mm": 10**400},
     f"characteristic_diameter_mm must be a finite number, got {10**400!r}"),
    ({"characteristic_diameter_mm": math.nan},
     "characteristic diameter must be finite and > 0, got nan"),
    ({"shape_class": "blob"}, "unknown shape_class 'blob'; expected one of "
     "['cylinder', 'sphere', 'cone', 'pyramid', 'cube', 'irregular', 'flat_plate']"),
], ids=["string-flag", "number-flag", "string-diameter", "bool-mass", "null-mass", "list-aperture",
        "huge-int-diameter", "nan-diameter", "unknown-shape"])
def test_descriptor_checks_each_field_from_python(fields, message):
    """The rules a descriptor file is held to hold for a record built in Python."""
    with pytest.raises(ValueError) as raised:
        ObjectDescriptor(**{"shape_class": ShapeClass.CYLINDER,
                            "characteristic_diameter_mm": 40.0, **fields})
    assert str(raised.value) == message


@pytest.mark.parametrize("shape", list(ShapeClass))
@pytest.mark.parametrize("d", [40.0, 300.0])
def test_a_shape_class_may_be_given_by_its_name(assembly, ws, calib, suction, shape, d):
    by_name = obj(shape.value, d, mass_kg=0.5)
    assert by_name == obj(shape, d, mass_kg=0.5)
    assert by_name.shape_class is shape
    assert plan_grasp(by_name, assembly, ws, calib, suction) \
        == plan_grasp(obj(shape, d, mass_kg=0.5), assembly, ws, calib, suction)
    if shape is ShapeClass.FLAT_PLATE:
        assert select_mode(by_name, ws).mode is GraspMode.SUCTION


# ---------------------------------------------------------------------------
# Capacity


def test_capacity_lookup_and_fallback(calib):
    assert calib.lookup(ShapeClass.CYLINDER).slope_N_per_kPa == 1.0
    assert calib.lookup(ShapeClass.PYRAMID) is calib.entries["default"]
    empty = CapacityCalibration(entries={})
    with pytest.raises(CalibrationError, match="uncalibrated"):
        empty.lookup(ShapeClass.CUBE)


def test_capacity_lookup_takes_a_shape_class_or_its_name(calib):
    """A shape class's name reads its entry; a name that is no shape class, or None, is
    refused with the shape classes named, not answered with the 'default' entry."""
    assert calib.lookup("sphere") is calib.lookup(ShapeClass.SPHERE) is calib.entries["sphere"]
    assert calib.lookup("cone") is calib.entries["default"]
    names = [shape.value for shape in ShapeClass]
    for shape in ("blob", None, "default", "SPHERE"):
        with pytest.raises(ValueError) as raised:
            calib.lookup(shape)
        assert str(raised.value) == f"unknown shape_class {shape!r}; expected one of {names}"


def test_capacity_entry_validation():
    with pytest.raises(ValueError, match="slope_N_per_kPa must be >= 0"):
        CapacityEntry(-1.0, 10.0)
    with pytest.raises(ValueError, match="threshold_kPa must be > 0"):
        CapacityEntry(1.0, 10.0, threshold_kPa=0.0)
    # A negative baseline once loaded and failed only the plan that quoted it.
    with pytest.raises(ValueError, match=r"prestretch_N must be >= 0, got -50\.0"):
        CapacityEntry(1.0, 20.0, prestretch_N=-50.0)


def test_capacity_names_are_the_ones_lookup_reads():
    names = [shape.value for shape in ShapeClass] + ["default"]
    assert set(CapacityCalibration({name: CapacityEntry(1.0, 10.0) for name in names}).entries) \
        == set(names)
    # A misspelt shape fell through to 'default' at every lookup.
    with pytest.raises(ValueError, match=r"capacity\.cylindre names no shape class") as exc:
        CapacityCalibration({"cylindre": CapacityEntry(5.0, 99.0)})
    assert str(names) in str(exc.value)


def test_capacity_zero_without_prestretch(calib):
    assert contraction_capacity(obj(d=30.0), 0.0, calib, rest_aperture_mm=REST_RG) == 0.0


def test_capacity_slope_region(calib):
    # Sphere slope 0.75 N/kPa, no prestretch for a 30 mm object.
    f = contraction_capacity(obj(ShapeClass.SPHERE, 30.0), -10.0, calib, REST_RG)
    assert f == pytest.approx(7.5)


def test_capacity_plateau_clamp(calib):
    o = obj(ShapeClass.SPHERE, 30.0)
    at_threshold = contraction_capacity(o, -30.0, calib, REST_RG)
    beyond = contraction_capacity(o, -40.0, calib, REST_RG)
    assert at_threshold == beyond == pytest.approx(15.0)


def test_capacity_prestretch_baseline(calib):
    # A 48 mm cylinder pre-stretches the ring (rest interior diameter
    # ~41.35 mm) and holds 20 N before any vacuum is applied.
    o = obj(ShapeClass.CYLINDER, 48.0)
    assert contraction_capacity(o, 0.0, calib, REST_RG) == pytest.approx(20.0)
    assert contraction_capacity(o, -40.0, calib, REST_RG) == pytest.approx(20.0)


def test_capacity_scan_monotone_then_flat(calib):
    o = obj(ShapeClass.CYLINDER, 40.0)
    ps = np.linspace(0.0, -40.0, 41)
    fs = [contraction_capacity(o, float(p), calib, REST_RG) for p in ps]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    flat = [f for p, f in zip(ps, fs) if abs(p) >= 30.0]
    assert max(flat) - min(flat) == 0.0


def test_capacity_threshold_override():
    # A plateau out of reach, so only the 20 kPa threshold caps 0.75 N/kPa.
    calib = CapacityCalibration({"sphere": CapacityEntry(0.75, 100.0, threshold_kPa=20.0)})
    f = contraction_capacity(obj(ShapeClass.SPHERE, 30.0), -25.0, calib, REST_RG)
    assert f == pytest.approx(15.0)


def test_capacity_rejects_positive_pressure(calib):
    with pytest.raises(ValueError, match="<= 0"):
        contraction_capacity(obj(), 5.0, calib, REST_RG)


# ---------------------------------------------------------------------------
# Suction


def test_suction_model_validation(assembly):
    with pytest.raises(ValueError, match="height"):
        SuctionModel.from_assembly(assembly, 2264.0, h_eff_mm=0.0)
    for ambient in (0.0, -101.325):
        with pytest.raises(ValueError, match="ambient pressure must be positive"):
            SuctionModel.from_assembly(assembly, 2264.0, 53.0, ambient_pressure_kPa=ambient)
    for area in (0.0, -2264.0):
        with pytest.raises(ValueError, match="effective seal area must be positive"):
            SuctionModel.from_assembly(assembly, area, 53.0)


def test_suction_frozen_anchor_forces(suction):
    # Independently computed from the isothermal closure with the default
    # parameters (A_eff 2264 mm^2, h_eff 53 mm, lift volume 5000 mm^3).
    f0 = suction_force(suction, 0.0, lift_volume_increase_mm3=5000.0)
    f20 = suction_force(suction, 20.0, lift_volume_increase_mm3=5000.0)
    assert f0 == pytest.approx(15.056465890054277, rel=1e-9)
    assert f20 == pytest.approx(31.55166830450084, rel=1e-9)


def test_suction_force_monotone_in_chamber_pressure(suction):
    fs = [
        suction_force(suction, float(p), 5000.0) for p in np.linspace(0.0, 40.0, 9)
    ]
    assert all(b > a for a, b in zip(fs, fs[1:]))


def test_suction_zero_without_volume_growth(assembly):
    # At 250 and 500 mm, P_atm*V0/V once rounded away from P_atm at V = V0.
    for h_eff_mm in (53.0, 250.0, 500.0):
        model = SuctionModel.from_assembly(assembly, 2264.0, h_eff_mm=h_eff_mm)
        assert suction_force(model, 0.0, lift_volume_increase_mm3=0.0) == 0.0, h_eff_mm


def test_suction_model_replace_rebuilds_the_rest_volume(assembly):
    model, fresh = SuctionModel(assembly, 2264.0, 53.0), SuctionModel(assembly, 2264.0, 100.0)
    replaced = model._replace(h_eff_mm=100.0)
    assert replaced == fresh  # the rest volume is V(0) at h_eff 100 mm, not 53 mm
    assert suction_force(replaced, 20.0, 5000.0) == suction_force(fresh, 20.0, 5000.0)
    with pytest.raises(ValueError, match="rest_volume_mm3"):
        model._replace(rest_volume_mm3=1.0)
    for copied in (copy.copy(replaced), copy.deepcopy(replaced),
                   pickle.loads(pickle.dumps(replaced))):
        assert copied == fresh


def test_suction_model_with_the_default_box_left_out_or_passed_is_one_model(assembly):
    left_out, passed = SuctionModel(assembly, 2264.0, 53.0), SuctionModel(
        assembly, 2264.0, 53.0, box=SolverBox())
    assert left_out == passed and hash(left_out) == hash(passed)


def test_suction_seal_threshold(suction):
    with pytest.raises(ValueError, match="seal"):
        suction_force(suction, -1.0, 5000.0)
    with pytest.raises(ValueError, match="lift volume"):
        suction_force(suction, 10.0, -1.0)


# ---------------------------------------------------------------------------
# Mode selection and planning


def test_expansion_preferred_for_apertured_object(ws):
    o = obj(
        ShapeClass.CYLINDER,
        60.0,
        has_aperture=True,
        aperture_diameter_mm=40.0,
    )
    sel = select_mode(o, ws)
    assert sel.mode is GraspMode.EXPANSION and sel.feasible


def test_suction_for_flat_objects(ws):
    sel = select_mode(obj(ShapeClass.FLAT_PLATE, 300.0), ws)
    assert sel.mode is GraspMode.SUCTION and sel.feasible
    sel = select_mode(obj(ShapeClass.CUBE, 300.0, has_flat_sealable_surface=True), ws)
    assert sel.mode is GraspMode.SUCTION and sel.feasible


def test_contraction_for_workspace_sized_object(ws):
    sel = select_mode(obj(ShapeClass.CYLINDER, 40.0), ws)
    assert sel.mode is GraspMode.CONTRACTION and sel.feasible


def test_infeasible_reasons(ws):
    too_big = select_mode(obj(ShapeClass.SPHERE, 200.0), ws)
    assert not too_big.feasible and too_big.mode is None
    assert "exceeds workspace" in too_big.reason
    too_small = select_mode(obj(ShapeClass.SPHERE, 4.0), ws)
    assert not too_small.feasible
    assert "below workspace" in too_small.reason


def test_pressure_schedules():
    assert pressure_schedule(GraspMode.CONTRACTION) == [("open", 40.0), ("envelop", -40.0)]
    assert pressure_schedule(GraspMode.EXPANSION) == [("insert", -40.0), ("expand", 40.0)]
    assert pressure_schedule(GraspMode.SUCTION) == [("seal+inflate", 20.0)]
    with pytest.raises(ValueError, match="exceeds"):
        pressure_schedule(GraspMode.CONTRACTION, open_kPa=50.0)
    with pytest.raises(ValueError, match="unknown grasp mode None"):
        pressure_schedule(None)


NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda a: CapacityEntry(NAN, 20.0),
    lambda a: CapacityEntry(1.0, NAN),
    lambda a: CapacityEntry(1.0, 20.0, threshold_kPa=NAN),
    lambda a: CapacityEntry(1.0, 20.0, prestretch_N=NAN),
    lambda a: a._replace(folded_aperture_mm=NAN),
    lambda a: SuctionModel(a, NAN, 53.0),
    lambda a: SuctionModel(a, 2264.0, NAN),
    lambda a: SuctionModel(a, 2264.0, 53.0, ambient_pressure_kPa=NAN),
    lambda a: SuctionModel(a, 2264.0, 53.0, seal_threshold_kPa=NAN),
    lambda a: SuctionModel(a, 2264.0, 53.0, seal_threshold_kPa=-math.inf),
    lambda a: check_lift_volume(NAN),
    lambda a: check_stretch_margin(NAN),
    lambda a: pressure_schedule(GraspMode.CONTRACTION, open_kPa=NAN),
    lambda a: GraspPlan(None, [], NAN, False, ""),
    lambda a: aperture_radius(NAN, a),
    lambda a: contraction_capacity(obj(), NAN, CapacityCalibration.defaults(), REST_RG),
    lambda a: inverse_pressure(a, NAN),  # bad input (exit 1), not out of workspace (exit 2)
    lambda a: workspace(a, NAN),
], ids=["slope", "plateau", "threshold", "prestretch", "folded-aperture", "seal-area",
        "h-eff", "ambient", "seal-threshold", "seal-threshold-inf", "lift-volume",
        "stretch-margin", "schedule", "plan-capacity", "aperture-radius", "vacuum",
        "inverse-target", "workspace-p-max"])
def test_nan_fails_every_range_check(assembly, call):
    with pytest.raises(ValueError, match="nan|must be"):  # the range check's own message
        call(assembly)


def test_plan_validation():
    with pytest.raises(ValueError, match="capacity"):
        GraspPlan(GraspMode.CONTRACTION, [("open", 40.0)], -1.0, True, "")


def test_plan_contraction(assembly, ws, calib, suction):
    plan = plan_grasp(obj(ShapeClass.CYLINDER, 40.0), assembly, ws, calib, suction)
    assert plan.mode is GraspMode.CONTRACTION and plan.feasible
    # Envelop at -40 kPa sits on the buckling plateau.
    assert plan.predicted_capacity_N == pytest.approx(20.0)
    assert [label for label, _ in plan.schedule] == ["open", "envelop"]
    as_dict = plan.to_dict()
    assert as_dict["mode"] == "contraction"
    assert as_dict["schedule"][0] == {"phase": "open", "pressure_kPa": 40.0}


def test_plan_checks_workspace_p_max(assembly, calib, suction):
    # The 40 kPa "open" phase is above the 5 kPa the workspace was solved up to.
    low = workspace(assembly, 5.0)
    assert low.p_max_kPa == 5.0 and "p_max_kPa" not in low.as_dict()
    with pytest.raises(OutOfWorkspaceError, match=r"'open' at 40 kPa .*\[0, 5\] kPa"):
        plan_grasp(obj(ShapeClass.CYLINDER, 40.0), assembly, low, calib, suction)


def test_plan_suction(assembly, ws, calib, suction):
    plan = plan_grasp(obj(ShapeClass.FLAT_PLATE, 300.0), assembly, ws, calib, suction)
    assert plan.mode is GraspMode.SUCTION and plan.feasible
    assert plan.predicted_capacity_N == pytest.approx(31.55166830450084, rel=1e-9)


def test_plan_suction_requires_model(assembly, ws, calib):
    with pytest.raises(ValueError, match="suction model"):
        plan_grasp(obj(ShapeClass.FLAT_PLATE, 300.0), assembly, ws, calib, None)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(ShapeClass), d=st.floats(min_value=1.0, max_value=300.0),
       mass=st.floats(min_value=0.0, max_value=10.0), opening=st.one_of(
           st.none(), st.floats(min_value=1.0, max_value=60.0)), flat=st.booleans())
def test_a_feasible_plan_carries_the_object(assembly, ws, calib, suction, shape, d, mass,
                                            opening, flat):
    thing = obj(shape, d, mass_kg=mass, has_aperture=opening is not None,
                aperture_diameter_mm=opening, has_flat_sealable_surface=flat)
    plan = plan_grasp(thing, assembly, ws, calib, suction)
    weight = mass * STANDARD_GRAVITY
    assert plan.feasible == (select_mode(thing, ws).feasible
                             and plan.predicted_capacity_N >= weight)
    if plan.mode is not None and not plan.feasible:
        assert f"weight {weight:.6g} N exceeds" in plan.rationale


def test_plan_infeasible(assembly, ws, calib, suction):
    plan = plan_grasp(obj(ShapeClass.SPHERE, 200.0), assembly, ws, calib, suction)
    assert not plan.feasible
    assert plan.mode is None and plan.schedule == [] and plan.predicted_capacity_N == 0.0
    assert plan.to_dict()["mode"] is None
