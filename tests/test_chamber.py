import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize
from scipy.optimize import root

from accordion_gripper import (
    ChamberGeometry,
    DeformedState,
    HyperelasticMaterial,
    OutOfWorkspaceError,
    SolverBox,
    hoop_stretch,
    pressure_closed_form,
    pressure_quadrature,
    solve_deformation,
    stress_difference,
    wall_distance,
)
from accordion_gripper.chamber import (
    adaptive_simpson,
    brentq,
    area_residual,
    pin_residual,
    pressure_at_angle,
    reachable_pressure_range,
    state_at_angle,
)
from accordion_gripper.config import ModelContext
from accordion_gripper.errors import ConvergenceError

THETA_LO = math.radians(57.6)
THETA_HI = math.radians(80.0)
angles = st.floats(min_value=THETA_LO, max_value=THETA_HI)


# ---------------------------------------------------------------------------
# Geometry and state validation


def test_default_geometry_derived_quantities():
    geom = ChamberGeometry()
    # Hand values: a = 3*sin(57.6 deg), area = (4.56^2 - 3^2)*radians(57.6).
    assert geom.pin_half_distance == pytest.approx(2.5329837765060452, rel=1e-15)
    assert geom.sector_area_scale == pytest.approx(11.856219878200507, rel=1e-15)


def test_undeformed_state_matches_geometry():
    geom = ChamberGeometry()
    state = geom.undeformed_state()
    assert (state.r_outer, state.r_inner, state.half_angle) == (
        geom.r_outer_0,
        geom.r_inner_0,
        geom.half_angle_0,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r_outer_0": 3.0, "r_inner_0": 3.0},
        {"r_outer_0": 2.0, "r_inner_0": 3.0},
        {"r_inner_0": 0.0},
        {"half_angle_0": 0.0},
        {"half_angle_0": math.pi / 2},
    ],
)
def test_invalid_geometry_rejected(kwargs):
    with pytest.raises(ValueError):
        ChamberGeometry(**kwargs)


@pytest.mark.parametrize(
    "args", [(3.0, 3.0, 1.0), (2.0, 3.0, 1.0), (4.0, -1.0, 1.0), (4.0, 3.0, 0.0)]
)
def test_invalid_state_rejected(args):
    with pytest.raises(ValueError):
        DeformedState(*args)


def test_invalid_box_rejected():
    for top in (0.0, math.pi / 2, math.pi):
        with pytest.raises(ValueError, match="half_angle_max"):
            SolverBox(half_angle_max=top)


# ---------------------------------------------------------------------------
# Kinematics


def test_wall_distance_at_rest():
    # 2*(4.56 - 3*cos(57.6 deg))
    d = wall_distance(ChamberGeometry().undeformed_state())
    assert d == pytest.approx(5.9050392301260203, rel=1e-15)


@given(theta=angles)
def test_constraint_residuals_vanish_on_manifold(theta):
    geom = ChamberGeometry()
    state = state_at_angle(geom, theta)
    assert abs(pin_residual(geom, state)) < 1e-12
    assert abs(area_residual(geom, state)) < 1e-12


def test_state_at_angle_frozen_values():
    # Independently computed with 40-digit arithmetic at theta0 = 70 deg.
    state = state_at_angle(ChamberGeometry(), math.radians(70.0))
    assert state.r_outer == pytest.approx(4.1195158726396525, rel=1e-14)
    assert state.r_inner == pytest.approx(2.6955450329998269, rel=1e-14)


def test_inflation_shrinks_radii_and_opens_angle():
    geom = ChamberGeometry()
    state = state_at_angle(geom, math.radians(70.0))
    assert state.r_outer < geom.r_outer_0
    assert state.r_inner < geom.r_inner_0
    assert state.half_angle > geom.half_angle_0


def test_hoop_stretch_identity_at_rest():
    geom = ChamberGeometry()
    state = geom.undeformed_state()
    for r in np.linspace(geom.r_inner_0, geom.r_outer_0, 7):
        assert hoop_stretch(geom, state, float(r)) == pytest.approx(1.0, abs=1e-14)


def test_hoop_stretch_frozen_value_at_inner_wall():
    # At the inner wall R(r1) = R1, so lam_theta = r1*(theta0/Theta0)/R1.
    geom = ChamberGeometry()
    state = state_at_angle(geom, math.radians(70.0))
    assert hoop_stretch(geom, state, state.r_inner) == pytest.approx(
        1.0919453258679854, rel=1e-14
    )


def test_hoop_stretch_outside_wall_rejected():
    geom = ChamberGeometry()
    state = state_at_angle(geom, math.radians(70.0))
    with pytest.raises(ValueError, match="outside"):
        hoop_stretch(geom, state, state.r_outer + 0.1)


# ---------------------------------------------------------------------------
# Quadrature


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-9)
    assert adaptive_simpson(lambda x: 1.0 / x, 1.0, 2.0) == pytest.approx(
        math.log(2.0), rel=1e-9
    )
    assert adaptive_simpson(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert adaptive_simpson(math.exp, 0.0, 0.0) == 0.0


def test_adaptive_simpson_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="rel_tol"):
        adaptive_simpson(math.sin, 0.0, 1.0, rel_tol=0.0)


def test_adaptive_simpson_reports_nonconvergence():
    # A step discontinuity with a tiny depth budget cannot converge.
    f = lambda x: 0.0 if x < 0.5 else 1.0
    with pytest.raises(ConvergenceError, match="depth"):
        adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-12, max_depth=2)


def test_quadrature_noise_floor_at_rest():
    # The integrand at zero deformation is pure roundoff; the absolute
    # floor must absorb it instead of dividing forever.
    geom = ChamberGeometry()
    p = pressure_quadrature(geom, geom.undeformed_state(), HyperelasticMaterial())
    assert abs(p) < 1e-9


def test_quadrature_frozen_value():
    # scipy.integrate.quad on the same integrand, 1e-12 relative target.
    geom = ChamberGeometry()
    state = state_at_angle(geom, math.radians(70.0))
    p = pressure_quadrature(geom, state, HyperelasticMaterial())
    assert p == pytest.approx(36.966514131660006, rel=1e-9)


def test_quadrature_scan_matches_closed_form():
    # Adaptive Simpson once accepted its first refinement here, 1.9e-6 off
    # (c1 98.149 kPa, 29.6125 kPa: the state validate's 30 kPa point meets at
    # c1 99.433 kPa); the scan covers states the box reaches at other c1.
    geom, rng = ChamberGeometry(), random.Random(20261018)
    known = (98.149, solve_deformation(geom, HyperelasticMaterial(98.149), 29.61250468663659))
    states = [known] + [
        (rng.uniform(80.0, 220.0), state_at_angle(geom, rng.uniform(THETA_LO, THETA_HI)))
        for _ in range(1000)
    ]
    for c1, state in states:
        mat = HyperelasticMaterial(c1)
        closed = pressure_closed_form(geom, state, mat)
        quad = pressure_quadrature(geom, state, mat)
        assert abs(quad - closed) <= 1e-8 * max(1.0, abs(closed)), (c1, state)


@settings(max_examples=100, deadline=None)
@given(r_outer_0=st.floats(min_value=0.1, max_value=100.0),
       ratio=st.floats(min_value=0.05, max_value=0.98),
       half_angle_0=st.floats(min_value=0.05, max_value=1.5),
       opening=st.floats(min_value=0.0, max_value=1.0),
       c1=st.floats(min_value=1.0, max_value=1e5),
       rel_tol=st.sampled_from((1e-6, 1e-9, 1e-12)))
def test_quadrature_integrates_the_checked_material_law(r_outer_0, ratio, half_angle_0, opening,
                                                        c1, rel_tol):
    # The oracle's nodes skip the stretch check; every bit must match the checked route.
    geom = ChamberGeometry(r_outer_0, r_outer_0 * ratio, half_angle_0)
    mat = HyperelasticMaterial(c1)
    state = state_at_angle(geom, half_angle_0 + opening * (1.56 - half_angle_0))

    def checked(r):
        lam_t = hoop_stretch(geom, state, r)
        return stress_difference(mat, lam_t, 1.0 / lam_t) / r

    expected = adaptive_simpson(checked, state.r_inner, state.r_outer, rel_tol, abs_tol=1e-12 * c1)
    assert pressure_quadrature(geom, state, mat, rel_tol) == expected


# ---------------------------------------------------------------------------
# Closed forms


def test_rederived_closed_form_frozen_values():
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    assert pressure_at_angle(geom, mat, math.radians(70.0)) == pytest.approx(
        36.966514131660012, rel=1e-13
    )
    assert pressure_at_angle(geom, mat, math.radians(80.0)) == pytest.approx(
        68.644240011938394, rel=1e-13
    )


def test_rederived_vanishes_at_zero_deformation():
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    assert pressure_closed_form(geom, geom.undeformed_state(), mat) == pytest.approx(
        0.0, abs=1e-12
    )


def test_printed_variant_nonzero_at_zero_deformation():
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    p = pressure_closed_form(geom, geom.undeformed_state(), mat, variant="as_printed")
    assert p == pytest.approx(49.826529848124017, rel=1e-13)
    assert p == pytest.approx(mat.c1 * math.log(geom.r_outer_0 / geom.r_inner_0), rel=1e-13)


def test_unknown_variant_rejected():
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    with pytest.raises(ValueError, match="variant"):
        pressure_closed_form(geom, geom.undeformed_state(), mat, variant="typo")


@given(theta=angles)
def test_printed_discrepancy_identity(theta):
    # as_printed - rederived = c1*(Theta0/theta0)*ln(r0/r1), analytically.
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    state = state_at_angle(geom, theta)
    printed = pressure_closed_form(geom, state, mat, "as_printed")
    rederived = pressure_closed_form(geom, state, mat, "rederived")
    identity = (
        mat.c1 * (geom.half_angle_0 / state.half_angle)
        * math.log(state.r_outer / state.r_inner)
    )
    assert printed - rederived == pytest.approx(identity, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(min_value=THETA_LO + 0.02, max_value=THETA_HI))
def test_closed_form_matches_quadrature(theta):
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    state = state_at_angle(geom, theta)
    closed = pressure_closed_form(geom, state, mat)
    quad = pressure_quadrature(geom, state, mat)
    assert closed == pytest.approx(quad, rel=1e-7, abs=1e-7)


def test_pressure_monotone_in_angle():
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    ps = [pressure_at_angle(geom, mat, t) for t in np.linspace(THETA_LO, THETA_HI, 50)]
    assert all(b > a for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("c1, geom", [
    (119.0, ChamberGeometry()),
    (85.0, ChamberGeometry(4.8, 3.1, math.radians(50.0))),
    (210.0, ChamberGeometry(5.0, 2.5, math.radians(60.0))),
])
def test_pressure_at_angle_is_the_closed_form(c1, geom):
    # Bit for bit: solves evaluate the closed form without building states.
    mat, rng = HyperelasticMaterial(c1), random.Random(c1)
    for _ in range(200):
        theta = rng.uniform(0.5 * geom.half_angle_0, 1.4)
        assert pressure_at_angle(geom, mat, theta) == pressure_closed_form(
            geom, state_at_angle(geom, theta), mat
        )


def test_solve_evaluates_each_box_end_once(monkeypatch):
    # Once per (geometry, box top), across solves at different pressures and c1.
    import accordion_gripper.chamber as chamber

    angles, unit = [], chamber._pressure

    def spy(geom, r0, r1, theta, *args):
        angles.append(theta)
        return unit(geom, r0, r1, theta, *args)

    monkeypatch.setattr(chamber, "_pressure", spy)
    chamber._box_end_pressures.cache_clear()  # earlier tests store this key's pair
    lo, hi = ChamberGeometry().half_angle_0, SolverBox().half_angle_max
    # 0 kPa is the rest state: no solve.
    for c1, p, evaluations in ((119.0, 0.0, 0), (119.0, 12.5, 1), (119.0, 40.0, 1),
                               (85.0, 20.0, 1), (1e4, 1000.0, 1)):
        solve_deformation(ChamberGeometry(), HyperelasticMaterial(c1), p)
        assert (angles.count(lo), angles.count(hi)) == (evaluations, evaluations)


@st.composite
def bracketed_models(draw):
    """A random geometry, c1 and box top, and a pressure inside the range they bracket."""
    r_outer_0 = draw(st.floats(min_value=1.0, max_value=20.0))
    geom = ChamberGeometry(r_outer_0, r_outer_0 * draw(st.floats(min_value=0.3, max_value=0.95)),
                           math.radians(draw(st.floats(min_value=10.0, max_value=80.0))))
    mat = HyperelasticMaterial(draw(st.floats(min_value=1.0, max_value=1e4)))
    lo = geom.half_angle_0
    hi = draw(st.floats(min_value=lo, max_value=math.radians(89.0), exclude_min=True))
    box = SolverBox(half_angle_max=hi)
    p_lo, p_hi = (pressure_at_angle(geom, mat, t) for t in (lo, hi))
    assume(max(p_lo, 0.0) < p_hi)
    f = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    p = max(p_lo, 0.0) + f * (p_hi - max(p_lo, 0.0))
    assume(p > 0.0)
    return geom, mat, box, p


@settings(max_examples=60, deadline=None)
@given(model=bracketed_models(), tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_solve_is_brent_on_the_closed_form_bit_for_bit(model, tol):
    # Stored box-end pressures change no iterate: the root is scipy's, to the bit.
    geom, mat, box, p = model
    lo, hi = geom.half_angle_0, box.half_angle_max
    theta = optimize.brentq(
        lambda t: pressure_closed_form(geom, state_at_angle(geom, t), mat) - p, lo, hi, xtol=tol)
    assert solve_deformation(geom, mat, p, box, tol) == state_at_angle(geom, theta)


@settings(max_examples=60, deadline=None)
@given(r_outer_0=st.floats(min_value=1e-3, max_value=1e3),
       ratio=st.floats(min_value=1e-3, max_value=0.999),
       half_angle_0=st.floats(min_value=1e-3, max_value=1.57))
def test_geometry_derives_its_pressure_constants(r_outer_0, ratio, half_angle_0):
    geom = ChamberGeometry(r_outer_0, r_outer_0 * ratio, half_angle_0)
    assert geom.log_radius_ratio == math.log(geom.r_outer_0 / geom.r_inner_0)
    assert geom.inner_sector_area == geom.r_inner_0**2 * geom.half_angle_0


def test_geometry_replace_rebuilds_the_derived_constants():
    geom = ChamberGeometry()
    assert geom._replace(r_inner_0=2.0) == ChamberGeometry(r_inner_0=2.0)
    assert geom._replace(r_outer_0=5.0, half_angle_0=1.0) == ChamberGeometry(5.0, 3.0, 1.0)
    assert geom._replace() == geom
    with pytest.raises(ValueError, match="R1 < R0"):
        geom._replace(r_inner_0=5.0)
    for derived in geom._fields[3:]:
        with pytest.raises(ValueError, match=derived):
            geom._replace(**{derived: 1.0})


def test_box_end_pressures_are_stored_per_key():
    # The pair is the c1 = 1 kPa curve's, so only the geometry and the box top key it.
    import accordion_gripper.chamber as chamber

    store = chamber._box_end_pressures
    geom, mat, box = ChamberGeometry(), HyperelasticMaterial(), SolverBox()
    store.cache_clear()
    cold = solve_deformation(geom, mat, 12.5, box)
    assert store.cache_info().misses == 1
    assert solve_deformation(geom, mat, 12.5, box) == cold
    q_lo, q_hi = store(geom, box.half_angle_max)
    for c1 in (1.0, 85.0, 120.0, 1e4):
        other = HyperelasticMaterial(c1)
        reach = reachable_pressure_range(geom, other, box)
        assert reach == (max(c1 * q_lo, 0.0), c1 * q_hi)
        solve_deformation(geom, other, 0.5 * reach[1], box)
    assert store.cache_info().misses == 1
    for changed in (dict(geom=ChamberGeometry(4.6)),
                    dict(geom=ChamberGeometry(half_angle_0=geom.half_angle_0 - 1e-3)),
                    dict(box=SolverBox(half_angle_max=box.half_angle_max - 1e-3))):
        args = {"geom": geom, "box": box, **changed}
        misses = store.cache_info().misses
        solve_deformation(args["geom"], mat, 12.5, args["box"])
        assert store.cache_info().misses == misses + 1, changed
        assert store(args["geom"], args["box"].half_angle_max) == tuple(
            pressure_at_angle(args["geom"], HyperelasticMaterial(1.0), t)
            for t in (args["geom"].half_angle_0, args["box"].half_angle_max))


def test_box_end_arithmetic_error_is_raised_on_every_call():
    import accordion_gripper.chamber as chamber

    geom = ChamberGeometry(r_inner_0=1e-300)  # r1**2 underflows to 0 in 1/r1**2
    before = chamber._box_end_pressures.cache_info()
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            solve_deformation(geom, HyperelasticMaterial(), 12.5)
        with pytest.raises(ZeroDivisionError):
            reachable_pressure_range(geom, HyperelasticMaterial())
    after = chamber._box_end_pressures.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 4)


def test_reachable_pressure_range():
    lo, hi = reachable_pressure_range(ChamberGeometry(), HyperelasticMaterial())
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(68.644240011938394, rel=1e-13)


@pytest.mark.parametrize("c1", [85.0, 119.0])
def test_reachable_pressure_range_floors_rest_noise_at_zero(c1):
    # P(Theta0) rounds a few ulps below 0 kPa (-5.7e-14 at c1 = 119).
    geom, mat = ChamberGeometry(), HyperelasticMaterial(c1)
    assert pressure_at_angle(geom, mat, geom.half_angle_0) < 0.0
    lo, hi = reachable_pressure_range(geom, mat)
    assert lo == 0.0
    assert hi == pressure_at_angle(geom, mat, SolverBox().half_angle_max)
    with pytest.raises(OutOfWorkspaceError) as exc:
        solve_deformation(geom, mat, 100.0)
    assert exc.value.reachable == (0.0, hi)


# ---------------------------------------------------------------------------
# Solver


def test_solve_zero_pressure_is_fixed_point_to_roundoff():
    geom = ChamberGeometry()
    state = solve_deformation(geom, HyperelasticMaterial(), 0.0)
    assert state.r_outer == pytest.approx(geom.r_outer_0, abs=1e-12)
    assert state.r_inner == pytest.approx(geom.r_inner_0, abs=1e-12)
    assert state.half_angle == geom.half_angle_0


def test_solve_frozen_state_at_20_kpa():
    # Independently computed with 40-digit root finding on the closed form.
    state = solve_deformation(ChamberGeometry(), HyperelasticMaterial(), 20.0)
    assert state.r_outer == pytest.approx(4.2918077558554349, rel=1e-12)
    assert state.r_inner == pytest.approx(2.8073150489759505, rel=1e-12)
    assert state.half_angle == pytest.approx(1.1250284046906163, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=68.0))
def test_solve_round_trip_pressure(p):
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    state = solve_deformation(geom, mat, p)
    assert pressure_closed_form(geom, state, mat) == pytest.approx(p, abs=1e-8)
    assert abs(pin_residual(geom, state)) < 1e-12
    assert abs(area_residual(geom, state)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    c1=st.floats(min_value=80.0, max_value=300.0),
    k=st.floats(min_value=math.log(1e-2), max_value=math.log(1e3)).map(math.exp),
    f=st.floats(min_value=0.0, max_value=0.99),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
)
def test_solve_angle_is_invariant_under_c1_scaling(c1, k, f, tol):
    # P is linear in c1, so (k*c1, k*p) and (c1, p) share one root theta0.
    geom, mat = ChamberGeometry(), HyperelasticMaterial(c1)
    p = f * reachable_pressure_range(geom, mat)[1]
    theta = solve_deformation(geom, mat, p, tol=tol).half_angle
    theta_k = solve_deformation(geom, HyperelasticMaterial(k * c1), k * p, tol=tol).half_angle
    assert abs(theta_k - theta) <= tol


def test_negative_pressure_rejected():
    with pytest.raises(OutOfWorkspaceError, match="inflation branch only") as exc:
        solve_deformation(ChamberGeometry(), HyperelasticMaterial(), -5.0)
    assert exc.value.reachable == (0.0, None)


def test_unreachable_pressure_reports_range():
    with pytest.raises(OutOfWorkspaceError, match="reachable") as exc:
        solve_deformation(ChamberGeometry(), HyperelasticMaterial(), 100.0)
    lo, hi = exc.value.reachable
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(68.644240011938394, rel=1e-9)


def test_nan_pressure_is_not_out_of_workspace():
    # NaN lies on neither side of the reachable range: the root finder's error passes through.
    with pytest.raises(ValueError, match="NaN"):
        solve_deformation(ChamberGeometry(), HyperelasticMaterial(), math.nan)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 2.0, -0.1])
def test_state_at_angle_rejects_angle_outside_quarter_turn(theta):
    with pytest.raises(ValueError, match=r"outside \(0, pi/2\)"):
        state_at_angle(ChamberGeometry(), theta)


@pytest.mark.parametrize("p", [0.0, 20.0, 100.0])
@pytest.mark.parametrize("tol", [0.0, -1e-12])
def test_solve_rejects_non_positive_tolerance(p, tol):
    with pytest.raises(ValueError, match="theta tolerance must be positive"):
        solve_deformation(ChamberGeometry(), HyperelasticMaterial(), p, tol=tol)


def test_rest_state_needs_no_solve():
    # Near the default geometry P(Theta0), the bracket's lower end, rounds to
    # either side of 0 kPa; above it, 0 kPa used to lie outside the bracket
    # and the config did not load.
    rng = random.Random(20261018)
    noise_above_zero = 0
    for _ in range(500):
        r1 = rng.uniform(2.5, 3.5)
        theta0_deg = rng.uniform(50.0, 65.0)
        ctx = ModelContext.from_config({"geometry": {
            "R0_mm": r1 + rng.uniform(1.0, 2.0), "R1_mm": r1, "Theta0_deg": theta0_deg}})
        geom, mat, box = ctx.geometry, ctx.material, ctx.box
        assert solve_deformation(geom, mat, 0.0, box) == state_at_angle(geom, geom.half_angle_0)
        try:
            theta = brentq(lambda t: pressure_at_angle(geom, mat, t), geom.half_angle_0,
                           box.half_angle_max)
        except ValueError:
            noise_above_zero += 1
            continue
        assert theta == geom.half_angle_0  # where Brent finds the rest, it finds Theta0
    assert noise_above_zero > 0


def test_solver_agrees_with_full_3d_residual_system():
    # Cross-check the scalar reduction against scipy.optimize.root on the
    # unreduced system [pin, area, pressure - p].
    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    p_target = 20.0
    state = solve_deformation(geom, mat, p_target)

    def residuals(x):
        s = DeformedState(x[0], x[1], x[2])
        return [
            pin_residual(geom, s),
            area_residual(geom, s),
            pressure_closed_form(geom, s, mat) - p_target,
        ]

    sol = root(residuals, x0=[4.3, 2.8, 1.1], tol=1e-13)
    assert sol.success
    assert sol.x[0] == pytest.approx(state.r_outer, rel=1e-9)
    assert sol.x[1] == pytest.approx(state.r_inner, rel=1e-9)
    assert sol.x[2] == pytest.approx(state.half_angle, rel=1e-9)


# ---------------------------------------------------------------------------
# Root finder: a port of scipy's brentq, checked against it


def recorded(f):
    """f plus the list of points it was called at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


@pytest.mark.parametrize("xtol", [1e-12, 1e-9, 1e-6, 1e-3])
def test_brentq_matches_scipy_bit_for_bit(xtol):
    rng = np.random.default_rng(2024)
    for _ in range(300):
        geom = ChamberGeometry(
            rng.uniform(3.5, 6.0), rng.uniform(1.5, 3.4), math.radians(rng.uniform(40, 70))
        )
        mat = HyperelasticMaterial(rng.uniform(50.0, 300.0))
        lo, hi = geom.half_angle_0, math.radians(rng.uniform(75.0, 85.0))
        # A numpy scalar on purpose: public callers may pass numpy.float64.
        p = np.float64(rng.uniform(0.0, pressure_at_angle(geom, mat, hi)))
        f = lambda t: pressure_at_angle(geom, mat, t) - p  # noqa: E731
        ours, our_xs = recorded(f)
        theirs, their_xs = recorded(f)
        root_ours = brentq(ours, lo, hi, xtol=xtol)
        root_theirs = optimize.brentq(theirs, lo, hi, xtol=xtol)
        assert root_ours == root_theirs
        assert type(root_ours) is float
        assert our_xs == their_xs


def test_brentq_same_sign_bracket_rejected():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.1 else x - 0.5, 0.0, 1.0)


@pytest.mark.parametrize("xtol", [0.0, -1e-12])
def test_brentq_rejects_non_positive_xtol(xtol):
    with pytest.raises(ValueError, match="xtol too small"):
        brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=xtol)


def test_brentq_maxiter_exhausted():
    with pytest.raises(ConvergenceError, match="3 iterations"):
        brentq(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-15, maxiter=3)


# R0**2 overflows (OverflowError), or R0**2 fits but times Theta0 is inf.
@pytest.mark.parametrize("r_outer_0, half_angle_0", [(1e200, 1.0), (1e155, 1.0), (1.3e154, 1.5)])
def test_geometry_overflow_names_the_radii(r_outer_0, half_angle_0):
    with pytest.raises(ValueError, match=r"overflows.*R0=.*R1=3\.0"):
        ChamberGeometry(r_outer_0, 3.0, half_angle_0)
