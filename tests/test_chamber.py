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
    _brent,
    adaptive_simpson,
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


def _eight_ulps_above_one() -> float:
    b = 1.0
    for _ in range(8):
        b = math.nextafter(b, 2.0)
    return b


def test_adaptive_simpson_stops_at_float_resolution():
    # On 8 ulps the halves reach 2 ulps, which have no interior points, after two levels;
    # sin(1e15 x) keeps the estimates apart, so only the resolution stop ends the search.
    value = adaptive_simpson(lambda x: math.sin(1e15 * x), 1.0, _eight_ulps_above_one(),
                             rel_tol=1e-300)
    assert math.isfinite(value)


# adaptive_simpson on literal integrands, as float.hex: the oracle's own tests call it on
# both sides, so these are what pins its arithmetic.
FROZEN_SIMPSON = {
    "smooth": (math.sin, 0.0, math.pi, {}, "0x1.fffffffffff0ep+0"),
    "steep": (lambda x: 1.0 / (1e-3 + (x - 0.3) ** 2), 0.0, 1.0, {}, "0x1.7a638baf9c1c2p+6"),
    # Roundoff alone, which no relative target meets: the error budget's floor stops it.
    "noise-abs-tol": (lambda x: math.sin(x) ** 2 + math.cos(x) ** 2 - 1.0, 0.0, 3.0,
                      {"abs_tol": 1e-12}, "-0x1.4cccccccccccdp-55"),
    "float-resolution": (lambda x: math.sin(1e15 * x), 1.0, _eight_ulps_above_one(),
                         {"rel_tol": 1e-300}, "0x1.06c1fcbee8d4cp-52"),
}


@pytest.mark.parametrize("case", FROZEN_SIMPSON)
def test_adaptive_simpson_frozen_bits(case):
    f, a, b, kwargs, bits = FROZEN_SIMPSON[case]
    assert adaptive_simpson(f, a, b, **kwargs).hex() == bits


def test_adaptive_simpson_frozen_error_message():
    with pytest.raises(ConvergenceError) as failed:
        adaptive_simpson(lambda x: 0.0 if x < 0.5 else 1.0, 0.0, 1.0, rel_tol=1e-12, max_depth=2)
    assert str(failed.value) == (
        "adaptive Simpson failed on [0.25, 0.5]: estimated error 1.389e-03 exceeds budget "
        "2.083e-13 at maximum subdivision depth")
    # Without the floor the noise integrand runs out of depth.
    f, a, b = FROZEN_SIMPSON["noise-abs-tol"][:3]
    with pytest.raises(ConvergenceError):
        adaptive_simpson(f, a, b, max_depth=20)


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
    # 0 kPa is the rest state, with no solve, but it checks the bracket: it reads the pair.
    for c1, p, evaluations in ((119.0, 0.0, 1), (119.0, 12.5, 1), (119.0, 40.0, 1),
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
@given(model=bracketed_models(), tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
       n_chambers=st.integers(min_value=3, max_value=60),
       f=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_inverse_is_brent_on_the_aperture_bit_for_bit(model, tol, n_chambers, f):
    # Stored range ends change no iterate: the angle is scipy's, to the bit, then clamped.
    from accordion_gripper import GripperAssembly, aperture_radius
    from accordion_gripper.gripper import aperture_vs_pressure, inverse_pressure

    geom, mat, box, p_max = model
    asm = GripperAssembly(geom, mat, n_chambers)
    rg_lo, rg_hi = (aperture_vs_pressure(asm, p, box, tol) for p in (0.0, p_max))
    target = rg_lo + f * (rg_hi - rg_lo)
    assume(rg_lo < target < rg_hi)  # the aperture falls under inflation on some geometries
    lo, hi = geom.half_angle_0, solve_deformation(geom, mat, p_max, box, tol).half_angle
    theta = optimize.brentq(
        lambda t: aperture_radius(wall_distance(state_at_angle(geom, t)), asm) - target,
        lo, hi, xtol=tol)
    expected = min(max(pressure_at_angle(geom, mat, theta), 0.0), p_max)
    assert inverse_pressure(asm, target, p_max, box, tol) == expected


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
        assert reach == (0.0, c1 * q_hi)
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


def _calls_with_box(box):
    """Every library call that takes a box, each on the default model."""
    from accordion_gripper import GripperAssembly, SuctionModel
    from accordion_gripper.calibration import MeasurementSeries, SeriesKind, fit_c1, fit_suction
    from accordion_gripper.gripper import aperture_vs_pressure, inverse_pressure, sweep, workspace

    geom, mat = ChamberGeometry(), HyperelasticMaterial()
    asm = GripperAssembly(geom, mat)
    apertures = MeasurementSeries.from_pairs(SeriesKind.PRESSURE_APERTURE,
                                             [(5, 20.8), (10, 20.97), (20, 21.55)])
    peaks = MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, [(0, 15), (20, 30), (40, 41)])
    return {
        "solve-0": lambda: solve_deformation(geom, mat, 0.0, box),
        "solve-5": lambda: solve_deformation(geom, mat, 5.0, box),
        "reachable": lambda: reachable_pressure_range(geom, mat, box),
        "aperture": lambda: aperture_vs_pressure(asm, 5.0, box),
        "inverse": lambda: inverse_pressure(asm, 21.0, 40.0, box),
        "workspace-0": lambda: workspace(asm, 0.0, box),
        "workspace-40": lambda: workspace(asm, 40.0, box),
        "sweep": lambda: sweep(asm, 0.0, 10.0, 3, box),
        "suction-model": lambda: SuctionModel(asm, 2264.0, 53.0, box=box),
        "fit-c1": lambda: fit_c1(apertures, geom, box=box),
        "fit-suction": lambda: fit_suction(peaks, asm, box=box),
    }


@pytest.mark.parametrize("call", list(_calls_with_box(SolverBox())))
def test_every_call_rejects_a_box_top_below_the_rest_angle(call):
    # 0.5 rad is 28.6 deg, below Theta0 = 57.6 deg: the bracket [Theta0, top] is empty.
    below = _calls_with_box(SolverBox(0.5))[call]
    with pytest.raises(ValueError, match="at or below the rest angle") as info:
        below()
    assert "28.6" in str(info.value) and "57.6 deg" in str(info.value)
    _calls_with_box(SolverBox())[call]()  # the default box answers


def test_box_end_pressure_that_is_not_finite_is_raised_on_every_call():
    import accordion_gripper.chamber as chamber

    geom = ChamberGeometry(4.56, 1e-155, math.radians(57.6))  # the pair is (nan, inf)
    before = chamber._box_end_pressures.cache_info()
    for _ in range(2):
        for call in (lambda: solve_deformation(geom, HyperelasticMaterial(), 0.0),
                     lambda: solve_deformation(geom, HyperelasticMaterial(), 12.5),
                     lambda: reachable_pressure_range(geom, HyperelasticMaterial())):
            with pytest.raises(ValueError, match=r"\(nan, inf\) kPa .* not finite"):
                call()
    after = chamber._box_end_pressures.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 6)


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
    # NaN lies on neither side of the reachable range: a bad input, named before any solve.
    with pytest.raises(ValueError, match="pressure must be a number, got nan kPa"):
        solve_deformation(ChamberGeometry(), HyperelasticMaterial(), math.nan)


def _nan_argument_calls():
    from accordion_gripper import GripperAssembly, SuctionModel, suction_force
    from accordion_gripper.gripper import inverse_pressure

    geom, mat, nan = ChamberGeometry(), HyperelasticMaterial(), math.nan
    asm = GripperAssembly(geom, mat)
    pressure = "pressure must be a number, got nan kPa"
    # A NaN solve pressure and solve tolerance have their own tests.
    return {
        "inverse-p-max": (lambda: inverse_pressure(asm, 21.0, nan), "p_max must be >= 0, got nan"),
        "suction-pressure": (lambda: suction_force(SuctionModel(asm, 2264.0, 53.0), nan, 5000),
                             pressure),
        "inverse-tol": (lambda: inverse_pressure(asm, 21.0, tol=nan),
                        "theta tolerance must be positive, got nan"),
        "simpson-rel-tol": (lambda: adaptive_simpson(math.sin, 0.0, 1.0, rel_tol=nan),
                            "rel_tol must be positive, got nan"),
        "quadrature-rel-tol": (lambda: pressure_quadrature(geom, geom.undeformed_state(), mat,
                                                           rel_tol=nan),
                               "rel_tol must be positive, got nan"),
    }


@pytest.mark.parametrize("case", list(_nan_argument_calls()))
def test_nan_argument_is_named_before_any_solve(case):
    # A bad input (ValueError), named with its value, not a NaN met inside Brent or Simpson.
    call, message = _nan_argument_calls()[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 2.0, -0.1])
def test_state_at_angle_rejects_angle_outside_quarter_turn(theta):
    with pytest.raises(ValueError, match=r"outside \(0, pi/2\)"):
        state_at_angle(ChamberGeometry(), theta)


@pytest.mark.parametrize("p", [0.0, 20.0, 100.0])
@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
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
            theta = optimize.brentq(lambda t: pressure_at_angle(geom, mat, t),
                                    geom.half_angle_0, box.half_angle_max)
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
# Root finder: Brent's method as scipy's brentq runs it, checked against it


def recorded(f):
    """f plus the list of points it was called at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


#: (name, f, a, b): brackets the pressure residuals never meet. Roots and brackets at
#: negative x, where |x| feeds the tolerance; an end at +0.0 or -0.0; decreasing
#: functions; an exact zero at an interior iterate; plateaus, where |f(blk)| ties |f(cur)|.
BRENT_EDGE_CASES = [
    ("negative linear", lambda x: x + 3.7, -10.0, -1.0),
    ("negative cubic", lambda x: (x + 2.0) ** 3 - 0.5, -5.0, 0.3),
    ("negative sine", lambda x: math.sin(x) + 0.25, -2.0, -0.1),
    ("end at -0.0", lambda x: x - 0.3, -0.0, 1.0),
    ("end at +0.0", lambda x: x - 0.3, 0.0, 1.0),
    ("top end at -0.0", lambda x: x + 0.7, -2.0, -0.0),
    ("exp from -0.0", lambda x: math.exp(x) - 2.0, -0.0, 4.0),
    ("decreasing cubic", lambda x: 2.0 - x**3, 0.0, 3.0),
    ("decreasing exp", lambda x: math.exp(-x) - 0.3, -1.0, 5.0),
    ("decreasing atan", lambda x: -math.atan(x + 4.0), -9.0, 2.0),
    ("zero on the first secant", lambda x: x - 0.5, 0.0, 1.0),
    ("zero band", lambda x: 0.0 if abs(x - 1.3) < 0.4 else x - 1.3, 0.0, 3.0),
    ("narrow zero band", lambda x: 0.0 if abs(x - 0.8) < 1e-3 else math.tanh(5.0 * (x - 0.8)),
     -3.0, 4.0),
    ("negative zero band", lambda x: 0.0 if abs(x + 0.8) < 1e-3 else (x + 0.8) ** 3, -3.0, 0.0),
    ("decreasing zero band", lambda x: 0.0 if abs(x + 2.5) < 0.7 else -(x + 2.5), -6.0, 1.0),
    ("staircase", lambda x: math.floor(4.0 * x) - 1.5, 0.0, 1.0),
    ("staircase from -0.0", lambda x: math.floor(4.0 * x) - 1.5, -0.0, 1.1),
    ("clipped", lambda x: max(min(3.0 * x - 1.0, 1.0), -1.0), -2.0, 5.0),
    ("decreasing clipped", lambda x: -max(min(3.0 * x + 4.0, 1.0), -1.0), -7.0, 0.0),
    ("sign step", lambda x: math.copysign(1.0, x - 0.7), -1.0, 2.0),
]


@pytest.mark.parametrize("xtol", [1e-12, 1e-9, 1e-6, 1e-3])
def test_brentq_matches_scipy_bit_for_bit(xtol):
    rng = np.random.default_rng(2024)
    problems = []
    for i in range(300):
        geom = ChamberGeometry(
            rng.uniform(3.5, 6.0), rng.uniform(1.5, 3.4), math.radians(rng.uniform(40, 70))
        )
        mat = HyperelasticMaterial(rng.uniform(50.0, 300.0))
        lo, hi = geom.half_angle_0, math.radians(rng.uniform(75.0, 85.0))
        p = float(rng.uniform(0.0, pressure_at_angle(geom, mat, hi)))  # _brent takes floats
        f = lambda t, geom=geom, mat=mat, p=p: pressure_at_angle(geom, mat, t) - p  # noqa: E731
        problems.append((f"pressure {i}", f, lo, hi))
    for name, f, lo, hi in problems + BRENT_EDGE_CASES:
        ours, our_xs = recorded(f)
        theirs, their_xs = recorded(f)
        root_ours = _brent(ours, lo, hi, ours(lo), ours(hi), xtol)
        root_theirs = optimize.brentq(theirs, lo, hi, xtol=xtol)
        assert (root_ours, math.copysign(1.0, root_ours)) == (
            root_theirs, math.copysign(1.0, root_theirs)), name
        assert type(root_ours) is float, name
        assert our_xs == their_xs, name


def test_brentq_same_sign_bracket_rejected():
    with pytest.raises(ValueError, match="different signs"):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, 2e-12)


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_brent_root_at_a_bracket_end_takes_no_step(end):
    # A zero end value is the root, as scipy's brentq returns it, with no call of f.
    lo, hi = 0.5, 2.0
    root = {"lo": lo, "hi": hi}[end]
    f = lambda x: x - root  # noqa: E731
    calls = []
    assert _brent(lambda x: calls.append(x), lo, hi, f(lo), f(hi), 2e-12) == root
    assert optimize.brentq(f, lo, hi) == root
    assert calls == []


def test_brentq_maxiter_exhausted():
    with pytest.raises(ConvergenceError, match="3 iterations"):
        _brent(lambda x: x**3 - 2.0, 0.0, 2.0, -2.0, 6.0, 1e-15, 3)


# R0**2 overflows (OverflowError), or R0**2 fits but times Theta0 is inf.
@pytest.mark.parametrize("r_outer_0, half_angle_0", [(1e200, 1.0), (1e155, 1.0), (1.3e154, 1.5)])
def test_geometry_overflow_names_the_radii(r_outer_0, half_angle_0):
    with pytest.raises(ValueError, match=r"overflows.*R0=.*R1=3\.0"):
        ChamberGeometry(r_outer_0, 3.0, half_angle_0)
