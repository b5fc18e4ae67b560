"""Single-chamber kinematics, the inflation-pressure functional, and the
bounded deformation solver.

The model treats half of one chamber wall as an annular sector with
undeformed inner radius R1, outer radius R0 and half central angle Theta0
(lengths in mm, angles in rad, pressures in kPa). Under inflation the
sector deforms to (r0, r1, theta0) subject to two kinematic constraints:

* pin constraint: the inner-edge endpoints stay fixed in space, so
  ``r1*sin(theta0) = R1*sin(Theta0)``;
* area constraint: the wall cross section is conserved, so
  ``(r0^2 - r1^2)*theta0 = (R0^2 - R1^2)*Theta0``.

Positive (inflation) pressure corresponds to theta0 > Theta0; the two
constraints then force r1 and r0 to *decrease* while the wall distance
D = 2*(r0 - r1*cos(theta0)) grows.

Two independent routes compute the inflation pressure of a deformed state:
an adaptive-Simpson quadrature of the radial equilibrium integral (the
ground truth used by tests and the ``validate`` report) and a closed form.
The closed form is available in two variants: ``rederived`` (the default,
agrees with the quadrature and vanishes at zero deformation) and
``as_printed`` (retained for audit; its final logarithm carries coefficient
1 instead of 2 and it does *not* vanish at zero deformation).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .errors import ConvergenceError, OutOfWorkspaceError
from .material import HyperelasticMaterial, _stress_difference
from .records import CheckedRecord

#: The published box, the original design study's search: (lo, hi) of r0 in [4.56, 5] mm, r1 in
#: [3, 3.8] mm and theta0 in [57.6 deg, 80 deg] (rad here).  Its lower corner is the default
#: geometry and its top angle the default ``SolverBox``; inflation leaves the radial ranges.
PUBLISHED_BOX = ((4.56, 5.0), (3.0, 3.8), (math.radians(57.6), math.radians(80.0)))

#: Default tolerances: on theta0 (rad) of every bracketed solve, and the
#: relative tolerance of the pressure quadrature.
THETA_TOL_RAD = 1e-12
QUAD_REL_TOL = 1e-9


class ChamberGeometry(CheckedRecord, namedtuple("ChamberGeometry", (
        "r_outer_0 r_inner_0 half_angle_0 pin_half_distance sector_area_scale "
        "log_radius_ratio inner_sector_area"))):
    """Uninflated half-chamber cross section: R0 and R1 (mm), Theta0 (rad).

    Four constants are derived at construction, never user-set, because every
    pressure evaluation reads them: ``pin_half_distance`` a = R1*sin(Theta0),
    mm, half the distance between the fixed inner-edge endpoints,
    ``sector_area_scale`` (R0^2 - R1^2)*Theta0, mm^2*rad, conserved under
    deformation, ``log_radius_ratio`` ln(R0/R1) and ``inner_sector_area``
    R1^2*Theta0, mm^2*rad.
    """

    __slots__ = ()
    _inputs = 3

    def __new__(cls, r_outer_0: float = PUBLISHED_BOX[0][0],
                r_inner_0: float = PUBLISHED_BOX[1][0], half_angle_0: float = PUBLISHED_BOX[2][0]):
        if not 0.0 < r_inner_0 < r_outer_0:
            raise ValueError(f"require 0 < R1 < R0, got R1={r_inner_0}, R0={r_outer_0}")
        if not 0.0 < half_angle_0 < math.pi / 2:
            raise ValueError(f"require 0 < Theta0 < pi/2 rad, got {half_angle_0}")
        try:
            area_scale = (r_outer_0**2 - r_inner_0**2) * half_angle_0
        except OverflowError:  # float ** raises where * returns inf
            area_scale = math.inf
        if math.isinf(area_scale):
            raise ValueError(f"(R0^2 - R1^2)*Theta0 overflows a float, got R0={r_outer_0}, "
                             f"R1={r_inner_0}")
        return tuple.__new__(cls, (r_outer_0, r_inner_0, half_angle_0,
                                   r_inner_0 * math.sin(half_angle_0), area_scale,
                                   math.log(r_outer_0 / r_inner_0), r_inner_0**2 * half_angle_0))

    def undeformed_state(self) -> "DeformedState":
        return DeformedState(self.r_outer_0, self.r_inner_0, self.half_angle_0)


class DeformedState(CheckedRecord, namedtuple("DeformedState", "r_outer r_inner half_angle")):
    """Deformed half-chamber unknowns r0, r1 (mm) and theta0 (rad)."""

    __slots__ = ()

    def __new__(cls, r_outer: float, r_inner: float, half_angle: float):
        if not 0.0 < r_inner < r_outer:
            raise ValueError(f"require 0 < r1 < r0, got r1={r_inner}, r0={r_outer}")
        if not 0.0 < half_angle < math.pi:
            raise ValueError(f"require 0 < theta0 < pi, got {half_angle}")
        return tuple.__new__(cls, (r_outer, r_inner, half_angle))


class SolverBox(CheckedRecord, namedtuple("SolverBox", "half_angle_max")):
    """The top angle, rad, of the deformed half angle theta0 the solver brackets on.

    Inflation opens the chamber from rest, so every bracket runs from the rest angle
    Theta0 up to this top; the pin and area constraints fix r1 and r0 once theta0 is
    known, so the angle range is the whole search box.
    """

    __slots__ = ()

    def __new__(cls, half_angle_max: float = PUBLISHED_BOX[2][1]):
        if not 0.0 < half_angle_max < math.pi / 2:
            raise ValueError(f"half_angle_max must lie in (0, pi/2), got {half_angle_max}")
        return tuple.__new__(cls, (half_angle_max,))


# ---------------------------------------------------------------------------
# Kinematics


def pin_residual(geom: ChamberGeometry, state: DeformedState) -> float:
    """r1*sin(theta0) - a, mm.  Zero when the endpoints are fixed."""
    return state.r_inner * math.sin(state.half_angle) - geom.pin_half_distance


def area_residual(geom: ChamberGeometry, state: DeformedState) -> float:
    """(R0^2-R1^2)*Theta0 - (r0^2-r1^2)*theta0, mm^2*rad."""
    return geom.sector_area_scale - (
        state.r_outer**2 - state.r_inner**2
    ) * state.half_angle


def hoop_stretch(geom: ChamberGeometry, state: DeformedState, r: float) -> float:
    """Hoop stretch of the material circle currently at radius r.

    The material map sends the undeformed circle at radius R to
    r(R) with ``(R^2 - R1^2)*Theta0 = (r^2 - r1^2)*theta0``; inverting gives
    the undeformed radius ``R(r)^2 = R1^2 + (r^2 - r1^2)*theta0/Theta0`` and
    the stretch ``lam_theta = r*theta0 / (R*Theta0)``; the radial stretch is
    its reciprocal.  Public, though only tests call it: it is the one checked
    form of the map the quadrature oracle integrates, pinned there at 1e-14.
    """
    if not state.r_inner - 1e-12 <= r <= state.r_outer + 1e-12:
        raise ValueError(
            f"radius {r} outside deformed wall [{state.r_inner}, {state.r_outer}]"
        )
    return _stretch_map(geom, state)(r)


def _stretch_map(geom: ChamberGeometry, state: DeformedState):
    """r -> lam_theta on plain floats, for r inside the deformed wall.

    The quadrature evaluates it at every node, so it reads no record field.
    """
    k = state.half_angle / geom.half_angle_0
    big_r1_sq, r1_sq, sqrt = geom.r_inner_0**2, state.r_inner**2, math.sqrt
    return lambda r: r * k / sqrt(big_r1_sq + (r * r - r1_sq) * k)


def wall_distance(state: DeformedState) -> float:
    """Interior chamber width D = 2*(r0 - r1*cos(theta0)), mm."""
    return _wall_distance(state.r_outer, state.r_inner, state.half_angle)


def _wall_distance(r0: float, r1: float, theta: float) -> float:
    return 2.0 * (r0 - r1 * math.cos(theta))


# ---------------------------------------------------------------------------
# Pressure functional


def _adapt(f, a, b, fa, fm, fb, whole, eps, depth, level=0):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    if not a < lm < m < rm < b:
        # Interval at floating-point resolution; cannot refine further.
        return whole
    flm = f(lm)
    frm = f(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = left + right - whole
    # Two levels first: one refinement can match the whole by chance (Lyness 1969).
    if abs(delta) <= 15.0 * eps and (level >= 2 or depth <= 0):
        return left + right + delta / 15.0
    if depth <= 0:
        raise ConvergenceError(
            f"adaptive Simpson failed on [{a:.6g}, {b:.6g}]: "
            f"estimated error {abs(delta) / 15.0:.3e} exceeds budget {eps:.3e} "
            "at maximum subdivision depth"
        )
    return _adapt(f, a, m, fa, flm, fm, left, 0.5 * eps, depth - 1, level + 1) + _adapt(
        f, m, b, fm, frm, fb, right, 0.5 * eps, depth - 1, level + 1
    )


def adaptive_simpson(f, a: float, b: float, rel_tol: float = QUAD_REL_TOL,
                     abs_tol: float = 0.0, max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature with interval-halving error control.

    ``abs_tol`` is a floor on the error budget; without it an integrand
    that is pure cancellation noise (magnitude ~eps_mach times the terms
    it is built from) can never satisfy a purely relative target.
    """
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    eps = max(rel_tol * abs(whole), abs_tol)
    return _adapt(f, a, b, fa, fm, fb, whole, eps, max_depth)


def pressure_quadrature(
    geom: ChamberGeometry,
    state: DeformedState,
    mat: HyperelasticMaterial,
    rel_tol: float = QUAD_REL_TOL,
) -> float:
    """Inflation pressure by direct integration of radial equilibrium, kPa.

    Integrates (sigma_tt - sigma_rr)/r over the deformed wall [r1, r0].
    This is the ground-truth oracle for the closed forms.  Each node calls the
    material law's unchecked body: lam_theta = r*k/sqrt(R1^2 + (r^2 - r1^2)*k) with
    k = theta0/Theta0 > 0 is positive on [r1, r0], and so is its reciprocal.
    """

    stretch, c1 = _stretch_map(geom, state), mat.c1

    def integrand(r: float) -> float:
        lam_t = stretch(r)
        return _stress_difference(c1, lam_t, 1.0 / lam_t) / r

    # The integrand carries absolute roundoff of order eps_mach*c1, so give
    # the error control a floor well below any physical pressure of
    # interest but above that noise.
    return adaptive_simpson(
        integrand,
        state.r_inner,
        state.r_outer,
        rel_tol,
        abs_tol=1e-12 * mat.c1,
    )


def pressure_closed_form(
    geom: ChamberGeometry,
    state: DeformedState,
    mat: HyperelasticMaterial,
    variant: str = "rederived",
) -> float:
    """Closed-form inflation pressure, kPa.

    ``rederived`` carries coefficient 2 on the final logarithm and matches
    the quadrature; ``as_printed`` carries coefficient 1 as originally
    typeset and evaluates to c1*ln(R0/R1) != 0 at zero deformation.  The
    two differ analytically by ``c1*(Theta0/theta0)*ln(r0/r1)``.
    """
    if variant not in ("rederived", "as_printed"):
        raise ValueError(f"unknown closed-form variant {variant!r}")
    log_coeff = 2.0 if variant == "rederived" else 1.0
    return mat.c1 * _pressure(geom, state.r_outer, state.r_inner, state.half_angle, log_coeff)


def _pressure(geom, r0, r1, theta, log_coeff=2.0):
    """The closed form at c1 = 1 kPa on plain floats, q: every pressure is c1*q."""
    big_theta = geom.half_angle_0
    return (
        2.0 * (theta / big_theta) * geom.log_radius_ratio
        + (big_theta / theta**2) * (geom.inner_sector_area - r1**2 * theta)
        * (1.0 / r0**2 - 1.0 / r1**2)
        - log_coeff * (big_theta / theta) * math.log(r0 / r1)
    )


# ---------------------------------------------------------------------------
# Bracketed root finder

_RTOL = 4 * 2.220446049250313e-16  # 4 machine epsilons: scipy's default rtol


def brentq(f, a: float, b: float, xtol: float = 2e-12, maxiter: int = 100) -> float:
    """Root of f in the bracket [a, b] by Brent's method.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4,
    in the form of scipy's ``brentq.c``: same defaults, same steps and the
    same floating-point operations in the same order, so every iterate
    matches scipy's bit for bit.  Converged when half the bracket is below
    ``(xtol + 4*eps*|x|)/2``.  Raises ValueError when f(a) and f(b) share a
    sign or f returns NaN, and ConvergenceError after ``maxiter`` steps.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ConvergenceError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# Deformation solver (scalar reduction on theta0)


def _radii(geom: ChamberGeometry, theta: float) -> tuple[float, float]:
    """(r0, r1), mm, implied by theta0 via the pin and area constraints."""
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"half angle {theta} outside (0, pi/2)")
    r1 = geom.pin_half_distance / math.sin(theta)
    return math.sqrt(r1 * r1 + geom.sector_area_scale / theta), r1


def state_at_angle(geom: ChamberGeometry, theta: float) -> DeformedState:
    """Deformed state implied by theta0 via the pin and area constraints."""
    return DeformedState(*_radii(geom, theta), theta)


def pressure_at_angle(
    geom: ChamberGeometry, mat: HyperelasticMaterial, theta: float
) -> float:
    """Rederived closed-form pressure on the constraint manifold, kPa; builds no state."""
    return mat.c1 * _pressure(geom, *_radii(geom, theta), theta)


#: Box-end pressure pairs ``_box_end_pressures`` keeps, the least recently used dropped first.
_BOX_END_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_BOX_END_CACHE_SIZE)
def _box_end_pressures(geom: ChamberGeometry, hi: float) -> tuple[float, float]:
    """(q(Theta0), q(hi)): the c1 = 1 kPa pressures at the ends of the bracket [Theta0, hi].

    They depend only on the geometry and the top angle, so each key is evaluated
    once and every c1 scales the same pair; the geometry is immutable, so a stored
    pair never goes stale, and an exception is raised afresh on every call, never stored.
    """
    lo = geom.half_angle_0
    return _pressure(geom, *_radii(geom, lo), lo), _pressure(geom, *_radii(geom, hi), hi)


def reachable_pressure_range(
    geom: ChamberGeometry, mat: HyperelasticMaterial, box: SolverBox = SolverBox()
) -> tuple[float, float]:
    """Pressures (kPa) reachable on [Theta0, box top]; rest-angle noise below 0 floors to 0."""
    q_lo, q_hi = _box_end_pressures(geom, box.half_angle_max)
    return max(mat.c1 * q_lo, 0.0), mat.c1 * q_hi


def _outside_box(p: float, reachable: tuple[float, float]) -> OutOfWorkspaceError:
    """The error for a pressure p (kPa) outside the ``reachable`` range of the box."""
    return OutOfWorkspaceError(f"pressure {p} kPa outside the range [{reachable[0]:.6g}, "
                               f"{reachable[1]:.6g}] kPa reachable inside the solver box",
                               reachable=reachable)


def solve_deformation(
    geom: ChamberGeometry,
    mat: HyperelasticMaterial,
    p: float,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> DeformedState:
    """Solve for the deformed state at inflation pressure p (kPa).

    The pin and area constraints eliminate r1 and r0, reducing the system
    to a single monotone equation P(theta0) = p bracketed on [Theta0, box
    top] (Brent).  The constraints hold exactly by construction; the
    pressure residual is bounded by the bracketing tolerance.  At 0 kPa the
    state is the rest geometry, P(Theta0) = 0.
    """
    if p < 0:
        raise OutOfWorkspaceError(
            f"inflation branch only: pressure must be >= 0 kPa, got {p}",
            reachable=(0.0, None),
        )
    if tol <= 0:
        raise ValueError(f"theta tolerance must be positive, got {tol}")
    lo, hi = geom.half_angle_0, box.half_angle_max
    if p == 0:
        return state_at_angle(geom, lo)
    # brentq starts at the bracket ends, whose c1 = 1 kPa pressures are evaluated once per key.
    q_lo, q_hi = _box_end_pressures(geom, hi)
    p_lo, p_hi = mat.c1 * q_lo, mat.c1 * q_hi
    if p < p_lo or p > p_hi:  # a NaN compares false both ways and reaches brentq's ValueError
        raise _outside_box(p, (max(p_lo, 0.0), p_hi))
    ends = {lo: p_lo, hi: p_hi}
    theta = brentq(lambda t: (ends[t] if t in ends else pressure_at_angle(geom, mat, t)) - p,
                   lo, hi, xtol=tol)
    return state_at_angle(geom, theta)
