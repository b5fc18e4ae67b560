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

from .errors import ConvergenceError, OutOfWorkspaceError
from .material import HyperelasticMaterial
from .records import Record

#: The published box, the original design study's search: (lo, hi) of r0 in [4.56, 5] mm, r1 in
#: [3, 3.8] mm and theta0 in [57.6 deg, 80 deg] (rad here).  Its lower corner is the default
#: geometry and its top angle the default ``SolverBox``; inflation leaves the radial ranges.
PUBLISHED_BOX = ((4.56, 5.0), (3.0, 3.8), (math.radians(57.6), math.radians(80.0)))

#: Default tolerances: on theta0 (rad) of every bracketed solve, and the
#: relative tolerance of the pressure quadrature.
THETA_TOL_RAD = 1e-12
QUAD_REL_TOL = 1e-9


class ChamberGeometry(Record, fields="r_outer_0 r_inner_0 half_angle_0 pin_half_distance "
                      "sector_area_scale log_radius_ratio inner_sector_area"):
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


class DeformedState(Record, fields="r_outer r_inner half_angle"):
    """Deformed half-chamber unknowns r0, r1 (mm) and theta0 (rad)."""

    __slots__ = ()

    def __new__(cls, r_outer: float, r_inner: float, half_angle: float):
        _check_radii(r_outer, r_inner)
        if not 0.0 < half_angle < math.pi:
            raise ValueError(f"require 0 < theta0 < pi, got {half_angle}")
        return tuple.__new__(cls, (r_outer, r_inner, half_angle))


class SolverBox(Record, fields="half_angle_max"):
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
    form of the map the quadrature oracle integrates, pinned there to the bit.
    """
    if not state.r_inner - 1e-12 <= r <= state.r_outer + 1e-12:
        raise ValueError(
            f"radius {r} outside deformed wall [{state.r_inner}, {state.r_outer}]"
        )
    k = state.half_angle / geom.half_angle_0
    return r * k / math.sqrt(geom.r_inner_0**2 + (r * r - state.r_inner**2) * k)


def wall_distance(state: DeformedState) -> float:
    """Interior chamber width D = 2*(r0 - r1*cos(theta0)), mm."""
    return _wall_distance(state.r_outer, state.r_inner, state.half_angle)


def _wall_distance(r0: float, r1: float, theta: float) -> float:
    return 2.0 * (r0 - r1 * math.cos(theta))


def _check_radii(r0: float, r1: float) -> None:
    if not 0.0 < r1 < r0:
        raise ValueError(f"require 0 < r1 < r0, got r1={r1}, r0={r0}")


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
    adelta = delta if delta > 0.0 else 0.0 - delta  # abs(delta), as in _brent
    # Two levels first: one refinement can match the whole by chance (Lyness 1969).
    if adelta <= 15.0 * eps and (level >= 2 or depth <= 0):
        return left + right + delta / 15.0
    if depth <= 0:
        raise ConvergenceError(
            f"adaptive Simpson failed on [{a:.6g}, {b:.6g}]: "
            f"estimated error {adelta / 15.0:.3e} exceeds budget {eps:.3e} "
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
    if not rel_tol > 0:  # a NaN fails it too
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
    This is the ground-truth oracle for the closed forms.  Each node is one frame
    with the float operations of ``hoop_stretch`` and ``stress_difference`` in their
    order, unchecked: lam_theta = r*k/sqrt(R1^2 + (r^2 - r1^2)*k) with k = theta0/Theta0
    > 0 is positive on [r1, r0], and so is its reciprocal.
    """
    k = state.half_angle / geom.half_angle_0
    big_r1_sq, r1_sq, two_c1, sqrt = geom.r_inner_0**2, state.r_inner**2, 2.0 * mat.c1, math.sqrt

    def integrand(r: float) -> float:
        lam_t = r * k / sqrt(big_r1_sq + (r * r - r1_sq) * k)
        lam_r = 1.0 / lam_t
        return two_c1 * (lam_t**2 - lam_r**2) / r

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
_MAXITER = 100  # scipy's default


def _brent(f, xpre: float, xcur: float, fpre: float, fcur: float, xtol: float,
           maxiter: int = _MAXITER) -> float:
    """Root of f in the bracket [xpre, xcur] by Brent's method, from the known end values.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4, in the
    form of scipy's ``brentq.c``: same steps and the same floating-point operations
    in the same order, so every iterate matches scipy's ``brentq`` bit for bit.
    Converged when half the bracket is below ``(xtol + 4*eps*|x|)/2``.  The one body
    of every bracketed solve: f is called only inside the bracket and must return a
    float; the caller checks xtol and any NaN.  Raises ValueError when fpre and fcur
    share a sign, and ConvergenceError after ``maxiter`` steps.

    A step calls nothing but f: ``|x|`` is ``x if x > 0.0 else 0.0 - x`` and
    ``min(a, b)`` is ``b if b < a else a``, which return what ``abs`` and ``min``
    return for every float, signed zeros and NaN included.
    """
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    rtol = _RTOL
    for _ in range(maxiter):
        # fpre is never 0 here, and a zero fcur returns below whatever the block is.
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        afcur = fcur if fcur > 0.0 else 0.0 - fcur
        afblk = fblk if fblk > 0.0 else 0.0 - fblk
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afcur = afblk

        delta = (xtol + rtol * (xcur if xcur > 0.0 else 0.0 - xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        asbis = sbis if sbis > 0.0 else 0.0 - sbis
        if fcur == 0.0 or asbis < delta:
            return xcur

        aspre = spre if spre > 0.0 else 0.0 - spre
        if aspre > delta and afcur < (fpre if fpre > 0.0 else 0.0 - fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3.0 * asbis - delta
            if 2.0 * (stry if stry > 0.0 else 0.0 - stry) < (bound if bound < aspre else aspre):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if (scur if scur > 0.0 else 0.0 - scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise ConvergenceError(f"Brent's method failed to converge after {maxiter} iterations, "
                           f"value is {xcur}")


# ---------------------------------------------------------------------------
# Deformation solver (scalar reduction on theta0)


def _radii(geom: ChamberGeometry, theta: float) -> tuple[float, float]:
    """(r0, r1), mm, implied by theta0 via the pin and area constraints.

    The residuals of ``angles_at_pressures`` and ``angle_at_aperture`` repeat its float
    operations on the geometry's constants, bound once per call.
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"half angle {theta} outside (0, pi/2)")
    r1 = geom.pin_half_distance / math.sin(theta)
    return math.sqrt(r1 * r1 + geom.sector_area_scale / theta), r1


def state_at_angle(geom: ChamberGeometry, theta: float) -> DeformedState:
    """Deformed state implied by theta0 via the pin and area constraints."""
    return DeformedState(*_radii(geom, theta), theta)


def wall_distance_at_angle(geom: ChamberGeometry, theta: float) -> float:
    """``wall_distance(state_at_angle(geom, theta))``, mm, with its checks; builds no state."""
    r0, r1 = _radii(geom, theta)
    _check_radii(r0, r1)
    return _wall_distance(r0, r1, theta)


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

    A top at or below Theta0, or an end pressure that is not finite, is a ValueError.  Each
    (geometry, top) is evaluated once and every c1 scales its pair; the key is immutable, so
    a stored pair never goes stale, and an exception is raised afresh on every call.
    """
    lo = geom.half_angle_0
    if not lo < hi:
        raise ValueError(f"the solver box top {math.degrees(hi):.6g} deg is at or below the rest "
                         f"angle Theta0 = {math.degrees(lo):.6g} deg; it must lie above it")
    ends = _pressure(geom, *_radii(geom, lo), lo), _pressure(geom, *_radii(geom, hi), hi)
    if not all(map(math.isfinite, ends)):
        raise ValueError(f"the c1 = 1 kPa pressures {ends} kPa at the bracket ends are not finite")
    return ends


def reachable_pressure_range(
    geom: ChamberGeometry, mat: HyperelasticMaterial, box: SolverBox = SolverBox()
) -> tuple[float, float]:
    """Pressures (kPa) reachable on [Theta0, box top]: from 0, since P(Theta0) = 0, to P(top)."""
    return 0.0, mat.c1 * _box_end_pressures(geom, box.half_angle_max)[1]


def angles_at_pressures(geom: ChamberGeometry, mat: HyperelasticMaterial, pressures,
                        box: SolverBox = SolverBox(), tol: float = THETA_TOL_RAD):
    """theta0 (rad) at each inflation pressure (kPa) in turn, P(theta0) = p by Brent on
    [Theta0, box top]; P(Theta0) = 0, so a pressure at or below c1*q(Theta0), the closed
    form's rounding noise at rest, is Theta0 with no step.  A generator: it raises what
    one-point solves in turn raise, but checks tol and reads the box-end pair once."""
    lo, hi, c1 = geom.half_angle_0, box.half_angle_max, mat.c1
    pin, area, sin, sqrt = geom.pin_half_distance, geom.sector_area_scale, math.sin, math.sqrt
    p_rest = None

    def residual(t: float) -> float:  # pressure_at_angle(geom, mat, t) - p, on bound constants
        r1 = pin / sin(t)
        return c1 * _pressure(geom, sqrt(r1 * r1 + area / t), r1, t) - p

    for p in pressures:
        if math.isnan(p):
            raise ValueError(f"pressure must be a number, got {p} kPa")
        if p < 0:
            raise OutOfWorkspaceError(f"inflation branch only: pressure must be >= 0 kPa, "
                                      f"got {p}", reachable=(0.0, None))
        if p_rest is None:
            if not tol > 0:  # a NaN fails it too
                raise ValueError(f"theta tolerance must be positive, got {tol}")
            # Brent starts at the ends, evaluated once per key.
            q_lo, q_hi = _box_end_pressures(geom, hi)
            p_lo, p_hi = c1 * q_lo, c1 * q_hi
            p_rest = max(p_lo, 0.0)
        if p <= p_rest:
            yield lo
        elif p > p_hi:
            raise OutOfWorkspaceError(f"pressure {p} kPa outside the range [0, {p_hi:.6g}] kPa "
                                      "reachable inside the solver box", reachable=(0.0, p_hi))
        else:
            yield _brent(residual, lo, hi, p_lo - p, p_hi - p, tol)


def solve_deformation(geom: ChamberGeometry, mat: HyperelasticMaterial, p: float,
                      box: SolverBox = SolverBox(), tol: float = THETA_TOL_RAD) -> DeformedState:
    """Deformed state at inflation pressure p (kPa): ``angles_at_pressures`` at one point."""
    (theta,) = angles_at_pressures(geom, mat, (p,), box, tol)
    return state_at_angle(geom, theta)


def angle_at_aperture(geom: ChamberGeometry, sector_angle: float, target: float,
                      hi: float, rg_lo: float, rg_hi: float, tol: float) -> float:
    """theta0 (rad) in [Theta0, hi] where the aperture radius D/alpha equals target (mm).

    alpha is the ``sector_angle`` (rad) each chamber of the ring spans.  The apertures
    rg_lo and rg_hi at Theta0 and hi are the caller's, and must bracket the target;
    ``tol`` is the Brent tolerance on theta0.
    """
    pin, area, sin, sqrt = geom.pin_half_distance, geom.sector_area_scale, math.sin, math.sqrt

    def residual(t: float) -> float:  # wall_distance(state_at_angle(geom, t))/alpha - target
        r1 = pin / sin(t)
        return _wall_distance(sqrt(r1 * r1 + area / t), r1, t) / sector_angle - target

    return _brent(residual, geom.half_angle_0, hi, rg_lo - target, rg_hi - target, tol)
