"""Seeded input generator and the reference physics it uses.

Every input a workload hands to the program comes from here: pressures,
aperture targets, object descriptors, measurement series, force traces and
config overrides.  The same seed gives the same inputs.  Expected answers
come from an independent copy of the model's explicit formulas (kinematics
and closed-form pressure on the constraint manifold, solved by bisection),
so the generator never calls the code it is used to check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

# Package defaults the benchmark relies on and never overrides: geometry
# (R0, R1 mm, Theta0 rad), solver box upper edge, p_max, folded aperture,
# stretch margin and the suction / grasp section of the embedded config.
R0, R1, THETA0 = 4.56, 3.0, math.radians(57.6)
THETA_HI = math.radians(80.0)
P_MAX = 40.0
FOLDED_MM = 5.0
MARGIN_MM = 8.65
AMBIENT_KPA = 101.325
A_EFF_MM2, H_EFF_MM, LIFT_MM3 = 2264.0, 53.0, 5000.0
SUCTION_KPA = 20.0

PIN = R1 * math.sin(THETA0)  # r1*sin(theta0), mm: the pin constraint
AREA = (R0 * R0 - R1 * R1) * THETA0  # (r0^2 - r1^2)*theta0: the area constraint

# A dozen assemblies: four c1 strata (kPa) by three chamber counts.  The
# (119 kPa, 22) slot is the embedded default and is used without a config.
C1_STRATA = ((85.0, 105.0), (119.0, 119.0), (140.0, 165.0), (180.0, 220.0))
N_CHOICES = (16, 22, 28)


def radii(theta: float) -> tuple[float, float]:
    """(r0, r1) in mm implied by theta0 through the pin and area constraints."""
    r1 = PIN / math.sin(theta)
    return math.sqrt(r1 * r1 + AREA / theta), r1


def pressure(c1: float, theta: float) -> float:
    """Closed-form inflation pressure (kPa) at half angle theta."""
    r0, r1 = radii(theta)
    return (
        2.0 * c1 * (theta / THETA0) * math.log(R0 / R1)
        + c1 * (THETA0 / theta**2) * (R1 * R1 * THETA0 - r1 * r1 * theta)
        * (1.0 / r0**2 - 1.0 / r1**2)
        - 2.0 * c1 * (THETA0 / theta) * math.log(r0 / r1)
    )


def aperture(n: int, theta: float) -> float:
    """Aperture radius (mm) of an n-chamber ring at half angle theta."""
    r0, r1 = radii(theta)
    return (r0 - r1 * math.cos(theta)) * n / math.pi


def theta_at(c1: float, p: float) -> float:
    """Half angle at which the closed-form pressure equals p (bisection)."""
    lo, hi = THETA0, THETA_HI
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if pressure(c1, mid) < p:
            lo = mid
        else:
            hi = mid


def suction(n: int, c1: float, p: float, a_eff=A_EFF_MM2, h_eff=H_EFF_MM) -> float:
    """Suction force (N) of the isothermal seal model at chamber pressure p."""
    rg0, rg = aperture(n, THETA0), aperture(n, theta_at(c1, p))
    v0 = math.pi * rg0 * rg0 * h_eff
    v = math.pi * rg * rg * h_eff + LIFT_MM3
    return max(0.0, (AMBIENT_KPA - AMBIENT_KPA * v0 / v) * a_eff) / 1000.0


def moving_peak(values: list[float], window: int) -> float:
    """Largest centred moving average of the given width."""
    run = sum(values[:window])
    best = run
    for i in range(window, len(values)):
        run += values[i] - values[i - window]
        best = max(best, run)
    return best / window


@dataclass
class Assembly:
    """One c1 x n_chambers assembly and the config file that selects it."""

    c1: float
    n: int
    config_path: str | None  # None: the embedded defaults
    theta_pmax: float = field(init=False)
    rest: float = field(init=False)
    max_rg: float = field(init=False)
    p_box: float = field(init=False)
    ctx: object = field(init=False, default=None)  # the package's ModelContext
    model: object = field(init=False, default=None)  # its SuctionModel

    def __post_init__(self) -> None:
        self.theta_pmax = theta_at(self.c1, P_MAX)
        self.rest = aperture(self.n, THETA0)
        self.max_rg = aperture(self.n, self.theta_pmax)
        self.p_box = pressure(self.c1, THETA_HI)


def make_assemblies(rng, workdir: str) -> list[Assembly]:
    """The dozen assemblies of a run, with their config override files."""
    out = []
    for lo, hi in C1_STRATA:
        for n in N_CHOICES:
            if lo == hi and n == 22:
                out.append(Assembly(lo, n, None))
                continue
            c1 = round(rng.uniform(lo, hi), 3)
            path = os.path.join(workdir, f"config-{len(out)}.json")
            with open(path, "w") as fh:
                json.dump({"material": {"c1_kPa": c1}, "assembly": {"n_chambers": n}}, fh)
            out.append(Assembly(c1, n, path))
    return out


def thetas(rng, theta_max: float, k: int) -> list[float]:
    """k strictly increasing half angles in (Theta0, theta_max], jittered."""
    return [THETA0 + (theta_max - THETA0) * (i + rng.uniform(0.2, 1.0)) / k for i in range(k)]


def inverse_target(rng, asm: Assembly) -> tuple[float, float]:
    """(target aperture mm, pressure kPa that produces it)."""
    theta = rng.uniform(THETA0, asm.theta_pmax)
    return aperture(asm.n, theta), pressure(asm.c1, theta)


def unreachable_pressure(rng, asm: Assembly) -> float:
    if rng.random() < 0.5:
        return -rng.uniform(0.1, 10.0)
    return asm.p_box * rng.uniform(1.05, 3.0)


def unreachable_aperture(rng, asm: Assembly) -> float:
    if rng.random() < 0.5:
        return asm.rest * rng.uniform(0.7, 0.99)
    return asm.max_rg * rng.uniform(1.01, 1.3)


PLAN_MODES = ("suction", "contraction", "expansion", None)  # None: infeasible


def plan_object(rng, asm: Assembly, mode: str | None) -> dict:
    """An object descriptor that the planner should route to ``mode``."""
    rest2 = 2.0 * asm.rest
    if mode == "contraction":
        return {
            "shape_class": rng.choice(["cylinder", "sphere", "cube", "cone"]),
            "characteristic_diameter_mm": rng.uniform(2 * FOLDED_MM + 1, rest2 + MARGIN_MM - 1),
            "mass_kg": rng.uniform(0.0, 0.5),
        }
    if mode == "expansion":
        return {
            "shape_class": "cylinder",
            "characteristic_diameter_mm": rng.uniform(60.0, 120.0),
            "has_aperture": True,
            "aperture_diameter_mm": rng.uniform(2 * FOLDED_MM + 1, rest2 - 1),
        }
    if mode == "suction":
        return {"shape_class": "flat_plate", "characteristic_diameter_mm": rng.uniform(40.0, 150.0)}
    if rng.random() < 0.5:
        d = rng.uniform(rest2 + MARGIN_MM + 2, 200.0)
    else:
        d = rng.uniform(1.0, 2 * FOLDED_MM - 1)
    return {"shape_class": rng.choice(["irregular", "cube"]), "characteristic_diameter_mm": d}


def c1_series(rng, n: int, c1: float, k: int, noise_mm: float) -> list[tuple[float, float]]:
    """Aperture-vs-pressure pairs of an n-chamber ring with wall constant c1."""
    return [
        (pressure(c1, t), aperture(n, t) + (rng.gauss(0.0, noise_mm) if noise_mm else 0.0))
        for t in thetas(rng, theta_at(c1, P_MAX), k)
    ]


def suction_series(rng, asm: Assembly, a_eff: float, h_eff: float, k: int,
                   noise_rel: float) -> list[tuple[float, float]]:
    """Peak suction force pairs for the assembly's seal model."""
    pairs = []
    for t in thetas(rng, asm.theta_pmax, k):
        p = pressure(asm.c1, t)
        f = suction(asm.n, asm.c1, p, a_eff, h_eff)
        pairs.append((p, f * (1.0 + rng.gauss(0.0, noise_rel)) if noise_rel else f))
    return pairs


def force_trace(rng, rows: int) -> list[tuple[float, float]]:
    """A noisy single-peak force-displacement trace."""
    length = rng.uniform(10.0, 40.0)
    peak_at = rng.uniform(0.3, 0.7) * length
    width = rng.uniform(0.1, 0.3) * length
    amp = rng.uniform(5.0, 60.0)
    out = []
    for i in range(rows):
        x = length * i / (rows - 1)
        out.append((x, amp * math.exp(-(((x - peak_at) / width) ** 2)) + rng.gauss(0.0, 0.02 * amp)))
    return out


def write_csv(path: str, header: str, pairs) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{x!r},{y!r}\n" for x, y in pairs)
