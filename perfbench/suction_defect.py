"""Reproduce the fit_suction defect that the workloads steer around.

    python3 perfbench/suction_defect.py [--fits N] [--seed S]

Fits seeded, noise-free suction peaks (3-8 peaks, A_eff 1000-4000 mm^2,
h_eff 20-100 mm, as the workloads generate them) on the stiffest
16-chamber ring, c1 drawn from the top stratum, and prints each fit that
does not recover the generating parameters.  It is not part of any
workload; see README.md, "Known program defects".
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fits", type=int, default=200)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from accordion_gripper import calibration as cal, config

    rng = random.Random(args.seed)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="suction-defect-", dir=os.path.join(ROOT, ".perfbench"))
    misses = 0
    try:
        for j in range(args.fits):
            c1 = round(rng.uniform(*gen.C1_STRATA[-1]), 3)
            path = os.path.join(workdir, f"config-{j}.json")
            with open(path, "w") as fh:
                json.dump({"material": {"c1_kPa": c1}, "assembly": {"n_chambers": 16}}, fh)
            ctx, asm = config.load_context(path), gen.Assembly(c1, 16, path)
            a_eff, h_eff = rng.uniform(1000.0, 4000.0), rng.uniform(20.0, 100.0)
            k = rng.choice((3, 4, 5, 6, 8))
            series = cal.MeasurementSeries.from_pairs(
                cal.SeriesKind.SUCTION_FORCE, gen.suction_series(rng, asm, a_eff, h_eff, k, 0.0))
            suction = ctx.config["suction"]
            rep = cal.fit_suction(
                series, ctx.assembly,
                lift_volume_increase_mm3=float(suction["lift_volume_increase_mm3"]),
                ambient_pressure_kPa=float(suction["ambient_kPa"]), box=ctx.box)
            a, h = rep.params["A_eff_mm2"], rep.params["h_eff_mm"]
            if abs(a / a_eff - 1) >= 1e-4 or abs(h / h_eff - 1) >= 1e-4:
                misses += 1
                print(f"c1 {c1} kPa, {k} peaks: true A_eff {a_eff:.1f} h_eff {h_eff:.2f}; "
                      f"fit {a:.1f} {h:.3f}, residual {rep.residual_norm:.4g} N ({rep.notes})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{misses} of {args.fits} noise-free fits missed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
