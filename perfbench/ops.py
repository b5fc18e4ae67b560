"""Operations of the three workloads, each with its correctness check.

An ``Op`` is one timed call into the program plus a check that runs after
it, outside the timed region.  A workload is an endless stream of seeded
"decks": each deck holds a fixed number of operations of each kind, drawn
and shuffled from the seed, so the mix of work is the same for every seed
while the inputs differ.  Deck 0 is the window over which traced runs count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import gen

CALLS = ("solve", "invert", "workspace", "plan", "sweep", "validate",
         "fit_c1", "fit_suction", "peak_force")


@dataclass
class Op:
    call: str  # per-call latency group, one of CALLS or "suction"
    kind: str  # operation kind, for the recorded shares
    asm: int  # index of the assembly it uses
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], bool]


ORACLE_QUAD_TOL = 1e-12


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


class Env:
    """The package under test, the dozen assemblies and their contexts."""

    def __init__(self, root: str, workdir: str, rng) -> None:
        import accordion_gripper as ag
        from accordion_gripper import calibration, cli, config

        self.ag, self.cli, self.cal, self.config = ag, cli, calibration, config
        self.root = root
        self.asms = gen.make_assemblies(rng, workdir)
        for a in self.asms:
            a.ctx = config.load_context(a.config_path)
            a.model = a.ctx.suction_model()
        self.validate_asms = [i for i, a in enumerate(self.asms) if a.n == 22]
        # fit_suction sticks at its h_eff = 1 mm bound on about 1 series in
        # 80 from the stiffest 16-chamber ring, whose aperture moves < 1 mm
        # over 0-40 kPa (README, "Known program defects"; suction_defect.py
        # reproduces it).  A workload must be one on which no call fails, so
        # suction fits draw among the other eleven assemblies.
        self.suction_fit_asms = [i for i, a in enumerate(self.asms)
                                 if not (a.n == 16 and a.c1 >= gen.C1_STRATA[-1][0])]

    # -- checks shared by several operations -------------------------------

    def state_ok(self, ctx, state, p: float) -> bool:
        """Quadrature cross-check of the pressure, and both constraints.

        The quadrature runs at ORACLE_QUAD_TOL, well inside the 1e-6 it is
        compared at: at the configured 1e-9, adaptive Simpson is off by
        ~2e-6 relative at roughly one state in a few thousand.
        """
        q = self.ag.pressure_quadrature(ctx.geometry, state, ctx.material, ORACLE_QUAD_TOL)
        r0, r1, t = state.r_outer, state.r_inner, state.half_angle
        return (
            close(q, p, 1e-6)
            and abs(r1 * math.sin(t) - gen.PIN) < 1e-9
            and abs(gen.AREA - (r0 * r0 - r1 * r1) * t) < 1e-9
        )

    def solve(self, ctx, p):
        return self.ag.solve_deformation(ctx.geometry, ctx.material, p, ctx.box, ctx.theta_tol_rad)

    def plan(self, ctx, obj):
        """In-process equivalent of ``gripper plan``."""
        ag, grasp_cfg = self.ag, ctx.config["grasp"]
        ws = ag.workspace(ctx.assembly, ctx.p_max_kPa, ctx.box)
        return ag.plan_grasp(
            obj, ctx.assembly, ws, ctx.capacity,
            suction_model=ctx.suction_model(),
            stretch_margin_mm=float(grasp_cfg["stretch_margin_mm"]),
            lift_volume_increase_mm3=float(ctx.config["suction"]["lift_volume_increase_mm3"]),
            **{k: float(grasp_cfg[k]) for k in
               ("open_kPa", "envelop_kPa", "insert_kPa", "expand_kPa", "suction_kPa")},
        )

    def plan_ok(self, asm, plan, mode) -> bool:
        if (plan.mode.value if plan.mode else None) != mode or plan.feasible != (mode is not None):
            return False
        return mode != "suction" or close(
            plan.predicted_capacity_N, gen.suction(asm.n, asm.c1, gen.SUCTION_KPA), 1e-7)

    def oow(self, err) -> bool:
        return isinstance(err, self.ag.OutOfWorkspaceError)

    def fit_c1_ok(self, report, c1: float, noisy: bool) -> bool:
        got = report.params["c1_kPa"]
        return close(got, c1, 0.05) and not report.at_bound if noisy else close(got, c1, 1e-6)

    def fit_suction_ok(self, report, asm, a_eff: float, h_eff: float, pairs, noisy: bool) -> bool:
        """Noise-free peaks: the generating parameters are recovered.  Noisy
        peaks: the fit is no worse than the generating parameters, as a
        least-squares optimum must be (slack for the two models' rounding)."""
        a, h = report.params["A_eff_mm2"], report.params["h_eff_mm"]
        if noisy:
            true = math.sqrt(sum((gen.suction(asm.n, asm.c1, p, a_eff, h_eff) - f) ** 2 for p, f in pairs))
            return report.residual_norm <= true * (1 + 1e-6) + 1e-12
        return abs(a / a_eff - 1) < 1e-4 and abs(h / h_eff - 1) < 1e-4

    def sweep_ok(self, asm, rows) -> bool:
        rgs = [r.Rg_mm for r in rows]
        states = [self.ag.DeformedState(r.r0_mm, r.r1_mm, r.theta0_rad) for r in rows]
        return (
            all(self.state_ok(asm.ctx, s, r.pressure_kPa) for s, r in zip(states, rows))
            and all(b > a for a, b in zip(rgs, rgs[1:]))
            and close(rgs[0], asm.rest, 1e-9)
        )

    def series(self, kind, pairs):
        return self.cal.MeasurementSeries.from_pairs(self.cal.SeriesKind(kind), pairs)

    # -- in-process operations ---------------------------------------------

    def op_solve(self, rng, i: int) -> Op:
        asm = self.asms[i]
        p = rng.uniform(0.0, gen.P_MAX)
        return Op("solve", "solve", i, lambda: self.solve(asm.ctx, p),
                  lambda s, e: e is None and self.state_ok(asm.ctx, s, p))

    def op_aperture(self, rng, i: int) -> Op:
        asm = self.asms[i]
        p = rng.uniform(0.0, gen.P_MAX)

        def check(rg, err):
            if err is not None:
                return False
            s = self.solve(asm.ctx, p)
            d = 2.0 * (s.r_outer - s.r_inner * math.cos(s.half_angle))
            return self.state_ok(asm.ctx, s, p) and close(rg, d * asm.n / (2 * math.pi), 1e-12)
        return Op("solve", "aperture", i,
                  lambda: self.ag.aperture_vs_pressure(asm.ctx.assembly, p, asm.ctx.box), check)

    def op_solve_oow(self, rng, i: int) -> Op:
        asm = self.asms[i]
        p = gen.unreachable_pressure(rng, asm)
        return Op("solve", "solve_out_of_range", i, lambda: self.solve(asm.ctx, p),
                  lambda s, e: self.oow(e))

    def op_invert(self, rng, i: int) -> Op:
        asm, ctx = self.asms[i], self.asms[i].ctx
        target, p_ref = gen.inverse_target(rng, asm)

        def check(p, err):
            return err is None and close(p, p_ref, 1e-7) and close(
                self.ag.aperture_vs_pressure(ctx.assembly, p, ctx.box), target, 1e-9)
        return Op("invert", "invert", i,
                  lambda: self.ag.inverse_pressure(ctx.assembly, target, ctx.p_max_kPa, box=ctx.box),
                  check)

    def op_invert_oow(self, rng, i: int) -> Op:
        ctx = self.asms[i].ctx
        target = gen.unreachable_aperture(rng, self.asms[i])
        return Op("invert", "invert_out_of_range", i,
                  lambda: self.ag.inverse_pressure(ctx.assembly, target, ctx.p_max_kPa, box=ctx.box),
                  lambda p, e: self.oow(e))

    def op_workspace(self, rng, i: int) -> Op:
        asm, ctx = self.asms[i], self.asms[i].ctx

        def check(ws, err):
            return err is None and ws.min_aperture_mm == gen.FOLDED_MM and close(
                ws.rest_aperture_mm, asm.rest, 1e-9) and close(ws.max_aperture_mm, asm.max_rg, 1e-8)
        return Op("workspace", "workspace", i,
                  lambda: self.ag.workspace(ctx.assembly, ctx.p_max_kPa, ctx.box), check)

    def op_plan(self, rng, i: int, mode: str | None) -> Op:
        asm = self.asms[i]
        obj = self.ag.ObjectDescriptor.from_dict(gen.plan_object(rng, asm, mode))
        return Op("plan", f"plan_{mode or 'infeasible'}", i, lambda: self.plan(asm.ctx, obj),
                  lambda plan, e: e is None and self.plan_ok(asm, plan, mode))

    def op_suction(self, rng, i: int) -> Op:
        asm = self.asms[i]
        p = rng.uniform(0.0, gen.P_MAX)
        return Op("suction", "suction_force", i,
                  lambda: self.ag.suction_force(asm.model, p, gen.LIFT_MM3),
                  lambda f, e: e is None and close(f, gen.suction(asm.n, asm.c1, p), 1e-7))

    def op_sweep(self, rng, i: int) -> Op:
        asm, ctx = self.asms[i], self.asms[i].ctx
        p_to = rng.uniform(20.0, gen.P_MAX)
        return Op("sweep", "sweep", i,
                  lambda: self.ag.sweep(ctx.assembly, 0.0, p_to, 41, ctx.box, ctx.quad_rel_tol),
                  lambda rows, e: e is None and len(rows) == 41 and self.sweep_ok(asm, rows))

    def op_validate(self, rng, i: int) -> Op:
        if self.asms[i].n != 22:  # validate pins the 22-chamber rest aperture
            i = rng.choice(self.validate_asms)
        ctx = self.asms[i].ctx
        seed = rng.randrange(2**31)
        return Op("validate", "validate", i, lambda: self.cli.build_validation_report(ctx, seed),
                  lambda rep, e: e is None and rep["pass"] is True)

    def op_fit_c1(self, rng, i: int, k: int, noisy: bool) -> Op:
        ctx, n = self.asms[i].ctx, self.asms[i].n
        c1 = rng.uniform(80.0, 250.0)
        series = self.series("pressure_aperture", gen.c1_series(rng, n, c1, k, 0.003 if noisy else 0.0))
        return Op("fit_c1", f"fit_c1_{k}{'_noisy' if noisy else ''}", i,
                  lambda: self.cal.fit_c1(series, ctx.geometry, n, box=ctx.box),
                  lambda rep, e: e is None and self.fit_c1_ok(rep, c1, noisy))

    def op_fit_suction(self, rng, i: int, k: int, noisy: bool) -> Op:
        if i not in self.suction_fit_asms:
            i = rng.choice(self.suction_fit_asms)
        asm, ctx = self.asms[i], self.asms[i].ctx
        a_eff, h_eff = rng.uniform(1000.0, 4000.0), rng.uniform(20.0, 100.0)
        pairs = gen.suction_series(rng, asm, a_eff, h_eff, k, 0.01 if noisy else 0.0)
        series = self.series("suction_force", pairs)
        suction = ctx.config["suction"]
        return Op("fit_suction", f"fit_suction_{k}{'_noisy' if noisy else ''}", i,
                  lambda: self.cal.fit_suction(
                      series, ctx.assembly,
                      lift_volume_increase_mm3=float(suction["lift_volume_increase_mm3"]),
                      ambient_pressure_kPa=float(suction["ambient_kPa"]), box=ctx.box),
                  lambda rep, e: e is None and self.fit_suction_ok(rep, asm, a_eff, h_eff, pairs, noisy))

    def op_peak(self, rng, i: int, rows: int, window: int, path: str) -> Op:
        pairs = gen.force_trace(rng, rows)
        gen.write_csv(path, "displacement_mm,force_N", pairs)
        expected = gen.moving_peak([y for _, y in pairs], window)
        cal = self.cal
        return Op("peak_force", f"peak_force_{rows}", i,
                  lambda: cal.extract_peak_force(
                      cal.load_series_csv(path, cal.SeriesKind.FORCE_DISPLACEMENT), window),
                  lambda f, e: e is None and close(f, expected, 1e-9))


# ---------------------------------------------------------------------------
# Workload decks


def build_deck(env: Env, rng, deck_dir: str, kinds) -> list[Op]:
    """One operation per (name, *args) kind, in seeded random order, each
    on an assembly drawn uniformly."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    ops = []
    for n, (name, *args) in enumerate(kinds):
        i = rng.randrange(len(env.asms))
        if name == "peak":
            args += [rng.choice((1, 5, 25)), os.path.join(deck_dir, f"trace-{n}.csv")]
        ops.append(getattr(env, f"op_{name}")(rng, i, *args))
    return ops


# No record of real use exists, so the shares are assumptions: every kind
# of call a workload names gets the same count, and the variants of a kind
# (plan intents, series sizes, with and without noise) share it equally.

# query_mix deck: 400 each of forward solves (half solve_deformation, half
# aperture_vs_pressure), inverses, workspaces, plans and suction forces;
# out-of-range requests are "a few percent", 3%, half solves and half
# inverses.  One of each calibration / audit call keeps every public call
# timed.
QUERY_MIX = (
    [("solve",)] * 200 + [("aperture",)] * 200 + [("invert",)] * 400 + [("workspace",)] * 400
    + [("plan", mode) for mode in gen.PLAN_MODES] * 100 + [("suction",)] * 400
    + [("solve_oow",)] * 31 + [("invert_oow",)] * 31
    + [("sweep",), ("validate",), ("fit_c1", 10, False), ("fit_suction", 5, False), ("peak", 5000)]
)

# fit_audit deck: 10 each of fit_c1 and fit_suction (five series sizes,
# with and without noise), peak-force on traces of five lengths (twice
# each), quadrature-checked sweeps and validation reports.  A few model
# queries (four solves, inverses and workspaces, two plans per intent, two
# out-of-range requests) keep every public call timed.
FIT_AUDIT = (
    [("fit_c1", k, noisy) for k in (5, 10, 20, 30, 40) for noisy in (False, True)]
    + [("fit_suction", k, noisy) for k in (3, 4, 5, 6, 8) for noisy in (False, True)]
    + [("peak", rows) for rows in (2000, 4000, 8000, 12000, 20000)] * 2
    + [("sweep",)] * 10 + [("validate",)] * 10
    + [("solve",)] * 4 + [("invert",)] * 4 + [("workspace",)] * 4
    + [("plan", mode) for mode in gen.PLAN_MODES] * 2 + [("solve_oow",), ("invert_oow",)]
)


# ---------------------------------------------------------------------------
# cli_cold: every operation is a fresh `python -m accordion_gripper` process


def r9(x: float) -> float:
    return float(f"{x:.9g}")


def same9(out, ref) -> bool:
    """CLI JSON equals the in-process value rounded to 9 significant digits."""
    if isinstance(ref, dict):
        return isinstance(out, dict) and all(k in out and same9(out[k], v) for k, v in ref.items())
    if isinstance(ref, (list, tuple)):
        return isinstance(out, list) and len(out) == len(ref) and all(map(same9, out, ref))
    if isinstance(ref, float):
        return isinstance(out, (int, float)) and out == r9(ref)
    return out == ref


class CliOp(Op):
    """A command line; ``run`` is filled in per pass (traced or not)."""

    def __init__(self, call, kind, asm, argv, check) -> None:
        super().__init__(call, kind, asm, None, check)
        self.argv = argv


def cli_deck(env: Env, rng, deck_dir: str, deck_no: int) -> list[CliOp]:
    """Ten commands: every subcommand the CLI has for model work, with the
    grasp-plan intent rotating over four decks, and one out-of-workspace
    solve (even decks) or invert (odd decks) that must exit 2."""
    ag, cal = env.ag, env.cal

    def pick(among=None) -> int:
        """An assembly drawn uniformly (from ``among`` if given): a --config
        override unless it is the embedded default."""
        return rng.choice(among or range(len(env.asms)))

    def argv(i, *rest):
        path = env.asms[i].config_path
        return (["--config", path] if path else []) + [str(a) for a in rest]

    def parse(proc, code=0):
        if proc.returncode != code:
            return None
        try:
            return json.loads(proc.stdout)
        except ValueError:
            return None

    ops = []
    files = iter(range(100))

    def path(suffix):
        return os.path.join(deck_dir, f"in-{next(files)}.{suffix}")

    # solve, in range
    i = pick()
    p = repr(rng.uniform(0.0, gen.P_MAX))

    def check_solve(proc, err, i=i, p=p):
        out, ctx = parse(proc), env.asms[i].ctx
        if out is None:
            return False
        s = env.solve(ctx, float(p))
        d = ag.wall_distance(s)
        ref = {"pressure_kPa": float(p), "r0_mm": s.r_outer, "r1_mm": s.r_inner,
               "theta0_rad": s.half_angle, "D_mm": d, "Rg_mm": ag.aperture_radius(d, ctx.assembly)}
        return same9(out, ref) and env.state_ok(ctx, s, float(p))
    ops.append(CliOp("solve", "solve", i, argv(i, "solve", "--pressure", p, "--json"), check_solve))

    # solve or invert, out of range
    i = pick()
    if deck_no % 2 == 0:
        p = repr(gen.unreachable_pressure(rng, env.asms[i]))
        ops.append(CliOp("solve", "solve_out_of_range", i, argv(i, "solve", f"--pressure={p}"),
                         lambda proc, err: proc.returncode == 2))
    else:
        t = repr(gen.unreachable_aperture(rng, env.asms[i]))
        ops.append(CliOp("invert", "invert_out_of_range", i, argv(i, "invert", "--aperture", t),
                         lambda proc, err: proc.returncode == 2))

    # invert, in range
    i = pick()
    target, p_ref = gen.inverse_target(rng, env.asms[i])
    t = repr(target)

    def check_invert(proc, err, i=i, t=t, p_ref=p_ref):
        out, ctx = parse(proc), env.asms[i].ctx
        if out is None:
            return False
        p = ag.inverse_pressure(ctx.assembly, float(t), ctx.p_max_kPa, box=ctx.box)
        return same9(out, {"target_Rg_mm": float(t), "pressure_kPa": p}) and close(p, p_ref, 1e-7)
    ops.append(CliOp("invert", "invert", i, argv(i, "invert", "--aperture", t, "--json"), check_invert))

    # workspace
    i = pick()

    def check_workspace(proc, err, i=i):
        out, asm = parse(proc), env.asms[i]
        if out is None:
            return False
        ws = ag.workspace(asm.ctx.assembly, asm.ctx.p_max_kPa, asm.ctx.box)
        margin = float(asm.ctx.config["grasp"]["stretch_margin_mm"])
        ref = ws.as_dict() | {"contraction_object_diameter_mm": [
            2 * ws.min_aperture_mm, 2 * ws.rest_aperture_mm + margin]}
        return same9(out, ref) and close(ws.max_aperture_mm, asm.max_rg, 1e-8)
    ops.append(CliOp("workspace", "workspace", i, argv(i, "workspace", "--json"), check_workspace))

    # sweep to a CSV file
    i = pick()
    p_to, out_csv = repr(rng.uniform(20.0, gen.P_MAX)), path("csv")

    def check_sweep(proc, err, i=i, p_to=p_to, out_csv=out_csv):
        asm = env.asms[i]
        if proc.returncode != 0:
            return False
        rows = ag.sweep(asm.ctx.assembly, 0.0, float(p_to), 41, asm.ctx.box, asm.ctx.quad_rel_tol)
        with open(out_csv, newline="") as fh:
            got = list(csv.DictReader(fh))
        return len(got) == len(rows) and csv_matches_rows(got, rows) and env.sweep_ok(asm, rows)
    ops.append(CliOp("sweep", "sweep", i, argv(i, "sweep", "--from", "0", "--to", p_to,
                                                "--steps", "41", "--out", out_csv), check_sweep))

    # validate
    i = pick(env.validate_asms)

    def check_validate(proc, err, i=i):
        out = parse(proc)
        if out is None:
            return False
        ref = env.cli.build_validation_report(env.asms[i].ctx)
        return out.get("pass") is True and [(c["name"], c["pass"]) for c in out["checks"]] == [
            (c["name"], c["pass"]) for c in ref["checks"]]
    ops.append(CliOp("validate", "validate", i, argv(i, "validate", "--json"), check_validate))

    # a grasp plan; the four intents rotate over the decks
    i, mode, obj_path = pick(), gen.PLAN_MODES[deck_no % 4], path("json")
    with open(obj_path, "w") as fh:
        json.dump(gen.plan_object(rng, env.asms[i], mode), fh)

    def check_plan(proc, err, i=i, obj_path=obj_path, mode=mode):
        out = parse(proc, 0 if mode else 2)
        if out is None:
            return False
        with open(obj_path) as fh:
            obj = ag.ObjectDescriptor.from_dict(json.load(fh))
        plan = env.plan(env.asms[i].ctx, obj)
        return same9(out, plan.to_dict()) and env.plan_ok(env.asms[i], plan, mode)
    ops.append(CliOp("plan", f"plan_{mode or 'infeasible'}", i,
                     argv(i, "plan", "--object", obj_path), check_plan))

    # fit-c1 on a noise-free series
    i = pick()
    c1, data = rng.uniform(80.0, 250.0), path("csv")
    gen.write_csv(data, "pressure_kPa,aperture_mm", gen.c1_series(rng, env.asms[i].n, c1, 10, 0.0))

    def check_fit_c1(proc, err, i=i, c1=c1, data=data):
        out, ctx = parse(proc), env.asms[i].ctx
        if out is None:
            return False
        series = cal.load_series_csv(data, cal.SeriesKind.PRESSURE_APERTURE)
        rep = cal.fit_c1(series, ctx.geometry, ctx.assembly.n_chambers, box=ctx.box)
        return same9(out, rep.to_dict()) and env.fit_c1_ok(rep, c1, False)
    ops.append(CliOp("fit_c1", "fit_c1_10", i, argv(i, "fit-c1", "--data", data), check_fit_c1))

    # fit-suction on noise-free peaks
    i = pick(env.suction_fit_asms)
    a_eff, h_eff, data = rng.uniform(1000.0, 4000.0), rng.uniform(20.0, 100.0), path("csv")
    gen.write_csv(data, "pressure_kPa,force_N", gen.suction_series(rng, env.asms[i], a_eff, h_eff, 5, 0.0))

    def check_fit_suction(proc, err, i=i, a_eff=a_eff, h_eff=h_eff, data=data):
        out, ctx = parse(proc), env.asms[i].ctx
        if out is None:
            return False
        suction = ctx.config["suction"]
        rep = cal.fit_suction(
            cal.load_series_csv(data, cal.SeriesKind.SUCTION_FORCE), ctx.assembly,
            lift_volume_increase_mm3=float(suction["lift_volume_increase_mm3"]),
            ambient_pressure_kPa=float(suction["ambient_kPa"]), box=ctx.box)
        return same9(out, rep.to_dict()) and env.fit_suction_ok(rep, env.asms[i], a_eff, h_eff, (), False)
    ops.append(CliOp("fit_suction", "fit_suction_5", i, argv(i, "fit-suction", "--data", data),
                     check_fit_suction))

    # peak-force on a long trace
    i, window, data = pick(), rng.choice((1, 5, 25)), path("csv")
    pairs = gen.force_trace(rng, 5000)
    gen.write_csv(data, "displacement_mm,force_N", pairs)
    expected = gen.moving_peak([y for _, y in pairs], window)

    def check_peak(proc, err, window=window, expected=expected, data=data):
        out = parse(proc)
        if out is None:
            return False
        peak = cal.extract_peak_force(cal.load_series_csv(data, cal.SeriesKind.FORCE_DISPLACEMENT), window)
        return same9(out, {"peak_force_N": peak, "smoothing_window": window}) and close(peak, expected, 1e-9)
    ops.append(CliOp("peak_force", "peak_force_5000", i,
                     argv(i, "peak-force", "--data", data, "--window", window, "--json"), check_peak))
    rng.shuffle(ops)
    return ops


def csv_matches_rows(got: list[dict], rows) -> bool:
    """Each CSV column that names a sweep-row field equals it to 9 digits."""
    for line, row in zip(got, rows):
        for col, text in line.items():
            if hasattr(row, col) and float(text) != r9(getattr(row, col)):
                return False
    return True


def run_cli(env: Env, argv: list[str], trace_out: str | None):
    """One command as a fresh process; traced runs go through traced_cli."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = ([sys.executable, os.path.join(here, "traced_cli.py"), trace_out] if trace_out
           else [sys.executable, "-m", "accordion_gripper"])
    return subprocess.run(cmd + argv, cwd=env.root, env=child_env(env.root),
                          capture_output=True, text=True, timeout=120)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("GRIPPER_CONFIG", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
