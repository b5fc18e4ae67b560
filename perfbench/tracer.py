"""Per-layer tracing from outside the package.

The package looks its collaborators up as module-level names at call time
(``gripper`` calls ``solve_deformation`` through its own module global, the
solvers call their root finder the same way).  ``Tracer.install`` rebinds
every such name, in every ``accordion_gripper`` module, to a wrapper that
records a span (name, start, end, parent, exception) while the tracer is on.
The package itself carries no instrumentation.  Spans stay in memory;
``derive`` turns them into the per-layer metrics.

The root finder is found by its role, not its name (``find_rootfinders``),
and a target that cannot be found stops the traced run: a layer that a
change renames must not read as zero work.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from numbers import Real
from time import perf_counter

# (span name, module, attribute).  A dotted attribute is a classmethod.
# The root finder ("rootfind") is not listed: see find_rootfinders.
TARGETS = (
    ("material.stress_difference", "material", "stress_difference"),
    ("chamber.state_at_angle", "chamber", "state_at_angle"),
    ("chamber.pressure_closed_form", "chamber", "pressure_closed_form"),
    ("chamber.pressure_quadrature", "chamber", "pressure_quadrature"),
    ("chamber.solve_deformation", "chamber", "solve_deformation"),
    ("gripper.aperture_vs_pressure", "gripper", "aperture_vs_pressure"),
    ("gripper.inverse_pressure", "gripper", "inverse_pressure"),
    ("gripper.workspace", "gripper", "workspace"),
    ("gripper.sweep", "gripper", "sweep"),
    ("grasp.plan_grasp", "grasp", "plan_grasp"),
    ("grasp.suction_force", "grasp", "suction_force"),
    ("grasp.suction_model_build", "grasp", "SuctionModel.from_assembly"),
    ("calibration.fit_c1", "calibration", "fit_c1"),
    ("calibration.fit_suction", "calibration", "fit_suction"),
    ("calibration.load_series_csv", "calibration", "load_series_csv"),
    ("calibration.extract_peak_force", "calibration", "extract_peak_force"),
    ("cli.build_validation_report", "cli", "build_validation_report"),
    ("config.load_context", "config", "load_config"),
    ("config.load_context", "config", "ModelContext.from_config"),
    ("config.load_context", "config", "load_context"),
)

# Called hundreds of times per quadrature: counted, not spanned.
COUNT_ONLY = {"material.stress_difference"}

# Fits report their optimizer's evaluation count on the returned FitReport.
RESULT_COUNTS = {
    "calibration.fit_c1": "calibration.fit_c1.objective_evals",
    "calibration.fit_suction": "calibration.fit_suction.nfev",
}

# Per-layer metrics that are counts: two traced runs with the same seed
# must report them identically.
EXACT = (
    "chamber.pressure_closed_form.calls",
    "chamber.closed_form_per_solve",
    "gripper.closed_form_per_inverse",
    "gripper.solves_per_inverse",
    "rootfind.calls",
    "gripper.solves_per_workspace",
    "material.stress_difference.calls",
    "grasp.solves_per_plan",
    "grasp.suction_model_builds",
    "calibration.fit_c1.objective_evals",
    "calibration.fit_c1.solves_per_fit",
    "calibration.fit_c1.useful_eval_ratio",
    "calibration.fit_suction.nfev",
    "cli.modules_loaded",
)

TRACE_UNITS = {
    "chamber.pressure_closed_form.calls": "count",
    "chamber.closed_form_per_solve": "calls/solve",
    "gripper.closed_form_per_inverse": "calls/inverse",
    "gripper.solves_per_inverse": "solves/inverse",
    "rootfind.calls": "count",
    "rootfind.self_ms": "ms",
    "chamber.solve_deformation.self_ms": "ms",
    "chamber.state_at_angle.self_ms": "ms",
    "gripper.workspace.self_ms": "ms",
    "gripper.solves_per_workspace": "solves/call",
    "chamber.pressure_quadrature.self_ms": "ms",
    "material.stress_difference.calls": "count",
    "gripper.sweep.self_ms": "ms",
    "grasp.plan_grasp.self_ms": "ms",
    "grasp.solves_per_plan": "solves/plan",
    "grasp.suction_model_builds": "count",
    "grasp.suction_force.self_ms": "ms",
    "calibration.fit_c1.objective_evals": "count",
    "calibration.fit_c1.solves_per_fit": "solves/fit",
    "calibration.fit_c1.useful_eval_ratio": "ratio",
    "calibration.fit_suction.nfev": "count",
    "calibration.load_series_csv.self_ms": "ms",
    "calibration.extract_peak_force.self_ms": "ms",
    "cli.build_validation_report.self_ms": "ms",
    "config.load_context.self_ms": "ms",
}


class Tracer:
    """Span recorder; ``on`` gates recording so checks can run untraced."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []  # [name, start, end, parent index, error]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    def _wrap(self, name: str, fn):
        tracer = self
        result_count = RESULT_COUNTS.get(name)

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.on:
                    tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if result_count:
                tracer.counts[result_count] += getattr(result, "n_evals", 0)
            return result
        return traced

    def install(self) -> None:
        """Rebind every package-level alias of each target to its wrapper.

        Raises RuntimeError when a target is missing from the package.
        """
        modules = package_modules()
        roots = find_rootfinders(modules)
        functions, missing = {}, []
        for name, mod_name, attr in TARGETS:
            owner_name, _, method = attr.partition(".")
            fn = getattr(sys.modules.get(f"accordion_gripper.{mod_name}"), owner_name, None)
            if method:  # classmethod on a class the package looks up by name
                raw = fn.__dict__.get(method) if isinstance(fn, type) else None
                if not isinstance(raw, classmethod):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                self._undo.append((fn, method, raw))
                setattr(fn, method, classmethod(self._wrap(name, raw.__func__)))
            elif callable(fn):
                functions.setdefault(fn, name)
            else:
                missing.append(f"{mod_name}.{attr}")
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer targets missing from the package: {', '.join(missing)}")
        for fn in roots:
            functions.setdefault(fn, "rootfind")
        for fn, name in functions.items():
            self._undo += rebind(modules, fn, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def package_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "accordion_gripper" or k.startswith("accordion_gripper."))]


def rebind(modules, fn, new) -> list:
    """Point every module global bound to ``fn`` at ``new``; return the undo list."""
    undo = []
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is fn:
                undo.append((m, key, fn))
                setattr(m, key, new)
    return undo


def find_rootfinders(modules) -> list:
    """The bracketing root finders the package's solvers call, by role.

    Every function bound as a package module global is wrapped by a spy for
    one forward solve and one inverse at the default assembly; a function
    called as ``f(callable, a, b, ...)`` with numbers ``a`` and ``b`` (a
    function and its bracket) is a root finder, whatever its name or module.
    Raises RuntimeError when neither call uses one.
    """
    from accordion_gripper import config, gripper, solve_deformation

    ctx = config.load_context(None)
    target = gripper.aperture_vs_pressure(ctx.assembly, 0.5 * ctx.p_max_kPa, ctx.box)
    found, undo = [], []

    def spy(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (len(args) >= 3 and callable(args[0]) and not isinstance(args[0], type)
                    and all(isinstance(x, Real) for x in args[1:3]) and fn not in found):
                found.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    functions = {id(v): v for m in modules for v in vars(m).values()
                 if inspect.isfunction(v) or inspect.isbuiltin(v)}
    for fn in functions.values():
        undo += rebind(modules, fn, spy(fn))
    try:
        solve_deformation(ctx.geometry, ctx.material, 0.5 * ctx.p_max_kPa, ctx.box, ctx.theta_tol_rad)
        gripper.inverse_pressure(ctx.assembly, target, ctx.p_max_kPa, box=ctx.box)
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
    if not found:
        raise RuntimeError("no bracketing root finder found in solve_deformation or inverse_pressure")
    return found


def merge(dumps) -> dict:
    """Concatenate span dumps (one per process or pass), fixing parent links."""
    spans, counts = [], Counter()
    for d in dumps:
        base = len(spans)
        spans.extend([n, s, e, p + base if p >= 0 else -1, err] for n, s, e, p, err in d["spans"])
        counts.update(d["counts"])
    return {"spans": spans, "counts": dict(counts)}


def derive(dump: dict) -> dict:
    """Per-layer metrics (values only) from one merged span dump."""
    spans, counts = dump["spans"], Counter(dump["counts"])
    n = Counter(s[0] for s in spans)
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_ms = Counter()
    for i, s in enumerate(spans):
        self_ms[s[0]] += (s[2] - s[1] - child[i]) * 1e3

    def has_ancestor(i: int, name: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def per(inner: str, outer: str) -> float:
        if not n[outer]:
            return 0.0
        hits = sum(1 for i, s in enumerate(spans) if s[0] == inner and has_ancestor(i, outer))
        return hits / n[outer]

    evals = counts["calibration.fit_c1.objective_evals"]
    penalties = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "gripper.aperture_vs_pressure" and s[4] == "OutOfWorkspaceError"
        and has_ancestor(i, "calibration.fit_c1")
    )
    return {
        "chamber.pressure_closed_form.calls": n["chamber.pressure_closed_form"],
        "chamber.closed_form_per_solve": per("chamber.pressure_closed_form", "chamber.solve_deformation"),
        "gripper.closed_form_per_inverse": per("chamber.pressure_closed_form", "gripper.inverse_pressure"),
        "gripper.solves_per_inverse": per("chamber.solve_deformation", "gripper.inverse_pressure"),
        "rootfind.calls": n["rootfind"],
        "rootfind.self_ms": self_ms["rootfind"],
        "chamber.solve_deformation.self_ms": self_ms["chamber.solve_deformation"],
        "chamber.state_at_angle.self_ms": self_ms["chamber.state_at_angle"],
        "gripper.workspace.self_ms": self_ms["gripper.workspace"],
        "gripper.solves_per_workspace": per("chamber.solve_deformation", "gripper.workspace"),
        "chamber.pressure_quadrature.self_ms": self_ms["chamber.pressure_quadrature"],
        "material.stress_difference.calls": counts["material.stress_difference"],
        "gripper.sweep.self_ms": self_ms["gripper.sweep"],
        "grasp.plan_grasp.self_ms": self_ms["grasp.plan_grasp"],
        "grasp.solves_per_plan": per("chamber.solve_deformation", "grasp.plan_grasp"),
        "grasp.suction_model_builds": n["grasp.suction_model_build"],
        "grasp.suction_force.self_ms": self_ms["grasp.suction_force"],
        "calibration.fit_c1.objective_evals": evals,
        "calibration.fit_c1.solves_per_fit": per("chamber.solve_deformation", "calibration.fit_c1"),
        "calibration.fit_c1.useful_eval_ratio": (evals - penalties) / evals if evals else 0.0,
        "calibration.fit_suction.nfev": counts["calibration.fit_suction.nfev"],
        "calibration.load_series_csv.self_ms": self_ms["calibration.load_series_csv"],
        "calibration.extract_peak_force.self_ms": self_ms["calibration.extract_peak_force"],
        "cli.build_validation_report.self_ms": self_ms["cli.build_validation_report"],
        "config.load_context.self_ms": self_ms["config.load_context"],
    }
