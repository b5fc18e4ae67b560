"""The repository benchmark.

    python3 perfbench/run.py --workload {cli_cold,query_mix,fit_audit} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.  One
client process drives the program in a closed loop: one thread, and at most
one child process at a time.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs the first deck of the workload
alternately traced and untraced and reports the per-layer metrics.  Every
time is scaled to the reference machine speed (see speed.py).  The last
line of stdout is one JSON object (correct, attempted, failed, metrics); a
readable summary goes to stderr, and a record with the seed, operation
shares, environment and (traced) spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import gzip
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from time import perf_counter

import ops
import speed
from tracer import EXACT, TRACE_UNITS, Tracer, derive, merge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cli_cold", "query_mix", "fit_audit")
SETUP_PROBES = 9  # fresh processes timed for setup_s; the median is reported
IMPORT_PROBES = 3


def median_ms(xs) -> float:
    return statistics.median(xs) * 1e3


def decks(env, rng, workload: str, workdir: str):
    """Endless (deck dir, ops) stream; deck k depends only on the seed."""
    for k in itertools.count():
        d = os.path.join(workdir, f"deck-{k}")
        os.mkdir(d)
        if workload == "cli_cold":
            yield d, ops.cli_deck(env, rng, d, k)
        else:
            yield d, ops.build_deck(env, rng, d, ops.QUERY_MIX if workload == "query_mix" else ops.FIT_AUDIT)


def run_op(op, pace: speed.Speed, tracer: Tracer | None, failures: list) -> tuple[float, float]:
    """Time one call: (raw seconds, seconds scaled to the reference speed).
    Its result is checked afterwards, outside the timed region, and a miss
    recorded in ``failures``."""
    result = err = None
    pace.factor()  # a fresh reference before the call, if the last is stale
    if tracer:
        tracer.on = True
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # noqa: BLE001 - a failed call is a result to check
        err = exc
    dt = perf_counter() - t0
    if tracer:
        tracer.on = False
    scaled_dt = dt * pace.factor()
    try:
        ok = bool(op.check(result, err))
    except Exception:  # noqa: BLE001 - a crashing check counts as a miss
        ok = False
        err = traceback.format_exc(limit=3)
    if not ok:
        failures.append(f"{op.kind} (assembly {op.asm}): {err!r}"[:400])
    return dt, scaled_dt


def new_pace(workload: str) -> speed.Speed:
    return speed.per_process() if workload == "cli_cold" else speed.in_process()


def scaled(pace: speed.Speed, fn):
    """Run ``fn``; return its result and its wall time scaled to the
    reference speed (``pace.factor()`` then gives the factor used)."""
    pace.factor()
    t0 = perf_counter()
    out = fn()
    dt = perf_counter() - t0
    return out, dt * pace.factor()


def bind_cli(env, deck, trace_dir: str | None) -> None:
    for j, op in enumerate(deck):
        out = os.path.join(trace_dir, f"spans-{j}.json") if trace_dir else None
        op.run = lambda op=op, out=out: ops.run_cli(env, op.argv, out)


def child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=ops.child_env(ROOT), capture_output=True,
                          text=True, check=True, timeout=120)


def probe(args: list[str]) -> dict:
    return json.loads(child([sys.executable, os.path.join(ROOT, "perfbench", "probe.py"), *args]).stdout)


def shares(kinds: Counter, repeats: int) -> dict:
    total = sum(kinds.values())
    out = {k: v / total for k, v in sorted(kinds.items())}
    out["repeated_assembly"] = repeats / total
    return out


# ---------------------------------------------------------------------------
# End-to-end run


def latencies(setups: list, lat: dict) -> dict:
    """The timing metrics of a run from its set-up and call times (s)."""
    every = [x for xs in lat.values() for x in xs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (len(every) / sum(every), "1/s"),
        "latency_p50_ms": (median_ms(every), "ms"),
        "latency_p90_ms": (statistics.quantiles(every, n=10)[8] * 1e3, "ms"),
    }
    metrics.update({f"{c}_p50_ms": (median_ms(lat[c]), "ms") for c in ops.CALLS})
    return metrics


def timed_run(env, rng, args, workdir: str) -> tuple[dict, dict]:
    configs = [a.config_path for a in env.asms if a.config_path]
    setups, setups_raw, procs = [], [], speed.per_process()
    for _ in range(SETUP_PROBES):
        p, _ = scaled(procs, lambda: probe(configs))
        setups_raw.append(p["import_s"] + p["context_s"])
        setups.append(setups_raw[-1] * procs.factor())
    pace = new_pace(args.workload)
    lat, raw, kinds, failures = defaultdict(list), defaultdict(list), Counter(), []
    repeats, prev, attempted = 0, None, 0
    start = perf_counter()
    for d, deck in decks(env, rng, args.workload, workdir):
        if args.workload == "cli_cold":
            bind_cli(env, deck, None)
        for op in deck:
            dt, scaled_dt = run_op(op, pace, None, failures)
            raw[op.call].append(dt)
            lat[op.call].append(scaled_dt)
            attempted += 1
            kinds[op.kind] += 1
            repeats += op.asm == prev
            prev = op.asm
            if perf_counter() - start >= args.seconds and all(lat[c] for c in ops.CALLS):
                break
        else:
            shutil.rmtree(d)
            continue
        break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    metrics = latencies(setups, lat)
    metrics["peak_rss_mib"] = (resource.getrusage(who).ru_maxrss / 1024, "MiB")
    record = {"shares": shares(kinds, repeats), "samples": {c: len(v) for c, v in lat.items()},
              "speed_factor_median": statistics.median(pace.history),
              "unscaled": {k: v for k, (v, _) in latencies(setups_raw, raw).items()},
              "failures": failures[:20]}
    return finish(metrics, attempted, len(failures)), record


# ---------------------------------------------------------------------------
# Traced run


def importtime_ms(stderr: str, pkg: str) -> float:
    """Sum of -X importtime cumulative times of the outermost `pkg` entries."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), int(parts[1]), name.strip()))

    def inside(name: str) -> bool:
        return name == pkg or name.startswith(pkg + ".")

    total = 0
    for i, (depth, cum, name) in enumerate(rows):
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if inside(name) and not (parent and inside(parent[2])):
            total += cum
    return total / 1e3


SOLVE = ["solve", "--pressure", "20", "--json"]


def import_layer(commands: list[list[str]]) -> dict:
    """The import / startup layer of the CLI, measured in fresh processes.

    ``cli.run_ms`` is the time inside ``cli.main`` (parsing, context, the
    command and its output), timed untraced in a probe process: the process
    wall time less the interpreter floor and the import, measured directly
    because the difference of the three noisy process times can come out
    below zero.
    """
    py, procs = sys.executable, speed.per_process()
    floor, scipy_ms, numpy_ms, probes = [], [], [], []
    for _ in range(IMPORT_PROBES):
        floor.append(scaled(procs, lambda: child([py, "-c", "pass"]))[1])
        proc, _ = scaled(procs, lambda: child([py, "-X", "importtime", "-c", "import accordion_gripper.cli"]))
        scipy_ms.append(importtime_ms(proc.stderr, "scipy") * procs.factor())
        numpy_ms.append(importtime_ms(proc.stderr, "numpy") * procs.factor())
        p, _ = scaled(procs, lambda: probe([]))
        probes.append(p | {"import_s": p["import_s"] * procs.factor()})
    main_s = []
    for argv in commands:
        p, _ = scaled(procs, lambda: probe(["--", *argv]))
        main_s.append(p["main_s"] * procs.factor())
    return {
        "cli.interp_floor_ms": median_ms(floor),
        "cli.import_ms": median_ms([p["import_s"] for p in probes]),
        "cli.import_scipy_ms": statistics.median(scipy_ms),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
        "cli.modules_loaded": probes[0]["modules"],
        "cli.run_ms": median_ms(main_s),
    }


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def traced_run(env, rng, args, workdir: str) -> tuple[dict, dict]:
    d, window = next(decks(env, rng, args.workload, workdir))
    cli = args.workload == "cli_cold"
    tracer, setup = None, {"spans": [], "counts": {}}
    if not cli:
        # The contexts are built again, traced, for the config layer.
        tracer = Tracer()
        tracer.install()
        tracer.on = True
        for a in env.asms:
            env.config.load_context(a.config_path)
        tracer.on = False
        setup = tracer.dump()
    passes, failures, attempted = [], [], 0
    pace = new_pace(args.workload)
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        for traced in (True, False):
            spans_dir = None
            if cli:
                spans_dir = tempfile.mkdtemp(dir=d) if traced else None
                bind_cli(env, window, spans_dir)
            elif traced:
                tracer.reset()
            first = len(pace.history)
            busy = sum(run_op(op, pace, tracer if traced else None, failures)[1] for op in window)
            f = statistics.median(pace.history[first:] or pace.history[-1:])
            attempted += len(window)
            dump = None
            if traced and cli:
                dump = merge([load_json(os.path.join(spans_dir, n)) for n in sorted(os.listdir(spans_dir))])
            elif traced:
                dump = merge([setup, tracer.dump()])
            passes.append((traced, len(window) / busy, dump, f))
    if tracer:
        tracer.uninstall()
    layers = []
    for traced, _, dump, f in passes:
        if traced:
            layers.append({k: v * f if TRACE_UNITS[k] == "ms" else v for k, v in derive(dump).items()})
    metrics = {}
    for name in layers[0]:
        # Counts come from the first traced pass; times are medians over passes.
        value = layers[0][name] if name in EXACT else statistics.median(m[name] for m in layers)
        metrics[name] = (value, TRACE_UNITS[name])
    units = {"cli.modules_loaded": "count"}
    commands = [op.argv for op in window] if cli else [SOLVE] * IMPORT_PROBES
    metrics.update({k: (v, units.get(k, "ms")) for k, v in import_layer(commands).items()})
    metrics["trace.overhead_ratio"] = (
        statistics.median(p[1] for p in passes if p[0])
        / statistics.median(p[1] for p in passes if not p[0]), "ratio")
    kinds = Counter(op.kind for op in window)
    repeats = sum(a.asm == b.asm for a, b in zip(window, window[1:]))
    record = {"shares": shares(kinds, repeats), "passes": len(passes), "exact": list(EXACT),
              "failures": failures[:20], "spans": next(p[2] for p in passes if p[0])}
    return finish(metrics, attempted, len(failures)), record


# ---------------------------------------------------------------------------


def finish(metrics: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "accordion_gripper", "__init__.py")):
        print(f"error: no package source at {SRC}/accordion_gripper; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the client and its children, so that the speed
        # references run where the timed work runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, SRC)
    os.environ.pop("GRIPPER_CONFIG", None)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        rng = random.Random(args.seed)
        env = ops.Env(ROOT, workdir, rng)
        run = traced_run if args.trace else timed_run
        result, record = run(env, rng, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment(), result=result)
    spans = record.pop("spans", None)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with gzip.open(stem + "-spans.json.gz", "wt") as fh:
            json.dump(spans, fh)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    for line in record["failures"][:5]:
        print("failure:", line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
