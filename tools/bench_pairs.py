"""Paired benchmark runs of two trees, written as a ``BENCH_<tag>.json`` record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --tag NAME \
        --claim "fit_audit fit_c1_p50_ms" --first-seed 3101

Each tree is a checkout of the repository (``git archive`` or ``git clone``
of the two commits).  Both must run the same benchmark: before any run, the
tool compares ``BENCHMARK.json`` and every file under its ``paths`` (bytecode
caches aside) in the two trees, and refuses, naming the first file that
differs, unless they are equal.  Pair i of ``PAIRS`` runs ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in both trees on seed
S = first seed + i - 1, T being ``BENCHMARK.json``'s ``run_seconds``, the
parent first on odd pairs and the change first on even ones, the workloads
interleaved pair by pair.  One run at a time: the runs share the machine.

Per metric the record holds each side's median, quartiles
(``statistics.quantiles``, n=4, exclusive) and runs, the pairs the change
won (ties count for neither), the change's median relative to the parent's,
whether that is worse than the metric's ``BENCHMARK.json`` bound, and whether
the runs are too spread to tell (``unresolved``).  The record is written to
``BENCH_<tag>.json`` in the current directory.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
#: Pairs per workload: the ten a claimed gain is judged on.
PAIRS = 10


def side_summary(runs: list) -> dict:
    """Median, quartiles and the runs themselves of one side's values."""
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric over paired runs (``parent[i]`` and ``change[i]`` share a seed).

    The metric is unresolved when the parent's q3 - q1 exceeds ``bound`` times its
    median, unless every change run beats every parent run; a parent median of 0 gives
    no relative change, so the relative fields are None and the metric is unresolved.
    """
    if len(parent) != len(change):
        raise ValueError(f"unpaired runs: {len(parent)} parent, {len(change)} change")
    sign = 1.0 if better == "lower" else -1.0
    p_side, c_side = side_summary(parent), side_summary(change)
    median = p_side["median"]
    rel = c_side["median"] / median - 1.0 if median else None
    separated = all(sign * (c - p) < 0 for p in parent for c in change)
    return {
        "parent": p_side,
        "change": c_side,
        "change_vs_parent": rel,
        "pairs_won": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "worse_than_bound": None if rel is None else sign * rel > bound,
        "unresolved": rel is None or (p_side["q3"] - p_side["q1"] > bound * abs(median)
                                      and not separated),
    }


def workload_record(runs: dict, seeds: list, end_to_end: dict) -> dict:
    """The record of one workload from ``runs[side]``, one run result per seed."""
    metrics = {}
    names = [n for n in runs["parent"][0]["metrics"] if n in end_to_end]
    for name in names:
        spec = end_to_end[name]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         **summarize(values["parent"], values["change"], spec["better"],
                                     spec["bound"])}
    return {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
        "failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
        "metrics": metrics,
    }


def _read(tree: str, name: str) -> bytes | None:
    """The bytes of the file ``name``, relative to ``tree``, or None if it is absent."""
    try:
        with open(os.path.join(tree, name), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _files(tree: str, paths: list) -> set:
    """The relative names of the files under each directory of ``paths`` in ``tree``,
    bytecode caches aside."""
    names = set()
    for path in paths:
        for root, dirs, files in os.walk(os.path.join(tree, path)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            names.update(os.path.relpath(os.path.join(root, f), tree) for f in files)
    return names


def first_difference(parent: str, change: str) -> str | None:
    """The first file that differs between the two trees' benchmarks, or None: first
    ``BENCHMARK.json``, then the files under its ``paths`` in name order."""
    spec = _read(change, "BENCHMARK.json")
    if _read(parent, "BENCHMARK.json") != spec:
        return "BENCHMARK.json"
    paths = json.loads(spec)["paths"]
    names = sorted(_files(parent, paths) | _files(change, paths))
    return next((n for n in names if _read(parent, n) != _read(change, n)), None)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--tag", required=True, help="record name: BENCH_<tag>.json")
    parser.add_argument("--claim", required=True, help='"<workload> <metric>" claimed to improve')
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--what", default="", help="one paragraph on what the change does")
    args = parser.parse_args(argv)
    differs = first_difference(args.parent, args.change)
    if differs is not None:
        parser.error(f"the trees run different benchmarks: {differs} differs; pair only "
                     "trees with the same BENCHMARK.json and files under its paths")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    seeds = [args.first_seed + i for i in range(PAIRS)]
    runs = {w: {s: [] for s in SIDES} for w in workloads}
    for i, seed in enumerate(seeds, start=1):
        order = SIDES if i % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, seed, seconds)
                runs[workload][side].append(result)
                print(f"pair {i} {workload} {side}: attempted {result['attempted']}, "
                      f"failed {result['failed']}", file=sys.stderr, flush=True)

    claim_workload, claim_metric = args.claim.split()[:2]
    record = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   f"--trace 0, S = {args.first_seed - 1} + pair index",
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
        "method": f"tools/bench_pairs.py: parent and change trees each in their own directory; "
                  f"{PAIRS} pairs per workload, each pair on its own seed, the parent first "
                  f"on odd pairs and the change first on even ones, the workloads interleaved "
                  f"pair by pair.  Per metric: median and quartiles (statistics.quantiles, n=4, "
                  f"exclusive) of each side, pairs the change won (ties count for neither), "
                  f"and the bound from BENCHMARK.json; unresolved where the parent's q3 - q1 "
                  f"exceeds the bound times its median and the sides' runs overlap.",
        "claim": {"workload": claim_workload, "metric": claim_metric},
        "workloads": {w: workload_record(runs[w], seeds, end_to_end) for w in workloads},
    }
    path = f"BENCH_{args.tag}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    claimed = record["workloads"][claim_workload]["metrics"][claim_metric]
    print(f"wrote {path}: {args.claim} {claimed['parent']['median']:.6g} -> "
          f"{claimed['change']['median']:.6g}, {claimed['pairs_won']} of {PAIRS} pairs won",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
