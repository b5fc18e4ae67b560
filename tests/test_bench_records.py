"""Every committed ``BENCH_*.json`` record claims a gain the benchmark defines, and shows it.

A record's claim is ``{"workload": w, "metric": m}`` or a string that starts
``"<w> <m>"``.  The acceptance rule: the claimed metric wins at least 9 of the
ten pairs, and no metric of any workload is worse than its ``BENCHMARK.json``
bound.  Only ``BENCHMARK.json`` and the records are read; nothing is run.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
#: Pairs of the ten that the claimed metric must win.
PAIRS_TO_WIN = 9


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def claim_of(record):
    """(workload, metric) the record claims a gain in."""
    claim = record["claim"]
    if isinstance(claim, str):
        workload, metric = claim.split()[:2]
        return workload, metric
    return claim["workload"], claim["metric"]


def claimed_entry(record):
    workload, metric = claim_of(record)
    return record["workloads"][workload]["metrics"][metric]


def medians(record):
    """(parent, change) medians of the claimed metric."""
    entry = claimed_entry(record)
    return entry["parent"]["median"], entry["change"]["median"]


def test_records_are_found():
    assert RECORDS, f"no BENCH_*.json under {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_claim_names_a_workload_and_an_end_to_end_metric(path):
    workload, metric = claim_of(load(path))
    assert workload in WORKLOADS
    assert metric in END_TO_END


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_claimed_metric_has_both_medians(path):
    parent, change = medians(load(path))
    assert isinstance(parent, (int, float)) and isinstance(change, (int, float))


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_change_beats_parent_in_the_claimed_metric(path):
    record = load(path)
    parent, change = medians(record)
    if END_TO_END[claim_of(record)[1]]["better"] == "lower":
        assert change < parent
    else:
        assert change > parent


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_claimed_metric_won_nine_of_the_pairs(path):
    entry = claimed_entry(load(path))
    # Records made before tools/bench_pairs.py name the count ``pairs_won_by_change``.
    won = entry["pairs_won"] if "pairs_won" in entry else entry["pairs_won_by_change"]
    assert won >= PAIRS_TO_WIN


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_no_metric_is_worse_than_its_bound(path):
    """Neither flagged ``worse_than_bound`` nor, by its medians, past the bound."""
    worse = []
    for workload, runs in load(path)["workloads"].items():
        for metric, entry in runs["metrics"].items():
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            spec = END_TO_END[metric]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            if entry.get("worse_than_bound") or (parent and sign * (change / parent - 1.0)
                                                 > spec["bound"]):
                worse.append((workload, metric))
    assert worse == []
