"""Every committed ``BENCH_*.json`` record claims a gain the benchmark defines, and shows it.

A record's claim is ``{"workload": w, "metric": m}`` or a string that starts
``"<w> <m>"``.  Only ``BENCHMARK.json`` and the records are read; nothing is run.
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


def medians(record):
    """(parent, change) medians of the claimed metric."""
    workload, metric = claim_of(record)
    entry = record["workloads"][workload]["metrics"][metric]
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
