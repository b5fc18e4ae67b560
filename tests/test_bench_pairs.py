"""The paired bench driver (``tools/bench_pairs.py``) on fixed numbers and small trees.

No benchmark is run: the summary is checked on hand-computed runs and against the
committed records, which were summarised the same way, and the tree check on
temporary trees.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [3.0, 1.0, 4.0, 10.0, 5.0, 9.0, 2.0, 6.0, 8.0, 7.0]
# Eight pairs lower, one tie (1.0) and one higher (4.0 -> 5.0).
CHANGE = [2.0, 1.0, 5.0, 9.0, 4.0, 8.0, 1.0, 5.0, 7.0, 6.0]


def test_summary_of_a_lower_is_better_metric():
    summary = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.05)
    assert summary["parent"] == {"median": 5.5, "q1": 2.75, "q3": 8.25, "runs": PARENT}
    assert summary["change"] == {"median": 5.0, "q1": 1.75, "q3": 7.25, "runs": CHANGE}
    assert summary["change_vs_parent"] == 5.0 / 5.5 - 1.0
    assert summary["pairs_won"] == 8  # the tie counts for neither side
    assert summary["worse_than_bound"] is False
    assert summary["unresolved"] is True  # parent q3 - q1 = 5.5, wider than 5% of 5.5


def test_summary_of_a_higher_is_better_metric():
    summary = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.05)
    assert summary["pairs_won"] == 1
    assert summary["worse_than_bound"] is True  # 9.1% lower, against a 5% bound
    assert bench_pairs.summarize(PARENT, CHANGE, "higher", 0.1)["worse_than_bound"] is False


def test_a_spread_parent_is_resolved_only_by_separated_runs():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # q3 - q1 = 3.0, 25% of the median 12.0
    assert bench_pairs.summarize(parent, [11.0] * 5, "lower", 0.3)["unresolved"] is False
    assert bench_pairs.summarize(parent, [11.0] * 5, "lower", 0.2)["unresolved"] is True
    # Every change run beats every parent run: resolved despite the spread.
    assert bench_pairs.summarize(parent, [9.0] * 5, "lower", 0.2)["unresolved"] is False
    assert bench_pairs.summarize(parent, [15.0] * 5, "higher", 0.2)["unresolved"] is False
    # A tie with the best parent run is not a win.
    assert bench_pairs.summarize(parent, [10.0] * 5, "lower", 0.2)["unresolved"] is True


def test_a_zero_parent_median_is_unresolved():
    summary = bench_pairs.summarize([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], "lower", 0.25)
    assert summary["change_vs_parent"] is None
    assert summary["worse_than_bound"] is None
    assert summary["unresolved"] is True
    assert summary["pairs_won"] == 0


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError, match="unpaired"):
        bench_pairs.summarize(PARENT, CHANGE[:-1], "lower", 0.25)


def test_workload_record_layout():
    def result(attempted, failed, latency):
        return {"correct": not failed, "attempted": attempted, "failed": failed,
                "metrics": {"latency_p50_ms": {"value": latency, "unit": "ms"},
                            "rootfind.calls": {"value": 7, "unit": "count"}}}

    runs = {"parent": [result(100, 0, 2.0), result(90, 1, 3.0)],
            "change": [result(120, 0, 1.5), result(110, 0, 3.0)]}
    spec = {"latency_p50_ms": {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
                               "bound": 0.25}}
    record = bench_pairs.workload_record(runs, [11, 12], spec)
    assert record["pairs"] == 2 and record["seeds"] == [11, 12]
    assert record["attempted"] == {"parent": [100, 90], "change": [120, 110]}
    assert record["failed"] == {"parent": [0, 1], "change": [0, 0]}
    assert list(record["metrics"]) == ["latency_p50_ms"]  # only end-to-end metrics
    metric = record["metrics"]["latency_p50_ms"]
    assert (metric["unit"], metric["better"], metric["bound"]) == ("ms", "lower", 0.25)
    assert metric["parent"]["median"] == 2.5 and metric["change"]["median"] == 2.25
    assert metric["pairs_won"] == 1


@pytest.mark.parametrize("name", ["BENCH_brent_steps.json", "BENCH_csv_blocks.json",
                                  "BENCH_float_forward.json"])
def test_summary_reproduces_a_committed_record(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        record = json.load(fh)
    for workload in record["workloads"].values():
        for entry in workload["metrics"].values():
            summary = bench_pairs.summarize(entry["parent"]["runs"], entry["change"]["runs"],
                                            entry["better"], entry["bound"])
            if "unresolved" not in entry:  # records made before the flag
                del summary["unresolved"]
            assert {k: entry[k] for k in summary} == summary


def _tree(root, run_seconds, run_py="print('bench')\n"):
    """A minimal checkout: BENCHMARK.json and one benchmark file under its paths."""
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
         "run_seconds": run_seconds, "workloads": [{"name": "w"}], "end_to_end": []}))
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "perfbench" / "__pycache__" / "run.pyc").write_bytes(os.urandom(16))
    return str(root)


def test_trees_that_run_different_benchmarks_are_refused_before_any_run(tmp_path, monkeypatch,
                                                                         capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: calls.append(args))
    parent, change = _tree(tmp_path / "parent", 30), _tree(tmp_path / "change", 5)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", parent, "--change", change, "--tag", "t",
                          "--claim", "w latency_p50_ms", "--first-seed", "1"])
    assert exit_.value.code == 2 and calls == []
    assert "the trees run different benchmarks: BENCHMARK.json differs" in capsys.readouterr().err


def test_first_difference_names_the_first_differing_benchmark_file(tmp_path):
    parent = _tree(tmp_path / "parent", 30)
    # Bytecode caches differ in every pair of trees and are not compared.
    assert bench_pairs.first_difference(parent, _tree(tmp_path / "same", 30)) is None
    assert bench_pairs.first_difference(
        parent, _tree(tmp_path / "edited", 30, "print('faster')\n")) == "perfbench/run.py"
    extra = _tree(tmp_path / "extra", 30)
    (tmp_path / "extra" / "perfbench" / "added.py").write_text("")
    assert bench_pairs.first_difference(parent, extra) == "perfbench/added.py"
    assert bench_pairs.first_difference(extra, parent) == "perfbench/added.py"
