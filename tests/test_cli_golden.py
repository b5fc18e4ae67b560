"""Every CLI command's output, pinned byte for byte.

``golden_cli.json`` maps each command line to the stdout, stderr and exit
code it gave (plus the CSV a ``sweep`` wrote) when the file was last
written.  The ten commands, and the error paths of bad input files, run
under the default config, two (c1, n_chambers) overrides, a config of
integers with a new capacity shape, one of out-of-range suction and
grasp values, and one whose solver box top lies below the rest angle.  A change that moves an output digit rewrites
the file with ``PYTHONPATH=src python tests/test_cli_golden.py``, which prints
each rewritten entry's command, field and moved numbers as old -> new.
"""

import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from accordion_gripper.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

CONFIGS = {
    "default.json": {},
    "c1_85_n16.json": {"material": {"c1_kPa": 85.0}, "assembly": {"n_chambers": 16}},
    "c1_210_n28.json": {"material": {"c1_kPa": 210.0}, "assembly": {"n_chambers": 28}},
    # Integers where the defaults are floats, and a capacity shape the defaults lack.
    "integers.json": {"material": {"c1_kPa": 150}, "assembly": {"n_chambers": 20},
                      "grasp": {"stretch_margin_mm": 8, "open_kPa": 30},
                      "capacity": {"cylinder": {"plateau_N": 25},
                                   "cone": {"slope_N_per_kPa": 1, "plateau_N": 12}}},
    # Suction and grasp values out of range: rejected at load, whatever the command.
    "out_of_range.json": {"suction": {"ambient_kPa": -101, "A_eff_mm2": -5},
                          "grasp": {"stretch_margin_mm": -100, "open_kPa": 50}},
    # A box top below the rest angle: the bracket [Theta0, top] is empty.
    "box_below_rest.json": {"solver": {"box": {"theta0_max_deg": 50}}},
}

INPUTS = {
    "cylinder.json": json.dumps({"shape_class": "cylinder", "characteristic_diameter_mm": 40.0}),
    "plate.json": json.dumps({"shape_class": "flat_plate", "characteristic_diameter_mm": 300.0}),
    "ring.json": json.dumps({"shape_class": "cylinder", "characteristic_diameter_mm": 60.0,
                             "has_aperture": True, "aperture_diameter_mm": 40.0}),
    "sphere.json": json.dumps({"shape_class": "sphere", "characteristic_diameter_mm": 200.0}),
    "string-flag.json": json.dumps({"shape_class": "cylinder", "characteristic_diameter_mm": 40.0,
                                    "has_flat_sealable_surface": "false"}),
    "invalid.json": "not json\n",
    "aperture.csv": "pressure_kPa,aperture_mm\n5,20.8\n10,20.97\n20,21.55\n30,22.05\n40,22.5\n",
    "suction.csv": "pressure_kPa,force_N\n0,15\n20,30\n40,41\n",
    "trace.csv": "displacement_mm,force_N\n0,0.5\n1,1.8\n2,3.9\n3,4.6\n4,4.4\n5,4.9\n6,3.1\n7,1.2\n",
}

COMMANDS = (
    ["config"],
    ["config", "--print-default"],
    ["solve", "--pressure", "0"],
    ["solve", "--pressure", "12.5"],
    ["solve", "--pressure", "40", "--json"],
    ["solve", "--pressure", "100"],
    ["solve", "--pressure", "-5"],
    ["sweep", "--out", "sweep.csv"],
    ["invert", "--aperture", "15.5"],
    ["invert", "--aperture", "21.5", "--json"],
    ["invert", "--aperture", "26.5"],
    ["invert", "--aperture", "40"],
    ["workspace"],
    ["workspace", "--p-max", "20", "--json"],
    ["validate"],
    ["validate", "--json"],
    ["plan", "--object", "cylinder.json"],
    ["plan", "--object", "plate.json"],
    ["plan", "--object", "ring.json"],
    ["plan", "--object", "sphere.json"],
    ["fit-c1", "--data", "aperture.csv"],
    ["fit-suction", "--data", "suction.csv"],
    ["peak-force", "--data", "trace.csv"],
    ["peak-force", "--data", "trace.csv", "--window", "3", "--json"],
    # Bad input files: each is one error line and exit 1.
    ["fit-c1", "--data", "missing.csv"],
    ["peak-force", "--data", "missing.csv"],
    ["sweep", "--out", "no-dir/sweep.csv"],
    ["plan", "--object", "missing.json"],
    ["plan", "--object", "invalid.json"],
    ["plan", "--object", "string-flag.json"],
)

CASES = [["--config", cfg, *argv] for cfg in CONFIGS for argv in COMMANDS]


def write_inputs(directory: Path) -> None:
    for name, payload in CONFIGS.items():
        (directory / name).write_text(json.dumps(payload))
    for name, text in INPUTS.items():
        (directory / name).write_text(text)


def record(argv) -> dict:
    """Exit code, stdout and stderr of one command run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    # Text is kept as lists of lines, so that a diff of the file shows single lines.
    entry = {"exit": code, "stdout": out.getvalue().splitlines(True),
             "stderr": err.getvalue().splitlines(True)}
    out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_file and out_file.exists():
        entry["out_file"] = out_file.read_text().splitlines(True)
    return entry


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(golden, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRIPPER_CONFIG", raising=False)
    write_inputs(tmp_path)
    assert record(argv) == golden[" ".join(argv)]


#: A number as the commands print it; the text between two numbers is split off it.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def moves(old: dict, new: dict):
    """(command, field, moved) for each field that differs between two golden files.

    ``moved`` lists every number that changed as old -> new, or the first line that
    changed when more than numbers did.
    """
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case, {}), new.get(case, {})
        for field in sorted(before.keys() | after.keys()):
            a, b = (entry.get(field) for entry in (before, after))
            if a == b:
                continue
            a, b = ("".join(x) if isinstance(x, list) else str(x) for x in (a, b))
            if NUMBER.split(a) == NUMBER.split(b):
                yield case, field, ", ".join(f"{x} -> {y}" for x, y in
                                             zip(NUMBER.findall(a), NUMBER.findall(b)) if x != y)
            else:
                lines = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
                x, y = lines[0] if lines else (a, b)
                yield case, field, f"text {x!r} -> {y!r}"


def test_moves_lists_every_moved_number():
    old = {"solve": {"exit": 0, "stdout": ["r0 4.5 mm\n", "D 1e-15\n"]},
           "plan": {"exit": 0, "stdout": ["feasible\n"]}}
    new = {"solve": {"exit": 2, "stdout": ["r0 4.5 mm\n", "D -2e-15\n"]},
           "plan": {"exit": 0, "stdout": ["infeasible\n"]}}
    assert list(moves(old, new)) == [
        ("plan", "stdout", "text 'feasible' -> 'infeasible'"),
        ("solve", "exit", "0 -> 2"), ("solve", "stdout", "1e-15 -> -2e-15")]


def rewrite() -> None:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    os.environ.pop("GRIPPER_CONFIG", None)
    cwd = os.getcwd()
    golden = {}
    for argv in CASES:  # each in a fresh directory, as the test runs it
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                write_inputs(Path(tmp))
                golden[" ".join(argv)] = record(argv)
            finally:
                os.chdir(cwd)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    moved = list(moves(old, golden))
    for case, field, what in moved:
        print(f"{case} | {field}: {what}")
    print(f"wrote {len(golden)} cases to {GOLDEN}; {len({m[0] for m in moved})} moved",
          file=sys.stderr)


if __name__ == "__main__":
    rewrite()
