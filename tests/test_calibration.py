import codecs
import math
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from accordion_gripper import (
    CalibrationError,
    ChamberGeometry,
    GripperAssembly,
    HyperelasticMaterial,
    OutOfWorkspaceError,
    SolverBox,
    SuctionModel,
    aperture_vs_pressure,
    inverse_pressure,
    suction_force,
)
from accordion_gripper import calibration
from accordion_gripper.calibration import (
    MeasurementSeries,
    SeriesKind,
    extract_peak_force,
    fit_c1,
    fit_suction,
    load_series_csv,
)
from accordion_gripper.chamber import reachable_pressure_range
from oracles import CSV_HEADERS, load_series_csv_by_rows, peak_force_by_lists, series_rows_by_loop

PRESSURES = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0]


def make_aperture_series(geom, c1=119.0, noise=0.0, seed=0, pressures=PRESSURES):
    assembly = GripperAssembly(geom, HyperelasticMaterial(c1))
    ys = np.array([aperture_vs_pressure(assembly, p) for p in pressures])
    if noise:
        rng = np.random.default_rng(seed)
        ys = ys * (1.0 + noise * rng.standard_normal(len(ys)))
    return MeasurementSeries.from_pairs(
        SeriesKind.PRESSURE_APERTURE, zip(pressures, ys)
    )


# ---------------------------------------------------------------------------
# Series and CSV parsing


def test_series_minimum_rows():
    with pytest.raises(CalibrationError, match="at least 3"):
        MeasurementSeries.from_pairs(SeriesKind.PRESSURE_APERTURE, [(1, 2), (2, 3)])
    with pytest.raises(CalibrationError, match="at least 2"):
        MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, [(0, 15)])
    # Two suction points are enough for the 2-parameter model.
    MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, [(0, 15), (20, 30)])


def test_series_requires_increasing_pressures():
    with pytest.raises(CalibrationError, match="strictly increasing"):
        MeasurementSeries.from_pairs(
            SeriesKind.PRESSURE_APERTURE, [(1, 20), (3, 21), (2, 22)]
        )


@pytest.mark.parametrize(
    "kind, pairs",
    [
        (SeriesKind.PRESSURE_APERTURE, [(5, 20.8), (10, math.nan), (15, 21.2)]),
        (SeriesKind.FORCE_DISPLACEMENT, [(0, 1.0), (1, math.inf), (2, 2.0)]),
        (SeriesKind.SUCTION_FORCE, [(0, 15.0), (-math.inf, 30.0)]),
    ],
    ids=["pressure_aperture", "force_displacement", "suction_force"],
)
def test_series_rejects_non_finite_values(kind, pairs):
    with pytest.raises(CalibrationError, match="row 2: non-finite"):
        MeasurementSeries.from_pairs(kind, pairs)


def _rows_with(at, row, n=5):
    """``n`` rows of finite, increasing values with ``row`` in place of row ``at``."""
    rows = [(float(i + 1), 2.0 * i + 1.0) for i in range(n)]
    rows[at] = row
    return tuple(rows)


#: Rows a series may be given, each with its id: every one must be kept, or refused with
#: the exception type and message, as the row loop of ``oracles.series_rows_by_loop`` does.
SERIES_ROWS = [
    *((f"{name}_x_{where}", _rows_with(at, (value, 1.0)))
      for name, value in (("inf", math.inf), ("minus_inf", -math.inf), ("nan", math.nan))
      for where, at in (("first", 0), ("middle", 2), ("last", 4))),
    *((f"{name}_y_{where}", _rows_with(at, (3.0, value)))
      for name, value in (("inf", math.inf), ("minus_inf", -math.inf), ("nan", math.nan))
      for where, at in (("first", 0), ("middle", 2), ("last", 4))),
    ("inf_and_minus_inf", _rows_with(2, (math.inf, -math.inf))),
    ("nan_and_inf", _rows_with(3, (math.nan, math.inf))),
    ("sum_overflows", ((1.0, 1e308), (1e308, 1e308), (1.7e308, 1.7e308))),
    ("sum_overflows_to_minus_inf", ((-1.7e308, -1.7e308), (-1e308, -1e308), (0.0, -1e308))),
    ("ints", ((1, 2), (2, 3), (3, 5))),
    ("bools", ((False, True), (True, True), (2, False))),
    ("int_past_the_float_range", _rows_with(1, (10**400, 1))),
    ("decimals", ((Decimal("1.5"), Decimal(2)), (Decimal(2), Decimal(3)), (Decimal(3), Decimal(4)))),
    ("decimal_and_float", ((1.0, Decimal(2)), (2.0, 3.0), (Decimal(3), 4.0))),
    ("decimal_infinity", _rows_with(2, (Decimal("Infinity"), Decimal(1)))),
    ("decimal_nan", _rows_with(4, (Decimal(5), Decimal("NaN")))),
    ("decimal_signaling_nan", _rows_with(1, (Decimal("sNaN"), Decimal(1)))),
    ("decimals_past_the_float_range_cancelling",
     ((Decimal(1), Decimal(1)), (Decimal("1e400"), Decimal("-1e400")), (Decimal(3), Decimal(1)))),
    ("fractions", ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), 1.0), (1, Fraction(7, 3)))),
    ("complex", _rows_with(2, (1j, 2.0))),
    ("none", _rows_with(0, (None, 2.0))),
    ("strings", (("1", "2"), ("2", "3"), ("3", "4"))),
    ("a_string_among_floats", _rows_with(3, (4.0, "5"))),
    ("lists", ([1.0, 2.0], [2.0, 3.0], [3.0, 4.0])),
    ("one_tuples", ((1.0,), (2.0,), (3.0,))),
    ("a_one_tuple_last", _rows_with(4, (5.0,))),
    ("three_tuples", ((1.0, 2.0, 3.0), (2.0, 3.0, 4.0), (3.0, 4.0, 5.0))),
    ("a_three_tuple_first", _rows_with(0, (1.0, 2.0, 3.0))),
    ("a_one_and_a_three_tuple", ((1.0,), (2.0, 3.0, 4.0), (3.0, 4.0))),
    ("two_rows", ((1.0, 2.0), (2.0, 3.0))),
    ("one_row", ((1.0, 2.0),)),
    ("equal_pressures", ((1.0, 2.0), (1.0, 3.0), (2.0, 4.0))),
    ("falling_pressures", ((3.0, 2.0), (2.0, 3.0), (1.0, 4.0))),
    ("finite", ((0.0, -0.0), (5e-324, 1.7976931348623157e308), (2.0, -1.7976931348623157e308))),
]


def _kept_or_raised(build, kind, rows):
    """"kept" when ``build`` keeps ``rows`` themselves, else its exception's type and message."""
    try:
        kept = build(kind, rows)
    except Exception as exc:
        return type(exc), str(exc)
    return "kept" if kept is rows else kept


@pytest.mark.parametrize("kind", list(SeriesKind))
@pytest.mark.parametrize("rows", [rows for _, rows in SERIES_ROWS],
                         ids=[name for name, _ in SERIES_ROWS])
def test_series_checks_its_rows_as_the_row_loop(kind, rows):
    """The one-pass finiteness test keeps the row loop's series, errors and messages."""
    got = _kept_or_raised(lambda k, r: MeasurementSeries(k, r).rows, kind, rows)
    assert got == _kept_or_raised(series_rows_by_loop, kind, rows)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(SeriesKind),
       rows=st.lists(st.tuples(st.floats(), st.floats()) | st.tuples(st.integers(), st.floats()),
                     max_size=8).map(tuple))
def test_series_checks_drawn_rows_as_the_row_loop(kind, rows):
    got = _kept_or_raised(lambda k, r: MeasurementSeries(k, r).rows, kind, rows)
    assert got == _kept_or_raised(series_rows_by_loop, kind, rows)


ROWS = ((5.0, 20.8), (10.0, 21.0), (15.0, 21.2))


@pytest.mark.parametrize("kind", list(SeriesKind))
def test_a_series_kind_may_be_given_by_its_name(kind):
    by_name = MeasurementSeries(kind.value, ROWS)
    assert by_name == MeasurementSeries(kind, ROWS)
    assert by_name.kind is kind


def test_a_named_kind_keeps_every_series_rule(tmp_path, geom):
    """A plain-string kind gets the rules of its SeriesKind: increasing pressures, and
    the fitters' kind checks."""
    rows = [(1.0, 20.0), (3.0, 21.0), (2.0, 22.0)]
    with pytest.raises(CalibrationError, match="strictly increasing pressures"):
        MeasurementSeries.from_pairs("pressure_aperture", rows)
    path = tmp_path / "data.csv"
    path.write_text("pressure_kPa,aperture_mm\n" + "".join(f"{x},{y}\n" for x, y in rows))
    with pytest.raises(CalibrationError, match="strictly increasing pressures"):
        load_series_csv(path, "pressure_aperture")
    with pytest.raises(CalibrationError) as raised:
        fit_c1(MeasurementSeries("force_displacement", ROWS), geom)
    assert str(raised.value) == "fit_c1 needs a pressure_aperture series, got force_displacement"


@pytest.mark.parametrize("kind", ["pressure", None, ["suction_force"]])
def test_an_unknown_series_kind_names_the_kinds(tmp_path, kind):
    message = (f"unknown series kind {kind!r}; expected one of "
               "['pressure_aperture', 'force_displacement', 'suction_force']")
    path = tmp_path / "data.csv"
    path.write_text("pressure_kPa,aperture_mm\n5,20.8\n10,21.0\n15,21.2\n")
    for call in (lambda: MeasurementSeries(kind, ROWS), lambda: load_series_csv(path, kind)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


#: The same three rows, each way a measurement CSV may write them.
CSV_TEXTS = {
    "lf": "pressure_kPa,aperture_mm\n5,20.8\n10,21.0\n15,21.2\n",
    "crlf": "pressure_kPa,aperture_mm\r\n5,20.8\r\n10,21.0\r\n15,21.2\r\n",
    "quoted": '"pressure_kPa","aperture_mm"\n"5","20.8"\n"10",21.0\n15,"21.2"\n',
    "cr_only": "pressure_kPa,aperture_mm\r5,20.8\r10,21.0\r15,21.2\r",
    "bom_crlf": "\ufeffpressure_kPa,aperture_mm\r\n5,20.8\r\n10,21.0\r\n15,21.2\r\n",
    "blank_lines": "pressure_kPa,aperture_mm\n\n5,20.8\n\n\n10,21.0\r\n\r\n15,21.2\n\n\n",
    "spaces": "pressure_kPa , aperture_mm\n 5 , 20.8\n10,\t21.0 \n 15,21.2",
}


@pytest.mark.parametrize("text", CSV_TEXTS.values(), ids=list(CSV_TEXTS))
def test_load_series_csv_round_trip(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    series = load_series_csv(path, SeriesKind.PRESSURE_APERTURE)
    assert series.rows == ROWS
    assert list(series.xs()) == [5.0, 10.0, 15.0]


@pytest.mark.parametrize("name", CSV_TEXTS)
def test_only_quoted_or_cr_only_files_reach_csv_reader(tmp_path, name):
    """Unquoted lines with LF or CRLF ends, a BOM, blank lines and spaces take the block
    pass; quoted fields and CR-only line ends are read by csv.reader."""
    path = tmp_path / "data.csv"
    path.write_bytes(CSV_TEXTS[name].encode())
    with mock.patch.object(calibration, "_csv_pairs", wraps=calibration._csv_pairs) as reader:
        assert load_series_csv(path, SeriesKind.PRESSURE_APERTURE).rows == ROWS
    assert reader.called == (name in ("quoted", "cr_only"))


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty file"),
        ("pressure_kPa,radius_mm\n5,20.8\n", ":1: expected header"),
        ("pressure_kPa,aperture_mm\n5,20.8\n10\n15,21.2\n", ":3: expected 2 fields"),
        ("pressure_kPa,aperture_mm\n5,20.8\n10,abc\n15,21.2\n", ":3: non-numeric"),
        ("pressure_kPa,aperture_mm\r\n5,20.8\r\n10\r\n15,21.2\r\n", ":3: expected 2 fields"),
        ('"pressure_kPa","aperture_mm"\n"5,1",20.8\n', r":2: non-numeric value in \['5,1', '20.8'\]"),
        ("pressure_kPa,aperture_mm\r5,20.8\r10,1,2\r", ":3: expected 2 fields, got 3"),
        ("\ufeffpressure_kPa,radius_mm\r\n5,20.8\r\n", ":1: expected header 'pressure_kPa,aper"),
        ("pressure_kPa,aperture_mm\n\n5,20.8\n\n10,x\n", ":5: non-numeric"),
        ("pressure_kPa,aperture_mm\n 5 , 20.8\n 10 , \n", r":3: non-numeric value in \[' 10 ', ' '\]"),
        # A quoted newline: the bad row is the file's fifth line, though its fourth record.
        ('pressure_kPa,aperture_mm\n"0\n",1\n1,2\n2,x\n', r":5: non-numeric value in \['2', 'x'\]"),
    ],
)
def test_load_series_csv_errors(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(CalibrationError, match=match):
        load_series_csv(path, SeriesKind.PRESSURE_APERTURE)


def test_load_series_csv_names_the_line_of_a_csv_error(tmp_path):
    """A field over csv.field_size_limit() is a CalibrationError naming its line."""
    path = tmp_path / "long.csv"
    path.write_text("displacement_mm,force_N\n0,1\n1," + "1" * 131073 + "\n2,3\n")
    with pytest.raises(CalibrationError, match=r":3: field larger than field limit \(131072\)$"):
        load_series_csv(path, SeriesKind.FORCE_DISPLACEMENT)


def _outcome(load, path, kind):
    """The series ``load`` reads, bit for bit, or its exception's type and message."""
    try:
        series = load(path, kind)
    except Exception as exc:
        return type(exc), str(exc)
    return series.kind, [tuple(map(float.hex, row)) for row in series.rows]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_load_series_csv_reads_across_blocks(tmp_path, eol):
    """Lines and blank lines cut by the block ends, and a line longer than a block,
    read as the row-by-row reader reads them."""
    rows = [f"{0.001 * i!r},{math.sin(i)!r}" for i in range(12_000)]
    for i in range(0, len(rows), 97):
        rows[i] += eol  # a blank line
    plain = tmp_path / "plain.csv"
    plain.write_bytes(eol.join(["displacement_mm,force_N", *rows, ""]).encode())
    long_line = tmp_path / "long_line.csv"
    long_line.write_bytes(eol.join(["displacement_mm,force_N", *rows[:3000],
                                    "0" * 70_000 + "1.5,2", *rows[3000:]]).encode())
    # Quoted, so csv.reader rereads it, and its decode error lies past the first chunk.
    bad_byte = tmp_path / "bad_byte.csv"
    text = plain.read_bytes().replace(b"displacement_mm", b'"displacement_mm"', 1)
    bad_byte.write_bytes(text[:70_000] + b"\xff" + text[70_000:])
    for path in (plain, long_line, bad_byte):
        assert path.stat().st_size > 3 * calibration._BLOCK_BYTES
        got = _outcome(load_series_csv, path, SeriesKind.FORCE_DISPLACEMENT)
        assert got == _outcome(load_series_csv_by_rows, path, SeriesKind.FORCE_DISPLACEMENT)
        if path is long_line:
            assert len(got[1]) == 12_001 and got[1][3000] == (1.5.hex(), 2.0.hex())
    assert got[0] is UnicodeDecodeError


_CSV_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text("0123456789.eE+- \t\x0b\x00", max_size=8),
    st.sampled_from(["nan", "-inf", "Infinity", "1_0", "", " 7 "]),
)
_CSV_SEPARATORS = st.sampled_from([",", ",", ",", ",,", ", ", ""])
_CSV_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", ""])
_CSV_JUNK = st.text('0123456789.eE+-, \t"\r\n\x00', max_size=6) | st.sampled_from(["nan", "inf"])


@st.composite
def measurement_files(draw):
    """A measurement CSV's kind and bytes: mostly plain rows, with quotes, CR line
    ends, NUL, a BOM, header variants and invalid UTF-8 mixed in."""
    kind = draw(st.sampled_from(SeriesKind))
    x, y = CSV_HEADERS[kind]
    header = draw(st.sampled_from([f"{x},{y}"] * 6 + [f" {x} ,{y}\t", f'"{x}","{y}"',
                                                      f"{x},wrong", f"{x},{y},", f"{x}\r,{y}", ""]))
    if draw(st.booleans()):  # a plain file of finite values, one line end throughout
        eol = draw(st.sampled_from(["\n", "\r\n"]))
        values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        rows = draw(st.lists(st.tuples(values, values), min_size=2, max_size=12))
        text = eol.join([header, *map(",".join, rows)]) + draw(st.sampled_from(["", eol]))
    else:
        pieces = [header, draw(_CSV_LINE_ENDS)]
        for _ in range(draw(st.integers(0, 8))):
            if draw(st.integers(0, 4)) == 0:
                pieces.append(draw(_CSV_JUNK))
            else:
                quote = draw(st.sampled_from(["", "", '"']))
                pieces += [quote + draw(_CSV_FIELDS) + quote, draw(_CSV_SEPARATORS),
                           draw(_CSV_FIELDS), draw(_CSV_LINE_ENDS)]
        text = "".join(pieces)
    data = text.encode()
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return kind, data


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=400, deadline=None)
@given(file=measurement_files(), block=st.sampled_from([1, 2, 7, 64, 1 << 16]))
# A quoted line break: each error names the physical line its record ends on, not the record.
@example(file=(SeriesKind.PRESSURE_APERTURE, b'pressure_kPa,aperture_mm\n"\r0'), block=1)
@example(file=(SeriesKind.PRESSURE_APERTURE, b'pressure_kPa,aperture_mm\n"1\n2",3,4\n'),
         block=1 << 16)
# Blank lines, which the block pass finds in each block's separators: right after the
# header, two that straddle a block edge (the first block ends at byte 29), CRLF ones, and
# a line without a comma next to one.
@example(file=(SeriesKind.FORCE_DISPLACEMENT, b"displacement_mm,force_N\n\n0,1\n1,2\n2,3\n"),
         block=1 << 16)
@example(file=(SeriesKind.FORCE_DISPLACEMENT, b"displacement_mm,force_N\n0,1\n\n\n1,2\n2,3\n"),
         block=29)
@example(file=(SeriesKind.FORCE_DISPLACEMENT,
               b"displacement_mm,force_N\r\n\r\n0,1\r\n\r\n\r\n1,2\r\n2,3\r\n\r\n"),
         block=1 << 16)
@example(file=(SeriesKind.FORCE_DISPLACEMENT, b"displacement_mm,force_N\n0,1\n\n5\n1,2\n2,3\n"),
         block=1 << 16)
@example(file=(SeriesKind.FORCE_DISPLACEMENT, b"displacement_mm,force_N\n0,1\n5\n\n1,2\n2,3\n"),
         block=7)
def test_load_series_csv_matches_the_row_by_row_reader(csv_dir, file, block):
    """The block pass, at any block size, or csv.reader after it gives up: the same series
    as the row-by-row reader, or the same exception type and message."""
    kind, data = file
    path = csv_dir / "drawn.csv"
    path.write_bytes(data)
    with mock.patch.object(calibration, "_BLOCK_BYTES", block):
        got = _outcome(load_series_csv, path, kind)
    assert got == _outcome(load_series_csv_by_rows, path, kind)


def test_load_series_csv_skips_blank_lines(tmp_path):
    """The block pass skips blank lines, also two that a block edge (at byte 27) parts."""
    path = tmp_path / "data.csv"
    path.write_text("pressure_kPa,force_N\n0,15\n\n\n20,30\n")
    for block in (27, 1 << 14):
        with (mock.patch.object(calibration, "_BLOCK_BYTES", block),
              mock.patch.object(calibration, "_csv_pairs") as reader):
            series = load_series_csv(path, SeriesKind.SUCTION_FORCE)
        assert series.rows == ((0.0, 15.0), (20.0, 30.0))
        assert not reader.called


# ---------------------------------------------------------------------------
# Material constant fit


def test_fit_c1_noiseless_round_trip(geom):
    report = fit_c1(make_aperture_series(geom), geom)
    c1_hat = report.params["c1_kPa"]
    assert abs(c1_hat - 119.0) / 119.0 < 0.01
    assert report.residual_norm < 1e-6
    assert not report.at_bound
    assert len(report.per_point) == len(PRESSURES)
    assert report.n_evals > 0


def test_fit_c1_noisy_round_trip(geom):
    report = fit_c1(make_aperture_series(geom, noise=0.01, seed=7), geom)
    assert abs(report.params["c1_kPa"] - 119.0) / 119.0 < 0.05


def test_fit_c1_recovers_other_constants(geom):
    # A softer material cannot reach 40 kPa inside the solver box, so keep
    # the generated series below its reachable maximum.
    low = [2.0, 6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0]
    for truth, pressures in ((60.0, low), (250.0, PRESSURES)):
        report = fit_c1(make_aperture_series(geom, c1=truth, pressures=pressures), geom)
        assert report.params["c1_kPa"] == pytest.approx(truth, rel=1e-4)


def test_fit_c1_input_validation(geom):
    wrong = MeasurementSeries.from_pairs(
        SeriesKind.SUCTION_FORCE, [(0, 15), (20, 30)]
    )
    with pytest.raises(CalibrationError, match="pressure_aperture"):
        fit_c1(wrong, geom)
    with_zero = MeasurementSeries.from_pairs(
        SeriesKind.PRESSURE_APERTURE, [(0, 20.7), (10, 21.0), (20, 21.6)]
    )
    with pytest.raises(CalibrationError, match="above 0"):
        fit_c1(with_zero, geom)


def test_fit_c1_rejects_flat_series(geom):
    flat = MeasurementSeries.from_pairs(
        SeriesKind.PRESSURE_APERTURE, [(5, 20.7), (10, 20.7), (15, 20.7)]
    )
    with pytest.raises(CalibrationError, match="does not increase"):
        fit_c1(flat, geom)


def test_fit_c1_fails_when_no_constant_reaches_the_series(geom):
    # No c1 opens the chamber past 57.7 deg, so every aperture lies beyond the box's
    # reach: the fit stops at c1_reach, the softest c1 that reaches 40 kPa, and says so.
    narrow = SolverBox(half_angle_max=math.radians(57.7))
    report = fit_c1(make_aperture_series(geom), geom, box=narrow)
    unit_reach = reachable_pressure_range(geom, HyperelasticMaterial(1.0), narrow)[1]
    assert report.params["c1_kPa"] == pytest.approx(PRESSURES[-1] / unit_reach, rel=1e-12)
    assert report.at_bound and report.notes == "optimizer at bound"


# The c1 that reaches 41 kPa at the top of the box reaches it only to within rounding.
@pytest.mark.parametrize("top", [40.0, 41.0])
def test_fit_c1_stops_at_the_reach_when_every_aperture_lies_beyond_it(geom, top):
    # 22-chamber apertures read as a 16-chamber ring: every one lies past the aperture
    # at the top of the box, for every c1.
    series = make_aperture_series(geom, pressures=PRESSURES[:-1] + [top])
    unit = GripperAssembly(geom, HyperelasticMaterial(1.0), 16)
    unit_reach = reachable_pressure_range(geom, unit.material)[1]
    assert min(series.ys()) > aperture_vs_pressure(unit, unit_reach)
    report = fit_c1(series, geom, 16)
    assert report.params["c1_kPa"] == pytest.approx(top / unit_reach, rel=1e-12)
    assert report.at_bound and report.notes == "optimizer at bound"
    assert report.n_evals == 1


def test_fit_c1_says_the_top_binds_when_points_lie_below_rest(geom):
    # Only the last aperture lies above rest; the others ask for an infinitely stiff wall.
    unit = GripperAssembly(geom, HyperelasticMaterial(1.0))
    unit_reach = reachable_pressure_range(geom, unit.material)[1]
    rest = aperture_vs_pressure(unit, 0.0)
    series = MeasurementSeries.from_pairs(SeriesKind.PRESSURE_APERTURE,
                                          [(10.0, rest - 0.01), (20.0, rest - 0.005),
                                           (40.0, rest + 0.01)])
    report = fit_c1(series, geom)
    last_c1 = 40.0 / inverse_pressure(unit, rest + 0.01, unit_reach)
    assert report.params["c1_kPa"] == pytest.approx(last_c1, rel=1e-12)
    assert report.at_bound and report.notes == "optimizer at bound"


@pytest.mark.parametrize("c1", [5.0, 2000.0, 20000.0])
def test_fit_c1_recovers_constants_far_from_the_default(geom, c1):
    pressures = [c1 * f for f in (0.05, 0.1, 0.15, 0.2, 0.25)]
    series = make_aperture_series(geom, c1=c1, pressures=pressures)
    report = fit_c1(series, geom)
    assert report.params["c1_kPa"] == pytest.approx(c1, rel=1e-9)
    assert not report.at_bound


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(min_value=80.0, max_value=200.0),
    k=st.floats(min_value=0.02, max_value=100.0),
)
def test_fit_c1_scales_with_the_pressures(geom, c1, k):
    # P is linear in c1: the apertures seen at pressures k*p are those of k*c1.
    # The box reaches 85 deg, so the scaled pressures stay reachable.
    box = SolverBox(half_angle_max=math.radians(85.0))
    series = make_aperture_series(geom, c1=c1)
    scaled = MeasurementSeries.from_pairs(
        SeriesKind.PRESSURE_APERTURE, [(k * p, y) for p, y in series.rows])
    c1_hat = fit_c1(series, geom, box=box).params["c1_kPa"]
    # Each fit stops within about 2*sqrt(eps)*c1 of its optimum.
    assert fit_c1(scaled, geom, box=box).params["c1_kPa"] == pytest.approx(k * c1_hat, rel=1e-7)


def test_fit_c1_reports_the_predictions_it_evaluated(monkeypatch, geom):
    # The report reads the optimum's predictions from its evaluation: no solve after the search.
    import accordion_gripper.gripper as gripper

    solves, real = [], gripper.angles_at_pressures

    def spy(geom, mat, pressures, *args, **kwargs):
        solves.extend(pressures)
        return real(geom, mat, pressures, *args, **kwargs)

    series = make_aperture_series(geom)
    monkeypatch.setattr(gripper, "angles_at_pressures", spy)
    report = fit_c1(series, geom)
    # Every trial reads the c1 = 1 kPa curve; its range ends are cached across calls.
    ends = (0.0, reachable_pressure_range(geom, HyperelasticMaterial(1.0))[1])
    assert len([p for p in solves if p not in ends]) == report.n_evals * len(PRESSURES)
    fitted = GripperAssembly(geom, HyperelasticMaterial(report.params["c1_kPa"]))
    assert [point["predicted"] for point in report.per_point] == [
        aperture_vs_pressure(fitted, p) for p in PRESSURES]


# fit_c1 and fit_suction on literal series: the fitted parameters and every prediction, as
# float.hex, frozen from the forward map that built a ``DeformedState`` per point.
FROZEN_C1_SERIES = {
    "default-model": (
        ChamberGeometry(), 22, SolverBox(), 1e-12,
        [2.0 * (i + 1) for i in range(20)],
        [
            20.7642, 20.8543, 20.9391, 21.0355, 21.116, 21.2182, 21.2951,
            21.4024, 21.477, 21.5883, 21.6621, 21.7758, 21.8505, 21.9653,
            22.0425, 22.1569, 22.2382, 22.351, 22.4379, 22.5479,
        ],
        "0x1.dbedc08ac2f37p+6",
        [
            "0x1.4c3a6a8751f57p+4", "0x1.4da5963970a2cp+4", "0x1.4f125bf958586p+4",
            "0x1.5080dc5ae2bf8p+4", "0x1.51f1370d86237p+4", "0x1.53638b00a2192p+4",
            "0x1.54d7f683ec564p+4", "0x1.564e976499147p+4", "0x1.57c78b07b851ap+4",
            "0x1.5942ee8236b49p+4", "0x1.5ac0deaed9e7dp+4", "0x1.5c417842857bep+4",
            "0x1.5dc4d7df099c9p+4", "0x1.5f4b1a24b3cf8p+4", "0x1.60d45bc2d2556p+4",
            "0x1.6260b98754733p+4", "0x1.63f0506daca32p+4", "0x1.65833dad15484p+4",
            "0x1.67199ec654d48p+4", "0x1.68b391911a7efp+4",
        ],
    ),
    "16-chambers-75-deg-box": (
        ChamberGeometry(5.2, 3.4, math.radians(50.0)), 16, SolverBox(math.radians(75.0)), 1e-13,
        [5.0, 12.5, 20.0, 31.0, 44.0, 58.0, 71.5],
        [15.3826, 15.4157, 15.4536, 15.5172, 15.5805, 15.651, 15.7288],
        "0x1.3f8ce234cbe8fp+9",
        [
            "0x1.ec1e1e5389e75p+3", "0x1.ed5c1bf762e06p+3", "0x1.ee9ab21cbc8c9p+3",
            "0x1.f06f27fa0287cp+3", "0x1.f29ad9096ddc1p+3", "0x1.f4f4139701dfep+3",
            "0x1.f73adf2bea53fp+3",
        ],
    ),
}


@pytest.mark.parametrize("name", FROZEN_C1_SERIES)
def test_fit_c1_frozen_bits(name):
    geom, n_chambers, box, tol, xs, ys, c1_hex, preds_hex = FROZEN_C1_SERIES[name]
    series = MeasurementSeries.from_pairs(SeriesKind.PRESSURE_APERTURE, zip(xs, ys))
    report = fit_c1(series, geom, n_chambers, box, tol)
    assert report.params["c1_kPa"].hex() == c1_hex
    assert [point["predicted"].hex() for point in report.per_point] == preds_hex


def test_fit_suction_frozen_bits():
    series = MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, zip(
        [0.0, 5.0, 10.0, 20.0, 30.0, 40.0], [0.0, 9.1, 17.6, 31.2, 41.9, 50.3]))
    report = fit_suction(series, GripperAssembly(ChamberGeometry(), HyperelasticMaterial(119.0)))
    assert {name: value.hex() for name, value in report.params.items()} == {
        "A_eff_mm2": "0x1.8c520b7c736edp+11", "h_eff_mm": "0x1.c1c4fa6d469bfp+8"}
    assert [point["predicted"].hex() for point in report.per_point] == [
        "0x1.5195887dafceap+1", "0x1.2994891f20c7fp+3", "0x1.fa7f00c905efbp+3",
        "0x1.c8ab57f0b175fp+4", "0x1.46fb90c57cdd2p+5", "0x1.a722923ee134cp+5",
    ]


def noisy_series_with_first_point(geom, n_chambers, c1, pressures, first_aperture, seed):
    """Apertures of the model plus 0.003 mm Gaussian noise; the first one replaced."""
    assembly = GripperAssembly(geom, HyperelasticMaterial(c1), n_chambers)
    rng = random.Random(seed)
    ys = [aperture_vs_pressure(assembly, p) + rng.gauss(0.0, 0.003) for p in pressures]
    ys[0] = first_aperture(assembly)
    return MeasurementSeries.from_pairs(SeriesKind.PRESSURE_APERTURE, zip(pressures, ys))


def test_fit_c1_holds_with_a_first_point_below_rest(geom):
    # A noisy point at or below the rest aperture has no angle inside the box.
    pressures = [0.1 + (40.0 - 0.1) * i / 39 for i in range(40)]
    series = noisy_series_with_first_point(
        geom, 16, 178.46, pressures, lambda a: aperture_vs_pressure(a, 0.0) - 0.002, seed=1)
    assembly = GripperAssembly(geom, HyperelasticMaterial(178.46), 16)
    assert series.rows[0][1] < aperture_vs_pressure(assembly, 0.0)
    report = fit_c1(series, geom, 16)
    assert report.params["c1_kPa"] == pytest.approx(178.46, rel=0.05)
    assert not report.at_bound


def test_fit_c1_holds_when_a_point_alone_asks_for_an_unreachable_c1(geom):
    # The first point's own c1 (the c1 whose curve passes through it) is too soft to
    # reach the series' top pressure inside the box: a bracket from the points breaks.
    pressures = [0.5 + (40.0 - 0.5) * i / 9 for i in range(10)]
    series = noisy_series_with_first_point(
        geom, 22, 80.27, pressures, lambda a: aperture_vs_pressure(a, 0.5) + 0.01, seed=2)
    unit = GripperAssembly(geom, HyperelasticMaterial(1.0), 22)
    unit_reach = reachable_pressure_range(geom, unit.material)[1]  # P(hi) at c1 = 1 kPa
    first_c1 = pressures[0] / inverse_pressure(unit, series.rows[0][1], unit_reach)
    assert first_c1 < pressures[-1] / unit_reach
    report = fit_c1(series, geom, 22)
    assert report.params["c1_kPa"] == pytest.approx(80.27, rel=0.05)
    assert not report.at_bound


@settings(max_examples=30, deadline=None)
@given(
    n_chambers=st.sampled_from([16, 22, 28]),
    c1=st.floats(min_value=80.0, max_value=250.0),
    p_first=st.floats(min_value=0.1, max_value=10.0),
    k=st.integers(min_value=3, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
# Two draws where a search over ln c1 (c1 in kPa) stopped 2.1e-9 and 8.0e-9 above scipy.
@example(n_chambers=28, c1=80.0, p_first=7.0, k=3, seed=1462268563)
@example(n_chambers=28, c1=189.01023291945592, p_first=6.704067739107076, k=3, seed=384062955)
def test_fit_c1_is_no_worse_than_a_wide_scipy_search(geom, n_chambers, c1, p_first, k, seed):
    # Oracle: scipy's bounded search over log c1 in [1, 1e5] kPa, steered off any c1 too
    # soft to reach the top pressure inside the box.  Near rest, noise can put a point below it.
    pressures = [p_first + (40.0 - p_first) * i / (k - 1) for i in range(k)]
    truth = GripperAssembly(geom, HyperelasticMaterial(c1), n_chambers)
    rng = random.Random(seed)
    ys = np.array([aperture_vs_pressure(truth, p) + rng.gauss(0.0, 0.003) for p in pressures])
    series = MeasurementSeries.from_pairs(SeriesKind.PRESSURE_APERTURE, zip(pressures, ys))

    def residual_norm(c1_try):
        assembly = GripperAssembly(geom, HyperelasticMaterial(c1_try), n_chambers)
        try:
            preds = [aperture_vs_pressure(assembly, p) for p in pressures]
        except OutOfWorkspaceError:
            return 1e6 - c1_try
        return float(np.sqrt(np.sum((np.array(preds) - ys) ** 2)))

    ref = minimize_scalar(lambda x: residual_norm(math.exp(x)), bounds=(0.0, math.log(1e5)),
                          method="bounded")
    report = fit_c1(series, geom, n_chambers)
    assert report.residual_norm <= residual_norm(math.exp(ref.x)) * (1.0 + 1e-9)


def test_fit_c1_report_serializes(geom):
    report = fit_c1(make_aperture_series(geom), geom)
    d = report.to_dict()
    assert set(d) == {"params", "residual_norm", "per_point", "at_bound", "notes", "n_evals"}
    assert d["per_point"][0]["x"] == PRESSURES[0]


# ---------------------------------------------------------------------------
# Peak extraction


def test_extract_peak_force_plain():
    series = MeasurementSeries.from_pairs(
        SeriesKind.FORCE_DISPLACEMENT, [(0, 1.0), (1, 4.0), (2, 2.5)]
    )
    assert extract_peak_force(series) == 4.0


def test_extract_peak_force_smoothing_suppresses_spikes():
    # A short trace, and a long one: a smooth hump with noise and spikes.
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, 20_000)
    long_ys = 10.0 * np.sin(np.pi * t) + rng.normal(0.0, 0.05, t.size)
    long_ys[rng.integers(0, t.size, 40)] += 25.0
    for ys, windows in (([1.0, 1.0, 9.0, 1.0, 3.0, 3.2, 3.1, 1.0], (3,)),
                        (long_ys.tolist(), (5, 25))):
        series = MeasurementSeries.from_pairs(
            SeriesKind.FORCE_DISPLACEMENT, list(enumerate(ys))
        )
        assert extract_peak_force(series) == max(ys)
        for w in windows:
            smoothed = extract_peak_force(series, smoothing_window=w)
            oracle = np.max(np.convolve(ys, np.ones(w) / w, "valid"))
            assert smoothed == pytest.approx(oracle, rel=1e-12)
            assert smoothed < max(ys)


def test_extract_peak_force_validation():
    series = MeasurementSeries.from_pairs(
        SeriesKind.FORCE_DISPLACEMENT, [(0, 1.0), (1, 2.0), (2, 1.5)]
    )
    with pytest.raises(ValueError, match="window"):
        extract_peak_force(series, smoothing_window=0)
    with pytest.raises(CalibrationError, match="exceeds"):
        extract_peak_force(series, smoothing_window=10)
    wrong = MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, [(0, 1), (1, 2)])
    with pytest.raises(CalibrationError, match="force_displacement"):
        extract_peak_force(wrong)
    # Each force is finite, but two of them sum past the float range.
    huge = MeasurementSeries.from_pairs(
        SeriesKind.FORCE_DISPLACEMENT, [(0, 1.7e308), (1, 1.7e308), (2, 1.0)]
    )
    assert extract_peak_force(huge) == 1.7e308
    with pytest.raises(CalibrationError, match="peak force is inf, not a finite number"):
        extract_peak_force(huge, smoothing_window=2)


@pytest.mark.parametrize("n", [3, 4, 97, 5000])
def test_extract_peak_force_matches_the_list_based_peak(n):
    """The peak read straight from the rows is the list-based peak, bit for bit, at windows
    1, 2, n - 1 and n."""
    rng = random.Random(n)
    series = MeasurementSeries.from_pairs(
        SeriesKind.FORCE_DISPLACEMENT,
        [(i, rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)) for i in range(n)])
    for w in {1, 2, n - 1, n}:
        assert extract_peak_force(series, w).hex() == peak_force_by_lists(series, w).hex()
    # Forces that sum past the float range: the list-based peak is inf, which is refused.
    huge = MeasurementSeries.from_pairs(
        SeriesKind.FORCE_DISPLACEMENT, [(0, 1.7e308), (1, 1.7e308), (2, 1.0)])
    assert peak_force_by_lists(huge, 2) == math.inf
    with pytest.raises(CalibrationError, match="peak force is inf, not a finite number"):
        extract_peak_force(huge, smoothing_window=2)


@pytest.mark.parametrize("window", [2.0, "2", None, 1.5, math.nan, True, False])
def test_extract_peak_force_window_must_be_an_integer(window):
    series = MeasurementSeries.from_pairs(
        SeriesKind.FORCE_DISPLACEMENT, [(0, 1.0), (1, 2.0), (2, 1.5)]
    )
    with pytest.raises(ValueError) as raised:
        extract_peak_force(series, smoothing_window=window)
    assert str(raised.value) == f"smoothing window must be an integer, got {window!r}"


# ---------------------------------------------------------------------------
# Suction fit


def synthetic_suction_series(assembly, a_eff, h_eff, lift=5000.0, ambient=101.325,
                             pressures=(0.0, 5.0, 10.0, 15.0, 20.0)):
    rg0 = aperture_vs_pressure(assembly, 0.0)
    v0 = math.pi * rg0 * rg0 * h_eff
    rows = []
    for p in pressures:
        rg = aperture_vs_pressure(assembly, p)
        v = math.pi * rg * rg * h_eff + lift
        rows.append((p, (ambient - ambient * v0 / v) * a_eff / 1000.0))
    return MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, rows)


@pytest.mark.parametrize(
    "c1, n_chambers, truth_h, pressures",
    [
        (119.0, 22, 46.0, (0.0, 5.0, 10.0, 15.0, 20.0)),
        # Stiffest ring: the aperture barely moves, so the peaks are nearly flat.
        (200.0, 16, 30.0, (5.0, 10.0, 15.0, 20.0, 25.0)),
    ],
    ids=["default-ring", "stiffest-ring"],
)
def test_fit_suction_synthetic_round_trip(geom, c1, n_chambers, truth_h, pressures):
    assembly = GripperAssembly(geom, HyperelasticMaterial(c1), n_chambers)
    truth_a = 2000.0
    series = synthetic_suction_series(assembly, truth_a, truth_h, pressures=pressures)
    report = fit_suction(series, assembly)
    assert abs(report.params["A_eff_mm2"] - truth_a) / truth_a < 0.02
    assert abs(report.params["h_eff_mm"] - truth_h) / truth_h < 0.02
    assert report.residual_norm < 1e-3
    assert not report.at_bound


def test_fit_suction_predicts_with_the_suction_model(geom):
    # The fit and SuctionModel share one volume law, so a model built from
    # the fitted parameters gives each predicted peak bit for bit.
    rng = random.Random(20261018)
    for i in range(40):
        assembly = GripperAssembly(
            geom, HyperelasticMaterial(rng.uniform(80.0, 220.0)), rng.choice((16, 22, 28))
        )
        pressures = sorted(rng.uniform(0.0, 30.0) for _ in range(5))
        series = synthetic_suction_series(
            assembly, rng.uniform(500.0, 5000.0), rng.uniform(10.0, 200.0), pressures=pressures
        )
        if i % 2:
            series = MeasurementSeries.from_pairs(
                SeriesKind.SUCTION_FORCE,
                [(p, f * (1.0 + 0.02 * rng.gauss(0.0, 1.0))) for p, f in series.rows],
            )
        report = fit_suction(series, assembly)
        model = SuctionModel(assembly, report.params["A_eff_mm2"], report.params["h_eff_mm"])
        for point in report.per_point:
            assert point["predicted"] == suction_force(model, point["x"], 5000.0)


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(min_value=80.0, max_value=220.0),
    n_chambers=st.sampled_from([16, 22, 28]),
    a_eff=st.floats(min_value=500.0, max_value=5000.0),
    h_eff=st.floats(min_value=10.0, max_value=200.0),
    p_first=st.floats(min_value=0.0, max_value=10.0),
    steps=st.lists(st.floats(min_value=2.0, max_value=6.0), min_size=2, max_size=5),
    k=st.floats(min_value=0.2, max_value=4.0),
)
def test_fit_suction_scales_with_the_forces(geom, c1, n_chambers, a_eff, h_eff, p_first, steps,
                                            k):
    # The predicted peak is A_eff times a function of h_eff: forces x k give
    # A_eff x k and the same h_eff.  Pressures at least 2 kPa apart keep the
    # fit well posed.
    assembly = GripperAssembly(geom, HyperelasticMaterial(c1), n_chambers)
    pressures = [p_first + sum(steps[:i]) for i in range(len(steps) + 1)]
    series = synthetic_suction_series(assembly, a_eff, h_eff, pressures=pressures)
    scaled = MeasurementSeries.from_pairs(
        SeriesKind.SUCTION_FORCE, [(p, k * f) for p, f in series.rows])
    fit, fit_k = fit_suction(series, assembly).params, fit_suction(scaled, assembly).params
    assert fit_k["A_eff_mm2"] == pytest.approx(k * fit["A_eff_mm2"], rel=1e-12)
    assert fit_k["h_eff_mm"] == pytest.approx(fit["h_eff_mm"], rel=1e-12)


def test_fit_suction_reproduces_anchor_forces(assembly):
    # Two measured peaks, 15 N sealed at rest and 30 N at 20 kPa, fit to
    # within 10% by the 2-parameter model.
    series = MeasurementSeries.from_pairs(
        SeriesKind.SUCTION_FORCE, [(0.0, 15.0), (20.0, 30.0)]
    )
    report = fit_suction(series, assembly)
    for point in report.per_point:
        assert abs(point["error"]) / point["measured"] < 0.10
    assert report.params["A_eff_mm2"] > 0
    assert report.params["h_eff_mm"] > 0


def test_fit_suction_input_validation(assembly):
    wrong = MeasurementSeries.from_pairs(
        SeriesKind.PRESSURE_APERTURE, [(1, 2), (2, 3), (3, 4)]
    )
    with pytest.raises(CalibrationError, match="suction_force"):
        fit_suction(wrong, assembly)
    negative = MeasurementSeries.from_pairs(
        SeriesKind.SUCTION_FORCE, [(-5.0, 10.0), (20.0, 30.0)]
    )
    with pytest.raises(CalibrationError, match=">= 0"):
        fit_suction(negative, assembly)
    duplicate = MeasurementSeries.from_pairs(
        SeriesKind.SUCTION_FORCE, [(10.0, 20.0), (10.0, 21.0)]
    )
    with pytest.raises(CalibrationError, match="underdetermined"):
        fit_suction(duplicate, assembly)
    # The rules that SuctionModel and suction_force apply to the same parameters.
    series = MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, [(0.0, 15.0), (20.0, 30.0)])
    with pytest.raises(ValueError, match="ambient pressure must be positive"):
        fit_suction(series, assembly, ambient_pressure_kPa=-101.0)
    with pytest.raises(ValueError, match="lift volume increase must be >= 0"):
        fit_suction(series, assembly, lift_volume_increase_mm3=-1e6)
    # With no lift the peaks do not depend on h_eff, so nothing determines it.
    unmoved = MeasurementSeries.from_pairs(
        SeriesKind.SUCTION_FORCE, [(0.0, 15.0), (1e-300, 30.0)]
    )
    with pytest.raises(CalibrationError, match="do not depend on h_eff"):
        fit_suction(unmoved, assembly, lift_volume_increase_mm3=0.0)
    # No positive seal area fits peaks that are all zero or negative.
    for peaks in ((0.0, 0.0), (-1.0, -3.0)):
        flat = MeasurementSeries.from_pairs(SeriesKind.SUCTION_FORCE, zip((0.0, 20.0), peaks))
        with pytest.raises(CalibrationError, match=r"projected seal area \S+ mm\^2 <= 0"):
            fit_suction(flat, assembly)
    # Finite peaks near the float limit project onto an infinite seal area.
    huge = MeasurementSeries.from_pairs(
        SeriesKind.SUCTION_FORCE, [(0.0, 1e300), (20.0, 1e308), (40.0, 1.7e308)])
    with pytest.raises(CalibrationError, match="A_eff_mm2 is inf, not a finite number"):
        fit_suction(huge, assembly)


@pytest.mark.parametrize("scale, a_eff, h_eff", [
    (1.0, 80.0, 53.0), (1.0, 2264.0, 600.0),
    (0.01, 2264.0, 53.0), (0.05, 2264.0, 53.0), (10.0, 2264.0, 53.0), (20.0, 2264.0, 53.0),
    (100.0, 2264.0, 53.0),
], ids=["A_eff-80", "h_eff-600", "x0.01", "x0.05", "x10", "x20", "x100"])
def test_fit_suction_recovers_any_size(geom, scale, a_eff, h_eff):
    # Lengths x f, A_eff x f^2, the lift volume x f^3: noise-free peaks at 5-25 kPa are
    # recovered inside the search, whatever the unit or the size.
    assembly = GripperAssembly(
        ChamberGeometry(geom.r_outer_0 * scale, geom.r_inner_0 * scale, geom.half_angle_0),
        HyperelasticMaterial())
    lift = 5000.0 * scale**3
    a_eff, h_eff = a_eff * scale**2, h_eff * scale
    series = synthetic_suction_series(assembly, a_eff, h_eff, lift,
                                      pressures=(5.0, 10.0, 15.0, 20.0, 25.0))
    report = fit_suction(series, assembly, lift_volume_increase_mm3=lift)
    assert report.params["A_eff_mm2"] == pytest.approx(a_eff, rel=1e-6)
    assert report.params["h_eff_mm"] == pytest.approx(h_eff, rel=1e-6)
    assert not report.at_bound and report.notes == ""


@settings(max_examples=100, deadline=None)
@given(
    c1=st.floats(min_value=80.0, max_value=220.0),
    n_chambers=st.sampled_from([16, 22, 28]),
    a_eff=st.floats(min_value=500.0, max_value=5000.0),
    h_eff=st.floats(min_value=10.0, max_value=200.0),
    f=st.floats(min_value=0.01, max_value=100.0),
)
def test_fit_suction_is_scale_free(geom, c1, n_chambers, a_eff, h_eff, f):
    # Lengths x f, A_eff x f^2 and the lift volume x f^3 leave every peak unchanged, so
    # the fit scales the same way and no scale brings it to an end of its search.
    lift = 5000.0
    fits = []
    for k in (1.0, f):
        assembly = GripperAssembly(
            ChamberGeometry(geom.r_outer_0 * k, geom.r_inner_0 * k, geom.half_angle_0),
            HyperelasticMaterial(c1), n_chambers)
        series = synthetic_suction_series(assembly, a_eff * k**2, h_eff * k, lift * k**3)
        report = fit_suction(series, assembly, lift_volume_increase_mm3=lift * k**3)
        assert not report.at_bound
        fits.append((report.params["A_eff_mm2"] / k**2, report.params["h_eff_mm"] / k))
    assert fits[1] == pytest.approx(fits[0], rel=1e-9)


# ---------------------------------------------------------------------------
# Bounded minimiser: a port of scipy's minimize_scalar(method="bounded")


#: The first point the bounded minimiser evaluates on (-5, 5).
_FIRST_GOLDEN_POINT = -5.0 + 0.5 * (3.0 - math.sqrt(5.0)) * 10.0

#: (f, bounds): minima at negative x, where |x| feeds the tolerance; a bound at +0.0
#: or -0.0; decreasing functions, whose minimum is the upper bound; an exact zero at
#: the first iterate; plateaus, where f(u) ties f(x); a NaN everywhere, and on part of
#: the interval (status 2 where a NaN is met).  Five of them take a step where the two
#: operands of max(|rat|, tol1) tie.
BOUNDED_EDGE_CASES = [
    (lambda x: (x + 7.3) ** 2, (-20.0, -1.0)),
    (lambda x: math.cosh(x + 2.0) - 0.5 * x, (-9.0, -0.5)),
    (lambda x: (x - 0.2) ** 2, (-0.0, 5.0)),
    (lambda x: (x + 0.4) ** 2, (-3.0, -0.0)),
    (lambda x: x * x, (0.0, 2.0)),
    (lambda x: x * x, (-0.0, 2.0)),
    (lambda x: -x, (-4.0, -1.0)),
    (lambda x: math.exp(-x), (-2.0, 3.0)),
    (lambda x: -math.atan(x), (-5.0, 5.0)),
    (lambda x: abs(x - _FIRST_GOLDEN_POINT), (-5.0, 5.0)),
    (lambda x: max(abs(x - 1.1) - 0.5, 0.0), (-3.0, 4.0)),
    (lambda x: max(abs(x + 2.1) - 0.05, 0.0), (-8.0, 0.0)),
    (lambda x: float(math.floor(abs(x - 0.3))), (-4.0, 4.0)),
    (lambda x: 1.0, (-1.0, 1.0)),
    (lambda x: math.nan, (0.0, 1.0)),
    (lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2, (0.0, 1.0)),
    (lambda x: math.nan if x < -1.0 else (x + 2.0) ** 2, (-4.0, 3.0)),
]


def test_bounded_minimiser_matches_scipy():
    rng = np.random.default_rng(77)
    problems = []
    for _ in range(200):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + rng.uniform(0.01, 50.0)
        c, k = rng.uniform(lo - 5.0, hi + 5.0), rng.uniform(0.1, 10.0)
        problems += [
            (lambda x, c=c, k=k: k * (x - c) ** 2, (lo, hi)),
            (lambda x, c=c: abs(x - c) ** 0.5 + math.sin(3.0 * x), (lo, hi)),
            (lambda x, c=c, k=k: math.cosh(k * (x - c) / 10.0) + 0.1 * x, (lo, hi)),
        ]
    for xatol in (1e-9, 1e-5):
        for f, bounds in problems + BOUNDED_EDGE_CASES:
            ours, theirs = [], []
            x, fun, nfev, status = calibration._minimize_bounded(
                lambda u: ours.append(u) or f(u), bounds, xatol=xatol)
            ref = minimize_scalar(lambda u: theirs.append(u) or f(u), bounds=bounds,
                                  method="bounded", options={"xatol": xatol})
            assert (x, nfev, status) == (ref.x, ref.nfev, ref.status), bounds
            assert fun == ref.fun or math.isnan(fun) and math.isnan(ref.fun), bounds
            assert ours == theirs, bounds


def test_bounded_minimiser_reports_cap():
    def f(x):
        return abs(x - 1.0) ** 0.5

    x, _, nfev, status = calibration._minimize_bounded(f, (-100.0, 100.0), maxiter=4)
    ref = minimize_scalar(f, bounds=(-100.0, 100.0), method="bounded", options={"maxiter": 4})
    assert (x, nfev, status) == (ref.x, 4, 1)


@pytest.mark.parametrize("fit", ["fit_c1", "fit_suction"])
def test_capped_fit_says_so(monkeypatch, geom, assembly, fit):
    real = calibration._minimize_bounded
    monkeypatch.setattr(
        calibration, "_minimize_bounded", lambda f, bounds: real(f, bounds, maxiter=3)
    )
    if fit == "fit_c1":
        report = fit_c1(make_aperture_series(geom, noise=0.01, seed=7), geom)
    else:
        report = fit_suction(synthetic_suction_series(assembly, 2000.0, 46.0), assembly)
    assert "optimizer stopped at its evaluation cap" in report.notes
    assert report.n_evals == 3


def test_uncapped_fit_notes_unchanged(geom):
    report = fit_c1(make_aperture_series(geom), geom)
    assert report.notes == ""


@pytest.mark.parametrize(
    "consumer, kind, message",
    [
        ("fit_c1", SeriesKind.FORCE_DISPLACEMENT,
         "fit_c1 needs a pressure_aperture series, got force_displacement"),
        ("fit_c1", SeriesKind.SUCTION_FORCE,
         "fit_c1 needs a pressure_aperture series, got suction_force"),
        ("extract_peak_force", SeriesKind.PRESSURE_APERTURE,
         "extract_peak_force needs a force_displacement series, got pressure_aperture"),
        ("extract_peak_force", SeriesKind.SUCTION_FORCE,
         "extract_peak_force needs a force_displacement series, got suction_force"),
        ("fit_suction", SeriesKind.PRESSURE_APERTURE,
         "fit_suction needs a suction_force series, got pressure_aperture"),
        ("fit_suction", SeriesKind.FORCE_DISPLACEMENT,
         "fit_suction needs a suction_force series, got force_displacement"),
    ],
)
def test_wrong_series_kind_message(geom, assembly, consumer, kind, message):
    series = MeasurementSeries.from_pairs(kind, [(1, 2), (2, 3), (3, 4)])
    call = {
        "fit_c1": lambda: fit_c1(series, geom),
        "extract_peak_force": lambda: extract_peak_force(series),
        "fit_suction": lambda: fit_suction(series, assembly),
    }[consumer]
    with pytest.raises(CalibrationError) as raised:
        call()
    assert str(raised.value) == message
