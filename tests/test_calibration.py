import math
import random

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


def test_load_series_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("pressure_kPa,aperture_mm\n5,20.8\n10,21.0\n15,21.2\n")
    series = load_series_csv(path, SeriesKind.PRESSURE_APERTURE)
    assert series.rows == ((5.0, 20.8), (10.0, 21.0), (15.0, 21.2))
    assert list(series.xs()) == [5.0, 10.0, 15.0]


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty file"),
        ("pressure_kPa,radius_mm\n5,20.8\n", ":1: expected header"),
        ("pressure_kPa,aperture_mm\n5,20.8\n10\n15,21.2\n", ":3: expected 2 fields"),
        ("pressure_kPa,aperture_mm\n5,20.8\n10,abc\n15,21.2\n", ":3: non-numeric"),
    ],
)
def test_load_series_csv_errors(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CalibrationError, match=match):
        load_series_csv(path, SeriesKind.PRESSURE_APERTURE)


def test_load_series_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("pressure_kPa,force_N\n0,15\n\n20,30\n")
    series = load_series_csv(path, SeriesKind.SUCTION_FORCE)
    assert len(series.rows) == 2


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

    solves, real = [], gripper.solve_deformation

    def spy(*args, **kwargs):
        solves.append(args[2])
        return real(*args, **kwargs)

    series = make_aperture_series(geom)
    monkeypatch.setattr(gripper, "solve_deformation", spy)
    report = fit_c1(series, geom)
    # Every trial reads the c1 = 1 kPa curve; its range ends are cached across calls.
    ends = (0.0, reachable_pressure_range(geom, HyperelasticMaterial(1.0))[1])
    assert len([p for p in solves if p not in ends]) == report.n_evals * len(PRESSURES)
    fitted = GripperAssembly(geom, HyperelasticMaterial(report.params["c1_kPa"]))
    assert [point["predicted"] for point in report.per_point] == [
        aperture_vs_pressure(fitted, p) for p in PRESSURES]


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
        for f, bounds in problems:
            x, fun, nfev, status = calibration._minimize_bounded(f, bounds, xatol=xatol)
            ref = minimize_scalar(f, bounds=bounds, method="bounded", options={"xatol": xatol})
            assert (x, fun, nfev, status) == (ref.x, ref.fun, ref.nfev, ref.status)


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
