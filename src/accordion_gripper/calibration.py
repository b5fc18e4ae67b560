"""Parameter fitting from measurement CSVs.

Three fitters are provided:

* ``fit_c1``: recovers the wall material constant from an aperture-vs-
  pressure series, minimising the squared residuals over a data-given c1 bracket.
* ``extract_peak_force``: peak of a force-displacement trace, with an
  optional moving-average smoother.
* ``fit_suction``: recovers the suction model's effective seal area and
  effective interior height from (chamber pressure, peak force) pairs; the
  force is linear in the area, so only the height is searched.

All fitters are deterministic given their inputs.  CSV parsing is strict:
the header must match the series kind exactly and malformed rows abort
with their line number.
"""

from __future__ import annotations

import codecs
import io
import math
from enum import Enum
from itertools import accumulate, chain, islice, starmap, tee
from operator import add, index, itemgetter, le, sub

from .chamber import THETA_TOL_RAD, ChamberGeometry, SolverBox, reachable_pressure_range
from .errors import CalibrationError
from .grasp import AMBIENT_KPA, LIFT_VOLUME_INCREASE_MM3, check_ambient_pressure
from .grasp import check_lift_volume, sealed_volume, suction_law
from .gripper import GripperAssembly, apertures_at_pressures, inverse_pressure, workspace
from .material import HyperelasticMaterial
from .records import Record


class SeriesKind(str, Enum):
    PRESSURE_APERTURE = "pressure_aperture"
    FORCE_DISPLACEMENT = "force_displacement"
    SUCTION_FORCE = "suction_force"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown series kind {value!r}; expected one of {[k.value for k in cls]}")


#: Per series kind: the required CSV header (x column, y column) and the
#: fewest rows.  Two anchor pressures suffice for the 2-parameter suction
#: model; the other kinds need three.
_KINDS = {
    SeriesKind.PRESSURE_APERTURE: (("pressure_kPa", "aperture_mm"), 3),
    SeriesKind.FORCE_DISPLACEMENT: (("displacement_mm", "force_N"), 3),
    SeriesKind.SUCTION_FORCE: (("pressure_kPa", "force_N"), 2),
}


class MeasurementSeries(Record, fields="kind rows"):
    """A measured series: its kind and its ordered (x, y) pairs."""

    __slots__ = ()

    def __new__(cls, kind: SeriesKind, rows: tuple):
        kind = SeriesKind(kind)  # a kind may be given by its name
        min_rows = _KINDS[kind][1]
        if len(rows) < min_rows:
            raise CalibrationError(
                f"{kind.value} series needs at least {min_rows} rows, got {len(rows)}"
            )
        # One C-level pass: inf and NaN carry through float +, so a finite total proves
        # every float finite (the float start refuses Decimals).  Any other total, or any
        # error, runs the row loop: it names the row, raises what it meets, and passes
        # finite values whose sum overflows.  Exact numbers past the float range that
        # cancel in one row, as (10**400, -10**400), are all the pass lets through.
        try:
            finite = math.isfinite(sum(starmap(add, rows), 0.0))
        except Exception:
            finite = False
        if not finite:
            for i, (x, y) in enumerate(rows, start=1):
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise CalibrationError(
                        f"{kind.value} series row {i}: non-finite value ({x}, {y})")
        if kind is SeriesKind.PRESSURE_APERTURE:
            xs = [x for x, _ in rows]
            if any(map(le, xs[1:], xs)):
                raise CalibrationError(
                    "pressure_aperture series must have strictly increasing pressures"
                )
        return tuple.__new__(cls, (kind, rows))

    @classmethod
    def from_pairs(cls, kind: SeriesKind, pairs) -> "MeasurementSeries":
        return cls(kind=kind, rows=tuple((float(x), float(y)) for x, y in pairs))

    def xs(self) -> list[float]:
        return [x for x, _ in self.rows]

    def ys(self) -> list[float]:
        return [y for _, y in self.rows]


def load_series_csv(path, kind: SeriesKind) -> MeasurementSeries:
    """Read a measurement CSV, failing loudly on any malformed content.

    A plain file (unquoted ``x,y`` lines) is read a block at a time; any other
    is read by ``csv.reader``, which also words every error.
    """
    # Unbuffered: a file the plain pass rejects reaches csv.reader through a fresh
    # buffer, so its errors read as they would from a text-mode open().
    expected = _KINDS[SeriesKind(kind)][0]
    with open(path, "rb", buffering=0) as raw:
        if raw.seekable():  # a pipe can be read only once, so csv.reader reads it
            try:
                return MeasurementSeries(kind, _plain_pairs(raw, expected))
            except ValueError:  # not plain: csv.reader reads it again, and words any error
                raw.seek(0)
        pairs = _csv_pairs(raw, path, expected)
    return MeasurementSeries(kind, pairs)


#: Bytes the plain pass reads at a time: it holds one block, and a longer line
#: (far below csv's 128 KiB field limit) is left to ``csv.reader``.  Blocks of
#: 64 KiB parse no faster, and their buffers raise the peak RSS by ~0.5 MiB.
_BLOCK_BYTES = 1 << 14

#: Every byte but comma and newline: deleting them from lines that each hold
#: exactly one comma leaves ``b",\n"`` once per line.
_FIELD_BYTES = bytes(sorted(set(range(256)) - set(b",\n")))


def _plain_pairs(raw, expected: tuple) -> tuple:
    """The (x, y) rows of a file that ``csv.reader`` splits at its commas and line
    ends alone; ValueError for any other file, as then the two might disagree.

    No Python code runs per row: each block's lines are checked by counting and
    all their fields go through one ``map(float, ...)``.  ``float`` on bytes
    takes ASCII only, so a body that parses is valid UTF-8.  A quote, which
    csv.reader would read as quoting, fails both ``float`` and the header match.
    """
    runs = map(_lf_ends, _line_runs(raw))
    header, _, run = next(runs, b"").removeprefix(codecs.BOM_UTF8).partition(b"\n")
    if tuple(h.strip() for h in header.decode().split(",")) != expected:
        raise ValueError("not the expected header")
    pairs = []
    for run in chain((run,), runs):
        separators = run.translate(None, _FIELD_BYTES)
        # A blank line shows in the separators, 2 bytes a line, as it does in the run; so
        # does a line without a comma, which the count below then rejects.
        if b"\n\n" in separators or separators.startswith(b"\n"):
            while b"\n\n" in run:
                run = run.replace(b"\n\n", b"\n")
            run = run.lstrip(b"\n")
            separators = run.translate(None, _FIELD_BYTES)
        if separators.count(b",\n") * 2 != len(separators):
            raise ValueError("a line without exactly one comma")
        fields = map(float, run[:-1].replace(b"\n", b",").split(b","))
        pairs.extend(zip(fields, fields))
    return tuple(pairs)


def _lf_ends(run: bytes) -> bytes:
    """``run`` with its CRLF line ends as LF; ValueError for a CR alone, which ends a
    csv row where no plain line ends."""
    if b"\r" in run:
        run = run.replace(b"\r\n", b"\n")
        if b"\r" in run:
            raise ValueError("a CR without an LF")
    return run


def _line_runs(raw):
    """The bytes of ``raw`` in runs of whole lines, each ending in a newline (one is
    added at the end of the file); ValueError for a line longer than a block."""
    carry = b""
    while data := raw.read(_BLOCK_BYTES):
        run = carry + data
        # Only the first line can span two reads.
        if len(run) > _BLOCK_BYTES and run.find(b"\n", 0, _BLOCK_BYTES + 1) < 0:
            raise ValueError("a line longer than one block")
        cut = run.rfind(b"\n") + 1
        run, carry = run[:cut], run[cut:]
        if run:
            yield run
    if carry:
        yield carry + b"\n"


def _csv_pairs(raw, path, expected: tuple) -> tuple:
    """The (x, y) rows of any file ``csv.reader`` reads; each error names the physical line
    it ends on, which a quoted field holding a newline puts past the record count."""
    import csv  # only a file the block pass does not take reaches here

    pairs = []
    # utf-8-sig: spreadsheet "CSV UTF-8" exports start with a byte-order mark.
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="") as text:
        reader = csv.reader(text)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise CalibrationError(f"{path}: empty file") from None
            if tuple(h.strip() for h in header) != expected:
                raise CalibrationError(
                    f"{path}:1: expected header {','.join(expected)!r}, "
                    f"got {','.join(header)!r}"
                )
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise CalibrationError(
                        f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}"
                    )
                try:
                    pairs.append((float(row[0]), float(row[1])))
                except ValueError:
                    raise CalibrationError(
                        f"{path}:{reader.line_num}: non-numeric value in {row!r}"
                    ) from None
        except csv.Error as exc:  # a field over csv.field_size_limit(); NUL on Python 3.10
            raise CalibrationError(f"{path}:{reader.line_num}: {exc}") from None
    return tuple(pairs)


class FitReport(Record, fields="params residual_norm per_point at_bound notes n_evals",
                defaults=(False, "", 0)):
    """Outcome of a parameter fit."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "params": dict(self.params),
                "per_point": [dict(p) for p in self.per_point]}


def _sum_sq(preds, ys) -> float:
    """Sum of squared residuals."""
    return math.fsum((p - y) * (p - y) for p, y in zip(preds, ys))


def _require_kind(series: MeasurementSeries, kind: SeriesKind, caller: str) -> None:
    if series.kind is not kind:
        raise CalibrationError(f"{caller} needs a {kind.value} series, got {series.kind.value}")


def _report(series: MeasurementSeries, preds, params: dict, at_bound: bool, nfev: int,
            status: int) -> FitReport:
    """The fit's report.  Its notes remark when a parameter ends at a bound of
    its search (``at_bound``) and when the minimiser stopped at its evaluation
    cap (``status`` 1).  A parameter or residual norm that is not finite, as
    extreme data can give, raises CalibrationError: JSON has no such number."""
    residual_norm = math.sqrt(_sum_sq(preds, series.ys()))
    for name, value in (*params.items(), ("residual_norm", residual_norm)):
        if not math.isfinite(value):
            raise CalibrationError(f"fit failed: {name} is {value}, not a finite number")
    notes = "optimizer at bound" if at_bound else ""
    if status == 1:
        notes = "; ".join(filter(None, (notes, "optimizer stopped at its evaluation cap")))
    return FitReport(params, residual_norm,
                     tuple({"x": x, "measured": y, "predicted": p, "error": p - y}
                           for (x, y), p in zip(series.rows, preds)),
                     at_bound, notes, nfev)


def _minimize_bounded(func, bounds: tuple[float, float], xatol: float = 1e-9,
                      maxiter: int = 500) -> tuple[float, float, int, int]:
    """Minimum of a scalar function on a closed interval.

    Brent's golden-section search with parabolic interpolation (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5), in the
    form of scipy's ``minimize_scalar(method="bounded")``: same steps in the
    same floating-point order, so x, f(x) and the evaluation count match it.
    Returns ``(x, f(x), evaluations, status)``; status 0 is converged, 1 the
    ``maxiter`` evaluation cap reached, 2 a NaN met.

    A step calls nothing but func: ``|x|`` is ``x if x > 0.0 else 0.0 - x`` and
    ``max(|rat|, tol1)`` keeps ``|rat|`` unless ``tol1 > |rat|``, which is what
    ``abs`` and ``max`` return for every float, signed zeros and NaN included.
    """
    a, b = bounds
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    third_xatol = xatol / 3.0
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * (xf if xf > 0.0 else 0.0 - xf) + third_xatol
    tol2 = 2.0 * tol1
    status = 0
    while (xf - xm if xf > xm else xm - xf) > (tol2 - 0.5 * (b - a)):
        golden = True
        if (e if e > 0.0 else 0.0 - e) > tol1:
            # Parabola through the three best points.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = 0.0 - q
            r = e
            e = rat
            half_qr = 0.5 * q * r
            if ((p if p > 0.0 else 0.0 - p) < (half_qr if half_qr > 0.0 else 0.0 - half_qr)
                    and q * (a - xf) < p < q * (b - xf)):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = rat if rat > 0.0 else 0.0 - rat
        if tol1 > step:
            step = tol1
        x = xf + step if rat >= 0.0 else xf - step
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * (xf if xf > 0.0 else 0.0 - xf) + third_xatol
        tol2 = 2.0 * tol1
        if num >= maxiter:
            status = 1
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        status = 2
    return xf, fx, num, status


# ---------------------------------------------------------------------------
# Material constant


def fit_c1(
    series: MeasurementSeries,
    geom: ChamberGeometry,
    n_chambers: int = GripperAssembly(ChamberGeometry(), HyperelasticMaterial()).n_chambers,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> FitReport:
    """Fit the material constant c1 (kPa) to an aperture-vs-pressure series.

    P is linear in c1, so a point above rest has its own c1, p/q, with q its pressure
    on the c1 = 1 kPa curve, and a trial c1 reads that curve at p/c1.  Residuals fall as
    c1 grows: x = 1 + ln(c1/lo) is searched between the own c1s, not below c1_reach, the
    softest c1 that reaches the top pressure in the box; with |x| >= 1 the minimiser's
    stop is a relative step in c1 in any unit.  ``tol`` is the theta0 tolerance (rad).
    """
    _require_kind(series, SeriesKind.PRESSURE_APERTURE, "fit_c1")
    xs, ys = series.xs(), series.ys()
    if any(x <= 0 for x in xs):
        raise CalibrationError("fit_c1 needs pressures strictly above 0 kPa")
    # A flat or shrinking aperture trend carries no stiffness information.
    # Least-squares slope, with y measured from ys[0] instead of its mean:
    # the same value, as the x deviations sum to 0, and 0 on a flat series.
    x_bar = math.fsum(xs) / len(xs)
    trend = math.fsum((x - x_bar) * (y - ys[0]) for x, y in zip(xs, ys))
    if trend <= 0:
        slope = trend / math.fsum((x - x_bar) * (x - x_bar) for x in xs)
        raise CalibrationError(
            f"series rejected: aperture does not increase with pressure "
            f"(fitted trend {slope:.3g} mm/kPa)"
        )

    unit = GripperAssembly(geom, HyperelasticMaterial(1.0), n_chambers)
    q_top = reachable_pressure_range(geom, unit.material, box)[1]
    _, rest, top, _ = workspace(unit, q_top, box, tol)
    # A point past the box's reach is read at the top: its own c1 is at most c1_reach.  One
    # at or below rest, or at unit-curve pressure 0, fits only a rigid wall: it is left out.
    qs = [inverse_pressure(unit, min(y, top), q_top, box, tol) if y > rest else 0.0 for y in ys]
    own = [p / q for p, q in zip(xs, qs) if q > 0]
    if not own:
        raise CalibrationError(f"fit_c1 failed: no aperture lies above the rest aperture "
                               f"{rest:.6g} mm (row 1: {ys[0]:.6g} mm)")
    c1_reach = xs[-1] / q_top
    lo = max(min(own), c1_reach)
    a, b = 1.0, 1.0 + math.log(max(max(own), lo) / lo)
    fits = {}  # x -> (c1, predicted apertures)

    def sse(x: float) -> float:
        # A c1 >= c1_reach reaches the top pressure, but for rounding: read it at the top.
        c1 = lo * math.exp(x - 1.0)
        fits[x] = c1, apertures_at_pressures(unit, [min(p / c1, q_top) for p in xs], box, tol)
        return _sum_sq(fits[x][1], ys)

    # The minimiser returns a point it evaluated: its predictions are kept.  Within 0.1%
    # of the span, an end binds where no point gives it: at c1_reach, or past one left out.
    x, _, nfev, status = _minimize_bounded(sse, (a, b))
    at_bound = (lo == c1_reach and x - a <= 1e-3 * (b - a)
                or len(own) < len(xs) and b - x <= 1e-3 * (b - a))
    c1, preds = fits[x]
    return _report(series, preds, {"c1_kPa": c1}, at_bound, nfev, status)


# ---------------------------------------------------------------------------
# Peak extraction


def extract_peak_force(series: MeasurementSeries, smoothing_window: int = 1) -> float:
    """Peak force (N) of a force-displacement trace.

    ``smoothing_window`` > 1 applies a centred moving average before taking
    the maximum (window 1 means no smoothing).  A peak that is not finite,
    as forces near the float limit give once summed, raises CalibrationError.
    """
    _require_kind(series, SeriesKind.FORCE_DISPLACEMENT, "extract_peak_force")
    rows = series.rows
    w = smoothing_window
    try:
        if w < 1:
            raise ValueError(f"smoothing window must be >= 1, got {w}")
        if w > len(rows):
            raise CalibrationError(f"smoothing window {w} exceeds series length {len(rows)}")
        w = index(w)
    except TypeError:
        raise ValueError(f"smoothing window must be an integer, got {w!r}") from None
    force = itemgetter(1)
    if w == 1:
        return max(map(force, rows))
    # Window sums as differences of prefix sums, s[i + w] - s[i]: O(n) for any window.  The
    # tee holds the w sums between its two ends, where a list would hold all n + 1.
    ahead, behind = tee(accumulate(map(force, rows), initial=0.0))
    peak = max(map(sub, islice(ahead, w, None), behind)) / w
    if not math.isfinite(peak):
        raise CalibrationError(f"peak force is {peak}, not a finite number: window sums overflow")
    return peak


# ---------------------------------------------------------------------------
# Suction model parameters


def fit_suction(
    series: MeasurementSeries,
    assembly: GripperAssembly,
    lift_volume_increase_mm3: float = LIFT_VOLUME_INCREASE_MM3,
    ambient_pressure_kPa: float = AMBIENT_KPA,
    box: SolverBox = SolverBox(),
    tol: float = THETA_TOL_RAD,
) -> FitReport:
    """Fit (A_eff mm^2, h_eff mm) of the suction model to measured peaks.

    The aperture radii at the series pressures depend only on the assembly,
    so they are solved once up front (theta0 tolerance ``tol``, rad).  The
    predicted peaks are A_eff times a function of h_eff, so for each h_eff
    the least-squares A_eff is a projection (variable projection, Golub &
    Pereyra 1973).  h_eff enters only through s = V0/(V0 + lift), V0 the rest
    volume, and the model is finite on all of s in [0, 1]: a bounded search
    over s minimizes what remains, in any unit.  ``at_bound`` means s ends
    within 1e-3 of 0 or 1, the data asking for h_eff -> 0 or -> infinity.
    """
    _require_kind(series, SeriesKind.SUCTION_FORCE, "fit_suction")
    xs, ys = series.xs(), series.ys()
    if any(x < 0 for x in xs):
        raise CalibrationError("chamber pressures must be >= 0 kPa")
    check_ambient_pressure(ambient_pressure_kPa)
    check_lift_volume(lift_volume_increase_mm3)
    if len(set(xs)) < 2:
        raise CalibrationError(
            "underdetermined fit: need peaks at >= 2 distinct chamber pressures"
        )
    if lift_volume_increase_mm3 == 0:
        raise CalibrationError("underdetermined fit: with a lift volume increase of 0 mm^3 "
                               "the peaks do not depend on h_eff")

    rg0, *rgs = apertures_at_pressures(assembly, (0.0, *xs), box, tol)

    def predict(a_eff: float, h_eff: float) -> list[float]:
        v0 = sealed_volume(rg0, h_eff)
        volumes = [sealed_volume(rg, h_eff) + lift_volume_increase_mm3 for rg in rgs]
        return [suction_law(ambient_pressure_kPa, a_eff, v0, v) for v in volumes]

    def h_eff(s: float) -> float:
        return lift_volume_increase_mm3 * s / ((1.0 - s) * sealed_volume(rg0, 1.0))

    areas = {}  # s -> projected A_eff

    def sse(s: float) -> float:
        unit = predict(1.0, h_eff(s))
        norm_sq = math.fsum(u * u for u in unit)
        # No force predicted at any pressure leaves A_eff free: 0, rejected below.
        area = areas[s] = math.fsum(u * y for u, y in zip(unit, ys)) / norm_sq if norm_sq else 0.0
        return _sum_sq([area * u for u in unit], ys)

    # The minimiser returns a point it evaluated, strictly inside (0, 1).
    s, _, nfev, status = _minimize_bounded(sse, (0.0, 1.0))
    a_hat, h_hat = areas[s], h_eff(s)
    if a_hat <= 0:
        raise CalibrationError(f"fit_suction failed: projected seal area {a_hat:.6g} mm^2 <= 0")
    return _report(series, predict(a_hat, h_hat), {"A_eff_mm2": a_hat, "h_eff_mm": h_hat},
                   min(s, 1.0 - s) <= 1e-3, nfev, status)
