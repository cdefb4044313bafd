import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metersim.domain import TimeOfDay
from metersim.metrics import (
    CSV_HEADER,
    BadBucketError,
    BadCurve,
    DegenerateCurveError,
    LengthMismatchError,
    LoadCurve,
    ZeroBaseError,
    aggregate_load,
    peak_reduction,
    peak_stats,
    pearson_correlation,
    read_load_curve,
    window_buckets,
    window_mean,
    write_load_curve,
)


def fake_output(series, tick_minutes):
    """Just enough of a run result for aggregation."""
    cfg = SimpleNamespace(tick_minutes=tick_minutes)
    return SimpleNamespace(
        load_series=np.asarray(series, dtype=np.float64),
        scenario=SimpleNamespace(config=cfg),
    )


TICKS_DIVIDING_THE_BUCKET = [1, 2, 3, 5, 6, 10, 15, 30]
BUCKET_COUNTS = [n for n in range(1, 1441) if 1440 % n == 0]  # those that cut the day evenly


def curve48(values):
    return LoadCurve(tuple(float(v) for v in values))


def test_aggregate_means_across_days():
    series = [100.0] * 48 + [300.0] * 48
    curve = aggregate_load(fake_output(series, 30))
    assert curve.bucket_minutes == 30
    assert curve.values == tuple([200.0] * 48)


def test_aggregate_means_within_bucket():
    # three 10 min ticks per half hour bucket
    series = [0.0, 300.0, 600.0] * 48
    curve = aggregate_load(fake_output(series, 10))
    assert curve.values == tuple([300.0] * 48)


def test_aggregate_preserves_energy():
    rng = np.random.default_rng(4)
    days = 3
    for tick in TICKS_DIVIDING_THE_BUCKET:
        series = rng.uniform(0.0, 2000.0, size=days * (1440 // tick))
        total_energy = float(series.sum()) * tick  # watt minutes over the run
        curve = aggregate_load(fake_output(series, tick))
        curve_energy = sum(curve.values) * 30 * days
        assert curve_energy == pytest.approx(total_energy, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    tick=st.sampled_from(TICKS_DIVIDING_THE_BUCKET),
    copies=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_copies_of_one_day_give_that_days_curve(tick, copies, seed):
    """Bucket means are exactly rounded, so repeating a day of fractional
    samples leaves its curve as it is."""
    day = np.round(np.random.default_rng(seed).uniform(0.0, 5000.0, 1440 // tick), 3)
    curve = aggregate_load(fake_output(day, tick))
    by_bucket = day.reshape(48, -1).tolist()
    assert curve.values == tuple(float(sum(map(Fraction, b)) / len(b)) for b in by_bucket)
    assert aggregate_load(fake_output(np.tile(day, copies), tick)) == curve


@pytest.mark.parametrize("tick", [20, 45, 7, 0, -30])
def test_aggregate_rejects_a_tick_that_does_not_divide_the_bucket(tick):
    series = [0.0] * (1440 // tick if tick > 0 else 48)
    with pytest.raises(BadBucketError, match=f"^{tick} min ticks do not divide the 30 min bucket$"):
        aggregate_load(fake_output(series, tick))


def test_curve_validation():
    with pytest.raises(BadBucketError, match="^47 buckets do not cut a day evenly$"):
        LoadCurve(tuple([0.0] * 47))
    with pytest.raises(BadBucketError, match="^0 buckets do not cut a day evenly$"):
        LoadCurve(())
    with pytest.raises(ValueError):
        LoadCurve((1.0, -2.0))
    with pytest.raises(ValueError):
        LoadCurve((1.0, float("nan")))


def test_pearson_known_values():
    a = LoadCurve((1.0, 2.0, 3.0, 4.0))
    assert pearson_correlation(a, LoadCurve((2.0, 4.0, 6.0, 8.0))) == pytest.approx(1.0)
    assert pearson_correlation(a, LoadCurve((8.0, 6.0, 4.0, 2.0))) == pytest.approx(-1.0)
    # by hand: dx=(-2,-1,0,3), dy=(-0.75,-1.75,0.25,2.25),
    # dot=10, |dx|^2=14, |dy|^2=8.75
    b = LoadCurve((1.0, 0.0, 2.0, 4.0))
    x = LoadCurve((0.0, 1.0, 2.0, 5.0))
    assert pearson_correlation(x, b) == pytest.approx(10.0 / math.sqrt(14.0 * 8.75), abs=1e-12)


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(11)
    a = curve48(rng.uniform(10.0, 500.0, 48))
    b = curve48(rng.uniform(10.0, 500.0, 48))
    r = pearson_correlation(a, b)
    assert pearson_correlation(b, a) == pytest.approx(r, abs=1e-12)
    shifted = curve48([3.0 * v + 40.0 for v in b.values])
    assert pearson_correlation(a, shifted) == pytest.approx(r, abs=1e-12)


def test_pearson_errors():
    a = curve48([1.0] * 47 + [2.0])
    with pytest.raises(LengthMismatchError, match="^curves differ in shape: 48x30min vs 24x60min$"):
        pearson_correlation(a, LoadCurve(tuple([1.0] * 24)))
    with pytest.raises(DegenerateCurveError):
        pearson_correlation(a, curve48([7.0] * 48))


def test_peak_stats_and_tie_break():
    values = [100.0] * 48
    values[35] = 900.0
    when, watts = peak_stats(curve48(values))
    assert str(when) == "17:30" and watts == 900.0

    tied = [0.0] * 48
    tied[10] = 5.0
    tied[20] = 5.0
    when, watts = peak_stats(curve48(tied))
    assert when.minutes == 300 and watts == 5.0


def test_window_mean():
    values = [0.0] * 48
    for i in range(34, 40):  # 17:00 through 19:30 starts
        values[i] = 600.0
    values[40] = 999.0  # 20:00 bucket is outside a 17:00-20:00 window
    window = (TimeOfDay.parse("17:00"), TimeOfDay.parse("20:00"))
    assert window_mean(curve48(values), window) == pytest.approx(600.0)
    with pytest.raises(ValueError):
        window_mean(curve48(values), (TimeOfDay.parse("17:00"), TimeOfDay.parse("17:00")))


@settings(max_examples=300, deadline=None)
@given(buckets=st.sampled_from(BUCKET_COUNTS), start=st.integers(0, 1439), end=st.integers(0, 1439))
def test_window_buckets_are_those_whose_start_lies_in_the_window(buckets, start, end):
    width = 1440 // buckets
    window = (TimeOfDay(start), TimeOfDay(end))
    inside = [i for i in range(buckets) if start <= i * width < end]
    if inside:
        assert list(range(buckets))[window_buckets(width, window)] == inside
    else:
        with pytest.raises(BadCurve, match=f"^window {window[0]}-{window[1]} covers no bucket$"):
            window_buckets(width, window)


def test_peak_reduction_examples():
    window = (TimeOfDay.parse("17:00"), TimeOfDay.parse("20:00"))
    base = curve48([500.0] * 48)
    assert peak_reduction(base, base, window) == pytest.approx(0.0)
    treated = curve48([400.0] * 48)
    assert peak_reduction(base, treated, window) == pytest.approx(0.2)
    # common rescaling cancels out
    base2 = curve48([v * 3.5 for v in base.values])
    treated2 = curve48([v * 3.5 for v in treated.values])
    assert peak_reduction(base2, treated2, window) == pytest.approx(0.2)


def test_peak_reduction_errors():
    window = (TimeOfDay.parse("17:00"), TimeOfDay.parse("20:00"))
    zero = curve48([0.0] * 48)
    with pytest.raises(ZeroBaseError):
        peak_reduction(zero, curve48([1.0] * 48), window)
    with pytest.raises(LengthMismatchError):
        peak_reduction(curve48([1.0] * 48), LoadCurve(tuple([1.0] * 24)), window)


def test_csv_write_format(tmp_path):
    values = [0.0] * 48
    values[0] = 123.4567
    values[1] = 0.0004
    path = tmp_path / "curve.csv"
    write_load_curve(curve48(values), str(path))
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "0,123.457"
    assert lines[2] == "30,0.000"
    assert lines[48] == "1410,0.000"
    assert lines[49] == ""
    assert len(lines) == 50


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    curve = curve48(np.round(rng.uniform(0.0, 3000.0, 48), 3))
    path = tmp_path / "c.csv"
    write_load_curve(curve, str(path))
    back = read_load_curve(str(path))
    assert back == curve

    fine = LoadCurve(tuple(float(i) for i in range(144)))
    write_load_curve(fine, str(path))
    assert read_load_curve(str(path)).bucket_minutes == 10


@settings(max_examples=60, deadline=None)
@given(
    buckets=st.sampled_from(BUCKET_COUNTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_round_trip_for_every_bucketing_of_the_day(tmp_path_factory, buckets, seed):
    """A curve written and read back is the same curve, for any bucket count
    that divides the day; values already at three decimals survive exactly."""
    millis = np.random.default_rng(seed).integers(0, 10**9, buckets).tolist()
    curve = LoadCurve(tuple(m / 1000 for m in millis))
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    write_load_curve(curve, str(path))
    back = read_load_curve(str(path))
    assert back == curve
    assert back.bucket_minutes == 1440 // buckets


@pytest.mark.parametrize("text", [
    "",
    "watts,bucket\n0,1.0\n",
    "bucket_start_min,mean_watts\n",
    "bucket_start_min,mean_watts\n0,1.0\n15,1.0\n",          # 2 rows, starts not 0/720
    "bucket_start_min,mean_watts\n0,1.0\n720,oops\n",
    "bucket_start_min,mean_watts\n0,1.0,9\n720,1.0\n",
    "bucket_start_min,mean_watts\n" + "".join(
        f"{i * 30},1.0\n" for i in range(47)),                # 47 rows
])
def test_csv_read_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        read_load_curve(str(path))


@pytest.mark.parametrize("rows, message", [
    ("", "no data rows"),
    ("".join(f"{i * 200},1.0\n" for i in range(7)), "7 rows do not divide a day evenly"),
    ("0,1.0\n15,1.0\n", "bucket_start_min column is not a uniform day grid"),
    ("0,1.0\n720,-2.0\n", "curve values must be finite and non-negative"),
    ("0,nan\n720,1.0\n", "curve values must be finite and non-negative"),
    ("0,1.0\n720,inf\n", "curve values must be finite and non-negative"),
], ids=["no-rows", "7-rows", "non-uniform-starts", "negative", "nan", "infinite"])
def test_csv_read_refusal_messages(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("bucket_start_min,mean_watts\n" + rows, encoding="utf-8")
    with pytest.raises(BadCurve) as excinfo:
        read_load_curve(str(path))
    assert type(excinfo.value) is BadCurve
    assert str(excinfo.value) == f"{path}: {message}"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=48, max_size=48))
def test_csv_round_trip_tolerance(tmp_path_factory, values):
    curve = curve48(values)
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    write_load_curve(curve, str(path))
    back = read_load_curve(str(path))
    for orig, rt in zip(curve.values, back.values):
        assert abs(orig - rt) <= 5e-4
