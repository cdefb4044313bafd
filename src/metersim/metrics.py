"""Load curve aggregation and comparison statistics.

A LoadCurve is a day profile: mean demand in watts per time-of-day bucket,
averaged over every simulated day.  A curve is its values, which cut the
day into equal buckets of bucket_minutes.  aggregate_load(output) gives a
run's curve on the half hour grid of domain.BUCKET_MINUTES; the rest take
any bucketing that divides the day.  The exchange format is CSV with header
"bucket_start_min,mean_watts", values to three decimals, LF line endings.
Every refused curve or statistic raises BadCurve or a subclass of it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .domain import BUCKET_MINUTES, MINUTES_PER_DAY, PROFILE_BUCKETS, TimeOfDay
from .engine import SimOutput

CSV_HEADER = ("bucket_start_min", "mean_watts")


class BadCurve(ValueError):
    """A curve, or a statistic asked of curves, that the metrics refuse."""


class BadBucketError(BadCurve):
    """A bucket count that does not cut the day, or a tick that does not divide the bucket."""


class LengthMismatchError(BadCurve):
    """Curves of different bucketing cannot be compared."""


class DegenerateCurveError(BadCurve):
    """A constant curve has no defined correlation."""


class ZeroBaseError(BadCurve):
    """Relative reduction against a zero baseline is undefined."""


@dataclass(frozen=True)
class LoadCurve:
    """Mean watts per bucket, for a day cut into len(values) equal buckets."""

    values: tuple[float, ...]  # non-negative

    def __post_init__(self) -> None:
        if not self.values or MINUTES_PER_DAY % len(self.values) != 0:
            raise BadBucketError(f"{len(self.values)} buckets do not cut a day evenly")
        if any(v < 0 or not math.isfinite(v) for v in self.values):
            raise BadCurve("curve values must be finite and non-negative")

    @property
    def bucket_minutes(self) -> int:
        return MINUTES_PER_DAY // len(self.values)


def aggregate_load(output: SimOutput) -> LoadCurve:
    """Fold a run's tick series into its half hour time-of-day curve.

    Bucket means average every tick sample that falls in the bucket across
    all days, which preserves daily energy.  Each mean is exactly rounded:
    the samples are summed exactly and divided once.  The tick must divide
    BUCKET_MINUTES and be positive, as validation holds a scenario to.
    """
    tick_minutes = output.scenario.config.tick_minutes
    if tick_minutes <= 0 or BUCKET_MINUTES % tick_minutes != 0:
        raise BadBucketError(
            f"{tick_minutes} min ticks do not divide the {BUCKET_MINUTES} min bucket"
        )
    samples = np.asarray(output.load_series, dtype=np.float64)
    by_bucket = samples.reshape(-1, PROFILE_BUCKETS, BUCKET_MINUTES // tick_minutes)
    rows = by_bucket.transpose(1, 0, 2).reshape(PROFILE_BUCKETS, -1).tolist()
    return LoadCurve(tuple(_exact_mean(row) for row in rows))


def _exact_mean(values: list[float]) -> float:
    """The mean of finite floats, rounded once: each is an integer over a
    power of two, so the sum is exact over the largest denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    denominator = max(q for _, q in ratios)
    return sum(p * (denominator // q) for p, q in ratios) / (denominator * len(values))


def pearson_correlation(a: LoadCurve, b: LoadCurve) -> float:
    """Pearson correlation between two equally bucketed curves."""
    if len(a.values) != len(b.values):
        raise LengthMismatchError(
            f"curves differ in shape: {len(a.values)}x{a.bucket_minutes}min vs "
            f"{len(b.values)}x{b.bucket_minutes}min"
        )
    xs = np.asarray(a.values)
    ys = np.asarray(b.values)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(np.sqrt(np.dot(dx, dx)))
    sy = float(np.sqrt(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateCurveError("correlation undefined for a constant curve")
    return float(np.dot(dx, dy)) / (sx * sy)


def peak_stats(curve: LoadCurve) -> tuple[TimeOfDay, float]:
    """Start time and value of the highest bucket; ties go to the earliest."""
    best = curve.values.index(max(curve.values))
    return TimeOfDay(best * curve.bucket_minutes), curve.values[best]


def window_buckets(bucket_minutes: int, window: tuple[TimeOfDay, TimeOfDay]) -> slice:
    """The buckets bucket_minutes wide whose start lies in the window's
    [start, end), as a slice of a curve's values.  Raises BadCurve when
    the window holds no bucket start."""
    first, stop = (-(-t.minutes // bucket_minutes) for t in window)  # rounded up
    if first >= stop:
        raise BadCurve(f"window {window[0]}-{window[1]} covers no bucket")
    return slice(first, stop)


def window_mean(curve: LoadCurve, window: tuple[TimeOfDay, TimeOfDay]) -> float:
    """Mean demand over the buckets whose start lies inside the window."""
    picked = curve.values[window_buckets(curve.bucket_minutes, window)]
    return sum(picked) / len(picked)


def peak_reduction(
    base: LoadCurve, treated: LoadCurve, window: tuple[TimeOfDay, TimeOfDay],
) -> float:
    """Relative demand drop in a window: 1 - treated mean / base mean."""
    if len(base.values) != len(treated.values):
        raise LengthMismatchError("curves differ in bucketing")
    base_mean = window_mean(base, window)
    treated_mean = window_mean(treated, window)
    if base_mean == 0.0:
        raise ZeroBaseError("base demand in the window is zero")
    return 1.0 - treated_mean / base_mean


def write_load_curve(curve: LoadCurve, fh: TextIO) -> None:
    """Write the canonical CSV form (three decimals, LF endings) to fh, a
    text stream opened with newline=""."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i, v in enumerate(curve.values):
        writer.writerow((i * curve.bucket_minutes, f"{v:.3f}"))


def read_load_curve(path: str) -> LoadCurve:
    """Read a curve CSV as written by write_load_curve.

    Accepts any bucket count that divides the day evenly.  Malformed
    content raises BadCurve with a message that starts with the path and,
    where one line is at fault, its number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # such as a field past csv's size limit
            raise BadCurve(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise BadCurve(f"{path}: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise BadCurve(f"{path}: expected header {','.join(CSV_HEADER)}")
    starts: list[int] = []
    values: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise BadCurve(f"{path}:{lineno}: expected 2 columns")
        try:
            starts.append(int(row[0]))
            values.append(float(row[1]))
        except ValueError as exc:
            raise BadCurve(f"{path}:{lineno}: {exc}") from exc
    if not values:
        raise BadCurve(f"{path}: no data rows")
    try:
        curve = LoadCurve(tuple(values))
    except BadCurve as exc:
        raise BadCurve(f"{path}: {exc}") from exc
    if starts != [i * curve.bucket_minutes for i in range(len(values))]:
        raise BadCurve(f"{path}: bucket_start_min column is not a uniform day grid")
    return curve
