"""Load curve aggregation and comparison statistics.

A LoadCurve is a day profile: mean demand in watts per time-of-day bucket,
averaged over every simulated day.  The canonical exchange format is a
half hour curve (48 buckets) written as CSV with header
"bucket_start_min,mean_watts", values to three decimals, LF line endings.
Every refused curve or statistic raises BadCurve or a subclass of it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .domain import DEFAULT_BUCKET_MINUTES, MINUTES_PER_DAY, TimeOfDay
from .engine import SimOutput

CSV_HEADER = ("bucket_start_min", "mean_watts")


class BadCurve(ValueError):
    """A curve, or a statistic asked of curves, that the metrics refuse."""


class BadBucketError(BadCurve):
    """Bucket width incompatible with the day length or tick size."""


class LengthMismatchError(BadCurve):
    """Curves of different bucketing cannot be compared."""


class DegenerateCurveError(BadCurve):
    """A constant curve has no defined correlation."""


class ZeroBaseError(BadCurve):
    """Relative reduction against a zero baseline is undefined."""


@dataclass(frozen=True)
class LoadCurve:
    bucket_minutes: int
    values: tuple[float, ...]  # mean watts per bucket, non-negative

    def __post_init__(self) -> None:
        if self.bucket_minutes <= 0 or MINUTES_PER_DAY % self.bucket_minutes != 0:
            raise BadBucketError(
                f"bucket_minutes must divide {MINUTES_PER_DAY}, got {self.bucket_minutes}"
            )
        expected = MINUTES_PER_DAY // self.bucket_minutes
        if len(self.values) != expected:
            raise BadBucketError(
                f"expected {expected} buckets of {self.bucket_minutes} min, got {len(self.values)}"
            )
        if any(v < 0 or not math.isfinite(v) for v in self.values):
            raise BadCurve("curve values must be finite and non-negative")


def aggregate_load(output: SimOutput, bucket_minutes: int = DEFAULT_BUCKET_MINUTES) -> LoadCurve:
    """Fold a run's tick series into a time-of-day curve.

    Bucket means average every tick sample that falls in the bucket across
    all days, which preserves daily energy.  The bucket width must be a
    multiple of the tick size and divide the day.
    """
    tick_minutes = output.scenario.config.tick_minutes
    if (
        bucket_minutes <= 0
        or bucket_minutes % tick_minutes != 0
        or MINUTES_PER_DAY % bucket_minutes != 0
    ):
        raise BadBucketError(
            f"bucket of {bucket_minutes} min incompatible with {tick_minutes} min ticks"
        )
    ticks_per_day = MINUTES_PER_DAY // tick_minutes
    ticks_per_bucket = bucket_minutes // tick_minutes
    buckets = MINUTES_PER_DAY // bucket_minutes
    samples = np.asarray(output.load_series, dtype=np.float64)
    days = samples.size // ticks_per_day
    shaped = samples.reshape(days, buckets, ticks_per_bucket)
    means = shaped.mean(axis=(0, 2))
    return LoadCurve(bucket_minutes=bucket_minutes, values=tuple(float(v) for v in means))


def pearson_correlation(a: LoadCurve, b: LoadCurve) -> float:
    """Pearson correlation between two equally bucketed curves."""
    if a.bucket_minutes != b.bucket_minutes or len(a.values) != len(b.values):
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
    best = 0
    for i, v in enumerate(curve.values):
        if v > curve.values[best]:
            best = i
    return TimeOfDay(best * curve.bucket_minutes), curve.values[best]


def _window_slice(curve: LoadCurve, window: tuple[TimeOfDay, TimeOfDay]) -> list[float]:
    start, end = window[0].minutes, window[1].minutes
    picked = [
        v for i, v in enumerate(curve.values)
        if start <= i * curve.bucket_minutes < end
    ]
    if not picked:
        raise BadCurve(f"window {window[0]}-{window[1]} covers no bucket")
    return picked


def window_mean(curve: LoadCurve, window: tuple[TimeOfDay, TimeOfDay]) -> float:
    """Mean demand over the buckets whose start lies inside the window."""
    picked = _window_slice(curve, window)
    return sum(picked) / len(picked)


def peak_reduction(
    base: LoadCurve, treated: LoadCurve, window: tuple[TimeOfDay, TimeOfDay],
) -> float:
    """Relative demand drop in a window: 1 - treated mean / base mean."""
    if base.bucket_minutes != treated.bucket_minutes or len(base.values) != len(treated.values):
        raise LengthMismatchError("curves differ in bucketing")
    base_mean = window_mean(base, window)
    treated_mean = window_mean(treated, window)
    if base_mean == 0.0:
        raise ZeroBaseError("base demand in the window is zero")
    return 1.0 - treated_mean / base_mean


def write_load_curve(curve: LoadCurve, path: str) -> None:
    """Write the canonical CSV form (three decimals, LF endings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    if MINUTES_PER_DAY % len(values) != 0:
        raise BadCurve(f"{path}: {len(values)} rows do not divide a day evenly")
    bucket_minutes = MINUTES_PER_DAY // len(values)
    expected_starts = [i * bucket_minutes for i in range(len(values))]
    if starts != expected_starts:
        raise BadCurve(f"{path}: bucket_start_min column is not a uniform day grid")
    try:
        return LoadCurve(bucket_minutes=bucket_minutes, values=tuple(values))
    except BadCurve as exc:
        raise BadCurve(f"{path}: {exc}") from exc
