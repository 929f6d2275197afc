"""Quadratic inference-time law: time = k * (n^2 - n).

Pairwise linkage over n records costs n(n-1)/2 comparisons, so wall-clock
time grows with n^2 - n. Fitting the single coefficient k to measured runs
lets us extrapolate to database scale (hundreds of thousands of records)
without running anything that long.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

from .errors import DataError
from .records import Record

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class Measurement:
    record_count: int
    elapsed: float  # seconds

    def __post_init__(self):
        if self.record_count < 2:
            raise DataError(f"a measurement needs >= 2 records, got {self.record_count}")
        if self.elapsed < 0:
            raise DataError(f"elapsed time must be non-negative: {self.elapsed}")


@dataclass(frozen=True)
class RuntimeModel:
    k: float  # seconds per (n^2 - n)
    fit_residual: float  # RMS seconds over the fitted measurements
    n_points: int

    def __post_init__(self):
        if self.k < 0:
            raise DataError(f"coefficient k must be non-negative: {self.k}")
        if self.n_points < 1:
            raise DataError("a runtime model needs at least one measurement")


def _pair_load(n: int) -> float:
    return float(n) * n - n


def fit(measurements: Sequence[Measurement]) -> RuntimeModel:
    """Least-squares fit of k in elapsed ~ k * (n^2 - n).

    Single-parameter closed form: k = sum(elapsed * load) / sum(load^2)
    with load = n^2 - n.
    """
    if not measurements:
        raise DataError("no measurements to fit")
    num = sum(m.elapsed * _pair_load(m.record_count) for m in measurements)
    den = sum(_pair_load(m.record_count) ** 2 for m in measurements)
    if den == 0:
        raise DataError("no signal: all measurements have n < 2")
    k = max(0.0, num / den)
    residual = math.sqrt(
        sum((m.elapsed - k * _pair_load(m.record_count)) ** 2 for m in measurements)
        / len(measurements)
    )
    return RuntimeModel(k=k, fit_residual=residual, n_points=len(measurements))


def predict_seconds(model: RuntimeModel | float, n: int) -> float:
    """Extrapolated wall-clock seconds to compare n records pairwise."""
    if n < 0:
        raise DataError(f"record count must be non-negative: {n}")
    k = model.k if isinstance(model, RuntimeModel) else float(model)
    return k * _pair_load(n)


def predict_days(model: RuntimeModel | float, n: int) -> float:
    return predict_seconds(model, n) / SECONDS_PER_DAY


def benchmark(
    score_pairs: Callable[[list[tuple[Record, Record]]], object],
    sizes: Sequence[int],
    records: Sequence[Record],
) -> list[Measurement]:
    """Time one ``score_pairs`` call on the full pair list at each record count.

    The pair list is built before the timer starts. Each size runs the whole
    list once untimed (warm-up, excluded from the measurement) and once timed.
    """
    if sizes and max(sizes) > len(records):
        raise DataError(f"record pool has {len(records)} records, need {max(sizes)}")
    measurements = []
    for size in sizes:
        pairs = list(combinations(records[:size], 2))
        score_pairs(pairs)  # warm-up
        start = time.perf_counter()
        score_pairs(pairs)
        measurements.append(Measurement(record_count=size, elapsed=time.perf_counter() - start))
    return measurements


MEASUREMENT_HEADER = ("record_count", "elapsed_seconds")


def write_measurements(measurements: Sequence[Measurement], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEASUREMENT_HEADER)
        for m in measurements:
            writer.writerow([m.record_count, repr(m.elapsed)])


def read_measurements(path: str | Path) -> list[Measurement]:
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != MEASUREMENT_HEADER:
            raise DataError(f"{path}: expected header {MEASUREMENT_HEADER}, got {header}")
        return [
            Measurement(record_count=int(row[0]), elapsed=float(row[1]))
            for row in reader
            if row
        ]
