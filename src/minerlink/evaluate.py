"""Linkage-quality metrics and the data-size / imbalance sweep harness.

Three F1 scores summarize a confusion table: the match-class F1, the
non-match-class F1, and their unweighted mean (macro), which is robust to
the extreme class imbalance typical of record linkage. Zero-denominator
cases are defined as 0. ``confusion_counts`` is the single tally behind
every table: pair-list evaluation, the sweep, and the matcher's
validation-epoch selection all go through it.

The sweep harness retrains the classifier over a grid of training-set
compositions (balanced growth, fixed matches with varying non-matches, or
fixed non-matches with varying matches) and evaluates every grid point
against the full ground-truth pair set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import DataError
from .pairing import LabeledPair, subsample_sweep
from .records import Record

if TYPE_CHECKING:
    from .matcher import FeatureSpec, TrainConfig


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predictions: Sequence[LabeledPair], truth: Sequence[LabeledPair]) -> ConfusionCounts:
    """Confusion counts of predictions against truth over the same key set."""
    predicted = {p.key: p.label for p in predictions}
    actual = {t.key: t.label for t in truth}
    if set(predicted) != set(actual):
        missing_pred = sorted(k for k in actual if k not in predicted)
        missing_truth = sorted(k for k in predicted if k not in actual)
        raise DataError(
            "prediction/truth key sets differ; "
            f"missing from predictions: {[(k.uri_1, k.uri_2) for k in missing_pred[:5]]}, "
            f"missing from truth: {[(k.uri_1, k.uri_2) for k in missing_truth[:5]]}"
        )
    keys = list(predicted)
    return confusion_counts([actual[k] for k in keys], [predicted[k] for k in keys])


def confusion_counts(y_true: ArrayLike, y_pred: ArrayLike) -> ConfusionCounts:
    """Tally 0/1 truth against 0/1 or boolean predictions, position by position."""
    truth = np.asarray(y_true, dtype=bool)
    pred = np.asarray(y_pred, dtype=bool)
    if truth.shape != pred.shape:
        raise DataError(f"truth and predictions differ in shape: {truth.shape} vs {pred.shape}")
    # Python ints, not numpy scalars: the counts go to json.dumps
    tp = int(np.count_nonzero(truth & pred))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=truth.size - tp - fp - fn, fn=fn)


def match_f1(c: ConfusionCounts) -> float:
    denominator = 2 * c.tp + c.fp + c.fn
    return 2 * c.tp / denominator if denominator else 0.0


def nonmatch_f1(c: ConfusionCounts) -> float:
    denominator = 2 * c.tn + c.fp + c.fn
    return 2 * c.tn / denominator if denominator else 0.0


def macro_f1(c: ConfusionCounts) -> float:
    match_den = 2 * c.tp + c.fp + c.fn
    nonmatch_den = 2 * c.tn + c.fp + c.fn
    match_term = c.tp / match_den if match_den else 0.0
    nonmatch_term = c.tn / nonmatch_den if nonmatch_den else 0.0
    return match_term + nonmatch_term


@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    match_f1: float
    nonmatch_f1: float
    macro_f1: float

    @classmethod
    def from_counts(cls, c: ConfusionCounts) -> "EvalReport":
        return cls(counts=c, match_f1=match_f1(c), nonmatch_f1=nonmatch_f1(c), macro_f1=macro_f1(c))

    def percent_row(self) -> str:
        """Results-table style line: match / non-match / macro, in percent."""
        return " / ".join(
            percent(v) for v in (self.match_f1, self.nonmatch_f1, self.macro_f1)
        )


def percent(ratio: float) -> str:
    """Format a ratio as a percentage rounded half-up to 2 decimals."""
    return str(Decimal(ratio * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def evaluate_pairs(predictions: Sequence[LabeledPair], truth: Sequence[LabeledPair]) -> EvalReport:
    return EvalReport.from_counts(confusion(predictions, truth))


# ---------------------------------------------------------------------------
# Imbalance sweeps
# ---------------------------------------------------------------------------


class SweepMode(Enum):
    BALANCED_GROWTH = "balanced_growth"
    FIXED_MATCH_VARY_NONMATCH = "fixed_match_vary_nonmatch"
    FIXED_NONMATCH_VARY_MATCH = "fixed_nonmatch_vary_match"


@dataclass(frozen=True)
class SweepConfig:
    """One sweep experiment: a mode plus its grid.

    Grid semantics by mode: per-class size (balanced growth), non-match to
    match ratio (fixed match), or match count (fixed non-match). The fixed
    anchors default to the reference experiment sizes: 349 matches and
    59,403 non-matches.
    """

    mode: SweepMode
    grid: tuple[float, ...]
    seed: int = 0
    hyper: TrainConfig | None = None
    fixed_match: int = 349
    fixed_nonmatch: int = 59403

    def __post_init__(self):
        if not self.grid:
            raise DataError("sweep grid must be non-empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise DataError(f"sweep grid must be strictly increasing: {self.grid}")

    def class_counts(self, grid_value: float) -> tuple[int, int]:
        """(match_count, nonmatch_count) requested at one grid point."""
        if self.mode is SweepMode.BALANCED_GROWTH:
            return int(grid_value), int(grid_value)
        if self.mode is SweepMode.FIXED_MATCH_VARY_NONMATCH:
            return self.fixed_match, round(self.fixed_match * grid_value)
        return int(grid_value), self.fixed_nonmatch


@dataclass(frozen=True)
class SweepRow:
    mode: SweepMode
    grid_value: float
    match_count: int
    nonmatch_count: int
    report: EvalReport
    seed: int


def run_sweep(
    cfg: SweepConfig,
    labeled_pool: Sequence[LabeledPair],
    truth: Sequence[LabeledPair],
    records: Mapping[str, Record] | Sequence[Record],
    feature_spec: FeatureSpec | None = None,
    out_path: str | Path | None = None,
) -> list[SweepRow]:
    """Subsample, train, and evaluate at every grid point.

    Pool sufficiency is checked for the whole grid before any training.
    Features for the pooled and truth pairs are extracted once and reused
    across grid points, so each point costs one classifier fit. Grid point i
    subsamples with seed cfg.seed + i; training uses cfg.hyper.seed.
    """
    from .matcher import FeatureSpec, TrainConfig, featurize_pairs, fit_on_matrix
    from .records import record_index

    hyper = cfg.hyper or TrainConfig()
    spec = feature_spec or FeatureSpec()
    index = records if isinstance(records, Mapping) else record_index(records)

    requested = [cfg.class_counts(g) for g in cfg.grid]
    available_match = sum(p.label == 1 for p in labeled_pool)
    available_nonmatch = sum(p.label == 0 for p in labeled_pool)
    for (m, nm), g in zip(requested, cfg.grid):
        if m > available_match:
            raise DataError(
                f"grid point {g}: insufficient match pairs ({m} requested, {available_match} available)"
            )
        if nm > available_nonmatch:
            raise DataError(
                f"grid point {g}: insufficient non-match pairs ({nm} requested, {available_nonmatch} available)"
            )

    pool_keys = [p.key for p in labeled_pool]
    pool_features = featurize_pairs(pool_keys, index, spec)
    row_of = {key: i for i, key in enumerate(pool_keys)}
    truth_features = featurize_pairs([t.key for t in truth], index, spec)
    truth_y = np.array([t.label for t in truth])

    rows: list[SweepRow] = []
    for i, (grid_value, (m, nm)) in enumerate(zip(cfg.grid, requested)):
        subset = subsample_sweep(labeled_pool, m, nm, seed=cfg.seed + i)
        subset_rows = [row_of[p.key] for p in subset]
        model = fit_on_matrix(
            pool_features[subset_rows],
            np.array([p.label for p in subset], dtype=float),
            hyper,
            feature_spec=spec,
        )
        probabilities = model.probabilities(truth_features)
        report = EvalReport.from_counts(confusion_counts(truth_y, probabilities > model.decision_threshold))
        rows.append(
            SweepRow(
                mode=cfg.mode,
                grid_value=grid_value,
                match_count=m,
                nonmatch_count=nm,
                report=report,
                seed=cfg.seed + i,
            )
        )

    if out_path is not None:
        write_sweep_rows(rows, out_path)
    return rows


SWEEP_HEADER = ("mode", "grid_value", "match_count", "nonmatch_count", "match_f1", "nonmatch_f1", "macro_f1", "seed")


def write_sweep_rows(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Delimited results table for plotting the sweep curves."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.mode.value,
                    row.grid_value,
                    row.match_count,
                    row.nonmatch_count,
                    repr(row.report.match_f1),
                    repr(row.report.nonmatch_f1),
                    repr(row.report.macro_f1),
                    row.seed,
                ]
            )
