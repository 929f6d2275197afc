from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minerlink.errors import DataError
from minerlink.evaluate import (
    ConfusionCounts,
    EvalReport,
    SweepConfig,
    SweepMode,
    confusion,
    confusion_counts,
    evaluate_pairs,
    macro_f1,
    match_f1,
    nonmatch_f1,
    percent,
    run_sweep,
    write_sweep_rows,
)
from minerlink.matcher import TrainConfig, featurize_pairs, fit_on_matrix
from minerlink.pairing import LabeledPair, PairKey, Provenance, subsample_sweep

from synth import separable_corpus

TUNGSTEN = ConfusionCounts(tp=18, fp=51, tn=74_617, fn=5)
NICKEL = ConfusionCounts(tp=11, fp=2, tn=256, fn=7)


def confusion_fixture(tp, fp, tn, fn):
    """Prediction/truth pair lists realizing exact confusion counts."""
    predictions, truth = [], []
    i = 0
    for (p_label, t_label), count in (((1, 1), tp), ((1, 0), fp), ((0, 0), tn), ((0, 1), fn)):
        for _ in range(count):
            key = PairKey(f"p:{i:07d}", f"q:{i:07d}")
            predictions.append(LabeledPair(key, p_label, Provenance.PREDICTED))
            truth.append(LabeledPair(key, t_label, Provenance.GROUND_TRUTH))
            i += 1
    return predictions, truth


class TestConfusion:
    def test_tungsten_validation_counts(self):
        predictions, truth = confusion_fixture(18, 51, 74_617, 5)
        assert confusion(predictions, truth) == TUNGSTEN

    def test_nickel_validation_counts(self):
        predictions, truth = confusion_fixture(11, 2, 256, 7)
        assert confusion(predictions, truth) == NICKEL

    def test_perfect_predictions(self):
        predictions, truth = confusion_fixture(4, 0, 9, 0)
        c = confusion(predictions, predictions)
        assert c.fp == 0 and c.fn == 0

    def test_key_mismatch_lists_keys(self):
        predictions, truth = confusion_fixture(1, 0, 2, 0)
        with pytest.raises(DataError, match="missing from predictions"):
            confusion(predictions[:-1], truth)
        with pytest.raises(DataError, match="missing from truth"):
            confusion(predictions, truth[:-1])
        # two or more missing keys are listed in (uri_1, uri_2) order
        with pytest.raises(DataError, match=r"missing from predictions: \[\('p:0000001', 'q:0000001'\), \('p:0000002'"):
            confusion(predictions[:1], truth)
        with pytest.raises(DataError, match=r"missing from truth: \[\('p:0000000', 'q:0000000'\), \('p:0000001'"):
            confusion(predictions, truth[2:])
        with pytest.raises(DataError, match="differ in shape"):
            confusion_counts([1, 0], [1])

    def test_totals_conserved(self):
        predictions, truth = confusion_fixture(3, 4, 5, 6)
        assert confusion(predictions, truth).total == 18

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_confusion_counts_match_loop_reference(self, rows):
        y_true = [t for t, _ in rows]
        y_pred = [p for _, p in rows]
        tp = fp = tn = fn = 0
        for t, p in rows:
            if p == 1 and t == 1:
                tp += 1
            elif p == 1:
                fp += 1
            elif t == 0:
                tn += 1
            else:
                fn += 1
        c = confusion_counts(np.array(y_true), np.array(y_pred) > 0)
        assert c == ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        assert all(type(v) is int for v in (c.tp, c.fp, c.tn, c.fn))  # json-serializable
        match = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        nonmatch = 2 * tn / (2 * tn + fp + fn) if 2 * tn + fp + fn else 0.0
        assert macro_f1(c) == (match + nonmatch) / 2.0


class TestF1:
    def test_tungsten_match_f1(self):
        assert match_f1(TUNGSTEN) == pytest.approx(0.3913, abs=5e-5)
        assert percent(match_f1(TUNGSTEN)) == "39.13"

    def test_tungsten_nonmatch_f1(self):
        assert nonmatch_f1(TUNGSTEN) == pytest.approx(0.9996, abs=5e-5)
        assert percent(nonmatch_f1(TUNGSTEN)) == "99.96"

    def test_nickel_match_f1(self):
        # 22/31 = 0.709677...; the reference table prints 70.96
        assert match_f1(NICKEL) == pytest.approx(0.7097, abs=2e-4)

    def test_nickel_nonmatch_f1(self):
        assert percent(nonmatch_f1(NICKEL)) == "98.27"

    def test_tungsten_macro_is_mean_of_paper_values(self):
        # derived: mean of the two published class F1 scores
        assert macro_f1(TUNGSTEN) == pytest.approx((0.3913 + 0.9996) / 2, abs=1e-4)
        assert percent(macro_f1(TUNGSTEN)) == "69.55"

    def test_perfect_macro(self):
        assert macro_f1(ConfusionCounts(5, 0, 7, 0)) == 1.0

    def test_all_zero_denominators(self):
        empty = ConfusionCounts(0, 0, 0, 0)
        assert match_f1(empty) == 0.0
        assert nonmatch_f1(empty) == 0.0
        assert macro_f1(empty) == 0.0

    def test_gt_trained_pattern(self):
        # everything predicted non-match: match F1 0, macro 0.5 when non-match F1 is 1
        c = ConfusionCounts(tp=0, fp=0, tn=100, fn=4)
        assert match_f1(c) == 0.0
        assert macro_f1(c) == pytest.approx((0.0 + nonmatch_f1(c)) / 2)

    def test_label_swap_symmetry(self):
        c = ConfusionCounts(tp=7, fp=13, tn=91, fn=3)
        swapped = ConfusionCounts(tp=c.tn, fp=c.fn, tn=c.tp, fn=c.fp)
        assert match_f1(swapped) == nonmatch_f1(c)
        assert nonmatch_f1(swapped) == match_f1(c)
        assert macro_f1(swapped) == macro_f1(c)

    @given(
        tp=st.integers(0, 10**6), fp=st.integers(0, 10**6),
        tn=st.integers(0, 10**6), fn=st.integers(0, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_macro_equals_mean_within_one_ulp(self, tp, fp, tn, fn):
        c = ConfusionCounts(tp, fp, tn, fn)
        mean = (match_f1(c) + nonmatch_f1(c)) / 2.0
        assert abs(macro_f1(c) - mean) <= math.ulp(max(mean, 1e-300))

    def test_metrics_bounded(self):
        for c in (TUNGSTEN, NICKEL, ConfusionCounts(0, 5, 0, 5)):
            for metric in (match_f1, nonmatch_f1, macro_f1):
                assert 0.0 <= metric(c) <= 1.0


class TestEvalReport:
    def test_from_counts_identity(self):
        report = EvalReport.from_counts(TUNGSTEN)
        assert report.macro_f1 == (report.match_f1 + report.nonmatch_f1) / 2.0

    def test_percent_row(self):
        assert EvalReport.from_counts(TUNGSTEN).percent_row() == "39.13 / 99.96 / 69.55"

    def test_evaluate_pairs_end_to_end(self):
        predictions, truth = confusion_fixture(11, 2, 256, 7)
        report = evaluate_pairs(predictions, truth)
        assert report.counts == NICKEL


class TestPercentFormatting:
    def test_half_up_rounding(self):
        assert percent(0.5) == "50.00"
        assert percent(0.70967741935) == "70.97"
        assert percent(0.999624) == "99.96"
        # 6.125/100 * 100 is exactly 6.125: the half rounds up, not to even
        assert percent(6.125 / 100) == "6.13"
        assert percent(0.0) == "0.00"
        assert percent(1.0) == "100.00"


class TestSweep:
    def _pool_and_truth(self):
        records, pairs = separable_corpus(300, seed=17)
        pool = pairs[:240]
        truth = pairs[240:]
        return records, pool, truth

    def test_balanced_growth_counts(self, tmp_path):
        records, pool, truth = self._pool_and_truth()
        cfg = SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(5, 20, 50), seed=1, hyper=TrainConfig(epochs=3))
        out = tmp_path / "sweep.csv"
        rows = run_sweep(cfg, pool, truth, records)
        write_sweep_rows(rows, out)
        assert [(r.match_count, r.nonmatch_count) for r in rows] == [(5, 5), (20, 20), (50, 50)]
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "mode,grid_value,match_count,nonmatch_count,match_f1,nonmatch_f1,macro_f1,seed"
        assert len(out.read_text().splitlines()) == 4

    def test_fixed_match_vary_nonmatch_ratios(self):
        records, pool, truth = self._pool_and_truth()
        cfg = SweepConfig(
            mode=SweepMode.FIXED_MATCH_VARY_NONMATCH, grid=(0.5, 1, 3), seed=2,
            hyper=TrainConfig(epochs=2), fixed_match=20,
        )
        rows = run_sweep(cfg, pool, truth, records)
        assert [(r.match_count, r.nonmatch_count) for r in rows] == [(20, 10), (20, 20), (20, 60)]

    @pytest.mark.parametrize("mode, grid, anchors, point, counts", [
        (SweepMode.BALANCED_GROWTH, (0.5, 1), {}, 0.5, "0 match and 0 non-match"),
        (SweepMode.FIXED_MATCH_VARY_NONMATCH, (0, 1), {"fixed_match": 20}, 0, "20 match and 0 non-match"),
        (SweepMode.FIXED_MATCH_VARY_NONMATCH, (1, 2), {"fixed_match": 0}, 1, "0 match and 0 non-match"),
        (SweepMode.FIXED_NONMATCH_VARY_MATCH, (0.9, 5), {"fixed_nonmatch": 80}, 0.9, "0 match and 80 non-match"),
    ])
    def test_one_class_grid_point_fails_before_featurizing(self, mode, grid, anchors, point, counts):
        message = f"grid point {point}: a training set needs both classes ({counts} pairs requested)"
        with pytest.raises(DataError, match=re.escape(message)):  # the config is rejected: no sweep can start
            SweepConfig(mode=mode, grid=grid, hyper=TrainConfig(epochs=1), **anchors)

    def test_fixed_nonmatch_vary_match(self):
        records, pool, truth = self._pool_and_truth()
        cfg = SweepConfig(
            mode=SweepMode.FIXED_NONMATCH_VARY_MATCH, grid=(5, 30), seed=3,
            hyper=TrainConfig(epochs=2), fixed_nonmatch=80,
        )
        rows = run_sweep(cfg, pool, truth, records)
        assert [(r.match_count, r.nonmatch_count) for r in rows] == [(5, 80), (30, 80)]

    def test_insufficient_pool_fails_at_planning(self):
        records, pool, truth = self._pool_and_truth()
        cfg = SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(5, 10**6), hyper=TrainConfig(epochs=1))
        with pytest.raises(DataError, match="insufficient"):
            run_sweep(cfg, pool, truth, records)

    def test_more_nonmatches_than_the_pool_holds_fails_at_planning(self):
        records, pool, truth = self._pool_and_truth()
        available = sum(p.label == 0 for p in pool)
        cfg = SweepConfig(mode=SweepMode.FIXED_NONMATCH_VARY_MATCH, grid=(5,), fixed_nonmatch=available + 1,
                          hyper=TrainConfig(epochs=1))
        message = f"grid point 5: insufficient non-match pairs ({available + 1} requested, {available} available)"
        with pytest.raises(DataError, match=re.escape(message)):
            run_sweep(cfg, pool, truth, records)

    def test_deterministic_output(self, tmp_path):
        records, pool, truth = self._pool_and_truth()
        cfg = SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(5, 15), seed=9, hyper=TrainConfig(epochs=2))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_rows(run_sweep(cfg, pool, truth, records), a)
        write_sweep_rows(run_sweep(cfg, pool, truth, records), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cfg", [
        SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(5, 20), seed=6, hyper=TrainConfig(epochs=1)),
        SweepConfig(mode=SweepMode.FIXED_MATCH_VARY_NONMATCH, grid=(0.5, 2), seed=7, hyper=TrainConfig(epochs=1),
                    fixed_match=30),
    ])
    def test_featurizes_only_the_drawn_pool_pairs_and_truth(self, monkeypatch, cfg):
        records, pool, truth = self._pool_and_truth()
        calls = []

        def recording(keys, *args, **kwargs):
            calls.append(list(keys))
            return featurize_pairs(keys, *args, **kwargs)

        monkeypatch.setattr("minerlink.matcher.featurize_pairs", recording)
        rows = run_sweep(cfg, pool, truth, records)
        drawn = {p.key for i, g in enumerate(cfg.grid)
                 for p in subsample_sweep(pool, *cfg.class_counts(g), seed=cfg.seed + i)}
        assert len(calls) == 1
        (keys,) = calls
        assert len(keys) == len(drawn) + len(truth)
        assert set(keys[: len(drawn)]) == drawn
        assert keys[len(drawn) :] == [t.key for t in truth]
        assert len(drawn) < len(pool)
        # the rows are those of fits on the whole pool's features
        whole = featurize_pairs([p.key for p in pool] + [t.key for t in truth], records)
        row_of = {p.key: i for i, p in enumerate(pool)}
        for i, (g, row) in enumerate(zip(cfg.grid, rows, strict=True)):
            subset = subsample_sweep(pool, *cfg.class_counts(g), seed=cfg.seed + i)
            model = fit_on_matrix(whole[[row_of[p.key] for p in subset]],
                                  np.array([p.label for p in subset], dtype=float), cfg.hyper)
            predicted = model.probabilities(whole[len(pool) :]) > model.decision_threshold
            assert row.report == EvalReport.from_counts(confusion_counts([t.label for t in truth], predicted))

    def test_undrawn_pool_pair_with_unknown_uri_is_a_data_error(self):
        records, pool, truth = self._pool_and_truth()
        ghost = LabeledPair(PairKey("a:ghost", "b:ghost"), 0, Provenance.GROUND_TRUTH)
        cfg = SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(2,), hyper=TrainConfig(epochs=1))
        with pytest.raises(DataError, match=re.escape("unresolved uris in pair keys: ['a:ghost', 'b:ghost']")):
            run_sweep(cfg, pool + [ghost], truth, records)

    def test_grid_validation(self):
        with pytest.raises(DataError, match="non-empty"):
            SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=())
        with pytest.raises(DataError, match="strictly increasing"):
            SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(5, 5))
        with pytest.raises(DataError, match="^seed must be >= 0: -1$"):  # Random(-1) draws what Random(1) does
            SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(5,), seed=-1)

    @pytest.mark.parametrize("mode", list(SweepMode))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("1e400"), float("-inf")])
    def test_non_finite_grid_value_is_a_data_error(self, mode, value):
        with pytest.raises(DataError, match=re.escape(f"sweep grid values must be finite, got {value!r}")):
            SweepConfig(mode=mode, grid=(1.0, value))

    def test_metrics_in_range(self):
        records, pool, truth = self._pool_and_truth()
        cfg = SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(10, 40), seed=4, hyper=TrainConfig(epochs=3))
        for row in run_sweep(cfg, pool, truth, records):
            for value in (row.report.match_f1, row.report.nonmatch_f1, row.report.macro_f1):
                assert 0.0 <= value <= 1.0
