from __future__ import annotations

import random

import pytest

from minerlink.errors import DataError
from minerlink.runtime_model import (
    Measurement,
    RuntimeModel,
    benchmark,
    fit,
    predict_days,
    predict_seconds,
    read_measurements,
    write_measurements,
)

from conftest import make_record


def generate_noiseless(k, sizes):
    return [Measurement(n, k * (n * n - n)) for n in sizes]


class TestFit:
    @pytest.mark.parametrize("k", [0.073, 0.004])
    def test_noiseless_recovery_exact(self, k):
        model = fit(generate_noiseless(k, [10, 50, 100, 200, 300]))
        assert model.k == pytest.approx(k, rel=1e-12)
        assert model.fit_residual == pytest.approx(0.0, abs=1e-9)
        assert model.n_points == 5

    def test_random_coefficients_recovered(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.uniform(1e-6, 10.0)
            sizes = sorted(rng.sample(range(2, 5000), 6))
            model = fit(generate_noiseless(k, sizes))
            assert model.k == pytest.approx(k, rel=1e-9)

    def test_noisy_fit_bounded_by_pointwise_ratios(self):
        # the closed form is a load-weighted mean of elapsed/(n^2-n), so the
        # fitted k must lie between the extreme pointwise ratios
        rng = random.Random(11)
        for _ in range(30):
            k = rng.uniform(0.001, 0.1)
            measurements = []
            for n in (10, 40, 90, 160, 250):
                noise = rng.uniform(-0.3, 0.3)
                measurements.append(Measurement(n, k * (n * n - n) * (1.0 + noise)))
            ratios = [m.elapsed / (m.record_count**2 - m.record_count) for m in measurements]
            model = fit(measurements)
            assert min(ratios) <= model.k <= max(ratios)

    def test_single_point(self):
        model = fit([Measurement(10, 0.073 * 90)])
        assert model.k == pytest.approx(0.073, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no measurements"):
            fit([])

    def test_measurement_validation(self):
        with pytest.raises(DataError, match=">= 2"):
            Measurement(1, 5.0)
        with pytest.raises(DataError, match="non-negative"):
            Measurement(5, -1.0)


class TestPredict:
    def test_llama_scale_extrapolation(self):
        # 0.073 * (300000^2 - 300000) seconds is about 76,041 days
        days = predict_days(0.073, 300_000)
        assert days == pytest.approx(76_041, rel=0.01)
        assert predict_seconds(0.073, 300_000) == pytest.approx(6_569_978_100.0, rel=1e-12)

    def test_fast_model_scale_extrapolation(self):
        # 0.004 * (300000^2 - 300000) seconds is about 4,166.7 days
        assert predict_seconds(0.004, 300_000) == pytest.approx(359_998_800.0, rel=1e-12)
        assert predict_days(0.004, 300_000) == pytest.approx(4_166.7, rel=0.01)

    def test_degenerate_counts(self):
        assert predict_seconds(123.0, 1) == 0.0
        assert predict_seconds(123.0, 0) == 0.0
        with pytest.raises(DataError):
            predict_seconds(1.0, -1)

    def test_accepts_model_or_coefficient(self):
        model = RuntimeModel(k=0.004, fit_residual=0.0, n_points=1)
        assert predict_seconds(model, 100) == predict_seconds(0.004, 100)

    def test_monotone_in_n(self):
        rng = random.Random(3)
        for _ in range(200):
            k = rng.uniform(0.0, 1.0)
            n = rng.randint(1, 10**6)
            assert predict_seconds(k, n + 1) >= predict_seconds(k, n)

    def test_model_validation(self):
        with pytest.raises(DataError):
            RuntimeModel(k=-0.1, fit_residual=0.0, n_points=1)
        with pytest.raises(DataError):
            RuntimeModel(k=0.1, fit_residual=0.0, n_points=0)


class TestBenchmark:
    def _records(self, n):
        return [make_record(f"s:{i:03d}", [("site_name", f"Site {i}")]) for i in range(n)]

    def test_ten_records_mean_45_pairs(self):
        calls = []
        measurements = benchmark(lambda pairs: calls.append(len(pairs)), [10], self._records(12))
        assert len(measurements) == 1
        assert measurements[0].record_count == 10
        assert calls == [45, 45]  # warm-up pass plus the timed pass

    def test_empty_sizes(self):
        assert benchmark(lambda pairs: None, [], self._records(3)) == []

    def test_three_hundred_records_mean_44850_pairs(self):
        calls = []
        measurements = benchmark(lambda pairs: calls.append(len(pairs)), [300], self._records(300))
        assert measurements[0].record_count == 300
        assert calls == [44_850, 44_850]

    def test_pool_too_small(self):
        with pytest.raises(DataError, match="pool has 3"):
            benchmark(lambda pairs: None, [10], self._records(3))

    def test_elapsed_positive_for_real_work(self):
        measurements = benchmark(
            lambda pairs: sum(len(v) for a, _ in pairs for _, v in a.attributes), [8, 12], self._records(12)
        )
        assert [m.record_count for m in measurements] == [8, 12]
        assert all(m.elapsed >= 0 for m in measurements)


class TestMeasurementIO:
    def test_round_trip(self, tmp_path):
        measurements = generate_noiseless(0.0071, [10, 20, 40])
        path = tmp_path / "measurements.csv"
        write_measurements(measurements, path)
        assert read_measurements(path) == measurements

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,seconds\n10,1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected header"):
            read_measurements(path)
