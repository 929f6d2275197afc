"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
on passing runs)."""

from __future__ import annotations

import math
import random
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from minerlink.cluster import cluster_matches
from minerlink.errors import DataError
from minerlink.evaluate import (
    ConfusionCounts,
    SweepConfig,
    SweepMode,
    macro_f1,
    match_f1,
    nonmatch_f1,
    run_sweep,
    write_sweep_rows,
)
from minerlink.llm_labeler import LabelerConfig, label_dataset
from minerlink.matcher import (
    FEATURE_NAMES,
    DegenerateTrainingWarning,
    TrainConfig,
    featurize_pairs,
    haversine_km,
    logistic_gradient,
    predict_pairs,
    train_classifier,
)
from minerlink.pairing import (
    LabeledPair,
    PairKey,
    Provenance,
    SplitSpec,
    enumerate_pairs,
    stratified_split,
    write_labeled_pairs,
)
from minerlink.runtime_model import Measurement, fit, predict_days, predict_seconds
from minerlink.serialize import build_pair_prompt, serialize_ditto_pair

from conftest import DATA_DIR, make_record
from mockllm import MockLLMServer
from synth import logistic_loss, separable_corpus


@contextmanager
def reported(criterion: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {criterion}: FAIL")
        raise
    print(f"[acceptance] {criterion}: PASS")


def flat_records(n, prefix="s"):
    return [make_record(f"{prefix}:{i:05d}", [("site_name", f"Site {i}")]) for i in range(n)]


def test_criterion_01_metric_fixtures():
    with reported("C01 metric fixtures (Table 4 confusion counts)"):
        start = time.perf_counter()
        tungsten = ConfusionCounts(tp=18, fp=51, tn=74_617, fn=5)
        assert abs(match_f1(tungsten) * 100 - 39.13) <= 0.02
        assert abs(nonmatch_f1(tungsten) * 100 - 99.96) <= 0.02
        nickel = ConfusionCounts(tp=11, fp=2, tn=256, fn=7)
        assert 70.96 - 0.02 <= match_f1(nickel) * 100 <= 70.97 + 0.02
        assert abs(nonmatch_f1(nickel) * 100 - 98.27) <= 0.02
        assert time.perf_counter() - start < 1.0


def test_criterion_02_pair_count_fixtures():
    with reported("C02 pair-count fixtures (387 and 24 records)"):
        start = time.perf_counter()
        assert len(enumerate_pairs(flat_records(387))) == 74_691
        assert len(enumerate_pairs(flat_records(24))) == 276
        assert time.perf_counter() - start < 1.0


def test_criterion_03_runtime_extrapolation():
    with reported("C03 runtime extrapolation and fit recovery"):
        assert predict_seconds(0.004, 300_000) == pytest.approx(359_998_800.0, rel=1e-12)
        assert predict_seconds(0.073, 300_000) == pytest.approx(6_569_978_100.0, rel=1e-12)
        assert abs(predict_days(0.004, 300_000) - 4_166.7) / 4_166.7 < 0.01
        assert abs(predict_days(0.073, 300_000) - 76_041) / 76_041 < 0.01
        rng = random.Random(17)
        for _ in range(100):
            k = rng.uniform(1e-6, 5.0)
            sizes = sorted(rng.sample(range(2, 3000), 5))
            model = fit([Measurement(n, k * (n * n - n)) for n in sizes])
            assert abs(model.k - k) <= 1e-9 * k


def test_criterion_04_macro_identity():
    with reported("C04 macro F1 equals mean of class F1s (10,000 random counts)"):
        rng = random.Random(23)
        for _ in range(10_000):
            c = ConfusionCounts(
                tp=rng.randint(0, 10**6), fp=rng.randint(0, 10**6),
                tn=rng.randint(0, 10**6), fn=rng.randint(0, 10**6),
            )
            mean = (match_f1(c) + nonmatch_f1(c)) / 2.0
            assert abs(macro_f1(c) - mean) <= math.ulp(max(mean, 1e-300))


def test_criterion_05_serialization_goldens(yellow_pine_mrds, yellow_pine_usmin):
    with reported("C05 serialization goldens byte-for-byte"):
        prompt = build_pair_prompt(yellow_pine_mrds, yellow_pine_usmin)
        assert prompt.encode("utf-8") == (DATA_DIR / "prompt_pair.golden.txt").read_bytes()
        assert prompt.split("\n")[3] == "Answer only in Yes or No."
        ditto = serialize_ditto_pair(yellow_pine_mrds, yellow_pine_usmin)
        assert ditto.encode("utf-8") == (DATA_DIR / "ditto_pair.golden.txt").read_bytes()


def test_criterion_06_mock_llm_end_to_end(tmp_path):
    with reported("C06 mock-LLM end-to-end over 4,950 pairs"):
        start = time.perf_counter()
        records = {}
        for i in range(100):
            r = make_record(
                f"corpus:{i:04d}",
                [("site_name", f"Site {i}"), ("state", "MN")],
                location=(40.0 + i * 0.01, -95.0 - i * 0.01),
            )
            records[r.uri] = r
        keys = enumerate_pairs(list(records.values()))
        assert len(keys) == 4_950

        def script(prompt):
            return "Yes" if "Site 7 " in prompt or "Site 7." in prompt else "No"

        cfg_kwargs = dict(model="llama3-8b", max_in_flight=4, cache_path=tmp_path / "cache.jsonl")
        with MockLLMServer(script=script, delay_s=0.001) as server:
            cfg = LabelerConfig(base_url=server.base_url, **cfg_kwargs)
            labeled, summary = label_dataset(keys, records, cfg)
            assert 2 <= server.max_in_flight <= 4  # bound honored, concurrency exercised
            cold_requests = server.total_requests
            assert summary.requests_issued == cold_requests > 0

            labeled_again, summary_again = label_dataset(keys, records, cfg)
            assert server.total_requests == cold_requests  # warm cache: zero new requests
            assert summary_again.requests_issued == 0

        # one Table-1-structured row per pair, in order
        assert [p.key for p in labeled] == keys
        assert all(p.label in (0, 1) for p in labeled)
        import json as _json

        run1, run2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
        write_labeled_pairs(labeled, run1)
        write_labeled_pairs(labeled_again, run2)
        assert run1.read_bytes() == run2.read_bytes()
        first_row = _json.loads(run1.read_text().splitlines()[0])
        assert set(first_row) >= {"uri_1", "uri_2", "label", "provenance"}
        assert time.perf_counter() - start < 30.0


def test_criterion_07_classifier_sanity():
    with reported("C07 classifier sanity (gradients, separability, failure mode, determinism)"):
        start = time.perf_counter()

        # (a) analytic gradients vs central differences, 100 random instances
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 50))
            k = len(FEATURE_NAMES)
            z = rng.normal(size=(n, k))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(scale=0.8, size=k)
            b = float(rng.normal())
            wd = float(rng.uniform(0.0, 0.1))
            grad_w, grad_b = logistic_gradient(w, b, z, y, wd)
            eps = 1e-6
            for j in range(k):
                dw = np.zeros(k)
                dw[j] = eps
                numeric = (
                    logistic_loss(w + dw, b, z, y, wd) - logistic_loss(w - dw, b, z, y, wd)
                ) / (2 * eps)
                assert abs(grad_w[j] - numeric) <= 1e-5 * max(1.0, abs(numeric))
            numeric_b = (
                logistic_loss(w, b + eps, z, y, wd) - logistic_loss(w, b - eps, z, y, wd)
            ) / (2 * eps)
            assert abs(grad_b - numeric_b) <= 1e-5 * max(1.0, abs(numeric_b))

        # (b) linearly separable corpus of 2,000 pairs: macro F1 >= 0.95
        records, pairs = separable_corpus(2_000, seed=3)
        model = train_classifier(pairs, records)
        results = predict_pairs(model, [p.key for p in pairs], records)
        truth = {p.key: p.label for p in pairs}
        tp = sum(1 for key, label, _ in results if label == 1 and truth[key] == 1)
        fp = sum(1 for key, label, _ in results if label == 1 and truth[key] == 0)
        tn = sum(1 for key, label, _ in results if label == 0 and truth[key] == 0)
        fn = sum(1 for key, label, _ in results if label == 0 and truth[key] == 1)
        assert macro_f1(ConfusionCounts(tp, fp, tn, fn)) >= 0.95

        # (c) all-non-match training set: match F1 = 0, all predictions 0
        nonmatches = [p for p in pairs if p.label == 0][:800]
        with pytest.warns(DegenerateTrainingWarning):
            degenerate = train_classifier(nonmatches, records)
        degenerate_results = predict_pairs(degenerate, [p.key for p in pairs[:400]], records)
        assert all(label == 0 for _, label, _ in degenerate_results)
        d_tp = sum(1 for key, label, _ in degenerate_results if label == 1 and truth[key] == 1)
        d_fp = sum(1 for key, label, _ in degenerate_results if label == 1 and truth[key] == 0)
        d_fn = sum(1 for key, label, _ in degenerate_results if label == 0 and truth[key] == 1)
        assert match_f1(ConfusionCounts(d_tp, d_fp, 0, d_fn)) == 0.0

        # (d) identical seeds give bitwise-identical models
        subset = pairs[750:1250]  # straddles the match/non-match boundary
        m1 = train_classifier(subset, records, TrainConfig(seed=99))
        m2 = train_classifier(subset, records, TrainConfig(seed=99))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias
        assert np.array_equal(m1.feature_means, m2.feature_means)
        assert np.array_equal(m1.feature_stds, m2.feature_stds)

        assert time.perf_counter() - start < 60.0


def test_criterion_08_stratified_split_bound():
    with reported("C08 stratified split ±1 bound over 1,000 random combinations"):
        rng = random.Random(31)
        fractions = (0.8, 0.1, 0.1)
        for _ in range(1_000):
            n_match = rng.randint(0, 200)
            n_nonmatch = rng.randint(0, 200)
            if n_match + n_nonmatch == 0:
                continue
            pool = [
                LabeledPair(PairKey(f"m{i}a", f"m{i}b"), 1, Provenance.LLM) for i in range(n_match)
            ] + [
                LabeledPair(PairKey(f"n{i}a", f"n{i}b"), 0, Provenance.LLM) for i in range(n_nonmatch)
            ]
            seed = rng.randrange(2**62)
            parts = stratified_split(pool, SplitSpec(fractions, seed=seed))
            for label, total in ((1, n_match), (0, n_nonmatch)):
                for part, fraction in zip(parts, fractions):
                    got = sum(p.label == label for p in part)
                    assert abs(got - fraction * total) <= 1.0
            combined = [p.key for part in parts for p in part]
            assert len(combined) == len(pool)
            assert set(combined) == {p.key for p in pool}


def test_criterion_09_clustering_oracle():
    with reported("C09 clustering vs transitive-closure oracle on 500 random graphs"):
        rng = random.Random(41)
        for _ in range(500):
            n = rng.randint(1, 200)
            uris = [f"s:{i:03d}" for i in range(n)]
            edges = []
            for _ in range(rng.randint(0, n)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    edges.append((a, b))
            matches = [
                LabeledPair(PairKey.of(uris[a], uris[b]), 1, Provenance.PREDICTED)
                for a, b in edges
            ]
            clusters = cluster_matches(uris, matches)

            reach = np.eye(n, dtype=bool)
            for a, b in edges:
                reach[a, b] = reach[b, a] = True
            for k in range(n):
                reach[reach[:, k]] |= reach[k]
            oracle = {frozenset(np.flatnonzero(row).tolist()) for row in reach}

            got = {frozenset(int(m.split(":")[1]) for m in c.members) for c in clusters}
            assert got == oracle


def test_criterion_10_sweep_harness(tmp_path):
    with reported("C10 sweep harness at the reference grid anchors"):
        rng = random.Random(53)
        pool_records = {}
        for i in range(400):
            r = make_record(
                f"pool:{i:04d}",
                [("site_name", f"Site {rng.randint(0, 999)}"), ("commod1", rng.choice(["W", "Ni", "Cu"]))],
                location=(30.0 + rng.random() * 15.0, -110.0 + rng.random() * 30.0),
            )
            pool_records[r.uri] = r
        uris = sorted(pool_records)
        all_keys = []
        for i in range(len(uris)):
            for j in range(i + 1, len(uris)):
                all_keys.append(PairKey(uris[i], uris[j]))
                if len(all_keys) >= 350 + 59_403 + 1_000:
                    break
            if len(all_keys) >= 350 + 59_403 + 1_000:
                break
        pool = [
            LabeledPair(key, 1 if idx < 350 else 0, Provenance.LLM)
            for idx, key in enumerate(all_keys[: 350 + 59_403])
        ]
        truth_keys = all_keys[350 + 59_403 :]
        truth = [
            LabeledPair(key, rng.randint(0, 1), Provenance.GROUND_TRUTH) for key in truth_keys
        ]
        hyper = TrainConfig(epochs=2)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateTrainingWarning)

            balanced = run_sweep(
                SweepConfig(mode=SweepMode.BALANCED_GROWTH, grid=(10, 50, 150, 300), seed=1, hyper=hyper),
                pool, truth, pool_records,
            )
            write_sweep_rows(balanced, tmp_path / "balanced.csv")
            assert [(r.match_count, r.nonmatch_count) for r in balanced] == [
                (10, 10), (50, 50), (150, 150), (300, 300),
            ]

            # a ratio of 0 would train on matches alone: rejected before any work
            with pytest.raises(DataError, match=r"^grid point 0: a training set needs both classes"):
                run_sweep(
                    SweepConfig(mode=SweepMode.FIXED_MATCH_VARY_NONMATCH, grid=(0, 10), hyper=hyper, fixed_match=349),
                    pool, truth, pool_records,
                )
            fixed_match = run_sweep(
                SweepConfig(
                    mode=SweepMode.FIXED_MATCH_VARY_NONMATCH, grid=(1, 10, 160), seed=2,
                    hyper=hyper, fixed_match=349,
                ),
                pool, truth, pool_records,
            )
            write_sweep_rows(fixed_match, tmp_path / "fixed_match.csv")
            assert [(r.match_count, r.nonmatch_count) for r in fixed_match] == [
                (349, 349), (349, 3_490), (349, 55_840),
            ]

            fixed_nonmatch = run_sweep(
                SweepConfig(
                    mode=SweepMode.FIXED_NONMATCH_VARY_MATCH, grid=(10, 100, 350), seed=3,
                    hyper=hyper, fixed_nonmatch=59_403,
                ),
                pool, truth, pool_records,
            )
            write_sweep_rows(fixed_nonmatch, tmp_path / "fixed_nonmatch.csv")
            assert [(r.match_count, r.nonmatch_count) for r in fixed_nonmatch] == [
                (10, 59_403), (100, 59_403), (350, 59_403),
            ]

        for name in ("balanced.csv", "fixed_match.csv", "fixed_nonmatch.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "mode,grid_value,match_count,nonmatch_count,match_f1,nonmatch_f1,macro_f1,seed"
            assert len(lines) >= 4
            for line in lines[1:]:
                fields = line.split(",")
                for value in fields[4:7]:
                    assert 0.0 <= float(value) <= 1.0
        # curve values are deliberately not compared against any reference


def test_criterion_11_haversine():
    with reported("C11 haversine quantitative and symmetry/identity properties"):
        assert abs(haversine_km((0.0, 0.0), (1.0, 0.0)) - 111.195) <= 0.001
        assert abs(haversine_km((0.0, 0.0), (0.0, 180.0)) - 20_015.09) <= 0.01
        rng = random.Random(61)
        for _ in range(10_000):
            p1 = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            p2 = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert haversine_km(p1, p2) == haversine_km(p2, p1)
            assert haversine_km(p1, p1) == 0.0
