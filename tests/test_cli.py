from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minerlink.cli import main
from minerlink.matcher import FEATURE_NAMES, ClassifierModel, FeatureSpec, TrainConfig, model_to_json_dict
from minerlink.pairing import LabeledPair, PairKey, Provenance, read_labeled_pairs, write_labeled_pairs
from minerlink.records import read_records_jsonl

from mockllm import MockLLMServer

MRDS_CSV = (
    "dep_id,site_name,latitude,longitude,commod1,commod2\n"
    "10310734,Yellow Pine,44.965,-115.318,Tungsten,\n"
    "10310735,Tungsten Jim,44.713,-115.091,Tungsten,Antimony\n"
    "10310736,Eagle Mine,46.744,-87.887,Nickel,Copper\n"
    "10310737,Dunka Road,47.601,-91.871,Copper,Nickel\n"
)
USMIN_CSV = (
    "Site_ID,Ftr_Name,Approx_Lat,Approx_Lon,Commodity\n"
    "US001,Yellow Pine Deposit,44.9652,-115.3178,Tungsten\n"
    "US002,Dunka Road - Northmet Project,47.605,-91.868,Copper\n"
)


def write_config(tmp_path: Path, **overrides) -> Path:
    mrds = tmp_path / "mrds.csv"
    usmin = tmp_path / "usmin.csv"
    mrds.write_text(MRDS_CSV, encoding="utf-8")
    usmin.write_text(USMIN_CSV, encoding="utf-8")
    config = {
        "datasets": [
            {
                "path": str(mrds),
                "source_id": "mrds",
                "schema": {"id_column": "dep_id", "lat_column": "latitude", "lon_column": "longitude"},
            },
            {
                "path": str(usmin),
                "source_id": "usmin",
                "schema": {"id_column": "Site_ID", "lat_column": "Approx_Lat", "lon_column": "Approx_Lon"},
            },
        ],
        "labeler": {"base_url": "http://placeholder.invalid", "model": "llama3-8b"},
        "matcher": {"hyper": {"epochs": 5, "learning_rate": 0.2, "seed": 1}},
        "split": {"fractions": [0.8, 0.1, 0.1], "seed": 7},
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def scripted_server():
    def script(prompt):
        # same-name pairs match: Yellow Pine twins and the two Dunka Road records
        first = prompt.split("\n")[0]
        second = prompt.split("\n")[1]
        for stem in ("Yellow Pine", "Dunka Road"):
            if stem in first and stem in second:
                return "Yes"
        return "No"

    return MockLLMServer(script=script)


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"

        assert main(["ingest", "--config", str(config)]) == 0
        records = read_records_jsonl(out / "records.jsonl")
        assert len(records) == 6
        assert "ingest: 6 records" in capsys.readouterr().out

        assert main(["pairs", "--config", str(config)]) == 0
        assert len((out / "pairs.jsonl").read_text().splitlines()) == 15  # 6C2

        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                assert main(["label", "--config", str(config)]) == 0
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        labeled = read_labeled_pairs(out / "labeled.jsonl")
        assert len(labeled) == 15
        assert sum(p.label for p in labeled) == 2
        assert "label: 15 pairs (2 match / 13 non-match" in capsys.readouterr().out

        assert main(["train", "--config", str(config)]) == 0
        assert (out / "model.json").exists()
        assert (out / "split_train.jsonl").exists()

        assert main(["predict", "--config", str(config)]) == 0
        predictions = read_labeled_pairs(out / "predictions.jsonl")
        assert len(predictions) == 15
        assert all(p.provenance is Provenance.PREDICTED for p in predictions)

        # the curated-rule baseline runs through the same artifact path;
        # "Yellow Pine" vs "Yellow Pine Deposit" sits below the 0.85 cosine
        # gate, so the conservative rule matches nothing here
        assert main(["predict", "--config", str(config), "--rule"]) == 0
        assert "(curated rule)" in capsys.readouterr().out
        rule_predictions = read_labeled_pairs(out / "predictions.jsonl")
        assert len(rule_predictions) == 15
        assert sum(p.label for p in rule_predictions) == 0
        assert main(["predict", "--config", str(config)]) == 0  # restore model predictions

        truth_path = tmp_path / "truth.jsonl"
        write_labeled_pairs(labeled, truth_path)
        assert main(["evaluate", "--config", str(config), "--truth", str(truth_path)]) == 0
        printed = capsys.readouterr().out
        assert "match/non-match/macro F1 =" in printed
        assert (out / "evaluation.json").exists()

        assert main(["cluster", "--config", str(config)]) == 0
        assert (out / "clusters.jsonl").exists()

        assert (
            main([
                "sweep", "--config", str(config), "--truth", str(truth_path),
                "--mode", "balanced", "--grid", "1,2",
            ])
            == 0
        )
        lines = (out / "sweep_results.csv").read_text().splitlines()
        assert lines[0].startswith("mode,grid_value")
        assert len(lines) == 3

    def test_pairs_on_24_records(self, tmp_path):
        rows = "\n".join(f"{i},Site {i}" for i in range(24))
        csv_path = tmp_path / "nickel.csv"
        csv_path.write_text("rec_id,site_name\n" + rows + "\n", encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "datasets": [{"path": str(csv_path), "source_id": "ni", "schema": {"id_column": "rec_id"}}],
                    "output_dir": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["pairs", "--config", str(config_path)]) == 0
        assert len((tmp_path / "out" / "pairs.jsonl").read_text().splitlines()) == 276


class TestEvaluateFixture:
    def test_tungsten_row_printed(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        predictions, truth = [], []
        i = 0
        for (p_label, t_label), count in (((1, 1), 18), ((1, 0), 51), ((0, 0), 74_617), ((0, 1), 5)):
            for _ in range(count):
                key = PairKey(f"p:{i:07d}", f"q:{i:07d}")
                predictions.append(LabeledPair(key, p_label, Provenance.PREDICTED))
                truth.append(LabeledPair(key, t_label, Provenance.GROUND_TRUTH))
                i += 1
        write_labeled_pairs(predictions, out / "predictions.jsonl")
        truth_path = tmp_path / "truth.jsonl"
        write_labeled_pairs(truth, truth_path)
        code = main(["evaluate", "--output-dir", str(out), "--truth", str(truth_path)])
        assert code == 0
        assert "39.13 / 99.96 / 69.55" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["pairs", "--bogus"]) == 1

    def test_no_output_dir_is_usage_error(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{}", encoding="utf-8")
        assert main(["pairs", "--config", str(config)]) == 1

    def test_duplicate_ids_is_data_error(self, tmp_path):
        csv_path = tmp_path / "dup.csv"
        csv_path.write_text("id,name\n1,A\n1,B\n", encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "datasets": [{"path": str(csv_path), "source_id": "s", "schema": {"id_column": "id"}}],
                    "output_dir": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        assert main(["ingest", "--config", str(config)]) == 2

    def test_truncated_records_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        text = records.read_text(encoding="utf-8")
        records.write_text(text[: len(text) - 20], encoding="utf-8")  # cut the last of 6 lines short
        capsys.readouterr()
        assert main(["pairs", "--config", str(config)]) == 2
        assert f"error: {records}:6: malformed row" in capsys.readouterr().err
        assert not (tmp_path / "out" / "pairs.jsonl").exists()

    def test_model_with_other_feature_count_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        k = len(FEATURE_NAMES) - 1  # a model saved by a build with one feature fewer
        model = ClassifierModel(
            weights=np.zeros(k), bias=0.0, feature_means=np.zeros(k), feature_stds=np.ones(k),
            frozen_features=np.zeros(k, dtype=bool), hyper=TrainConfig(), feature_spec=FeatureSpec(),
            feature_names=FEATURE_NAMES[:k],
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model_to_json_dict(model)), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--config", str(config), "--model", str(bad)]) == 2
        assert f"error: {bad}: model feature_names" in capsys.readouterr().err
        assert not (tmp_path / "out" / "predictions.jsonl").exists()

    def test_pairs_without_records_is_data_error_naming_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pairs", "--output-dir", str(out)]) == 2
        assert f"error: {out / 'records.jsonl'}: No such file or directory" in capsys.readouterr().err
        assert not (out / "pairs.jsonl").exists()
        assert not (out / ".minerlink.lock").exists()

    def test_predict_without_pairs_is_data_error_naming_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["predict", "--config", str(config), "--rule"]) == 2
        assert f"error: {tmp_path / 'out' / 'pairs.jsonl'}: No such file or directory" in capsys.readouterr().err

    def test_evaluate_with_missing_truth_is_data_error_naming_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        write_labeled_pairs([LabeledPair(PairKey("a", "b"), 1, Provenance.PREDICTED)], out / "predictions.jsonl")
        truth = tmp_path / "truth.jsonl"
        assert main(["evaluate", "--output-dir", str(out), "--truth", str(truth)]) == 2
        assert f"error: {truth}: No such file or directory" in capsys.readouterr().err
        assert not (out / "evaluation.json").exists()

    def test_evaluate_with_two_keys_missing_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        keys = [PairKey("a", "b"), PairKey("a", "c"), PairKey("b", "c")]
        write_labeled_pairs([LabeledPair(k, 1, Provenance.PREDICTED) for k in keys], out / "predictions.jsonl")
        truth = tmp_path / "truth.jsonl"
        write_labeled_pairs([LabeledPair(keys[0], 1, Provenance.GROUND_TRUTH)], truth)
        assert main(["evaluate", "--output-dir", str(out), "--truth", str(truth)]) == 2
        assert "missing from truth: [('a', 'c'), ('b', 'c')]" in capsys.readouterr().err

    def test_unreachable_endpoint_exits_3_with_no_partial_output(self, tmp_path):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()

        config = write_config(
            tmp_path,
            labeler={
                "base_url": f"http://127.0.0.1:{port}",
                "model": "llama3-8b",
                "max_retries": 0,
                "timeout_s": 2.0,
            },
        )
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        assert main(["label", "--config", str(config)]) == 3
        assert not (out / "labeled.jsonl").exists()

    def test_lock_file_blocks_second_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".minerlink.lock").write_text(str(os.getpid()), encoding="utf-8")  # a live run
        assert main(["ingest", "--config", str(config)]) == 1
        assert f"locked by another run (pid {os.getpid()}," in capsys.readouterr().err
        (out / ".minerlink.lock").unlink()
        assert main(["ingest", "--config", str(config)]) == 0

    def test_lock_of_dead_run_is_taken_over(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)  # reaped, so its pid names no running process
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        lock = out / ".minerlink.lock"
        lock.write_text(str(child.pid), encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        assert (out / "records.jsonl").exists()
        assert not lock.exists()


class TestRuntimeCommand:
    @pytest.mark.parametrize("row,message", [("10,abc", "malformed row: could not convert"),
                                             ("10", "malformed row: not enough values")])
    def test_malformed_measurement_row_is_data_error(self, tmp_path, capsys, row, message):
        measurements = tmp_path / "m.csv"
        measurements.write_text(f"record_count,elapsed_seconds\n{row}\n", encoding="utf-8")
        assert main(["runtime", "--measurements", str(measurements)]) == 2
        assert f"error: {measurements}:2: {message}" in capsys.readouterr().err

    def test_fit_and_extrapolate(self, tmp_path, capsys):
        measurements = tmp_path / "measurements.csv"
        lines = ["record_count,elapsed_seconds"]
        for n in (10, 50, 100):
            lines.append(f"{n},{0.004 * (n * n - n)}")
        measurements.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["runtime", "--measurements", str(measurements), "--extrapolate", "300000"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "k=0.004" in printed
        assert "days" in printed

    def test_benchmark_mode(self, tmp_path, capsys):
        config = write_config(tmp_path)
        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                assert main(["ingest", "--config", str(config)]) == 0
                assert main(["pairs", "--config", str(config)]) == 0
                assert main(["label", "--config", str(config)]) == 0
                assert main(["train", "--config", str(config)]) == 0
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        code = main(["runtime", "--config", str(config), "--benchmark", "--sizes", "3,5"])
        assert code == 0
        out = tmp_path / "out"
        lines = (out / "measurements.csv").read_text().splitlines()
        assert lines[0] == "record_count,elapsed_seconds"
        assert len(lines) == 3


class TestRerunDeterminism:
    def test_pairs_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        first = (out / "pairs.jsonl").read_bytes()
        assert main(["pairs", "--config", str(config)]) == 0
        assert (out / "pairs.jsonl").read_bytes() == first

    def test_train_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                for cmd in ("ingest", "pairs", "label"):
                    assert main([cmd, "--config", str(config)]) == 0
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        assert main(["train", "--config", str(config)]) == 0
        first = (out / "model.json").read_bytes()
        assert main(["train", "--config", str(config)]) == 0
        assert (out / "model.json").read_bytes() == first
