from __future__ import annotations

import errno
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minerlink import cli
from minerlink.cli import LOCK_FILE, _OutputLock, main
from minerlink.matcher import FEATURE_NAMES, ClassifierModel, FeatureSpec, TrainConfig, haversine_km, model_to_json_dict
from minerlink.pairing import (
    LabeledPair,
    PairKey,
    Provenance,
    read_labeled_pairs,
    read_pair_keys,
    write_labeled_pairs,
)
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


def _env_with_package() -> dict:
    """The environment for a subprocess that imports this checkout's package."""
    src = str(Path(__file__).parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def descriptors(monkeypatch) -> tuple[list, list]:
    """The descriptors ``os.open`` returns and ``os.close`` closes from here on."""
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def spy_open(path, *args):
        fd = real_open(path, *args)
        opened.append(fd)
        return fd

    def spy_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "close", spy_close)
    return opened, closed


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

    def test_pairs_max_distance_keeps_the_pairs_within_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config), "--max-distance-km", "5"]) == 0
        assert "pairs: 2 candidate pairs over 6 records" in capsys.readouterr().out
        location = {r.uri: r.location for r in read_records_jsonl(out / "records.jsonl")}
        every = [PairKey(a, b) for a, b in itertools.combinations(sorted(location), 2)]
        near = [k for k in every if haversine_km(location[k.uri_1], location[k.uri_2]) <= 5.0]
        assert read_pair_keys(out / "pairs.jsonl") == near


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

    def test_config_that_is_a_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["ingest", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: cannot read config file: Is a directory\n"

    def test_unknown_flag_is_usage_error(self):
        assert main(["pairs", "--bogus"]) == 1

    def test_no_output_dir_is_usage_error(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{}", encoding="utf-8")
        assert main(["pairs", "--config", str(config)]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["evaluate"], "the following arguments are required: --truth"),
        (["sweep", "--mode", "balanced", "--grid", "1,2"], "the following arguments are required: --truth"),
        (["sweep", "--truth", "t.jsonl", "--mode", "balanced", "--grid", "1,x"],
         "bad --grid value: could not convert string to float: 'x'"),
        (["runtime", "--benchmark", "--sizes", "3,x"], "bad --sizes value: invalid literal for int() with base 10: 'x'"),
        (["runtime", "--benchmark", "--sizes", "1,20"], "argument --sizes: a size must be >= 2: 1"),
        (["runtime", "--benchmark", "--sizes=-5,20"], "argument --sizes: a size must be >= 2: -5"),
        (["runtime", "--benchmark", "--extrapolate", "-5"], "argument --extrapolate: a record count must be >= 0: -5"),
        (["runtime", "--benchmark", "--extrapolate", "x"], "argument --extrapolate: invalid int value: 'x'"),
        (["runtime"], "one of the arguments --measurements --benchmark is required"),
        (["runtime", "--measurements", "m.csv", "--benchmark"],
         "argument --benchmark: not allowed with argument --measurements"),
        (["pairs", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["predict", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["label"], "config has no labeler section"),
        (["train", "--seed", "-1"], "argument --seed: seed must be >= 0: -1"),
        (["sweep", "--truth", "t.jsonl", "--mode", "balanced", "--grid", "1,2", "--seed", "-1"],
         "argument --seed: seed must be >= 0: -1"),
        (["cluster", "--max-cluster-size", "0"], "argument --max-cluster-size: max cluster size must be >= 1: 0"),
        (["cluster", "--max-cluster-size=-3"], "argument --max-cluster-size: max cluster size must be >= 1: -3"),
    ], ids=["evaluate-no-truth", "sweep-no-truth", "sweep-grid", "runtime-sizes", "runtime-size-below-2",
            "runtime-negative-size", "runtime-negative-extrapolation", "runtime-extrapolation-not-a-number",
            "runtime-no-mode",
            "runtime-both-modes", "pairs-seed", "predict-seed", "label-no-labeler", "train-negative-seed",
            "sweep-negative-seed", "cluster-size-0", "cluster-size-negative"])
    def test_usage_error_exits_1_before_any_input_is_read(self, tmp_path, capsys, argv, message):
        # no input exists, so an input read first would exit 2 instead
        config = tmp_path / "c.json"
        config.write_text("{}", encoding="utf-8")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(config), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_label_without_base_url_exits_1_before_the_output_directory_is_made(self, tmp_path, capsys,
                                                                                 monkeypatch):
        monkeypatch.delenv("MINERLINK_LLM_BASE_URL", raising=False)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"labeler": {"model": "m"}}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["label", "--config", str(config), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: labeler.base_url missing (or set MINERLINK_LLM_BASE_URL)\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, text, message", [
        ("timeout_s", "1e400", "labeler.timeout_s: expected a finite number, got Infinity"),
        ("timeout_s", "1e12", "labeler: timeout_s must be > 0 and <= 9223372036.0: 1000000000000.0"),
        ("temperature", "1e400", "labeler.temperature: expected a finite number, got Infinity"),
    ], ids=["timeout_s-1e400-inf", "timeout_s-1e12-1000000000000.0", "temperature-1e400-inf"])
    def test_label_with_an_unusable_float_exits_1_before_the_output_directory_is_made(
            self, tmp_path, capsys, field, text, message):
        config = tmp_path / "c.json"  # JSON reads 1e400 as inf
        config.write_text(f'{{"labeler": {{"base_url": "http://x", "model": "m", "{field}": {text}}}}}',
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["label", "--config", str(config), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out.exists()

    def test_decreasing_sweep_grid_is_data_error_before_any_input_is_read(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--output-dir", str(out), "--truth", "t.jsonl", "--mode", "balanced", "--grid", "5,1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: sweep grid must be strictly increasing: (5.0, 1.0)\n"
        assert not out.exists()

    def test_one_class_sweep_grid_point_is_data_error_before_any_input_is_read(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--output-dir", str(out), "--truth", "t.jsonl", "--mode", "balanced", "--grid", "0.5,1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: grid point 0.5: a training set needs both classes (0 match and 0 non-match pairs requested)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("km", ["0", "-1", "nan"])
    def test_pairs_max_distance_not_positive_is_data_error_before_any_input_is_read(self, tmp_path, capsys, km):
        out = tmp_path / "out"  # holds no records.jsonl, so an input read first would name it
        assert main(["pairs", "--output-dir", str(out), "--max-distance-km", km]) == 2
        assert capsys.readouterr().err == f"error: max_distance_km must be positive: {float(km)}\n"
        assert not out.exists()

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

    def test_records_not_utf8_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        records.write_bytes(b"\xff\xfe" + records.read_bytes())  # a UTF-16 byte order mark
        capsys.readouterr()
        assert main(["pairs", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {records}:1: malformed row: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "out" / "pairs.jsonl").exists()

    def test_csv_not_utf8_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        mrds = tmp_path / "mrds.csv"
        mrds.write_bytes(mrds.read_bytes() + "10310738,M\u00fcnster,51.96,7.63,Zinc,\n".encode("latin-1"))
        assert main(["ingest", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {mrds}:6: malformed row: 'utf-8' codec")
        assert not (tmp_path / "out" / "records.jsonl").exists()

    def test_truth_not_utf8_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        keys = [PairKey("a", "b"), PairKey("a", "c")]
        write_labeled_pairs([LabeledPair(k, 1, Provenance.PREDICTED) for k in keys], out / "predictions.jsonl")
        truth = tmp_path / "truth.jsonl"
        write_labeled_pairs([LabeledPair(keys[0], 1, Provenance.GROUND_TRUTH)], truth)
        truth.write_bytes(truth.read_bytes() + b"\xff\n")
        assert main(["evaluate", "--output-dir", str(out), "--truth", str(truth)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {truth}:2: malformed row: 'utf-8' codec")
        assert not (out / "evaluation.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["--mode", "balanced", "--grid", "0.5,1"], "grid point 0.5: a training set needs both classes "
                                                    "(0 match and 0 non-match pairs requested)"),
        (["--mode", "fixed-match", "--fixed-match", "1", "--grid", "0.1"],
         "grid point 0.1: a training set needs both classes (1 match and 0 non-match pairs requested)"),
        (["--mode", "balanced", "--grid", "2,nan"], "sweep grid values must be finite, got nan"),
        (["--mode", "fixed-match", "--grid", "inf"], "sweep grid values must be finite, got inf"),
        (["--mode", "fixed-nonmatch", "--grid", "1,1e400"], "sweep grid values must be finite, got inf"),
    ], ids=["balanced", "fixed-match", "balanced-nan", "fixed-match-inf", "fixed-nonmatch-1e400"])
    def test_sweep_grid_point_without_both_classes_is_data_error(self, tmp_path, capsys, args, message):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        keys = read_pair_keys(out / "pairs.jsonl")
        labeled = [LabeledPair(k, int(i < 3), Provenance.GROUND_TRUTH) for i, k in enumerate(keys)]
        write_labeled_pairs(labeled, out / "labeled.jsonl")
        truth = tmp_path / "truth.jsonl"
        write_labeled_pairs(labeled, truth)
        capsys.readouterr()
        assert main(["sweep", "--config", str(config), "--truth", str(truth), *args]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "sweep_results.csv").exists()

    @pytest.mark.parametrize("rule", [True, False], ids=["rule", "classifier"])
    def test_pair_with_unknown_uri_is_data_error(self, tmp_path, capsys, rule):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                for cmd in ("ingest", "pairs", "label", "train"):
                    assert main([cmd, "--config", str(config)]) == 0
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        with (out / "pairs.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"uri_1": "mrds:10310734", "uri_2": "nowhere:1"}) + "\n")
        capsys.readouterr()
        assert main(["predict", "--config", str(config), *(["--rule"] if rule else [])]) == 2
        assert capsys.readouterr().err == "error: unresolved uris in pair keys: ['nowhere:1']\n"
        assert not (out / "predictions.jsonl").exists()

    def test_label_with_unknown_uri_is_the_same_data_error_as_predict(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        with (out / "pairs.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"uri_1": "mrds:10310734", "uri_2": "nowhere:1"}) + "\n")
        capsys.readouterr()
        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                assert main(["label", "--config", str(config)]) == 2
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        assert server.total_requests == 0
        assert capsys.readouterr().err == "error: unresolved uris in pair keys: ['nowhere:1']\n"
        assert not (out / "labeled.jsonl").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("attributes", [["site_name", "Yellow Pine"], ["commod1", 5]],
         "attributes must be an array of [name, value] string pairs"),
        ("uri", 7, "uri and source_id must be strings"),
        ("location", [True, -115.3], "location must be null or an array of two numbers"),
    ])
    def test_record_with_wrong_json_type_is_data_error(self, tmp_path, capsys, field, value, message):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        records = out / "records.jsonl"
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = json.dumps({**json.loads(lines[2]), field: value}) + "\n"
        records.write_text("".join(lines), encoding="utf-8")
        pairs = (out / "pairs.jsonl").read_bytes()
        capsys.readouterr()
        assert main(["predict", "--config", str(config), "--rule"]) == 2
        assert capsys.readouterr().err == f"error: {records}:3: malformed row: {message}\n"
        assert main(["pairs", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {records}:3: malformed row: {message}\n"
        assert (out / "pairs.jsonl").read_bytes() == pairs
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize("command, artifact, fields, message", [
        (["predict", "--rule", "--pairs"], "pairs.jsonl", {"uri_1": ["a:1"], "uri_2": ["b:1"]},
         "uris must be strings: ['a:1'], ['b:1']"),
        (["evaluate", "--truth"], "truth.jsonl", {"uri_1": ["a:1"], "uri_2": ["b:1"]},
         "uris must be strings: ['a:1'], ['b:1']"),
        (["cluster", "--predictions"], "predictions.jsonl", {"uri_1": ["a:1"], "uri_2": ["b:1"]},
         "uris must be strings: ['a:1'], ['b:1']"),
        (["train", "--labeled"], "labeled.jsonl", {"raw_response": 5},
         "raw_response must be a string or null: 5"),
    ])
    def test_pair_row_with_wrong_json_type_is_data_error(self, tmp_path, capsys, command, artifact, fields, message):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                for cmd in ("ingest", "pairs", "label"):
                    assert main([cmd, "--config", str(config)]) == 0
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        assert main(["predict", "--config", str(config), "--rule"]) == 0
        (out / "truth.jsonl").write_bytes((out / "labeled.jsonl").read_bytes())
        path = out / artifact
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), **fields}) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main([command[0], "--config", str(config), *command[1:], str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: malformed row: {message}\n"

    def test_csv_field_over_the_limit_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        mrds = tmp_path / "mrds.csv"
        mrds.write_text(MRDS_CSV + "10310738," + "x" * 140_000 + ",51.96,7.63,Zinc,\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: {mrds}:6: malformed row: field larger than field limit (131072)\n"
        )
        assert not (tmp_path / "out" / "records.jsonl").exists()

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

    def test_train_that_diverges_is_data_error_and_saves_no_model(self, tmp_path, capsys):
        # no validation split, so no earlier epoch's weights can be kept
        config = write_config(tmp_path, matcher={"hyper": {"epochs": 3, "learning_rate": 1e300}},
                              split={"fractions": [0.8, 0.0, 0.2], "seed": 7})
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        keys = read_pair_keys(out / "pairs.jsonl")
        write_labeled_pairs([LabeledPair(k, i % 2, Provenance.LLM) for i, k in enumerate(keys)], out / "labeled.jsonl")
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: training diverged to non-finite weights (learning_rate 1e+300)\n"
        assert not (out / "model.json").exists()

    def test_predict_with_a_nan_model_is_data_error_naming_the_model(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        k = len(FEATURE_NAMES)
        model = ClassifierModel(
            weights=np.full(k, np.nan), bias=float("nan"), feature_means=np.zeros(k), feature_stds=np.ones(k),
            frozen_features=np.zeros(k, dtype=bool), hyper=TrainConfig(), feature_spec=FeatureSpec(),
        )
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(model_to_json_dict(model)), encoding="utf-8")  # bare NaN tokens
        capsys.readouterr()
        assert main(["predict", "--config", str(config), "--model", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: model weights must be finite: {[math.nan] * k}\n"
        assert not (tmp_path / "out" / "predictions.jsonl").exists()

    @pytest.mark.parametrize("threshold", [1.5, 0.0])
    def test_decision_threshold_outside_the_open_unit_interval_exits_1_before_any_input_is_read(
            self, tmp_path, capsys, threshold):
        config = write_config(tmp_path, matcher={"decision_threshold": threshold})
        assert main(["train", "--config", str(config)]) == 1  # no labeled pairs exist: a read would exit 2
        assert capsys.readouterr().err == (
            f"error: {config}: matcher: decision_threshold must lie in (0, 1): {threshold}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold", [1.5, 0.0])
    def test_predict_with_a_threshold_outside_the_open_unit_interval_is_data_error_naming_the_model(
            self, tmp_path, capsys, threshold):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        k = len(FEATURE_NAMES)
        model = ClassifierModel(
            weights=np.ones(k), bias=0.0, feature_means=np.zeros(k), feature_stds=np.ones(k),
            frozen_features=np.zeros(k, dtype=bool), hyper=TrainConfig(), feature_spec=FeatureSpec(),
            decision_threshold=threshold,
        )
        path = tmp_path / "out" / "model.json"
        path.write_text(json.dumps(model_to_json_dict(model)), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {path}: decision_threshold must lie in (0, 1): {threshold}\n"
        assert not (tmp_path / "out" / "predictions.jsonl").exists()

    def test_pairs_without_records_is_data_error_naming_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pairs", "--output-dir", str(out)]) == 2
        assert f"error: {out / 'records.jsonl'}: No such file or directory" in capsys.readouterr().err
        assert not (out / "pairs.jsonl").exists()
        assert (out / LOCK_FILE).read_bytes() == b""  # released

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

    @pytest.mark.parametrize("side", ["predictions", "truth"])
    def test_evaluate_with_a_repeated_key_is_data_error(self, tmp_path, capsys, side):
        out = tmp_path / "out"
        out.mkdir()
        ab, ac = PairKey("a", "b"), PairKey("a", "c")
        repeated = [LabeledPair(ab, 1, Provenance.PREDICTED), LabeledPair(ab, 0, Provenance.PREDICTED),
                    LabeledPair(ac, 0, Provenance.PREDICTED)]
        once = [LabeledPair(ab, 1, Provenance.PREDICTED), LabeledPair(ac, 0, Provenance.PREDICTED)]
        truth = tmp_path / "truth.jsonl"
        write_labeled_pairs(repeated if side == "predictions" else once, out / "predictions.jsonl")
        write_labeled_pairs(once if side == "predictions" else repeated, truth)
        assert main(["evaluate", "--output-dir", str(out), "--truth", str(truth)]) == 2
        assert f"error: repeated keys in {side}: [('a', 'b')]" in capsys.readouterr().err
        assert not (out / "evaluation.json").exists()

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

    def test_live_holder_blocks_second_run(self, tmp_path, capsys, descriptors):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        with _OutputLock(out):  # a second open of the file in this process conflicts like another run
            assert main(["ingest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: output directory is locked by another run (pid {os.getpid()}, {out / LOCK_FILE})\n"
        assert not (out / "records.jsonl").exists()
        opened, closed = descriptors
        assert len(opened) == 2 and sorted(closed) == sorted(opened)  # the refused run's too
        assert main(["ingest", "--config", str(config)]) == 0

    def test_holder_without_a_pid_in_the_file_is_pid_unknown(self, tmp_path, capsys):
        """The file is empty between a new holder's lock and its pid write."""
        out = tmp_path / "out"
        out.mkdir()
        with _OutputLock(out) as held:
            held.path.write_bytes(b"")
            assert main(["pairs", "--output-dir", str(out)]) == 1
        assert "locked by another run (pid unknown, " in capsys.readouterr().err

    def test_holder_writes_its_pid_and_empties_the_file_on_release(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_FILE).write_text("4194304 99999999999", encoding="utf-8")  # a killed holder's, longer
        with _OutputLock(out) as held:
            assert held.path.read_text(encoding="utf-8") == str(os.getpid())
        assert held.path.read_bytes() == b""  # kept, not deleted: see _OutputLock

    def test_failed_stage_releases_the_lock(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pairs", "--output-dir", str(out)]) == 2  # no records.jsonl
        with _OutputLock(out):
            pass

    @pytest.mark.parametrize("text", ["{pid} 12345", "{pid}", "{dead}", "not a pid", "99999999999999999999"])
    def test_lock_file_text_is_no_lock(self, tmp_path, text):
        """Whatever an unheld lock file holds (the old "<pid> <start>" format,
        this live pid, a dead pid, garbage), a run takes it at once."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)  # reaped, so its pid names no running process
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_FILE).write_text(text.format(pid=os.getpid(), dead=child.pid), encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        assert (out / "records.jsonl").exists()
        assert (out / LOCK_FILE).read_bytes() == b""

    @pytest.mark.skipif(cli.fcntl is None, reason="flock is the POSIX lock")
    @pytest.mark.parametrize("code", [errno.ENOLCK, errno.EIO])
    def test_lock_error_other_than_held_is_data_error_naming_the_file(
            self, tmp_path, capsys, monkeypatch, descriptors, code):
        """Only a held lock reads as "locked" (exit 1); a filesystem without
        locks is exit 2, and the descriptor is closed."""
        config = write_config(tmp_path)
        out = tmp_path / "out"

        def no_locks(fd, operation):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(cli.fcntl, "flock", no_locks)
        assert main(["ingest", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {out / LOCK_FILE}: {os.strerror(code)}\n"
        opened, closed = descriptors
        assert len(opened) == 1 and closed == opened
        assert not (out / "records.jsonl").exists()

    def test_killed_holder_leaves_the_directory_usable(self, tmp_path, capsys):
        """A holder killed with SIGKILL runs no cleanup; the system drops its
        lock, so the next run takes the directory with no hand-editing."""
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from minerlink.cli import _OutputLock\n"
            "with _OutputLock(Path(sys.argv[1])):\n"
            "    print('ready', flush=True)\n"
            "    time.sleep(600)\n"
        )
        holder = subprocess.Popen([sys.executable, "-c", script, str(out)], stdout=subprocess.PIPE,
                                  text=True, env=_env_with_package())
        try:
            assert holder.stdout.readline() == "ready\n"
            assert main(["ingest", "--config", str(config)]) == 1
            assert f"locked by another run (pid {holder.pid}, " in capsys.readouterr().err
        finally:
            holder.kill()  # SIGKILL
            holder.stdout.close()
            holder.wait(timeout=60)
        assert (out / LOCK_FILE).read_text(encoding="utf-8") == str(holder.pid)  # left as the kill found it
        assert main(["ingest", "--config", str(config)]) == 0
        assert (out / "records.jsonl").exists()

def _set(doc: dict, path: str, value) -> dict:
    """``doc`` with the value at a dotted key path (list indices as digits) replaced."""
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


_DELETE = object()

BAD_CONFIGS = [
    ("matcher.feature_spec", {"name_field": ["site_name"]}, "matcher.feature_spec.name_field: unknown key"),
    ("matcher.feature_spec.name_fields", "site_name", 'matcher.feature_spec.name_fields: expected an array, got "site_name"'),
    ("matcher.hyper.epoch", 3, "matcher.hyper.epoch: unknown key"),
    ("matcher.rule.max_km", 5, "matcher.rule.max_km: unknown key"),
    ("labeler.modle", "llama3-8b", "labeler.modle: unknown key"),
    ("matcher.rule.missing_location_policy", "ignore",
     "matcher.rule.missing_location_policy: expected one of ['reject', 'text_only'], got \"ignore\""),
    ("split.fractions", 0.8, "split.fractions: expected an array, got 0.8"),
    ("matcher.hyper.epochs", 2.5, "matcher.hyper.epochs: expected an integer, got 2.5"),
    ("matcher.decision_threshold", "0.5", 'matcher.decision_threshold: expected a number, got "0.5"'),
    ("datasets.0.schema.delimiter", "||", "datasets[0].schema: delimiter must be one character: '||'"),
    ("datasets.0.path", _DELETE, "datasets[0].path: missing"),
    ("matcher.rule.max_distance_km", 0, "matcher.rule: max_distance_km must be positive: 0"),
    ("split.seed", -1, "split: seed must be >= 0: -1"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("path, value, message", BAD_CONFIGS, ids=[c[0] for c in BAD_CONFIGS])
    def test_bad_config_exits_1_naming_file_and_key(self, tmp_path, capsys, path, value, message):
        config = write_config(tmp_path)
        doc = _set(json.loads(config.read_text(encoding="utf-8")), path, value)
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected before any stage ran

    def test_split_fractions_not_a_triple_exits_1_naming_split(self, tmp_path, capsys):
        config = write_config(tmp_path, split={"fractions": [0.5, 0.5]})
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: split: fractions must be a (train, val, test) triple\n"
        assert not (tmp_path / "out").exists()

    def test_ingest_without_datasets_exits_1_before_the_output_directory_is_made(self, tmp_path, capsys):
        config = write_config(tmp_path, datasets=[])
        assert main(["ingest", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: config has no datasets to ingest\n"
        assert not (tmp_path / "out").exists()

    def test_bad_config_in_a_subprocess_prints_no_traceback(self, tmp_path):
        config = write_config(tmp_path, matcher={"hyper": {"epoch": 3}})
        done = subprocess.run([sys.executable, "-m", "minerlink.cli", "pairs", "--config", str(config)],
                              capture_output=True, text=True, env=_env_with_package(), timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {config}: matcher.hyper.epoch: unknown key")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("section, value, message", [
        ("hyper", {"epochs": 5, "epoch": 5}, "hyper.epoch: unknown key"),
        ("hyper", {"epochs": "5"}, 'hyper.epochs: expected an integer, got "5"'),
        ("feature_spec", {"name_fields": "site_name"}, 'feature_spec.name_fields: expected an array'),
        ("feature_spec", {"name_field": ["site_name"]}, "feature_spec.name_field: unknown key"),
    ])
    def test_bad_model_section_exits_2_naming_the_model(self, tmp_path, capsys, section, value, message):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["pairs", "--config", str(config)]) == 0
        k = len(FEATURE_NAMES)
        model = ClassifierModel(
            weights=np.zeros(k), bias=0.0, feature_means=np.zeros(k), feature_stds=np.ones(k),
            frozen_features=np.zeros(k, dtype=bool), hyper=TrainConfig(), feature_spec=FeatureSpec(),
        )
        doc = model_to_json_dict(model)
        doc[section] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--config", str(config), "--model", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
        assert not (tmp_path / "out" / "predictions.jsonl").exists()

    def test_seed_flag_overrides_only_the_split_seed(self, tmp_path):
        config = write_config(tmp_path, split={"fractions": [0.6, 0.2, 0.2], "seed": 7})
        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                for cmd in ("ingest", "pairs", "label"):
                    assert main([cmd, "--config", str(config)]) == 0
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        out = tmp_path / "out"
        splits = [out / f"split_{name}.jsonl" for name in ("train", "val", "test")]
        assert main(["train", "--config", str(config), "--seed", "3"]) == 0
        overridden = [p.read_bytes() for p in splits]
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["split"]["seed"] = 3
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 0
        assert [p.read_bytes() for p in splits] == overridden
        assert [len(b.splitlines()) for b in overridden] == [9, 4, 2]  # largest remainder per class


class TestRuntimeCommand:
    @pytest.mark.parametrize("row,message", [("10,abc", "malformed row: could not convert"),
                                             ("10", "malformed row: not enough values"),
                                             ("10,nan", "malformed row: elapsed time must be finite and non-negative: nan"),
                                             ("10,inf", "malformed row: elapsed time must be finite and non-negative: inf")])
    def test_malformed_measurement_row_is_data_error(self, tmp_path, capsys, row, message):
        measurements = tmp_path / "m.csv"
        measurements.write_text(f"record_count,elapsed_seconds\n{row}\n", encoding="utf-8")
        assert main(["runtime", "--measurements", str(measurements)]) == 2
        assert f"error: {measurements}:2: {message}" in capsys.readouterr().err

    def test_measurement_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys):
        measurements = tmp_path / "m.csv"
        measurements.write_text(f"record_count,elapsed_seconds\n10,0.5\n20,{'1' * 140_000}\n", encoding="utf-8")
        assert main(["runtime", "--measurements", str(measurements)]) == 2
        assert capsys.readouterr().err == (
            f"error: {measurements}:3: malformed row: field larger than field limit (131072)\n"
        )

    def test_measurements_not_utf8_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        measurements = tmp_path / "m.csv"
        measurements.write_bytes(b"record_count,elapsed_seconds\n10,0.5\n20,\xff\n")
        assert main(["runtime", "--measurements", str(measurements)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {measurements}:3: malformed row: 'utf-8' codec")

    def test_bad_sizes_is_usage_error(self, tmp_path, capsys):
        assert main(["runtime", "--benchmark", "--sizes", "3,x", "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: bad --sizes value: invalid literal for int()")

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
        capsys.readouterr()
        code = main(["runtime", "--config", str(config), "--benchmark", "--sizes", "3,5"])
        assert code == 0
        out = tmp_path / "out"
        lines = (out / "measurements.csv").read_text().splitlines()
        assert lines[0] == "record_count,elapsed_seconds"
        assert len(lines) == 3 and all(len(line.split(",")) == 2 for line in lines)
        # the noise of each size sits beside k: slowest / fastest timed pass
        fit_line = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"runtime: k=\S+ s/\(n\^2-n\); slowest/fastest of 3 passes: n=3 \S+, n=5 \S+; "
                            r"rms residual=.*", fit_line), fit_line
        assert all(float(x) >= 1.0 for x in re.findall(r"n=\d+ ([0-9.e+]+)", fit_line))


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

    def test_numpy_free_artifacts_pinned_by_hash(self, tmp_path):
        # The stages below involve no float summation, so their bytes are the
        # same on every platform; model.json and the classifier predictions
        # depend on numpy's summation order and are not pinned.
        config = write_config(tmp_path)
        out = tmp_path / "out"
        with scripted_server() as server:
            os.environ["MINERLINK_LLM_BASE_URL"] = server.base_url
            try:
                for cmd in ("ingest", "pairs", "label"):
                    assert main([cmd, "--config", str(config)]) == 0
            finally:
                del os.environ["MINERLINK_LLM_BASE_URL"]
        assert main(["predict", "--config", str(config), "--rule"]) == 0
        assert main(["evaluate", "--config", str(config), "--truth", str(out / "labeled.jsonl")]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("records.jsonl", "pairs.jsonl", "labeled.jsonl", "predictions.jsonl", "evaluation.json")
        }
        assert digests == {
            "records.jsonl": "9e849e1c518df9fdb17c32452a42360df5aa70d2a5768130e12214497173af13",
            "pairs.jsonl": "a10879af6b80b4c5a4b6c1903a2874bfb26d177bb49c55099b318bf42ac91ab5",
            "labeled.jsonl": "730c7f7637a363ea22c1e9f7dd3f83b82d3fac3365e7fc3193f1af9426f185fb",
            "predictions.jsonl": "5de201f1244c1b40b020e13cee98d8f4a97d5f70865fd9144b0b7b84fe6efe13",
            "evaluation.json": "1f8c334bf70be174f7fc8a0c6731e0aaeeff6c22ac8b86b0cb84e072f4cd09c0",
        }
