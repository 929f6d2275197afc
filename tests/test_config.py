from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from minerlink.cli import DatasetEntry, MatcherConfig, PipelineConfig, load_config
from minerlink.config import decode, encode
from minerlink.errors import ConfigError
from minerlink.llm_labeler import LabelerConfig
from minerlink.matcher import FeatureSpec, MissingLocationPolicy, RuleConfig, TrainConfig
from minerlink.pairing import SplitSpec
from minerlink.records import SchemaConfig

README = Path(__file__).parent.parent / "README.md"


class TestDecode:
    def test_defaults_fill_absent_keys(self):
        assert decode(TrainConfig, {}) == TrainConfig()
        assert decode(PipelineConfig, {}) == PipelineConfig()

    def test_list_becomes_tuple_and_string_becomes_enum(self):
        spec = decode(FeatureSpec, {"name_fields": ["a"], "name_fields_by_source": {"s": ["b", "c"]}})
        assert spec.name_fields == ("a",)
        assert spec.name_fields_by_source == {"s": ("b", "c")}
        rule = decode(RuleConfig, {"missing_location_policy": "reject"})
        assert rule.missing_location_policy is MissingLocationPolicy.REJECT

    def test_int_fits_a_float_field_and_stays_an_int(self):
        hyper = decode(TrainConfig, {"learning_rate": 1})
        assert hyper.learning_rate == 1 and type(hyper.learning_rate) is int
        assert json.dumps(encode(hyper)) == json.dumps(encode(TrainConfig(learning_rate=1)))

    def test_float_fields_take_every_finite_float(self):
        assert decode(TrainConfig, {"learning_rate": 1.7976931348623157e308}).learning_rate == 1.7976931348623157e308
        assert decode(TrainConfig, {"learning_rate": 10**308}).learning_rate == 10**308

    @pytest.mark.parametrize("tp, doc, message", [
        (TrainConfig, {"epochs": True}, "epochs: expected an integer, got true"),
        (TrainConfig, {"learning_rate": False}, "learning_rate: expected a number, got false"),
        (TrainConfig, {"epochs": 2.0}, "epochs: expected an integer, got 2.0"),
        (SchemaConfig, {"keep_id_attribute": 1}, "keep_id_attribute: expected a boolean, got 1"),
        (SchemaConfig, {"id_column": 7}, "id_column: expected a string, got 7"),
        (SchemaConfig, {"null_markers": ["", 0]}, r"null_markers\[1\]: expected a string, got 0"),
        (FeatureSpec, {"name_fields_by_source": {"s": "b"}}, "name_fields_by_source.s: expected an array"),
        (RuleConfig, {"missing_location_policy": 1}, r"expected one of \['reject', 'text_only'\], got 1"),
        (SplitSpec, [0.8, 0.2], r"expected an object, got \[0.8, 0.2\]"),
        (TrainConfig, {"epochs": 1, "epoch": 2, "seeds": 3}, r"^epoch: unknown key \(known: epochs, "),
        (LabelerConfig, {"base_url": "http://x"}, "^model: missing$"),
        (TrainConfig, {"batch_size": 0}, "^epochs must be >= 0 and batch_size >= 1$"),
        (PipelineConfig, {"labeler": {"base_url": "http://x", "model": "m", "temperature": float("inf")}},
         r"^labeler\.temperature: expected a finite number, got Infinity$"),
        (PipelineConfig, {"labeler": {"base_url": "http://x", "model": "m", "temperature": float("nan")}},
         r"^labeler\.temperature: expected a finite number, got NaN$"),
        (PipelineConfig, {"labeler": {"base_url": "http://x", "model": "m", "temperature": -0.5}},
         r"^labeler: temperature must be >= 0: -0\.5$"),
        (PipelineConfig, {"labeler": {"base_url": "http://x", "model": "m", "timeout_s": float("inf")}},
         r"^labeler\.timeout_s: expected a finite number, got Infinity$"),
        (TrainConfig, {"learning_rate": float("inf")}, r"^learning_rate: expected a finite number, got Infinity$"),
        (PipelineConfig, {"matcher": {"hyper": {"learning_rate": float("-inf")}}},
         r"^matcher\.hyper\.learning_rate: expected a finite number, got -Infinity$"),
        (PipelineConfig, {"matcher": {"decision_threshold": float("inf")}},
         r"^matcher\.decision_threshold: expected a finite number, got Infinity$"),
        (PipelineConfig, {"matcher": {"rule": {"max_distance_km": 10**400}}},
         r"^matcher\.rule\.max_distance_km: expected a finite number, got 1000000000000000000000000000000000000\.\.\.$"),
        (PipelineConfig, {"labeler": {"base_url": "http://x", "model": "m", "timeout_s": 1e12}},
         r"^labeler: timeout_s must be > 0 and <= 9223372036\.0: 1000000000000\.0$"),
    ])
    def test_rejects(self, tp, doc, message):
        with pytest.raises(ConfigError, match=message):
            decode(tp, doc)

    def test_errors_name_the_key_path(self):
        doc = {"matcher": {"hyper": {"epoch": 3}}}
        with pytest.raises(ConfigError, match=r"^matcher\.hyper\.epoch: unknown key"):
            decode(PipelineConfig, doc)
        doc = {"datasets": [{"path": "a.csv", "source_id": "a"}, {"source_id": "b"}]}
        with pytest.raises(ConfigError, match=r"^datasets\[1\]\.path: missing$"):
            decode(PipelineConfig, doc)
        doc = {"matcher": {"rule": {"max_distance_km": 0}}}
        with pytest.raises(ConfigError, match=r"^matcher\.rule: max_distance_km must be positive: 0$"):
            decode(PipelineConfig, doc)

    def test_long_values_are_shortened(self):
        with pytest.raises(ConfigError, match=r'got \["x+\.\.\.$'):
            decode(TrainConfig, {"seed": ["x" * 100]})

    def test_optional_takes_null(self):
        assert decode(SchemaConfig, {"id_column": None}) == SchemaConfig()
        assert decode(PipelineConfig, {"labeler": None}).labeler is None


class TestEncode:
    @pytest.mark.parametrize("value", [
        SchemaConfig(id_column="id", exclude_columns=("a", "b"), null_markers=("", "NA"), delimiter=";"),
        FeatureSpec(name_fields=("n",), name_fields_by_source={"usmin": ("ftr_name",)}),
        RuleConfig(max_distance_km=8, missing_location_policy=MissingLocationPolicy.REJECT),
        TrainConfig(epochs=3, learning_rate=0.05, seed=9),
        SplitSpec(fractions=(0.6, 0.2, 0.2), seed=5),
        LabelerConfig(base_url="http://x", model="m", cache_path="c.jsonl"),
        PipelineConfig(
            datasets=(DatasetEntry("a.csv", "a", SchemaConfig(id_column="id")),),
            matcher=MatcherConfig(decision_threshold=0.4, feature_spec=FeatureSpec(name_fields=("x",))),
            output_dir="out",
        ),
    ])
    def test_round_trip_through_json(self, value):
        assert decode(type(value), json.loads(json.dumps(encode(value)))) == value

    def test_field_order_and_json_types(self):
        assert encode(TrainConfig()) == {
            "epochs": 10, "batch_size": 32, "learning_rate": 0.1, "weight_decay": 0.01, "seed": 0,
        }
        assert encode(RuleConfig())["missing_location_policy"] == "text_only"
        assert encode(FeatureSpec(name_fields_by_source={"s": ("a",)}))["name_fields_by_source"] == {"s": ["a"]}


class TestReadmeConfig:
    """The README's configuration example decodes section by section."""

    def readme_config(self) -> dict:
        text = README.read_text(encoding="utf-8")
        section = text[text.index("### Configuration"):]
        block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
        return json.loads(block[1])

    def test_every_section_decodes(self):
        doc = self.readme_config()
        assert set(doc) == set(PipelineConfig.__dataclass_fields__)
        assert set(doc["matcher"]) == set(MatcherConfig.__dataclass_fields__)
        for entry in doc["datasets"]:
            decode(DatasetEntry, entry, "datasets")
        decode(LabelerConfig, doc["labeler"], "labeler")
        decode(SplitSpec, doc["split"], "split")
        matcher = decode(MatcherConfig, doc["matcher"], "matcher")
        # the documented values are the defaults
        assert encode(matcher.hyper) == encode(TrainConfig()) == doc["matcher"]["hyper"]
        assert encode(matcher.rule) == encode(RuleConfig()) == doc["matcher"]["rule"]

    def test_whole_file_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.readme_config()), encoding="utf-8")
        config = load_config(path)
        assert config.output_dir == "out"
        assert len(config.datasets) == 2


class TestLoadConfig:
    @pytest.mark.parametrize("text, message", [
        ("[]", "expected an object, got []"),
        ('{"matcher": {"rule": {"min_cosine": 2}}}', "matcher.rule: min_cosine must lie in [0, 1]: 2"),
    ])
    def test_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, message", [
        (b'{"output_dir": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b'{"matcher": {"rule": {"max_distance_km": NaN}}}', "NaN is not a JSON value"),
        (b'{"matcher": {"hyper": {"weight_decay": -Infinity}}}', "-Infinity is not a JSON value"),
    ])
    def test_unreadable_json_is_a_config_error(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=f"^{path}: config file is not valid JSON: {message}"):
            load_config(path)

    def test_labeler_base_url_may_come_from_the_environment(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"labeler": {"model": "m"}}', encoding="utf-8")
        assert load_config(path).labeler == LabelerConfig(base_url="", model="m")
