from __future__ import annotations

import pytest

from minerlink.errors import DataError
from minerlink.serialize import (
    PROMPT_CONSTRAINT_LINE,
    build_pair_prompt,
    serialize_ditto_entity,
    serialize_ditto_pair,
    serialize_prompt_entity,
)

from conftest import DATA_DIR, make_record


class TestPromptEntity:
    def test_two_attribute_record(self):
        r = make_record("m:1", [("site_name", "Yellow Pine"), ("state", "ID")])
        out = serialize_prompt_entity(r)
        assert out == "site_name:Yellow Pine state:ID"

    def test_single_pair(self):
        r = make_record("m:1", [("name", "Eagle")])
        assert serialize_prompt_entity(r) == "name:Eagle"

    def test_null_attribute_absent(self):
        # the second source column was null, so the record carries one pair
        r = make_record("m:1", [("name", "Eagle")])
        assert serialize_prompt_entity(r).count(":") == 1

    def test_empty_record_rejected(self):
        with pytest.raises(DataError, match="no attributes"):
            serialize_prompt_entity(make_record("m:1", []))

    def test_no_col_val_tokens(self, yellow_pine_mrds):
        text = serialize_prompt_entity(yellow_pine_mrds)
        assert "[COL]" not in text and "[VAL]" not in text


class TestPairPrompt:
    def test_template_verbatim(self):
        a = make_record("m:1", [("name", "Eagle")])
        b = make_record("u:1", [("name", "Eagle Mine")])
        assert build_pair_prompt(a, b) == (
            "Entity A is name:Eagle.\n"
            "Entity B is name:Eagle Mine.\n"
            "Do the two mine descriptions refer to the same real-world mine. "
            "Answer with 'Yes' if they do and 'No' if they do not.\n"
            "Answer only in Yes or No."
        )

    def test_always_four_lines(self, yellow_pine_mrds, yellow_pine_usmin):
        assert build_pair_prompt(yellow_pine_mrds, yellow_pine_usmin).count("\n") == 3

    def test_same_record_twice_is_well_formed(self, yellow_pine_mrds):
        prompt = build_pair_prompt(yellow_pine_mrds, yellow_pine_mrds)
        assert len(prompt.split("\n")) == 4

    def test_colon_inside_value_passes_through(self):
        a = make_record("m:1", [("ratio", "1:2")])
        prompt = build_pair_prompt(a, a)
        lines = prompt.split("\n")
        assert len(lines) == 4
        assert lines[0] == "Entity A is ratio:1:2."

    def test_constant_tail_lines(self, yellow_pine_mrds, yellow_pine_usmin):
        p1 = build_pair_prompt(yellow_pine_mrds, yellow_pine_usmin).split("\n")
        p2 = build_pair_prompt(yellow_pine_usmin, yellow_pine_mrds).split("\n")
        assert p1[2:] == p2[2:]
        assert p1[3] == PROMPT_CONSTRAINT_LINE


class TestDittoEntity:
    def test_single_attribute(self):
        r = make_record("m:1", [("name", "Eagle Mine")])
        out = serialize_ditto_entity(r)
        assert out == "[COL]name [VAL]Eagle Mine"

    def test_two_attributes(self):
        r = make_record("m:1", [("a", "1"), ("b", "2")])
        assert serialize_ditto_entity(r) == "[COL]a [VAL]1 [COL]b [VAL]2"

    def test_value_containing_marker_unescaped(self):
        r = make_record("m:1", [("note", "contains [VAL] literally")])
        assert serialize_ditto_entity(r) == "[COL]note [VAL]contains [VAL] literally"

    def test_empty_record_rejected(self):
        with pytest.raises(DataError):
            serialize_ditto_entity(make_record("m:1", []))

    def test_marker_count_tracks_attributes(self, yellow_pine_mrds):
        text = serialize_ditto_entity(yellow_pine_mrds)
        n = len(yellow_pine_mrds.attributes)
        assert text.count("[COL]") == n and text.count("[VAL]") == n
        assert text.startswith("[COL]")


class TestDittoPair:
    def test_pair_format(self):
        a = make_record("m:1", [("n", "x")])
        b = make_record("u:1", [("n", "y")])
        assert serialize_ditto_pair(a, b) == "[CLS] [COL]n [VAL]x [SEP] [COL]n [VAL]y [SEP]"

    def test_order_sensitive(self, yellow_pine_mrds, yellow_pine_usmin):
        assert serialize_ditto_pair(yellow_pine_mrds, yellow_pine_usmin) != serialize_ditto_pair(
            yellow_pine_usmin, yellow_pine_mrds
        )

    def test_identical_records_give_equal_segments(self, yellow_pine_mrds):
        text = serialize_ditto_pair(yellow_pine_mrds, yellow_pine_mrds)
        body = text.removeprefix("[CLS] ").removesuffix(" [SEP]")
        first, second = body.split(" [SEP] ")
        assert first == second

    def test_token_counts(self, yellow_pine_mrds, yellow_pine_usmin):
        text = serialize_ditto_pair(yellow_pine_mrds, yellow_pine_usmin)
        assert text.count("[CLS]") == 1
        assert text.count("[SEP]") == 2


class TestDeterminism:
    def test_equal_records_serialize_identically(self, yellow_pine_mrds):
        clone = make_record(
            yellow_pine_mrds.uri,
            yellow_pine_mrds.attributes,
            location=yellow_pine_mrds.location,
            source_id=yellow_pine_mrds.source_id,
        )
        assert serialize_prompt_entity(clone) == serialize_prompt_entity(yellow_pine_mrds)
        assert serialize_ditto_entity(clone) == serialize_ditto_entity(yellow_pine_mrds)


class TestGoldenFiles:
    def test_prompt_pair_golden(self, yellow_pine_mrds, yellow_pine_usmin):
        golden = (DATA_DIR / "prompt_pair.golden.txt").read_bytes()
        produced = build_pair_prompt(yellow_pine_mrds, yellow_pine_usmin).encode("utf-8")
        assert produced == golden

    def test_ditto_pair_golden(self, yellow_pine_mrds, yellow_pine_usmin):
        golden = (DATA_DIR / "ditto_pair.golden.txt").read_bytes()
        produced = serialize_ditto_pair(yellow_pine_mrds, yellow_pine_usmin).encode("utf-8")
        assert produced == golden
