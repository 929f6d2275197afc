from __future__ import annotations

import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minerlink import records
from minerlink.errors import DataError
from minerlink.records import JSONL_ROW_ERRORS, open_utf8, row_error
from minerlink.pairing import (
    _labeled_row,
    _pair_key_row,
    LabeledPair,
    PairKey,
    Provenance,
    SplitSpec,
    enumerate_pairs,
    pair_count,
    read_labeled_pairs,
    read_pair_keys,
    resolve_uris,
    stratified_split,
    subsample_sweep,
    write_labeled_pairs,
    write_pair_keys,
)

from conftest import make_record


def synthetic_records(n, source="s"):
    return [make_record(f"{source}:{i:05d}", [("name", f"site {i}")]) for i in range(n)]


def labeled_pool(n_match, n_nonmatch):
    pairs = []
    for i in range(n_match):
        pairs.append(LabeledPair(PairKey(f"m:{i:06d}a", f"m:{i:06d}b"), 1, Provenance.LLM))
    for i in range(n_nonmatch):
        pairs.append(LabeledPair(PairKey(f"n:{i:06d}a", f"n:{i:06d}b"), 0, Provenance.LLM))
    return pairs


class TestPairKey:
    """PairKey and LabeledPair rows: checked on every way in, immutable, and
    with the messages, repr and hash the frozen dataclasses had."""

    def test_of_canonicalizes_order(self):
        assert PairKey.of("b", "a") == PairKey("a", "b")

    @pytest.mark.parametrize("build, message", [
        (lambda: PairKey("b", "a"), "pair key not canonical: 'b' !< 'a'"),
        (lambda: PairKey("a", "a"), "pair key not canonical: 'a' !< 'a'"),
        (lambda: PairKey.of("a", "a"), "self-pair not allowed: 'a'"),
        (lambda: LabeledPair(PairKey("a", "b"), 2, Provenance.LLM), "label must be 0 or 1, got 2"),
        (lambda: LabeledPair(PairKey("a", "b"), "1", Provenance.LLM), "label must be 0 or 1, got '1'"),
        (lambda: LabeledPair(key=PairKey("a", "b"), label=-1, provenance=Provenance.LLM), "label must be 0 or 1, got -1"),
    ])
    def test_constructor_errors_unchanged(self, build, message):
        with pytest.raises(DataError) as info:
            build()
        assert str(info.value) == message

    def test_repr_is_the_dataclass_text(self):
        key = PairKey("a", "b")
        assert repr(key) == "PairKey(uri_1='a', uri_2='b')"
        assert repr(LabeledPair(key, 1, Provenance.LLM, "Yes")) == (
            "LabeledPair(key=PairKey(uri_1='a', uri_2='b'), label=1, "
            "provenance=<Provenance.LLM: 'LLM'>, raw_response='Yes')"
        )
        assert repr(LabeledPair(key=key, label=0, provenance=Provenance.PREDICTED)) == (
            "LabeledPair(key=PairKey(uri_1='a', uri_2='b'), label=0, "
            "provenance=<Provenance.PREDICTED: 'Predicted'>, raw_response=None)"
        )

    def test_hash_and_equality_are_the_field_tuples(self):
        key = PairKey("a", "b")
        pair = LabeledPair(key, 1, Provenance.LLM)
        assert hash(key) == hash(("a", "b")) and key == ("a", "b")
        assert hash(pair) == hash((("a", "b"), 1, Provenance.LLM, None)) and pair == (key, 1, Provenance.LLM, None)
        assert (key.uri_1, key.uri_2, pair.key, pair.label, pair.provenance, pair.raw_response) == (
            "a", "b", key, 1, Provenance.LLM, None)

    def test_fields_cannot_be_set(self):
        key = PairKey("a", "b")
        pair = LabeledPair(key, 1, Provenance.LLM)
        for row, field in ((key, "uri_1"), (pair, "label"), (pair, "other")):
            with pytest.raises(AttributeError):
                setattr(row, field, "c")
        assert not hasattr(key, "__dict__") and not hasattr(pair, "__dict__")

    def test_replace_and_make_run_the_checks(self):
        key = PairKey("a", "b")
        pair = LabeledPair(key, 1, Provenance.LLM)
        assert key._replace(uri_2="c") == PairKey("a", "c")
        assert type(pair._replace(label=0)) is LabeledPair
        with pytest.raises(DataError, match="not canonical: 'c' !< 'b'"):
            key._replace(uri_1="c")
        with pytest.raises(DataError, match="not canonical"):
            PairKey._make(["b", "a"])
        with pytest.raises(DataError, match="label must be 0 or 1, got 5"):
            pair._replace(label=5)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_validates(self, protocol):
        pair = LabeledPair(PairKey("a", "b"), 1, Provenance.LLM, "Yes")
        back = pickle.loads(pickle.dumps(pair, protocol))
        assert back == pair and type(back) is LabeledPair and type(back.key) is PairKey
        # the same bytes with the first uri changed to "c" ("c" !< "b")
        data = pickle.dumps(PairKey("a", "b"), protocol)
        spelled = [b"\x8c\x01a", b"X\x01\x00\x00\x00a"]  # short and long unicode opcodes
        tampered = next(data.replace(s, s[:-1] + b"c", 1) for s in spelled if s in data)
        with pytest.raises(DataError, match="not canonical: 'c' !< 'b'"):
            pickle.loads(tampered)


class TestEnumerate:
    def test_387_records_give_74691_pairs(self):
        assert len(enumerate_pairs(synthetic_records(387))) == 74_691

    def test_24_records_give_276_pairs(self):
        assert len(enumerate_pairs(synthetic_records(24))) == 276

    def test_single_record_gives_no_pairs(self):
        assert enumerate_pairs(synthetic_records(1)) == []

    def test_pools_across_sources(self):
        keys = enumerate_pairs(synthetic_records(3, "a") + synthetic_records(2, "b"))
        assert len(keys) == pair_count(5)
        cross = [k for k in keys if k.uri_1.startswith("a") and k.uri_2.startswith("b")]
        assert len(cross) == 6

    def test_sorted_canonical_no_duplicates(self):
        keys = enumerate_pairs(synthetic_records(20))
        assert keys == sorted(keys, key=lambda k: (k.uri_1, k.uri_2))
        assert len(set(keys)) == len(keys)
        assert all(k.uri_1 < k.uri_2 for k in keys)

    def test_keys_equal_the_checked_construction(self):
        records = synthetic_records(4, "b") + synthetic_records(3, "a") + [make_record("a:\U0001f600", [])]
        keys = enumerate_pairs(records)
        uris = sorted(r.uri for r in records)
        assert keys == [PairKey(uris[i], uris[j]) for i in range(len(uris)) for j in range(i + 1, len(uris))]
        assert all(type(k) is PairKey for k in keys)

    def test_duplicate_uri_rejected(self):
        records = synthetic_records(3) + synthetic_records(1)
        with pytest.raises(DataError, match="duplicate uris"):
            enumerate_pairs(records)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=30, deadline=None)
    def test_count_is_n_choose_2(self, n):
        assert len(enumerate_pairs(synthetic_records(n))) == n * (n - 1) // 2


class TestResolveUris:
    def test_mapping_or_records_give_the_named_records(self):
        records = synthetic_records(4)
        keys = [PairKey("s:00000", "s:00002"), PairKey("s:00002", "s:00003")]
        expected = {r.uri: r for r in records if r.uri != "s:00001"}
        assert resolve_uris(keys, records) == expected
        assert resolve_uris(keys, {r.uri: r for r in records}) == expected

    def test_unknown_uris_named_sorted(self):
        keys = [PairKey("s:00000", "z:1"), PairKey("a:1", "s:00000")]
        with pytest.raises(DataError, match=r"^unresolved uris in pair keys: \['a:1', 'z:1'\]$"):
            resolve_uris(keys, synthetic_records(2))

    def test_duplicate_records_rejected(self):
        with pytest.raises(DataError, match="duplicate uris"):
            resolve_uris([], synthetic_records(2) + synthetic_records(1))


class TestStratifiedSplit:
    def test_tungsten_shaped_allocation(self):
        # 23 matches: ideals (18.4, 2.3, 2.3) -> largest remainder gives train the spare
        # 74,668 non-matches: ideals (59734.4, 7466.8, 7466.8) -> val and test round up
        pool = labeled_pool(23, 74_668)
        train, val, test = stratified_split(pool, SplitSpec((0.8, 0.1, 0.1), seed=11))
        by_class = lambda part, c: sum(p.label == c for p in part)
        assert by_class(train, 1) == 19
        assert by_class(val, 1) == 2 and by_class(test, 1) == 2
        assert by_class(train, 0) == 59_734
        assert by_class(val, 0) == 7_467 and by_class(test, 0) == 7_467
        assert len(train) + len(val) + len(test) == len(pool)

    def test_all_train_fractions(self):
        pool = labeled_pool(3, 5)
        train, val, test = stratified_split(pool, SplitSpec((1.0, 0.0, 0.0), seed=0))
        assert len(train) == 8 and not val and not test

    def test_deterministic_given_seed(self):
        pool = labeled_pool(13, 91)
        first = stratified_split(pool, SplitSpec(seed=42))
        second = stratified_split(pool, SplitSpec(seed=42))
        assert first == second

    def test_seed_changes_partition(self):
        pool = labeled_pool(13, 91)
        assert stratified_split(pool, SplitSpec(seed=1)) != stratified_split(pool, SplitSpec(seed=2))

    def test_disjoint_and_exhaustive(self):
        pool = labeled_pool(7, 29)
        parts = stratified_split(pool, SplitSpec(seed=5))
        combined = [p for part in parts for p in part]
        assert len(combined) == len(pool)
        assert {p.key for p in combined} == {p.key for p in pool}

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="empty"):
            stratified_split([], SplitSpec())

    def test_missing_class_allowed(self):
        pool = labeled_pool(0, 10)
        train, val, test = stratified_split(pool, SplitSpec(seed=0))
        assert len(train) + len(val) + len(test) == 10

    @given(
        n_match=st.integers(min_value=0, max_value=200),
        n_nonmatch=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_class_counts_within_one_of_ideal(self, n_match, n_nonmatch, seed):
        pool = labeled_pool(n_match, n_nonmatch)
        if not pool:
            return
        fractions = (0.8, 0.1, 0.1)
        parts = stratified_split(pool, SplitSpec(fractions, seed=seed))
        for label, total in ((1, n_match), (0, n_nonmatch)):
            for part, fraction in zip(parts, fractions):
                got = sum(p.label == label for p in part)
                assert abs(got - fraction * total) <= 1

    def test_bad_fractions_rejected(self):
        with pytest.raises(DataError):
            SplitSpec((0.5, 0.2, 0.2))
        with pytest.raises(DataError):
            SplitSpec((1.2, -0.1, -0.1))

    def test_negative_seed_rejected(self):  # Random(-3) draws what Random(3) does
        with pytest.raises(DataError, match="^seed must be >= 0: -3$"):
            SplitSpec(seed=-3)


class TestSubsample:
    def test_exact_class_counts(self):
        pool = labeled_pool(50, 400)
        out = subsample_sweep(pool, 10, 100, seed=3)
        assert sum(p.label == 1 for p in out) == 10
        assert sum(p.label == 0 for p in out) == 100

    def test_zero_match_request(self):
        out = subsample_sweep(labeled_pool(4, 9), 0, 5, seed=0)
        assert len(out) == 5 and all(p.label == 0 for p in out)

    def test_insufficient_population_names_class_and_shortfall(self):
        with pytest.raises(DataError, match=r"match pairs.*requested 10.*available 4.*short by 6"):
            subsample_sweep(labeled_pool(4, 9), 10, 5, seed=0)
        with pytest.raises(DataError, match="non-match"):
            subsample_sweep(labeled_pool(4, 9), 2, 50, seed=0)

    def test_deterministic_and_without_replacement(self):
        pool = labeled_pool(30, 70)
        a = subsample_sweep(pool, 12, 34, seed=9)
        b = subsample_sweep(pool, 12, 34, seed=9)
        assert a == b
        assert len({p.key for p in a}) == len(a)


class TestJsonl:
    def test_pair_keys_round_trip(self, tmp_path):
        keys = enumerate_pairs(synthetic_records(6))
        path = tmp_path / "pairs.jsonl"
        write_pair_keys(keys, path)
        assert read_pair_keys(path) == keys

    def test_labeled_pairs_round_trip(self, tmp_path):
        pairs = [
            LabeledPair(PairKey("a", "b"), 1, Provenance.LLM, raw_response="Yes"),
            LabeledPair(PairKey("a", "c"), 0, Provenance.GROUND_TRUTH),
            LabeledPair(PairKey("b", "c"), 0, Provenance.LLM_ABSTAIN_DEFAULT, raw_response="maybe"),
        ]
        path = tmp_path / "labeled.jsonl"
        write_labeled_pairs(pairs, path)
        assert read_labeled_pairs(path) == pairs

    def test_wire_fields_match_exchange_format(self, tmp_path):
        import json

        path = tmp_path / "labeled.jsonl"
        write_labeled_pairs([LabeledPair(PairKey("a", "b"), 1, Provenance.LLM, raw_response="Yes")], path)
        doc = json.loads(path.read_text().strip())
        assert doc == {"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "LLM", "raw_response": "Yes"}

    def test_raw_response_omitted_when_absent(self, tmp_path):
        import json

        path = tmp_path / "labeled.jsonl"
        write_labeled_pairs([LabeledPair(PairKey("a", "b"), 0, Provenance.PREDICTED)], path)
        assert "raw_response" not in json.loads(path.read_text())


    @pytest.mark.parametrize("reader", [read_pair_keys, read_labeled_pairs])
    @pytest.mark.parametrize("line, message", [
        ('{"uri_1": "a:1", "uri_2"', "malformed row"),
        ('{"uri_1": "a:1", "label": 1, "provenance": "LLM"}', "missing key 'uri_2'"),
        ('{"uri_1": "b:1", "uri_2": "a:1", "label": 1, "provenance": "LLM"}', "not canonical"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, reader, line, message):
        path = tmp_path / "pairs.jsonl"
        good = '{"uri_1": "a:1", "uri_2": "a:2", "label": 0, "provenance": "LLM"}'
        path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:3: .*{message}"):
            reader(path)


    @pytest.mark.parametrize("reader", [read_pair_keys, read_labeled_pairs])
    @pytest.mark.parametrize("line", [b"\xff\xfe", b'{"uri_1": "a:1", "uri_2": "a:\xe9", "label": 0, "provenance": "LLM"}'])
    @pytest.mark.parametrize("eol", [b"\n", b"\r"], ids=["lf", "lone-cr"])
    def test_line_not_utf8_names_file_and_line(self, tmp_path, reader, line, eol):
        path = tmp_path / "pairs.jsonl"
        good = b'{"uri_1": "a:1", "uri_2": "a:2", "label": 0, "provenance": "LLM"}'
        path.write_bytes(good + eol + line + b"\n")
        with pytest.raises(DataError, match=f"{path}:2: malformed row: 'utf-8' codec can't decode"):
            reader(path)


# Reference codec: the per-line json.dumps / json.loads implementation that
# the direct-formatting writers and the regex readers must agree with.


def reference_labeled_doc(p):
    doc = {"uri_1": p.key.uri_1, "uri_2": p.key.uri_2, "label": p.label, "provenance": p.provenance.value}
    if p.raw_response is not None:
        doc["raw_response"] = p.raw_response
    return doc


def reference_pair_key(doc):
    return PairKey(doc["uri_1"], doc["uri_2"])


def reference_labeled_pair(doc):
    key = PairKey(doc["uri_1"], doc["uri_2"])
    label = doc["label"]
    if type(label) not in (int, float, bool) or label not in (0, 1):
        raise DataError(f"label must be 0 or 1, got {label!r}")
    return LabeledPair(
        key=key,
        label=int(label),
        provenance=Provenance(doc["provenance"]),
        raw_response=doc.get("raw_response"),
    )


def reference_read(path, build):
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(build(json.loads(line)))
            except JSONL_ROW_ERRORS as exc:
                raise row_error(path, lineno, exc) from exc
    return out


def outcome(read, path):
    """The rows a reader returns, or the text of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return f"DataError: {exc}"


# ASCII including every control character, plus the characters JSON escapes
# specially or writes as \u escapes: quote, backslash, non-ASCII, U+2028 and
# astral characters (surrogate pairs)
text = st.text(
    alphabet=st.characters(max_codepoint=0x7F) | st.sampled_from(['"', "\\", "\u00e9", "\u20ac", "\u2028", "\U0001F600"]),
    max_size=10,
)
pair_keys = st.tuples(text, text).filter(lambda t: t[0] != t[1]).map(lambda t: PairKey.of(*t))
labeled_pairs = st.builds(
    LabeledPair,
    pair_keys,
    st.sampled_from([0, 1, True, False, 0.0, 1.0]),
    st.sampled_from(list(Provenance)),
    st.none() | text,
)
# rows whose canonical line json.dumps writes without escapes, so the
# readers' regex matches it and builds the row with tuple.__new__
plain_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'), max_size=10)
plain_pairs = st.builds(
    LabeledPair,
    st.tuples(plain_text, plain_text).filter(lambda t: t[0] != t[1]).map(lambda t: PairKey.of(*t)),
    st.sampled_from([0, 1]),
    st.sampled_from(list(Provenance)),
    st.none() | plain_text,
)
# how a row may be spelled by a writer other than ours
spellings = st.sampled_from(["canonical", "reordered", "compact", "unicode", "label_true", "label_float"])


def spell(doc, how):
    if how == "reordered":
        return json.dumps(dict(reversed(doc.items())))
    if how == "compact":
        return json.dumps(doc, separators=(",", ":"))
    if how == "unicode":
        return json.dumps(doc, ensure_ascii=False)
    if how in ("label_true", "label_float") and "label" in doc:
        return json.dumps({**doc, "label": bool(doc["label"]) if how == "label_true" else float(doc["label"])})
    return json.dumps(doc)


class TestCodecAgainstReference:
    @given(st.lists(pair_keys, max_size=8))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pair_key_writer_bytes_and_round_trip(self, tmp_path, keys):
        path = tmp_path / "pairs.jsonl"
        write_pair_keys(keys, path)
        expected = "".join(json.dumps({"uri_1": k.uri_1, "uri_2": k.uri_2}) + "\n" for k in keys)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_pair_keys(path) == reference_read(path, reference_pair_key) == keys

    @given(st.lists(labeled_pairs, max_size=8))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_labeled_writer_bytes_and_round_trip(self, tmp_path, pairs):
        path = tmp_path / "labeled.jsonl"
        write_labeled_pairs(pairs, path)
        expected = "".join(json.dumps(reference_labeled_doc(p)) + "\n" for p in pairs)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_labeled_pairs(path) == reference_read(path, reference_labeled_pair) == pairs

    @given(
        st.lists(st.tuples(labeled_pairs, spellings, st.sampled_from(["", "  ", "\t"])), max_size=8),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_readers_match_reference_on_any_spelling(self, tmp_path, rows, newline, final_newline):
        lines = []
        for pair, how, blank in rows:
            lines.append(spell(reference_labeled_doc(pair), how))
            if blank:
                lines.append(blank)
        labeled_path, keys_path = tmp_path / "labeled.jsonl", tmp_path / "pairs.jsonl"
        body = newline.join(lines) + (newline if final_newline and lines else "")
        labeled_path.write_bytes(body.encode("utf-8"))
        key_lines = [spell({"uri_1": p.key.uri_1, "uri_2": p.key.uri_2}, how) for p, how, _ in rows]
        keys_path.write_bytes((newline.join(key_lines) + (newline if final_newline and key_lines else "")).encode())
        assert read_labeled_pairs(labeled_path) == reference_read(labeled_path, reference_labeled_pair)
        assert read_pair_keys(keys_path) == reference_read(keys_path, reference_pair_key)

    @given(
        st.lists(st.tuples(plain_pairs, st.just("canonical")) | st.tuples(labeled_pairs, spellings), max_size=8),
        st.none() | st.tuples(st.integers(0, 8), plain_pairs),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fast_rows_equal_the_json_loads_rows(self, tmp_path, rows, swapped):
        """Rows built with tuple.__new__ off the canonical-line regex are the
        rows json.loads and the public constructors give, of the same types;
        a canonical-looking line with uri_1 > uri_2 fails as the reference
        does, at its line."""
        docs = [(reference_labeled_doc(pair), how) for pair, how in rows]
        if swapped is not None:
            at, pair = swapped
            doc = {**reference_labeled_doc(pair), "uri_1": pair.key.uri_2, "uri_2": pair.key.uri_1}
            docs.insert(min(at, len(docs)), (doc, "canonical"))
        labeled_path, keys_path = tmp_path / "labeled.jsonl", tmp_path / "pairs.jsonl"
        labeled_path.write_text("".join(spell(doc, how) + "\n" for doc, how in docs), encoding="utf-8")
        keys_path.write_text("".join(spell({"uri_1": doc["uri_1"], "uri_2": doc["uri_2"]}, how) + "\n" for doc, how in docs),
                             encoding="utf-8")
        for read, path, build in ((read_labeled_pairs, labeled_path, reference_labeled_pair),
                                  (read_pair_keys, keys_path, reference_pair_key)):
            got, expected = outcome(read, path), outcome(lambda p: reference_read(p, build), path)
            assert got == expected
            if swapped is not None:
                line = min(swapped[0], len(rows)) + 1
                assert expected.startswith(f"DataError: {path}:{line}: malformed row: pair key not canonical")
                continue
            keys = [r.key for r in got] if read is read_labeled_pairs else got
            assert all(type(k) is PairKey and type(k.uri_1) is str and type(k.uri_2) is str for k in keys)
            if read is read_labeled_pairs:
                assert all(type(r) is LabeledPair and type(r.label) is int and type(r.provenance) is Provenance
                           and (r.raw_response is None or type(r.raw_response) is str) for r in got)

    def test_bool_label_is_written_as_json_bool_and_read_as_int(self, tmp_path):
        path = tmp_path / "labeled.jsonl"
        write_labeled_pairs([LabeledPair(PairKey("a", "b"), True, Provenance.LLM)], path)
        assert path.read_text() == '{"uri_1": "a", "uri_2": "b", "label": true, "provenance": "LLM"}\n'
        (row,) = read_labeled_pairs(path)
        assert type(row.label) is int and row.label == 1

    @pytest.mark.parametrize("line", [
        '{"uri_1": "\\u0061", "uri_2": "b", "label": 1, "provenance": "LLM"}',
        '{"uri_1": "a", "uri_2": "b", "label": 1.0, "provenance": "LLM"}',
        '{"uri_1": "a", "uri_2": "b", "label": true, "provenance": "LLM"}',
        '{"provenance": "LLM", "label": 1, "uri_2": "b", "uri_1": "a"}',
        '{"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "LLM", "raw_response": "Yes\\n"}',
        '{"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "LLM", "raw_response": null}',
        ' {"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "LLM"} ',
    ])
    def test_other_spellings_read_like_reference(self, tmp_path, line):
        path = tmp_path / "labeled.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert read_labeled_pairs(path) == reference_read(path, reference_labeled_pair)
        assert read_labeled_pairs(path)[0].key == PairKey("a", "b")
        assert read_pair_keys(path) == reference_read(path, reference_pair_key)

    @pytest.mark.parametrize("line", [
        '{"uri_1": "b", "uri_2": "a", "label": 1, "provenance": "LLM"}',
        '{"uri_1": "a", "uri_2": "a", "label": 1, "provenance": "LLM"}',
        '{"uri_1": "a", "uri_2": "b", "label": 2, "provenance": "LLM"}',
        '{"uri_1": "a", "uri_2": "b", "label": 01, "provenance": "LLM"}',
        '{"uri_1": "a", "uri_2": "b", "label": "x", "provenance": "LLM"}',
        '{"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "Bogus"}',
        '{"uri_1": "a", "uri_2": "b", "label": 1}',
        '{"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "LLM"',
        '{"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "LLM"} x',
        '{"uri_1": "a", "uri_2"',
        '{"uri_1": "a", "uri_2": "b"} x',
        '{"uri_1": "a\tb", "uri_2": "c"}',
        '["a", "b"]',
    ])
    def test_malformed_rows_raise_reference_error(self, tmp_path, line):
        path = tmp_path / "rows.jsonl"
        good = '{"uri_1": "a", "uri_2": "c", "label": 0, "provenance": "LLM"}'
        path.write_text(f"{good}\n{line}\n", encoding="utf-8")
        expected = outcome(lambda p: reference_read(p, reference_labeled_pair), path)
        assert expected.startswith(f"DataError: {path}:2: ")
        assert outcome(read_labeled_pairs, path) == expected
        # as pair keys some of these rows are fine; either way, as the reference
        assert outcome(read_pair_keys, path) == outcome(lambda p: reference_read(p, reference_pair_key), path)

    @pytest.mark.parametrize("label", ["1.5", '"1"', "0.9", "-0.5", "1e-9"])
    def test_label_that_is_not_0_or_1_is_an_error(self, tmp_path, label):
        path = tmp_path / "rows.jsonl"
        path.write_text(f'{{"uri_1": "a", "uri_2": "b", "label": {label}, "provenance": "LLM"}}\n', encoding="utf-8")
        expected = f"DataError: {path}:1: malformed row: label must be 0 or 1, got {json.loads(label)!r}"
        reference = outcome(lambda p: reference_read(p, reference_labeled_pair), path)
        assert outcome(read_labeled_pairs, path) == reference == expected


def line_read(path, parse):
    """The line-at-a-time row loop the block reader replaces: each line of
    the file, as text-file iteration splits it, through the per-line parser."""
    out = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(parse(line))
                except JSONL_ROW_ERRORS as exc:
                    raise row_error(path, lineno, exc) from exc
    return out


BLOCK_READERS = [(read_labeled_pairs, _labeled_row), (read_pair_keys, _pair_key_row)]


def assert_block_reads_equal_line_reads(path):
    for read, parse in BLOCK_READERS:
        assert outcome(read, path) == outcome(lambda p: line_read(p, parse), path)


# uris a writer without ASCII escapes leaves raw: U+0085 and U+2028 end a
# line for str.splitlines but not for a text file's line iteration
breaking_text = st.text(st.sampled_from(["a", "b", ":", "\x85", "\u2028"]), min_size=1, max_size=6)
breaking_pairs = st.builds(
    LabeledPair,
    st.tuples(breaking_text, breaking_text).filter(lambda t: t[0] != t[1]).map(lambda t: PairKey.of(*t)),
    st.sampled_from([0, 1]),
    st.sampled_from(list(Provenance)),
    st.none() | breaking_text,
)
# plain uris with a raw_response json.dumps escapes, as a model's answer often is
escaped_raw_pairs = st.builds(
    LabeledPair,
    st.tuples(plain_text, plain_text).filter(lambda t: t[0] != t[1]).map(lambda t: PairKey.of(*t)),
    st.sampled_from([0, 1]),
    st.sampled_from(list(Provenance)),
    text,
)


class TestBlockReads:
    @given(
        st.lists(
            st.tuples(
                st.tuples(plain_pairs, st.just("canonical"))
                | st.tuples(escaped_raw_pairs, st.just("canonical"))
                | st.tuples(breaking_pairs, st.just("unicode"))
                | st.tuples(labeled_pairs, spellings),
                st.sampled_from(["", "", "", "  ", "\t", "\x0c"]),
            ),
            max_size=12,
        ),
        st.none() | st.tuples(st.integers(0, 12), plain_pairs),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.sampled_from(["", "", "", "\ufeff"]),
        st.sampled_from(["", "", "\x0c"]),
        st.integers(1, 300),
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_block_reads_equal_line_reads(self, tmp_path, rows, swapped, newline, final_newline, bom, tail, block_chars):
        """Over many small blocks, canonical, escaped and mixed files, CRLF
        line ends, blank and whitespace-only lines, no final newline, an
        empty file, a leading BOM and a trailing form feed read as the line
        loop reads them: the same rows, or the same error at the same line."""
        docs = [(reference_labeled_doc(pair), how, blank) for (pair, how), blank in rows]
        if swapped is not None:
            at, pair = swapped
            doc = {**reference_labeled_doc(pair), "uri_1": pair.key.uri_2, "uri_2": pair.key.uri_1}
            docs.insert(min(at, len(docs)), (doc, "canonical", ""))

        def body(lines):
            return (bom + newline.join(lines) + (newline if final_newline and lines else "") + tail).encode()

        def lines_of(doc_of):
            return [line for doc, how, blank in docs for line in (spell(doc_of(doc), how), blank) if line]

        labeled_path, keys_path = tmp_path / "labeled.jsonl", tmp_path / "pairs.jsonl"
        labeled_path.write_bytes(body(lines_of(lambda doc: doc)))
        keys_path.write_bytes(body(lines_of(lambda doc: {"uri_1": doc["uri_1"], "uri_2": doc["uri_2"]})))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "_BLOCK_CHARS", block_chars)
            assert_block_reads_equal_line_reads(labeled_path)
            assert_block_reads_equal_line_reads(keys_path)

    def test_empty_file_reads_no_rows(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert read_labeled_pairs(path) == read_pair_keys(path) == []

    @pytest.mark.parametrize("char", ["\x85", "\u2028"])
    def test_raw_line_separator_in_a_uri_is_one_row(self, tmp_path, char):
        pairs = [LabeledPair(PairKey(f"a{char}1", f"b{char}2"), 1, Provenance.LLM, f"x{char}y"),
                 LabeledPair(PairKey("a:1", "a:2"), 0, Provenance.PREDICTED)]
        path = tmp_path / "labeled.jsonl"
        path.write_text("".join(json.dumps(reference_labeled_doc(p), ensure_ascii=False) + "\n" for p in pairs),
                        encoding="utf-8")
        assert read_labeled_pairs(path) == pairs
        assert read_pair_keys(path) == [p.key for p in pairs]
        assert_block_reads_equal_line_reads(path)

    def test_canonical_blocks_skip_the_line_parser(self, tmp_path, monkeypatch):
        # raw responses as a model gives them: quoted, multi-line, non-ASCII
        answers = [None, "Yes", '"Yes"', "No.\nThey differ", "s\u00e9", "\U0001F600 \\ \t", ""]
        pairs = [LabeledPair(PairKey(f"a:{i:03d}", f"b:{i:03d}"), i % 2, list(Provenance)[i % 4], answers[i % 7])
                 for i in range(200)]
        labeled_path, keys_path = tmp_path / "labeled.jsonl", tmp_path / "pairs.jsonl"
        write_labeled_pairs(pairs, labeled_path)
        write_pair_keys([p.key for p in pairs], keys_path)

        def no_line_parse(line):
            raise AssertionError(f"parsed line by line: {line!r}")

        monkeypatch.setattr(records, "_BLOCK_CHARS", 500)
        monkeypatch.setattr("minerlink.pairing._labeled_row", no_line_parse)
        monkeypatch.setattr("minerlink.pairing._pair_key_row", no_line_parse)
        got = read_labeled_pairs(labeled_path)
        assert got == pairs
        assert all(type(p) is LabeledPair and type(p.key) is PairKey and type(p.provenance) is Provenance for p in got)
        assert read_pair_keys(keys_path) == [p.key for p in pairs]
        # a last canonical line without its newline takes the block path too
        for path in (labeled_path, keys_path):
            path.write_bytes(path.read_bytes()[:-1])
        got = read_labeled_pairs(labeled_path)
        assert got == pairs and type(got[-1]) is LabeledPair and type(got[-1].key) is PairKey
        assert read_pair_keys(keys_path) == [p.key for p in pairs]

    @pytest.mark.parametrize("read, parse", BLOCK_READERS)
    def test_torn_last_line_keeps_the_json_error(self, tmp_path, read, parse):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"uri_1": "a", "uri_2": "b", "label": 1, "provenance": "LLM"}\n{"uri_1": "a", "uri_2"',
                        encoding="utf-8")
        expected = f"DataError: {path}:2: malformed row: Expecting ':' delimiter: line 1 column 23 (char 22)"
        assert outcome(read, path) == outcome(lambda p: line_read(p, parse), path) == expected

    def test_only_lines_that_are_not_canonical_reach_the_line_parser(self, tmp_path, monkeypatch):
        pairs = [LabeledPair(PairKey(f"a:{i:03d}", f"b:{i:03d}"), i % 2, Provenance.LLM, '"Yes"' if i % 2 else "No")
                 for i in range(200)]
        lines = [json.dumps(reference_labeled_doc(p)) + "\n" for p in pairs]
        odd = {
            3: spell(reference_labeled_doc(pairs[3]), "reordered") + "\n",
            50: spell(reference_labeled_doc(pairs[50]), "label_true") + "\n",
            51: "\n",
            120: json.dumps({**reference_labeled_doc(pairs[120]), "uri_1": "b:120", "uri_2": "a:120"}) + "\n",
            199: json.dumps(reference_labeled_doc(pairs[199]), separators=(",", ":")),
        }
        for at, line in odd.items():
            lines[at] = line
        path = tmp_path / "labeled.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        parsed = []

        def recording(parse):
            def line_parse(line):
                parsed.append(line)
                return parse(line)
            return line_parse

        expected_rows = outcome(lambda p: line_read(p, _labeled_row), path)
        monkeypatch.setattr(records, "_BLOCK_CHARS", 2000)
        monkeypatch.setattr("minerlink.pairing._labeled_row", recording(_labeled_row))
        monkeypatch.setattr("minerlink.pairing._pair_key_row", recording(_pair_key_row))
        assert outcome(read_labeled_pairs, path) == expected_rows
        assert expected_rows.startswith(f"DataError: {path}:121: malformed row: pair key not canonical")
        assert parsed == [odd[3], odd[50], odd[120]]
        del lines[120]
        path.write_text("".join(lines), encoding="utf-8")
        parsed.clear()
        assert read_labeled_pairs(path) == [p for i, p in enumerate(pairs) if i not in (51, 120)]
        assert parsed == [odd[3], odd[50], odd[199]]
        parsed.clear()
        # a labeled line is not a canonical pair-key line: each reaches the line parser
        assert read_pair_keys(path) == [p.key for i, p in enumerate(pairs) if i not in (51, 120)]
        assert parsed == [line for line in lines if line.strip()]

    @pytest.mark.parametrize("read, parse", BLOCK_READERS)
    @pytest.mark.parametrize("first", ["row", "bytes"])
    @pytest.mark.parametrize("at", [5, 17_000])
    def test_first_bad_line_of_a_block_wins(self, tmp_path, read, parse, first, at):
        """A malformed row and bytes that are not UTF-8 in one block: the
        error names whichever comes first."""
        good = [b'{"uri_1": "a:%05d", "uri_2": "b:%05d", "label": 0, "provenance": "LLM"}\n' % (i, i)
                for i in range(18_000)]
        malformed, not_utf8 = b'{"uri_1": "a:1", "uri_2"\n', b'{"uri_1": "\xff"}\n'
        lines = good[:at] + [malformed if first == "row" else not_utf8] + good[at : at + 3]
        lines += [not_utf8 if first == "row" else malformed] + good[at + 3 :]
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"".join(lines))
        message = ("malformed row: Expecting ':' delimiter" if first == "row"
                   else "malformed row: 'utf-8' codec can't decode byte 0xff in position 11")
        assert outcome(read, path).startswith(f"DataError: {path}:{at + 1}: {message}")

    @pytest.mark.parametrize("read, parse", BLOCK_READERS)
    @pytest.mark.parametrize("bad, message", [
        (b'{"uri_1": "a:1", "uri_2"', "malformed row: Expecting ':' delimiter"),
        (b'{"uri_1": "b:9", "uri_2": "a:1", "label": 1, "provenance": "LLM"}', "malformed row: pair key not canonical"),
        (b'{"uri_1": "a:1", "uri_2": "b:1", "label": 1, "provenance": "LLM"} {}', "malformed row: Extra data"),
        (b'{"uri_1": "a:1", "uri_2": "b:1", "label": 1, "provenance": "LLM", "raw_response": "\\x41"}',
         "malformed row: Invalid \\escape: line 1 column 84 (char 83)"),
        (b'{"uri_1": "a:1", "uri_2": "b:1", "label": 1, "provenance": "LLM", "raw_response": "\\u00e"}',
         "malformed row: Invalid \\uXXXX escape: line 1 column 85 (char 84)"),
        (b"\xff\xfe", "malformed row: 'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"uri_1": "a:1", "uri_2": "a:\xe9", "label": 0, "provenance": "LLM"}',
         "malformed row: 'utf-8' codec can't decode byte 0xe9 in position 29"),
    ])
    def test_bad_row_past_the_first_block_names_its_line(self, tmp_path, read, parse, bad, message):
        good = [b'{"uri_1": "a:%05d", "uri_2": "b:%05d", "label": 0, "provenance": "LLM"}\n' % (i, i)
                for i in range(18_000)]
        at = 17_000
        assert sum(map(len, good[:at])) > records._BLOCK_CHARS
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"".join(good[:at]) + bad + b"\n" + b"".join(good[at:]))
        got = outcome(read, path)
        assert got.startswith(f"DataError: {path}:{at + 1}: {message}")
        assert got == outcome(lambda p: line_read(p, parse), path)

    def test_peak_memory_within_two_blocks_of_the_line_loop(self, tmp_path):
        # every raw_response distinct, so no two rows share its string
        pairs = [LabeledPair(PairKey(f"mrds:{i:08d}", f"usmin:{i:06d}"), i % 2, Provenance.LLM, f"answer {i}")
                 for i in range(50_000)]
        path = tmp_path / "labeled.jsonl"
        write_labeled_pairs(pairs, path)
        del pairs

        def peak(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        line_peak = peak(lambda: line_read(path, _labeled_row))
        assert peak(lambda: read_labeled_pairs(path)) <= line_peak + 2 * records._BLOCK_CHARS


def test_random_seed_reuse_is_stable():
    # the stdlib Mersenne Twister guarantees sequence stability for a seed
    assert random.Random(123).random() == random.Random(123).random()
