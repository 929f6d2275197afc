from __future__ import annotations

import gc
import json

import pytest

from minerlink import records
from minerlink.cluster import SiteCluster, write_clusters
from minerlink.config import encode
from minerlink.errors import ConfigError, DataError, SchemaError
from minerlink.evaluate import ConfusionCounts, EvalReport, SweepMode, SweepRow, write_sweep_rows
from minerlink.llm_labeler import LabelCache
from minerlink.pairing import LabeledPair, PairKey, Provenance, read_labeled_pairs, write_labeled_pairs, write_pair_keys
from minerlink.records import (
    Dataset,
    GeoPoint,
    Record,
    SchemaConfig,
    atomic_text,
    ingest_csv,
    read_records_jsonl,
    read_rows,
    record_index,
    validate_dataset,
    write_json,
    write_records_jsonl,
)
from minerlink.runtime_model import Measurement, write_measurements

from conftest import make_record

MRDS_SCHEMA = SchemaConfig(id_column="dep_id", lat_column="latitude", lon_column="longitude")


class TestRecordInvariants:
    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(DataError, match="duplicate attribute"):
            make_record("x:1", [("a", "1"), ("a", "2")])

    def test_empty_attribute_value_rejected(self):
        with pytest.raises(DataError, match="empty attribute"):
            make_record("x:1", [("a", "")])

    def test_out_of_range_location_rejected(self):
        with pytest.raises(DataError, match="out-of-range"):
            make_record("x:1", [("a", "1")], location=(91.0, 0.0))


class TestIngest:
    def test_null_cells_omitted(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        assert "commod2" not in dict(ds.records[0].attributes)  # blank cell in row 1
        assert dict(ds.records[1].attributes)["commod2"] == "Antimony"

    def test_uri_from_id_column(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        assert [r.uri for r in ds.records] == ["mrds:10310734", "mrds:10310735", "mrds:10310736"]

    def test_uri_from_row_number_when_no_id_column(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", SchemaConfig())
        assert ds.records[2].uri == "mrds:row3"

    def test_id_column_excluded_from_attributes(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        assert "dep_id" not in dict(ds.records[0].attributes)

    def test_id_column_retained_when_configured(self, mrds_csv):
        schema = SchemaConfig(id_column="dep_id", keep_id_attribute=True)
        ds = ingest_csv(mrds_csv, "mrds", schema)
        assert dict(ds.records[0].attributes)["dep_id"] == "10310734"
        assert ds.records[0].uri == "mrds:10310734"

    def test_coordinate_columns_kept_as_attributes(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        assert dict(ds.records[0].attributes)["latitude"] == "44.965"
        assert ds.records[0].location == GeoPoint(44.965, -115.318)

    def test_out_of_range_coordinate_warns_and_drops_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,name,lat,lon\n1,A,91.0,10.0\n2,B,45.0,10.0\n", encoding="utf-8")
        ds = ingest_csv(path, "s", SchemaConfig(id_column="id", lat_column="lat", lon_column="lon"))
        assert ds.records[0].location is None
        assert ds.records[1].location is not None
        assert ds.coordinate_warnings == 1

    def test_unparseable_coordinate_warns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,name,lat,lon\n1,A,north,10.0\n", encoding="utf-8")
        ds = ingest_csv(path, "s", SchemaConfig(id_column="id", lat_column="lat", lon_column="lon"))
        assert ds.records[0].location is None
        assert ds.coordinate_warnings == 1

    def test_null_coordinate_is_missing_not_warned(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("id,name,lat,lon\n1,A,,\n", encoding="utf-8")
        ds = ingest_csv(path, "s", SchemaConfig(id_column="id", lat_column="lat", lon_column="lon"))
        assert ds.records[0].location is None
        assert ds.coordinate_warnings == 0

    def test_missing_declared_column_is_schema_error(self, mrds_csv):
        with pytest.raises(SchemaError, match="nope"):
            ingest_csv(mrds_csv, "mrds", SchemaConfig(id_column="nope"))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            ingest_csv(path, "s", SchemaConfig())

    def test_custom_null_markers(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("id,name,grade\n1,A,NA\n", encoding="utf-8")
        schema = SchemaConfig(id_column="id", null_markers=("", "NA"))
        ds = ingest_csv(path, "s", schema)
        assert ds.records[0].attributes == (("name", "A"),)

    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,name\n1,A\n2," + "x" * 140_000 + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:3: malformed row: field larger than field limit"):
            ingest_csv(path, "s", SchemaConfig(id_column="id"))

    def test_repeated_header_column_names_file_and_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,name,name\n1,A,B\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:2: duplicate attribute names in record 's:1'$"):
            ingest_csv(path, "s", SchemaConfig(id_column="id"))

    def test_empty_cell_that_is_no_null_marker_names_file_and_line(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("id,name,commodity\n1,A,Gold\n2,B,\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:3: empty attribute value for 'commodity' in record 's:2': "):
            ingest_csv(path, "s", SchemaConfig(id_column="id", null_markers=("NA",)))

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "tab.tsv"
        path.write_text("id\tname\n1\tEagle Mine\n", encoding="utf-8")
        ds = ingest_csv(path, "s", SchemaConfig(id_column="id", delimiter="\t"))
        assert ds.records[0].attributes == (("name", "Eagle Mine"),)

    def test_deterministic(self, mrds_csv):
        assert ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA) == ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)

    def test_no_attribute_value_matches_a_null_marker(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        for record in ds.records:
            for _, value in record.attributes:
                assert value not in MRDS_SCHEMA.null_markers


class TestValidate:
    def test_counts_exact(self, mrds_csv):
        report = validate_dataset(ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA))
        assert report.record_count == 3
        assert report.missing_location_count == 0
        assert report.duplicate_uris == ()

    def test_empty_dataset_all_zero(self):
        report = validate_dataset(Dataset(source_id="s", records=()))
        assert (report.record_count, report.missing_location_count) == (0, 0)
        assert report.duplicate_uris == ()

    def test_reference_scale_dataset(self):
        records = tuple(
            make_record(f"mrds:{i:05d}", [("site_name", f"Site {i}")]) for i in range(387)
        )
        report = validate_dataset(Dataset(source_id="mrds", records=records))
        assert report.record_count == 387
        assert report.duplicate_uris == ()

    def test_duplicate_uris_reported(self):
        r = make_record("s:1", [("a", "1")])
        report = validate_dataset(Dataset(source_id="s", records=(r, r)))
        assert report.duplicate_uris == ("s:1",)


def _ingest(tmp_path, text: str, source_id: str, schema: SchemaConfig) -> tuple[Record, ...]:
    path = tmp_path / "source.csv"
    path.write_text(text, encoding="utf-8")
    return ingest_csv(path, source_id, schema).records


class TestIngestedRecords:
    def test_records_with_id_column(self, tmp_path):
        text = "dep_id,site_name,latitude,longitude\n10310734,Yellow Pine,44.965,-115.318\n10310736,Eagle Mine,,\n"
        assert _ingest(tmp_path, text, "mrds", MRDS_SCHEMA) == (
            make_record("mrds:10310734", [("site_name", "Yellow Pine"), ("latitude", "44.965"),
                                          ("longitude", "-115.318")], (44.965, -115.318)),
            make_record("mrds:10310736", [("site_name", "Eagle Mine")]),
        )

    def test_records_without_id_column(self, tmp_path):
        text = "dep_id,site_name,latitude,longitude\n10310734,Yellow Pine,44.965,-115.318\n,Eagle Mine,,\n"
        schema = SchemaConfig(lat_column="latitude", lon_column="longitude")
        assert _ingest(tmp_path, text, "mrds", schema) == (
            make_record("mrds:row1", [("dep_id", "10310734"), ("site_name", "Yellow Pine"), ("latitude", "44.965"),
                                      ("longitude", "-115.318")], (44.965, -115.318)),
            make_record("mrds:row2", [("site_name", "Eagle Mine")]),
        )

    def test_records_with_excluded_coordinates(self, tmp_path):
        text = "dep_id,site_name,latitude,longitude,state\n10310734,Yellow Pine,44.965,-115.318,ID\n"
        schema = SchemaConfig(
            id_column="dep_id", lat_column="latitude", lon_column="longitude",
            exclude_columns=("latitude", "longitude"),
        )
        assert _ingest(tmp_path, text, "mrds", schema) == (
            make_record("mrds:10310734", [("site_name", "Yellow Pine"), ("state", "ID")], (44.965, -115.318)),
        )

    def test_records_with_kept_id_attribute(self, tmp_path):
        text = "site_name,dep_id,state\nYellow Pine,10310734,ID\n"
        schema = SchemaConfig(id_column="dep_id", keep_id_attribute=True)
        assert _ingest(tmp_path, text, "mrds", schema) == (
            make_record("mrds:10310734", [("site_name", "Yellow Pine"), ("dep_id", "10310734"), ("state", "ID")]),
        )

    def test_quoted_values_survive(self, tmp_path):
        text = 'id,name\n1,"Babbit (Minnamax), Mesaba"\n'
        assert _ingest(tmp_path, text, "s", SchemaConfig(id_column="id")) == (
            make_record("s:1", [("name", "Babbit (Minnamax), Mesaba")]),
        )


class TestJsonlArtifacts:
    def test_round_trip(self, yellow_pine_mrds, yellow_pine_usmin, tmp_path):
        noloc = make_record("x:1", [("name", "Far Hill")])
        path = tmp_path / "records.jsonl"
        write_records_jsonl([yellow_pine_mrds, yellow_pine_usmin, noloc], path)
        assert read_records_jsonl(path) == [yellow_pine_mrds, yellow_pine_usmin, noloc]

    @pytest.mark.parametrize("row, message", [
        ('{"uri": "x:2", "source_id": "x", "attri', "malformed row"),
        ("null", "malformed row"),
        ('{"uri": "x:2", "source_id": "x", "location": null}', "missing key 'attributes'"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [["a", ""]]}', "empty attribute value"),
        ('{"uri": 7, "source_id": "x", "attributes": []}', "uri and source_id must be strings"),
        ('{"uri": "x:2", "source_id": null, "attributes": []}', "uri and source_id must be strings"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [["a", 5]]}', "attributes must be an array"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [[5, "a"]]}', "attributes must be an array"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [["a", "b", "c"]]}', "attributes must be an array"),
        ('{"uri": "x:2", "source_id": "x", "attributes": ["ab"]}', "attributes must be an array"),
        ('{"uri": "x:2", "source_id": "x", "attributes": {"a": "b"}}', "attributes must be an array"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [], "location": [true, 1]}', "location must be null"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [], "location": ["44", "-115"]}', "location must be null"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [], "location": [44.9]}', "location must be null"),
        ('{"uri": "x:2", "source_id": "x", "attributes": [], "location": {"lat": 1, "lon": 2}}', "location must be null"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "records.jsonl"
        write_records_jsonl([make_record("x:1", [("name", "Far Hill")])], path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(DataError, match=f"{path}:2: .*{message}"):
            read_records_jsonl(path)

    def test_integer_location_and_missing_location_are_read(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"uri": "x:1", "source_id": "x", "attributes": [["a", "b"]], "location": [44, -115]}\n'
            '{"uri": "x:2", "source_id": "x", "attributes": []}\n',
            encoding="utf-8",
        )
        assert read_records_jsonl(path) == [
            make_record("x:1", [("a", "b")], location=(44, -115)),
            make_record("x:2", []),
        ]

    @pytest.mark.parametrize("eol", [b"\n", b"\r"], ids=["lf", "lone-cr"])
    def test_line_not_utf8_names_file_and_line(self, tmp_path, eol):
        path = tmp_path / "records.jsonl"
        write_records_jsonl([make_record("x:1", [("name", "Far Hill")])], path)
        path.write_bytes(path.read_bytes().replace(b"\n", eol))
        with path.open("ab") as fh:
            fh.write(b'{"uri": "x:2", "source_id": "x", "attributes": [["name", "M\xfcnster"]]}\n')
        with pytest.raises(DataError, match=f"{path}:2: malformed row: 'utf-8' codec can't decode byte 0xfc"):
            read_records_jsonl(path)

    def test_record_index_rejects_duplicates(self):
        r = make_record("s:1", [("a", "1")])
        with pytest.raises(DataError, match="duplicate uri"):
            record_index([r, r])
        other = make_record("s:2", [("a", "2")])
        with pytest.raises(DataError, match=r"\['s:1', 's:2'\]"):
            record_index([other, r, other, make_record("s:3", [("a", "3")]), r])


class TestReadRowsPausesGc:
    """Rows are built with the cyclic GC off; the caller's state comes back
    however the read ends."""

    def test_paused_while_rows_are_built_and_restored(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        seen = []

        def parse(line):
            seen.append(gc.isenabled())
            return json.loads(line)

        assert gc.isenabled()
        assert read_rows(path, parse) == [{"a": 1}, {"a": 2}]
        assert seen == [False, False]
        assert gc.isenabled()

    @pytest.mark.parametrize("body", [b'{"a": 1}\nnot json\n', b'{"a": 1}\n\xff\n'])
    def test_restored_after_a_read_that_raises(self, tmp_path, body):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(body)
        with pytest.raises(DataError, match=f"{path}:2: malformed row"):
            read_rows(path, json.loads)
        assert gc.isenabled()

    def test_left_off_when_the_caller_turned_it_off(self, tmp_path):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_labeled_pairs(_LABELED, good)
        bad.write_text('{"uri_1": "b", "uri_2": "a", "label": 1, "provenance": "LLM"}\n', encoding="utf-8")
        gc.disable()
        try:
            assert read_labeled_pairs(good) == _LABELED
            assert not gc.isenabled()
            with pytest.raises(DataError, match="not canonical"):
                read_labeled_pairs(bad)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSchemaConfig:
    def test_from_json_dict(self):
        schema = SchemaConfig.from_json_dict(
            {"id_column": "dep_id", "exclude_columns": ["mrds_id"], "null_markers": ["", "NA"]}
        )
        assert schema.id_column == "dep_id"
        assert schema.effective_excludes() == {"dep_id", "mrds_id"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="schema.id_col: unknown key"):
            SchemaConfig.from_json_dict({"id_col": "x"})

    def test_json_round_trip(self):
        schema = SchemaConfig(id_column="id", lat_column="lat", lon_column="lon")
        assert SchemaConfig.from_json_dict(encode(schema)) == schema


def _failing_after(rows):
    """The rows, then an error: a source that fails while a writer is partway."""
    yield from rows
    raise RuntimeError("row source failed")


def _sweep_row(seed):
    counts = ConfusionCounts(tp=1, fp=0, tn=1, fn=0)
    return SweepRow(SweepMode.BALANCED_GROWTH, 1.0, 1, 1, EvalReport.from_counts(counts), seed)


_RECORDS = [make_record("s:1", [("name", "A")]), make_record("s:2", [("name", "B")])]
_KEYS = [PairKey("a:1", "b:1"), PairKey("a:1", "b:2"), PairKey("a:1", "b:3")]
_LABELED = [LabeledPair(k, 1, Provenance.LLM, "Yes") for k in _KEYS]
_CLUSTERS = [SiteCluster("s:1", ("s:1", "s:2")), SiteCluster("s:3", ("s:3",))]
_SWEEP_ROWS = [_sweep_row(0), _sweep_row(1)]
_MEASUREMENTS = [Measurement(10, 0.5), Measurement(20, 2.0)]
# (writer, the rows of the previous file, rows that make it raise after
# writing more than that file holds)
WRITERS = {
    "write_records_jsonl": (write_records_jsonl, _RECORDS[:1], lambda: _failing_after(_RECORDS)),
    "write_pair_keys": (write_pair_keys, _KEYS[:1], lambda: _failing_after(_KEYS)),
    "write_labeled_pairs": (write_labeled_pairs, _LABELED[:1], lambda: _failing_after(_LABELED)),
    "write_clusters": (write_clusters, _CLUSTERS[:1], lambda: _failing_after(_CLUSTERS)),
    "write_sweep_rows": (write_sweep_rows, _SWEEP_ROWS[:1], lambda: _failing_after(_SWEEP_ROWS)),
    "write_measurements": (write_measurements, _MEASUREMENTS[:1], lambda: _failing_after(_MEASUREMENTS)),
}


class TestAtomicWriters:
    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_failing_writer_leaves_previous_file(self, tmp_path, name):
        write, rows, failing_rows = WRITERS[name]
        target = tmp_path / "artifact"
        write(rows, target)
        before = target.read_bytes()
        assert before
        with pytest.raises(RuntimeError):
            write(failing_rows(), target)
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]  # no <name>.tmp left beside it

    @pytest.mark.parametrize("name", ["write_clusters", "write_labeled_pairs", "write_pair_keys", "write_records_jsonl"])
    def test_failing_writer_leaves_previous_file_after_writing_blocks(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(records, "_BLOCK_LINES", 1)
        self.test_failing_writer_leaves_previous_file(tmp_path, name)

    def test_json_lines_writers_write_one_json_dumps_line_per_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(records, "_BLOCK_LINES", 3)
        rows = range(8)
        recs = [make_record(f"s:{i}", [("name", f"Mine \u00e9 {i}"), ("note", '"q"\\')],
                            (45.5, -116.0 + i) if i % 2 else None) for i in rows]
        write_records_jsonl(recs, tmp_path / "records.jsonl")
        clusters = [SiteCluster(f"s:{i}", (f"s:{i}", f"t:{i}")) for i in rows]
        write_clusters(clusters, tmp_path / "clusters.jsonl")
        cache = LabelCache(tmp_path / "cache.jsonl")
        for i in reversed(rows):
            cache.put(f"h{i}", f"Yes \u2028 {i}")
        cache.compact()

        def dumps(docs):
            return "".join(json.dumps(doc) + "\n" for doc in docs).encode("utf-8")

        assert (tmp_path / "records.jsonl").read_bytes() == dumps(
            {"uri": r.uri, "source_id": r.source_id, "attributes": [list(a) for a in r.attributes],
             "location": None if r.location is None else list(r.location)} for r in recs)
        assert (tmp_path / "clusters.jsonl").read_bytes() == dumps(
            {"cluster_id": c.cluster_id, "members": list(c.members)} for c in clusters)
        assert (tmp_path / "cache.jsonl").read_bytes() == dumps(
            {"hash": f"h{i}", "response": f"Yes \u2028 {i}", "status": "ok"} for i in rows)
        assert read_records_jsonl(tmp_path / "records.jsonl") == recs

    def test_write_json_replaces_the_file_or_leaves_it(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json({"a": [1, 2]}, target)
        assert target.read_text(encoding="utf-8") == '{\n  "a": [\n    1,\n    2\n  ]\n}\n'
        with pytest.raises(TypeError):
            write_json({"a": object()}, target)
        assert json.loads(target.read_text(encoding="utf-8")) == {"a": [1, 2]}
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_text_into_a_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_text(tmp_path / "nope" / "x.jsonl") as fh:
                fh.write("never written\n")
