from __future__ import annotations

import pytest

from minerlink.config import encode
from minerlink.errors import ConfigError, DataError, SchemaError
from minerlink.records import (
    Dataset,
    GeoPoint,
    Record,
    SchemaConfig,
    export_csv,
    ingest_csv,
    read_records_jsonl,
    record_index,
    validate_dataset,
    write_records_jsonl,
)

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

    def test_get_returns_value_or_none(self):
        r = make_record("x:1", [("a", "1")])
        assert r.get("a") == "1"
        assert r.get("b") is None


class TestIngest:
    def test_null_cells_omitted(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        first = ds.records[0]
        assert first.get("commod2") is None  # blank cell in row 1
        assert ds.records[1].get("commod2") == "Antimony"

    def test_uri_from_id_column(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        assert [r.uri for r in ds.records] == ["mrds:10310734", "mrds:10310735", "mrds:10310736"]

    def test_uri_from_row_number_when_no_id_column(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", SchemaConfig())
        assert ds.records[2].uri == "mrds:row3"

    def test_id_column_excluded_from_attributes(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        assert "dep_id" not in ds.records[0].attribute_names

    def test_id_column_retained_when_configured(self, mrds_csv):
        schema = SchemaConfig(id_column="dep_id", keep_id_attribute=True)
        ds = ingest_csv(mrds_csv, "mrds", schema)
        assert ds.records[0].get("dep_id") == "10310734"
        assert ds.records[0].uri == "mrds:10310734"

    def test_coordinate_columns_kept_as_attributes(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        assert ds.records[0].get("latitude") == "44.965"
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
        assert ds.records[0].get("grade") is None

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "tab.tsv"
        path.write_text("id\tname\n1\tEagle Mine\n", encoding="utf-8")
        ds = ingest_csv(path, "s", SchemaConfig(id_column="id", delimiter="\t"))
        assert ds.records[0].get("name") == "Eagle Mine"

    def test_deterministic(self, mrds_csv):
        assert ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA) == ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)

    def test_no_attribute_value_matches_a_null_marker(self, mrds_csv):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        for record in ds.records:
            for _, value in record.attributes:
                assert value not in ds.schema.null_markers


class TestValidate:
    def test_counts_exact(self, mrds_csv):
        report = validate_dataset(ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA))
        assert report.record_count == 3
        assert report.missing_location_count == 0
        assert report.duplicate_uris == ()
        assert report.ok

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
        assert not report.ok


class TestRoundTrip:
    def test_export_reingest_with_id_column(self, mrds_csv, tmp_path):
        ds = ingest_csv(mrds_csv, "mrds", MRDS_SCHEMA)
        out = tmp_path / "export.csv"
        export_csv(ds, out)
        again = ingest_csv(out, "mrds", MRDS_SCHEMA)
        assert again.records == ds.records

    def test_export_reingest_without_id_column(self, mrds_csv, tmp_path):
        schema = SchemaConfig(lat_column="latitude", lon_column="longitude")
        ds = ingest_csv(mrds_csv, "mrds", schema)
        out = tmp_path / "export.csv"
        export_csv(ds, out)
        assert ingest_csv(out, "mrds", schema).records == ds.records

    def test_export_reingest_with_excluded_coordinates(self, mrds_csv, tmp_path):
        schema = SchemaConfig(
            id_column="dep_id", lat_column="latitude", lon_column="longitude",
            exclude_columns=("latitude", "longitude"),
        )
        ds = ingest_csv(mrds_csv, "mrds", schema)
        assert "latitude" not in ds.records[0].attribute_names
        assert ds.records[0].location is not None
        out = tmp_path / "export.csv"
        export_csv(ds, out)
        assert ingest_csv(out, "mrds", schema).records == ds.records

    def test_export_reingest_with_kept_id_attribute(self, mrds_csv, tmp_path):
        schema = SchemaConfig(id_column="dep_id", keep_id_attribute=True)
        ds = ingest_csv(mrds_csv, "mrds", schema)
        out = tmp_path / "export.csv"
        export_csv(ds, out)
        header = out.read_text().splitlines()[0]
        assert header.split(",").count("dep_id") == 1
        assert ingest_csv(out, "mrds", schema).records == ds.records

    def test_quoted_values_survive(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('id,name\n1,"Babbit (Minnamax), Mesaba"\n', encoding="utf-8")
        schema = SchemaConfig(id_column="id")
        ds = ingest_csv(path, "s", schema)
        assert ds.records[0].get("name") == "Babbit (Minnamax), Mesaba"
        out = tmp_path / "again.csv"
        export_csv(ds, out)
        assert ingest_csv(out, "s", schema).records == ds.records


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
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "records.jsonl"
        write_records_jsonl([make_record("x:1", [("name", "Far Hill")])], path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(DataError, match=f"{path}:2: .*{message}"):
            read_records_jsonl(path)

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records_jsonl([make_record("x:1", [("name", "Far Hill")])], path)
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
