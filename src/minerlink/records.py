"""Uniform record model over heterogeneous tabular mineral-site databases.

Sources such as MRDS and USMIN disagree on schemas, identifier columns, and
null conventions. Ingestion maps each delimited-text file onto an ordered,
null-free attribute list per record, an optional geographic point, and a
globally unique uri of the form ``<source_id>:<id_value>``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DataError, SchemaError


class GeoPoint(NamedTuple):
    lat: float
    lon: float


def _valid_coords(lat: float, lon: float) -> bool:
    # range comparisons are False for NaN and infinities too
    return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0


@dataclass(frozen=True)
class Record:
    """One mineral-site row.

    ``attributes`` holds only non-null cells, in source column order, so the
    record re-serializes deterministically. Attribute values are always kept
    as strings; numeric interpretation happens downstream.
    """

    uri: str
    source_id: str
    attributes: tuple[tuple[str, str], ...]
    location: GeoPoint | None = None

    def __post_init__(self):
        names = [n for n, _ in self.attributes]
        if len(names) != len(set(names)):
            raise DataError(f"duplicate attribute names in record {self.uri!r}")
        for name, value in self.attributes:
            if value == "":
                raise DataError(
                    f"empty attribute value for {name!r} in record {self.uri!r}: "
                    "nulls must be omitted, not stored"
                )
        if self.location is not None and not _valid_coords(*self.location):
            raise DataError(f"out-of-range location {self.location} in record {self.uri!r}")

    def get(self, name: str) -> str | None:
        for n, v in self.attributes:
            if n == name:
                return v
        return None

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.attributes)


@dataclass(frozen=True)
class SchemaConfig:
    """Per-source mapping of special columns and null conventions.

    ``exclude_columns`` are dropped from the attribute list before anything
    downstream sees the record. The unique-ID column is excluded by default
    because purely unique values carry no matching signal; set
    ``keep_id_attribute`` to retain it. Coordinate columns stay in the
    attribute list (they are ordinary text to the matcher) unless explicitly
    excluded.
    """

    id_column: str | None = None
    lat_column: str | None = None
    lon_column: str | None = None
    exclude_columns: tuple[str, ...] = ()
    null_markers: tuple[str, ...] = ("",)
    delimiter: str = ","
    keep_id_attribute: bool = False

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SchemaConfig":
        known = {
            "id_column", "lat_column", "lon_column", "exclude_columns",
            "null_markers", "delimiter", "keep_id_attribute",
        }
        unknown = set(doc) - known
        if unknown:
            raise SchemaError(f"unknown schema keys: {sorted(unknown)}")
        return cls(
            id_column=doc.get("id_column"),
            lat_column=doc.get("lat_column"),
            lon_column=doc.get("lon_column"),
            exclude_columns=tuple(doc.get("exclude_columns", ())),
            null_markers=tuple(doc.get("null_markers", ("",))),
            delimiter=doc.get("delimiter", ","),
            keep_id_attribute=doc.get("keep_id_attribute", False),
        )

    def to_json_dict(self) -> dict:
        return {
            "id_column": self.id_column,
            "lat_column": self.lat_column,
            "lon_column": self.lon_column,
            "exclude_columns": list(self.exclude_columns),
            "null_markers": list(self.null_markers),
            "delimiter": self.delimiter,
            "keep_id_attribute": self.keep_id_attribute,
        }

    def effective_excludes(self) -> set[str]:
        excl = set(self.exclude_columns)
        if self.id_column is not None and not self.keep_id_attribute:
            excl.add(self.id_column)
        return excl


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of records from one source.

    ``coordinate_warnings`` counts rows whose coordinate cells were present
    but did not yield a valid location at ingest.
    """

    source_id: str
    records: tuple[Record, ...]
    schema: SchemaConfig = field(default_factory=SchemaConfig)
    coordinate_warnings: int = 0

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class ValidationReport:
    record_count: int
    missing_location_count: int
    duplicate_uris: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.duplicate_uris


def ingest_csv(path: str | Path, source_id: str, schema: SchemaConfig | None = None) -> Dataset:
    """Read one delimited file (header row required) into a Dataset.

    Cells matching a null marker are omitted from the attribute list. When
    both coordinate cells are present and parse into range, the record gets a
    location; a present-but-invalid coordinate pair leaves the location absent
    and increments the dataset's warning counter. The uri is
    ``<source_id>:<id_value>``, falling back to ``<source_id>:row<N>``
    (1-based data row number) when no id column is configured.
    """
    schema = schema or SchemaConfig()
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        for col in (schema.id_column, schema.lat_column, schema.lon_column):
            if col is not None and col not in header:
                raise SchemaError(f"{path}: declared column {col!r} not in header {header}")

        nulls = set(schema.null_markers)
        excludes = schema.effective_excludes()
        records: list[Record] = []
        warnings = 0
        for row_number, row in enumerate(reader, start=1):
            cells = dict(zip(header, row))
            attributes = tuple(
                (name, cells.get(name, ""))
                for name in header
                if name not in excludes and cells.get(name, "") not in nulls
            )
            location, warned = _parse_location(cells, schema, nulls)
            warnings += warned
            if schema.id_column is not None and cells.get(schema.id_column, "") not in nulls:
                uri = f"{source_id}:{cells[schema.id_column]}"
            else:
                uri = f"{source_id}:row{row_number}"
            records.append(Record(uri=uri, source_id=source_id, attributes=attributes, location=location))

    return Dataset(source_id=source_id, records=tuple(records), schema=schema, coordinate_warnings=warnings)


def _parse_location(cells: dict[str, str], schema: SchemaConfig, nulls: set[str]) -> tuple[GeoPoint | None, int]:
    if schema.lat_column is None or schema.lon_column is None:
        return None, 0
    raw_lat = cells.get(schema.lat_column, "")
    raw_lon = cells.get(schema.lon_column, "")
    if raw_lat in nulls or raw_lon in nulls:
        # a genuinely null coordinate is missing data, not a warning
        return None, 0
    try:
        lat, lon = float(raw_lat), float(raw_lon)
    except ValueError:
        return None, 1
    if not _valid_coords(lat, lon):
        return None, 1
    return GeoPoint(lat, lon), 0


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Count records, missing locations, and duplicate uris (reporting only)."""
    seen: set[str] = set()
    duplicates: list[str] = []
    missing = 0
    for record in dataset.records:
        if record.uri in seen:
            duplicates.append(record.uri)
        seen.add(record.uri)
        if record.location is None:
            missing += 1
    return ValidationReport(
        record_count=len(dataset.records),
        missing_location_count=missing,
        duplicate_uris=tuple(duplicates),
    )


def export_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back to delimited text, the inverse of ingest_csv.

    The header is the id column (when configured), any excluded coordinate
    columns (so parsed locations survive), then every attribute name in
    first-seen order. Missing cells are written as empty strings, so the
    round trip is exact only while "" is a configured null marker.
    """
    schema = dataset.schema
    prefix: list[str] = []
    if schema.id_column is not None:
        prefix.append(schema.id_column)
    attr_names = {n for r in dataset.records for n in r.attribute_names}
    coord_columns = []
    for col in (schema.lat_column, schema.lon_column):
        if col is not None and col not in attr_names and col not in prefix:
            coord_columns.append(col)
    prefix.extend(coord_columns)

    # Merge per-record attribute orders into one header. Null omission makes
    # each record's sequence a subsequence of the source column order, so
    # inserting unseen names right after their observed predecessor
    # reconstructs that order.
    attr_columns: list[str] = []
    for record in dataset.records:
        prev = -1
        for name in record.attribute_names:
            if name in prefix:  # id kept as an attribute: already a header column
                continue
            if name in attr_columns:
                prev = attr_columns.index(name)
            else:
                prev += 1
                attr_columns.insert(prev, name)
    columns = prefix + attr_columns

    prefix = f"{dataset.source_id}:"
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=schema.delimiter)
        writer.writerow(columns)
        for record in dataset.records:
            cells = dict(record.attributes)
            if schema.id_column is not None:
                cells[schema.id_column] = record.uri.removeprefix(prefix)
            if coord_columns and record.location is not None:
                if schema.lat_column in coord_columns:
                    cells[schema.lat_column] = repr(record.location.lat)
                if schema.lon_column in coord_columns:
                    cells[schema.lon_column] = repr(record.location.lon)
            writer.writerow([cells.get(c, "") for c in columns])


def write_records_jsonl(records: Iterable[Record], path: str | Path) -> None:
    """Persist records as JSON Lines, the between-stage artifact format."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for r in records:
            doc = {
                "uri": r.uri,
                "source_id": r.source_id,
                "attributes": [[n, v] for n, v in r.attributes],
                "location": list(r.location) if r.location is not None else None,
            }
            fh.write(json.dumps(doc) + "\n")


def read_records_jsonl(path: str | Path) -> list[Record]:
    out: list[Record] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            location = GeoPoint(*doc["location"]) if doc.get("location") is not None else None
            out.append(
                Record(
                    uri=doc["uri"],
                    source_id=doc["source_id"],
                    attributes=tuple((n, v) for n, v in doc["attributes"]),
                    location=location,
                )
            )
    return out


def record_index(records: Iterable[Record]) -> dict[str, Record]:
    """uri -> Record lookup; raises on duplicate uris, naming every one.

    This is the one duplicate-uri check that rejects input; ``validate_dataset``
    only reports.
    """
    index: dict[str, Record] = {}
    dups: set[str] = set()
    for r in records:
        if r.uri in index:
            dups.add(r.uri)
        index[r.uri] = r
    if dups:
        raise DataError(f"duplicate uris across records: {sorted(dups)}")
    return index
