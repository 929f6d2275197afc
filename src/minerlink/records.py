"""Uniform record model over heterogeneous tabular mineral-site databases.

Sources such as MRDS and USMIN disagree on schemas, identifier columns, and
null conventions. Ingestion maps each delimited-text file onto an ordered,
null-free attribute list per record, an optional geographic point, and a
globally unique uri of the form ``<source_id>:<id_value>``.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO, TypeVar

from .config import decode
from .errors import DataError, SchemaError

T = TypeVar("T")


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

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise DataError(f"delimiter must be one character: {self.delimiter!r}")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SchemaConfig":
        return decode(cls, doc, "schema")

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
    coordinate_warnings: int = 0


@dataclass(frozen=True)
class ValidationReport:
    record_count: int
    missing_location_count: int
    duplicate_uris: tuple[str, ...]


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
    with open_csv(path, schema.delimiter) as reader:
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
            try:
                records.append(Record(uri=uri, source_id=source_id, attributes=attributes, location=location))
            except DataError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from exc

    return Dataset(source_id=source_id, records=tuple(records), coordinate_warnings=warnings)


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


def _record_line(r: Record) -> str:
    doc = {
        "uri": r.uri,
        "source_id": r.source_id,
        "attributes": [[n, v] for n, v in r.attributes],
        "location": list(r.location) if r.location is not None else None,
    }
    return json.dumps(doc) + "\n"


def write_records_jsonl(records: Iterable[Record], path: str | Path) -> None:
    """Persist records as JSON Lines, the between-stage artifact format."""
    write_lines(map(_record_line, records), path)


def row_error(path: str | Path, lineno: int, exc: Exception) -> DataError:
    """The error for an artifact row that cannot be read, naming file and
    line; its ``lineno`` holds the line number."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else f"malformed row: {exc}"
    error = DataError(f"{path}:{lineno}: {what}")
    error.lineno = lineno
    return error


@contextmanager
def open_utf8(path: str | Path, newline: str | None = None, errors: str = "strict") -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 raise a
    DataError naming the file and the line they are on."""
    with Path(path).open("r", encoding="utf-8", newline=newline, errors=errors) as fh:
        try:
            yield fh
        except UnicodeDecodeError:  # the text layer decodes in chunks: find the line
            # bytes.splitlines ends lines at "\n", "\r" and "\r\n", as the text layer and csv do
            for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise row_error(path, lineno, exc) from None
            raise


@contextmanager
def open_csv(path: str | Path, delimiter: str = ",") -> Iterator[Iterator[list[str]]]:
    """A csv reader over ``path`` opened with ``open_utf8``; a row the csv
    module cannot split (a field over its size limit) is a DataError naming
    the file and line."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            yield reader
        except csv.Error as exc:
            raise row_error(path, reader.line_num, exc) from exc


# what json.loads and the row constructors raise on a malformed row
JSONL_ROW_ERRORS = (ValueError, KeyError, TypeError, AttributeError, DataError)


# the readers take about this many characters of text at a time, and the
# writers join this many lines into one write
_BLOCK_CHARS = 1 << 20
_BLOCK_LINES = 8192
# one line of a block with its "\n"; the last may have none
_LINES = re.compile(".*\n|.+").findall
# what the surrogateescape error handler decodes a byte that is not UTF-8 to
_NOT_UTF8 = re.compile("[\udc80-\udcff]").search


def read_rows(
    path: str | Path,
    parse: Callable[[str], T],
    parse_block: Callable[[str], tuple[list[T], list[bool] | None]] | None = None,
) -> list[T]:
    """The one row loop of the JSON Lines readers: ``parse`` each non-blank
    line; a line it rejects, or the first line holding bytes that are not
    UTF-8, is a DataError naming ``<path>:<line>``, raised after the lines
    before it are read.

    The text is read about ``_BLOCK_CHARS`` characters at a time, each block
    ending at a line end. ``parse_block(block)`` returns the rows of the
    lines of the block it reads, in order, and None when it reads every
    line, else one flag per line of the block, true for a line it read;
    ``parse`` reads the others. The cyclic GC is paused while rows are
    built: rows are acyclic, so collections over them free nothing.
    """
    out: list[T] = []
    start = 0  # lines before the block
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open_utf8(path, errors="surrogateescape") as fh:
            while block := fh.read(_BLOCK_CHARS):
                if block[-1] != "\n":
                    block += fh.readline()
                bad = None if block.isascii() else _NOT_UTF8(block)
                if bad:  # the block ends before the line that holds it
                    cut = block.rfind("\n", 0, bad.start()) + 1
                    block, rest = block[:cut], block[cut : bad.end()]
                if block:
                    out += _block_rows(path, block, start, parse, parse_block)
                if bad:  # decoded strictly, its line raises the error open_utf8 names
                    rest.encode("utf-8", "surrogateescape").decode("utf-8")
                start += block.count("\n")
                del block  # before the next block is read
    finally:
        if enabled:
            gc.enable()
    return out


def _block_rows(
    path: str | Path,
    block: str,
    start: int,
    parse: Callable[[str], T],
    parse_block: Callable[[str], tuple[list[T], list[bool] | None]] | None,
) -> list[T]:
    """The rows of ``block``, the lines of ``path`` after its first ``start``."""
    rows, read = parse_block(block) if parse_block else ((), repeat(False))
    if read is None:
        return rows
    out: list[T] = []
    take = iter(rows).__next__
    for was_read, line, lineno in zip(read, _LINES(block), count(start + 1)):
        if was_read:
            out.append(take())
        elif not line.isspace():  # no line is "", so this is line.strip()
            try:
                out.append(parse(line))
            except JSONL_ROW_ERRORS as exc:
                raise row_error(path, lineno, exc) from exc
    return out


@contextmanager
def atomic_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """UTF-8 text written to ``<name>.tmp`` beside ``path`` and moved over it
    when the block ends; on any exception the temp file is removed and
    ``path`` keeps its previous bytes, so no writer leaves a truncated file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Text lines, each ending in a newline, written atomically; each
    ``_BLOCK_LINES`` of them are joined into one write."""
    lines = iter(lines)
    with atomic_text(path) as fh:
        while block := "".join(islice(lines, _BLOCK_LINES)):
            fh.write(block)


def write_json(doc: object, path: str | Path) -> None:
    """One JSON document, indented by 2, written atomically."""
    with atomic_text(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _record_row(line: str) -> Record:
    doc = json.loads(line)
    uri, source_id, attributes, location = doc["uri"], doc["source_id"], doc["attributes"], doc.get("location")
    if type(uri) is not str or type(source_id) is not str:
        raise TypeError("uri and source_id must be strings")
    if type(attributes) is not list or not all(
        type(a) is list and len(a) == 2 and type(a[0]) is str and type(a[1]) is str for a in attributes
    ):
        raise TypeError("attributes must be an array of [name, value] string pairs")
    if location is not None:
        if type(location) is not list or len(location) != 2 or not all(type(c) in (int, float) for c in location):
            raise TypeError("location must be null or an array of two numbers")
        location = GeoPoint(*location)
    return Record(uri, source_id, tuple(map(tuple, attributes)), location)


def read_records_jsonl(path: str | Path) -> list[Record]:
    return read_rows(path, _record_row)


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
