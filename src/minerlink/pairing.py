"""Candidate-pair enumeration, stratified splits, and sweep subsampling.

Every pair of pooled records is a candidate: n records yield n(n-1)/2 keys,
within and across sources alike, unblocked, as true matches in this domain
can sit tens of km apart (``matcher.near_pairs`` filters keys by distance).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, compress, repeat, starmap
from json.encoder import encode_basestring_ascii as _json_str
from operator import lt
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DataError
from .records import Dataset, Record, read_rows, record_index, write_lines

# builds a tuple subclass without its __new__: only for fields already checked
_tuple_new = tuple.__new__


class _PairKeyFields(NamedTuple):
    uri_1: str
    uri_2: str


class PairKey(_PairKeyFields):
    """Canonical record-pair key: uri_1 < uri_2 lexicographically.

    A tuple, so it hashes, compares and orders in C, and equals the plain
    tuple ``(uri_1, uri_2)``. Every way of building one runs the check:
    the constructor, ``_make`` and so ``_replace``, and unpickling at
    protocol 2 or later (the default).
    """

    __slots__ = ()

    def __new__(cls, uri_1: str, uri_2: str) -> "PairKey":
        if not uri_1 < uri_2:
            raise DataError(f"pair key not canonical: {uri_1!r} !< {uri_2!r}")
        return _tuple_new(cls, (uri_1, uri_2))

    @classmethod
    def _make(cls, iterable: Iterable[str]) -> "PairKey":
        return cls(*iterable)

    @classmethod
    def of(cls, a: str, b: str) -> "PairKey":
        """Build a canonical key from uris in either order."""
        if a == b:
            raise DataError(f"self-pair not allowed: {a!r}")
        return cls(a, b) if a < b else cls(b, a)


class Provenance(Enum):
    GROUND_TRUTH = "GroundTruth"
    LLM = "LLM"
    LLM_ABSTAIN_DEFAULT = "LLMAbstainDefault"
    PREDICTED = "Predicted"


class _LabeledPairFields(NamedTuple):
    key: PairKey
    label: int  # 1 = match, 0 = non-match
    provenance: Provenance
    raw_response: str | None = None


class LabeledPair(_LabeledPairFields):
    """A labeled key; a tuple checked on every way in, as ``PairKey`` is."""

    __slots__ = ()

    def __new__(cls, key: PairKey, label: int, provenance: Provenance, raw_response: str | None = None) -> "LabeledPair":
        if label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {label!r}")
        return _tuple_new(cls, (key, label, provenance, raw_response))

    @classmethod
    def _make(cls, iterable: Iterable) -> "LabeledPair":
        return cls(*iterable)


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffling seed."""

    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        if len(self.fractions) != 3:
            raise DataError("fractions must be a (train, val, test) triple")
        if any(f < 0 or f > 1 for f in self.fractions):
            raise DataError(f"fractions must lie in [0, 1]: {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise DataError(f"fractions must sum to 1: {self.fractions}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0: {self.seed}")


def enumerate_pairs(datasets: Sequence[Dataset] | Sequence[Record]) -> list[PairKey]:
    """All n(n-1)/2 canonical pairs over the pooled records, sorted."""
    records: list[Record] = []
    for item in datasets:
        if isinstance(item, Dataset):
            records.extend(item.records)
        else:
            records.append(item)
    uris = sorted(record_index(records))  # duplicate uris are a DataError
    # the uris are sorted and distinct, so every combination is canonical
    return [_tuple_new(PairKey, ab) for ab in combinations(uris, 2)]


def resolve_uris(keys: Iterable[PairKey], records: Mapping[str, Record] | Iterable[Record]) -> dict[str, Record]:
    """uri -> Record for every uri the keys name, from a uri -> Record
    mapping or from records (checked for duplicate uris); a uri missing
    from ``records`` is a DataError."""
    index = records if isinstance(records, Mapping) else record_index(records)
    uris = set(chain.from_iterable(keys))
    missing = uris - index.keys()
    if missing:
        raise DataError(f"unresolved uris in pair keys: {sorted(missing)[:5]}")
    return {u: index[u] for u in uris}


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _allocate_largest_remainder(count: int, fractions: Sequence[float]) -> list[int]:
    """Integer allocation of ``count`` over fractions, off by at most 1 each."""
    ideals = [f * count for f in fractions]
    base = [math.floor(x) for x in ideals]
    leftover = count - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(ideals[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def stratified_split(
    pairs: Sequence[LabeledPair], spec: SplitSpec
) -> tuple[list[LabeledPair], list[LabeledPair], list[LabeledPair]]:
    """Partition pairs into (train, val, test) with per-class proportions.

    For each class, the split sizes follow largest-remainder rounding, so
    every per-class count is within 1 of fraction * class size. Disjoint,
    exhaustive, and deterministic for a given seed.
    """
    if not pairs:
        raise DataError("cannot split an empty pair list")
    rng = random.Random(spec.seed)
    splits: tuple[list[LabeledPair], list[LabeledPair], list[LabeledPair]] = ([], [], [])
    for label in (0, 1):
        members = [p for p in pairs if p.label == label]
        if not members:
            continue
        rng.shuffle(members)
        counts = _allocate_largest_remainder(len(members), spec.fractions)
        start = 0
        for split, count in zip(splits, counts):
            split.extend(members[start : start + count])
            start += count
    return splits


def subsample_sweep(
    pairs: Sequence[LabeledPair], match_count: int, nonmatch_count: int, seed: int
) -> list[LabeledPair]:
    """Draw exact per-class counts uniformly without replacement."""
    matches = [p for p in pairs if p.label == 1]
    nonmatches = [p for p in pairs if p.label == 0]
    if match_count > len(matches):
        raise DataError(
            f"insufficient match pairs: requested {match_count}, "
            f"available {len(matches)} (short by {match_count - len(matches)})"
        )
    if nonmatch_count > len(nonmatches):
        raise DataError(
            f"insufficient non-match pairs: requested {nonmatch_count}, "
            f"available {len(nonmatches)} (short by {nonmatch_count - len(nonmatches)})"
        )
    rng = random.Random(seed)
    return rng.sample(matches, match_count) + rng.sample(nonmatches, nonmatch_count)


# JSON Lines codec. Writers format each line directly, byte-identical to
# json.dumps(doc) + "\n" (same key order, ", " and ": " separators, ASCII
# escapes), and join each block of lines into one write. Readers get the
# file from records.read_rows a block of lines at a time, and each row type
# has one regex: one findall over the block matches each line once, a
# canonical line with its fields as groups, any other with every group "".
# A canonical line holds string uris, a 0/1 label, a known provenance and a
# JSON string or nothing as raw_response, so once its uris are in canonical
# order it has passed the constructors' checks, and the block's rows are
# built by C-level maps with tuple.__new__. A raw_response may hold escapes,
# as a model's answer often does; json.loads decodes each distinct one. Any
# other non-blank line (reordered keys, escaped uris, extra spaces, label
# true or 1.0, uri_1 >= uri_2, a torn last line) goes through json.loads,
# PairKey and LabeledPair, one line at a time, so every row, error and
# <path>:<line> is the one a line-by-line read gives. The json.loads path
# also requires string uris and a string or null raw_response (the regex
# matches nothing else), checked after the key, label and provenance checks,
# so a row failing one of those keeps its error.

# a JSON string without escapes or control characters decodes to its own text
_PLAIN = r'[^"\\\x00-\x1f]*'
_PLAIN_STR = rf'"({_PLAIN})"'
# a JSON string, escapes allowed; like _PLAIN_STR, no line end falls inside it
_JSON_STR = rf'"{_PLAIN}(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{{4}}){_PLAIN})*"'
# a canonical line ends in a newline, or in none as the file's last line
_LINE_END = r"(?:\n|\Z)"
# any line that is not canonical, so that a block's matches are its lines
_OTHER_LINE = r"|.*\n|.+"
_PAIR_KEY = rf'\{{"uri_1": {_PLAIN_STR}, "uri_2": {_PLAIN_STR}\}}'
_PAIR_KEY_LINES = re.compile(rf"{_PAIR_KEY}{_LINE_END}{_OTHER_LINE}").findall
_LABEL_OF = {"0": 0, "1": 1}
_PROVENANCE_OF = {p.value: p for p in Provenance}
_PROVENANCE_JSON = {p: _json_str(p.value) for p in Provenance}
# the raw_response group keeps its quotes, so that findall, which gives ""
# for a group that did not match, tells an absent raw_response from ""
_LABELED = (
    rf'\{{"uri_1": {_PLAIN_STR}, "uri_2": {_PLAIN_STR}, "label": ([01]), '
    rf'"provenance": "({"|".join(map(re.escape, _PROVENANCE_OF))})"'
    rf'(?:, "raw_response": ({_JSON_STR}))?\}}'
)
_LABELED_LINES = re.compile(rf"{_LABELED}{_LINE_END}{_OTHER_LINE}").findall


def write_pair_keys(keys: Iterable[PairKey], path: str | Path) -> None:
    """JSON Lines exchange format: uri_1, uri_2."""
    write_lines((f'{{"uri_1": {_json_str(k.uri_1)}, "uri_2": {_json_str(k.uri_2)}}}\n' for k in keys), path)


def _string_uris(key: PairKey) -> PairKey:
    if type(key.uri_1) is not str or type(key.uri_2) is not str:
        raise TypeError(f"uris must be strings: {key.uri_1!r}, {key.uri_2!r}")
    return key


def _pair_key_row(line: str) -> PairKey:
    doc = json.loads(line)
    return _string_uris(PairKey(doc["uri_1"], doc["uri_2"]))


def _pair_key_block(block: str) -> tuple[list[PairKey], list[bool] | None]:
    """The keys of the lines of a block that are canonical ones with uri_1 <
    uri_2 (every group of any other line is ""), and which lines those are:
    None when they are all of them."""
    found = _PAIR_KEY_LINES(block)
    if all(starmap(lt, found)):
        return list(map(_tuple_new, repeat(PairKey), found)), None
    read = list(starmap(lt, found))
    return list(map(_tuple_new, repeat(PairKey), compress(found, read))), read


def read_pair_keys(path: str | Path) -> list[PairKey]:
    return read_rows(path, _pair_key_row, _pair_key_block)


def _labeled_line(p: LabeledPair) -> str:
    if type(p.label) is not int:  # bool or float: json.dumps spells it (true, 1.0)
        doc = {"uri_1": p.key.uri_1, "uri_2": p.key.uri_2, "label": p.label, "provenance": p.provenance.value}
        if p.raw_response is not None:
            doc["raw_response"] = p.raw_response
        return json.dumps(doc) + "\n"
    raw = "" if p.raw_response is None else f', "raw_response": {_json_str(p.raw_response)}'
    return (
        f'{{"uri_1": {_json_str(p.key.uri_1)}, "uri_2": {_json_str(p.key.uri_2)}, '
        f'"label": {p.label}, "provenance": {_PROVENANCE_JSON[p.provenance]}{raw}}}\n'
    )


def write_labeled_pairs(pairs: Iterable[LabeledPair], path: str | Path) -> None:
    """JSON Lines exchange format: uri_1, uri_2, label, provenance[, raw_response]."""
    write_lines(map(_labeled_line, pairs), path)


def _raw_response(quoted: str) -> str | None:
    """The text of a quoted raw_response; None when the line has none (its
    group is "")."""
    if not quoted:
        return None
    return json.loads(quoted) if "\\" in quoted else quoted[1:-1]


def _labeled_row(line: str) -> LabeledPair:
    doc = json.loads(line)
    key = PairKey(doc["uri_1"], doc["uri_2"])
    label = doc["label"]
    # of the values json.loads gives, only ints, floats and bools equal 0 or 1
    if label not in (0, 1):
        raise DataError(f"label must be 0 or 1, got {label!r}")
    pair = LabeledPair(key, int(label), Provenance(doc["provenance"]), doc.get("raw_response"))
    _string_uris(key)
    if pair.raw_response is not None and type(pair.raw_response) is not str:
        raise TypeError(f"raw_response must be a string or null: {pair.raw_response!r}")
    return pair


def _labeled_block(block: str) -> tuple[list[LabeledPair], list[bool] | None]:
    """As ``_pair_key_block``, for labeled pairs."""
    # the columns of the matches; the list of them is freed once they are built
    uri_1, uri_2, label, provenance, raw = zip(*_LABELED_LINES(block))
    read = None
    if not all(map(lt, uri_1, uri_2)):
        read = list(map(lt, uri_1, uri_2))
        uri_1, uri_2, label, provenance, raw = (list(compress(c, read)) for c in (uri_1, uri_2, label, provenance, raw))
    # each distinct raw_response decoded once, so that its rows share one string
    raw_of = {quoted: _raw_response(quoted) for quoted in set(raw)}
    keys = map(_tuple_new, repeat(PairKey), zip(uri_1, uri_2))
    fields = zip(keys, map(_LABEL_OF.__getitem__, label), map(_PROVENANCE_OF.__getitem__, provenance),
                 map(raw_of.__getitem__, raw))
    return list(map(_tuple_new, repeat(LabeledPair), fields)), read


def read_labeled_pairs(path: str | Path) -> list[LabeledPair]:
    return read_rows(path, _labeled_row, _labeled_block)
