"""Candidate-pair enumeration, stratified splits, and sweep subsampling.

Every pair of pooled records is a candidate: n records yield n(n-1)/2 keys,
within and across sources alike. No spatial blocking is applied by default
because true matches in this domain can sit tens of kilometers apart; an
optional distance prefilter exists for callers who accept that risk.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DataError
from .records import Dataset, Record, atomic_text, read_rows, record_index

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


def enumerate_pairs(
    datasets: Sequence[Dataset] | Sequence[Record],
    max_distance_km: float | None = None,
) -> list[PairKey]:
    """All n(n-1)/2 canonical pairs over the pooled records, sorted.

    ``max_distance_km`` optionally drops pairs whose records both carry a
    location farther apart than the threshold; pairs with a missing location
    always survive the prefilter. Ships disabled (None).
    """
    records: list[Record] = []
    for item in datasets:
        if isinstance(item, Dataset):
            records.extend(item.records)
        else:
            records.append(item)

    by_uri = record_index(records)
    uris = sorted(by_uri)
    # the uris are sorted and distinct, so every combination is canonical
    pairs = [_tuple_new(PairKey, ab) for ab in combinations(uris, 2)]
    if max_distance_km is not None:
        from .matcher import haversine_km

        def keep(key: PairKey) -> bool:
            pa, pb = by_uri[key.uri_1].location, by_uri[key.uri_2].location
            if pa is None or pb is None:
                return True
            return haversine_km(pa, pb) <= max_distance_km

        pairs = [k for k in pairs if keep(k)]
    return pairs


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
# escapes). Readers match that canonical line with one regex; any other
# non-blank line (reordered keys, escapes, extra spaces, label true or 1.0)
# goes through json.loads. A matched line already holds a 0/1 label and a
# known provenance, so once its uris are in canonical order its row is built
# with tuple.__new__, skipping the constructors' checks it has passed. Any
# other line, a matched one with uri_1 >= uri_2 included, is built through
# PairKey and LabeledPair, so every row check and error message is the same.
# The json.loads path also requires string uris and a string or null
# raw_response (the regex matches nothing else), checked after the key,
# label and provenance checks, so a row failing one of those keeps its error.

# a JSON string without escapes or control characters decodes to its own text
_PLAIN_STR = r'"([^"\\\x00-\x1f]*)"'
_PAIR_KEY_LINE = re.compile(rf'\{{"uri_1": {_PLAIN_STR}, "uri_2": {_PLAIN_STR}\}}\n?').fullmatch
_LABEL_OF = {"0": 0, "1": 1}
_PROVENANCE_OF = {p.value: p for p in Provenance}
_PROVENANCE_JSON = {p: _json_str(p.value) for p in Provenance}
_LABELED_LINE = re.compile(
    rf'\{{"uri_1": {_PLAIN_STR}, "uri_2": {_PLAIN_STR}, "label": ([01]), '
    rf'"provenance": "({"|".join(map(re.escape, _PROVENANCE_OF))})"'
    rf'(?:, "raw_response": {_PLAIN_STR})?\}}\n?'
).fullmatch


def write_pair_keys(keys: Iterable[PairKey], path: str | Path) -> None:
    """JSON Lines exchange format: uri_1, uri_2."""
    with atomic_text(path) as fh:
        fh.writelines(f'{{"uri_1": {_json_str(k.uri_1)}, "uri_2": {_json_str(k.uri_2)}}}\n' for k in keys)


def _string_uris(key: PairKey) -> PairKey:
    if type(key.uri_1) is not str or type(key.uri_2) is not str:
        raise TypeError(f"uris must be strings: {key.uri_1!r}, {key.uri_2!r}")
    return key


def _pair_key_row(line: str) -> PairKey:
    m = _PAIR_KEY_LINE(line)
    if m:
        uris = m.groups()
        if uris[0] < uris[1]:
            return _tuple_new(PairKey, uris)
    doc = json.loads(line)
    return _string_uris(PairKey(doc["uri_1"], doc["uri_2"]))


def read_pair_keys(path: str | Path) -> list[PairKey]:
    return read_rows(path, _pair_key_row)


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
    with atomic_text(path) as fh:
        fh.writelines(map(_labeled_line, pairs))


def _labeled_row(line: str) -> LabeledPair:
    m = _LABELED_LINE(line)
    if m:
        uri_1, uri_2, label, provenance, raw_response = m.groups()
        if uri_1 < uri_2:
            key = _tuple_new(PairKey, (uri_1, uri_2))
            return _tuple_new(LabeledPair, (key, _LABEL_OF[label], _PROVENANCE_OF[provenance], raw_response))
    doc = json.loads(line)
    key = PairKey(doc["uri_1"], doc["uri_2"])
    pair = LabeledPair(key, int(doc["label"]), Provenance(doc["provenance"]), doc.get("raw_response"))
    _string_uris(key)
    if pair.raw_response is not None and type(pair.raw_response) is not str:
        raise TypeError(f"raw_response must be a string or null: {pair.raw_response!r}")
    return pair


def read_labeled_pairs(path: str | Path) -> list[LabeledPair]:
    return read_rows(path, _labeled_row)
