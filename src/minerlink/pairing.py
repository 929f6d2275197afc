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
from itertools import combinations
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .records import JSONL_ROW_ERRORS, Dataset, Record, open_utf8, record_index, row_error


@dataclass(frozen=True, slots=True)
class PairKey:
    """Canonical record-pair key: uri_1 < uri_2 lexicographically."""

    uri_1: str
    uri_2: str

    def __post_init__(self):
        if not self.uri_1 < self.uri_2:
            raise DataError(f"pair key not canonical: {self.uri_1!r} !< {self.uri_2!r}")

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


@dataclass(frozen=True, slots=True)
class LabeledPair:
    key: PairKey
    label: int  # 1 = match, 0 = non-match
    provenance: Provenance
    raw_response: str | None = None

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label!r}")


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
    pairs = [PairKey(a, b) for a, b in combinations(uris, 2)]
    if max_distance_km is not None:
        from .matcher import haversine_km

        def keep(key: PairKey) -> bool:
            pa, pb = by_uri[key.uri_1].location, by_uri[key.uri_2].location
            if pa is None or pb is None:
                return True
            return haversine_km(pa, pb) <= max_distance_km

        pairs = [k for k in pairs if keep(k)]
    return pairs


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
# goes through json.loads. Both paths build rows through PairKey and
# LabeledPair, so every row check and error message is the same.

# a JSON string without escapes or control characters decodes to its own text
_PLAIN_STR = r'"([^"\\\x00-\x1f]*)"'
_PAIR_KEY_LINE = re.compile(rf'\{{"uri_1": {_PLAIN_STR}, "uri_2": {_PLAIN_STR}\}}\n?').fullmatch
_PROVENANCE_OF = {p.value: p for p in Provenance}
_PROVENANCE_JSON = {p: _json_str(p.value) for p in Provenance}
_LABELED_LINE = re.compile(
    rf'\{{"uri_1": {_PLAIN_STR}, "uri_2": {_PLAIN_STR}, "label": ([01]), '
    rf'"provenance": "({"|".join(map(re.escape, _PROVENANCE_OF))})"'
    rf'(?:, "raw_response": {_PLAIN_STR})?\}}\n?'
).fullmatch


def write_pair_keys(keys: Iterable[PairKey], path: str | Path) -> None:
    """JSON Lines exchange format: uri_1, uri_2."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(f'{{"uri_1": {_json_str(k.uri_1)}, "uri_2": {_json_str(k.uri_2)}}}\n' for k in keys)


def read_pair_keys(path: str | Path) -> list[PairKey]:
    out = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            m = _PAIR_KEY_LINE(line)
            try:
                if m:
                    out.append(PairKey(m[1], m[2]))
                elif line.strip():
                    doc = json.loads(line)
                    out.append(PairKey(doc["uri_1"], doc["uri_2"]))
            except JSONL_ROW_ERRORS as exc:
                raise row_error(path, lineno, exc) from exc
    return out


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
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(_labeled_line, pairs))


def read_labeled_pairs(path: str | Path) -> list[LabeledPair]:
    out = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            m = _LABELED_LINE(line)
            try:
                if m:
                    uri_1, uri_2, label, provenance, raw_response = m.groups()
                    out.append(
                        LabeledPair(PairKey(uri_1, uri_2), int(label), _PROVENANCE_OF[provenance], raw_response)
                    )
                elif line.strip():
                    doc = json.loads(line)
                    out.append(
                        LabeledPair(
                            key=PairKey(doc["uri_1"], doc["uri_2"]),
                            label=int(doc["label"]),
                            provenance=Provenance(doc["provenance"]),
                            raw_response=doc.get("raw_response"),
                        )
                    )
            except JSONL_ROW_ERRORS as exc:
                raise row_error(path, lineno, exc) from exc
    return out
