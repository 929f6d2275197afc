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
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .records import JSONL_ROW_ERRORS, Dataset, Record, jsonl_row_error, record_index


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


def write_pair_keys(keys: Iterable[PairKey], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for k in keys:
            fh.write(json.dumps({"uri_1": k.uri_1, "uri_2": k.uri_2}) + "\n")


def read_pair_keys(path: str | Path) -> list[PairKey]:
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    doc = json.loads(line)
                    out.append(PairKey(doc["uri_1"], doc["uri_2"]))
                except JSONL_ROW_ERRORS as exc:
                    raise jsonl_row_error(path, lineno, exc) from exc
    return out


def write_labeled_pairs(pairs: Iterable[LabeledPair], path: str | Path) -> None:
    """JSON Lines exchange format: uri_1, uri_2, label, provenance[, raw_response]."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in pairs:
            doc = {
                "uri_1": p.key.uri_1,
                "uri_2": p.key.uri_2,
                "label": p.label,
                "provenance": p.provenance.value,
            }
            if p.raw_response is not None:
                doc["raw_response"] = p.raw_response
            fh.write(json.dumps(doc) + "\n")


def read_labeled_pairs(path: str | Path) -> list[LabeledPair]:
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
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
                raise jsonl_row_error(path, lineno, exc) from exc
    return out
