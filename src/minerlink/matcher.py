"""Pairwise match decisions for mineral-site records.

Two deciders share one feature toolbox:

* ``rule_match`` -- the curated baseline: a distance threshold ANDed with a
  name-similarity threshold (5 km / 0.85 cosine defaults);
* ``train_classifier`` / ``predict`` -- a logistic model over seven pair
  features, trained with seeded mini-batch gradient descent on labeled pairs
  (typically the LLM-labeled set) and persisted as JSON.

Text similarity is character-trigram cosine over case-folded,
whitespace-collapsed strings; geographic distance is haversine on a sphere
of mean radius 6371 km.

Batch work (``featurize_pairs``, and so ``train_classifier``,
``predict_pairs`` and the sweep; ``rule_match_pairs``, and ``near_pairs``,
its distance clause alone) runs on a columnar kernel. Each record a call
touches is profiled once into int-coded tables: its names with their Myers
match masks, and its trigram counts, name tokens, commodity tokens and
attributes as rows of item ids. Each call builds its own tables, and the
calls of ``train`` and the sweep, over pairs sampled across the corpus,
touch nearly two new records per pair, so the tables must be cheap to build:

* the record and name trigram tables are built by numpy alone
  (``_Bags.of_trigrams``): one read of all code points, one integer code
  per trigram, counts per row by sorting;
* so are the Myers tables: one read of the names' code points, the
  characters numbered by sorting, each position's bit ORed into its
  (name, character) cell;
* every attribute value is normalized once per call, all records' at once
  by C-level maps, into one casefolded map per record that the name,
  commodity and attribute tables all read, and the record text that the
  trigram table reads;
* set rows (name tokens, commodities, attributes) take their item ids from
  one C-level dict numbering of all their items (``_numbered``);
* what stays Python per record is building that map and text, picking its
  name and commodity values, and splitting its commodity tokens.

On the ``train-sweep`` benchmark pool (0.14 records per pair) the tables
take about 45% of a ``featurize_pairs`` call, and about 77% at two records
per pair; at the ``link`` workload's 0.03 records per pair, about 20%.

Then every column is computed with numpy and written straight into the
result, a block of two ``CHUNK_PAIRS`` chunks of keys at a time, so memory
beyond the profiles (with their grams, below) and the result is bounded by
one block. The keys of a block are read into record indices by one C-level
map, and the name lanes (every pair of the two records' names) are built
once per block and shared by the name columns:

* name Levenshtein runs the Myers/Hyyro bit-vector recurrence, one uint64
  lane per name pair, one numpy step per text position over every lane at
  once (Myers, JACM 1999; many sequences in lanes as in Rognes, BMC
  Bioinformatics 2011). Where the keys cover most pairs of their names, it
  runs once per call over each distinct pair of short names into a table
  (``_name_distances``), and each lane is one gather from it; elsewhere it
  runs over the lanes of each block, and its fixed numpy cost per step is
  why a block spans two chunks. A name of 64 characters or more keeps the
  Python-int recurrence, which has no length limit;
* trigram cosines, Jaccards and attribute agreement are integer overlap
  counts (dot products, intersection sizes) divided once. Each overlap
  table reads them one of two ways (``_Bags.plan``), chosen per call from
  its row, item and key counts. Where the keys cover most pairs of their
  records (``predict`` over ``pairs.jsonl``), it builds its gram once, every
  row's overlap with every row by numpy's own einsum loops (no BLAS), and
  each key is one gather from it. Where the keys are sparse (``train`` and
  the sweep draw about 0.14 records per pair), it walks only the keys asked
  for, by a ragged gather of the stored items of their rows; the record
  columns, whose transient arrays then grow with the shared trigrams, run
  one chunk at a time;
* haversine runs in numpy wherever numpy gives ``math``'s results bit for
  bit, and as C-level maps of scalar ``pow``, ``math.asin`` and
  ``math.log1p`` for the squares, arcsine and ``log1p``, where numpy's
  results differ from ``math``'s by an ulp; no Python frame runs per pair.

Every column is bit-identical to the per-pair Python code, by either read:
the overlaps are integer sums whose every partial sum is at most the
largest row's sum of squared counts, exact in float64 below 2**53 and in
the gram's float32 below 2**24 (float64 above), whatever their order; and
two trigram profiles are equal exactly when dot == |a|^2 == |b|^2. The
one-pair views ``extract_features`` and ``predict`` run the same kernel.
``rule_match`` stays per-pair Python, and no CLI stage runs it (``pairs
--max-distance-km`` runs ``near_pairs``): ``text_cosine`` reads each name's
trigram counts and norm from a bounded, process-wide memo
(``_text_profile``), so a pass over many pairs profiles each distinct name
once, and ``haversine_km`` checks its four coordinates by one inline range
comparison.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, mul
from pathlib import Path
from typing import Collection, Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import decode, encode
from .errors import ConfigError, DataError
from .evaluate import confusion_counts, macro_f1
from .pairing import LabeledPair, PairKey, resolve_uris
from .records import JSONL_ROW_ERRORS, GeoPoint, Record, _valid_coords, write_json

EARTH_RADIUS_KM = 6371.0
_DIAMETER_KM = 2.0 * EARTH_RADIUS_KM  # exact, so 2.0 * R * x == _DIAMETER_KM * x

MODEL_FORMAT_VERSION = 1


class DegenerateTrainingWarning(UserWarning):
    """Training data cannot support a two-class decision (single class, ...)."""


# ---------------------------------------------------------------------------
# Geographic distance
# ---------------------------------------------------------------------------


def haversine_km(p1: GeoPoint | tuple[float, float], p2: GeoPoint | tuple[float, float]) -> float:
    """Great-circle distance in kilometers between two (lat, lon) points."""
    lat1, lon1 = p1
    lat2, lon2 = p2
    # one inline range check per call (False for NaN and infinities, as in
    # _valid_coords); the loop only finds the point to name
    if not (-90.0 <= lat1 <= 90.0 and -90.0 <= lat2 <= 90.0 and -180.0 <= lon1 <= 180.0 and -180.0 <= lon2 <= 180.0):
        for lat, lon in ((lat1, lon1), (lat2, lon2)):
            if not _valid_coords(lat, lon):
                raise ValueError(f"coordinates out of range: ({lat}, {lon})")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, a)))


# ---------------------------------------------------------------------------
# Text similarity
# ---------------------------------------------------------------------------


def _norm(text: str) -> str:
    return " ".join(text.casefold().split())


def _trigram_counts(normed: str) -> dict[str, int]:
    if not normed:
        return {}
    if len(normed) < 3:
        # too short for a trigram: the whole string is the single gram,
        # so identical short strings still score 1
        return {normed: 1}
    grams = [normed[i : i + 3] for i in range(len(normed) - 2)]
    # most names repeat no trigram, and then one C-level fromkeys counts them
    counts = dict.fromkeys(grams, 1)
    return counts if len(counts) == len(grams) else dict(Counter(grams))


def _count_norm(counts: dict[str, int]) -> float:
    values = counts.values()
    return math.sqrt(sum(map(mul, values, values)))


def _cosine(va: dict[str, int], norm_a: float, vb: dict[str, int], norm_b: float) -> float:
    if not va or not vb:
        return 0.0
    if va == vb:
        return 1.0
    if len(va) > len(vb):
        va, vb = vb, va
    dot = sum(count * vb[gram] for gram, count in va.items() if gram in vb)
    if dot == 0:
        return 0.0
    return min(1.0, dot / (norm_a * norm_b))


@lru_cache(maxsize=4096)
def _text_profile(text: str) -> tuple[dict[str, int], float]:
    """``_trigram_counts`` of the normalized ``text`` and their norm, built once
    per text while the memo holds it; every caller shares the counts, so none
    may change them."""
    counts = _trigram_counts(_norm(text))
    return counts, _count_norm(counts)


def text_cosine(a: str, b: str) -> float:
    """Cosine of character-trigram count vectors, in [0, 1]."""
    return _cosine(*_text_profile(a), *_text_profile(b))


def _myers_peq(pattern: str) -> dict[str, int]:
    """Match bitmask per character: bit i is set where ``pattern[i]`` is it."""
    peq: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    return peq


def _levenshtein(pattern: str, peq: dict[str, int], text: str) -> int:
    """Levenshtein distance by the Myers/Hyyro bit-vector recurrence.

    Myers, "A fast bit-vector algorithm for approximate string matching",
    JACM 46(3) 1999, in the edit-distance form of Hyyro 2001. Bit i of
    ``vp``/``vn`` holds a +1/-1 vertical delta of the DP column at row i;
    Python ints are unbounded, so a pattern longer than a machine word needs
    no blocking. Only ``vp`` is masked: the other vectors are bounded by it
    or only tested at the last row.
    """
    m = len(pattern)
    if m == 0:
        return len(text)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    vp, vn, score = full, 0, m
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(xv | hp)) & full
        vn = hp & xv
    return score


# ---------------------------------------------------------------------------
# Curated rule baseline
# ---------------------------------------------------------------------------


class MissingLocationPolicy(Enum):
    REJECT = "reject"
    TEXT_ONLY = "text_only"


@dataclass(frozen=True)
class RuleConfig:
    max_distance_km: float = 5.0
    min_cosine: float = 0.85
    missing_location_policy: MissingLocationPolicy = MissingLocationPolicy.TEXT_ONLY

    def __post_init__(self):
        if not self.max_distance_km > 0:  # NaN included
            raise DataError(f"max_distance_km must be positive: {self.max_distance_km}")
        if not 0.0 <= self.min_cosine <= 1.0:
            raise DataError(f"min_cosine must lie in [0, 1]: {self.min_cosine}")


@dataclass
class FeatureSpec:
    """Which columns carry names and commodities, per source if needed.

    Column matching is case-insensitive because the source schemas disagree
    on casing (``site_name`` vs ``Ftr_Name``). Name similarity is the best
    score over the cross product of available name values, which lets an
    alternate-name column match a primary-name column.
    """

    name_fields: tuple[str, ...] = ("site_name", "ftr_name", "name", "other_names")
    commodity_fields: tuple[str, ...] = ("commodity", "commod1", "commod2", "commod3")
    name_fields_by_source: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def name_keys(self, source_id: str) -> list[str]:
        """Casefolded name columns of the records of ``source_id``."""
        return [f.casefold() for f in self.name_fields_by_source.get(source_id, self.name_fields)]

    def commodity_keys(self) -> list[str]:
        return [f.casefold() for f in self.commodity_fields]

    def name_values(self, record: Record) -> list[str]:
        return _values(_attribute_map(record), self.name_keys(record.source_id))


def _attribute_map(record: Record) -> dict[str, str]:
    """Attribute values by casefolded name; of two names that fold alike, the later wins."""
    return {n.casefold(): v for n, v in record.attributes}


def _values(by_name: Mapping[str, str], keys: Iterable[str]) -> list[str]:
    return [by_name[k] for k in keys if k in by_name]


def rule_match(a: Record, b: Record, cfg: RuleConfig | None = None, spec: FeatureSpec | None = None) -> int:
    """Curated baseline: 1 iff the distance clause passes AND the best name
    cosine reaches ``min_cosine`` (a record with no names scores 0)."""
    cfg = cfg or RuleConfig()
    if a.location is None or b.location is None:
        if cfg.missing_location_policy is not MissingLocationPolicy.TEXT_ONLY:
            return 0
    elif haversine_km(a.location, b.location) > cfg.max_distance_km:
        return 0
    spec = spec or FeatureSpec()
    names_b = spec.name_values(b)
    best = max((text_cosine(na, nb) for na in spec.name_values(a) for nb in names_b), default=0.0)
    return int(best >= cfg.min_cosine)


def rule_match_pairs(
    keys: Sequence[PairKey],
    records: Mapping[str, Record] | Sequence[Record],
    cfg: RuleConfig | None = None,
    spec: FeatureSpec | None = None,
) -> list[int]:
    """Curated-rule labels in key order, ``_BLOCK_PAIRS`` keys per kernel
    pass; every uri must resolve."""
    cfg = cfg or RuleConfig()
    kernel, row = _PairKernel.over(keys, records, spec or FeatureSpec())
    labels = np.empty(len(keys), np.int64)
    for start, left, right in kernel.blocks(keys, row):
        labels[start : start + len(left)] = kernel.rule(left, right, cfg)
    return labels.tolist()


def near_pairs(keys: Sequence[PairKey], records: Mapping[str, Record] | Sequence[Record],
               cfg: RuleConfig) -> list[PairKey]:
    """The keys that pass the curated rule's distance clause, in key order,
    ``_BLOCK_PAIRS`` keys per kernel pass; every uri must resolve."""
    kernel, row = _PairKernel.over(keys, records, FeatureSpec())
    kept: list[PairKey] = []
    for start, left, right in kernel.blocks(keys, row):
        kept += compress(keys[start : start + len(left)], kernel.near(left, right, cfg).tolist())
    return kept


# ---------------------------------------------------------------------------
# Pair features
# ---------------------------------------------------------------------------


class FeatureVector(NamedTuple):
    """One pair's features; the field order is the feature-matrix column order."""

    name_levenshtein_sim: float
    name_token_jaccard: float
    trigram_cosine: float
    log1p_haversine_km: float
    location_missing: float
    commodity_jaccard: float
    shared_attr_agreement: float


FEATURE_NAMES = FeatureVector._fields


def _commodity_tokens(values: Iterable[str]) -> set[str]:
    """Tokens of the values, split at whitespace and at "," ";" "/"."""
    # casefold maps each character alone, so the values may be joined first;
    # str.translate would look every character up in a dict
    text = " ".join(values).casefold()
    return set(text.replace(",", " ").replace(";", " ").replace("/", " ").split())


# Keys per pass of the record columns (trigram cosine, commodity Jaccard,
# attribute agreement), whose transient arrays grow with it: about 1.5 KB
# per key when records share ~100 trigrams.
CHUNK_PAIRS = 512

# Keys per pass of the name lanes (Levenshtein, token Jaccard, the rule's
# name cosine) and the distance column. Their arrays are a few words per
# lane, but the Myers recurrence pays numpy's fixed cost, about 18 calls per
# text position of the longest name, once per pass, so a pass spans two
# record chunks. A block is still bounded: the memory beyond the result of a
# call over two chunks' keys equals that of a call over many more, while
# blocks of four chunks, or one pass per call, hold more.
_BLOCK_PAIRS = 2 * CHUNK_PAIRS

# A Myers/Hyyro lane holds its pattern in one uint64; a longer pattern runs
# the Python-int recurrence instead.
_LANE_BITS = 64

# Lanes per pass of the name-distance table (``_PairKernel._name_distances``),
# plus at most one row of its triangle. A pass pays the recurrence's fixed
# numpy cost once per text position, as a block does; on the 70-record
# ``link`` corpus, passes of half this size gave about half the gain.
_TABLE_LANES = 4 * _BLOCK_PAIRS

# Gram against walk (``_Bags.plan``): walking one stored item for one key
# costs about as much as this many multiply-adds of the gram's einsum.
# Measured on a 2-vCPU host (Python 3.11, numpy 2.4): alone, the walk takes
# 7 to 15 ns per item where rows store tens of items (more where they store
# fewer, as each key's walk has a fixed cost too) and the einsum 0.2 ns per
# multiply-add for grams of a million or more (up to 1.1 ns for smaller
# ones); inside ``predict_pairs`` over all pairs, the record trigram table
# (about 100 stored items per row) breaks even at a ratio of 36 to 47 (400
# and 1,200 records).
_WALK_COST = 40

# The symbol after each text in the trigram coder: one past the last code
# point, U+10FFFF, so no character equals it and it still fits in 21 bits.
_PAD = 0x110000


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``range(s, s + n)`` for every (s, n), concatenated into one array.

    Built as a running sum of steps (1 within a range, a jump between ranges)
    in one buffer, the only array as long as the result.
    """
    filled = lengths > 0
    starts, lengths = starts[filled], lengths[filled]
    out = np.ones(int(lengths.sum()), np.intp)
    if len(out):
        out[0] = starts[0]
        out[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(out, out=out)
    return out


def _per_key(reduce: np.ufunc, values: np.ndarray, per_key: np.ndarray) -> np.ndarray:
    """``reduce`` over each key's run of ``values``, the runs being ``per_key``
    long and in key order; 0.0 for a key with an empty run."""
    out = np.zeros(len(per_key))
    filled = per_key > 0
    if filled.any():
        # float64 accumulation: exact for the integer sums of overlaps, below 2**53
        out[filled] = reduce.reduceat(values, (np.cumsum(per_key) - per_key)[filled], dtype=float)
    return out


def _numbered(items: list) -> tuple[list, np.ndarray]:
    """(the distinct items in order of first appearance, each item's index
    among them), by C-level dict operations alone."""
    distinct = list(dict.fromkeys(items))
    index = dict(zip(distinct, count()))
    return distinct, np.fromiter(map(index.__getitem__, items), np.int64, len(items))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """True where a sorted array's value differs from the one before it."""
    starts = np.empty(len(ordered), bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _code_points(texts: Iterable[str]) -> np.ndarray:
    """The code points of the texts, one after another, in one read."""
    return np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 (``np.bitwise_count`` needs numpy 2)."""
    return np.unpackbits(words.view(np.uint8)).reshape(len(words), 64).sum(axis=1, dtype=np.int64)


class _Bags:
    """Rows of int-coded multisets, for exact overlap sums between rows.

    ``overlap(a, b)`` sums ``count_a * count_b`` over the items rows a and b
    share: the intersection size of two sets, or the dot product of two count
    vectors. An item found in one row only never adds to an overlap, so only
    items of two or more rows are stored: each row's item ids with their
    counts, and a dense row-by-item table of counts in the smallest unsigned
    dtype that holds them. ``sizes`` (the sum of squared counts, which for a
    set is its size) counts every item.

    An overlap is read one of two ways, with the same result:

    * the ragged walk (the default): the stored items of the row with fewer
      of them, each looked up in the other row of the table;
    * the gram read, once ``read_by_gram`` has built every row's overlap
      with every other row: one gather per key. ``plan`` picks it when the
      gram costs less than walking the overlaps a call will ask for.
    """

    gram: np.ndarray | None = None

    def __init__(self, rows: np.ndarray, items: np.ndarray, counts: np.ndarray, n_rows: int, n_items: int):
        """Entry j puts ``counts[j]`` of item ``items[j]`` in row ``rows[j]``;
        entries come in row order, each item once per row, rows below
        ``n_rows`` and item ids below ``n_items``."""
        # integer sums below 2**53, so exact in float64
        self.sizes = np.bincount(rows, weights=counts * counts, minlength=n_rows)
        shared = np.bincount(items, minlength=n_items) >= 2
        keep = shared[items]
        rows, items, counts = rows[keep], (np.cumsum(shared) - 1)[items[keep]], counts[keep]
        bounds = np.searchsorted(rows, np.arange(n_rows + 1))  # rows are in order
        self.start, self.stored = bounds[:-1], np.diff(bounds)
        self.items = items
        largest = int(counts.max(initial=0))
        self.counts = counts.astype(np.min_scalar_type(largest))
        self.product_dtype = np.min_scalar_type(largest * largest)
        self.table = np.zeros((n_rows, int(shared.sum())), self.counts.dtype)
        rows *= self.table.shape[1]
        rows += items  # each entry's cell in the flat table
        self.table.ravel()[rows] = counts

    @classmethod
    def of_sets(cls, sets: Sequence[Collection[Hashable]]) -> "_Bags":
        """Bags of collections whose items are each distinct, every count 1."""
        sizes = np.fromiter(map(len, sets), np.int64, len(sets))
        distinct, items = _numbered(list(chain.from_iterable(sets)))
        return cls(np.repeat(np.arange(len(sets)), sizes), items, np.ones(len(items), np.int64),
                   len(sets), len(distinct))

    @classmethod
    def of_trigrams(cls, texts: Sequence[str]) -> "_Bags":
        """Bags of ``_trigram_counts`` of each normalized text, with no Python
        work per gram.

        The code points of all texts are read at once, each text followed by
        two ``_PAD`` symbols, so a gram is the three symbols from where it
        starts: a trigram, or a whole text of one or two characters padded
        out, which no trigram can equal. Its three 21-bit symbols make one
        uint64 code. Sorting the codes numbers the distinct grams; sorting
        (row, gram) keys counts each row's grams. Each array as long as the
        text is dropped once read, so the peak holds only a few of them.
        """
        n = len(texts)
        lengths = np.fromiter(map(len, texts), np.int64, n)
        ends = np.cumsum(lengths)
        points = _code_points(texts)
        symbols = np.insert(points, np.repeat(ends, 2), _PAD)
        del points
        per_row = np.maximum(lengths - 2, np.minimum(lengths, 1))  # one gram for 1-2 characters
        at = _ragged_arange(ends - lengths + 2 * np.arange(n), per_row)
        codes = symbols[at].astype(np.uint64) << np.uint64(42)
        codes |= symbols[at + 1].astype(np.uint64) << np.uint64(21)
        codes |= symbols[at + 2]
        del at, symbols
        order = np.argsort(codes)
        gram = np.cumsum(_run_starts(codes[order])) - 1  # numbered in code order
        del codes
        n_grams = int(gram[-1]) + 1 if len(gram) else 0
        keys = np.repeat(np.arange(n) * n_grams, per_row)[order]
        del order
        keys += gram  # row * n_grams + gram
        del gram
        keys.sort()
        first = np.flatnonzero(_run_starts(keys))
        counts = np.diff(first, append=len(keys))
        rows, items = np.divmod(keys[first], n_grams)
        del keys, first
        return cls(rows, items, counts, n, n_grams)

    def plan(self, lookups: float) -> "_Bags":
        """Read overlaps from the gram if building it costs less than walking
        ``lookups`` of them; returns the bags.

        The gram costs about rows**2 * items multiply-adds, the walk about
        ``lookups`` * (mean stored items per row) gathers. One walked item
        costs about ``_WALK_COST`` multiply-adds (see there), so the gram is
        built when rows**2 * items < _WALK_COST * lookups * mean stored.
        """
        rows, items = self.table.shape
        if rows and rows * rows * items < _WALK_COST * lookups * int(self.stored.sum()) / rows:
            self.read_by_gram()
        return self

    def read_by_gram(self) -> None:
        """Build the gram, every row's overlap with every row, and read later
        overlaps from it.

        It is the table times its transpose, by numpy's own einsum loops
        (``optimize=False`` never calls BLAS, whose extra threads would spin
        beside the caller), then the diagonal is set to ``sizes``: a row
        shares its unstored items with itself too. Every partial sum is a
        non-negative integer no larger than its dot product, which by
        Cauchy-Schwarz is at most ``max(sizes)``; so float32 is exact below
        2**24 and float64 is used above. The gram keeps the smallest
        unsigned dtype that holds ``max(sizes)``.
        """
        largest = int(self.sizes.max(initial=0))
        table = self.table.astype(np.float32 if largest < 2**24 else np.float64)
        gram = np.einsum("ij,kj->ik", table, table, optimize=False)
        del table
        self.gram = gram.astype(np.min_scalar_type(largest))
        np.fill_diagonal(self.gram, self.sizes)

    def overlap(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.gram is not None:
            return self.gram[a, b].astype(float)
        # walk the row with fewer stored items and look each up in the other's table row
        swap = self.stored[b] < self.stored[a]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        lengths = self.stored[a]
        at = _ragged_arange(self.start[a], lengths)
        counts = self.counts[at]
        cell = self.items[at]
        del at  # one index array per item at a time
        cell += np.repeat(b * self.table.shape[1], lengths)
        out = _per_key(np.add, np.multiply(counts, self.table.ravel()[cell], dtype=self.product_dtype), lengths)
        # a row with itself shares its unstored items too
        same = a == b
        out[same] = self.sizes[a[same]]
        return out

    # Where a denominator below is 0, so is its numerator; a nonzero one is
    # at least 1, so dividing by max(denominator, 1) gives 0.0 or the quotient.

    def jaccard(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|A & B| / |A | B| of set rows; 0.0 where both are empty."""
        inter = self.overlap(a, b)
        return inter / np.maximum(self.sizes[a] + self.sizes[b] - inter, 1.0)

    def cosine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``_cosine`` of count rows: 0.0 if either is empty, 1.0 if they are equal."""
        dot = self.overlap(a, b)
        sq_a, sq_b = self.sizes[a], self.sizes[b]
        out = np.minimum(dot / np.maximum(np.sqrt(sq_a) * np.sqrt(sq_b), 1.0), 1.0)
        # by Cauchy-Schwarz, two count vectors are equal iff dot == |a|^2 == |b|^2
        out[(sq_a > 0) & (dot == sq_a) & (dot == sq_b)] = 1.0
        return out


class _PairKernel:
    """Pair features and rule decisions, a block of record pairs at a time.

    Records are profiled once into int-coded tables (built on first use, so
    the rule builds only what it reads); ``features``, ``rule`` and ``near``
    take arrays of record indices, one pair per position, and compute each
    column with numpy over the whole block. Every column equals the per-pair Python
    code bit for bit: set and count overlaps are integer sums, Levenshtein is
    an integer recurrence, and haversine runs in numpy only where numpy
    gives ``math``'s results.
    """

    def __init__(self, records: Sequence[Record], spec: FeatureSpec, pairs: int = 1):
        """Profiles of ``records``, for a call that asks about ``pairs``
        record pairs; each overlap table plans its reads for that many."""
        self.spec = spec
        self.pairs = pairs
        # each attribute value is normalized once, every record's at once by
        # C-level maps (``_norm`` is casefold, split, join). The record text
        # is the normalized values joined by single spaces, empty ones left
        # out (casefold maps each character alone, so that equals normalizing
        # the joined raw values); every table read from attributes reads one
        # casefolded name -> normalized value map per record, in which of
        # two names that fold alike the later wins.
        attributes = list(chain.from_iterable(r.attributes for r in records))
        sizes = [len(r.attributes) for r in records]
        raw_names = list(map(itemgetter(0), attributes))
        folded = {n: n.casefold() for n in dict.fromkeys(raw_names)}  # a few names, over and over
        values = list(map(" ".join, map(str.split, map(str.casefold, map(itemgetter(1), attributes)))))
        each = iter(values)
        self.texts = [" ".join(filter(None, islice(each, k))) for k in sizes]
        each = zip(map(folded.__getitem__, raw_names), values)
        self.attributes = [dict(islice(each, k)) for k in sizes]
        name_keys = {source: spec.name_keys(source) for source in {r.source_id for r in records}}
        per_record = [_values(a, name_keys[r.source_id]) for r, a in zip(records, self.attributes)]
        self.names, self.name_ids = _numbered(list(chain.from_iterable(per_record)))
        self.name_len = np.fromiter(map(len, self.names), np.int64, len(self.names))
        self.name_count = np.fromiter(map(len, per_record), np.int64, len(records))
        self.name_start = np.cumsum(self.name_count) - self.name_count
        self.located = np.fromiter((r.location is not None for r in records), bool, len(records))
        # lat, lon and cos(lat) per record (0.0 where unlocated): the per-record half of haversine
        self.lat, self.lon = np.fromiter(chain.from_iterable(r.location or (0.0, 0.0) for r in records), float,
                                         2 * len(records)).reshape(-1, 2).T
        self.cos_lat = np.fromiter((math.cos(math.radians(x)) for x in self.lat.tolist()), float, len(records))

    @classmethod
    def over(cls, keys: Sequence[PairKey], records: Mapping[str, Record] | Sequence[Record],
             spec: FeatureSpec) -> tuple["_PairKernel", dict[str, int]]:
        index = resolve_uris(keys, records)
        return cls(list(index.values()), spec, len(keys)), {uri: i for i, uri in enumerate(index)}

    @staticmethod
    def blocks(keys: Sequence[PairKey], row: Mapping[str, int]):
        """(start, left, right) per ``_BLOCK_PAIRS`` keys: record indices of
        each key's uris, both ends of the block's keys read by one C-level map."""
        for start in range(0, len(keys), _BLOCK_PAIRS):
            block = keys[start : start + _BLOCK_PAIRS]
            ends = np.fromiter(map(row.__getitem__, chain.from_iterable(block)), np.int64, 2 * len(block))
            left, right = ends.reshape(-1, 2).T.copy()
            yield start, left, right

    # -- per-record tables ----------------------------------------------------

    @property
    def _lanes_expected(self) -> float:
        """Name lanes over the call's pairs: pairs x (names per record)**2."""
        return self.pairs * (len(self.name_ids) / max(len(self.name_count), 1)) ** 2

    @cached_property
    def _name_tokens(self) -> _Bags:
        return _Bags.of_sets(list(map(set, map(str.split, self.names)))).plan(self._lanes_expected)

    @cached_property
    def _name_trigrams(self) -> _Bags:
        return _Bags.of_trigrams(self.names).plan(self._lanes_expected)

    @cached_property
    def _record_trigrams(self) -> _Bags:
        return _Bags.of_trigrams(self.texts).plan(self.pairs)

    @cached_property
    def _commodities(self) -> _Bags:
        keys = self.spec.commodity_keys()
        return _Bags.of_sets([_commodity_tokens(_values(a, keys)) for a in self.attributes]).plan(self.pairs)

    @cached_property
    def _attributes(self) -> tuple[_Bags, _Bags]:
        """Casefolded attribute names, and (name, normalized value) items.

        Names and values are numbered apart, as strings hash once each; an
        item's id is then the rank of its (name, value) number pair.
        """
        n = len(self.attributes)
        rows = np.repeat(np.arange(n), np.fromiter(map(len, self.attributes), np.int64, n))
        names, name = _numbered(list(chain.from_iterable(self.attributes)))
        values, value = _numbered(list(chain.from_iterable(map(dict.values, self.attributes))))
        items, item = np.unique(name * len(values) + value, return_inverse=True)
        ones = np.ones(len(rows), np.int64)
        return (_Bags(rows, name, ones, n, len(names)).plan(self.pairs),
                _Bags(rows, item, ones, n, len(items)).plan(self.pairs))

    @cached_property
    def _myers_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``peq[name, code]``: the Myers match mask of a character in a name;
        ``chars[name, i]``: the code of the name's i-th character (0 past its
        end). Names of ``_LANE_BITS`` characters or more are left empty.

        The code points of the other names are read at once and numbered
        from 1 by sorting (code 0: no character); each character then ORs
        the bit of its position into its (name, code) cell.
        """
        short = self.name_len < _LANE_BITS
        lengths = np.where(short, self.name_len, 0)
        distinct, code = np.unique(_code_points(compress(self.names, short.tolist())), return_inverse=True)
        code += 1
        name = np.repeat(np.arange(len(lengths)), lengths)
        position = _ragged_arange(np.zeros_like(lengths), lengths)
        chars = np.zeros((len(lengths), int(lengths.max(initial=0))), np.min_scalar_type(len(distinct) + 1))
        chars[name, position] = code
        peq = np.zeros((len(lengths), len(distinct) + 1), np.uint64)
        # uint64 operands only: numpy 1.24 turns uint64 mixed with int64 into float64
        np.bitwise_or.at(peq, (name, code), np.left_shift(np.uint64(1), position.astype(np.uint64)))
        return peq, chars

    @cached_property
    def _name_distances(self) -> np.ndarray | None:
        """``table[a, b]``: the Levenshtein distance of names a and b, both
        shorter than ``_LANE_BITS``; None where each lane runs its own Myers
        lane instead.

        Over most pairs of its records, a call asks for the same name pairs
        again and again: all pairs of the 400 records of
        ``bench/corpus.generate(1, 400)`` make 111,084 lanes over 72,390
        distinct pairs of their 381 names. The table runs one lane per
        distinct pair of short names, so it is built when those are fewer
        than the lanes the call expects and the keys span more than one block
        (within one block the lanes already run in one pass). As a gram is,
        it is a dense read, so a ``_WALK_COST`` of 0 (every read per key)
        builds none.

        The short names are sorted by length, so pair (i, j > i) of the upper
        triangle has the longer name j as pattern and name i as text, and each
        triangle row one text. Rows run ``_TABLE_LANES`` lanes at a time, so a
        pass holds few text lengths and memory beyond the table is one pass.
        A distance is at most the longer length, below 64, so it fits uint8.
        """
        short = np.flatnonzero(self.name_len < _LANE_BITS)
        s = len(short)
        distinct = s * (s - 1) // 2
        if not (self.pairs > _BLOCK_PAIRS and _WALK_COST > 0 and distinct < self._lanes_expected):
            return None
        ids = short[np.argsort(self.name_len[short], kind="stable")]
        per_row = np.arange(s - 1, -1, -1)  # the pairs (i, j > i) of row i
        first = np.cumsum(per_row) - per_row  # the lane of each row's first pair
        bounds = np.unique(np.searchsorted(first, np.arange(0, distinct, _TABLE_LANES))).tolist()
        table = np.zeros((len(self.names), len(self.names)), np.uint8)
        for lo, hi in zip(bounds, bounds[1:] + [s]):
            rows = np.arange(lo, hi)
            text = ids[np.repeat(rows, per_row[lo:hi])]
            pattern = ids[_ragged_arange(rows + 1, per_row[lo:hi])]
            table[pattern, text] = table[text, pattern] = self._myers(pattern, text)
        return table

    # -- pairwise columns -------------------------------------------------------

    def _lanes(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (name of left, name of right) of every key, key by key:
        (lanes per key, name ids on the left, name ids on the right)."""
        count_a, count_b = self.name_count[left], self.name_count[right]
        per_key = count_a * count_b
        lane = _ragged_arange(np.zeros_like(per_key), per_key)
        across = np.repeat(count_b, per_key)
        name_a = self.name_ids[np.repeat(self.name_start[left], per_key) + lane // across]
        name_b = self.name_ids[np.repeat(self.name_start[right], per_key) + lane % across]
        return per_key, name_a, name_b

    def _levenshtein_sims(self, name_a: np.ndarray, name_b: np.ndarray) -> np.ndarray:
        """1 - distance / longer length per lane; 1.0 for two empty names.
        Lanes of two short names read the name-distance table if the call
        has one, else run the Myers lanes; longer ones, the Python-int
        recurrence."""
        len_a, len_b = self.name_len[name_a], self.name_len[name_b]
        a_longer = len_a >= len_b
        pattern, text = np.where(a_longer, name_a, name_b), np.where(a_longer, name_b, name_a)
        longest = np.maximum(len_a, len_b)
        distance = np.empty(len(longest), np.int64)
        word = longest < _LANE_BITS
        table = self._name_distances
        distance[word] = self._myers(pattern[word], text[word]) if table is None else table[pattern[word], text[word]]
        for i in np.flatnonzero(~word).tolist():
            p = self.names[pattern[i]]
            distance[i] = _levenshtein(p, _myers_peq(p), self.names[text[i]])
        return 1.0 - distance / np.maximum(longest, 1)

    def _myers(self, pattern: np.ndarray, text: np.ndarray) -> np.ndarray:
        """``_levenshtein`` in lanes: one uint64 per (pattern, text) pair, one
        step per text position for every lane whose text is that long.

        Lanes run longest text first, so the lanes still going at a step are
        a prefix. Each step gathers its lanes' match masks from the flat
        ``peq`` table, at the lane's pattern row plus the code of its text's
        character there. ``vp`` is masked to the pattern's m bits once, after
        the last step: carries and shifts only move bits upward, so the
        garbage above bit m-1 never reaches the bits below it, and ``vn``
        never gets a bit at or above m, where ``eq`` has none. The distance is read off the last
        column's vertical deltas, D[m][n] = n + #(+1 deltas) - #(-1 deltas),
        so no step keeps a score. Every operand is uint64, so no step mixes
        signedness.
        """
        peq, chars = self._myers_tables
        n = self.name_len[text]
        order = np.argsort(-n, kind="stable")
        pattern, text, n = pattern[order], text[order], n[order]
        steps = int(n[0]) if len(n) else 0
        live = len(n) - np.cumsum(np.bincount(n, minlength=steps))[:steps]
        codes = chars[text, :steps].T.copy()  # the text characters, step by step
        row = pattern * peq.shape[1]
        flat, cell = peq.ravel(), np.empty_like(row)
        one = np.uint64(1)
        vp, vn = np.full(len(n), ~np.uint64(0)), np.zeros(len(n), np.uint64)
        for step, k in enumerate(live.tolist()):
            p, q = vp[:k], vn[:k]
            eq = flat.take(np.add(row[:k], codes[step, :k], out=cell[:k]))
            xv = eq | q
            xh = (((eq & p) + p) ^ p) | eq
            hp = (q | ~(xh | p)) << one | one
            np.bitwise_or((p & xh) << one, ~(xv | hp), out=p)
            np.bitwise_and(hp, xv, out=q)
        vp &= (one << self.name_len[pattern].astype(np.uint64)) - one
        distance = np.empty(len(order), np.int64)
        distance[order] = n + _popcount(vp) - _popcount(vn)
        return distance

    def _kilometers(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """(both located, haversine km of each located pair in key order).

        ``haversine_km``'s operations in its order, in numpy where numpy gives
        ``math``'s results bit for bit: the radians, the sines of the half
        differences, the products and sums, the clamp, the square root and
        the scaling. The squares and the arcsine run as C-level maps of
        scalar ``pow`` and ``math.asin``, since ``np.square`` (x * x) and
        ``np.arcsin`` each differ from them by an ulp on some inputs.
        """
        located = self.located[left] & self.located[right]
        a, b = left[located], right[located]
        half_dphi = np.sin(np.radians(self.lat[b] - self.lat[a]) / 2.0).tolist()
        half_dlam = np.sin(np.radians(self.lon[b] - self.lon[a]) / 2.0).tolist()
        n = len(half_dphi)
        chord = np.fromiter(map(pow, half_dlam, repeat(2)), float, n)
        chord *= self.cos_lat[a] * self.cos_lat[b]
        chord += np.fromiter(map(pow, half_dphi, repeat(2)), float, n)  # s ** 2 + c * t ** 2
        np.sqrt(np.minimum(chord, 1.0, out=chord), out=chord)
        angle = np.fromiter(map(math.asin, chord.tolist()), float, n)
        return located, (_DIAMETER_KM * angle).tolist()

    def features(self, left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
        """Write the feature rows of the record pairs (left[i], right[i]) into
        ``out`` (len(left) x 7): the record columns ``CHUNK_PAIRS`` keys at a
        time, then the distance and the name lanes in one pass. The record
        tables are built first, so the first block's lanes already run
        beside them, as every later block's do."""
        names, values = self._attributes
        for start in range(0, len(left), CHUNK_PAIRS):
            a, b = left[start : start + CHUNK_PAIRS], right[start : start + CHUNK_PAIRS]
            rows = out[start : start + CHUNK_PAIRS]
            rows[:, 2] = self._record_trigrams.cosine(a, b)
            rows[:, 5] = self._commodities.jaccard(a, b)
            rows[:, 6] = values.overlap(a, b) / np.maximum(names.overlap(a, b), 1.0)
        located, km = self._kilometers(left, right)
        out[:, 3] = 0.0
        out[located, 3] = np.fromiter(map(math.log1p, km), float, len(km))
        out[:, 4] = ~located
        per_key, name_a, name_b = self._lanes(left, right)
        out[:, 0] = _per_key(np.maximum, self._levenshtein_sims(name_a, name_b), per_key)
        out[:, 1] = _per_key(np.maximum, self._name_tokens.jaccard(name_a, name_b), per_key)

    def near(self, left: np.ndarray, right: np.ndarray, cfg: RuleConfig) -> np.ndarray:
        """The rule's distance clause of the record pairs (left[i], right[i]):
        within ``max_distance_km``, or not both located under ``TEXT_ONLY``."""
        located, km = self._kilometers(left, right)
        near = np.full(len(left), cfg.missing_location_policy is MissingLocationPolicy.TEXT_ONLY)
        near[located] = np.array(km, dtype=float) <= cfg.max_distance_km
        return near

    def rule(self, left: np.ndarray, right: np.ndarray, cfg: RuleConfig) -> np.ndarray:
        """``rule_match`` of the record pairs (left[i], right[i]), as booleans."""
        per_key, name_a, name_b = self._lanes(left, right)
        best = _per_key(np.maximum, self._name_trigrams.cosine(name_a, name_b), per_key)
        return self.near(left, right, cfg) & (best >= cfg.min_cosine)


def extract_features(a: Record, b: Record, spec: FeatureSpec | None = None) -> FeatureVector:
    """Symmetric pair features; swapping the arguments never changes them."""
    out = np.empty((1, len(FEATURE_NAMES)))
    _PairKernel([a, b], spec or FeatureSpec()).features(np.array([0]), np.array([1]), out)
    return FeatureVector(*out[0].tolist())


def featurize_pairs(
    keys: Sequence[PairKey],
    records: Mapping[str, Record] | Sequence[Record],
    spec: FeatureSpec | None = None,
) -> np.ndarray:
    """Feature matrix (len(keys) x 7) in key order; every uri must resolve.

    Each record touched is profiled once for the whole call; the pairwise
    columns are written straight into the result, a block of
    ``_BLOCK_PAIRS`` keys at a time, so memory beyond the profiles and the
    result is bounded by one block.
    """
    kernel, row = _PairKernel.over(keys, records, spec or FeatureSpec())
    out = np.empty((len(keys), len(FEATURE_NAMES)))
    for start, left, right in kernel.blocks(keys, row):
        kernel.features(left, right, out[start : start + len(left)])
    return out


# ---------------------------------------------------------------------------
# Trainable classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.1
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise DataError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise DataError("learning_rate must be > 0 and weight_decay >= 0")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0: {self.seed}")


def check_decision_threshold(threshold: float) -> None:
    """A pair is a match when its probability exceeds the threshold, so at 1
    or above no pair is one, and at 0 or below nearly every pair is."""
    if not 0 < threshold < 1:  # NaN included
        raise DataError(f"decision_threshold must lie in (0, 1): {threshold}")


@dataclass
class ClassifierModel:
    """Logistic match model: weights over z-scored features plus metadata.

    Features whose training standard deviation is zero are frozen: their std
    is stored as 1 and their weight never leaves 0.
    """

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    frozen_features: np.ndarray
    hyper: TrainConfig
    feature_spec: FeatureSpec
    decision_threshold: float = 0.5
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        # each row's logit sums its own weighted z-scores in column order, so
        # one pair and a batch get the same bits; `z @ weights` sums in an
        # order that depends on the row count
        z = features - self.feature_means
        z /= self.feature_stds
        z *= self.weights
        return _sigmoid(z.sum(axis=1) + self.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below: exp never overflows
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_gradient(
    weights: np.ndarray, bias: float, z: np.ndarray, y: np.ndarray, weight_decay: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient wrt (weights, bias) of the mean cross-entropy of
    ``sigmoid(z @ weights + bias)`` against ``y``, plus an L2 penalty of
    ``weight_decay / 2`` times the squared weights (the bias unpenalized)."""
    residual = _sigmoid(z @ weights + bias) - y
    grad_w = z.T @ residual / len(y) + weight_decay * weights
    grad_b = float(residual.sum() / len(y))  # np.mean, without its Python-level overhead
    return grad_w, grad_b


def fit_on_matrix(
    features: np.ndarray,
    labels: np.ndarray,
    hyper: TrainConfig,
    val_features: np.ndarray | None = None,
    val_labels: np.ndarray | None = None,
    decision_threshold: float = 0.5,
    feature_spec: FeatureSpec | None = None,
) -> ClassifierModel:
    """Train on a prebuilt feature matrix (the heavy path behind train_classifier)."""
    if features.ndim != 2 or len(features) == 0:
        raise DataError("training features must be a non-empty 2-D matrix")
    labels = np.asarray(labels, dtype=float)

    means = features.mean(axis=0)
    stds = features.std(axis=0)
    frozen = stds < 1e-12
    stds = np.where(frozen, 1.0, stds)
    if bool(frozen.all()):
        warnings.warn("every feature is constant on the training set", DegenerateTrainingWarning)
    if len(set(labels.tolist())) < 2:
        warnings.warn(
            "training set contains a single class; the model will predict that class everywhere",
            DegenerateTrainingWarning,
        )

    z = (features - means) / stds
    n, k = z.shape
    weights = np.zeros(k)
    bias = 0.0
    rng = np.random.default_rng(hyper.seed)

    any_frozen = bool(frozen.any())
    validate = val_features is not None and val_labels is not None and len(val_labels) > 0
    if validate:
        zv = (val_features - means) / stds
    best: tuple[float, np.ndarray, float] | None = None
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        # one gather per epoch; the batches are slices of it
        z_epoch, y_epoch = z[order], labels[order]
        for start in range(0, n, hyper.batch_size):
            stop = start + hyper.batch_size
            grad_w, grad_b = logistic_gradient(weights, bias, z_epoch[start:stop], y_epoch[start:stop],
                                               hyper.weight_decay)
            if any_frozen:
                grad_w[frozen] = 0.0
            weights = weights - hyper.learning_rate * grad_w
            bias = bias - hyper.learning_rate * grad_b
        if validate:
            score = macro_f1(confusion_counts(val_labels, _sigmoid(zv @ weights + bias) > decision_threshold))
            if best is None or score > best[0]:
                best = (score, weights.copy(), bias)
    if best is not None:
        _, weights, bias = best
    if not (np.isfinite(weights).all() and math.isfinite(bias)):
        raise DataError(f"training diverged to non-finite weights (learning_rate {hyper.learning_rate})")

    return ClassifierModel(
        weights=weights,
        bias=bias,
        feature_means=means,
        feature_stds=stds,
        frozen_features=frozen,
        hyper=hyper,
        feature_spec=feature_spec or FeatureSpec(),
        decision_threshold=decision_threshold,
    )


def train_classifier(
    train_pairs: Sequence[LabeledPair],
    records: Mapping[str, Record] | Sequence[Record],
    hyper: TrainConfig | None = None,
    val_pairs: Sequence[LabeledPair] | None = None,
    feature_spec: FeatureSpec | None = None,
    decision_threshold: float = 0.5,
) -> ClassifierModel:
    """Fit the logistic matcher on labeled pairs.

    Features are z-scored with training-set statistics. When ``val_pairs``
    is given, the epoch with the best validation macro-F1 wins (earlier
    epoch on ties); otherwise the final epoch's weights are returned.
    Deterministic for a given hyper.seed.
    """
    if not train_pairs:
        raise DataError("training set is empty")
    hyper = hyper or TrainConfig()
    spec = feature_spec or FeatureSpec()

    # one call, so each record is profiled once for both sets
    matrix = featurize_pairs([p.key for p in (*train_pairs, *(val_pairs or ()))], records, spec)
    features = matrix[: len(train_pairs)]
    labels = np.array([p.label for p in train_pairs], dtype=float)
    val_features = val_labels = None
    if val_pairs:
        val_features = matrix[len(train_pairs) :]
        val_labels = np.array([p.label for p in val_pairs], dtype=int)

    return fit_on_matrix(
        features,
        labels,
        hyper,
        val_features=val_features,
        val_labels=val_labels,
        decision_threshold=decision_threshold,
        feature_spec=spec,
    )


def predict(model: ClassifierModel, a: Record, b: Record) -> tuple[int, float]:
    """(label, probability) for one pair; ties at the threshold go to 0."""
    x = np.array(extract_features(a, b, model.feature_spec), dtype=float)
    probability = float(model.probabilities(x.reshape(1, -1))[0])
    return int(probability > model.decision_threshold), probability


def predict_pairs(
    model: ClassifierModel,
    keys: Sequence[PairKey],
    records: Mapping[str, Record] | Sequence[Record],
) -> list[tuple[PairKey, int, float]]:
    """Batch prediction in key order: (key, ``int`` label, ``float``
    probability) per key, ties at the threshold going to 0."""
    probs = model.probabilities(featurize_pairs(keys, records, model.feature_spec))
    labels = (probs > model.decision_threshold).astype(np.int64)
    return list(zip(keys, labels.tolist(), probs.tolist()))


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------


def model_to_json_dict(model: ClassifierModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "feature_means": model.feature_means.tolist(),
        "feature_stds": model.feature_stds.tolist(),
        "frozen_features": [bool(f) for f in model.frozen_features],
        "decision_threshold": model.decision_threshold,
        "hyper": encode(model.hyper),
        "feature_spec": encode(model.feature_spec),
    }


def model_from_json_dict(doc: dict) -> ClassifierModel:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format_version: {version!r}")
    names = tuple(doc["feature_names"])
    if names != FEATURE_NAMES:
        raise DataError(f"model feature_names {list(names)} do not match {list(FEATURE_NAMES)}")
    for key in ("weights", "feature_means", "feature_stds", "frozen_features"):
        if len(doc[key]) != len(FEATURE_NAMES):
            raise DataError(f"model {key} has {len(doc[key])} entries, expected {len(FEATURE_NAMES)}")
    for key in ("weights", "bias", "feature_means", "feature_stds", "decision_threshold"):
        if not np.isfinite(np.asarray(doc[key], dtype=float)).all():
            raise DataError(f"model {key} must be finite: {doc[key]}")
    if min(doc["feature_stds"]) <= 0:
        raise DataError(f"model feature_stds must be positive: {doc['feature_stds']}")
    check_decision_threshold(float(doc["decision_threshold"]))
    return ClassifierModel(
        weights=np.array(doc["weights"], dtype=float),
        bias=float(doc["bias"]),
        feature_means=np.array(doc["feature_means"], dtype=float),
        feature_stds=np.array(doc["feature_stds"], dtype=float),
        frozen_features=np.array(doc["frozen_features"], dtype=bool),
        hyper=decode(TrainConfig, doc["hyper"], "hyper"),
        feature_spec=decode(FeatureSpec, doc["feature_spec"], "feature_spec"),
        decision_threshold=float(doc["decision_threshold"]),
        feature_names=names,
    )


def save_model(model: ClassifierModel, path: str | Path) -> None:
    write_json(model_to_json_dict(model), path)


def load_model(path: str | Path) -> ClassifierModel:
    try:
        return model_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from exc
    except (*JSONL_ROW_ERRORS, ConfigError) as exc:  # a model is data, whatever part of it is bad
        raise DataError(f"{path}: {exc}") from exc
