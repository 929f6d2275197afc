"""Seeded two-source mineral-site corpora with planted cross-source duplicates.

The generator stands in for the MRDS / USMIN pair the pipeline was built for.
The program under test sees only what it would see in production: two CSV
files (and, further down the pipeline, the records and labels derived from
them). The planted site identity of every row is returned separately, to the
benchmark only, as the truth.

Why each property is there:

* MRDS-like rows carry many attributes and USMIN-like rows few, under other
  column names and casing (``site_name`` / ``Ftr_Name``). Attribute count sets
  the length of the whole-record text, which drives the trigram-cosine
  feature and the prompt length the labeler sends.
* Site names are one to four words plus an optional suffix. Name length
  drives the quadratic Levenshtein cost in featurization.
* Duplicates carry name variants (suffix added or dropped, a typo, a casing
  change), so the name features are informative but not decisive.
* Duplicate coordinates are jittered log-uniformly from metres out to tens of
  kilometres, and distinct sites cluster in shared mining districts. Far-apart
  true matches are what a spatial blocker would lose, which is what
  ``link_pair_completeness`` watches.
* A share of rows has no location, so the missing-location paths of the
  features and of the curated rule run too.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

MRDS_COLUMNS = (
    "dep_id", "site_name", "other_names", "latitude", "longitude", "country",
    "state", "county", "commod1", "commod2", "commod3", "dev_stat",
    "oper_type", "ore", "gangue", "host_rock", "work_type", "prod_size",
)
USMIN_COLUMNS = ("Site_ID", "Ftr_Name", "Ftr_Type", "Approx_Lat", "Approx_Lon", "Commodity", "State")

MRDS_SCHEMA = {"id_column": "dep_id", "lat_column": "latitude", "lon_column": "longitude"}
USMIN_SCHEMA = {"id_column": "Site_ID", "lat_column": "Approx_Lat", "lon_column": "Approx_Lon"}

_WORDS = (
    "eagle", "tungsten", "yellow", "pine", "silver", "creek", "placer", "bear",
    "iron", "ridge", "gold", "butte", "jim", "dunka", "road", "spruce", "lake",
    "henderson", "crescent", "maturi", "black", "hawk", "copper", "king",
    "queen", "star", "north", "south", "lucky", "boy", "little", "giant",
    "red", "cloud", "bonanza", "mammoth", "blue", "bird", "summit", "valley",
    "cedar", "gulch", "hidden", "treasure", "independence", "liberty",
    "golden", "rule", "morning", "glory", "last", "chance", "grizzly", "wolf",
)
_SUFFIXES = ("", "", "", " Mine", " Deposit", " Prospect", " Claims", " Group")
_COMMODITIES = (
    "Tungsten", "Molybdenum", "Gold", "Silver", "Copper", "Lead", "Zinc",
    "Nickel", "Cobalt", "Antimony", "Iron", "Manganese", "Uranium", "Lithium",
)
_STATES = ("ID", "MT", "NV", "UT", "CO", "AZ", "WY", "OR", "CA", "NM")
_DEV_STAT = ("Producer", "Past Producer", "Prospect", "Occurrence", "Plant")
_OPER_TYPE = ("Surface", "Underground", "Surface-Underground", "Placer", "Unknown")
_ORE = ("scheelite", "wolframite", "molybdenite", "chalcopyrite", "galena", "sphalerite", "native gold", "argentite")
_GANGUE = ("quartz", "calcite", "fluorite", "barite", "pyrite")
_HOST = ("granite", "quartz monzonite", "limestone", "schist", "rhyolite", "andesite", "skarn")
_WORK = ("Shaft", "Adit", "Open Pit", "Trench", "Pits")
_SIZE = ("Small", "Medium", "Large", "Yes", "None")
_FTR_TYPE = ("Mine", "Prospect", "Deposit", "Mill Site", "Quarry")

# Shares that set the per-pair cost (name length, names per record, attribute
# count) cycle over the row index instead of being drawn, so every seed gets
# the same mix and only the words, places and pairings change with the seed.
_WORD_COUNTS = (1, 2, 2, 3, 3, 4)
_COMMODITY_COUNTS = (1, 1, 2, 2, 3)

MIN_JITTER_KM = 0.005
MAX_JITTER_KM = 40.0
DISTRICT_RADIUS_KM = 15.0
USMIN_SHARE = 0.4
DUPLICATE_SHARE = 0.6  # share of USMIN rows that describe an MRDS site
MRDS_NO_LOCATION = 0.04
USMIN_NO_LOCATION = 0.10


@dataclass(frozen=True)
class Site:
    name: str
    lat: float
    lon: float
    state: str
    commodities: tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    """Two generated CSV files and the planted site of every row's uri."""

    mrds_csv: Path
    usmin_csv: Path
    site_of: dict[str, int]

    def datasets_config(self) -> list[dict]:
        """The ``datasets`` entry of a pipeline config that ingests this corpus."""
        return [
            {"path": str(self.mrds_csv), "source_id": "mrds", "schema": MRDS_SCHEMA},
            {"path": str(self.usmin_csv), "source_id": "usmin", "schema": USMIN_SCHEMA},
        ]

    def is_match(self, uri_1: str, uri_2: str) -> int:
        return int(self.site_of[uri_1] == self.site_of[uri_2])


class _Deck:
    """Name words dealt from reshuffled copies of the vocabulary.

    Every word is used about equally often, so the mean name length, and with
    it the Levenshtein cost, does not drift with the seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cards: list[str] = []

    def deal(self, k: int) -> list[str]:
        if len(self.cards) < k:
            fresh = list(_WORDS)
            self.rng.shuffle(fresh)
            self.cards.extend(fresh)
        hand, self.cards = self.cards[:k], self.cards[k:]
        return hand


def _site(rng: random.Random, i: int, deck: _Deck, districts: list[tuple[float, float]]) -> Site:
    words = deck.deal(_WORD_COUNTS[i % len(_WORD_COUNTS)])
    name = " ".join(w.title() for w in words) + _SUFFIXES[i % len(_SUFFIXES)]
    lat0, lon0 = rng.choice(districts)
    lat, lon = _offset(lat0, lon0, rng.uniform(0.0, DISTRICT_RADIUS_KM), rng.uniform(0.0, 2 * math.pi))
    count = _COMMODITY_COUNTS[i % len(_COMMODITY_COUNTS)]
    return Site(name, lat, lon, rng.choice(_STATES), tuple(rng.sample(_COMMODITIES, count)))


def _offset(lat: float, lon: float, km: float, bearing: float) -> tuple[float, float]:
    dlat = km / 111.2 * math.cos(bearing)
    dlon = km / (111.2 * math.cos(math.radians(lat))) * math.sin(bearing)
    return lat + dlat, lon + dlon


def _name_variant(rng: random.Random, name: str, kind: int) -> str:
    """A suffix change (0), a typo (1), a casing change (2) of ``name``, or ``name``."""
    base = name
    for suffix in _SUFFIXES[3:]:
        base = base.removesuffix(suffix)
    if kind == 0:
        return base + rng.choice(_SUFFIXES[3:]) if base == name else base
    if kind == 1 and len(base) > 3:
        i = rng.randrange(1, len(base) - 1)
        op = rng.randrange(3)
        if op == 0:
            return base[:i] + base[i + 1] + base[i] + base[i + 2 :]
        if op == 1:
            return base[:i] + base[i + 1 :]
        return base[:i] + base[i] + base[i:]
    if kind == 2:
        return name.upper()
    return name


def _mrds_row(rng: random.Random, i: int, dep_id: str, site: Site) -> list[str]:
    located = (i * 7) % 100 >= MRDS_NO_LOCATION * 100
    commods = list(site.commodities) + ["", "", ""]
    return [
        dep_id,
        site.name,
        _name_variant(rng, site.name, i % 4) if i % 10 < 3 else "",
        f"{site.lat:.5f}" if located else "",
        f"{site.lon:.5f}" if located else "",
        "United States",
        site.state,
        f"{rng.choice(_WORDS).title()} County",
        commods[0], commods[1], commods[2],
        rng.choice(_DEV_STAT),
        rng.choice(_OPER_TYPE),
        ", ".join(rng.sample(_ORE, 1 + i % 2)),
        rng.choice(_GANGUE) if i % 10 < 7 else "",
        rng.choice(_HOST) if (i + 3) % 10 < 8 else "",
        rng.choice(_WORK) if (i + 6) % 10 < 6 else "",
        rng.choice(_SIZE),
    ]


def _usmin_row(rng: random.Random, j: int, site_id: str, site: Site, jitter: bool) -> list[str]:
    name, lat, lon = site.name, site.lat, site.lon
    if jitter:
        name = _name_variant(rng, name, j % 4)
        km = math.exp(rng.uniform(math.log(MIN_JITTER_KM), math.log(MAX_JITTER_KM)))
        lat, lon = _offset(lat, lon, km, rng.uniform(0.0, 2 * math.pi))
    located = (j * 3) % 10 >= USMIN_NO_LOCATION * 10
    return [
        site_id,
        name,
        rng.choice(_FTR_TYPE),
        f"{lat:.4f}" if located else "",
        f"{lon:.4f}" if located else "",
        "; ".join(site.commodities),
        site.state.lower() if j % 2 else site.state,
    ]


def generate(seed: int, n_records: int, out_dir: Path) -> Corpus:
    """Write ``mrds.csv`` and ``usmin.csv`` with ``n_records`` rows in total."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_usmin = round(USMIN_SHARE * n_records)
    n_mrds = n_records - n_usmin
    n_dup = min(n_mrds, round(DUPLICATE_SHARE * n_usmin))
    districts = [(rng.uniform(32.0, 48.0), rng.uniform(-120.0, -104.0)) for _ in range(max(3, n_records // 12))]
    deck = _Deck(rng)
    sites = [_site(rng, i, deck, districts) for i in range(n_mrds + n_usmin - n_dup)]

    site_of: dict[str, int] = {}
    mrds_rows = []
    for i in range(n_mrds):
        dep_id = f"{10_000_000 + 7 * i + rng.randrange(7)}"
        mrds_rows.append(_mrds_row(rng, i, dep_id, sites[i]))
        site_of[f"mrds:{dep_id}"] = i
    duplicated = rng.sample(range(n_mrds), n_dup)
    usmin_sites = duplicated + list(range(n_mrds, len(sites)))
    rng.shuffle(usmin_sites)
    usmin_rows = []
    for j, s in enumerate(usmin_sites):
        site_id = f"US{j:05d}"
        usmin_rows.append(_usmin_row(rng, j, site_id, sites[s], jitter=s < n_mrds))
        site_of[f"usmin:{site_id}"] = s

    corpus = Corpus(out_dir / "mrds.csv", out_dir / "usmin.csv", site_of)
    for path, header, rows in ((corpus.mrds_csv, MRDS_COLUMNS, mrds_rows), (corpus.usmin_csv, USMIN_COLUMNS, usmin_rows)):
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return corpus
