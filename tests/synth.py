"""Synthetic corpora with known structure for classifier tests."""

from __future__ import annotations

import random

from minerlink.pairing import LabeledPair, PairKey, Provenance
from minerlink.records import GeoPoint, Record

_WORDS = [
    "eagle", "tungsten", "yellow", "pine", "silver", "creek", "placer", "bear",
    "iron", "ridge", "gold", "butte", "jim", "dunka", "road", "spruce",
    "lake", "henderson", "crescent", "maturi",
]
_MATCH_COMMODITIES = ["Tungsten", "Nickel", "Copper", "Gold"]
_NONMATCH_COMMODITIES = ["Silver", "Iron", "Zinc", "Lead"]


def separable_corpus(n_pairs: int, seed: int = 1):
    """(records index, labeled pairs) that a linear model can separate.

    Matching pairs share a name stem, commodity, and near-identical
    coordinates; non-matching pairs get unrelated names, disjoint commodity
    vocabularies, and locations over a hundred kilometers apart.
    """
    rng = random.Random(seed)
    records: dict[str, Record] = {}
    pairs: list[LabeledPair] = []
    n_match = n_pairs // 2
    for i in range(n_pairs):
        is_match = i < n_match
        name = " ".join(rng.sample(_WORDS, 3)).title()
        lat = rng.uniform(30.0, 48.0)
        lon = rng.uniform(-120.0, -70.0)
        commodity = rng.choice(_MATCH_COMMODITIES)
        a = Record(
            uri=f"a:{i:06d}", source_id="a",
            attributes=(("site_name", name), ("commod1", commodity)),
            location=GeoPoint(lat, lon),
        )
        if is_match:
            b_name = name + rng.choice(["", " Mine", " Deposit"])
            b_loc = GeoPoint(lat + rng.uniform(-0.005, 0.005), lon + rng.uniform(-0.005, 0.005))
            b_commodity = commodity
        else:
            b_name = name
            while b_name.split()[:2] == name.split()[:2]:
                b_name = " ".join(rng.sample(_WORDS, 3)).title()
            b_loc = GeoPoint(lat + rng.uniform(1.5, 5.0), lon + rng.uniform(1.5, 5.0))
            b_commodity = rng.choice(_NONMATCH_COMMODITIES)
        b = Record(
            uri=f"b:{i:06d}", source_id="b",
            attributes=(("site_name", b_name), ("commod1", b_commodity)),
            location=b_loc,
        )
        records[a.uri] = a
        records[b.uri] = b
        pairs.append(
            LabeledPair(PairKey.of(a.uri, b.uri), int(is_match), Provenance.GROUND_TRUTH)
        )
    return records, pairs


_STATES = ["ID", "NV", "MT", "MI", "MN", "AZ", "CO", "UT"]
_STATUS = ["Past Producer", "Prospect", "Occurrence", "Producer"]
_SITE_TYPES = ["Mine", "Deposit", "Prospect"]


def varied_corpus(n_records: int, seed: int = 1) -> list[Record]:
    """Records of two sources whose attribute sets vary as the real ones do.

    Source ``m`` (MRDS-like) has a site name, one to three commodity
    columns, a state and a development status, and on some records other
    names, a county and an ore; source ``u`` (USMIN-like) has ``Ftr_Name``,
    one comma-joined ``Commodity``, ``State``, and on some records a site
    type. Every fourth record is a near-duplicate of the one before it, and
    every ninth has no location.
    """
    rng = random.Random(seed)
    commodities = _MATCH_COMMODITIES + _NONMATCH_COMMODITIES
    records: list[Record] = []
    for i in range(n_records):
        if i % 4 == 3:
            prev = records[-1]
            name = dict(prev.attributes).get("site_name") or dict(prev.attributes)["Ftr_Name"]
            name += rng.choice(["", " Mine", " Deposit"])
            lat, lon = prev.location or (rng.uniform(30.0, 48.0), rng.uniform(-120.0, -70.0))
        else:
            name = " ".join(rng.sample(_WORDS, rng.randint(1, 3))).title()
            lat, lon = rng.uniform(30.0, 48.0), rng.uniform(-120.0, -70.0)
        picked = rng.sample(commodities, rng.randint(1, 3))
        state = rng.choice(_STATES)
        if i % 2 == 0:
            attributes = [("site_name", name)]
            if i % 3 == 0:
                attributes.append(("other_names", " ".join(rng.sample(_WORDS, 2)).title()))
            attributes += [(f"commod{j}", c) for j, c in enumerate(picked, 1)]
            attributes += [("state", state), ("dev_stat", rng.choice(_STATUS))]
            if i % 5 < 2:
                attributes.append(("county", rng.choice(_WORDS).title()))
            if i % 7 < 3:
                attributes.append(("ore", rng.choice(["Scheelite", "Stibnite", "Galena", "Pyrite"])))
            uri, source = f"m:{i:06d}", "m"
        else:
            attributes = [("Ftr_Name", name), ("Commodity", ", ".join(picked)), ("State", state)]
            if i % 3 == 1:
                attributes.append(("Site_Type", rng.choice(_SITE_TYPES)))
            uri, source = f"u:{i:06d}", "u"
        location = None if i % 9 == 8 else GeoPoint(lat + rng.uniform(-0.01, 0.01), lon + rng.uniform(-0.01, 0.01))
        records.append(Record(uri=uri, source_id=source, attributes=tuple(attributes), location=location))
    return records
