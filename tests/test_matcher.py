from __future__ import annotations

import itertools
import json
import math
import random
import re
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minerlink.errors import DataError
from minerlink.evaluate import confusion_counts, macro_f1
from minerlink.matcher import (
    CHUNK_PAIRS,
    FEATURE_NAMES,
    ClassifierModel,
    DegenerateTrainingWarning,
    FeatureSpec,
    MissingLocationPolicy,
    RuleConfig,
    TrainConfig,
    _BLOCK_PAIRS,
    _TABLE_LANES,
    _Bags,
    _PairKernel,
    _commodity_tokens,
    _cosine,
    _count_norm,
    _levenshtein,
    _myers_peq,
    _norm,
    _text_profile,
    _trigram_counts,
    extract_features,
    featurize_pairs,
    fit_on_matrix,
    haversine_km,
    load_model,
    logistic_gradient,
    model_from_json_dict,
    model_to_json_dict,
    near_pairs,
    predict,
    predict_pairs,
    rule_match,
    rule_match_pairs,
    save_model,
    text_cosine,
    train_classifier,
)
from minerlink.pairing import LabeledPair, PairKey, Provenance, _labeled_line, enumerate_pairs

from conftest import DATA_DIR, make_record
from synth import logistic_loss, separable_corpus, varied_corpus

MERIDIAN_DEGREE_KM = math.pi * 6371.0 / 180.0  # closed-form meridian arc
HALF_GREAT_CIRCLE_KM = math.pi * 6371.0


class TestHaversine:
    def test_identical_points_zero(self):
        assert haversine_km((44.9, -115.3), (44.9, -115.3)) == 0.0

    def test_one_degree_meridian_arc(self):
        d = haversine_km((0.0, 0.0), (1.0, 0.0))
        assert d == pytest.approx(MERIDIAN_DEGREE_KM, abs=1e-9)
        assert d == pytest.approx(111.195, abs=1e-3)

    def test_antipodal_half_circumference(self):
        d = haversine_km((0.0, 0.0), (0.0, 180.0))
        assert d == pytest.approx(HALF_GREAT_CIRCLE_KM, abs=1e-9)
        assert d == pytest.approx(20015.087, abs=1e-2)

    def test_symmetry_and_range_random(self):
        rng = random.Random(7)
        for _ in range(500):
            p1 = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            p2 = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            d = haversine_km(p1, p2)
            assert d == haversine_km(p2, p1)
            assert 0.0 <= d <= HALF_GREAT_CIRCLE_KM

    def test_cross_check_spherical_law_of_cosines(self):
        p1, p2 = (44.965, -115.318), (44.962, -115.312)
        cos_angle = math.sin(math.radians(p1[0])) * math.sin(math.radians(p2[0])) + math.cos(
            math.radians(p1[0])
        ) * math.cos(math.radians(p2[0])) * math.cos(math.radians(p2[1] - p1[1]))
        oracle = 6371.0 * math.acos(min(1.0, cos_angle))
        assert haversine_km(p1, p2) == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("bad", [(91.0, 0.0), (-90.5, 0.0), (0.0, 180.5), (0.0, -181.0)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            haversine_km(bad, (0.0, 0.0))

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize(
        "bad",
        [(91.0, 0.0), (-90.5, 0.0), (0.0, 180.5), (0.0, -181.0), (math.nan, 0.0), (0.0, math.nan),
         (math.inf, 0.0), (0.0, -math.inf)],
    )
    def test_bad_point_named_on_either_side(self, bad, first):
        good = (44.9, -115.3)
        with pytest.raises(ValueError, match=re.escape(f"coordinates out of range: ({bad[0]}, {bad[1]})")):
            haversine_km(bad, good) if first else haversine_km(good, bad)


def _oracle_trigram_cosine(a: str, b: str) -> float:
    """Brute-force trigram-count cosine, written independently of the library."""

    def grams(text):
        text = " ".join(text.casefold().split())
        if not text:
            return {}
        if len(text) < 3:
            return {text: 1}
        counts = {}
        for i in range(len(text) - 2):
            g = text[i : i + 3]
            counts[g] = counts.get(g, 0) + 1
        return counts

    ga, gb = grams(a), grams(b)
    dot = sum(c * gb.get(g, 0) for g, c in ga.items())
    na = math.sqrt(sum(c * c for c in ga.values()))
    nb = math.sqrt(sum(c * c for c in gb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class TestTextCosine:
    def test_identity(self):
        assert text_cosine("Eagle Mine", "Eagle Mine") == 1.0

    def test_disjoint_trigrams(self):
        assert text_cosine("abc", "xyz") == 0.0

    def test_empty_vs_anything(self):
        assert text_cosine("", "Eagle") == 0.0
        assert text_cosine("", "") == 0.0

    def test_yellow_pine_oracle_value(self):
        got = text_cosine("Yellow Pine", "Yellow Pine Deposit")
        expected = _oracle_trigram_cosine("Yellow Pine", "Yellow Pine Deposit")
        assert got == pytest.approx(expected, abs=1e-12)
        # 9 shared distinct trigrams, |a| = 3, |b| = sqrt(17)
        assert got == pytest.approx(3.0 / math.sqrt(17.0), abs=1e-12)
        assert 0.0 < got < 1.0

    def test_matches_oracle_on_random_strings(self):
        rng = random.Random(3)
        alphabet = "abcde "
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert text_cosine(a, b) == pytest.approx(_oracle_trigram_cosine(a, b), abs=1e-12)

    def test_case_and_whitespace_folding(self):
        assert text_cosine("Eagle  Mine", "eagle mine") == 1.0

    def test_bounded(self):
        assert 0.0 <= text_cosine("Yellow Pine", "Pine Yellow") <= 1.0

    @given(st.lists(st.one_of(st.text(max_size=2), st.text(" \t\n\u00a0\u3000", max_size=4),
                              st.text("ab \U0001f600\U00010348", max_size=8), st.text(max_size=24)),
                    min_size=2, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_memo_equals_fresh_profiles(self, texts):
        """The memoized profiles score as freshly built ones, in both
        argument orders and on repeated calls, so no call changes a shared
        profile (``_cosine`` swaps its arguments by size)."""

        def fresh(a, b):
            va, vb = _trigram_counts(_norm(a)), _trigram_counts(_norm(b))
            return _cosine(va, _count_norm(va), vb, _count_norm(vb))

        for _ in range(2):
            for a, b in itertools.product(texts, repeat=2):
                assert text_cosine(a, b) == fresh(a, b)

    def test_rule_pass_profiles_each_name_once(self, monkeypatch):
        """One per-pair ``rule_match`` pass builds each distinct name's
        trigram counts once, however many pairs the name is in."""
        records = varied_corpus(60, seed=4)
        spec = FeatureSpec()
        names = [n for r in records for n in spec.name_values(r)]
        assert len(set(names)) < len(names)  # the corpus repeats names
        built = []

        def counting(normed):
            built.append(normed)
            return _trigram_counts(normed)

        monkeypatch.setattr("minerlink.matcher._trigram_counts", counting)
        _text_profile.cache_clear()
        cfg = RuleConfig(max_distance_km=1e9)  # every located pair reaches the name clause
        for a, b in itertools.combinations(records, 2):
            rule_match(a, b, cfg, spec)
        assert sorted(built) == sorted(_norm(n) for n in set(names))
        assert _text_profile.cache_info().misses == len(set(names))


def _within(a, b, cfg):
    """The rule's distance clause of one pair, by ``haversine_km``: a missing
    location passes only under ``TEXT_ONLY``."""
    if a.location is None or b.location is None:
        return cfg.missing_location_policy is MissingLocationPolicy.TEXT_ONLY
    return haversine_km(a.location, b.location) <= cfg.max_distance_km


class TestRuleMatch:
    def _pair(self, name_a, name_b, loc_a, loc_b):
        a = make_record("m:1", [("site_name", name_a)], location=loc_a)
        b = make_record("u:1", [("site_name", name_b)], location=loc_b)
        return a, b

    def test_colocated_identical_names_match(self):
        a, b = self._pair("Eagle Mine", "Eagle Mine", (46.744, -87.887), (46.744, -87.887))
        assert rule_match(a, b) == 1

    def test_identical_names_ten_km_apart_rejected(self):
        a, b = self._pair("Eagle Mine", "Eagle Mine", (46.744, -87.887), (46.834, -87.887))
        assert haversine_km(a.location, b.location) > 5.0
        assert rule_match(a, b) == 0

    def test_close_but_dissimilar_names_rejected(self):
        a, b = self._pair("Eagle Mine", "Dunka Road", (46.744, -87.887), (46.753, -87.887))
        assert haversine_km(a.location, b.location) < 5.0
        assert rule_match(a, b) == 0

    def test_thresholds_inclusive(self):
        a, b = self._pair("Eagle Mine", "Eagle Mine", (46.744, -87.887), (46.780, -87.887))
        boundary = haversine_km(a.location, b.location)
        cfg = RuleConfig(max_distance_km=boundary, min_cosine=1.0)
        assert rule_match(a, b, cfg) == 1  # distance == threshold, cosine == threshold

    def test_missing_location_text_only_waives_distance(self):
        a = make_record("m:1", [("site_name", "Eagle Mine")])
        b = make_record("u:1", [("site_name", "Eagle Mine")], location=(46.744, -87.887))
        assert rule_match(a, b, RuleConfig()) == 1

    def test_missing_location_reject_policy(self):
        a = make_record("m:1", [("site_name", "Eagle Mine")])
        b = make_record("u:1", [("site_name", "Eagle Mine")], location=(46.744, -87.887))
        cfg = RuleConfig(missing_location_policy=MissingLocationPolicy.REJECT)
        assert rule_match(a, b, cfg) == 0

    def test_no_name_fields_means_no_text_match(self):
        a = make_record("m:1", [("state", "ID")], location=(44.0, -115.0))
        b = make_record("u:1", [("state", "ID")], location=(44.0, -115.0))
        assert rule_match(a, b) == 0

    def test_equals_conjunction_of_clauses(self, yellow_pine_mrds, yellow_pine_usmin):
        cases = [
            self._pair("Eagle Mine", "Eagle Mine", (46.744, -87.887), (46.744, -87.887)),
            self._pair("Eagle Mine", "Eagle Mine", (46.744, -87.887), (46.9, -87.887)),
            self._pair("Eagle Mine", "Dunka Road", (46.744, -87.887), (46.745, -87.887)),
            (yellow_pine_mrds, yellow_pine_usmin),
        ]
        cfg, spec = RuleConfig(), FeatureSpec()
        for a, b in cases:
            best = max((text_cosine(na, nb) for na in spec.name_values(a) for nb in spec.name_values(b)), default=0.0)
            expected = int(_within(a, b, cfg) and best >= cfg.min_cosine)
            assert rule_match(a, b, cfg) == expected

    def test_config_validation(self):
        for km in (0.0, -1.0, math.nan):
            with pytest.raises(DataError, match="max_distance_km must be positive"):
                RuleConfig(max_distance_km=km)
        with pytest.raises(DataError):
            RuleConfig(min_cosine=1.5)


class TestFeatures:
    def test_identical_located_records(self, yellow_pine_mrds):
        fv = extract_features(yellow_pine_mrds, yellow_pine_mrds)
        assert fv.name_levenshtein_sim == 1.0
        assert fv.name_token_jaccard == 1.0
        assert fv.trigram_cosine == 1.0
        assert fv.log1p_haversine_km == 0.0
        assert fv.location_missing == 0.0
        assert fv.shared_attr_agreement == 1.0

    def test_both_locations_missing(self):
        a = make_record("m:1", [("site_name", "Eagle")])
        b = make_record("u:1", [("site_name", "Eagle")])
        fv = extract_features(a, b)
        assert fv.location_missing == 1.0
        assert fv.log1p_haversine_km == 0.0

    def test_fixture_pair_against_hand_computed_oracle(self, yellow_pine_mrds, yellow_pine_usmin):
        fv = extract_features(yellow_pine_mrds, yellow_pine_usmin)
        # name fields resolve to "yellow pine" vs "yellow pine deposit"
        assert fv.name_levenshtein_sim == pytest.approx(1.0 - 8.0 / 19.0, abs=1e-12)
        assert fv.name_token_jaccard == pytest.approx(2.0 / 3.0, abs=1e-12)
        a_text = "Yellow Pine 44.965 -115.318 Tungsten ID"
        b_text = "Yellow Pine Deposit 44.962 -115.312 Tungsten"
        assert fv.trigram_cosine == pytest.approx(_oracle_trigram_cosine(a_text, b_text), abs=1e-12)
        assert fv.log1p_haversine_km == pytest.approx(
            math.log1p(haversine_km((44.965, -115.318), (44.962, -115.312))), abs=1e-12
        )
        assert fv.location_missing == 0.0
        assert fv.commodity_jaccard == 1.0  # Tungsten on both sides
        assert fv.shared_attr_agreement == 0.0  # schemas share no attribute names

    def test_symmetry_exact(self, yellow_pine_mrds, yellow_pine_usmin):
        records, pairs = separable_corpus(40, seed=5)
        cases = [(records[p.key.uri_1], records[p.key.uri_2]) for p in pairs]
        cases.append((yellow_pine_mrds, yellow_pine_usmin))
        for a, b in cases:
            assert extract_features(a, b) == extract_features(b, a)

    def test_multi_valued_commodities(self):
        a = make_record("m:1", [("site_name", "X"), ("commod1", "Copper"), ("commod2", "Nickel")])
        b = make_record("u:1", [("site_name", "Y"), ("Commodity", "Nickel; Copper")])
        fv = extract_features(a, b)
        assert fv.commodity_jaccard == 1.0

    def test_per_source_name_fields(self):
        spec = FeatureSpec(name_fields_by_source={"m": ("depname",)})
        a = make_record("m:1", [("depname", "Eagle"), ("site_name", "Wrong")])
        b = make_record("u:1", [("site_name", "Eagle")])
        fv = extract_features(a, b, spec)
        assert fv.name_levenshtein_sim == 1.0

    def test_featurize_pairs_unresolved_uri(self, yellow_pine_mrds):
        with pytest.raises(DataError, match="unresolved"):
            featurize_pairs([PairKey("missing:1", "missing:2")], {"m:1": yellow_pine_mrds})

    def test_bounded_components(self):
        records, pairs = separable_corpus(60, seed=9)
        features = featurize_pairs([p.key for p in pairs], records)
        bounded = [0, 1, 2, 4, 5, 6]  # all but log1p distance
        assert float(features[:, bounded].min()) >= 0.0
        assert float(features[:, bounded].max()) <= 1.0
        assert float(features[:, 3].min()) >= 0.0
        assert np.isfinite(features).all()


# ---------------------------------------------------------------------------
# Slow references for the featurization fast path: the O(|a|*|b|) dynamic
# program and a scalar copy of the per-pair feature code that the per-record
# profiles replaced. The fast path must agree with them exactly.
# ---------------------------------------------------------------------------


def _dp_levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _record_text(record):
    return " ".join(value for _, value in record.attributes)


def _ref_norm(text):
    return " ".join(text.casefold().split())


def _ref_text_cosine(a, b):
    def grams(normed):
        if not normed:
            return Counter()
        if len(normed) < 3:
            return Counter({normed: 1})
        return Counter(normed[i : i + 3] for i in range(len(normed) - 2))

    va, vb = grams(_ref_norm(a)), grams(_ref_norm(b))
    if not va or not vb:
        return 0.0
    if va == vb:
        return 1.0
    dot = sum(count * vb[gram] for gram, count in va.items())
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(c * c for c in va.values()))
    norm_b = math.sqrt(sum(c * c for c in vb.values()))
    return min(1.0, dot / (norm_a * norm_b))


def _ref_jaccard(tokens_a, tokens_b):
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    return len(tokens_a & tokens_b) / len(union)


def _commodity_values(record, spec):
    """The record's values of the commodity columns, matched case-insensitively;
    of two names that fold alike, the later wins."""
    by_name = {n.casefold(): v for n, v in record.attributes}
    return [by_name[k] for k in spec.commodity_keys() if k in by_name]


def _ref_commodities(record, spec):
    tokens = set()
    for value in _commodity_values(record, spec):
        tokens.update(value.casefold().translate(str.maketrans(",;/", "   ")).split())
    return tokens


def _ref_levenshtein_sim(a, b):
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - _dp_levenshtein(a, b) / longest


def _reference_features(a, b, spec):
    names_a = [_ref_norm(v) for v in spec.name_values(a)]
    names_b = [_ref_norm(v) for v in spec.name_values(b)]
    if names_a and names_b:
        lev_sim = max(_ref_levenshtein_sim(na, nb) for na in names_a for nb in names_b)
        token_jac = max(_ref_jaccard(set(na.split()), set(nb.split())) for na in names_a for nb in names_b)
    else:
        lev_sim = token_jac = 0.0
    if a.location is not None and b.location is not None:
        distance, missing = math.log1p(haversine_km(a.location, b.location)), 0.0
    else:
        distance, missing = 0.0, 1.0
    attrs_a = {n.casefold(): v for n, v in a.attributes}
    attrs_b = {n.casefold(): v for n, v in b.attributes}
    shared = set(attrs_a) & set(attrs_b)
    if shared:
        agreement = sum(_ref_norm(attrs_a[n]) == _ref_norm(attrs_b[n]) for n in shared) / len(shared)
    else:
        agreement = 0.0
    text_a = " ".join(v for _, v in a.attributes)
    text_b = " ".join(v for _, v in b.attributes)
    return (
        lev_sim,
        token_jac,
        _ref_text_cosine(text_a, text_b),
        distance,
        missing,
        _ref_jaccard(_ref_commodities(a, spec), _ref_commodities(b, spec)),
        agreement,
    )


# a small alphabet so that strings share characters, plus characters that
# casefold to two ("\u00df" -> "ss"), are not ASCII, or lie above U+FFFF
_ALPHABET = "abc \u00e9\u00df\u20ac\U0001f600"


@st.composite
def _string_pairs(draw):
    a = draw(st.text(_ALPHABET, min_size=draw(st.integers(0, 150)), max_size=150))
    if draw(st.booleans()):
        b = draw(st.text(_ALPHABET, min_size=draw(st.integers(0, 150)), max_size=150))
    else:  # a few edits away from a, so long strings at small distances occur too
        b = a
        edits = st.tuples(st.integers(0, 150), st.integers(0, 2), st.sampled_from(_ALPHABET))
        for pos, op, ch in draw(st.lists(edits, max_size=4)):
            pos = min(pos, len(b))
            # op 0 inserts ch, op 1 substitutes it, op 2 deletes
            b = b[:pos] + ch + b[pos + (op == 1) :] if op < 2 else b[:pos] + b[pos + 1 :]
    return a, b


class TestBitParallelLevenshtein:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, n):
        rng = random.Random(n)
        a = "".join(rng.choice("ab") for _ in range(n))
        for b in ("", a, a[::-1], "b" + a[1:], a + "c", "a" * (n + 1)):
            for x, y in ((a, b), (b, a)):
                assert _levenshtein(x, _myers_peq(x), y) == _dp_levenshtein(x, y)

    @given(_string_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_dp_oracle(self, pair):
        a, b = pair
        expected = _dp_levenshtein(a, b)
        assert _levenshtein(a, _myers_peq(a), b) == expected
        assert _levenshtein(b, _myers_peq(b), a) == expected


_ATTRIBUTE_NAMES = ("site_name", "SITE_NAME", "Ftr_Name", "other_names", "depname",
                    "commod1", "Commodity", "state", "ore")
_VALUES = st.text("ab \t\u00e9\u00df,;/\U00010348", min_size=1, max_size=14)


@st.composite
def _feature_cases(draw):
    n = draw(st.integers(2, 7))
    records = []
    for i in range(n):
        names = draw(st.lists(st.sampled_from(_ATTRIBUTE_NAMES), unique=True, max_size=6))
        located = draw(st.booleans())
        location = (draw(st.floats(-90, 90)), draw(st.floats(-180, 180))) if located else None
        source = draw(st.sampled_from("mu"))
        records.append(make_record(f"{source}:{i}", [(a, draw(_VALUES)) for a in names], location=location))
    index = {r.uri: r for r in records}
    uris = sorted(index)
    # drawn with repeats, so a uri (and a whole key) can occur in several keys
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    keys = [PairKey.of(uris[i], uris[j]) for i, j in draw(st.lists(ends, min_size=1, max_size=12))]
    return keys, index


_SPECS = (
    FeatureSpec(),
    FeatureSpec(name_fields_by_source={"m": ("depname", "SITE_NAME"), "u": ("ftr_name", "other_names")}),
)


class TestFeaturesAgainstReference:
    @given(_feature_cases(), st.sampled_from(_SPECS))
    @settings(max_examples=200, deadline=None)
    def test_featurize_pairs_bit_identical(self, case, spec):
        keys, index = case
        expected = np.array([_reference_features(index[k.uri_1], index[k.uri_2], spec) for k in keys])
        assert np.array_equal(featurize_pairs(keys, index, spec), expected)
        for k in keys[:2]:
            a, b = index[k.uri_1], index[k.uri_2]
            assert tuple(extract_features(a, b, spec)) == _reference_features(a, b, spec)


# ---------------------------------------------------------------------------
# The per-pair kernel the columnar one replaced, kept as its oracle: one
# profile per record, one Python call per pair. The columnar kernel must
# match it bit for bit.
# ---------------------------------------------------------------------------


def _token_jaccard(tokens_a, tokens_b):
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    return len(tokens_a & tokens_b) / len(union)


class _Profile:
    """The per-record half of the pair features."""

    def __init__(self, record, spec):
        names = [_norm(v) for v in spec.name_values(record)]
        self.names = tuple((n, _myers_peq(n), frozenset(n.split())) for n in names)
        self.grams = _trigram_counts(_norm(_record_text(record)))
        self.gram_norm = _count_norm(self.grams)
        self.location = record.location
        self.attrs = {n.casefold(): _norm(v) for n, v in record.attributes}
        self.commodities = _commodity_tokens(_commodity_values(record, spec))


def _pair_row(a, b):
    lev_sim = token_jac = 0.0
    for name_a, peq_a, tokens_a in a.names:
        for name_b, peq_b, tokens_b in b.names:
            longest = max(len(name_a), len(name_b))
            if longest == 0:
                sim = 1.0
            elif len(name_a) >= len(name_b):
                sim = 1.0 - _levenshtein(name_a, peq_a, name_b) / longest
            else:
                sim = 1.0 - _levenshtein(name_b, peq_b, name_a) / longest
            lev_sim = max(lev_sim, sim)
            token_jac = max(token_jac, _token_jaccard(tokens_a, tokens_b))
    if a.location is not None and b.location is not None:
        distance, missing = math.log1p(haversine_km(a.location, b.location)), 0.0
    else:
        distance, missing = 0.0, 1.0
    shared = a.attrs.keys() & b.attrs.keys()
    agreement = sum(a.attrs[n] == b.attrs[n] for n in shared) / len(shared) if shared else 0.0
    return (
        lev_sim,
        token_jac,
        _cosine(a.grams, a.gram_norm, b.grams, b.gram_norm),
        distance,
        missing,
        _token_jaccard(a.commodities, b.commodities),
        agreement,
    )


def _oracle_matrix(keys, index, spec):
    profiles = {u: _Profile(r, spec) for u, r in index.items()}
    return np.array([_pair_row(profiles[k.uri_1], profiles[k.uri_2]) for k in keys]).reshape(-1, len(FEATURE_NAMES))


def _all_keys(index):
    return [PairKey(a, b) for a, b in itertools.combinations(sorted(index), 2)]


def _equal_to_oracle(records, keys=None, spec=FeatureSpec()):
    index = {r.uri: r for r in records}
    keys = _all_keys(index) if keys is None else keys
    got = featurize_pairs(keys, index, spec)
    assert np.array_equal(got, _oracle_matrix(keys, index, spec))
    return got


class TestColumnarKernel:
    @pytest.mark.parametrize("n", [63, 64, 65, 100])
    def test_names_around_the_lane_width(self, n):
        rng = random.Random(n)
        base = "".join(rng.choice("abé") for _ in range(n))
        variants = [base, base[:-1], base + "b", "b" + base[1:], base[::-1], base[: n // 2], "ab", "a" * (n + 1)]
        records = [make_record(f"m:{i}", [("site_name", v), ("state", "ID")]) for i, v in enumerate(variants)]
        features = _equal_to_oracle(records)
        assert {len(_norm(v)) for v in variants} >= {n - 1, n, n + 1}
        assert features[0, 0] == 1.0 - 1 / n  # base vs base[:-1]

    @given(st.lists(_string_pairs(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_names_of_any_length_equal_the_oracle(self, pairs):
        records = []
        for i, (a, b) in enumerate(pairs):
            # a blank value normalizes to an empty name
            records.append(make_record(f"m:{i}", [("site_name", a or " "), ("other_names", b[::-1] or " ")]))
            records.append(make_record(f"u:{i}", [("Ftr_Name", b or " ")]))
        _equal_to_oracle(records)

    def test_empty_record_text_gives_zero_cosine(self):
        blank = make_record("m:1", [("state", " \t ")])  # normalizes to ""
        bare = make_record("m:2", [])
        named = make_record("u:1", [("site_name", "Eagle")])
        features = _equal_to_oracle([blank, bare, named])
        assert features[:, FEATURE_NAMES.index("trigram_cosine")].tolist() == [0.0, 0.0, 0.0]

    def test_strings_shorter_than_three_characters(self):
        values = ["a", "ab", "AB", "b a", "x", "  ab "]
        records = [make_record(f"m:{i}", [("site_name", v), ("commod1", v)]) for i, v in enumerate(values)]
        features = _equal_to_oracle(records)
        row = _all_keys({r.uri: r for r in records}).index(PairKey("m:1", "m:2"))
        assert features[row, FEATURE_NAMES.index("trigram_cosine")] == 1.0  # "ab ab" vs "AB AB": equal counts

    def test_casefold_expansion(self):
        values = ["Straße", "STRASSE", "strasse mine", "ﬁre", "FIRE", "ﬃx", "FFIX"]
        records = [make_record(f"m:{i}", [("site_name", v), ("Commodity", v)], location=(44.0, -115.0 + i))
                   for i, v in enumerate(values)]
        features = _equal_to_oracle(records)
        assert features[0, 0] == 1.0 and features[0, 2] == 1.0  # "straße" and "strasse" fold alike

    def test_duplicate_and_self_keys(self, yellow_pine_mrds, yellow_pine_usmin):
        index = {r.uri: r for r in (yellow_pine_mrds, yellow_pine_usmin, make_record("m:9", [("site_name", "Y")]))}
        k1, k2 = _all_keys(index)[:2]
        _equal_to_oracle(list(index.values()), [k1, k1, k2, k1, k2])
        spec = FeatureSpec()
        for a in index.values():
            assert extract_features(a, a) == _pair_row(_Profile(a, spec), _Profile(a, spec))

    @pytest.mark.parametrize("count", [CHUNK_PAIRS - 1, CHUNK_PAIRS, CHUNK_PAIRS + 1, 2 * CHUNK_PAIRS - 1,
                                       2 * CHUNK_PAIRS, 2 * CHUNK_PAIRS + 1, 2 * CHUNK_PAIRS + 3, 4 * CHUNK_PAIRS + 3])
    def test_key_lists_crossing_a_chunk_boundary(self, count):
        """The record columns run one chunk of keys per pass, the name lanes
        and the distance a block of two chunks. The keys of names of 64
        characters or more (the Python-int recurrence) start the second
        block, or end the key list where it is too short for that, so at
        least one of them is in the second block if there is one."""
        records, _ = separable_corpus(40, seed=21)
        keys = _all_keys(records)[-count:]
        assert len(keys) == count
        long_names = ["Yellow Pine " * 6, "Yellow Pine " * 6 + "Mine", "Pine Yellow " * 6]
        assert min(len(_norm(name)) for name in long_names) >= 64
        extra = [make_record(f"c:{i}", [("site_name", name), ("commod1", "Gold")], location=(40.0 + i / 1000, -100.0))
                 for i, name in enumerate(long_names)]
        records.update((r.uri, r) for r in extra)
        extra_keys = _all_keys({r.uri: r for r in extra}) + [PairKey.of(r.uri, "a:000001") for r in extra]
        at = min(2 * CHUNK_PAIRS, count - len(extra_keys))
        keys[at : at + len(extra_keys)] = extra_keys
        _equal_to_oracle(list(records.values()), keys)
        labels = rule_match_pairs(keys, records)
        assert labels == [rule_match(records[k.uri_1], records[k.uri_2]) for k in keys]
        assert labels[at] == 1 and 0 in labels  # the first two long names match

    def test_empty_key_list(self, yellow_pine_mrds):
        for records in ({}, {yellow_pine_mrds.uri: yellow_pine_mrds}):
            features = featurize_pairs([], records)
            assert features.shape == (0, len(FEATURE_NAMES)) and features.dtype == np.float64
            assert rule_match_pairs([], records) == []

    def test_sparse_key_list(self):
        records, _ = separable_corpus(60, seed=22)
        keys = _all_keys(records)[::97]
        assert len({u for k in keys for u in (k.uri_1, k.uri_2)}) > len(keys)
        _equal_to_oracle(list(records.values()), keys)

    def test_memory_beyond_the_result_is_one_chunk(self, monkeypatch):
        records, _ = separable_corpus(50, seed=23)
        # k keys, then the same k keys four times over: the same records, so
        # the same profiles. k spans two chunks, so the second chunk of the
        # smaller call already runs with every profile table built. Both
        # calls walk the overlaps: four times the keys would read them from
        # grams, whose memory TestGramOrWalk bounds.
        monkeypatch.setattr("minerlink.matcher._WALK_COST", 0)
        keys = random.Random(1).sample(_all_keys(records), 2 * CHUNK_PAIRS)

        def peak(keys):
            featurize_pairs(keys, records)
            tracemalloc.start()
            try:
                featurize_pairs(keys, records)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        row = len(FEATURE_NAMES) * 8
        assert peak(keys * 4) - peak(keys) <= 3 * len(keys) * row + CHUNK_PAIRS * row


_LATS, _LONS = st.floats(-90, 90), st.floats(-180, 180)


@st.composite
def _point_pairs(draw):
    """Two in-range points: any two, near-duplicates, or near-antipodes."""
    lat, lon = draw(_LATS), draw(_LONS)
    how = draw(st.sampled_from(["any", "near", "antipodal"]))
    if how == "any":
        return (lat, lon), (draw(_LATS), draw(_LONS))
    step = st.floats(-1e-6, 1e-6) | st.sampled_from([0.0, 5e-324, -5e-324])
    near = (min(90.0, max(-90.0, lat + draw(step))), min(180.0, max(-180.0, lon + draw(step))))
    if how == "near":
        return (lat, lon), near
    return near, (-lat, lon - 180.0 if lon > 0 else lon + 180.0)


class TestDistanceColumn:
    """The kernel's numpy/scalar haversine against ``haversine_km``, bit for bit."""

    @given(st.lists(_point_pairs(), min_size=1, max_size=20), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_haversine_km(self, pairs, unlocated):
        points = [p for pair in pairs for p in pair]
        records = [make_record(f"m:{i}", [("site_name", "x")], location=p) for i, p in enumerate(points)]
        left, right = np.arange(0, len(points), 2), np.arange(1, len(points), 2)
        if unlocated:  # a record without a location drops out of the column
            records.append(make_record("m:x", [("site_name", "x")]))
            left, right = np.append(left, len(records) - 1), np.append(right, 0)
        located, km = _PairKernel(records, FeatureSpec())._kilometers(left, right)
        assert located.tolist() == [True] * len(pairs) + [False] * unlocated
        assert km == [haversine_km(p, q) for p, q in pairs]

    # Found by search with numpy 2.4 on x86-64, numpy running its vector
    # loops (hence 64 copies of each pair below): swapping in np.square (x * x)
    # for s ** 2 changes the first pair's kilometers, for t ** 2 the
    # second's, and np.arcsin for math.asin the third's, whose log1p also
    # differs between np.log1p and math.log1p.
    _ULP_PAIRS = [((-13.6996, 146.9204), (-13.7072, 146.9247)),
                  ((60.9797, 14.2075), (60.9813, 14.1999)),
                  ((-42.594, 79.4165), (-43.1365, 78.4907))]

    def test_pinned_inputs_where_numpy_differs_from_math(self):
        points = [p for pair in self._ULP_PAIRS * 64 for p in pair]
        records = [make_record(f"m:{i:03d}", [("site_name", "x")], location=p) for i, p in enumerate(points)]
        located, km = _PairKernel(records, FeatureSpec())._kilometers(np.arange(0, len(points), 2),
                                                                       np.arange(1, len(points), 2))
        assert located.all() and type(km) is list
        assert km == [haversine_km(p, q) for p, q in self._ULP_PAIRS * 64]
        keys = [PairKey(records[i].uri, records[i + 1].uri) for i in range(0, len(records), 2)]
        features = _equal_to_oracle(records, keys)
        assert features[:, FEATURE_NAMES.index("log1p_haversine_km")].tolist() == [math.log1p(d) for d in km]


# attribute values: empty, whitespace only, characters that casefold to two
# ("\u00df" -> "ss") or alike whatever surrounds them ("\u03a3", which lower()
# folds to "\u03c2" at the end of a word), and astral ones
_NORM_ALPHABET = " \t\n\u00a0aZ\u00df\u03a3\u03c2\U0001f600\U00010348"


class TestValuesNormalizedOnce:
    @given(st.lists(st.lists(st.tuples(st.sampled_from(_ATTRIBUTE_NAMES), st.text(_NORM_ALPHABET, max_size=8)),
                             max_size=6), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_record_text_and_map_of_normalized_values(self, rows):
        """The record text is the non-empty normalized values joined by single
        spaces, which is ``_norm`` of the joined raw values; the map reads the
        same normalized values, the later of two names that fold alike winning.
        ``Record`` rejects an empty value, so the rows here are plain objects."""
        records = [SimpleNamespace(source_id="m", attributes=tuple(attrs), location=None) for attrs in rows]
        kernel = _PairKernel(records, FeatureSpec())
        assert kernel.texts == [_norm(_record_text(r)) for r in records]
        assert kernel.attributes == [{n.casefold(): _norm(v) for n, v in r.attributes} for r in records]


# texts that share grams, with astral code points, a lone surrogate and NUL
_CODER_ALPHABET = "ab éß\x00\ud800\U0001f600\U00010348"


def _bags_of_counts(rows):
    """Bags from per-row item -> count mappings, one Python step per item:
    the builder the kernel's tables replaced, kept as their oracle."""
    ids, row_of, items, counts = {}, [], [], []
    for i, row in enumerate(rows):
        for item, n in row.items():
            row_of.append(i)
            items.append(ids.setdefault(item, len(ids)))
            counts.append(n)
    return _Bags(np.array(row_of, np.int64), np.array(items, np.int64), np.array(counts, np.int64),
                 len(rows), len(ids))


def _all_overlaps(bags, n):
    a, b = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    return bags.overlap(a, b)


class TestSetBags:
    @given(st.lists(st.frozensets(st.one_of(st.integers(0, 6), st.sampled_from("ab\U0001f600"),
                                            st.tuples(st.sampled_from("xy"), st.sampled_from("xy")))),
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_counts_oracle(self, sets):
        got, expected = _Bags.of_sets(sets), _bags_of_counts([dict.fromkeys(s, 1) for s in sets])
        assert np.array_equal(got.sizes, expected.sizes)
        assert np.array_equal(_all_overlaps(got, len(sets)), _all_overlaps(expected, len(sets)))
        assert np.array_equal(_all_overlaps(got, len(sets)), [len(a & b) for a in sets for b in sets])

    def test_dict_views_as_rows(self):
        rows = [{"a": "1", "b": "2"}, {"b": "2", "c": "3"}, {}]
        for view in (dict.keys, dict.items):
            bags = _Bags.of_sets([view(r) for r in rows])
            assert bags.sizes.tolist() == [2.0, 2.0, 0.0]
            assert _all_overlaps(bags, 3).tolist() == [2, 1, 0, 1, 2, 0, 0, 0, 0]


# name characters: one that casefolds to two, and astral ones
_NAME_ALPHABET = "ab\u00e9\u00df\U0001f600\U00010348"


class TestMyersTables:
    """``_PairKernel._myers_tables`` against ``_myers_peq`` of every name, the
    per-name loop it replaced."""

    @staticmethod
    def _check(names):
        records = [SimpleNamespace(source_id="m", attributes=(("site_name", n),), location=None) for n in names]
        kernel = _PairKernel(records, FeatureSpec())
        peq, chars = kernel._myers_tables
        short = [n if len(n) < 64 else "" for n in kernel.names]
        alphabet = sorted(set("".join(short)))
        assert peq.shape == (len(kernel.names), len(alphabet) + 1) and peq.dtype == np.uint64
        assert chars.shape == (len(kernel.names), max(map(len, short), default=0))
        # the codes number the characters one to one, from 1
        code_of = {}
        for i, name in enumerate(short):
            assert not chars[i, len(name) :].any()
            for ch, code in zip(name, chars[i].tolist()):
                assert code_of.setdefault(ch, code) == code
        assert sorted(code_of.values()) == list(range(1, len(alphabet) + 1))
        for i, name in enumerate(short):
            masks = {ch: int(peq[i, code]) for ch, code in code_of.items() if peq[i, code]}
            assert masks == _myers_peq(name)
        assert not peq[:, 0].any()

    @given(st.lists(st.integers(0, 70).flatmap(lambda n: st.text(_NAME_ALPHABET, min_size=n, max_size=n)),
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_masks_equal_myers_peq(self, names):
        self._check(names)

    @pytest.mark.parametrize("lengths", [[0], [1], [63], [64], [65], [0, 1, 63, 64, 65], [65, 64]])
    def test_lengths_around_the_lane_width(self, lengths):
        rng = random.Random(sum(lengths))
        self._check(["".join(rng.choice("ab\U0001f600") for _ in range(n)) for n in lengths])

    def test_no_names(self):
        self._check([])
        kernel = _PairKernel([make_record("m:1", [("state", "ID")])], FeatureSpec())
        peq, chars = kernel._myers_tables
        assert peq.shape == (0, 1) and chars.shape == (0, 0)


class TestTrigramCoder:
    """``_Bags.of_trigrams`` against the per-text ``Counter`` table it replaced."""

    @given(st.lists(st.one_of(st.text(_CODER_ALPHABET, max_size=5), st.text(_CODER_ALPHABET, max_size=150)),
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_counter_table(self, texts):
        got, expected = _Bags.of_trigrams(texts), _bags_of_counts([_trigram_counts(t) for t in texts])
        assert np.array_equal(got.sizes, expected.sizes)
        a, b = np.repeat(np.arange(len(texts)), len(texts)), np.tile(np.arange(len(texts)), len(texts))
        assert np.array_equal(got.cosine(a, b), expected.cosine(a, b))

    def test_short_texts_are_their_own_grams(self):
        texts = ["a", "a\x00", "ab", "ab", "aba", "\U0001f600", "\U0001f600\U0001f600", ""]
        bags = _Bags.of_trigrams(texts)
        cosine = bags.cosine(np.repeat(np.arange(8), 8), np.tile(np.arange(8), 8)).reshape(8, 8)
        assert cosine[2, 3] == 1.0  # equal short texts
        # a whole short text is no trigram, and neither is a prefix of one
        assert cosine[0, 1] == cosine[1, 2] == cosine[2, 4] == cosine[5, 6] == 0.0
        assert cosine[7].tolist() == [0.0] * 8

    def test_peak_memory_is_a_few_arrays_as_long_as_the_text(self):
        records, _ = separable_corpus(300, seed=24)
        texts = [_norm(_record_text(r)) for r in records.values()]
        characters = sum(map(len, texts))
        assert characters > 10_000
        _Bags.of_trigrams(texts[:2])
        tracemalloc.start()
        try:
            bags = _Bags.of_trigrams(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(v.nbytes for v in vars(bags).values() if isinstance(v, np.ndarray))
        # beyond the table it returns, the build holds at most six 8-byte
        # values per character at once (numpy's unique with its inverse)
        assert peak - kept <= 6 * 8 * characters


def _read_both_ways(build):
    """(bags that walk, the same bags read by gram)."""
    walk, gram = build(), build()
    gram.read_by_gram()
    assert walk.gram is None and gram.gram is not None
    return walk, gram


def _assert_same_reads(walk, gram, n):
    a, b = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)  # every row with every row, itself too
    for read in ("overlap", "jaccard", "cosine"):
        by_walk, by_gram = getattr(walk, read)(a, b), getattr(gram, read)(a, b)
        assert by_walk.dtype == by_gram.dtype == np.float64
        assert by_walk.tobytes() == by_gram.tobytes(), read


@st.composite
def _count_rows(draw):
    """Rows of item -> count, all counts 1 (sets) or any up to 255, with an
    empty row somewhere."""
    counts = st.just(1) if draw(st.booleans()) else st.integers(1, 255)
    rows = draw(st.lists(st.dictionaries(st.integers(0, 9), counts, max_size=6), max_size=8))
    rows.insert(draw(st.integers(0, len(rows))), {})
    return rows


def _tables(kernel):
    return [kernel._record_trigrams, kernel._commodities, *kernel._attributes, kernel._name_tokens,
            kernel._name_trigrams]


def _reads(keys, index):
    """'G' (gram) or 'w' (walk) per overlap table of a kernel over the keys."""
    kernel, _ = _PairKernel.over(keys, index, FeatureSpec())
    return "".join("w" if t.gram is None else "G" for t in _tables(kernel))


class TestGramOrWalk:
    """``_Bags`` reads overlaps from a per-table gram or by the ragged walk;
    both give the same bits, and ``plan`` picks the gram only where it is
    cheaper."""

    @given(_count_rows())
    @settings(max_examples=200, deadline=None)
    def test_count_bags(self, rows):
        walk, gram = _read_both_ways(lambda: _bags_of_counts(rows))
        _assert_same_reads(walk, gram, len(rows))
        expected = [sum(n * q.get(item, 0) for item, n in p.items()) for p in rows for q in rows]
        assert _all_overlaps(gram, len(rows)).tolist() == expected

    @given(st.lists(st.frozensets(st.integers(0, 12), max_size=7), max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_set_bags(self, sets):
        _assert_same_reads(*_read_both_ways(lambda: _Bags.of_sets(sets)), len(sets))

    def test_float64_above_2_to_the_24(self):
        # one trigram, "aaa", 4,999 and 3,999 times: the dot product is odd
        # and above 2**24, where float32 holds only even integers
        texts = ["a" * 5001, "a" * 4001, "aaa b", "", "b"]
        walk, gram = _read_both_ways(lambda: _Bags.of_trigrams(texts))
        assert walk.sizes.max() >= 2**24 and gram.gram.dtype == np.uint32
        assert float(np.float32(4999) * np.float32(3999)) != 4999 * 3999
        assert gram.overlap(np.array([0]), np.array([1])).tolist() == [4999 * 3999]
        _assert_same_reads(walk, gram, len(texts))

    def test_gram_dtype_holds_the_largest_size(self):
        for texts, dtype in ((["abc abc", "abc"], np.uint8), (["a" * 20, "a" * 30], np.uint16)):
            _, gram = _read_both_ways(lambda: _Bags.of_trigrams(texts))
            assert gram.gram.dtype == dtype
            assert np.diagonal(gram.gram).tolist() == gram.sizes.tolist()

    @pytest.mark.parametrize("corpus", ["varied", "separable"])
    def test_all_pairs_by_gram_equal_the_walk(self, corpus, monkeypatch):
        records = varied_corpus(70, seed=3) if corpus == "varied" else list(separable_corpus(35, seed=3)[0].values())
        index = {r.uri: r for r in records}
        keys = _all_keys(index)
        loose = RuleConfig(min_cosine=0.3, max_distance_km=500.0)
        assert _reads(keys, index) == "GGGGGG"
        by_gram = featurize_pairs(keys, index), rule_match_pairs(keys, index), rule_match_pairs(keys, index, loose)
        monkeypatch.setattr("minerlink.matcher._WALK_COST", 0)
        assert _reads(keys, index) == "wwwwww"
        assert featurize_pairs(keys, index).tobytes() == by_gram[0].tobytes()
        assert rule_match_pairs(keys, index) == by_gram[1]
        assert rule_match_pairs(keys, index, loose) == by_gram[2] and 0 < sum(by_gram[2]) < len(keys)

    def test_sweep_shaped_pool_keeps_the_walk(self):
        """``train`` and the sweep ask about pairs drawn across the corpus,
        about 0.14 records per pair."""
        records = varied_corpus(266, seed=4)
        index = {r.uri: r for r in records}
        keys = random.Random(4).sample(_all_keys(index), 1900)
        assert _reads(keys, index) == "wwwwww"

    def test_gram_memory(self, monkeypatch):
        """Building a gram holds the table and the gram in float32 besides
        the gram it keeps, and building the name-distance table one pass of
        lanes besides that table; the call's peak grows by no more than the
        kept tables and one such build."""
        index = {r.uri: r for r in varied_corpus(150, seed=5)}
        keys = _all_keys(index)
        kernel, _ = _PairKernel.over(keys, index, FeatureSpec())
        _PairKernel(varied_corpus(40, seed=5), FeatureSpec(), pairs=10**6)._name_distances  # one-off imports
        kernel._myers_tables  # per-record, so built by the walked call too
        tracemalloc.start()
        try:
            distances = kernel._name_distances
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a pass holds its lanes' int64 and uint64 arrays (about 20 words a
        # lane), their popcount bits (64 bytes) and two copies of their text
        # codes (a byte per step of the longest name)
        chars = kernel._myers_tables[1]
        build = (_TABLE_LANES + len(kernel.names)) * (8 * 20 + 64 + 2 * chars.shape[1] * chars.itemsize)
        assert distances.shape == (len(kernel.names),) * 2 and distances.dtype == np.uint8
        assert peak <= distances.nbytes + build
        kept, transient = distances.nbytes, build
        monkeypatch.setattr("minerlink.matcher._WALK_COST", 0)
        for bags in _tables(kernel):
            rows, items = bags.table.shape
            tracemalloc.start()
            try:
                bags.read_by_gram()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            build = 4 * rows * (rows + items)
            assert bags.gram.nbytes == rows * rows * bags.gram.itemsize
            assert peak <= bags.gram.nbytes + build + 4096
            kept, transient = kept + bags.gram.nbytes, max(transient, build)

        def peak():
            featurize_pairs(keys, index)
            tracemalloc.start()
            try:
                featurize_pairs(keys, index)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        walked = peak()
        assert _PairKernel.over(keys, index, FeatureSpec())[0]._name_distances is None
        monkeypatch.setattr("minerlink.matcher._WALK_COST", math.inf)
        assert _reads(keys, index) == "GGGGGG"
        assert _PairKernel.over(keys, index, FeatureSpec())[0]._name_distances is not None
        assert peak() <= walked + kept + transient


def _name_records(per_record):
    """Records whose names (site and other names) are the given lists; a
    blank value stands for an empty name, which it normalizes to."""
    return [make_record(f"m:{i}", [(field, name or " ") for field, name in zip(("site_name", "other_names"), names)])
            for i, names in enumerate(per_record)]


class TestNameDistanceTable:
    """``_PairKernel._name_distances``: one Myers lane per distinct pair of
    short names, read by one gather per lane, equals a Myers lane per lane;
    ``plan``-like, it is built only where it runs fewer lanes."""

    @given(st.lists(st.integers(0, 70).flatmap(lambda n: st.text(_NAME_ALPHABET, min_size=n, max_size=n)),
                    min_size=1, max_size=10, unique=True),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_table_equals_the_lanes_and_the_oracle(self, names, data):
        per_record = data.draw(st.lists(st.lists(st.sampled_from(names), min_size=1, max_size=2),
                                        min_size=1, max_size=7))  # names repeat across records
        records = _name_records(per_record)
        lanes = _PairKernel(records, FeatureSpec())
        with pytest.MonkeyPatch.context() as patch:  # passes of a few lanes cross triangle rows
            patch.setattr("minerlink.matcher._TABLE_LANES", data.draw(st.sampled_from([1, 2, 5, _TABLE_LANES])))
            table = _PairKernel(records, FeatureSpec(), pairs=10**6)
            distances = table._name_distances
        assert lanes._name_distances is None and distances is not None
        names = table.names
        for x, y in itertools.product(range(len(names)), repeat=2):
            if max(len(names[x]), len(names[y])) < 64:
                pattern, text = sorted((names[x], names[y]), key=len, reverse=True)
                assert distances[x, y] == _levenshtein(pattern, _myers_peq(pattern), text), (names[x], names[y])
        left, right = np.triu_indices(len(records))  # every pair of records, each with itself too
        _, name_a, name_b = table._lanes(left, right)
        by_table = table._levenshtein_sims(name_a, name_b)
        assert by_table.tobytes() == lanes._levenshtein_sims(name_a, name_b).tobytes()
        assert by_table.tolist() == [_ref_levenshtein_sim(names[a], names[b])
                                     for a, b in zip(name_a.tolist(), name_b.tolist())]

    @pytest.mark.parametrize("corpus", ["varied", "separable"])
    def test_all_pairs_by_table_equal_the_lanes(self, corpus, monkeypatch):
        records = varied_corpus(70, seed=6) if corpus == "varied" else list(separable_corpus(35, seed=6)[0].values())
        long_names = ["Yellow Pine " * 6, "Yellow Pine " * 6 + "Mine", "Pine Yellow " * 6]
        records += [make_record(f"c:{i}", [("site_name", name), ("other_names", "Eagle")], location=(40.0, -100.0))
                    for i, name in enumerate(long_names)]
        index = {r.uri: r for r in records}
        keys = _all_keys(index)
        assert len(keys) > 2 * _BLOCK_PAIRS
        kernel, _ = _PairKernel.over(keys, index, FeatureSpec())
        assert kernel._name_distances is not None and len(kernel.names) > (kernel.name_len < 64).sum()
        by_table = featurize_pairs(keys, index)
        monkeypatch.setattr(_PairKernel, "_name_distances", None)
        assert featurize_pairs(keys, index).tobytes() == by_table.tobytes()
        assert np.array_equal(by_table, _oracle_matrix(keys, index, FeatureSpec()))

    def test_one_block_keeps_the_lanes(self):
        for n, built in ((45, False), (46, True)):  # 990 and 1,035 keys
            index = {r.uri: r for r in varied_corpus(n, seed=7)}
            keys = _all_keys(index)
            assert (len(keys) > _BLOCK_PAIRS) is built
            assert (_PairKernel.over(keys, index, FeatureSpec())[0]._name_distances is not None) is built

    def test_sweep_shaped_pool_keeps_the_lanes(self):
        """``train`` and the sweep ask about pairs drawn across the corpus,
        about 0.14 records per pair: fewer lanes than distinct name pairs."""
        index = {r.uri: r for r in varied_corpus(266, seed=4)}
        keys = random.Random(4).sample(_all_keys(index), 1900)
        kernel, _ = _PairKernel.over(keys, index, FeatureSpec())
        short = int((kernel.name_len < 64).sum())
        assert short * (short - 1) // 2 >= kernel._lanes_expected
        assert kernel._name_distances is None

    def test_no_short_names(self):
        records = [make_record("u:1", [("state", "ID")])]
        assert _PairKernel(records, FeatureSpec(), pairs=10**6)._name_distances is None  # no names, no lanes
        records += _name_records([["a" * 70], ["b" * 64, "a" * 70]])
        distances = _PairKernel(records, FeatureSpec(), pairs=10**6)._name_distances
        assert distances.shape == (2, 2) and not distances.any()


# ---------------------------------------------------------------------------
# Feature golden: every feature and rule label of a small fixed corpus, as
# text. The kernel's tables may be rebuilt any way at all; these bytes may not
# move.
# ---------------------------------------------------------------------------

_LONG_NAME = "Yellow Pine Tungsten Antimony Gold Mine and Mill Complex, Stibnite District"  # 75 characters


def _golden_records():
    return [
        make_record("m:1", [("site_name", "Yellow Pine \U00010348 Mine"), ("other_names", "Stibnite"),
                            ("commod1", "Tungsten, Antimony"), ("state", "ID")], location=(44.965, -115.318)),
        make_record("m:2", [("site_name", _LONG_NAME), ("commod1", "Gold/Silver"), ("state", "ID")],
                    location=(44.95, -115.33)),
        make_record("m:3", [("Site_Name", "Eagle"), ("SITE_NAME", "Eagle Mine"), ("commod1", "Nickel;Copper"),
                            ("state", "MI")], location=(46.744, -87.887)),
        make_record("m:4", [("commod1", "Tungsten"), ("state", "ID")], location=(44.96, -115.31)),
        make_record("u:1", [("Ftr_Name", "Yellow Pine Deposit \U0001f600\U0001f600"), ("Commodity", "Tungsten"),
                            ("State", "ID")], location=(44.962, -115.312)),
        make_record("u:2", [("Ftr_Name", _LONG_NAME[:-1] + "s"), ("other_names", "Straße Mine"),
                            ("Commodity", "Gold, Silver")]),
        make_record("u:3", [("Ftr_Name", "Eagle Mine"), ("Commodity", "nickel copper"), ("state", "MI")],
                    location=(46.75, -87.88)),
        make_record("u:4", [("Ftr_Name", "STRASSE MINE"), ("other_names", "Eagle East \U0001f600")],
                    location=(46.7, -87.9)),
    ]


def _golden_text():
    index = {r.uri: r for r in _golden_records()}
    keys = _all_keys(index)
    features = featurize_pairs(keys, index)
    loose = RuleConfig(max_distance_km=50.0, min_cosine=0.3, missing_location_policy=MissingLocationPolicy.REJECT)
    columns = [features.tolist(), rule_match_pairs(keys, index), rule_match_pairs(keys, index, loose)]
    return "".join(f"{k.uri_1} {k.uri_2} {' '.join(map(repr, row))} {strict!r} {lax!r}\n"
                   for k, row, strict, lax in zip(keys, *columns))


class TestFeatureGolden:
    def test_fixture_covers_the_edge_cases(self):
        records = _golden_records()
        names = [v for r in records for v in FeatureSpec().name_values(r)]
        assert any(ord(c) > 0xFFFF for v in names for c in v)
        assert any(len(_norm(v)) >= 64 for v in names)
        assert any(not FeatureSpec().name_values(r) for r in records)
        assert any(r.location is None for r in records)
        assert any(len({n.casefold() for n, _ in r.attributes}) < len(r.attributes) for r in records)

    def test_features_and_rule_labels_golden(self):
        assert _golden_text().encode("utf-8") == (DATA_DIR / "features.golden.txt").read_bytes()

    @pytest.mark.parametrize("walk_cost, reads", [(0, "wwwwww"), (math.inf, "GGGGGG")])
    def test_golden_by_either_read(self, walk_cost, reads, monkeypatch):
        monkeypatch.setattr("minerlink.matcher._WALK_COST", walk_cost)
        index = {r.uri: r for r in _golden_records()}
        assert _reads(_all_keys(index), index) == reads
        assert _golden_text().encode("utf-8") == (DATA_DIR / "features.golden.txt").read_bytes()


class TestRuleMatchPairs:
    def test_thresholds_inclusive_under_both_policies(self):
        a = make_record("m:1", [("site_name", "Yellow Pine")], location=(44.965, -115.318))
        b = make_record("u:1", [("site_name", "Yellow Pine Deposit")], location=(44.962, -115.312))
        c = make_record("u:2", [("site_name", "Yellow Pine Deposit")])
        index = {r.uri: r for r in (a, b, c)}
        keys = [PairKey.of(a.uri, b.uri), PairKey.of(a.uri, c.uri)]
        cosine, km = text_cosine("Yellow Pine", "Yellow Pine Deposit"), haversine_km(a.location, b.location)
        for policy, missing in ((MissingLocationPolicy.TEXT_ONLY, 1), (MissingLocationPolicy.REJECT, 0)):
            at = RuleConfig(max_distance_km=km, min_cosine=cosine, missing_location_policy=policy)
            assert rule_match_pairs(keys, index, at) == [1, missing]
            above = RuleConfig(max_distance_km=km, min_cosine=math.nextafter(cosine, 2.0), missing_location_policy=policy)
            assert rule_match_pairs(keys, index, above) == [0, 0]
            nearer = RuleConfig(max_distance_km=math.nextafter(km, 0.0), min_cosine=cosine, missing_location_policy=policy)
            assert rule_match_pairs(keys, index, nearer) == [0, missing]

    @given(_feature_cases(), st.sampled_from(_SPECS), st.sampled_from(MissingLocationPolicy), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_rule_match(self, case, spec, policy, data):
        keys, index = case
        # thresholds drawn from the values the keys produce, so that ties occur
        cosines = [text_cosine(x, y) for k in keys
                   for x in spec.name_values(index[k.uri_1]) for y in spec.name_values(index[k.uri_2])]
        located = [(index[k.uri_1].location, index[k.uri_2].location) for k in keys]
        distances = [haversine_km(p, q) for p, q in located if p is not None and q is not None]
        cfg = RuleConfig(
            max_distance_km=data.draw(st.sampled_from([d for d in distances if d > 0] or [5.0])),
            min_cosine=data.draw(st.sampled_from(cosines + [0.0, 0.85, 1.0])),
            missing_location_policy=policy,
        )
        expected = [rule_match(index[k.uri_1], index[k.uri_2], cfg, spec) for k in keys]
        assert rule_match_pairs(keys, index, cfg, spec) == expected
        assert near_pairs(keys, index, cfg) == [k for k in keys if _within(index[k.uri_1], index[k.uri_2], cfg)]


class TestNearPairs:
    def _records(self):
        near_a = make_record("s:a", [("n", "x")], location=(45.0, -110.0))
        near_b = make_record("s:b", [("n", "y")], location=(45.001, -110.0))
        far = make_record("s:c", [("n", "z")], location=(10.0, 10.0))
        nowhere = make_record("s:d", [("n", "w")])
        return [near_a, near_b, far, nowhere]

    def test_keeps_missing_locations_under_text_only(self):
        records = self._records()
        keys = near_pairs(enumerate_pairs(records), records, RuleConfig(max_distance_km=5.0))
        assert keys == [PairKey("s:a", "s:b"), PairKey("s:a", "s:d"), PairKey("s:b", "s:d"), PairKey("s:c", "s:d")]

    def test_drops_missing_locations_under_reject(self):
        records = self._records()
        cfg = RuleConfig(max_distance_km=5.0, missing_location_policy=MissingLocationPolicy.REJECT)
        assert near_pairs(enumerate_pairs(records), records, cfg) == [PairKey("s:a", "s:b")]

    def test_keeps_what_the_oracle_keeps(self):
        rng = random.Random(8)
        located = [make_record(f"s:{i:02d}", [("n", "x")], location=(45.0 + rng.uniform(0, 0.2),
                                                                    -110.0 + rng.uniform(0, 0.2)))
                   for i in range(70)]
        records = located + [make_record("s:90", [("n", "y")]), make_record("s:91", [("n", "z")])]
        cfg = RuleConfig(max_distance_km=haversine_km(located[0].location, located[1].location))
        every = enumerate_pairs(records)
        assert len(every) > 2 * _BLOCK_PAIRS
        keys = near_pairs(every, records, cfg)
        by_uri = {r.uri: r for r in records}
        assert keys == [k for k in every if _within(by_uri[k.uri_1], by_uri[k.uri_2], cfg)]
        assert PairKey("s:00", "s:01") in keys  # exactly at the threshold
        assert PairKey("s:90", "s:91") in keys and all(PairKey(r.uri, "s:90") in keys for r in located)
        assert len(keys) < len(every)  # farther pairs are dropped

    def test_no_keys_keeps_none(self):
        assert near_pairs([], self._records(), RuleConfig()) == []

    @pytest.mark.parametrize("km", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, km):
        with pytest.raises(DataError, match=r"^max_distance_km must be positive: "):
            near_pairs(enumerate_pairs(self._records()), self._records(), RuleConfig(max_distance_km=km))


class TestGradient:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n, k = int(rng.integers(5, 40)), len(FEATURE_NAMES)
            z = rng.normal(size=(n, k))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(scale=0.5, size=k)
            b = float(rng.normal())
            wd = float(rng.uniform(0, 0.1))
            grad_w, grad_b = logistic_gradient(w, b, z, y, wd)
            eps = 1e-6
            for j in range(k):
                delta = np.zeros(k)
                delta[j] = eps
                numeric = (logistic_loss(w + delta, b, z, y, wd) - logistic_loss(w - delta, b, z, y, wd)) / (2 * eps)
                assert abs(grad_w[j] - numeric) <= 1e-5 * max(1.0, abs(numeric))
            numeric_b = (logistic_loss(w, b + eps, z, y, wd) - logistic_loss(w, b - eps, z, y, wd)) / (2 * eps)
            assert abs(grad_b - numeric_b) <= 1e-5 * max(1.0, abs(numeric_b))


# The minibatch loop ``fit_on_matrix`` replaced, kept as its oracle: a
# gathered batch per step, a two-sided sigmoid, p - y computed twice and the
# frozen weights zeroed on every step. The fit must match it bit for bit.


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _reference_fit(features, labels, hyper, val_features=None, val_labels=None, decision_threshold=0.5):
    means, stds = features.mean(axis=0), features.std(axis=0)
    frozen = stds < 1e-12
    stds = np.where(frozen, 1.0, stds)
    z = (features - means) / stds
    n, k = z.shape
    weights, bias = np.zeros(k), 0.0
    rng = np.random.default_rng(hyper.seed)
    best = None
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            zb, yb = z[batch], labels[batch]
            p = _reference_sigmoid(zb @ weights + bias)
            grad_w = zb.T @ (p - yb) / len(yb) + hyper.weight_decay * weights
            grad_b = float(np.mean(p - yb))
            grad_w[frozen] = 0.0
            weights = weights - hyper.learning_rate * grad_w
            bias = bias - hyper.learning_rate * grad_b
        if val_features is not None and val_labels is not None and len(val_labels):
            zv = (val_features - means) / stds
            score = macro_f1(confusion_counts(val_labels, _reference_sigmoid(zv @ weights + bias) > decision_threshold))
            if best is None or score > best[0]:
                best = (score, weights.copy(), bias)
    if best is not None:
        _, weights, bias = best
    return weights, bias


class TestTraining:
    def test_separable_corpus_perfect_training_accuracy(self):
        records, pairs = separable_corpus(400, seed=2)
        model = train_classifier(pairs, records)
        results = predict_pairs(model, [p.key for p in pairs], records)
        truth = {p.key: p.label for p in pairs}
        accuracy = sum(label == truth[key] for key, label, _ in results) / len(results)
        assert accuracy == 1.0

    def test_all_nonmatch_training_predicts_all_zero(self):
        records, pairs = separable_corpus(400, seed=4)
        nonmatches = [p for p in pairs if p.label == 0]
        with pytest.warns(DegenerateTrainingWarning, match="single class"):
            model = train_classifier(nonmatches, records)
        results = predict_pairs(model, [p.key for p in pairs], records)
        assert all(label == 0 for _, label, _ in results)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError, match="non-empty 2-D matrix"):
            fit_on_matrix(np.empty((0, len(FEATURE_NAMES))), np.empty(0), TrainConfig())

    def test_diverged_fit_raises_instead_of_returning_nan_weights(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(40, len(FEATURE_NAMES)))
        labels = np.arange(40) % 2
        with np.errstate(all="ignore"), pytest.raises(DataError, match="diverged to non-finite weights"):
            fit_on_matrix(features, labels, TrainConfig(learning_rate=1e300, epochs=3))

    def test_zero_epochs_gives_zero_model(self, yellow_pine_mrds, yellow_pine_usmin):
        records, pairs = separable_corpus(20, seed=6)
        model = train_classifier(pairs, records, TrainConfig(epochs=0))
        assert not model.weights.any() and model.bias == 0.0
        label, probability = predict(model, yellow_pine_mrds, yellow_pine_usmin)
        assert probability == 0.5
        assert label == 0  # tie at the threshold resolves to non-match

    def test_deterministic_given_seed(self):
        records, pairs = separable_corpus(120, seed=8)
        m1 = train_classifier(pairs, records, TrainConfig(seed=77))
        m2 = train_classifier(pairs, records, TrainConfig(seed=77))
        assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias
        m3 = train_classifier(pairs, records, TrainConfig(seed=78))
        assert not np.array_equal(m1.weights, m3.weights)

    def test_full_batch_loss_non_increasing(self):
        records, pairs = separable_corpus(60, seed=3)
        keys = [p.key for p in pairs]
        features = featurize_pairs(keys, records)
        labels = np.array([p.label for p in pairs], dtype=float)
        losses = []
        for epochs in range(0, 8):
            hyper = TrainConfig(epochs=epochs, batch_size=len(pairs), learning_rate=0.05, seed=1)
            model = train_classifier(pairs, records, hyper)
            z = (features - model.feature_means) / model.feature_stds
            losses.append(logistic_loss(model.weights, model.bias, z, labels, hyper.weight_decay))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_full_batch_loss_non_increasing_on_random_data(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(10, 80))
            features = rng.normal(size=(n, len(FEATURE_NAMES)))
            labels = rng.integers(0, 2, size=n).astype(float)
            losses = []
            for epochs in range(0, 6):
                hyper = TrainConfig(epochs=epochs, batch_size=n, learning_rate=0.05, seed=2)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateTrainingWarning)
                    model = fit_on_matrix(features, labels, hyper)
                z = (features - model.feature_means) / model.feature_stds
                losses.append(logistic_loss(model.weights, model.bias, z, labels, hyper.weight_decay))
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_constant_features_frozen(self):
        # no record has a location: the distance and missing-flag features are constant
        records = {}
        pairs = []
        rng = random.Random(12)
        for i in range(40):
            a = make_record(f"a:{i:03d}", [("site_name", f"Site {rng.randint(0, 20)}")])
            b = make_record(f"b:{i:03d}", [("site_name", f"Site {rng.randint(0, 20)}")])
            records[a.uri], records[b.uri] = a, b
            pairs.append(LabeledPair(PairKey.of(a.uri, b.uri), rng.randint(0, 1), Provenance.LLM))
        model = train_classifier(pairs, records)
        idx_distance = FEATURE_NAMES.index("log1p_haversine_km")
        idx_missing = FEATURE_NAMES.index("location_missing")
        for idx in (idx_distance, idx_missing):
            assert model.frozen_features[idx]
            assert model.weights[idx] == 0.0
            assert model.feature_stds[idx] == 1.0

    def test_best_epoch_selection_returns_some_epoch_state(self):
        records, pairs = separable_corpus(160, seed=13)
        train, val = pairs[: int(len(pairs) * 0.75)], pairs[int(len(pairs) * 0.75) :]
        selected = train_classifier(train, records, TrainConfig(epochs=6, seed=5), val_pairs=val)
        candidates = [
            train_classifier(train, records, TrainConfig(epochs=e, seed=5)) for e in range(1, 7)
        ]
        assert any(
            np.array_equal(selected.weights, c.weights) and selected.bias == c.bias
            for c in candidates
        )

    @given(st.integers(1, 90), st.sampled_from(["one", "all", "more", "some"]), st.integers(0, 2**32 - 1),
           st.booleans(), st.booleans(), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_fit_equals_the_reference_minibatch_loop(self, n, batches, seed, frozen, validate, epochs):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, len(FEATURE_NAMES)))
        if frozen:  # constant up to rounding, so zeroing its gradient still matters
            features[:, 4] = 1.0 + 1e-14 * rng.normal(size=n)
        labels = (rng.random(n) < 0.4).astype(float)
        batch_size = {"one": 1, "all": n, "more": n + 3, "some": int(rng.integers(1, n + 1))}[batches]
        hyper = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.3, weight_decay=0.02, seed=seed % 97)
        val = (rng.normal(size=(7, len(FEATURE_NAMES))), rng.integers(0, 2, 7)) if validate else (None, None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateTrainingWarning)
            model = fit_on_matrix(features, labels, hyper, *val)
        weights, bias = _reference_fit(features, labels, hyper, *val)
        assert np.array_equal(model.weights.view(np.uint64), weights.view(np.uint64))
        assert np.float64(model.bias).view(np.uint64) == np.float64(bias).view(np.uint64)

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            train_classifier([], {})

    def test_hyper_validation(self):
        with pytest.raises(DataError):
            TrainConfig(epochs=-1)
        with pytest.raises(DataError):
            TrainConfig(learning_rate=0.0)


class TestPredict:
    def test_constructed_positive_margin(self, yellow_pine_mrds):
        # hand-built model: logit = 4 * name_levenshtein_sim + 1, so an
        # identical pair scores sigmoid(5) = 0.9933...
        k = len(FEATURE_NAMES)
        weights = np.zeros(k)
        weights[FEATURE_NAMES.index("name_levenshtein_sim")] = 4.0
        model = ClassifierModel(
            weights=weights,
            bias=1.0,
            feature_means=np.zeros(k),
            feature_stds=np.ones(k),
            frozen_features=np.zeros(k, dtype=bool),
            hyper=TrainConfig(),
            feature_spec=FeatureSpec(),
        )
        label, probability = predict(model, yellow_pine_mrds, yellow_pine_mrds)
        assert label == 1
        assert probability == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-12)
        assert probability > 0.99

    def test_predict_pairs_returns_int_labels_and_float_probabilities(self):
        records, pairs = separable_corpus(40, seed=22)
        model = train_classifier(pairs, records)
        keys = [p.key for p in pairs]
        scored = predict_pairs(model, keys, records)
        assert [k for k, _, _ in scored] == keys
        assert {type(label) for _, label, _ in scored} == {int} and {label for _, label, _ in scored} == {0, 1}
        assert {type(p) for _, _, p in scored} == {float}
        probabilities = model.probabilities(featurize_pairs(keys, records)).tolist()
        assert [(label, p) for _, label, p in scored] == [(int(p > 0.5), p) for p in probabilities]
        # a bool label would be written as "label": true
        assert _labeled_line(LabeledPair(keys[0], scored[0][1], Provenance.PREDICTED)).count('"label": 1,') == 1
        assert predict_pairs(model, [], records) == []

    def test_one_pair_and_batch_agree_bit_for_bit(self):
        records, pairs = separable_corpus(40, seed=22)
        model = train_classifier(pairs, records)
        scored = predict_pairs(model, [p.key for p in pairs], records)
        one_by_one = [predict(model, records[k.uri_1], records[k.uri_2]) for k, _, _ in scored]
        assert [(label, p.hex()) for _, label, p in scored] == [(label, p.hex()) for label, p in one_by_one]

    def test_swap_invariance(self, yellow_pine_mrds, yellow_pine_usmin):
        records, pairs = separable_corpus(40, seed=22)
        model = train_classifier(pairs, records)
        assert predict(model, yellow_pine_mrds, yellow_pine_usmin) == predict(
            model, yellow_pine_usmin, yellow_pine_mrds
        )


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        records, pairs = separable_corpus(60, seed=31)
        spec = FeatureSpec(name_fields_by_source={"a": ("site_name",)})
        model = train_classifier(pairs, records, TrainConfig(seed=3), feature_spec=spec)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert np.array_equal(loaded.feature_means, model.feature_means)
        assert np.array_equal(loaded.feature_stds, model.feature_stds)
        assert np.array_equal(loaded.frozen_features, model.frozen_features)
        assert loaded.hyper == model.hyper
        assert loaded.feature_spec == model.feature_spec
        assert loaded.decision_threshold == model.decision_threshold

    def test_unsupported_version_rejected(self):
        records, pairs = separable_corpus(20, seed=32)
        doc = model_to_json_dict(train_classifier(pairs, records))
        doc["format_version"] = 99
        with pytest.raises(DataError, match="format_version"):
            model_from_json_dict(doc)

    @pytest.mark.parametrize("key", ["weights", "feature_means", "feature_stds", "frozen_features"])
    def test_wrong_feature_count_rejected(self, key):
        records, pairs = separable_corpus(20, seed=33)
        doc = model_to_json_dict(train_classifier(pairs, records))
        doc[key] = doc[key][:-1]
        with pytest.raises(DataError, match=f"{key} has 6 entries, expected 7"):
            model_from_json_dict(doc)

    def test_other_feature_names_rejected(self):
        records, pairs = separable_corpus(20, seed=34)
        doc = model_to_json_dict(train_classifier(pairs, records))
        doc["feature_names"] = doc["feature_names"][::-1]
        with pytest.raises(DataError, match="feature_names"):
            model_from_json_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("bias", "x", "could not convert string to float"),
        ("weights", ["x"] * len(FEATURE_NAMES), "could not convert string to float"),
        ("hyper", {"epochs": 1, "seed": -1}, "hyper: seed must be >= 0: -1"),
        ("feature_spec", {"name_fields_by_source": {"a": "site_name"}}, "feature_spec.name_fields_by_source.a: expected"),
    ])
    def test_bad_value_names_the_file(self, tmp_path, key, value, message):
        records, pairs = separable_corpus(20, seed=35)
        doc = model_to_json_dict(train_classifier(pairs, records))
        doc[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            load_model(path)

    @pytest.mark.parametrize("key, value, message", [
        ("weights", [math.nan] * len(FEATURE_NAMES), "model weights must be finite"),
        ("bias", math.inf, "model bias must be finite"),
        ("feature_means", [0.0] * (len(FEATURE_NAMES) - 1) + [-math.inf], "model feature_means must be finite"),
        ("feature_stds", [1.0] * (len(FEATURE_NAMES) - 1) + [math.nan], "model feature_stds must be finite"),
        ("decision_threshold", math.nan, "model decision_threshold must be finite"),
        ("decision_threshold", 1.5, r"decision_threshold must lie in \(0, 1\): 1\.5$"),
        ("decision_threshold", 1, r"decision_threshold must lie in \(0, 1\): 1\.0$"),
        ("decision_threshold", 0.0, r"decision_threshold must lie in \(0, 1\): 0\.0$"),
        ("decision_threshold", -0.1, r"decision_threshold must lie in \(0, 1\): -0\.1$"),
        ("feature_stds", [1.0] * (len(FEATURE_NAMES) - 1) + [0.0], "model feature_stds must be positive"),
        ("feature_stds", [-1.0] + [1.0] * (len(FEATURE_NAMES) - 1), "model feature_stds must be positive"),
    ])
    def test_unusable_number_names_the_file(self, tmp_path, key, value, message):
        records, pairs = separable_corpus(20, seed=36)
        doc = model_to_json_dict(train_classifier(pairs, records))
        doc[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # json writes bare NaN and Infinity tokens
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            load_model(path)

    @pytest.mark.parametrize("text, message", [
        ("{", "not valid JSON"),
        ('{"format_version": 1}', "missing key"),
        ("[1]", "'list' object has no attribute 'get'"),
        ('{"format_version": 1, "\xff": 0}', "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_load_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError, match=f"{path}: {message}"):
            load_model(path)
