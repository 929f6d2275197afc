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
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import decode, encode
from .errors import ConfigError, DataError
from .evaluate import confusion_counts, macro_f1
from .pairing import LabeledPair, PairKey, resolve_uris
from .records import JSONL_ROW_ERRORS, GeoPoint, Record, write_json

EARTH_RADIUS_KM = 6371.0

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
    for lat, lon in ((lat1, lon1), (lat2, lon2)):
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
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


def _trigram_counts(normed: str) -> Counter:
    if not normed:
        return Counter()
    if len(normed) < 3:
        # too short for a trigram: the whole string is the single gram,
        # so identical short strings still score 1
        return Counter({normed: 1})
    return Counter(normed[i : i + 3] for i in range(len(normed) - 2))


def _count_norm(counts: Counter) -> float:
    return math.sqrt(sum(c * c for c in counts.values()))


def _cosine(va: Counter, norm_a: float, vb: Counter, norm_b: float) -> float:
    if not va or not vb:
        return 0.0
    # dict equality runs in C; Counter.__eq__ loops in Python. The two agree
    # here because trigram counts are always positive.
    if dict.__eq__(va, vb):
        return 1.0
    if len(va) > len(vb):
        va, vb = vb, va
    dot = sum(count * vb[gram] for gram, count in va.items() if gram in vb)
    if dot == 0:
        return 0.0
    return min(1.0, dot / (norm_a * norm_b))


def text_cosine(a: str, b: str) -> float:
    """Cosine of character-trigram count vectors, in [0, 1]."""
    va = _trigram_counts(_norm(a))
    vb = _trigram_counts(_norm(b))
    return _cosine(va, _count_norm(va), vb, _count_norm(vb))


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


def _token_jaccard(tokens_a: set[str], tokens_b: set[str]) -> float:
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    return len(tokens_a & tokens_b) / len(union)


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
        if self.max_distance_km <= 0:
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

    def name_values(self, record: Record) -> list[str]:
        fields = self.name_fields_by_source.get(record.source_id, self.name_fields)
        wanted = [f.casefold() for f in fields]
        by_name = {n.casefold(): v for n, v in record.attributes}
        return [by_name[f] for f in wanted if f in by_name]

    def commodity_values(self, record: Record) -> list[str]:
        wanted = [f.casefold() for f in self.commodity_fields]
        by_name = {n.casefold(): v for n, v in record.attributes}
        return [by_name[f] for f in wanted if f in by_name]


def _best_name_cosine(a: Record, b: Record, spec: FeatureSpec) -> float:
    names_a = spec.name_values(a)
    names_b = spec.name_values(b)
    if not names_a or not names_b:
        return 0.0
    return max(text_cosine(na, nb) for na in names_a for nb in names_b)


def rule_distance_clause(a: Record, b: Record, cfg: RuleConfig) -> bool:
    """Distance side of the curated rule, honoring the missing-location policy."""
    if a.location is None or b.location is None:
        return cfg.missing_location_policy is MissingLocationPolicy.TEXT_ONLY
    return haversine_km(a.location, b.location) <= cfg.max_distance_km


def rule_text_clause(a: Record, b: Record, cfg: RuleConfig, spec: FeatureSpec | None = None) -> bool:
    """Name-similarity side of the curated rule."""
    return _best_name_cosine(a, b, spec or FeatureSpec()) >= cfg.min_cosine


def rule_match(a: Record, b: Record, cfg: RuleConfig | None = None, spec: FeatureSpec | None = None) -> int:
    """Curated baseline: 1 iff the distance AND name-similarity clauses pass."""
    cfg = cfg or RuleConfig()
    return int(rule_distance_clause(a, b, cfg) and rule_text_clause(a, b, cfg, spec))


def rule_match_pairs(
    keys: Sequence[PairKey],
    records: Mapping[str, Record] | Sequence[Record],
    cfg: RuleConfig | None = None,
    spec: FeatureSpec | None = None,
) -> list[int]:
    """Curated-rule labels in key order; every uri must resolve."""
    index = resolve_uris(keys, records)
    return [rule_match(index[k.uri_1], index[k.uri_2], cfg, spec) for k in keys]


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


_COMMODITY_SPLIT = str.maketrans(",;/", "   ")


def _commodity_tokens(record: Record, spec: FeatureSpec) -> set[str]:
    tokens: set[str] = set()
    for value in spec.commodity_values(record):
        tokens.update(value.casefold().translate(_COMMODITY_SPLIT).split())
    return tokens


def _record_text(record: Record) -> str:
    return " ".join(value for _, value in record.attributes)


class _Profile:
    """The per-record half of the pair features, built once per record.

    ``names`` holds one (normalized name, Myers match masks, token set)
    triple per name value; ``attrs`` maps each casefolded attribute name to
    its normalized value.
    """

    __slots__ = ("names", "grams", "gram_norm", "location", "attrs", "commodities")

    def __init__(self, record: Record, spec: FeatureSpec):
        names = [_norm(v) for v in spec.name_values(record)]
        self.names = tuple((n, _myers_peq(n), frozenset(n.split())) for n in names)
        self.grams = _trigram_counts(_norm(_record_text(record)))
        self.gram_norm = _count_norm(self.grams)
        self.location = record.location
        self.attrs = {n.casefold(): _norm(v) for n, v in record.attributes}
        self.commodities = _commodity_tokens(record, spec)


def _pair_row(a: _Profile, b: _Profile) -> tuple[float, ...]:
    """One pair's features in ``FEATURE_NAMES`` order (the pairwise half)."""
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
            if sim > lev_sim:
                lev_sim = sim
            jac = _token_jaccard(tokens_a, tokens_b)
            if jac > token_jac:
                token_jac = jac

    if a.location is not None and b.location is not None:
        distance = math.log1p(haversine_km(a.location, b.location))
        missing = 0.0
    else:
        distance = 0.0
        missing = 1.0

    attrs_a, attrs_b = a.attrs, b.attrs
    shared = attrs_a.keys() & attrs_b.keys()
    if shared:
        agreement = sum(attrs_a[n] == attrs_b[n] for n in shared) / len(shared)
    else:
        agreement = 0.0

    return (
        lev_sim,
        token_jac,
        _cosine(a.grams, a.gram_norm, b.grams, b.gram_norm),
        distance,
        missing,
        _token_jaccard(a.commodities, b.commodities),
        agreement,
    )


def extract_features(a: Record, b: Record, spec: FeatureSpec | None = None) -> FeatureVector:
    """Symmetric pair features; swapping the arguments never changes them."""
    spec = spec or FeatureSpec()
    return FeatureVector(*_pair_row(_Profile(a, spec), _Profile(b, spec)))


def featurize_pairs(
    keys: Sequence[PairKey],
    records: Mapping[str, Record] | Sequence[Record],
    spec: FeatureSpec | None = None,
) -> np.ndarray:
    """Feature matrix (len(keys) x 7) in key order; every uri must resolve.

    Each record touched is profiled once for the whole call, so the per-pair
    work is only the pairwise comparison.
    """
    spec = spec or FeatureSpec()
    profiles = {u: _Profile(r, spec) for u, r in resolve_uris(keys, records).items()}
    out = np.empty((len(keys), len(FEATURE_NAMES)), dtype=float)
    for row, key in enumerate(keys):
        out[row] = _pair_row(profiles[key.uri_1], profiles[key.uri_2])
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
        z = (features - self.feature_means) / self.feature_stds
        return _sigmoid(z @ self.weights + self.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def logistic_loss(
    weights: np.ndarray, bias: float, z: np.ndarray, y: np.ndarray, weight_decay: float
) -> float:
    """Mean cross-entropy plus L2 penalty on the weights (bias unpenalized)."""
    logits = z @ weights + bias
    ce = np.logaddexp(0.0, logits) - y * logits
    return float(np.mean(ce) + 0.5 * weight_decay * np.dot(weights, weights))


def logistic_gradient(
    weights: np.ndarray, bias: float, z: np.ndarray, y: np.ndarray, weight_decay: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of ``logistic_loss`` wrt (weights, bias)."""
    p = _sigmoid(z @ weights + bias)
    grad_w = z.T @ (p - y) / len(y) + weight_decay * weights
    grad_b = float(np.mean(p - y))
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

    best: tuple[float, np.ndarray, float] | None = None
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            grad_w, grad_b = logistic_gradient(weights, bias, z[batch], labels[batch], hyper.weight_decay)
            grad_w[frozen] = 0.0
            weights = weights - hyper.learning_rate * grad_w
            bias = bias - hyper.learning_rate * grad_b
        if val_features is not None and val_labels is not None and len(val_labels):
            zv = (val_features - means) / stds
            score = macro_f1(confusion_counts(val_labels, _sigmoid(zv @ weights + bias) > decision_threshold))
            if best is None or score > best[0]:
                best = (score, weights.copy(), bias)
    if best is not None:
        _, weights, bias = best

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
    """Batch prediction in key order."""
    features = featurize_pairs(keys, records, model.feature_spec)
    probs = model.probabilities(features) if len(keys) else np.empty(0)
    return [
        (key, int(p > model.decision_threshold), float(p)) for key, p in zip(keys, probs)
    ]


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
