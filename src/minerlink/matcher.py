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

from .errors import DataError
from .evaluate import confusion_counts, macro_f1
from .pairing import LabeledPair, PairKey
from .records import GeoPoint, Record, record_index

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


def text_cosine(a: str, b: str) -> float:
    """Cosine of character-trigram count vectors, in [0, 1]."""
    va = _trigram_counts(_norm(a))
    vb = _trigram_counts(_norm(b))
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


def _levenshtein(a: str, b: str) -> int:
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


def _levenshtein_sim(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - _levenshtein(a, b) / longest


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

    def to_json_dict(self) -> dict:
        return {
            "name_fields": list(self.name_fields),
            "commodity_fields": list(self.commodity_fields),
            "name_fields_by_source": {k: list(v) for k, v in self.name_fields_by_source.items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FeatureSpec":
        spec = cls()
        return cls(
            name_fields=tuple(doc.get("name_fields", spec.name_fields)),
            commodity_fields=tuple(doc.get("commodity_fields", spec.commodity_fields)),
            name_fields_by_source={
                k: tuple(v) for k, v in doc.get("name_fields_by_source", {}).items()
            },
        )


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


def extract_features(a: Record, b: Record, spec: FeatureSpec | None = None) -> FeatureVector:
    """Symmetric pair features; swapping the arguments never changes them."""
    spec = spec or FeatureSpec()

    names_a = [_norm(v) for v in spec.name_values(a)]
    names_b = [_norm(v) for v in spec.name_values(b)]
    if names_a and names_b:
        lev_sim = max(_levenshtein_sim(na, nb) for na in names_a for nb in names_b)
        token_jac = max(
            _token_jaccard(set(na.split()), set(nb.split())) for na in names_a for nb in names_b
        )
    else:
        lev_sim = 0.0
        token_jac = 0.0

    if a.location is not None and b.location is not None:
        distance = math.log1p(haversine_km(a.location, b.location))
        missing = 0.0
    else:
        distance = 0.0
        missing = 1.0

    attrs_a = {n.casefold(): v for n, v in a.attributes}
    attrs_b = {n.casefold(): v for n, v in b.attributes}
    shared = set(attrs_a) & set(attrs_b)
    if shared:
        agreement = sum(_norm(attrs_a[n]) == _norm(attrs_b[n]) for n in shared) / len(shared)
    else:
        agreement = 0.0

    return FeatureVector(
        name_levenshtein_sim=lev_sim,
        name_token_jaccard=token_jac,
        trigram_cosine=text_cosine(_record_text(a), _record_text(b)),
        log1p_haversine_km=distance,
        location_missing=missing,
        commodity_jaccard=_token_jaccard(_commodity_tokens(a, spec), _commodity_tokens(b, spec)),
        shared_attr_agreement=agreement,
    )


def featurize_pairs(
    keys: Sequence[PairKey],
    records: Mapping[str, Record],
    spec: FeatureSpec | None = None,
) -> np.ndarray:
    """Feature matrix (len(keys) x 7) in key order; every uri must resolve."""
    spec = spec or FeatureSpec()
    missing = {u for k in keys for u in (k.uri_1, k.uri_2) if u not in records}
    if missing:
        raise DataError(f"unresolved uris in pair keys: {sorted(missing)[:5]}")
    if not keys:
        return np.empty((0, len(FEATURE_NAMES)), dtype=float)
    return np.array([extract_features(records[k.uri_1], records[k.uri_2], spec) for k in keys], dtype=float)


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
    index = records if isinstance(records, Mapping) else record_index(records)

    features = featurize_pairs([p.key for p in train_pairs], index, spec)
    labels = np.array([p.label for p in train_pairs], dtype=float)
    val_features = val_labels = None
    if val_pairs:
        val_features = featurize_pairs([p.key for p in val_pairs], index, spec)
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
    index = records if isinstance(records, Mapping) else record_index(records)
    features = featurize_pairs(keys, index, model.feature_spec)
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
        "hyper": {
            "epochs": model.hyper.epochs,
            "batch_size": model.hyper.batch_size,
            "learning_rate": model.hyper.learning_rate,
            "weight_decay": model.hyper.weight_decay,
            "seed": model.hyper.seed,
        },
        "feature_spec": model.feature_spec.to_json_dict(),
    }


def model_from_json_dict(doc: dict) -> ClassifierModel:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format_version: {version!r}")
    return ClassifierModel(
        weights=np.array(doc["weights"], dtype=float),
        bias=float(doc["bias"]),
        feature_means=np.array(doc["feature_means"], dtype=float),
        feature_stds=np.array(doc["feature_stds"], dtype=float),
        frozen_features=np.array(doc["frozen_features"], dtype=bool),
        hyper=TrainConfig(**doc["hyper"]),
        feature_spec=FeatureSpec.from_json_dict(doc["feature_spec"]),
        decision_threshold=float(doc["decision_threshold"]),
        feature_names=tuple(doc["feature_names"]),
    )


def save_model(model: ClassifierModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_json_dict(model), indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ClassifierModel:
    return model_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
