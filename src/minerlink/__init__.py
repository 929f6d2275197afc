"""minerlink: record linkage for heterogeneous mineral-site databases.

Pipeline: ingest heterogeneous CSVs into uniform records, enumerate all
candidate pairs, label them through a chat-completion endpoint, train a
feature-based pairwise matcher on those labels, evaluate with match /
non-match / macro F1, sweep training-set compositions, extrapolate runtime,
and merge predicted matches into site clusters.
"""

from .cluster import SiteCluster, cluster_matches, cluster_report
from .errors import ConfigError, DataError, LLMTransportError, MinerlinkError, SchemaError
from .evaluate import (
    ConfusionCounts,
    EvalReport,
    SweepConfig,
    SweepMode,
    confusion,
    evaluate_pairs,
    macro_f1,
    match_f1,
    nonmatch_f1,
    run_sweep,
)
from .llm_labeler import (
    LabelCache,
    LabelerConfig,
    LabelOutcome,
    LabelStatus,
    label_dataset,
    label_pair,
    parse_yes_no,
)
from .matcher import (
    ClassifierModel,
    FeatureSpec,
    FeatureVector,
    MissingLocationPolicy,
    RuleConfig,
    TrainConfig,
    extract_features,
    haversine_km,
    load_model,
    predict,
    rule_match,
    rule_match_pairs,
    save_model,
    text_cosine,
    train_classifier,
)
from .pairing import (
    LabeledPair,
    PairKey,
    Provenance,
    SplitSpec,
    enumerate_pairs,
    stratified_split,
    subsample_sweep,
)
from .records import (
    Dataset,
    GeoPoint,
    Record,
    SchemaConfig,
    export_csv,
    ingest_csv,
    validate_dataset,
)
from .runtime_model import Measurement, RuntimeModel, benchmark, fit, predict_days, predict_seconds

__version__ = "0.1.0"
