"""The pipeline stages as the CLI runs them, with a span around each layer call.

Each stage reads its inputs from disk and writes its artifact back, in the
order and through the same public functions as ``minerlink.cli``. Spans name
the layer (``<module>.<function>``) and count the work handed to it. Timers
that feed end-to-end metrics are taken whether or not tracing is on.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from clock import stopwatch
from corpus import DUPLICATE_SHARE, USMIN_SHARE, Corpus, generate
from endpoint import ABSTAIN_ALWAYS_SHARE, ABSTAIN_ONCE_SHARE, LATENCY_MS, TRANSIENT_503_SHARE, EndpointProcess, script
from minerlink import cluster as cluster_mod
from minerlink import evaluate as evaluate_mod
from minerlink import runtime_model
from minerlink.llm_labeler import LabelCache, LabelerConfig, label_dataset, prompt_hash
from minerlink.matcher import (
    FeatureSpec,
    RuleConfig,
    TrainConfig,
    featurize_pairs,
    fit_on_matrix,
    load_model,
    model_to_json_dict,
    predict_pairs,
    rule_match,
    save_model,
    train_classifier,
)
from minerlink.pairing import (
    LabeledPair,
    PairKey,
    Provenance,
    SplitSpec,
    enumerate_pairs,
    pair_count,
    read_labeled_pairs,
    read_pair_keys,
    stratified_split,
    subsample_sweep,
    write_labeled_pairs,
    write_pair_keys,
)
from minerlink.records import (
    SchemaConfig,
    ingest_csv,
    read_records_jsonl,
    record_index,
    validate_dataset,
    write_records_jsonl,
)
from minerlink.serialize import build_pair_prompt
from spans import Tracer

LABEL_MODEL = "bench-model"
DAYS_AT = 300_000
SPLIT = SplitSpec(fractions=(0.6, 0.2, 0.2), seed=0)
TRAIN_HYPER = TrainConfig()
PRETRAIN_RECORDS = 160
PRETRAIN_NONMATCH_PER_MATCH = 16
WARM_RERUNS = 5
LABEL_CANDIDATES_PER_PAIR = 30


@dataclass(frozen=True)
class Sizes:
    """How much input each stage gets in one iteration of a workload."""

    link: tuple[int, int]  # records at the smaller and the larger link size
    label_pairs: int
    # Cold labeling runs per iteration, each into an empty directory. Several short
    # runs give the median more cold samples than one long run would.
    label_runs: int
    train_matches: int
    train_nonmatches: int


class Ops:
    """Attempted and failed operations; a failed output check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.label_attempted = 0
        self.label_failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str, n: int = 1, label: bool = False) -> bool:
        self.attempted += n
        if label:
            self.label_attempted += n
        if not ok:
            self.failed += n
            if label:
                self.label_failed += n
            self.messages.append(what)
        return ok


@dataclass
class Inputs:
    link: list[tuple[int, Corpus, Path]]  # (records, corpus, truth.jsonl) per size
    model_path: Path
    label_dir: Path
    label_seed: int
    train_dir: Path


# ---------------------------------------------------------------------------
# Set-up: corpora, truth, the pre-trained link model
# ---------------------------------------------------------------------------


def _ingest(corpus: Corpus) -> list:
    records = []
    for entry in corpus.datasets_config():
        records.extend(ingest_csv(entry["path"], entry["source_id"], SchemaConfig.from_json_dict(entry["schema"])).records)
    return records


def _truth(corpus: Corpus, keys: list[PairKey]) -> list[LabeledPair]:
    return [LabeledPair(k, corpus.is_match(k.uri_1, k.uri_2), Provenance.GROUND_TRUTH) for k in keys]


def _labeled_pool(rng: random.Random, corpus: Corpus, keys: list[PairKey], matches: int, nonmatches: int) -> list[LabeledPair]:
    truth = _truth(corpus, keys)
    pos = [p for p in truth if p.label == 1]
    neg = [p for p in truth if p.label == 0]
    if len(pos) < matches or len(neg) < nonmatches:
        raise ValueError(f"corpus too small: {len(pos)} matches, {len(neg)} non-matches")
    pool = rng.sample(pos, matches) + rng.sample(neg, nonmatches)
    return sorted(pool, key=lambda p: (p.key.uri_1, p.key.uri_2))


def _records_for_matches(matches: int) -> int:
    """A corpus size whose planted matches cover ``matches``, with slack for rounding."""
    return int(matches / (USMIN_SHARE * DUPLICATE_SHARE)) + 12


def _scripted_sample(rng: random.Random, records: list, label_seed: int, count: int) -> list[PairKey]:
    """``count`` pairs whose endpoint scripts hold the expected shares of
    abstentions and transient 503s, rounded the same way for every seed.

    Each of those costs one more request, so every seed issues the same number
    of requests per cold run, and the seed changes only what the prompts say.
    """
    index = record_index(records)
    kinds = {"plain": 1.0 - ABSTAIN_ONCE_SHARE - ABSTAIN_ALWAYS_SHARE,
             "once": ABSTAIN_ONCE_SHARE, "always": ABSTAIN_ALWAYS_SHARE}
    ideal = {(kind, transient): count * share * (TRANSIENT_503_SHARE if transient else 1.0 - TRANSIENT_503_SHARE)
             for kind, share in kinds.items() for transient in (False, True)}
    quota = {bucket: int(x) for bucket, x in ideal.items()}
    by_remainder = sorted(ideal, key=lambda bucket: ideal[bucket] - quota[bucket], reverse=True)
    for bucket in by_remainder[: count - sum(quota.values())]:
        quota[bucket] += 1
    candidates = enumerate_pairs(records)
    rng.shuffle(candidates)
    chosen = []
    for k in candidates:
        plan = script(label_seed, build_pair_prompt(index[k.uri_1], index[k.uri_2]))
        bucket = ("always" if plan.abstains else "once" if plan.first != plan.retry else "plain", plan.transient)
        if quota[bucket]:
            quota[bucket] -= 1
            chosen.append(k)
            if len(chosen) == count:
                return chosen
    raise ValueError(f"label corpus too small for the scripted mix of {count} pairs")


def prepare(work: Path, seed: int, sizes: Sizes) -> Inputs:
    """Generate every input a workload iteration reads, from ``seed`` alone."""
    rng = random.Random(seed)
    link = []
    for n in sizes.link:
        d = work / f"link-input-{n}"
        corpus = generate(rng.randrange(2**31), n, d)
        keys = enumerate_pairs(_ingest(corpus))
        truth_path = d / "truth.jsonl"
        write_labeled_pairs(_truth(corpus, keys), truth_path)
        link.append((n, corpus, truth_path))

    pre = generate(rng.randrange(2**31), PRETRAIN_RECORDS, work / "pretrain")
    pre_records = _ingest(pre)
    planted = sum(pre.is_match(k.uri_1, k.uri_2) for k in enumerate_pairs(pre_records))
    pool = _labeled_pool(rng, pre, enumerate_pairs(pre_records), planted, planted * PRETRAIN_NONMATCH_PER_MATCH)
    model_path = work / "pretrain" / "model.json"
    save_model(train_classifier(pool, pre_records, TRAIN_HYPER), model_path)

    label_dir = work / "label-input"
    label_seed = rng.randrange(2**31)
    n = 2
    while pair_count(n) < sizes.label_pairs * LABEL_CANDIDATES_PER_PAIR:
        n += 1
    records = _ingest(generate(rng.randrange(2**31), n, label_dir))
    write_records_jsonl(records, label_dir / "records.jsonl")
    keys = _scripted_sample(rng, records, label_seed, sizes.label_pairs)
    write_pair_keys(sorted(keys, key=lambda k: (k.uri_1, k.uri_2)), label_dir / "pairs.jsonl")

    train_dir = work / "train-input"
    corpus = generate(rng.randrange(2**31), _records_for_matches(sizes.train_matches), train_dir)
    records = _ingest(corpus)
    write_records_jsonl(records, train_dir / "records.jsonl")
    pool = _labeled_pool(rng, corpus, enumerate_pairs(records), sizes.train_matches, sizes.train_nonmatches)
    write_labeled_pairs(pool, train_dir / "labeled.jsonl")
    return Inputs(link, model_path, label_dir, label_seed, train_dir)


# ---------------------------------------------------------------------------
# link: ingest -> pairs -> predict -> predict --rule -> evaluate -> cluster
# ---------------------------------------------------------------------------


@dataclass
class LinkResult:
    n: int
    pairs: int
    wall_s: float  # raw; multiply by factor for reference-host seconds
    predict_pairs_s: float  # raw
    factor: float
    counts: evaluate_mod.ConfusionCounts
    rule_counts: evaluate_mod.ConfusionCounts
    pair_completeness: float
    predicted_matches: int
    clusters: int
    max_cluster_size: int
    contradictions: int


def _read_records(tr: Tracer, path: Path):
    with tr.span("records.read_records_jsonl"):
        records = read_records_jsonl(path)
    return records


def _read_keys(tr: Tracer, path: Path) -> list[PairKey]:
    with tr.span("pairing.read_pair_keys") as span:
        keys = read_pair_keys(path)
        span.count = len(keys)
    return keys


def _read_labeled(tr: Tracer, path: Path) -> list[LabeledPair]:
    with tr.span("pairing.read_labeled_pairs") as span:
        pairs = read_labeled_pairs(path)
        span.count = len(pairs)
    return pairs


def _write_labeled(tr: Tracer, pairs: list[LabeledPair], path: Path) -> None:
    with tr.span("pairing.write_labeled_pairs", count=len(pairs)):
        write_labeled_pairs(pairs, path)


def link_chain(tr: Tracer, ops: Ops, n: int, corpus: Corpus, truth_path: Path, model_path: Path, out: Path) -> LinkResult:
    out.mkdir(parents=True, exist_ok=True)
    with stopwatch() as watch:
        records, keys, predicted, reports, uris, clusters, report, predict_s = _link_stages(
            tr, ops, n, corpus, truth_path, model_path, out)

    members = [m for c in clusters for m in c.members]
    ops.check(len(members) == len(set(members)) and set(members) == set(uris), f"cluster n={n}: not a partition")
    cluster_of = {m: c.cluster_id for c in clusters for m in c.members}
    split = sum(cluster_of.get(p.key.uri_1) != cluster_of.get(p.key.uri_2) for p in predicted if p.label == 1)
    ops.check(split == 0, f"cluster n={n}: {split} predicted matches span two clusters")

    planted = set(_planted(corpus))
    found = sum((k.uri_1, k.uri_2) in planted for k in keys)
    return LinkResult(
        n=n, pairs=len(keys), wall_s=watch.raw, predict_pairs_s=predict_s, factor=watch.factor,
        counts=reports[0].counts, rule_counts=reports[1].counts,
        pair_completeness=found / len(planted) if planted else 1.0,
        predicted_matches=sum(p.label for p in predicted),
        clusters=report.cluster_count, max_cluster_size=report.max_cluster_size,
        contradictions=len(report.contradictions),
    )


def _link_stages(tr: Tracer, ops: Ops, n: int, corpus: Corpus, truth_path: Path, model_path: Path, out: Path):
    with tr.span("stage.ingest"):
        records = []
        for entry in corpus.datasets_config():
            with tr.span("records.ingest_csv"):
                dataset = ingest_csv(entry["path"], entry["source_id"], SchemaConfig.from_json_dict(entry["schema"]))
            ops.check(not validate_dataset(dataset).duplicate_uris, f"ingest n={n}: duplicate uris")
            records.extend(dataset.records)
        record_index(records)
        with tr.span("records.write_records_jsonl", count=len(records)):
            write_records_jsonl(records, out / "records.jsonl")
    ops.check(len(records) == n, f"ingest n={n}: {len(records)} records")

    with tr.span("stage.pairs"):
        records = _read_records(tr, out / "records.jsonl")
        with tr.span("pairing.enumerate_pairs", count=pair_count(len(records))):
            keys = enumerate_pairs(records)
        with tr.span("pairing.write_pair_keys", count=len(keys)):
            write_pair_keys(keys, out / "pairs.jsonl")
    ops.check(len(keys) == pair_count(n), f"pairs n={n}: {len(keys)} != n(n-1)/2")

    with tr.span("stage.predict"):
        index = record_index(_read_records(tr, out / "records.jsonl"))
        keys = _read_keys(tr, out / "pairs.jsonl")
        with tr.span("matcher.load_model"):
            model = load_model(model_path)
        t0 = time.perf_counter()
        with tr.span("matcher.predict_pairs", count=len(keys)):
            scored = predict_pairs(model, keys, index)
        predict_s = time.perf_counter() - t0
        predicted = [LabeledPair(key=k, label=label, provenance=Provenance.PREDICTED) for k, label, _ in scored]
        _write_labeled(tr, predicted, out / "predictions.jsonl")
    ops.check(len(predicted) == len(keys), f"predict n={n}: {len(predicted)} predictions")

    with tr.span("stage.predict_rule"):
        index = record_index(_read_records(tr, out / "records.jsonl"))
        keys = _read_keys(tr, out / "pairs.jsonl")
        rule, spec = RuleConfig(), FeatureSpec()
        with tr.span("matcher.rule_match", count=len(keys)):
            labels = [rule_match(index[k.uri_1], index[k.uri_2], rule, spec) for k in keys]
        rule_predicted = [LabeledPair(key=k, label=v, provenance=Provenance.PREDICTED) for k, v in zip(keys, labels)]
        _write_labeled(tr, rule_predicted, out / "predictions_rule.jsonl")
    ops.check(len(rule_predicted) == len(keys), f"predict --rule n={n}: {len(rule_predicted)} predictions")

    with tr.span("stage.evaluate"):
        truth = _read_labeled(tr, truth_path)
        reports = []
        for name in ("predictions.jsonl", "predictions_rule.jsonl"):
            predictions = _read_labeled(tr, out / name)
            with tr.span("evaluate.evaluate_pairs", count=len(predictions)):
                reports.append(evaluate_mod.evaluate_pairs(predictions, truth))
    ops.check(all(r.counts.total == len(keys) for r in reports), f"evaluate n={n}: totals differ from pair count")

    with tr.span("stage.cluster"):
        uris = [r.uri for r in _read_records(tr, out / "records.jsonl")]
        predictions = _read_labeled(tr, out / "predictions.jsonl")
        with tr.span("cluster.cluster_matches", count=len(predictions)):
            clusters = cluster_mod.cluster_matches(uris, predictions)
        with tr.span("cluster.cluster_report", count=len(predictions)):
            report = cluster_mod.cluster_report(clusters, size_threshold=10, nonmatches=predictions)
        with tr.span("cluster.write_clusters", count=len(clusters)):
            cluster_mod.write_clusters(clusters, out / "clusters.jsonl")
    return records, keys, predicted, reports, uris, clusters, report, predict_s


def _planted(corpus: Corpus) -> list[tuple[str, str]]:
    by_site: dict[int, list[str]] = {}
    for uri, site in corpus.site_of.items():
        by_site.setdefault(site, []).append(uri)
    return [(a, b) for uris in by_site.values() for a in sorted(uris) for b in sorted(uris) if a < b]


def runtime_fit(points) -> runtime_model.RuntimeModel:
    """k of time = k * (n^2 - n) over (records, batch ``predict_pairs`` seconds) points."""
    return runtime_model.fit([runtime_model.Measurement(n, seconds) for n, seconds in points])


# ---------------------------------------------------------------------------
# label: cold label_dataset against the endpoint, then warm re-runs
# ---------------------------------------------------------------------------


@dataclass
class LabelResult:
    pairs: int
    cold_s: float  # reference-host seconds for the client's share, raw for the endpoint's latency
    client_cpu_s: float  # reference-host CPU seconds of the benchmark's process, the labeler's own work
    requests: int
    abstain_defaulted: int
    endpoint: dict  # the endpoint's counters over the cold run


def _label_stage(tr: Tracer, span: str, inputs: Path, out: Path, cfg: LabelerConfig, target: str):
    records = _read_records(tr, inputs / "records.jsonl")
    keys = _read_keys(tr, inputs / "pairs.jsonl")
    with tr.span(span, count=len(keys)):
        labeled, summary = label_dataset(keys, records, cfg)
    _write_labeled(tr, labeled, out / target)
    return labeled, summary


def label_pass(tr: Tracer, ops: Ops, inputs: Inputs, out: Path, endpoint: EndpointProcess,
               max_in_flight: int, expected: dict[PairKey, tuple[int, Provenance]]) -> LabelResult:
    """Cold run into an empty output directory, then ``WARM_RERUNS`` warm re-runs on it."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = LabelerConfig(base_url=endpoint.base_url, model=LABEL_MODEL, max_in_flight=max_in_flight,
                        cache_path=out / "llm_cache.jsonl", timeout_s=10.0)
    endpoint.reset()
    with stopwatch() as watch, tr.span("stage.label_cold"):
        cpu_start = time.process_time()
        labeled, summary = _label_stage(tr, "llm_labeler.label_dataset_cold", inputs.label_dir, out, cfg, "labeled.jsonl")
        cpu = time.process_time() - cpu_start
    # The labeler's own work: CPU time of this process (its worker threads included), not the endpoint's.
    client_cpu = cpu * watch.factor
    # The endpoint's fixed latency does not slow down with the host; only the rest is rescaled.
    waiting = summary.requests_issued * LATENCY_MS / 1000.0 / max_in_flight
    cold = min(waiting, watch.raw) + max(0.0, watch.raw - waiting) * watch.factor
    served = endpoint.stats()
    bounded = served["max_in_flight"] <= max_in_flight
    for p in labeled:
        ok = bounded and expected.get(p.key) == (p.label, p.provenance)
        ops.check(ok, f"label: {p.key} got {(p.label, p.provenance)}, script intended {expected.get(p.key)}, "
                      f"in flight {served['max_in_flight']}", label=True)

    cold_bytes = (out / "labeled.jsonl").read_bytes()
    with tr.span("stage.label_warm"):
        reruns = [_label_stage(tr, "llm_labeler.label_dataset_warm", inputs.label_dir, out, cfg, f"labeled_warm{i}.jsonl")
                  for i in range(WARM_RERUNS)]
    issued = endpoint.stats()["requests"] - served["requests"]
    ops.check(issued == 0, f"label warm: the endpoint served {issued} requests", n=len(labeled), label=True)
    for i, (rerun, warm_summary) in enumerate(reruns):
        same = (out / f"labeled_warm{i}.jsonl").read_bytes() == cold_bytes
        ops.check(same and warm_summary.requests_issued == 0,
                  f"label warm: byte-identical={same}, requests={warm_summary.requests_issued}",
                  n=len(rerun), label=True)
    return LabelResult(len(labeled), cold, client_cpu, summary.requests_issued, summary.abstain_defaulted, served)


def expected_labels(inputs: Inputs) -> dict[PairKey, tuple[int, Provenance]]:
    """The label and provenance the endpoint's script means each pair to end with."""
    index = record_index(read_records_jsonl(inputs.label_dir / "records.jsonl"))
    out = {}
    for k in read_pair_keys(inputs.label_dir / "pairs.jsonl"):
        plan = script(inputs.label_seed, build_pair_prompt(index[k.uri_1], index[k.uri_2]))
        out[k] = (plan.label, Provenance.LLM_ABSTAIN_DEFAULT if plan.abstains else Provenance.LLM)
    return out


# ---------------------------------------------------------------------------
# train-sweep: the train stage, held-out scoring, run_sweep in all three modes
# ---------------------------------------------------------------------------


SWEEP_MODES = ("balanced", "fixed_match", "fixed_nonmatch")


def sweep_configs(matches: int, nonmatches: int) -> dict[str, evaluate_mod.SweepConfig]:
    """Three-point grids sized to the train split's class counts, keyed by SWEEP_MODES."""
    quarter, half = max(1, matches // 4), max(2, matches // 2)
    counts = (float(quarter), float(half), float(matches))
    top_ratio = float(nonmatches // half)
    return {
        "balanced": evaluate_mod.SweepConfig(evaluate_mod.SweepMode.BALANCED_GROWTH, counts, hyper=TRAIN_HYPER),
        "fixed_match": evaluate_mod.SweepConfig(
            evaluate_mod.SweepMode.FIXED_MATCH_VARY_NONMATCH, (1.0, top_ratio / 4, top_ratio),
            hyper=TRAIN_HYPER, fixed_match=half),
        "fixed_nonmatch": evaluate_mod.SweepConfig(
            evaluate_mod.SweepMode.FIXED_NONMATCH_VARY_MATCH, counts,
            hyper=TRAIN_HYPER, fixed_nonmatch=nonmatches),
    }


@dataclass
class TrainResult:
    train_s: float  # reference-host seconds
    sweep_s: float
    test_macro_f1: float
    sweep_f1: list[float]
    sweep_configs: dict[str, evaluate_mod.SweepConfig] = field(repr=False)


def _split_ok(ops: Ops, labeled: list[LabeledPair], splits) -> None:
    keys = [p.key for part in splits for p in part]
    ops.check(len(keys) == len(set(keys)) and set(keys) == {p.key for p in labeled},
              f"split: {len(keys)} pairs over the splits, {len(set(keys))} distinct, pool of {len(labeled)}")
    for label in (0, 1):
        size = sum(p.label == label for p in labeled)
        for fraction, part in zip(SPLIT.fractions, splits):
            count = sum(p.label == label for p in part)
            ops.check(abs(count - fraction * size) <= 1,
                      f"split: class {label} has {count}, fraction {fraction} of {size}")


def train_pass(tr: Tracer, ops: Ops, inputs: Inputs, out: Path) -> TrainResult:
    out.mkdir(parents=True, exist_ok=True)
    with stopwatch() as train_watch, tr.span("stage.train"):
        index = record_index(_read_records(tr, inputs.train_dir / "records.jsonl"))
        labeled = _read_labeled(tr, inputs.train_dir / "labeled.jsonl")
        with tr.span("pairing.stratified_split", count=len(labeled)):
            splits = stratified_split(labeled, SPLIT)
        for name, part in zip(("split_train", "split_val", "split_test"), splits):
            _write_labeled(tr, part, out / f"{name}.jsonl")
        train, val, test = splits
        with tr.span("matcher.train_classifier", count=len(train) + len(val)):
            model = train_classifier(train, index, hyper=TRAIN_HYPER, val_pairs=val)
        (out / "model.json").write_text(json.dumps(model_to_json_dict(model), indent=2) + "\n", encoding="utf-8")
    _split_ok(ops, labeled, splits)

    with tr.span("stage.test_eval"):
        with tr.span("matcher.predict_pairs", count=len(test)):
            scored = predict_pairs(model, [p.key for p in test], index)
        predicted = [LabeledPair(k, label, Provenance.PREDICTED) for k, label, _ in scored]
        with tr.span("evaluate.evaluate_pairs", count=len(test)):
            test_f1 = evaluate_mod.evaluate_pairs(predicted, test).macro_f1

    configs = sweep_configs(sum(p.label for p in train), sum(1 - p.label for p in train))
    f1s, sweeps = [], []
    with stopwatch() as sweep_watch, tr.span("stage.sweep"):
        for name, cfg in configs.items():
            index = record_index(_read_records(tr, inputs.train_dir / "records.jsonl"))
            pool = _read_labeled(tr, out / "split_train.jsonl")
            truth = _read_labeled(tr, out / "split_test.jsonl")
            with tr.span(f"evaluate.run_sweep_{name}", count=len(pool) + len(truth)):
                rows = evaluate_mod.run_sweep(cfg, pool, truth, index)
            evaluate_mod.write_sweep_rows(rows, out / f"sweep_{name}.csv")
            sweeps.append((name, cfg, pool, rows))
    for name, cfg, pool, rows in sweeps:
        _sweep_ok(ops, name, cfg, pool, rows)
        f1s.extend(row.report.macro_f1 for row in rows)
    return TrainResult(train_watch.seconds, sweep_watch.seconds, test_f1, f1s, configs)


def _sweep_ok(ops: Ops, name: str, cfg: evaluate_mod.SweepConfig, pool: list[LabeledPair], rows) -> None:
    """Each grid point trains on the requested class counts, drawn from the pool; every F1 is in [0, 1].

    ``run_sweep`` copies the requested counts into its rows, so the check redraws
    the subsample it trained on (grid point i uses seed ``cfg.seed + i``) and counts that.
    """
    in_pool = {p.key for p in pool}
    for i, (row, grid_value) in enumerate(zip(rows, cfg.grid, strict=True)):
        m, nm = cfg.class_counts(grid_value)
        subset = subsample_sweep(pool, m, nm, seed=cfg.seed + i)
        keys = {p.key for p in subset}
        drawn = (sum(p.label == 1 for p in subset), sum(p.label == 0 for p in subset))
        ok = (drawn == (m, nm) == (row.match_count, row.nonmatch_count) and len(keys) == m + nm
              and keys <= in_pool
              and all(0.0 <= v <= 1.0 for v in (row.report.match_f1, row.report.nonmatch_f1, row.report.macro_f1)))
        ops.check(ok, f"sweep {name} at {grid_value}: asked {m}/{nm}, drew {drawn}, "
                      f"row {row.match_count}/{row.nonmatch_count}, macro F1 {row.report.macro_f1}")


# ---------------------------------------------------------------------------
# Probes: inner public functions on the same inputs, outside the timed window
# ---------------------------------------------------------------------------


def probe_link(tr: Tracer, out: Path, model_path: Path) -> None:
    """``predict_pairs`` = ``featurize_pairs`` + ``ClassifierModel.probabilities``."""
    index = record_index(read_records_jsonl(out / "records.jsonl"))
    keys = read_pair_keys(out / "pairs.jsonl")
    model = load_model(model_path)
    with tr.span("matcher.featurize_pairs", count=len(keys)):
        features = featurize_pairs(keys, index, model.feature_spec)
    with tr.span("matcher.probabilities", count=len(keys)):
        model.probabilities(features)


def probe_label(tr: Tracer, inputs: Inputs, out: Path) -> None:
    """``label_dataset`` minus HTTP: prompt building, hashing, cache load."""
    index = record_index(read_records_jsonl(inputs.label_dir / "records.jsonl"))
    keys = read_pair_keys(inputs.label_dir / "pairs.jsonl")
    with tr.span("serialize.build_pair_prompt", count=len(keys)):
        prompts = [build_pair_prompt(index[k.uri_1], index[k.uri_2]) for k in keys]
    with tr.span("llm_labeler.prompt_hash", count=len(prompts)):
        for p in prompts:
            prompt_hash(LABEL_MODEL, 0.0, p)
    with tr.span("llm_labeler.cache_load"):
        LabelCache(out / "llm_cache.jsonl")


def probe_sweep(tr: Tracer, inputs: Inputs, out: Path, configs: dict[str, evaluate_mod.SweepConfig]) -> None:
    """Per mode, what ``run_sweep`` does apart from its inline confusion loop."""
    index = record_index(read_records_jsonl(inputs.train_dir / "records.jsonl"))
    pool = read_labeled_pairs(out / "split_train.jsonl")
    truth = read_labeled_pairs(out / "split_test.jsonl")
    row_of = {p.key: i for i, p in enumerate(pool)}
    for name, cfg in configs.items():
        with tr.span(f"probe.sweep_featurize_{name}", count=len(pool) + len(truth)):
            pool_features = featurize_pairs([p.key for p in pool], index)
            featurize_pairs([t.key for t in truth], index)
        for i, g in enumerate(cfg.grid):
            m, nm = cfg.class_counts(g)
            with tr.span("pairing.subsample_sweep", count=m + nm):
                subset = subsample_sweep(pool, m, nm, seed=cfg.seed + i)
            rows = [row_of[p.key] for p in subset]
            with tr.span(f"probe.sweep_fit_{name}", count=len(rows) * cfg.hyper.epochs):
                fit_on_matrix(pool_features[rows], np.array([p.label for p in subset], dtype=float), cfg.hyper)
