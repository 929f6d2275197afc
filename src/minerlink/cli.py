"""Command-line pipeline: ingest -> pairs -> label -> train -> predict ->
evaluate -> sweep -> cluster -> runtime.

Stages hand off through files in the output directory, so every step is
re-runnable and auditable. Writes are atomic (temp file + rename): a failed
run never leaves a truncated artifact. Exit codes: 0 success, 1 usage or
configuration error, 2 data or validation error (a missing or unreadable
input file included), 3 LLM transport failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import cluster as cluster_mod
from . import evaluate as evaluate_mod
from . import runtime_model as runtime_mod
from .config import decode, encode
from .errors import ConfigError, LLMTransportError, MinerlinkError
from .llm_labeler import ENV_BASE_URL, LabelerConfig, label_dataset
from .matcher import (
    FeatureSpec,
    RuleConfig,
    TrainConfig,
    load_model,
    predict_pairs,
    rule_match_pairs,
    save_model,
    train_classifier,
)
from .pairing import (
    LabeledPair,
    PairKey,
    Provenance,
    SplitSpec,
    enumerate_pairs,
    read_labeled_pairs,
    read_pair_keys,
    stratified_split,
    write_labeled_pairs,
    write_pair_keys,
)
from .records import (
    SchemaConfig,
    ingest_csv,
    read_records_jsonl,
    record_index,
    validate_dataset,
    write_json,
    write_records_jsonl,
)

LOCK_FILE = ".minerlink.lock"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetEntry:
    path: str
    source_id: str
    schema: SchemaConfig = SchemaConfig()


@dataclass(frozen=True)
class MatcherConfig:
    rule: RuleConfig = RuleConfig()
    hyper: TrainConfig = TrainConfig()
    feature_spec: FeatureSpec = field(default_factory=FeatureSpec)
    decision_threshold: float = 0.5


@dataclass(frozen=True)
class PipelineConfig:
    """The config file; the README's "Configuration" section documents it."""

    datasets: tuple[DatasetEntry, ...] = ()
    labeler: LabelerConfig | None = None
    matcher: MatcherConfig = MatcherConfig()
    split: SplitSpec = SplitSpec()
    output_dir: str | None = None


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON value")


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"), parse_constant=_not_json)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{p}: cannot read config file: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ConfigError(f"{p}: config file is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and isinstance(doc.get("labeler"), dict):
        # base_url may come from MINERLINK_LLM_BASE_URL instead (see _labeler_config)
        doc["labeler"] = {"base_url": "", **doc["labeler"]}
    try:
        return decode(PipelineConfig, doc)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from exc


def _output_dir(args, config: PipelineConfig) -> Path:
    candidate = args.output_dir or config.output_dir
    if candidate is None:
        raise ConfigError("no output directory: pass --output-dir or set output_dir in the config")
    out = Path(candidate)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _artifact(args_value, out: Path, default_name: str) -> Path:
    return Path(args_value) if args_value else out / default_name


def _labeler_config(config: PipelineConfig, out: Path) -> LabelerConfig:
    cfg = config.labeler
    if cfg is None:
        raise ConfigError("config has no labeler section")
    if not cfg.base_url and not os.environ.get(ENV_BASE_URL):
        raise ConfigError("labeler.base_url missing (or set MINERLINK_LLM_BASE_URL)")
    return cfg if cfg.cache_path is not None else replace(cfg, cache_path=str(out / "llm_cache.jsonl"))


# ---------------------------------------------------------------------------
# The output-dir lock
# ---------------------------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    if os.name == "nt":  # os.kill there terminates the process instead of probing it
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # it exists, under another user
        pass
    return True


class _OutputLock:
    """Advisory lock: one subcommand at a time per output directory.

    The lock file holds the owner's pid. A lock whose pid is no longer a
    running process was left by a killed run and is taken over.
    """

    def __init__(self, out: Path):
        self.path = out / LOCK_FILE

    def _create(self) -> bool:
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return True

    def _holder(self) -> int | None:
        try:
            return int(self.path.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):
            return None

    def __enter__(self):
        if self._create():
            return self
        pid = self._holder()
        if pid is not None and not _pid_alive(pid):
            self.path.unlink(missing_ok=True)
            if self._create():  # O_EXCL again: of two runs taking over, one wins
                return self
            pid = self._holder()
        holder = f"pid {pid}" if pid is not None else "pid unknown"
        raise ConfigError(
            f"output directory is locked by another run ({holder}, {self.path}); "
            "remove the lock file if that run is dead"
        )

    def __exit__(self, *exc_info):
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, config: PipelineConfig) -> None:
    if not config.datasets:
        raise ConfigError("config has no datasets to ingest")
    out = _output_dir(args, config)
    with _OutputLock(out):
        all_records = []
        summaries = []
        for entry in config.datasets:
            dataset = ingest_csv(entry.path, entry.source_id, entry.schema)
            report = validate_dataset(dataset)
            all_records.extend(dataset.records)
            summaries.append(
                f"{dataset.source_id}={report.record_count}r/"
                f"{report.missing_location_count}noloc/{dataset.coordinate_warnings}warn"
            )
        record_index(all_records)  # raises on duplicate uris, within one source or across sources
        path = out / "records.jsonl"
        write_records_jsonl(all_records, path)
        print(f"ingest: {len(all_records)} records [{', '.join(summaries)}] -> {path}")


def cmd_pairs(args, config: PipelineConfig) -> None:
    out = _output_dir(args, config)
    with _OutputLock(out):
        records = read_records_jsonl(_artifact(args.records, out, "records.jsonl"))
        keys = enumerate_pairs(records, max_distance_km=args.max_distance_km)
        path = out / "pairs.jsonl"
        write_pair_keys(keys, path)
        print(f"pairs: {len(keys)} candidate pairs over {len(records)} records -> {path}")


def cmd_label(args, config: PipelineConfig) -> None:
    out = _output_dir(args, config)
    with _OutputLock(out):
        records = read_records_jsonl(_artifact(args.records, out, "records.jsonl"))
        keys = read_pair_keys(_artifact(args.pairs, out, "pairs.jsonl"))
        cfg = _labeler_config(config, out)
        labeled, summary = label_dataset(keys, records, cfg)
        path = out / "labeled.jsonl"
        write_labeled_pairs(labeled, path)
        print(
            f"label: {summary.total} pairs ({summary.matches} match / {summary.nonmatches} non-match, "
            f"{summary.abstain_defaulted} abstain-defaulted, {summary.requests_issued} requests) -> {path}"
        )


def cmd_train(args, config: PipelineConfig) -> None:
    out = _output_dir(args, config)
    with _OutputLock(out):
        records = read_records_jsonl(_artifact(args.records, out, "records.jsonl"))
        labeled = read_labeled_pairs(_artifact(args.labeled, out, "labeled.jsonl"))
        spec = config.split if args.seed is None else replace(config.split, seed=args.seed)
        train, val, test = stratified_split(labeled, spec)
        for name, part in (("split_train", train), ("split_val", val), ("split_test", test)):
            write_labeled_pairs(part, out / f"{name}.jsonl")
        model = train_classifier(
            train,
            record_index(records),
            hyper=config.matcher.hyper,
            val_pairs=val,
            feature_spec=config.matcher.feature_spec,
            decision_threshold=config.matcher.decision_threshold,
        )
        path = out / "model.json"
        save_model(model, path)
        print(
            f"train: fitted on {len(train)} pairs (val {len(val)}, test {len(test)} held out) -> {path}"
        )


def cmd_predict(args, config: PipelineConfig) -> None:
    out = _output_dir(args, config)
    with _OutputLock(out):
        records = read_records_jsonl(_artifact(args.records, out, "records.jsonl"))
        keys = read_pair_keys(_artifact(args.pairs, out, "pairs.jsonl"))
        index = record_index(records)
        if args.rule:
            labels = rule_match_pairs(keys, index, config.matcher.rule, config.matcher.feature_spec)
            decider = "curated rule"
        else:
            model = load_model(_artifact(args.model, out, "model.json"))
            labels = [label for _, label, _ in predict_pairs(model, keys, index)]
            decider = "classifier"
        predicted = [
            LabeledPair(key=key, label=label, provenance=Provenance.PREDICTED)
            for key, label in zip(keys, labels)
        ]
        path = out / "predictions.jsonl"
        write_labeled_pairs(predicted, path)
        matches = sum(p.label == 1 for p in predicted)
        print(f"predict: {len(predicted)} pairs, {matches} predicted matches ({decider}) -> {path}")


def cmd_evaluate(args, config: PipelineConfig) -> None:
    out = _output_dir(args, config)
    with _OutputLock(out):
        predictions = read_labeled_pairs(_artifact(args.predictions, out, "predictions.jsonl"))
        if args.truth is None:
            raise ConfigError("evaluate needs --truth <labeled pairs file>")
        truth = read_labeled_pairs(args.truth)
        report = evaluate_mod.evaluate_pairs(predictions, truth)
        doc = encode(report)
        doc = {**doc.pop("counts"), **doc}  # tp, fp, tn, fn, then the three F1 scores
        path = out / "evaluation.json"
        write_json(doc, path)
        print(
            f"evaluate: match/non-match/macro F1 = {report.percent_row()} "
            f"(pairs={report.counts.total}) -> {path}"
        )


_SWEEP_MODES = {
    "balanced": evaluate_mod.SweepMode.BALANCED_GROWTH,
    "fixed-match": evaluate_mod.SweepMode.FIXED_MATCH_VARY_NONMATCH,
    "fixed-nonmatch": evaluate_mod.SweepMode.FIXED_NONMATCH_VARY_MATCH,
}


def cmd_sweep(args, config: PipelineConfig) -> None:
    out = _output_dir(args, config)
    with _OutputLock(out):
        records = read_records_jsonl(_artifact(args.records, out, "records.jsonl"))
        pool = read_labeled_pairs(_artifact(args.labeled, out, "labeled.jsonl"))
        if args.truth is None:
            raise ConfigError("sweep needs --truth <labeled pairs file>")
        truth = read_labeled_pairs(args.truth)
        try:
            grid = tuple(float(g) for g in args.grid.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --grid value: {exc}") from exc
        cfg = evaluate_mod.SweepConfig(
            mode=_SWEEP_MODES[args.mode],
            grid=grid,
            seed=args.seed if args.seed is not None else 0,
            hyper=config.matcher.hyper,
            fixed_match=args.fixed_match,
            fixed_nonmatch=args.fixed_nonmatch,
        )
        path = out / "sweep_results.csv"
        rows = evaluate_mod.run_sweep(
            cfg, pool, truth, record_index(records), feature_spec=config.matcher.feature_spec
        )
        evaluate_mod.write_sweep_rows(rows, path)
        print(f"sweep: {args.mode} over {len(rows)} grid points -> {path}")


def cmd_cluster(args, config: PipelineConfig) -> None:
    out = _output_dir(args, config)
    with _OutputLock(out):
        records = read_records_jsonl(_artifact(args.records, out, "records.jsonl"))
        predictions = read_labeled_pairs(_artifact(args.predictions, out, "predictions.jsonl"))
        clusters = cluster_mod.cluster_matches([r.uri for r in records], predictions)
        report = cluster_mod.cluster_report(
            clusters, size_threshold=args.max_cluster_size, nonmatches=predictions
        )
        path = out / "clusters.jsonl"
        cluster_mod.write_clusters(clusters, path)
        flagged = f", {len(report.oversized)} oversized" if report.oversized else ""
        conflicts = f", {len(report.contradictions)} transitivity conflicts" if report.contradictions else ""
        print(
            f"cluster: {report.cluster_count} clusters ({report.singleton_count} singletons, "
            f"max size {report.max_cluster_size}{flagged}{conflicts}) -> {path}"
        )


def cmd_runtime(args, config: PipelineConfig) -> None:
    if args.benchmark:
        try:
            sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else [10, 20, 40]
        except ValueError as exc:
            raise ConfigError(f"bad --sizes value: {exc}") from exc
        out = _output_dir(args, config)
        with _OutputLock(out):
            records = read_records_jsonl(_artifact(args.records, out, "records.jsonl"))
            model = load_model(_artifact(args.model, out, "model.json"))
            index = record_index(records)
            measurements = runtime_mod.benchmark(
                lambda pairs: predict_pairs(model, [PairKey.of(a.uri, b.uri) for a, b in pairs], index),
                sizes,
                records,
            )
            path = out / "measurements.csv"
            runtime_mod.write_measurements(measurements, path)
            print(f"runtime: benchmarked sizes {sizes} -> {path}")
            measured = measurements
    elif args.measurements:
        measured = runtime_mod.read_measurements(args.measurements)
    else:
        raise ConfigError("runtime needs --measurements <csv> or --benchmark")

    model = runtime_mod.fit(measured)
    parts = [f"k={model.k:.6g} s/(n^2-n)", f"rms residual={model.fit_residual:.3g} s", f"points={model.n_points}"]
    if args.benchmark:
        spreads = ", ".join(f"n={m.record_count} {m.spread:.3g}" for m in measured)
        parts.insert(1, f"slowest/fastest of {runtime_mod.BENCHMARK_REPEATS} passes: {spreads}")
    for n in args.extrapolate or []:
        days = runtime_mod.predict_days(model, n)
        parts.append(f"n={n}: {runtime_mod.predict_seconds(model, n):.4g} s ({days:,.1f} days)")
    print("runtime: " + "; ".join(parts))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minerlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline configuration JSON")
        p.add_argument("--output-dir", help="artifact directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override for splits and sweeps")
        return p

    common(sub.add_parser("ingest", help="read configured CSVs into records.jsonl"))

    p = common(sub.add_parser("pairs", help="enumerate all candidate pairs"))
    p.add_argument("--records", help="records artifact (default <out>/records.jsonl)")
    p.add_argument("--max-distance-km", type=float, default=None,
                   help="optional spatial prefilter; off by default because matches can be tens of km apart")

    p = common(sub.add_parser("label", help="label pairs via the chat-completion endpoint"))
    p.add_argument("--records", help="records artifact")
    p.add_argument("--pairs", help="pair-key artifact")

    p = common(sub.add_parser("train", help="split labeled pairs and fit the classifier"))
    p.add_argument("--records", help="records artifact")
    p.add_argument("--labeled", help="labeled-pair artifact")

    p = common(sub.add_parser("predict", help="score pairs with a trained model"))
    p.add_argument("--records", help="records artifact")
    p.add_argument("--pairs", help="pair-key artifact")
    p.add_argument("--model", help="model artifact")
    p.add_argument("--rule", action="store_true",
                   help="use the curated distance+similarity rule instead of the model")

    p = common(sub.add_parser("evaluate", help="score predictions against ground truth"))
    p.add_argument("--predictions", help="predictions artifact")
    p.add_argument("--truth", help="ground-truth labeled pairs (required)")

    p = common(sub.add_parser("sweep", help="data-size / imbalance sweep experiments"))
    p.add_argument("--records", help="records artifact")
    p.add_argument("--labeled", help="labeled pool artifact")
    p.add_argument("--truth", help="ground-truth labeled pairs (required)")
    p.add_argument("--mode", choices=sorted(_SWEEP_MODES), required=True)
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--fixed-match", type=int, default=349)
    p.add_argument("--fixed-nonmatch", type=int, default=59403)

    p = common(sub.add_parser("cluster", help="transitive closure of predicted matches"))
    p.add_argument("--records", help="records artifact")
    p.add_argument("--predictions", help="predictions artifact")
    p.add_argument("--max-cluster-size", type=int, default=10,
                   help="report clusters larger than this")

    p = common(sub.add_parser("runtime", help="fit and extrapolate the quadratic time law"))
    p.add_argument("--measurements", help="measurements CSV to fit")
    p.add_argument("--benchmark", action="store_true", help="measure the trained model instead")
    p.add_argument("--records", help="records artifact (benchmark mode)")
    p.add_argument("--model", help="model artifact (benchmark mode)")
    p.add_argument("--sizes", help="comma-separated record counts (benchmark mode)")
    p.add_argument("--extrapolate", type=int, action="append",
                   help="record count to extrapolate to (repeatable)")

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "pairs": cmd_pairs,
    "label": cmd_label,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "cluster": cmd_cluster,
    "runtime": cmd_runtime,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        _COMMANDS[args.command](args, config)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LLMTransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MinerlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input artifact or CSV that is missing or unreadable
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
