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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

try:
    import fcntl
except ImportError:  # Windows
    fcntl = None
    import msvcrt

from . import cluster as cluster_mod
from . import evaluate as evaluate_mod
from . import runtime_model as runtime_mod
from .config import decode, encode
from .errors import ConfigError, MinerlinkError
from .llm_labeler import ENV_BASE_URL, LabelerConfig, label_dataset
from .matcher import (
    FeatureSpec,
    RuleConfig,
    TrainConfig,
    check_decision_threshold,
    load_model,
    near_pairs,
    predict_pairs,
    rule_match_pairs,
    save_model,
    train_classifier,
)
from .pairing import (
    LabeledPair,
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
# the input artifacts a stage may declare, by flag, with their default file in the output directory
ARTIFACTS = {
    "records": "records.jsonl",
    "pairs": "pairs.jsonl",
    "labeled": "labeled.jsonl",
    "predictions": "predictions.jsonl",
    "model": "model.json",
}


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

    def __post_init__(self):
        check_decision_threshold(self.decision_threshold)


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


def _output_path(args, config: PipelineConfig) -> Path:
    candidate = args.output_dir or config.output_dir
    if candidate is None:
        raise ConfigError("no output directory: pass --output-dir or set output_dir in the config")
    return Path(candidate)


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


class _OutputLock:
    """One subcommand at a time per output directory: the operating system's
    advisory lock on ``<out>/.minerlink.lock``, released when its holder
    exits, however it exits. The holder writes its pid there for a second
    run's message and empties the file on release, but never deletes it:
    a run that had just opened it would then lock a file no later run sees."""

    def __init__(self, out: Path):
        self.path = out / LOCK_FILE

    def __enter__(self):
        self.fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            try:
                if fcntl is None:
                    msvcrt.locking(self.fd, msvcrt.LK_NBLCK, 1)  # the first byte
                else:
                    fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except PermissionError if fcntl is None else BlockingIOError:  # another run holds it
                pid = os.read(self.fd, 32) if fcntl else b""  # Windows cannot read the holder's locked byte
                holder = pid.decode() if pid.isdigit() else "unknown"  # empty while a new holder rewrites it
                raise ConfigError(f"output directory is locked by another run (pid {holder}, {self.path})") from None
            os.ftruncate(self.fd, 0)  # a previous holder's pid
            os.write(self.fd, str(os.getpid()).encode())
        except OSError as exc:  # flock's own errors name no file
            os.close(self.fd)
            raise OSError(exc.errno, exc.strerror, str(self.path)) from exc
        except BaseException:
            os.close(self.fd)
            raise
        return self

    def __exit__(self, *exc_info):
        try:
            os.ftruncate(self.fd, 0)
        finally:
            os.close(self.fd)


@contextmanager
def _stage(args, config: PipelineConfig):
    """The frame of a stage's work: makes the output directory, holds its
    lock, and yields it with the path of each input artifact the stage
    declares (its flag's value, else the default file in the directory)."""
    out = _output_path(args, config)
    out.mkdir(parents=True, exist_ok=True)
    with _OutputLock(out):
        yield out, {name: Path(getattr(args, name) or out / ARTIFACTS[name]) for name in args.inputs}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, config: PipelineConfig) -> None:
    if not config.datasets:
        raise ConfigError("config has no datasets to ingest")
    with _stage(args, config) as (out, _):
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
        path = out / ARTIFACTS["records"]
        write_records_jsonl(all_records, path)
        print(f"ingest: {len(all_records)} records [{', '.join(summaries)}] -> {path}")


def cmd_pairs(args, config: PipelineConfig) -> None:
    # a radius that is not positive exits 2 before any input is read
    near = None if args.max_distance_km is None else RuleConfig(max_distance_km=args.max_distance_km)
    with _stage(args, config) as (out, inputs):
        records = read_records_jsonl(inputs["records"])
        keys = enumerate_pairs(records)
        if near is not None:
            keys = near_pairs(keys, records, near)
        path = out / ARTIFACTS["pairs"]
        write_pair_keys(keys, path)
        print(f"pairs: {len(keys)} candidate pairs over {len(records)} records -> {path}")


def cmd_label(args, config: PipelineConfig) -> None:
    cfg = _labeler_config(config, _output_path(args, config))  # a config error makes no output directory
    with _stage(args, config) as (out, inputs):
        records = read_records_jsonl(inputs["records"])
        keys = read_pair_keys(inputs["pairs"])
        labeled, summary = label_dataset(keys, records, cfg)
        path = out / ARTIFACTS["labeled"]
        write_labeled_pairs(labeled, path)
        print(
            f"label: {summary.total} pairs ({summary.matches} match / {summary.nonmatches} non-match, "
            f"{summary.abstain_defaulted} abstain-defaulted, {summary.requests_issued} requests) -> {path}"
        )


def cmd_train(args, config: PipelineConfig) -> None:
    with _stage(args, config) as (out, inputs):
        records = read_records_jsonl(inputs["records"])
        labeled = read_labeled_pairs(inputs["labeled"])
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
        path = out / ARTIFACTS["model"]
        save_model(model, path)
        print(
            f"train: fitted on {len(train)} pairs (val {len(val)}, test {len(test)} held out) -> {path}"
        )


def cmd_predict(args, config: PipelineConfig) -> None:
    with _stage(args, config) as (out, inputs):
        records = read_records_jsonl(inputs["records"])
        keys = read_pair_keys(inputs["pairs"])
        index = record_index(records)
        if args.rule:
            labels = rule_match_pairs(keys, index, config.matcher.rule, config.matcher.feature_spec)
            decider = "curated rule"
        else:
            model = load_model(inputs["model"])
            labels = [label for _, label, _ in predict_pairs(model, keys, index)]
            decider = "classifier"
        predicted = [
            LabeledPair(key=key, label=label, provenance=Provenance.PREDICTED)
            for key, label in zip(keys, labels)
        ]
        path = out / ARTIFACTS["predictions"]
        write_labeled_pairs(predicted, path)
        matches = sum(p.label == 1 for p in predicted)
        print(f"predict: {len(predicted)} pairs, {matches} predicted matches ({decider}) -> {path}")


def cmd_evaluate(args, config: PipelineConfig) -> None:
    with _stage(args, config) as (out, inputs):
        predictions = read_labeled_pairs(inputs["predictions"])
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
    cfg = evaluate_mod.SweepConfig(
        mode=_SWEEP_MODES[args.mode],
        grid=args.grid,
        seed=args.seed,
        hyper=config.matcher.hyper,
        fixed_match=args.fixed_match,
        fixed_nonmatch=args.fixed_nonmatch,
    )
    with _stage(args, config) as (out, inputs):
        records = read_records_jsonl(inputs["records"])
        pool = read_labeled_pairs(inputs["labeled"])
        truth = read_labeled_pairs(args.truth)
        path = out / "sweep_results.csv"
        rows = evaluate_mod.run_sweep(
            cfg, pool, truth, record_index(records), feature_spec=config.matcher.feature_spec
        )
        evaluate_mod.write_sweep_rows(rows, path)
        print(f"sweep: {args.mode} over {len(rows)} grid points -> {path}")


def cmd_cluster(args, config: PipelineConfig) -> None:
    with _stage(args, config) as (out, inputs):
        records = read_records_jsonl(inputs["records"])
        predictions = read_labeled_pairs(inputs["predictions"])
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
        with _stage(args, config) as (out, inputs):
            records = read_records_jsonl(inputs["records"])
            model = load_model(inputs["model"])
            index = record_index(records)
            measured = runtime_mod.benchmark(lambda keys: predict_pairs(model, keys, index), args.sizes, records)
            path = out / "measurements.csv"
            runtime_mod.write_measurements(measured, path)
            print(f"runtime: benchmarked sizes {list(args.sizes)} -> {path}")
    else:
        measured = runtime_mod.read_measurements(args.measurements)

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


def _comma_list(kind, flag: str):
    """argparse ``type=`` for a comma-separated list, parsed into a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError as exc:  # a ConfigError passes argparse's handlers unchanged
            raise ConfigError(f"bad {flag} value: {exc}") from exc

    return parse


def _at_least(least: int, what: str):
    """argparse ``type=`` for an int of at least ``least``; a smaller one is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} must be >= {least}: {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when a value is no number: "invalid int value"
    return parse


# ``random.Random(-s)`` draws what ``Random(s)`` draws, so a negative seed is a usage error
_seed = _at_least(0, "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minerlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, run, help: str, inputs: tuple[str, ...] = ()):
        """One subcommand: its function, and the input artifacts it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, inputs=inputs)
        p.add_argument("--config", help="pipeline configuration JSON")
        p.add_argument("--output-dir", help="artifact directory (overrides config)")
        for artifact in inputs:
            p.add_argument(f"--{artifact}", help=f"{artifact} artifact (default <out>/{ARTIFACTS[artifact]})")
        return p

    stage("ingest", cmd_ingest, "read configured CSVs into records.jsonl")

    p = stage("pairs", cmd_pairs, "enumerate all candidate pairs", ("records",))
    p.add_argument("--max-distance-km", type=float, default=None,
                   help="optional spatial prefilter, the curated rule's distance clause; "
                        "off by default because matches can be tens of km apart")

    stage("label", cmd_label, "label pairs via the chat-completion endpoint", ("records", "pairs"))

    p = stage("train", cmd_train, "split labeled pairs and fit the classifier", ("records", "labeled"))
    p.add_argument("--seed", type=_seed, default=None, help="split seed (overrides the config's split.seed)")

    p = stage("predict", cmd_predict, "score pairs with a trained model", ("records", "pairs", "model"))
    p.add_argument("--rule", action="store_true",
                   help="use the curated distance+similarity rule instead of the model")

    p = stage("evaluate", cmd_evaluate, "score predictions against ground truth", ("predictions",))
    p.add_argument("--truth", required=True, help="ground-truth labeled pairs")

    p = stage("sweep", cmd_sweep, "data-size / imbalance sweep experiments", ("records", "labeled"))
    p.add_argument("--truth", required=True, help="ground-truth labeled pairs")
    p.add_argument("--mode", choices=sorted(_SWEEP_MODES), required=True)
    p.add_argument("--grid", type=_comma_list(float, "--grid"), required=True, help="comma-separated grid values")
    p.add_argument("--fixed-match", type=int, default=evaluate_mod.SweepConfig.fixed_match)
    p.add_argument("--fixed-nonmatch", type=int, default=evaluate_mod.SweepConfig.fixed_nonmatch)
    p.add_argument("--seed", type=_seed, default=evaluate_mod.SweepConfig.seed,
                   help="subsample seed of the first grid point")

    p = stage("cluster", cmd_cluster, "transitive closure of predicted matches", ("records", "predictions"))
    p.add_argument("--max-cluster-size", type=_at_least(1, "max cluster size"), default=10,
                   help="report clusters larger than this")

    p = stage("runtime", cmd_runtime, "fit and extrapolate the quadratic time law", ("records", "model"))
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--measurements", help="measurements CSV to fit")
    mode.add_argument("--benchmark", action="store_true", help="measure the trained model instead")
    p.add_argument("--sizes", type=_comma_list(_at_least(2, "a size"), "--sizes"), default=(10, 20, 40),
                   help="comma-separated record counts, each 2 or more (benchmark mode)")
    p.add_argument("--extrapolate", type=_at_least(0, "a record count"), action="append",
                   help="record count to extrapolate to, 0 or more (repeatable)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args, load_config(args.config))
        return 0
    except MinerlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an input artifact or CSV that is missing or unreadable
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
