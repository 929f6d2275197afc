"""Workload sizing, the measured loop, output checks and metric derivation."""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from clock import stopwatch
from endpoint import EndpointProcess
from minerlink import cli, runtime_model
from minerlink import evaluate as evaluate_mod
from pipeline import (
    DAYS_AT,
    Inputs,
    LabelResult,
    LinkResult,
    Ops,
    SWEEP_MODES,
    WARM_RERUNS,
    Sizes,
    TrainResult,
    expected_labels,
    label_pass,
    link_chain,
    prepare,
    probe_label,
    probe_link,
    probe_sweep,
    runtime_fit,
    train_pass,
)
from spans import Tracer, self_times, totals

# Each workload runs every stage; the one it is named for gets the large input.
# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
# Class sizes are not multiples of 5, so the 0.6 / 0.2 / 0.2 split has to round.
WORKLOADS = {
    "link": Sizes(link=(40, 70), label_pairs=100, label_runs=1, train_matches=41, train_nonmatches=401),
    "label": Sizes(link=(20, 34), label_pairs=150, label_runs=4, train_matches=41, train_nonmatches=401),
    # Milder than the paper's 1:170 (349:59,403), so that the test split holds enough matches for a steady F1.
    "train-sweep": Sizes(link=(20, 34), label_pairs=100, label_runs=1, train_matches=61, train_nonmatches=1801),
}
SETUP_REPEATS = 7
MAX_IN_FLIGHT = min(2, os.cpu_count() or 1)


@dataclass
class Iteration:
    run: str
    traced: bool
    wall_s: float  # reference-host seconds
    links: list[LinkResult]
    labels: list[LabelResult]  # one per cold labeling run
    train: TrainResult


def _iterate(tr: Tracer, ops: Ops, sizes: Sizes, inputs: Inputs, out: Path, endpoint: EndpointProcess,
             expected) -> Iteration:
    with stopwatch() as watch, tr.span("iteration"):
        links = [link_chain(tr, ops, n, corpus, truth, inputs.model_path, out / f"link-{n}")
                 for n, corpus, truth in inputs.link]
        labels = [label_pass(tr, ops, inputs, out / "label", endpoint, MAX_IN_FLIGHT, expected)
                  for _ in range(sizes.label_runs)]
        train = train_pass(tr, ops, inputs, out / "train")
    return Iteration(tr.run, tr.enabled, watch.seconds, links, labels, train)


def _probe(tr: Tracer, inputs: Inputs, out: Path, it: Iteration) -> None:
    with tr.span("probes"):
        probe_link(tr, out / f"link-{it.links[-1].n}", inputs.model_path)
        probe_label(tr, inputs, out / "label")
        probe_sweep(tr, inputs, out / "train", it.train.sweep_configs)


def cli_check(ops: Ops, inputs: Inputs, out: Path, work: Path) -> None:
    """The library path's artifacts must equal ``minerlink.cli.main``'s, byte for byte."""
    n, corpus, _ = inputs.link[0]
    lib = out / f"link-{n}"
    cli_out, rule_out = work / "cli", work / "cli-rule"
    config = work / "cli-config.json"
    config.write_text(json.dumps({"datasets": corpus.datasets_config()}), encoding="utf-8")
    common = ["--config", str(config), "--output-dir", str(cli_out)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            cli.main(["ingest", *common]),
            cli.main(["pairs", *common]),
            cli.main(["predict", *common, "--model", str(inputs.model_path)]),
            cli.main(["cluster", *common]),
            cli.main(["predict", "--rule", "--config", str(config), "--output-dir", str(rule_out),
                      "--records", str(cli_out / "records.jsonl"), "--pairs", str(cli_out / "pairs.jsonl")]),
        ]
    ops.check(codes == [0] * len(codes), f"cli: exit codes {codes}")
    for mine, theirs in ((lib / "predictions.jsonl", cli_out / "predictions.jsonl"),
                         (lib / "clusters.jsonl", cli_out / "clusters.jsonl"),
                         (lib / "predictions_rule.jsonl", rule_out / "predictions.jsonl")):
        ops.check(theirs.is_file() and mine.read_bytes() == theirs.read_bytes(),
                  f"cli: {mine.name} differs from {theirs}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path, trace_dir: Path):
    """(metrics, ops) for one run, or None when no iteration completed."""
    sizes = WORKLOADS[name]
    ops = Ops()
    endpoint = None
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            if endpoint is not None:
                endpoint.close()
            with stopwatch() as watch:
                inputs = prepare(work / f"setup-{i}", seed, sizes)
                endpoint = EndpointProcess(inputs.label_seed)
            setup_s.append(watch.seconds)
        expected = expected_labels(inputs)

        tr = Tracer(name, enabled=False)
        out = work / "iter"
        done: list[Iteration] = []
        start = time.perf_counter()
        k = 0
        # Keep going past --seconds until there is a round of each kind, but not for
        # more than a minute: rounds that keep raising must not hold the run open.
        while time.perf_counter() - start < seconds + 60 and (
                time.perf_counter() - start < seconds or not done
                or (traced and len({it.traced for it in done}) < 2)):
            tr.enabled = traced and k % 2 == 1
            tr.run = f"{seed}.{k}"
            k += 1
            try:
                it = _iterate(tr, ops, sizes, inputs, out, endpoint, expected)
                if tr.enabled:
                    _probe(tr, inputs, out, it)
            except Exception:
                traceback.print_exc()
                ops.check(False, f"iteration {tr.run} raised")
                continue
            done.append(it)
        if not done or (traced and len({it.traced for it in done}) < 2):
            return None
        cli_check(ops, inputs, out, work)
    finally:
        if endpoint is not None:
            endpoint.close()

    if not traced:
        return end_to_end(done, setup_s, ops), ops
    tr.write(trace_dir / f"{name}-seed{seed}.jsonl")
    return per_layer(tr, done), ops


def _median(values) -> float:
    return statistics.median(list(values))


def _pooled_f1(links: list[LinkResult], field: str) -> float:
    """Macro F1 over the confusion counts of both link sizes, for more planted matches."""
    counts = [getattr(r, field) for r in links]
    return evaluate_mod.macro_f1(evaluate_mod.ConfusionCounts(
        *(sum(getattr(c, k) for c in counts) for k in ("tp", "fp", "tn", "fn"))))


def end_to_end(done: list[Iteration], setup_s: list[float], ops: Ops) -> dict[str, float]:
    """Medians over the run's rounds; CPU-bound timings in reference-host seconds (see clock.py)."""
    large = [it.links[-1] for it in done]
    fit = runtime_fit((r.n, _median(it.links[i].predict_pairs_s * it.links[i].factor for it in done))
                      for i, r in enumerate(done[0].links))
    return {
        "setup_s": _median(setup_s),
        "link_pairs_per_s": _median(r.pairs / (r.wall_s * r.factor) for r in large),
        "link_days_300k": runtime_model.predict_days(fit, DAYS_AT),
        "link_macro_f1": _median(_pooled_f1(it.links, "counts") for it in done),
        "link_rule_macro_f1": _median(_pooled_f1(it.links, "rule_counts") for it in done),
        "link_pair_completeness": _median(r.pair_completeness for r in large),
        "label_cold_pairs_per_s": _median(r.pairs / r.cold_s for it in done for r in it.labels),
        "label_cold_client_cpu_ms_per_pair": _median(r.client_cpu_s / r.pairs * 1000.0
                                                     for it in done for r in it.labels),
        "label_correct_share": 1.0 - ops.label_failed / ops.label_attempted,
        "train_s": _median(it.train.train_s for it in done),
        "sweep_s": _median(it.train.sweep_s for it in done),
        "train_test_macro_f1": _median(it.train.test_macro_f1 for it in done),
        "sweep_mean_macro_f1": _median(statistics.fmean(it.train.sweep_f1) for it in done),
    }


def _layers(spans, it: Iteration) -> dict[str, float]:
    t = totals(spans)

    def seconds(*names: str) -> float:
        return sum(t.get(n, (0.0, 0))[0] for n in names)

    def us_per(*names: str) -> float:
        count = sum(t.get(n, (0.0, 0))[1] for n in names)
        return seconds(*names) / count * 1e6 if count else 0.0

    large, labels = it.links[-1], it.labels
    served = [r.endpoint for r in labels]
    pairs, requests = sum(r.pairs for r in labels), sum(r.requests for r in labels)
    fit = runtime_fit((r.n, r.predict_pairs_s) for r in it.links)
    cold_label_s = seconds("llm_labeler.label_dataset_cold")
    return {
        "records.ingest_csv_s": seconds("records.ingest_csv"),
        "records.write_records_jsonl_s": seconds("records.write_records_jsonl"),
        "records.read_records_jsonl_s": seconds("records.read_records_jsonl"),
        "pairing.enumerate_pairs_us_per_pair": us_per("pairing.enumerate_pairs"),
        "pairing.candidate_pairs": large.pairs,
        "pairing.pair_keys_io_us_per_pair": us_per("pairing.write_pair_keys", "pairing.read_pair_keys"),
        "pairing.labeled_pairs_io_us_per_pair": us_per("pairing.write_labeled_pairs", "pairing.read_labeled_pairs"),
        "pairing.stratified_split_s": seconds("pairing.stratified_split"),
        "pairing.subsample_sweep_s": seconds("pairing.subsample_sweep"),
        "matcher.predict_pairs_us_per_pair": us_per("matcher.predict_pairs"),
        "matcher.featurize_pairs_us_per_pair": us_per("matcher.featurize_pairs"),
        "matcher.probabilities_us_per_pair": us_per("matcher.probabilities"),
        "matcher.rule_match_us_per_pair": us_per("matcher.rule_match"),
        "matcher.train_classifier_s": seconds("matcher.train_classifier"),
        "matcher.fit_on_matrix_us_per_pair_epoch": us_per(*(f"probe.sweep_fit_{m}" for m in SWEEP_MODES)),
        "matcher.predicted_matches": large.predicted_matches,
        "serialize.build_pair_prompt_us": us_per("serialize.build_pair_prompt"),
        "llm_labeler.prompt_hash_us": us_per("llm_labeler.prompt_hash"),
        "llm_labeler.label_dataset_cold_s": cold_label_s / len(labels),
        "llm_labeler.label_dataset_warm_s": seconds("llm_labeler.label_dataset_warm") / (WARM_RERUNS * len(labels)),
        "llm_labeler.cache_load_s": seconds("llm_labeler.cache_load"),
        "llm_labeler.requests_per_pair": requests / pairs,
        "llm_labeler.abstain_default_share": sum(r.abstain_defaulted for r in labels) / pairs,
        "llm_labeler.client_ms_per_request": (cold_label_s * MAX_IN_FLIGHT / requests * 1000.0
                                              - statistics.fmean(s["service_ms_mean"] for s in served)),
        "endpoint.requests": sum(s["requests"] for s in served),
        "endpoint.connections": sum(s["connections"] for s in served),
        "endpoint.max_in_flight": max(s["max_in_flight"] for s in served),
        "endpoint.service_ms_p50": _median(s["service_ms_p50"] for s in served),
        "endpoint.transient_errors_served": sum(s["transient_errors_served"] for s in served),
        "evaluate.evaluate_pairs_us_per_pair": us_per("evaluate.evaluate_pairs"),
        **{f"evaluate.run_sweep_{m}_s": seconds(f"evaluate.run_sweep_{m}") for m in SWEEP_MODES},
        "evaluate.run_sweep_residual_s": (
            seconds(*(f"evaluate.run_sweep_{m}" for m in SWEEP_MODES))
            - seconds(*(f"probe.sweep_featurize_{m}" for m in SWEEP_MODES))
            - seconds(*(f"probe.sweep_fit_{m}" for m in SWEEP_MODES))),
        "cluster.cluster_matches_s": seconds("cluster.cluster_matches"),
        "cluster.cluster_report_s": seconds("cluster.cluster_report"),
        "cluster.write_clusters_s": seconds("cluster.write_clusters"),
        "cluster.clusters": large.clusters,
        "cluster.max_cluster_size": large.max_cluster_size,
        "cluster.contradictions": large.contradictions,
        "runtime_model.k_s": fit.k,
        "runtime_model.fit_residual_s": fit.fit_residual,
    }


def per_layer(tr: Tracer, done: list[Iteration]) -> dict[str, float]:
    traced = [it for it in done if it.traced]
    per_iteration = [_layers(tr.of_run(it.run), it) for it in traced]
    metrics = {name: _median(d[name] for d in per_iteration) for name in per_iteration[0]}
    metrics["trace.overhead_share"] = (
        _median(it.wall_s for it in traced) / _median(it.wall_s for it in done if not it.traced) - 1.0)

    own = self_times(tr.spans)
    print(f"self time per traced iteration ({len(traced)} traced, {len(done) - len(traced)} untraced):")
    for name, total in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {name:45s} {total / len(traced) * 1000:12.3f} ms")
    return metrics
