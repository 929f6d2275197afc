"""minerlink benchmark: three seeded workloads over the whole pipeline.

Usage, from the root of a checkout::

    python3 bench/run.py --workload link --seed 1 --seconds 20 --trace 0

Every workload runs every stage in the order the CLI runs them (ingest,
pairs, predict, predict --rule, evaluate, cluster; label cold and warm;
train, sweep), through on-disk artifacts, for ``--seconds`` seconds of
repeated iterations. The workloads differ in which stage gets the large
input, so each one stresses its own layer; see ``WORKLOADS`` and
``bench/README.md``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced iterations, times the inner
public functions on the same inputs outside the end-to-end window, writes the
spans to ``.bench_work/traces/`` and prints the per-layer metrics. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"



def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="minerlink benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "minerlink" / "__init__.py").is_file():
        return _fail(f"no minerlink sources under {SRC}; run from the root of a checkout")
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        return _fail("BENCHMARK.json not found at the checkout root")
    declared = json.loads(declared_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    # The labeler reads these; the benchmark must only ever talk to its own endpoint.
    for var in ("MINERLINK_LLM_BASE_URL", "MINERLINK_LLM_API_KEY"):
        os.environ.pop(var, None)

    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work,
                               ROOT / ".bench_work" / "traces")
    except Exception:
        traceback.print_exc()
        return _fail("workload aborted")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome is None:
        return _fail("no iteration completed")
    metrics, ops = outcome
    if kind == "end_to_end":
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if set(metrics) != set(units):
        return _fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(units))}")
    for message in ops.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for name in units:
        print(f"{name:45s} {metrics[name]:>14.6g} {units[name]}")
    print(f"operations: {ops.attempted} attempted, {ops.failed} failed "
          f"({ops.failed / ops.attempted:.4%})")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
