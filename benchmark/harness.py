"""Shared parts of the benchmark: timing, set-up, metric names and the result.

Every run measures whole passes over a corpus, so two runs with one seed do
the same work; the per-layer values are reported per pass for that reason.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = {"latency_ms_p50": "ms", "latency_ms_p90": "ms",
              "throughput_ops_per_s": "ops/s", "peak_heap_kib": "KiB",
              "peak_rss_kib": "KiB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(module: str) -> float:
    """Median time of `import module` in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def timed_setup(parse) -> tuple[float, object]:
    """Median over repeats of turning the corpus into the package's objects."""
    times, items = [], None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        items = parse()
        times.append(perf_counter() - start)
    return statistics.median(times), items


def run_passes(seconds: float, one_pass) -> tuple[list[float], int]:
    """Whole passes until `seconds` have elapsed, at least one.

    one_pass(index) returns the op times of one pass.
    """
    times, passes = [], 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        times += one_pass(passes)
        passes += 1
    return times, passes


def latency_metrics(times: list[float]) -> dict:
    return {"latency_ms_p50": statistics.median(times) * 1000,
            "latency_ms_p90": statistics.quantiles(times, n=10)[-1] * 1000,
            "throughput_ops_per_s": len(times) / sum(times)}


def self_rss_kib() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# -- per-layer metrics --------------------------------------------------------

PER_LAYER = {
    "linalg.pool_ms": "ms", "linalg.reduce_ms": "ms",
    "linalg.pooled_columns": "count", "linalg.kept_columns": "count",
    "linalg.kept_per_pooled": "ratio",
    "spanopt.sparsify_ms": "ms", "spanopt.enumerate_ms": "ms",
    "spanopt.selections_emitted": "count", "spanopt.selection_spans_ms": "ms",
    "spanopt.order_ms": "ms", "spanopt.complete_solution_ms": "ms",
    "spanopt.stage_gap_pct": "%", "spanopt.op_gap_median_pct": "%",
    "scheduling.instance_ms": "ms", "scheduling.closure_ms": "ms",
    "scheduling.reduced_problem_ms": "ms", "scheduling.span_solve_ms": "ms",
    "scheduling.generators_ms": "ms", "scheduling.latest_ms": "ms",
    "scheduling.solve_ms": "ms", "scheduling.generator_columns": "count",
    "scheduling.stage_gap_pct": "%", "scheduling.op_gap_median_pct": "%",
    "documents.parse_ms": "ms", "documents.serialize_ms": "ms",
    "documents.solution_bytes": "bytes",
    "plotting.render_ms": "ms",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.solve_ms": "ms",
    "cli.verify_ms": "ms", "cli.enumerate_ms": "ms", "cli.plot_ms": "ms",
    "cli.inprocess_ms": "ms", "cli.stage_gap_pct": "%",
    "cli.op_gap_median_pct": "%",
    "trace.untraced_ops_per_s": "ops/s", "trace.traced_ops_per_s": "ops/s",
    "trace.overhead_pct": "%",
}


def layer_metrics(per_pass: dict, gaps: dict, plain_times, traced_times) -> dict:
    """Per-pass layer values, stage gaps and the trace overhead.

    gaps maps a layer to (whole ms, sum of stage ms) per operation.  Its
    stage_gap_pct is the distance of the summed stages from the summed
    wholes; op_gap_median_pct is the median of the same distance per
    operation, which includes the run-to-run noise of timing one operation
    twice.  A layer the workload does not reach reads 0.
    """
    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: v for k, v in per_pass.items() if k in PER_LAYER})
    if out["linalg.pooled_columns"]:
        out["linalg.kept_per_pooled"] = (out["linalg.kept_columns"]
                                         / out["linalg.pooled_columns"])
    for layer, pairs in gaps.items():
        wholes = sum(whole for whole, _ in pairs)
        stages = sum(staged for _, staged in pairs)
        out[f"{layer}.stage_gap_pct"] = abs(stages - wholes) / wholes * 100
        out[f"{layer}.op_gap_median_pct"] = statistics.median(
            abs(staged - whole) / whole * 100 for whole, staged in pairs)
    untraced = len(plain_times) / sum(plain_times)
    traced = len(traced_times) / sum(traced_times)
    out["trace.untraced_ops_per_s"] = untraced
    out["trace.traced_ops_per_s"] = traced
    out["trace.overhead_pct"] = (untraced / traced - 1) * 100
    return out


def result(problems, attempted, failed, metrics, units) -> dict:
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}
