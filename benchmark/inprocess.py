"""The in-process workloads: span-square, span-tall and schedule-jit.

Each workload turns its corpus texts into the package's objects (the timed
set-up), runs one operation per corpus item, checks every result against the
oracle, and, in a traced run, times the public functions of each module on
the same inputs.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import defaultdict
from time import perf_counter

import corpus
import harness
import oracle
from tropspan import (
    ScheduleInstance,
    SpanProblem,
    TropMatrix,
    ZERO,
    complete_solution,
    latest_schedule,
    solve_schedule,
)
from tropspan import documents
from tropspan.linalg import reduce_to_independent
from tropspan.scheduling import precedence_closure, reduced_span_problem
from tropspan.solvers import solve_upper_bound
from tropspan.spanopt import (
    canonical_column_order,
    enumerate_selections,
    selection_generators,
)

MINIMIZERS_PER_PROBLEM = 5


def plain(entries):
    """Package scalars (nested tuples) as oracle scalars (nested lists)."""
    if isinstance(entries, tuple):
        return [plain(e) for e in entries]
    return None if entries is ZERO else entries


class Trace:
    """Per-layer times (ms) and counters, summed over the operations traced."""

    def __init__(self):
        self.values = defaultdict(float)
        self.gaps = defaultdict(list)

    def time(self, name, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.values[name] += (perf_counter() - start) * 1000
        return out

    def count(self, name, amount):
        self.values[name] += amount

    def gap(self, layer, whole_ms, stages_ms):
        """Record one operation's whole time beside the sum of its stages."""
        self.gaps[layer].append((whole_ms, stages_ms))


def span_stages(prob: SpanProblem, trace: Trace) -> TropMatrix:
    """complete_solution's stages, each through its public function."""
    sparse = trace.time("spanopt.sparsify_ms",
                        lambda: (prob.delta, prob.sparsified)[1])
    selections = trace.time("spanopt.enumerate_ms", lambda: list(
        enumerate_selections(sparse, prob.p)))
    pooled_cols = trace.time("spanopt.selection_spans_ms", lambda: [
        col for sel in selections
        for col in selection_generators(sel, prob).generators.columns()])
    pooled = trace.time("linalg.pool_ms", TropMatrix.from_columns,
                        prob.semifield, pooled_cols)
    reduced, _ = trace.time("linalg.reduce_ms", reduce_to_independent, pooled)
    ordered = trace.time("spanopt.order_ms", canonical_column_order, reduced)
    trace.count("spanopt.selections_emitted", len(selections))
    trace.count("linalg.pooled_columns", pooled.cols)
    trace.count("linalg.kept_columns", reduced.cols)
    return ordered


SPAN_STAGES = ("spanopt.sparsify_ms", "spanopt.enumerate_ms",
               "spanopt.selection_spans_ms", "linalg.pool_ms",
               "linalg.reduce_ms", "spanopt.order_ms")


def traced_span(item, trace: Trace):
    """One span operation, whole and by stage; returns the whole's result."""
    start = perf_counter()
    sol = complete_solution(SpanProblem(*item))
    whole = (perf_counter() - start) * 1000
    trace.count("spanopt.complete_solution_ms", whole)
    before = sum(trace.values[name] for name in SPAN_STAGES)
    prob = trace.time("spanopt.problem_ms", SpanProblem, *item)
    s0 = span_stages(prob, trace)
    staged = sum(trace.values[name] for name in SPAN_STAGES) - before
    trace.gap("spanopt", whole, staged + trace.values.pop("spanopt.problem_ms"))
    if s0 != sol.generators.generators:
        raise AssertionError("staged generators differ from complete_solution")
    return sol


def traced_schedule(item, trace: Trace):
    """One schedule operation, whole and by stage; returns the whole's result."""
    A, B, C, f = item
    start = perf_counter()
    inst = ScheduleInstance(A, B, C, f)
    built = perf_counter()
    sol = solve_schedule(inst)
    solved = perf_counter()
    latest = latest_schedule(sol)
    whole = (perf_counter() - start) * 1000
    trace.count("scheduling.solve_ms", (solved - built) * 1000)

    stage_start = perf_counter()
    inst = trace.time("scheduling.instance_ms", ScheduleInstance, A, B, C, f)
    closure = trace.time("scheduling.closure_ms", precedence_closure, inst)
    prob = trace.time("scheduling.reduced_problem_ms", reduced_span_problem,
                      inst, closure)
    span_start = perf_counter()
    s0 = span_stages(prob, trace)
    trace.count("scheduling.span_solve_ms", (perf_counter() - span_start) * 1000)

    def generators():
        return closure @ s0, solve_upper_bound(prob.A @ s0, f)

    trace.time("scheduling.generators_ms", generators)
    trace.time("scheduling.latest_ms", latest_schedule, sol)
    trace.gap("scheduling", whole, (perf_counter() - stage_start) * 1000)
    trace.count("scheduling.generator_columns", s0.cols)
    if s0 != sol.span_generators:
        raise AssertionError("staged generators differ from solve_schedule")
    return sol.delta, latest[0].entries, latest[1].entries


def summarize_span(sol):
    return sol.delta, sol.generators.generators.entries


class SpanWorkload:
    """complete_solution on span problems."""

    def __init__(self, texts: list[str], seed: int):
        self.texts = texts
        self.seed = seed

    def parse(self):
        items = []
        for text in self.texts:
            entries = documents.parse_problem(text).entries
            items.append((entries["A"], entries["p"], entries["q"]))
        return items

    @staticmethod
    def op(item):
        return summarize_span(complete_solution(SpanProblem(*item)))

    @staticmethod
    def traced(item, trace: Trace):
        return summarize_span(traced_span(item, trace))

    def check(self, summaries) -> list[str]:
        problems = []
        for index, (text, (delta, s0)) in enumerate(zip(self.texts, summaries)):
            doc = oracle.load(text)
            A, p, q = doc["A"], doc["p"], doc["q"]
            want = oracle.span_delta(A, p, q)
            cols = [list(col) for col in zip(*plain(s0))]
            rng = random.Random(f"minimizers:{self.seed}:{index}")
            samples = [oracle.sample_minimizer(A, p, q, want, rng)
                       for _ in range(MINIMIZERS_PER_PROBLEM)]
            failures = [
                (delta != want, f"Delta {delta}, oracle {want}"),
                (not all(oracle.attains(A, p, q, want, c) for c in cols),
                 "a column of S0 does not attain Delta"),
                (not oracle.in_span(cols, q), "q is not in span S0"),
                (not oracle.independent(cols),
                 "a column of S0 lies in the span of the others"),
                (not all(oracle.attains(A, p, q, want, x) for x in samples),
                 "oracle sampler produced a non-minimizer"),
                (not all(oracle.in_span(cols, x) for x in samples),
                 "a minimizer lies outside span S0"),
            ]
            problems += [f"instance {index}: {msg}" for bad, msg in failures
                         if bad]
        return problems


class ScheduleWorkload:
    """ScheduleInstance, solve_schedule and latest_schedule on schedules."""

    def __init__(self, texts: list[str]):
        self.texts = texts

    def parse(self):
        items = []
        for text in self.texts:
            entries = documents.parse_problem(text).entries
            items.append(tuple(entries[k] for k in "ABCf"))
        return items

    @staticmethod
    def op(item):
        sol = solve_schedule(ScheduleInstance(*item))
        x, y = latest_schedule(sol)
        return sol.delta, x.entries, y.entries

    @staticmethod
    def traced(item, trace: Trace):
        return traced_schedule(item, trace)

    def check(self, summaries) -> list[str]:
        problems = []
        for index, (text, (delta, x, y)) in enumerate(zip(self.texts, summaries)):
            doc = oracle.load(text)
            A, B, C, f = (doc[k] for k in "ABCf")
            x, y = plain(x), plain(y)
            want = oracle.schedule_delta(A, B, C)
            if delta != want:
                problems.append(f"instance {index}: Delta {delta}, oracle {want}")
            for violation in oracle.schedule_violations(A, B, C, f, x, y):
                problems.append(f"instance {index}: latest schedule: {violation}")
            if None in y or oracle.spread(y) != want:
                problems.append(f"instance {index}: spread of the latest "
                                f"schedule is not Delta")
        return problems


def peak_heap_kib(item, op) -> float:
    """tracemalloc peak of one operation on item.

    The operation runs twice, each after a full collection, and keeps the
    smaller peak: blocks on the interpreter's free lists from before tracing
    are reused uncounted, so the first traced call reads higher by a varying
    amount.
    """
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op(item)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return min(peaks) / 1024


def timed_pass(items, reference, problems, op):
    """A pass that times op on every item.

    op returns a summary of its result; the first pass keeps the summaries
    and every later pass must reproduce them.
    """
    def one_pass(index):
        times = []
        for pos, item in enumerate(items):
            start = perf_counter()
            summary = op(item)
            times.append(perf_counter() - start)
            if len(reference) == pos:
                reference.append(summary)
            elif summary != reference[pos]:
                problems.append(f"instance {pos}: pass {index} differs from "
                                f"the first pass")
        return times
    return one_pass


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    make = {"span-square": corpus.span_square, "span-tall": corpus.span_tall,
            "schedule-jit": corpus.schedule_jit}[name]
    texts, heap_index = make(seed)
    if name == "schedule-jit":
        workload = ScheduleWorkload(texts)
    else:
        workload = SpanWorkload(texts, seed)
    parse_s, items = harness.timed_setup(workload.parse)
    setup_s = harness.import_seconds("tropspan") + parse_s
    reference, problems = [], []

    if not trace:
        times, _ = harness.run_passes(
            seconds, timed_pass(items, reference, problems, workload.op))
        rss = harness.self_rss_kib()
        problems += workload.check(reference)
        # One large instance runs under tracemalloc, which slows every
        # allocation: a whole pass under it costs four to seven passes.
        heap = peak_heap_kib(items[heap_index], workload.op)
        metrics = dict(harness.latency_metrics(times), peak_heap_kib=heap,
                       peak_rss_kib=rss, setup_s=setup_s)
        return harness.result(problems, len(times), 0, metrics,
                              harness.END_TO_END)

    plain_times, _ = harness.run_passes(
        seconds / 2, timed_pass(items, reference, problems, workload.op))
    layers = Trace()
    traced_times, passes = harness.run_passes(seconds / 2, timed_pass(
        items, reference, problems, lambda item: workload.traced(item, layers)))
    problems += workload.check(reference)
    per_pass = {k: v / passes for k, v in layers.values.items()}
    per_pass["documents.parse_ms"] = parse_s * 1000
    metrics = harness.layer_metrics(per_pass, layers.gaps, plain_times,
                                    traced_times)
    return harness.result(problems, len(plain_times) + len(traced_times), 0,
                          metrics, harness.PER_LAYER)
