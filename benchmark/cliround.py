"""The cli-roundtrip workload: the tropspan CLI in child processes.

A round runs every command below once, one child process at a time:
`solve`, then `verify` of the document just written, `enumerate` for span
problems, `plot` for two-dimensional ones, a second `solve` of one input
whose output must be byte-identical, and `solve --exhaustive` followed by
`verify` on the three fixed inputs.  That last `verify` fails every time
(it recomputes with pruning on and reports `recomputation: MISMATCH`), so
those operations are counted as failed while the fault stands.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import corpus
import harness
import oracle

LAYER_PASSES = 5


@dataclass(frozen=True)
class Command:
    kind: str          # solve, verify, enumerate or plot
    input: str         # input name
    args: tuple        # arguments after the subcommand
    output: str        # file the command writes
    exhaustive: bool = False


def commands(inputs: dict) -> list[Command]:
    out = []
    for name, text in inputs.items():
        is_span = json.loads(text)["kind"] == "span"
        solution = f"{name}.solution.json"
        out.append(Command("solve", name, (), solution))
        out.append(Command("verify", name, ("--candidates", solution),
                           f"{name}.verify.txt"))
        if is_span:
            out.append(Command("enumerate", name, (), f"{name}.enumerate.txt"))
            if len(oracle.load(text)["q"]) == 2:
                out.append(Command("plot", name, (), f"{name}.svg"))
    first_seeded = list(inputs)[len(corpus.FIXED_CLI_INPUTS)]
    out.append(Command("solve", first_seeded, (), f"{first_seeded}.again.json"))
    for name in corpus.FIXED_CLI_INPUTS:
        solution = f"{name}.exhaustive.json"
        out.append(Command("solve", name, ("--exhaustive",), solution, True))
        out.append(Command("verify", name, ("--candidates", solution),
                           f"{name}.exhaustive.txt", True))
    return out


def argv(cmd: Command, work: Path) -> list[str]:
    return [cmd.kind, "--input", str(work / f"{cmd.input}.json"),
            "--output", str(work / cmd.output)] + [
        str(work / a) if a.endswith((".json", ".txt")) else a
        for a in cmd.args]


def run_child(cmd_argv: list[str], work: Path) -> tuple[float, int, int]:
    """Wall time, exit code and peak RSS (KiB) of one child process."""
    with open(work / "stderr.txt", "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd_argv, env=harness.child_env(), cwd=work,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


class Round:
    def __init__(self, seed: int, work: Path):
        self.work = work
        self.inputs = dict(corpus.cli_inputs(seed))
        for name, text in self.inputs.items():
            (work / f"{name}.json").write_text(text, encoding="utf-8")
        self.commands = commands(self.inputs)
        self.first_outputs: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.peak_rss = 0
        self.child_ms: dict[str, list[float]] = {}

    def parse(self):
        """The package's objects for every input: the set-up of a user."""
        from tropspan import documents
        return [documents.parse_problem(text) for text in self.inputs.values()]

    def run_round(self, index: int, after=None) -> tuple[list[float], int]:
        times, failed = [], 0
        for cmd in self.commands:
            elapsed, code, rss = run_child(
                [sys.executable, "-m", "tropspan"] + argv(cmd, self.work),
                self.work)
            times.append(elapsed)
            self.peak_rss = max(self.peak_rss, rss)
            self.child_ms.setdefault(cmd.kind, []).append(elapsed * 1000)
            failed += code != 0
            self.check(cmd, code, index)
            if after is not None:
                times[-1] += after(cmd)
        return times, failed

    def check(self, cmd: Command, code: int, index: int) -> None:
        path = self.work / cmd.output
        data = path.read_bytes() if path.exists() else b""
        where = f"round {index}: {cmd.kind} {' '.join(cmd.args)} {cmd.input}"
        if cmd.output in self.first_outputs:
            if data != self.first_outputs[cmd.output]:
                self.problems.append(f"{where}: output differs from round 0")
            return
        self.first_outputs[cmd.output] = data
        try:
            problems = self.output_problems(cmd, code, data.decode("utf-8"))
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.problems += [f"{where}: {p}" for p in problems]

    def output_problems(self, cmd: Command, code: int, text: str) -> list[str]:
        source = self.inputs[cmd.input]
        doc = oracle.load(source)
        if "B" in doc:
            delta = oracle.schedule_delta(doc["A"], doc["B"], doc["C"])
        else:
            delta = oracle.span_delta(doc["A"], doc["p"], doc["q"])
        if cmd.kind == "verify" and cmd.exhaustive:
            lines = text.splitlines()
            if code == 0 and lines[-1:] == ["result: PASS"]:
                return []
            bad = [l for l in lines[:-1] if not l.endswith(": OK")]
            if code == 1 and bad == ["recomputation: MISMATCH"]:
                return []
            return [f"exit {code}, unexpected report {lines}"]
        if code != 0:
            return [f"exit {code}"]
        if cmd.kind == "solve":
            return solution_problems(source, text, doc, delta)
        if cmd.kind == "verify":
            return [] if text.splitlines()[-1:] == ["result: PASS"] else [
                f"verify did not pass: {text!r}"]
        if cmd.kind == "enumerate":
            first = text.splitlines()[0]
            got = oracle.scalar(first.split(": ")[1])
            return [] if got == delta else [f"enumerate printed {first!r}"]
        try:
            root = ElementTree.fromstring(text)
        except ElementTree.ParseError as exc:
            return [f"SVG does not parse: {exc}"]
        return [] if root.tag.endswith("svg") else [f"root tag {root.tag}"]

    def again_problems(self) -> list[str]:
        """The repeated solve must match the first byte for byte."""
        again = [c for c in self.commands if c.output.endswith(".again.json")]
        return [f"two solves of {c.input} differ" for c in again
                if self.first_outputs[c.output]
                != self.first_outputs[f"{c.input}.solution.json"]]


def solution_problems(source: str, text: str, doc: dict, delta) -> list[str]:
    out = json.loads(text)
    sol = oracle.load(text)
    problems = []
    if out["input_sha256"] != hashlib.sha256(source.encode("utf-8")).hexdigest():
        problems.append("input_sha256 is not the digest of the input")
    if sol["delta"] != delta:
        problems.append(f"Delta {sol['delta']}, oracle {delta}")
    if "B" in doc:
        x, y = (oracle.scalars(out["latest"][k]) for k in "xy")
        problems += oracle.schedule_violations(doc["A"], doc["B"], doc["C"],
                                               doc["f"], x, y)
        if None in y or oracle.spread(y) != delta:
            problems.append("spread of the latest schedule is not Delta")
    else:
        cols = [list(c) for c in zip(*sol["generators"])]
        if not all(oracle.attains(doc["A"], doc["p"], doc["q"], delta, c)
                   for c in cols):
            problems.append("a generator does not attain Delta")
        if not oracle.in_span(cols, doc["q"]):
            problems.append("q is not in span S0")
    return problems


def floor_ms(work: Path) -> tuple[float, float]:
    """Median wall times (ms) of a bare child interpreter and of one that
    imports tropspan.cli, spawned as the commands are and alternated."""
    bare, imported = [], []
    for _ in range(2 * harness.SETUP_REPEATS - 1):
        bare.append(run_child([sys.executable, "-c", "pass"], work)[0])
        imported.append(run_child(
            [sys.executable, "-c", "import tropspan.cli"], work)[0])
    return statistics.median(bare) * 1000, statistics.median(imported) * 1000


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    rnd = Round(seed, work)
    parse_s, docs = harness.timed_setup(rnd.parse)
    setup_s = harness.import_seconds("tropspan.cli") + parse_s
    failures = []

    def one_round(index, after=None):
        times, failed = rnd.run_round(index, after)
        failures.append(failed)
        return times

    if not trace:
        times, _ = harness.run_passes(seconds, one_round)
        heap = peak_heap_kib(rnd)
        metrics = dict(harness.latency_metrics(times), peak_heap_kib=heap,
                       peak_rss_kib=float(rnd.peak_rss), setup_s=setup_s)
        return harness.result(rnd.problems + rnd.again_problems(), len(times),
                              sum(failures), metrics, harness.END_TO_END)

    plain_times, _ = harness.run_passes(seconds / 2, one_round)
    layers, gaps = traced_layers(rnd, docs, parse_s)
    rnd.child_ms.clear()
    inprocess_ms = []
    child_gaps = []

    def in_process(cmd):
        ms = inprocess_main(cmd, rnd.work)
        inprocess_ms.append(ms)
        child_gaps.append((rnd.child_ms[cmd.kind][-1], ms))
        return ms / 1000

    traced_times, _ = harness.run_passes(
        seconds / 2, lambda index: one_round(index, in_process))
    interpreter, imported = floor_ms(rnd.work)
    layers["cli.interpreter_ms"] = interpreter
    layers["cli.import_ms"] = imported - interpreter
    for kind, values in rnd.child_ms.items():
        layers[f"cli.{kind}_ms"] = statistics.median(values)
    layers["cli.inprocess_ms"] = statistics.median(inprocess_ms)
    floor = layers["cli.interpreter_ms"] + layers["cli.import_ms"]
    gaps["cli"] = [(whole, floor + inproc) for whole, inproc in child_gaps]
    metrics = harness.layer_metrics(layers, gaps, plain_times, traced_times)
    return harness.result(rnd.problems + rnd.again_problems(),
                          len(plain_times) + len(traced_times),
                          sum(failures), metrics, harness.PER_LAYER)


def inprocess_main(cmd: Command, work: Path) -> float:
    """ms of the same command through cli.main in this process."""
    from tropspan import cli
    args = argv(cmd, work)
    args[args.index("--output") + 1] += ".inprocess"
    start = perf_counter()
    cli.main(args)
    return (perf_counter() - start) * 1000


def peak_heap_kib(rnd: Round) -> float:
    """Largest tracemalloc peak of the commands on the fixed inputs, run
    through cli.main.

    The seeded inputs are left out: their enumerate listings vary in length
    from seed to seed, and with them the peak.
    """
    from tropspan import cli
    peak = 0
    tracemalloc.start()
    try:
        for cmd in rnd.commands:
            if cmd.input not in corpus.FIXED_CLI_INPUTS:
                continue
            args = argv(cmd, rnd.work)
            args[args.index("--output") + 1] += ".heap"
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cli.main(args)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1024


def traced_layers(rnd: Round, docs, parse_s: float):
    """In-process layer values of one round's inputs, and their stage gaps."""
    import inprocess
    from tropspan import documents
    from tropspan.plotting import render_span_svg

    # The first pass warms the in-process code up, as the rounds of child
    # processes never ran it in this process; the next LAYER_PASSES are
    # reported, averaged, since one pass over these small inputs takes only
    # tens of milliseconds.
    for index in range(LAYER_PASSES + 1):
        if index < 2:
            trace = inprocess.Trace()
        for doc in docs:
            if doc.kind == "span":
                item = tuple(doc.entries[k] for k in ("A", "p", "q"))
                inprocess.traced_span(item, trace)
                if item[0].cols == 2:
                    trace.time("plotting.render_ms", render_span_svg,
                               doc.to_span_problem())
            else:
                inprocess.traced_schedule(
                    tuple(doc.entries[k] for k in "ABCf"), trace)
    for name in trace.values:
        trace.values[name] /= LAYER_PASSES
    for cmd in rnd.commands:
        if cmd.kind == "solve" and not cmd.exhaustive:
            text = rnd.first_outputs[cmd.output].decode("utf-8")
            solution = documents.parse_solution(text)
            trace.time("documents.serialize_ms", documents.serialize_solution,
                       solution)
            trace.count("documents.solution_bytes", len(text.encode("utf-8")))
    layers = dict(trace.values)
    layers["documents.parse_ms"] = parse_s * 1000
    return layers, trace.gaps
