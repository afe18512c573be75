"""Hash what the package computes on the benchmark corpora and sample files.

    python3 tools/identity_gate.py [--seeds N ...]

Prints one sha256 per workload and seed, and one for the command line:

  span-square, span-tall   the sparsified matrix; complete_solution pruned,
                           and exhaustive under a budget of 3000 (visited
                           when that budget is overrun); the chosen_col
                           listing of enumerate_selections, pruned in full
                           and the first 3000 exhaustive ones
  schedule-jit             every field of solve_schedule, latest_schedule,
                           and the instance's closure and precedence
  cli                      stdout, stderr and exit code of solve (plain,
                           --exhaustive, --compact), enumerate (plain,
                           --exhaustive), plot, verify of both solution
                           documents, and verify of a candidates file built
                           from the plain one (q and each generator column,
                           or the latest schedule), on every file of
                           tests/data and benchmark/data
  refusals                 exit code and stderr line count of solve and
                           verify on invalid problem, candidate and solution
                           texts built here; the stderr text is not hashed,
                           so a refusal may be reworded

Every scalar is hashed with its Python type, so an int and an equal Fraction
differ.  The corpora come from benchmark/corpus.py, read and never written;
they are max-plus only, so the other three semifields are left to the tests
(tests/test_spanopt.py compares the sparsified matrix type-exactly with the
threshold formula on all four).

Run the tool in two checkouts and compare the lines: a change that keeps
every result prints the same lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
sys.dont_write_bytecode = True  # leave no bytecode beside the corpus

import corpus  # noqa: E402
from tropspan import (  # noqa: E402
    ZERO,
    EnumerationBudgetExceeded,
    ScheduleInstance,
    SpanProblem,
    complete_solution,
    enumerate_selections,
    latest_schedule,
    solve_schedule,
)
from tropspan.documents import parse_problem  # noqa: E402

OVERRUN_BUDGET = 3000
CLI_DATA = ("tests/data", "benchmark/data")
CLI_COMMANDS = (("solve",), ("solve", "--exhaustive"), ("solve", "--compact"),
                ("enumerate",), ("enumerate", "--exhaustive"), ("plot",))
SCHEDULE = '{"kind": "schedule", "A": %s, "B": %s, "C": [[0, 0], [0, 0]], "f": %s}'
REFUSED_PROBLEMS = (
    "",
    "[1, 2]",
    '{"kind": "span", "semifield": [], "A": [[1]], "p": [0], "q": [0]}',
    '{"kind": "span", "A": [[1, 1]], "p": [0, 0], "q": [0, 0]}',
    '{"kind": "span", "A": [["-inf", "-inf"], [1, 1]], "p": [0, 0], "q": [0, 0]}',
    SCHEDULE % ("[[0, 0], [0, 0]]", "[[0, 0, 0]]", "[5, 5]"),
    SCHEDULE % ("[[0, 0, 0], [0, 0, 0]]", "[[0, 0], [0, 0]]", "[5, 5]"),
    SCHEDULE % ("[[0, 0], [0, 0]]", "[[0, 0], [0, 0]]", '[5, "-inf"]'),
    SCHEDULE % ("[[0, 0], [0, 0]]", '[[1, "-inf"], ["-inf", "-inf"]]', "[5, 5]"),
    SCHEDULE % ("[[0, 0], [0, 0]]", '[["-inf", "1/4"], ["1/4", "-inf"]]', "[5, 5]"),
)
REFUSED_CANDIDATES = (
    ("span", '{"kind": "candidates", "vectors": []}'),
    ("span", '{"kind": "candidates", "vectors": [[1]]}'),
    ("schedule", '{"kind": "candidates"}'),
)
# (problem kind, damage done to the solution document solve writes for it)
BROKEN_SOLUTIONS = (
    ("span", lambda doc: doc.update(extended=[1])),
    ("span", lambda doc: doc.pop("enumeration")),
    ("span", lambda doc: doc.update(semifield=[])),
    ("schedule", lambda doc: doc["latest"].pop("y")),
)


def typed(value) -> str:
    """Text of nested tuples and scalars that names each scalar's type."""
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(typed(v) for v in value) + ")"
    if value is ZERO:
        return "ZERO"
    return f"{type(value).__name__}:{value}"


def span_lines(texts):
    for text in texts:
        entries = parse_problem(text).entries
        prob = SpanProblem(entries["A"], entries["p"], entries["q"])
        yield typed(prob.sparsified.entries)
        sol = complete_solution(prob)
        yield typed((sol.delta, sol.generators.generators.entries,
                     sol.enumerated_count, sol.pruned_count))
        try:
            sol = complete_solution(prob, prune=False, budget=OVERRUN_BUDGET)
        except EnumerationBudgetExceeded as exc:
            yield typed(("overrun", exc.visited))
        else:
            yield typed((sol.delta, sol.generators.generators.entries,
                         sol.enumerated_count, sol.pruned_count))
        for prune, cap in ((True, None), (False, OVERRUN_BUDGET)):
            yield typed(tuple(s.chosen_col for s in islice(enumerate_selections(
                prob.sparsified, prob.p, prune=prune, budget=None), cap)))


def schedule_lines(texts):
    for text in texts:
        entries = parse_problem(text).entries
        inst = ScheduleInstance(*(entries[k] for k in "ABCf"))
        sol = solve_schedule(inst)
        x, y = latest_schedule(sol)
        yield typed((sol.delta, sol.span_generators.entries,
                     sol.x_generators.entries, sol.y_generators.entries,
                     sol.coeff_bound.entries, sol.enumerated_count,
                     sol.pruned_count, x.entries, y.entries, sol.D.entries,
                     inst.closure.entries, inst.precedence.entries))


def candidates(problem: str, solution: str) -> str:
    """A candidates file of what solve found: q and the generator columns of
    a span problem, or the latest schedule of a schedule."""
    sol = json.loads(solution)
    if sol["kind"] == "span-solution":
        columns = [list(c) for c in zip(*sol["generators"])]
        found = {"vectors": [json.loads(problem)["q"], *columns]}
    else:
        found = {"schedules": [sol["latest"]]}
    return json.dumps({"kind": "candidates", **found})


def cli_lines():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        for folder in CLI_DATA:
            for path in sorted((ROOT / folder).glob("*.json")):
                name = f"{folder.replace('/', '-')}-{path.name}"
                shutil.copyfile(path, Path(work) / name)
                runs = [args + ("--input", name) for args in CLI_COMMANDS]
                for flag, out in (((), "plain.json"),
                                  (("--exhaustive",), "exhaustive.json")):
                    subprocess.run([sys.executable, "-m", "tropspan", "solve",
                                    *flag, "--input", name, "--output", out],
                                   cwd=work, env=env, capture_output=True)
                    runs.append(("verify", "--input", name,
                                 "--candidates", out))
                (Path(work) / "candidates.json").write_text(
                    candidates(path.read_text(encoding="utf-8"),
                               (Path(work) / "plain.json").read_text(
                                   encoding="utf-8")), encoding="utf-8")
                runs.append(("verify", "--input", name,
                             "--candidates", "candidates.json"))
                for args in runs:
                    done = subprocess.run(
                        [sys.executable, "-m", "tropspan", *args], cwd=work,
                        env=env, capture_output=True, text=True)
                    yield (f"{' '.join(args)}\nexit {done.returncode}\n"
                           f"{done.stdout}\n{done.stderr}")


def refusal_lines():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        def cli(*args):
            return subprocess.run([sys.executable, "-m", "tropspan", *args],
                                  cwd=work, env=env, capture_output=True,
                                  text=True)

        def write(name, text):
            (Path(work) / name).write_text(text, encoding="utf-8")
            return name

        solved = {}
        for kind in ("span", "schedule"):
            shutil.copyfile(ROOT / "tests/data" / f"{kind}_demo.json",
                            Path(work) / f"{kind}.json")
            solved[kind] = cli("solve", "--input", f"{kind}.json").stdout
        vectors = write("vectors.json", '{"kind": "candidates", "vectors": [[1, 2]]}')
        runs = []
        for i, text in enumerate(REFUSED_PROBLEMS):
            name = write(f"problem{i}.json", text)
            runs += [("solve", "--input", name),
                     ("verify", "--input", name, "--candidates", vectors)]
        cases = list(REFUSED_CANDIDATES)
        for kind, damage in BROKEN_SOLUTIONS:
            doc = json.loads(solved[kind])
            damage(doc)
            cases.append((kind, json.dumps(doc)))
        for i, (kind, text) in enumerate(cases):
            runs.append(("verify", "--input", f"{kind}.json", "--candidates",
                         write(f"candidates{i}.json", text)))
        for args in runs:
            done = cli(*args)
            lines = done.stderr.count("\n")
            yield f"{' '.join(args)}\nexit {done.returncode}\nstderr lines {lines}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    workloads = (("span-square", corpus.span_square, span_lines),
                 ("span-tall", corpus.span_tall, span_lines),
                 ("schedule-jit", corpus.schedule_jit, schedule_lines))
    for name, make, lines in workloads:
        for seed in args.seeds:
            texts, _ = make(seed)
            print(f"{name} seed {seed} {digest(lines(texts))}", flush=True)
    print(f"cli {' '.join(CLI_DATA)} {digest(cli_lines())}", flush=True)
    print(f"refusals {len(REFUSED_PROBLEMS)} problems, {len(REFUSED_CANDIDATES)} "
          f"candidates, {len(BROKEN_SOLUTIONS)} solutions "
          f"{digest(refusal_lines())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
