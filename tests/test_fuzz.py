"""A fixed-seed fuzz of the command line, run in process.

Structural and byte mutations of the sample files in tests/data go through
solve, enumerate, plot and verify; verify also reads mutated candidates files
and mutated solution documents.  A second loop keeps the files and draws the
options instead: plot windows from edge floats, and edge budgets for solve
and enumerate.  Every run must end in a documented exit code (1 only from
verify), never in the catch-all "unexpected" refusal, and within a time
bound; a picture plot writes holds no nan or inf coordinate.
"""

import copy
import json
import math
import random
import re
import time
from collections import Counter
from pathlib import Path

from tropspan.cli import main

DATA = Path(__file__).parent / "data"
SAMPLES = {path.stem: path.read_bytes() for path in sorted(DATA.glob("*.json"))}
# the samples each command accepts unmutated: enumerate reads span problems
# and plot two-column ones
ACCEPTED = {"solve": sorted(SAMPLES), "verify": sorted(SAMPLES),
            "enumerate": ["span_demo", "span_reduced_demo"], "plot": ["span_demo"]}
RUNS = 600
# a run takes milliseconds; the bound only catches a stall, with room for a
# loaded two-core machine
SECONDS_PER_RUN = 2.0
# what main prints for an exception it has no handler for, named by its type;
# no refusal starts with "unexpected" ("unknown fields: ..." is a parse one)
CATCH_ALL = re.compile(r"error: unexpected ")

ODD_VALUES = [None, True, False, 0, -1, 7, 2.5, 1e300, 10 ** 40, -10 ** 40,
              "1/2", "-3/4", "-inf", "+inf", "inf", "nan", "1/0", "1e5", "",
              "x", [], {}, [[]], [0], [[0, "-inf"]], {"x": [0]}, "span",
              "schedule", "candidates", "span-solution", "min-plus"]
TOKENS = [b"{", b"}", b"[", b"]", b'"', b",", b":", b"-", b"0", b"9", b".",
          b"/", b"e", b"-inf", b"1e999", b"\\", b"\n", b"\xff", b"\xc3\xa9"]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


def _structural(rng, data):
    """data with one node deleted, replaced, duplicated, wrapped or nudged."""
    data = copy.deepcopy(data)
    paths = list(_paths(data))[1:]
    if not paths:
        return rng.choice(ODD_VALUES)
    *parents, key = rng.choice(paths)
    parent = data
    for step in parents:
        parent = parent[step]
    value = parent[key]
    op = rng.choice(("delete", "replace", "replace", "duplicate", "wrap",
                     "nudge", "nudge", "nudge", "nudge"))
    if op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == "wrap":
        parent[key] = [value]
    elif op == "nudge" and type(value) is int:
        parent[key] = value + rng.choice((-3, -1, 1, 3))
    elif op == "nudge" and isinstance(value, str):
        parent[key] = rng.choice(("1/3", -2, "-inf"))
    else:
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return data


def _bytewise(rng, blob: bytes) -> bytes:
    """blob with a few spans deleted, duplicated or overwritten, or tokens put in."""
    out = bytearray(blob)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(out) + 1)
        op = rng.randrange(4)
        if op == 0:
            del out[i:i + rng.randint(1, 8)]
        elif op == 1:
            out[i:i] = rng.choice(TOKENS)
        elif op == 2 and i < len(out):
            out[i] = rng.randrange(256)
        else:
            out[i:i] = out[i:i + rng.randint(1, 12)]
    return bytes(out)


def _mutated(rng, blob: bytes) -> bytes:
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        if rng.random() < 0.7:
            try:
                data = json.loads(blob)
            except ValueError:
                blob = _bytewise(rng, blob)
                continue
            blob = json.dumps(_structural(rng, data)).encode()
        else:
            blob = _bytewise(rng, blob)
    return blob


def _candidates(problem: bytes, solution: bytes) -> bytes:
    """A candidates file built from a sample and its solution document."""
    doc, sol = json.loads(problem), json.loads(solution)
    if doc["kind"] == "span":
        vectors = [doc["q"], *[list(c) for c in zip(*sol["generators"])]]
        return json.dumps({"kind": "candidates", "vectors": vectors}).encode()
    return json.dumps({"kind": "candidates",
                       "schedules": [sol["latest"]]}).encode()


def test_mutated_inputs_end_in_a_documented_exit(tmp_path, capsys):
    problem_path, candidates_path = tmp_path / "problem", tmp_path / "candidates"
    output = str(tmp_path / "output")
    solutions = {}
    for name, blob in SAMPLES.items():
        problem_path.write_bytes(blob)
        assert main(["solve", "--input", str(problem_path), "--output", output]) == 0
        solutions[name] = Path(output).read_bytes()

    rng = random.Random(13)
    codes = Counter()
    for run in range(RUNS):
        command = ("solve", "enumerate", "plot", "verify")[run % 4]
        name = rng.choice(ACCEPTED[command])
        problem = SAMPLES[name]
        argv = [command, "--input", str(problem_path), "--output", output]
        if command == "verify":
            candidates = rng.choice((solutions[name],
                                     _candidates(problem, solutions[name])))
            if rng.random() < 0.8:
                candidates = _mutated(rng, candidates)
            else:
                problem = _mutated(rng, problem)
            candidates_path.write_bytes(candidates)
            argv += ["--candidates", str(candidates_path)]
        else:
            problem = _mutated(rng, problem)
            if command == "solve" and rng.random() < 0.3:
                argv.append("--exhaustive")
        problem_path.write_bytes(problem)

        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        case = f"run {run}: {command} of {problem!r}"
        assert code in ((0, 1, 2, 3, 4) if command == "verify" else (0, 2, 3, 4)), case
        assert not CATCH_ALL.match(err), f"{case}: {err}"
        assert elapsed < SECONDS_PER_RUN, f"{case}: {elapsed:.2f} s"
        codes[command, code] += 1
    # the mutations reach past the parser on every command
    for command, passed in (("solve", 0), ("enumerate", 0), ("plot", 0),
                            ("verify", 1)):
        assert codes[command, passed] > 5 and codes[command, 2] > 5, codes


# a span problem the parser takes whose 401-digit q_2 is beyond float range
BEYOND_FLOAT = json.dumps({"kind": "span", "A": [[0, 0], [0, 0]], "p": [0, 0],
                           "q": [0, 10 ** 400]}).encode()
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
               1e-300, 1e-15, 1.0, -1.0, 10.0, -10.0, 2.0 ** 53, 2.0 ** 53 + 2,
               -2.0 ** 53, 1e17, 1.0000000000000002e17, -1e17, 1e300, 1e308,
               -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
               math.inf, -math.inf, math.nan]
EDGE_WIDTHS = [5e-324, 1e-320, 1e-300, 1e-15, 1.0, 16.0, 1e17, 1e308]
EDGE_BUDGETS = ["1", "2", "3", "0", "-1", "-0", "007", " 5", "", "1e3", "x",
                str(2 ** 63), str(10 ** 18), "9" * 400, "9" * 5000]
OPTION_RUNS = 300


def _window(rng) -> list[str]:
    lo = rng.choice(EDGE_FLOATS)
    way = rng.randrange(3)
    if way == 0:
        hi = rng.choice(EDGE_FLOATS)
    elif way == 1:
        hi = lo + rng.choice(EDGE_WIDTHS)
    else:
        hi = math.nextafter(lo, math.inf)
    return [repr(lo), repr(hi)]


def test_edge_options_end_in_a_documented_exit(tmp_path, capsys):
    problem_path, output = tmp_path / "problem", tmp_path / "output"
    problems = {"span_demo": SAMPLES["span_demo"], "beyond_float": BEYOND_FLOAT}
    rng = random.Random(29)
    codes = Counter()
    for run in range(OPTION_RUNS):
        command = ("plot", "plot", "solve", "enumerate")[run % 4]
        if command == "plot":
            name = rng.choice(sorted(problems))
            argv = ["--window", *_window(rng)]
        else:
            name = rng.choice(ACCEPTED[command] + ["beyond_float"])
            argv = ["--budget", rng.choice(EDGE_BUDGETS)]
            if rng.random() < 0.5:
                argv.append("--exhaustive")
        problem_path.write_bytes(problems.get(name) or SAMPLES[name])
        argv = [command, "--input", str(problem_path), "--output", str(output),
                *argv]
        output.unlink(missing_ok=True)

        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the option
            code = exc.code
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        case = f"run {run}: {' '.join(a[:40] for a in argv[5:])} on {name}"
        assert code in (0, 2, 3, 4), case
        assert not CATCH_ALL.match(err), f"{case}: {err}"
        assert elapsed < SECONDS_PER_RUN, f"{case}: {elapsed:.2f} s"
        if command == "plot" and code == 0:
            svg = output.read_text()
            assert "nan" not in svg and "inf" not in svg, case
        codes[command, code] += 1
    # both refusals and pictures, and budget overruns
    assert codes["plot", 0] > 5 and codes["plot", 2] > 5, codes
    assert codes["solve", 4] > 5 and codes["enumerate", 0] > 5, codes
