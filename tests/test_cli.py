import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import dense_probe_data, mat, vec
import tropspan
from tropspan import (
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    EnumerationBudgetExceeded,
    SpanProblem,
    ValidationError,
    cli,
    plotting,
    scheduling,
)
from tropspan.cli import EXIT_BUDGET, main
from tropspan.plotting import render_span_svg

DATA = Path(__file__).parent / "data"
SPAN = str(DATA / "span_demo.json")
SCHEDULE = str(DATA / "schedule_demo.json")
REDUCED = str(DATA / "span_reduced_demo.json")
# read only: the benchmark's own copies
BENCH_DATA = Path(__file__).parent.parent / "benchmark" / "data"
PROBE = str(BENCH_DATA / "span_square_probe.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # a fresh interpreter, as a command line starts one; this session has both
    src = str(Path(tropspan.__file__).resolve().parent.parent)
    code = ("import sys, tropspan.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_solve_span(capsys):
    code, out, err = run(capsys, "solve", "--input", SPAN)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "span-solution"
    assert doc["delta"] == 2
    assert doc["generators"] == [[0, -1], ["-inf", 0]]
    assert doc["extended"]["lower"] == [1, -1]
    assert doc["extended"]["upper"] == [1, 2]
    assert doc["extended"]["generators"] == [[0, -1], [-2, 0]]
    assert doc["enumeration"] == {"visited": 1, "pruned": 1}


def test_solve_schedule(capsys):
    code, out, err = run(capsys, "solve", "--input", SCHEDULE)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "schedule-solution"
    assert doc["delta"] == 3
    assert doc["span_generators"] == [[0, "-inf", -2, "-inf"],
                                      ["-inf", 0, "-inf", 2],
                                      ["-inf", "-inf", 0, 0]]
    assert doc["x_generators"] == [[0, -5, -2, -3], [3, 0, 1, 2], [2, -2, 0, 0]]
    assert doc["y_generators"] == [[3, -1, 1, 1], [5, 2, 3, 4], [6, 2, 4, 4]]
    assert doc["coefficient_bound"] == [1, 5, 3, 3]
    assert doc["latest"] == {"x": [1, 5, 3], "y": [4, 7, 7]}


def test_solve_schedule_compact(capsys):
    code, out, _ = run(capsys, "solve", "--input", SCHEDULE, "--compact")
    assert code == 0
    doc = json.loads(out)
    assert doc["compact"] is True
    assert doc["x_generators"] == [[0, -5], [3, 0], [2, -2]]
    assert doc["y_generators"] == [[3, -1], [5, 2], [6, 2]]
    assert doc["coefficient_bound"] == [1, 5]
    assert doc["latest"] == {"x": [1, 5, 3], "y": [4, 7, 7]}


# sha256 of the solution document; the three files of tests/data are
# byte-identical copies of those in benchmark/data, so they share digests
SOLVE_DIGESTS = {
    ("schedule_demo", ()):
        "61302cec88c168041f515ab31745a1c607d1c65d5bb2f0d73dd2bced823c44ce",
    ("schedule_demo", ("--exhaustive",)):
        "f10c902504d3550ed943c15beb400b98070e3a648cf7bb5f5415af5de8cc4811",
    ("schedule_demo", ("--compact",)):
        "cc0e62ca4efefbb801807971b9aa42686a25c3972dda017f82763c98fd7645c1",
    ("span_demo", ()):
        "0fff0ad0ca7b92881e7801f7525739cf6964c197e4f0a21390f2e44b120b386a",
    ("span_demo", ("--exhaustive",)):
        "f3c489c31441b8618eb342b8afefcaa712a568b04e2b40efad60377da0bc9d3d",
    ("span_demo", ("--compact",)):
        "2773b732c84b4b980695e3669cf638a34df25097341de760c4240e5812829639",
    ("span_reduced_demo", ()):
        "51f2456044d9fd2af9080ea49cdbbf5dd29e1de9a9b6a9042c926089fb93aeb0",
    ("span_reduced_demo", ("--exhaustive",)):
        "07d13831fd54cfe3c101d4cf8554fd88b960bed7f6fbd18e778e6d982198dadd",
    ("span_reduced_demo", ("--compact",)):
        "a0256954464c7ca3b009cef7fe7a7b81ce14aa6599be9e84efcb4fa8c8451212",
    ("span_square_probe", ()):
        "1e07e9a1bd927948e98112a1c25b58f5d2dea0ac21e2677809cad50a3cf981be",
    ("span_square_probe", ("--exhaustive",)):
        "fc876476a4c968712caec1028072b80c3715375c5b4346db3a3b2ece42fee042",
    ("span_square_probe", ("--compact",)):
        "9c0096893d648871538da74a68b50cbdfdd9c871f2d9dccf51b8060512c8dedc",
}
SOLVE_FILES = [*sorted(DATA.glob("*.json")),
               *sorted(BENCH_DATA.glob("*.json"))]


@pytest.mark.parametrize("flags", [(), ("--exhaustive",), ("--compact",)],
                         ids=["plain", "exhaustive", "compact"])
@pytest.mark.parametrize("path", SOLVE_FILES,
                         ids=[f"{p.parent.parent.name}-{p.stem}"
                              for p in SOLVE_FILES])
def test_solve_golden_bytes(capsys, path, flags):
    code, out, err = run(capsys, "solve", "--input", str(path), *flags)
    assert code == 0, err
    assert (hashlib.sha256(out.encode()).hexdigest()
            == SOLVE_DIGESTS[path.stem, flags])


# A schedule in half units, kept here and not in tests/data, with the sha256
# of its json.dumps text's solution documents: its lags are solved on the
# data times 2, and the documents must read as if they were not
HALF_UNIT_SCHEDULE = {
    "kind": "schedule",
    "A": [["1/2", "-inf", "3/2", "-inf"], ["-3/2", 2, "-inf", 0],
          ["-inf", "1/2", "5/2", "-inf"], [0, "-inf", "-1/2", 1]],
    "B": [["-inf"] * 4, ["1/2", "-inf", "-inf", "-inf"],
          ["-inf", "-5/2", "-inf", "-inf"], ["-inf"] * 4],
    "C": [["-inf"] * 4, ["-inf"] * 4, ["-inf"] * 4,
          ["-inf", "-3/2", "-inf", "-inf"]],
    "f": ["15/2", 8, "17/2", "13/2"],
}
HALF_UNIT_DIGESTS = {
    (): "ebc949585eb22ca41c3274bb3cac28ae10daf9a73bfc7d3d916b5bf04f96a2da",
    ("--compact",):
        "b756e3ca7f23560fab2e51ab52d939c2fe22a41a7973b44d869a35c87d71c812",
    ("--exhaustive",):
        "b885ecfb1f32c9e55feab5c1877958f14fcbda4977980339e2d764cbb3d1d686",
}


@pytest.mark.parametrize("flags", list(HALF_UNIT_DIGESTS),
                         ids=["plain", "compact", "exhaustive"])
def test_solve_half_unit_schedule_golden_bytes(tmp_path, capsys, flags):
    problem = tmp_path / "half.json"
    problem.write_text(json.dumps(HALF_UNIT_SCHEDULE))
    code, out, err = run(capsys, "solve", "--input", str(problem), *flags)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == HALF_UNIT_DIGESTS[flags]
    solution = tmp_path / "solution.json"
    solution.write_text(out)
    code, out, err = run(capsys, "verify", "--input", str(problem),
                         "--candidates", str(solution))
    assert code == 0, out + err
    assert out.endswith("result: PASS\n")


def test_solve_infeasible_quarter_units_names_the_cycle_weight(tmp_path,
                                                               capsys):
    # the star runs on the lags times 4, where this cycle weighs 2
    problem = {"kind": "schedule", "A": [[0, 0], [0, 0]],
               "B": [["-inf", "1/4"], ["1/4", "-inf"]],
               "C": [["-inf", "-inf"], ["-inf", "-inf"]], "f": [5, 5]}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(problem))
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == ("infeasible: cyclic precedence with positive total lag: a "
                   "cycle through vertex 1 weighs 1/2, above the identity; "
                   "A x <= x has no regular solution\n")


def test_solve_deterministic(capsys):
    _, first, _ = run(capsys, "solve", "--input", SCHEDULE)
    _, second, _ = run(capsys, "solve", "--input", SCHEDULE)
    assert first == second


def test_solve_dense_12_by_12_probe_in_a_child_process(tmp_path):
    # 20450 selections; before a selection whose cone an earlier one covers
    # was skipped, the reduction of 65815 pooled rays took about 70 s
    A, p, q = dense_probe_data()
    problem = tmp_path / "probe12.json"
    problem.write_text(json.dumps({"kind": "span", "A": A, "p": p, "q": q}))
    src = str(Path(tropspan.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "tropspan", "solve", "--input", str(problem)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["enumeration"]["visited"] == 20450
    assert len(doc["generators"][0]) == 111


def test_solve_dense_18_by_18_draw_in_a_child_process(tmp_path):
    # draw 8 of Random(18): 7022 selections; when the distinct rays of the
    # built S1 were pooled and reduced pairwise, this took about 45 s CPU.
    # The digest is of S0 as that reduction gave it
    A, p, q = dense_probe_data(seed=18, n=18, draw=8)
    problem = tmp_path / "draw18.json"
    problem.write_text(json.dumps({"kind": "span", "A": A, "p": p, "q": q}))
    src = str(Path(tropspan.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "tropspan", "solve", "--input", str(problem)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["enumeration"]["visited"] == 7022
    assert len(doc["generators"][0]) == 1979
    assert hashlib.sha256(json.dumps(doc["generators"]).encode()).hexdigest() \
        == "18809cdb8f08356426d7265370fa52e119ad6dbcb3c120a12ed0fefde958f817"


def test_solve_writes_integral_half_unit_sums_as_integers(tmp_path, capsys):
    # Delta = -1/2 + 1/2: an integral value is a JSON integer, never "0"
    problem = tmp_path / "half.json"
    problem.write_text('{"kind": "span", "A": [["1/2"]], "p": ["1/2"], '
                       '"q": [0]}')
    code, out, err = run(capsys, "solve", "--input", str(problem))
    assert code == 0, err
    doc = json.loads(out)
    assert type(doc["delta"]) is int and doc["delta"] == 0
    assert doc["generators"] == [[0]]


def test_solve_writes_file(tmp_path, capsys):
    out_path = tmp_path / "solution.json"
    code, out, _ = run(capsys, "solve", "--input", SPAN,
                       "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["delta"] == 2


def test_solve_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = run(capsys, "solve", "--input", str(empty))
    assert code == 2
    assert "error" in err


def test_solve_infeasible(tmp_path, capsys):
    problem = {
        "kind": "schedule",
        "A": [[0, 0], [0, 0]],
        "B": [[1, "-inf"], ["-inf", "-inf"]],
        "C": [["-inf", "-inf"], ["-inf", "-inf"]],
        "f": [5, 5],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(problem))
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == 3
    assert "infeasible" in err


def test_solve_budget_exceeded(capsys):
    code, _, err = run(capsys, "solve", "--input", SCHEDULE, "--budget", "1")
    assert code == 4
    assert "budget" in err


def test_solve_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "literal", ["9" * 5000, "9" * 4100, "1e999999", '"1e9999999"'],
    ids=["digits", "digits-within-int-limit", "exponent", "string-exponent"])
def test_solve_refuses_oversized_literal(tmp_path, capsys, literal):
    path = tmp_path / "literal.json"
    path.write_text('{"kind": "span", "A": [[2, 0], [4, 1]], "p": [5, 2], '
                    f'"q": [{literal}, 2]}}')
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "needs more than 4000 digits" in err


def test_unexpected_exception_is_a_one_line_refusal(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_solve", boom)
    code, _, err = run(capsys, "solve", "--input", SPAN)
    assert code == 2
    assert err == "error: unexpected RuntimeError: boom\n"


def refused(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code, capsys.readouterr().err


def test_budget_below_one_is_refused(capsys):
    for budget in ("0", "-1"):
        code, err = refused(capsys, "solve", "--input", SPAN,
                            "--budget", budget)
        assert code == 2
        assert "--budget must be at least 1" in err


@pytest.mark.parametrize("command, flag", [
    ("verify", "--exhaustive"), ("verify", "--compact"),
    ("enumerate", "--compact"), ("plot", "--exhaustive"), ("plot", "--compact"),
])
def test_command_refuses_options_it_does_not_read(tmp_path, capsys, command,
                                                  flag):
    out_path = tmp_path / "out"
    needed = ("--candidates", SPAN) if command == "verify" else ()
    code, err = refused(capsys, command, "--input", SPAN, *needed,
                        "--output", str(out_path), flag)
    assert code == 2 and not out_path.exists()
    # argparse prints its usage, then the one error line
    assert err.count("error:") == 1
    assert err.endswith(f"tropspan: error: unrecognized arguments: {flag}\n")


def test_plot_window_must_be_finite_and_increasing(tmp_path, capsys):
    # the last two overflow: the scale of a subnormal width, and the width
    # from a 309-digit LO, which argparse reads as a negative number
    for window in (("5", "-5"), ("3", "3"), ("nan", "1"), ("0", "inf"),
                   ("-inf", "0"), ("0", "1e-320"), ("-1" + "0" * 308, "1e308")):
        code, err = refused(capsys, "plot", "--input", SPAN, "--output",
                            str(tmp_path / "plot.svg"), "--window", *window)
        assert code == 2
        assert "--window needs finite LO < HI" in err
    assert not (tmp_path / "plot.svg").exists()


def test_plot_window_reads_negative_exponent_bounds(tmp_path, capsys):
    svgs = []
    for lo in ("-1e5", "-100000"):
        out_path = tmp_path / "plot.svg"
        code, _, err = run(capsys, "plot", "--input", SPAN, "--output",
                           str(out_path), "--window", lo, "10")
        assert code == 0, err
        svgs.append(out_path.read_bytes())
    assert svgs[0] == svgs[1]
    # an option after one bound is still not taken for the second
    code, err = refused(capsys, "plot", "--input", SPAN, "--window", "-1e5",
                        "--budget", "3")
    assert code == 2
    assert "--window: expected 2 arguments" in err


def test_verify_accepts_solution_document(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--input", SCHEDULE)
    sol = tmp_path / "sol.json"
    sol.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", SCHEDULE,
                       "--candidates", str(sol))
    assert code == 0
    assert "result: PASS" in out
    assert "latest schedule feasible: OK" in out


def test_verify_accepts_exhaustive_solution_document(tmp_path, capsys):
    for problem in (SPAN, SCHEDULE, REDUCED):
        for flags in (("--exhaustive",), ()):
            _, out, _ = run(capsys, "solve", "--input", problem, *flags)
            sol = tmp_path / "sol.json"
            sol.write_text(out)
            code, out, _ = run(capsys, "verify", "--input", problem,
                               "--candidates", str(sol))
            assert code == 0, (problem, flags, out)
            assert "recomputation: OK" in out


def test_verify_budget_caps_the_recomputation(tmp_path, capsys):
    _, out, _ = run(capsys, "solve", "--input", SCHEDULE)
    assert json.loads(out)["enumeration"]["visited"] == 2
    sol = tmp_path / "sol.json"
    sol.write_text(out)
    code, out, err = run(capsys, "verify", "--input", SCHEDULE,
                         "--candidates", str(sol), "--budget", "1")
    assert code == 4 and out == ""
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "verify", "--input", SCHEDULE,
                       "--candidates", str(sol), "--budget", "2")
    assert code == 0 and "result: PASS" in out


def test_verify_builds_the_schedule_once(tmp_path, capsys, monkeypatch):
    _, out, _ = run(capsys, "solve", "--input", SCHEDULE)
    sol = tmp_path / "sol.json"
    sol.write_text(out)
    stars = []
    star = scheduling.kleene_star
    monkeypatch.setattr(scheduling, "kleene_star",
                        lambda m: stars.append(m) or star(m))
    code, out, _ = run(capsys, "verify", "--input", SCHEDULE,
                       "--candidates", str(sol))
    assert code == 0 and "result: PASS" in out
    assert len(stars) == 1


def test_verify_rejects_tampered_solution(tmp_path, capsys):
    _, out, _ = run(capsys, "solve", "--input", SCHEDULE)
    doc = json.loads(out)
    doc["delta"] = 4
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--input", SCHEDULE,
                       "--candidates", str(sol))
    assert code == 1
    assert "result: FAIL" in out


@pytest.mark.parametrize("problem, damage, missing", [
    (SPAN, lambda doc: doc.update(extended=[1]),
     "'extended.lower' for kind 'span-solution'"),
    (SCHEDULE, lambda doc: doc["latest"].pop("y"),
     "'latest.y' for kind 'schedule-solution'"),
], ids=["span-extended-not-an-object", "schedule-latest-y-missing"])
def test_verify_refuses_malformed_solution_document(tmp_path, capsys, problem,
                                                    damage, missing):
    _, out, _ = run(capsys, "solve", "--input", problem)
    doc = json.loads(out)
    damage(doc)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", problem,
                         "--candidates", str(sol))
    assert code == 2 and out == ""
    assert err == f"error: missing field {missing}\n"


@pytest.mark.parametrize("path, value, expected", [
    ("enumeration.visited", "abc", "a non-negative integer"),
    ("enumeration.visited", [1], "a non-negative integer"),
    ("enumeration.visited", 2.5, "a non-negative integer"),
    ("enumeration.visited", -3, "a non-negative integer"),
    ("enumeration.visited", True, "a non-negative integer"),
    ("enumeration.pruned", None, "a non-negative integer"),
    ("compact", "no", "true or false"),
    ("input_sha256", 7, "a string"),
])
def test_verify_refuses_mistyped_solution_header(tmp_path, capsys, path,
                                                 value, expected):
    _, out, _ = run(capsys, "solve", "--input", SPAN)
    doc = json.loads(out)
    *parents, name = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[name] = value
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", SPAN,
                         "--candidates", str(sol))
    assert code == 2 and out == ""
    assert err == f"error: {path}: expected {expected}\n"


def test_verify_refusal_order(tmp_path, capsys):
    # candidates are read before the problem is built, and the problem is
    # built before a solution document of the other kind is refused
    infeasible = tmp_path / "cyclic.json"
    infeasible.write_text(json.dumps({
        "kind": "schedule", "A": [[0, 0], [0, 0]],
        "B": [[1, "-inf"], ["-inf", "-inf"]],
        "C": [["-inf", "-inf"], ["-inf", "-inf"]], "f": [5, 5]}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "candidates"}')
    solved = {}
    for name, problem in (("span", SPAN), ("schedule", SCHEDULE)):
        solved[name] = tmp_path / f"{name}.json"
        solved[name].write_text(run(capsys, "solve", "--input", problem)[1])
    for problem, candidates, code, err in (
            (infeasible, bad, 2, "error: candidates: expected a non-empty "
                                 "'schedules' array\n"),
            (infeasible, solved["span"], 3, "infeasible: "),
            (SCHEDULE, solved["span"], 2,
             "error: expected a span problem, got schedule\n"),
            (SPAN, solved["schedule"], 2,
             "error: expected a schedule problem, got span\n")):
        got = run(capsys, "verify", "--input", str(problem),
                  "--candidates", str(candidates))
        assert got[:2] == (code, "")
        assert got[2].startswith(err) and got[2].count("\n") == 1


def test_verify_span_candidates(tmp_path, capsys):
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"kind": "candidates",
                                 "vectors": [[1, 2], [0, 5], [0, "-inf"]]}))
    code, out, _ = run(capsys, "verify", "--input", SPAN,
                       "--candidates", str(cands))
    assert code == 1
    assert out == ("delta: 2\n"
                   "candidate 1: PASS objective=2 delta=2\n"
                   "candidate 2: FAIL objective=3 delta=2\n"
                   "candidate 3: FAIL (not regular)\n"
                   "result: FAIL\n")


def test_verify_schedule_candidates(tmp_path, capsys):
    # the second schedule breaks rows of all four constraint families; the
    # violations are listed by family, then by row
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({
        "kind": "candidates",
        "schedules": [{"x": [1, 5, 3], "y": [4, 7, 7]},
                      {"x": [0, 0, 0], "y": [100, 100, 100]}],
    }))
    code, out, _ = run(capsys, "verify", "--input", SCHEDULE,
                       "--candidates", str(cands))
    assert code == 1
    assert out == (
        "delta: 3\n"
        "schedule 1: PASS span=3 delta=3\n"
        "schedule 2: FAIL span=0 delta=3 violations: start-finish row 1; "
        "start-finish row 2; start-finish row 3; start-start row 2; "
        "start-start row 3; finish-start row 2; finish-start row 3; "
        "late-finish row 1; late-finish row 2; late-finish row 3\n"
        "result: FAIL\n")


def test_verify_schedule_pairs_needs_no_solve(tmp_path, capsys, monkeypatch):
    # Delta of the reduced span problem is all a pair is checked against
    def refuse(*args, **kwargs):
        raise AssertionError("verify of schedule pairs solved the schedule")

    monkeypatch.setattr(scheduling, "complete_solution", refuse)
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps({"kind": "candidates",
                                 "schedules": [{"x": [1, 5, 3], "y": [4, 7, 7]}]}))
    code, out, err = run(capsys, "verify", "--input", SCHEDULE,
                         "--candidates", str(cands))
    assert code == 0, err
    assert out == "delta: 3\nschedule 1: PASS span=3 delta=3\nresult: PASS\n"


def test_enumerate_default(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", SPAN)
    assert code == 0
    assert "delta: 2" in out
    assert "selections: 1 emitted, 1 pruned, 2 total" in out
    assert "selection 1: rows -> columns [1, 1]" in out
    assert "[0, -1]" in out and "[-inf, 0]" in out
    assert "pruned selection: rows -> columns [1, 2]" in out


def test_enumerate_exhaustive(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", SPAN, "--exhaustive")
    assert code == 0
    assert "selection 1: rows -> columns [1, 1] [emitted]" in out
    assert "selection 2: rows -> columns [1, 2] [pruned]" in out
    assert out.count("S1:") == 2


@pytest.mark.parametrize("path, flags, digest", [
    (SPAN, (), "7d9f34bcd82bef0d42959f77bfbfa4b8995b3963e27c481a9f085167a8f7bcbb"),
    (SPAN, ("--exhaustive",),
     "2dd397038501976b8906fe1bd56b1fe332a2d88bd0b2bde228661f02fd785a54"),
    (REDUCED, (),
     "bb8317f44ff5706950fa51a1466654995c3f253bee3f86c283d3621994d4a244"),
    (REDUCED, ("--exhaustive",),
     "2df5c33968a81da6fc5361888238f70a9fb515efc9a93614ed1d04aee17c8d49"),
    (PROBE, (), "1bf4744efa1f639ac6b9a8419f1486a77e3f2bb6b31a257e3d1df56a2e08bcc1"),
    (PROBE, ("--exhaustive",),
     "10e6b03bd0bf12d22be36c91c3420651a2c57be1f7f14de8576a64b5409826e0"),
], ids=["demo", "demo-exhaustive", "reduced", "reduced-exhaustive", "probe",
        "probe-exhaustive"])
def test_enumerate_golden_bytes(capsys, path, flags, digest):
    # sha256 of the whole listing: A1 and S1 of every selection, the emitted
    # or pruned mark, and the pruned selections after the plain listing
    code, out, err = run(capsys, "enumerate", "--input", path, *flags)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exhaustive_family_over_the_budget_is_refused_before_walking(
        tmp_path, capsys):
    # 14 rows of 4 columns: the exhaustive family is far above the default
    # budget, and counting it takes no walk
    rng = random.Random(1)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "kind": "span",
        "A": [[rng.randint(0, 3) for _ in range(4)] for _ in range(14)],
        "p": [0] * 14, "q": [0] * 4}))
    for command in ("solve", "enumerate"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--input", str(path),
                             "--exhaustive")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "budget exceeded: more than 1000000 selections\n"


def test_enumerate_reduced_schedule_problem(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", REDUCED)
    assert code == 0
    assert "delta: 3" in out
    assert "selection 1: rows -> columns [1, 1, 1]" in out
    assert "selection 2: rows -> columns [2, 2, 2]" in out


def test_enumerate_single_column(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"kind": "span", "A": [[3], [1]],
                                "p": [0, 0], "q": [0]}))
    code, out, _ = run(capsys, "enumerate", "--input", str(path))
    assert code == 0
    assert "selections: 1 emitted, 0 pruned, 1 total" in out


def test_plot_span(tmp_path, capsys):
    out_path = tmp_path / "plot.svg"
    code, _, _ = run(capsys, "plot", "--input", SPAN, "--output", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg")
    assert "s1" in svg and "s2" in svg
    assert "polygon" in svg
    # identical runs render identical bytes
    again = tmp_path / "again.svg"
    run(capsys, "plot", "--input", SPAN, "--output", str(again))
    assert again.read_text() == svg


def test_plot_rejects_higher_dimension(capsys):
    code, _, err = run(capsys, "plot", "--input", REDUCED)
    assert code == 2
    assert "2-column" in err


def test_plot_degenerate_interval(tmp_path, capsys):
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"kind": "span", "A": [[0, 0], [0, 0]],
                                "p": [0, 0], "q": [0, 0]}))
    code, _, _ = run(capsys, "plot", "--input", str(path),
                     "--output", str(tmp_path / "ray.svg"))
    assert code == 0
    svg = (tmp_path / "ray.svg").read_text()
    assert "<svg" in svg


def test_plot_far_narrow_window_ends(tmp_path, capsys):
    # one step across the window is below half the float spacing at 1e17, so
    # the hatch ticks no longer advance; their count still ends the loop
    out_path = tmp_path / "plot.svg"
    start = time.perf_counter()
    code, _, err = run(capsys, "plot", "--input", SPAN, "--output", str(out_path),
                       "--window", "1e17", "1.0000000000000002e17")
    assert time.perf_counter() - start < 2.0
    assert code == 0, err
    svg = out_path.read_text()
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("q, options, message", [
    ([0, 10 ** 400], [], "plotting needs scalars within the float range"),
    ([0, 10 ** 308], [], None),
    ([0, 10 ** 308], ["--window", str(-10 ** 307), "1e308"],
     "plotting needs pixel coordinates within the float range"),
], ids=["scalar", "pixel", "pixel-window"])
def test_plot_refuses_values_beyond_float_range(tmp_path, capsys, q, options,
                                                message):
    # solve takes the problem.  plot draws the ray to 10^308 clipped to the
    # window, and leaves out the strip's boundary far outside it; but it
    # refuses a scalar beyond the float range, and a window reaching so far
    # that the boundary's end overflows, before writing
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"kind": "span", "A": [[0, 0], [0, 0]],
                                "p": [0, 0], "q": q}))
    assert run(capsys, "solve", "--input", str(path))[0] == 0
    out_path = tmp_path / "far.svg"
    code, _, err = run(capsys, "plot", "--input", str(path),
                       "--output", str(out_path), *options)
    if message is None:
        assert code == 0, err
        svg = out_path.read_text()
        assert "nan" not in svg and "inf" not in svg
        # the ray s2 runs up the vertical axis to the window's top edge
        assert ('<line x1="260.00" y1="260.00" x2="260.00" y2="30.00" '
                'stroke="#111"') in svg
        return
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not out_path.exists()


def test_render_refuses_a_window_before_solving(monkeypatch):
    def unsolved(*args, **kwargs):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(plotting, "complete_solution", unsolved)
    prob = SpanProblem(mat([[0, 0], [0, 0]]), vec([0, 0]), vec([0, 0]))
    for window in ((1, 1), (0, 1e-320), (-1e308, 1e308)):
        with pytest.raises(ValidationError, match="^window needs finite LO < HI"):
            render_span_svg(prob, window=window)


def test_plot_budget_none_means_no_cap():
    # the same meaning as in complete_solution: the two selections of this
    # problem overrun a budget of 1 and fit under none
    prob = SpanProblem(mat([[0, 0], [0, 0]]), vec([0, 0]), vec([0, 0]))
    with pytest.raises(EnumerationBudgetExceeded):
        render_span_svg(prob, budget=1)
    assert render_span_svg(prob, budget=None) == render_span_svg(prob)


@pytest.mark.parametrize("sf", [MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.name)
def test_plot_refuses_other_semifields(sf, monkeypatch):
    # the picture is max-plus geometry: over max-times this span is a cone
    # through the origin, not a 45-degree strip; refused before solving
    def unsolved(*args, **kwargs):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(plotting, "complete_solution", unsolved)
    prob = SpanProblem(mat([[2, 1], [1, 3]], sf), vec([1, 1], sf), vec([1, 1], sf))
    with pytest.raises(ValidationError, match="^plotting needs a max-plus problem"):
        render_span_svg(prob)


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    text = Path(SPAN).read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "solve")
    assert code == 0
    assert json.loads(out)["delta"] == 2


@pytest.mark.parametrize("argv, candidates, code, start", [
    (["enumerate", "--input", SCHEDULE], None, 2,
     "error: expected a span problem, got schedule"),
    (["plot", "--input", SCHEDULE], None, 2,
     "error: expected a span problem, got schedule"),
    (["verify", "--input", SPAN], {"kind": "candidates", "vectors": [[0, "-inf"]]},
     1, "candidate 1: FAIL (not regular)"),
    (["enumerate", "--input", SPAN, "--budget", "1"], None, 0,
     "pruned selections not listed: total exceeds budget"),
], ids=["enumerate-schedule", "plot-schedule", "verify-not-regular",
        "enumerate-pruned-over-budget"])
def test_rarely_taken_branches(tmp_path, capsys, argv, candidates, code, start):
    if candidates is not None:
        path = tmp_path / "candidates.json"
        path.write_text(json.dumps(candidates))
        argv = [*argv, "--candidates", str(path)]
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert any(line.startswith(start) for line in (out + err).splitlines())
