"""Command-line driver.

    tropspan solve     --input problem.json --output solution.json
    tropspan verify    --input problem.json --candidates cand.json
    tropspan enumerate --input problem.json
    tropspan plot      --input problem.json --output picture.svg

Exit codes: 0 success, 1 verification found failures, 2 parse or validation
problems, 3 cyclic precedence with positive lag, 4 enumeration budget
exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import documents as docs
from .errors import (
    EnumerationBudgetExceeded,
    InfeasiblePrecedence,
    TropicalError,
    ValidationError,
)
from .plotting import render_span_svg, window_scale
from .scheduling import (
    check_schedule,
    compact_generators,
    latest_schedule,
    reduced_span_problem,
    solve_schedule,
)
from .linalg import depends_on
from .solvers import interval_to_generators
from .spanopt import (
    DEFAULT_ENUMERATION_BUDGET,
    SpanProblem,
    attains_minimum,
    check_budget,
    complete_solution,
    enumerate_selections,
    extended_interval,
    objective,
    selection_count,
    selection_generators,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- solve --------------------------------------------------------------------

def _solution_document(problem, digest, *, budget, prune, compact):
    if isinstance(problem, SpanProblem):
        sol = complete_solution(problem, budget=budget, prune=prune)
        interval = extended_interval(problem)
        kind = docs.KIND_SPAN_SOLUTION
        entries = {"generators": sol.generators.generators,
                   "extended.lower": interval.lower,
                   "extended.upper": interval.upper,
                   "extended.generators":
                       interval_to_generators(interval).generators}
    else:
        sol = solve_schedule(problem, budget=budget, prune=prune)
        if compact:
            sol = compact_generators(sol)
        x_latest, y_latest = latest_schedule(sol)
        kind = docs.KIND_SCHEDULE_SOLUTION
        entries = {"span_generators": sol.span_generators,
                   "x_generators": sol.x_generators,
                   "y_generators": sol.y_generators,
                   "coefficient_bound": sol.coeff_bound,
                   "latest.x": x_latest,
                   "latest.y": y_latest}
    return docs.SolutionDocument(
        kind=kind,
        input_sha256=digest,
        delta=sol.delta,
        enumeration_visited=sol.enumerated_count,
        enumeration_pruned=sol.pruned_count,
        compact=compact,
        entries=entries,
    )


def cmd_solve(args) -> int:
    text = _read(args.input)
    problem = docs.parse_problem(text).problem()
    solution = _solution_document(problem, docs.input_digest(text),
                                  budget=args.budget, prune=not args.exhaustive,
                                  compact=args.compact)
    _write(args.output, docs.serialize_solution(solution))
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _verify_span_vectors(prob, vectors) -> tuple[list[str], bool]:
    fmt = prob.semifield.format_scalar
    lines = [f"delta: {fmt(prob.delta)}"]
    all_ok = True
    for i, vec in enumerate(vectors, start=1):
        if not vec.is_regular():
            lines.append(f"candidate {i}: FAIL (not regular)")
            all_ok = False
            continue
        value = objective(prob, vec)
        ok = value == prob.delta
        all_ok &= ok
        lines.append(f"candidate {i}: {'PASS' if ok else 'FAIL'} "
                     f"objective={fmt(value)} delta={fmt(prob.delta)}")
    return lines, all_ok


def _verify_schedule_pairs(inst, pairs) -> tuple[list[str], bool]:
    delta = reduced_span_problem(inst).delta
    fmt = inst.semifield.format_scalar
    lines = [f"delta: {fmt(delta)}"]
    all_ok = True
    for i, (x, y) in enumerate(pairs, start=1):
        report = check_schedule(inst, x, y)
        ok = report.ok and report.span == delta
        all_ok &= ok
        line = (f"schedule {i}: {'PASS' if ok else 'FAIL'} "
                f"span={fmt(report.span)} delta={fmt(delta)}")
        if not report.ok:
            line += " violations: " + "; ".join(report.failures)
        lines.append(line)
    return lines, all_ok


def _verify_solution_document(doc, problem, digest, given, *,
                              budget) -> tuple[list[str], bool]:
    span = given.kind == docs.KIND_SPAN_SOLUTION
    kind = docs.KIND_SPAN if span else docs.KIND_SCHEDULE
    # checked once the problem is built, which refuses an infeasible one first
    if doc.kind != kind:
        raise ValidationError(f"expected a {kind} problem, got {doc.kind}")
    # a document that records no pruned selection may come from either walk;
    # both emit the same selections then, so the exhaustive one reproduces it
    expected = _solution_document(problem, digest, budget=budget,
                                  prune=given.enumeration_pruned > 0,
                                  compact=given.compact)
    checks = [("input hash", given.input_sha256 == digest),
              ("recomputation", docs.serialize_solution(expected)
               == docs.serialize_solution(given))]
    if span:
        generators = given.entries["generators"]
        checks += [
            ("delta", given.delta == problem.delta),
            ("generator columns attain delta",
             all(attains_minimum(problem, c) for c in generators.columns())),
            ("q lies in the generator span",
             depends_on(generators, problem.q))]
    else:
        report = check_schedule(problem, given.entries["latest.x"],
                                given.entries["latest.y"])
        checks += [("latest schedule feasible", report.ok),
                   ("latest schedule attains delta", report.span == given.delta)]
    lines = [f"{name}: {'OK' if ok else 'MISMATCH'}" for name, ok in checks]
    return lines, all(ok for _, ok in checks)


def cmd_verify(args) -> int:
    text = _read(args.input)
    doc = docs.parse_problem(text)
    # candidates are read before the problem is built, so a malformed
    # candidates file is refused (exit 2) even for an infeasible schedule
    shape, payload = docs.parse_candidates(_read(args.candidates), doc)
    problem = doc.problem()
    if shape == "solution":
        lines, ok = _verify_solution_document(doc, problem, docs.input_digest(text),
                                              payload, budget=args.budget)
    elif shape == "vectors":
        lines, ok = _verify_span_vectors(problem, payload)
    else:
        lines, ok = _verify_schedule_pairs(problem, payload)
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# -- enumerate ----------------------------------------------------------------

def cmd_enumerate(args) -> int:
    text = _read(args.input)
    doc = docs.parse_problem(text)
    prob = doc.to_span_problem()
    sparse, exhaustive = prob.sparsified, args.exhaustive
    total = selection_count(sparse, prob.p)
    if exhaustive:
        check_budget(total, args.budget)
    emitted = list(enumerate_selections(sparse, prob.p, budget=args.budget))
    emitted_keys = {sel.chosen_col for sel in emitted}
    # the pruned walk never visits a pruned selection, so listing one takes
    # the exhaustive walk
    every = (enumerate_selections(sparse, prob.p, prune=False,
                                  budget=args.budget)
             if exhaustive or len(emitted) < total <= args.budget else ())
    lines = [f"delta: {prob.semifield.format_scalar(prob.delta)}",
             "sparsified:", repr(sparse),
             f"selections: {len(emitted)} emitted, "
             f"{total - len(emitted)} pruned, {total} total"]
    for i, sel in enumerate(every if exhaustive else emitted, start=1):
        status = "emitted" if sel.chosen_col in emitted_keys else "pruned"
        lines.extend([f"selection {i}: rows -> columns "
                      f"{[j + 1 for j in sel.chosen_col]}"
                      + (f" [{status}]" if exhaustive else ""),
                      "A1:", repr(sel.materialize(sparse)),
                      "S1:", repr(selection_generators(sel, prob).generators)])
    if not exhaustive:
        lines.extend(f"pruned selection: rows -> columns "
                     f"{[j + 1 for j in sel.chosen_col]}"
                     for sel in every if sel.chosen_col not in emitted_keys)
        if total > args.budget:
            lines.append("pruned selections not listed: total exceeds budget")
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# -- plot ---------------------------------------------------------------------

def cmd_plot(args) -> int:
    text = _read(args.input)
    doc = docs.parse_problem(text)
    prob = doc.to_span_problem()
    svg = render_span_svg(prob, window=(args.window[0], args.window[1]),
                          budget=args.budget)
    _write(args.output, svg)
    return EXIT_OK


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropspan",
        description="Exact max-plus span optimization and just-in-time "
                    "scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *, exhaustive=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", default="-", metavar="PATH",
                       help="problem file, or - for stdin (default)")
        p.add_argument("--output", default="-", metavar="PATH",
                       help="where to write the result, - for stdout (default)")
        p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                       metavar="N", help="cap on enumerated selections")
        if exhaustive:
            p.add_argument("--exhaustive", action="store_true",
                           help="disable enumeration pruning (for comparison)")
        p.set_defaults(func=func)
        return p

    p_solve = command("solve", cmd_solve, "compute the complete solution",
                      exhaustive=True)
    p_solve.add_argument("--compact", action="store_true",
                         help="merge collinear generator columns of a "
                              "schedule; only recorded for a span problem")

    p_verify = command("verify", cmd_verify, "check candidate vectors or a "
                                             "solution document")
    p_verify.add_argument("--candidates", required=True, metavar="PATH",
                          help="candidates file or solution document, - for stdin")

    command("enumerate", cmd_enumerate, "list row selections and their "
                                        "generators", exhaustive=True)

    p_plot = command("plot", cmd_plot, "render a 2-D solution set as SVG")
    p_plot.add_argument("--window", type=float, nargs=2, default=(-10.0, 10.0),
                        metavar=("LO", "HI"), help="square viewing window")
    # a bound such as -1e5 or -inf is a number, not an option
    p_plot._negative_number_matcher = re.compile(r"^-(?:\.?\d|inf$)")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Options in range, or exit 2; the parser is freed before any command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error(f"--budget must be at least 1, got {args.budget}")
    if args.command == "plot":
        try:
            window_scale(*args.window)
        except ValidationError as exc:
            parser.error(f"--{exc}")  # "--window needs ..."
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except InfeasiblePrecedence as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EnumerationBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (TropicalError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # RecursionError, MemoryError, any other fault
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
