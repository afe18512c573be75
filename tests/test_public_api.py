"""Every name that benchmark/ and tools/ import from tropspan resolves, and
the benchmark's traced calls run.

The scripts are parsed with ast, and imports nested in functions count too:
deleting a public name they use fails here rather than in a benchmark run.
The traced mirror of the in-process workloads calls library functions with
its own argument shapes, so it is also run once on the sample problems.
The README's quickstart is run as well, and its commented values checked.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

from tropspan import complete_solution, solve_schedule
from tropspan.documents import parse_problem
from tropspan.plotting import render_span_svg

ROOT = Path(__file__).resolve().parent.parent


def _tropspan_imports(path: Path):
    """(module, name) of each import from tropspan in a file; name is None
    for a plain import of the module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tropspan":
                    yield alias.name, None
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "tropspan"):
            for alias in node.names:
                yield node.module, alias.name


def _resolves(module: str, name: str | None) -> bool:
    """What the import statement finds: an attribute or a submodule."""
    found = importlib.import_module(module)
    if name is None or hasattr(found, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_and_tools_imports_resolve():
    scripts = sorted([*ROOT.glob("benchmark/*.py"), *ROOT.glob("tools/*.py")])
    imports = {(path.relative_to(ROOT).as_posix(), module, name)
               for path in scripts for module, name in _tropspan_imports(path)}
    assert len(imports) > 10, "found too few imports to be reading the scripts"
    missing = [f"{path}: {module}" + (f".{name}" if name else "")
               for path, module, name in sorted(imports, key=str)
               if not _resolves(module, name)]
    assert not missing, missing


def test_benchmark_traced_calls_run_on_the_samples(monkeypatch):
    # as cliround.traced_layers runs them: each problem through the traced
    # mirror, and the picture of each two-column span problem
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    try:
        inprocess = importlib.import_module("inprocess")
        trace = inprocess.Trace()
        kinds = set()
        for path in sorted((ROOT / "tests" / "data").glob("*.json")):
            doc = parse_problem(path.read_text(encoding="utf-8"))
            kinds.add(doc.kind)
            if doc.kind == "span":
                prob = doc.to_span_problem()
                sol = inprocess.traced_span(
                    tuple(doc.entries[k] for k in ("A", "p", "q")), trace)
                assert sol.generators == complete_solution(prob).generators
                if prob.A.cols == 2:
                    assert render_span_svg(prob).startswith("<svg")
            else:
                delta, _, _ = inprocess.traced_schedule(
                    tuple(doc.entries[k] for k in "ABCf"), trace)
                assert delta == solve_schedule(doc.problem()).delta
    finally:
        for name in ("inprocess", "corpus", "harness", "oracle"):
            sys.modules.pop(name, None)
    assert kinds == {"span", "schedule"}
    assert trace.values["scheduling.reduced_problem_ms"] > 0
    assert trace.values["linalg.reduce_ms"] > 0


def test_readme_quickstart_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    names: dict = {}
    exec(blocks[0], names)
    assert names["sol"].delta == 2
    assert names["sched"].delta == 3
    x, y = names["latest_schedule"](names["sched"])
    assert (x.entries, y.entries) == ((1, 5, 3), (4, 7, 7))
