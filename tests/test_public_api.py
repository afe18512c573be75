"""Every name that benchmark/ and tools/ import from tropspan resolves.

The scripts are parsed with ast, never imported, and imports nested in
functions count too: deleting a public name they use fails here rather than
in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

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
