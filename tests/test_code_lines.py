import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return (len(text)
                + 1)
'''


def test_counts_code_lines_outside_docstrings_and_comments():
    # import, class, def, the two lines of the string and the two of return
    assert code_lines.code_lines(SAMPLE) == 7
