"""``tools/count_code_lines.py``: the code-line counter simplicity claims
quote (non-blank, non-comment, non-docstring lines)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    size = 3

    def method(self):
        """Function docstring,

        with a blank line inside."""
        text = """a multi-line string
that is not a docstring

has four lines"""
        return text


def helper():
    """One line."""
    return os.sep
'''

# import, class, size, def method, the string's three non-blank lines
# (its blank one is blank), return text, def helper, return os.sep.
SAMPLE_LINES = 10


def load_tool():
    spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_fixture():
    assert load_tool().count_code_lines(SAMPLE) == SAMPLE_LINES


#: One rule each: (source, code lines).
RULES = {
    "blank-lines": ("\n   \n\t\n", 0),
    "comment-lines": ("# one\n# two\n", 0),
    "trailing-comment": ("x = 1  # note\n", 1),
    "one-line-module-docstring": ('"""Doc."""\nx = 1\n', 1),
    "single-quoted-docstring": ("'Doc.'\nx = 1\n", 1),
    "class-docstring": ('class A:\n    """Doc,\n    more."""\n', 1),
    "function-docstring": ('def f():\n    """Doc."""\n    return 1\n', 2),
    "async-function-docstring": (
        'async def f():\n    """Doc."""\n    return 1\n', 2
    ),
    "nested-function-docstring": (
        'def f():\n    def g():\n        """Doc."""\n    return g\n', 3
    ),
    "string-after-the-first-statement": ('x = 1\n"""Not a docstring."""\n', 2),
    "bytes-in-docstring-position": ('def f():\n    b"""Bytes."""\n', 2),
    "multi-line-string-with-a-blank-line": ('x = """a\n\nb"""\n', 2),
    "bracketed-continuation": ("x = (\n    1,\n\n    2,\n)\n", 4),
    "backslash-continuation": ("x = 1 + \\\n    2\n", 2),
    "decorated-function": ("@staticmethod\ndef f():\n    pass\n", 3),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_counts_each_rule(rule):
    source, lines = RULES[rule]
    assert load_tool().count_code_lines(source) == lines


def test_cli_prints_per_file_counts_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# comment\n")
    assert load_tool().main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(SAMPLE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "b.py")],
        [str(SAMPLE_LINES + 1), "total"],
    ]
