"""Count code lines: non-blank, non-comment, non-docstring.

    python tools/count_code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively for
them. Prints one ``count  path`` line per file, then the total. A line
counts when it is not blank and some token other than a comment covers
it, outside the docstring of a module, class or function; every line
of any other string, multi-line ones included, counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines in one module's source text."""
    text = source.splitlines()
    covered: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            covered.update(range(tok.start[0], tok.end[0] + 1))
    covered -= _docstring_lines(ast.parse(source))
    return sum(1 for n in covered if text[n - 1].strip())


def _python_files(paths) -> list[Path]:
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help=".py files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in _python_files(args.paths):
        n = count_code_lines(path.read_text())
        total += n
        print(f"{n:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
