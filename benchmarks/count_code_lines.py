"""Count the code lines of a Python source tree, per package and in total.

A code line is a non-blank line that holds Python tokens outside comments
and docstrings (the docstrings of modules, classes and functions).  Every
physical line of a statement counts, continuation lines included, and so
does every line of a multi-line string that is not a docstring.  This is
the count the change log quotes for ``src/``.

Usage::

    python benchmarks/count_code_lines.py src [other trees ...]

For each tree it prints one row per package directory (the ``.py`` files
directly inside it), then the tree's total, as code lines and physical
lines.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NON_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
})


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> dict[str, tuple[int, int]]:
    """``package -> (code lines, physical lines)`` for every directory
    under ``root`` holding ``.py`` files, keyed by its path from ``root``."""
    counts: dict[str, tuple[int, int]] = {}
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        package = path.parent.relative_to(root).as_posix()
        code, physical = counts.get(package, (0, 0))
        counts[package] = (
            code + code_lines(source),
            physical + len(source.splitlines()),
        )
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path)
    args = parser.parse_args(argv)
    for root in args.trees:
        counts = count_tree(root)
        total = (
            sum(code for code, _ in counts.values()),
            sum(physical for _, physical in counts.values()),
        )
        rows = sorted(counts.items()) + [(f"total ({root})", total)]
        width = max(len(name) for name, _ in rows)
        print(f"{'package':<{width}} {'code':>7} {'physical':>9}")
        for name, (code, physical) in rows:
            print(f"{name:<{width}} {code:>7} {physical:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
