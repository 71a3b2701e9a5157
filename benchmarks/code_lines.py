"""Count code lines in a Python source tree.

A code line is a line that carries at least one token other than a
comment, a blank/newline or an indent marker, and that is not part of a
module, class or function docstring.  This is the measure the ROADMAP's
simplification targets are stated in.

Usage::

    python benchmarks/code_lines.py src/repro             # total
    python benchmarks/code_lines.py src/repro --by-file   # per module
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if not (isinstance(node, _DOC_OWNERS) and body):
            continue
        first = body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> int:
    """Code lines of one Python file."""
    source = path.read_text()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    code = {
        line
        for tok in tokens
        if tok.type not in _NON_CODE
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(code - _docstring_lines(source))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=pathlib.Path)
    parser.add_argument(
        "--by-file", action="store_true", help="print per-module counts"
    )
    args = parser.parse_args(argv)
    counts = {p: count(p) for p in sorted(args.root.rglob("*.py"))}
    if args.by_file:
        for path, n in counts.items():
            print(f"{n:6d}  {path.relative_to(args.root)}")
    print(sum(counts.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
