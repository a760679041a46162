"""Line counts of the ``fsrecon`` package, per module and in total.

    python scripts/src_loc.py                      # src/fsrecon of this tree
    python scripts/src_loc.py path/to/src/fsrecon  # another tree

``lines`` counts every line, as ``wc -l`` does.  ``code`` counts the lines
that hold code: not blank, not only a comment, and not part of a docstring
(a string that is the first statement of a module, class or function).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsrecon"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("package", nargs="?", type=Path, default=SRC)
    args = ap.parse_args(argv)
    modules = sorted(args.package.rglob("*.py"))
    if not modules:
        print(f"no .py file under {args.package}", file=sys.stderr)
        return 1
    rows = [(str(path.relative_to(args.package)), *count(path.read_text())) for path in modules]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':{width}s} {'lines':>6s} {'code':>6s}")
    for name, lines, code in rows:
        print(f"{name:{width}s} {lines:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
