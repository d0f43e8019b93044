"""Count the code lines of Python files: every line that holds code, less
blank lines, comments and the docstrings of modules, classes and functions.

    python tools/code_lines.py src/multikmeans

prints one count per file, then the total. A directory argument stands for
every .py file below it. Uses only the standard library.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Lines of source that hold a token of code outside every docstring."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def _python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
        else:
            yield path


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in _python_files(argv):
        with open(path, encoding="utf-8") as f:
            n = count_code_lines(f.read())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
