"""Line counts of the library's sources: every line, as ``wc -l`` counts
them, and the lines that hold code, outside docstrings, comments and blank
lines.

A docstring is the first statement of a module, class or function when that
statement is a string (found with ``ast``).  A code line is one that a
token other than COMMENT, NL, NEWLINE, INDENT, DEDENT or ENDMARKER starts
or spans (found with ``tokenize``), outside every docstring.

Usage: python tools/src_lines.py [FILE ...]   (default: src/hermgauss/*.py)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path):
    """(all lines, code lines) of one source file."""
    text = Path(path).read_text(encoding="utf-8")
    code = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type not in _SKIP
            for line in range(tok.start[0], tok.end[0] + 1)}
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(paths):
    paths = paths or sorted(map(str, Path("src/hermgauss").glob("*.py")))
    total = [0, 0]
    print(f"{'wc -l':>7} {'code':>7}  file")
    for path in paths:
        lines, code = counts(path)
        total[0] += lines
        total[1] += code
        print(f"{lines:7d} {code:7d}  {path}")
    print(f"{total[0]:7d} {total[1]:7d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
