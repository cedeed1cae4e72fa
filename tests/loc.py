"""Line counts of the package, the measure that ROADMAP.md and CHANGES.md
quote for its size.

Run ``python3 -m tests.loc`` from the repository root.  It prints, for
each module of ``src/equisep`` and in total, two counts:

- code lines: the physical lines that hold a token of code.  Blank
  lines, comments and the docstrings of modules, classes and functions
  are left out; a statement, or a string, over several lines counts
  each line it spans.
- non-blank lines: every line with a character other than white space,
  comments and docstrings included.
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "equisep"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(code lines, non-blank lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(code), sum(1 for line in source.splitlines() if line.strip())


def main(package: pathlib.Path = PACKAGE) -> tuple:
    total_code = total_lines = 0
    for path in sorted(package.glob("*.py")):
        code, lines = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print(f"{path.name:<20} {code:>6} {lines:>6}")
    print(f"{'total':<20} {total_code:>6} {total_lines:>6}")
    return total_code, total_lines


if __name__ == "__main__":
    main()
