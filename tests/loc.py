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

It then prints each value record, a class that derives from ``_Record``
and names its fields in ``__slots__``, with its field count, and the
total of those counts: the values a caller can set on the records.
Last, when the package has an ``__init__.py``, it prints the number of
public names, ``len(__all__)`` of the package as that file defines it.
"""

import ast
import importlib.util
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


def record_fields(source: str) -> list:
    """(class name, field count) of each class in source that derives from
    _Record and names its fields in a __slots__ tuple."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "_Record"
                for b in node.bases)):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Tuple) and stmt.value.elts
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in stmt.targets)):
                out.append((node.name, len(stmt.value.elts)))
    return out


def public_names(package: pathlib.Path) -> int | None:
    """len(__all__) of the package, from running its __init__.py on its
    own (equisep's loads no submodule), or None when it has none."""
    init = package / "__init__.py"
    if not init.exists():
        return None
    spec = importlib.util.spec_from_file_location(
        package.name, init, submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return len(module.__all__)


def main(package: pathlib.Path = PACKAGE) -> tuple:
    total_code = total_lines = 0
    records = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, lines = count(source)
        total_code += code
        total_lines += lines
        records += record_fields(source)
        print(f"{path.name:<20} {code:>6} {lines:>6}")
    print(f"{'total':<20} {total_code:>6} {total_lines:>6}")
    print()
    for name, fields in records:
        print(f"{name:<27} {fields:>6}")
    print(f"{'total fields':<27} {sum(n for _, n in records):>6}")
    names = public_names(package)
    if names is not None:
        print(f"{'public names':<27} {names:>6}")
    return total_code, total_lines


if __name__ == "__main__":
    main()
