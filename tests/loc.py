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

It then prints, for each command-line call of CALLS, the code lines of
the modules that call loads: ``__init__``, ``_record``, ``cli`` and the
library modules of its row, all compiled from source when a CLI call
starts.  It then prints each value record, a class that derives from
``_Record`` and names its fields in ``__slots__``, with its field count,
and the total of those counts: the values a caller can set on the
records.
Last, when the package has an ``__init__.py``, it prints the number of
public names, ``len(__all__)`` of the package as that file defines it.
When its reader closes stdout early, as ``| head -1`` does, it exits 141
with nothing on stderr (quiet_when_stdout_closes, which tests.reach
shares).
"""

import ast
import contextlib
import importlib.util
import io
import os
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "equisep"
# Each command-line call by name, with its arguments and the library
# modules it loads besides __init__, _record and cli;
# tests/test_cli.py::test_verb_loads_only_its_modules checks each row in
# a child interpreter.
_CENSUS = ["group_core", "burnside", "conditions", "families", "groupoid_calc",
           "classifier"]  # what a classify answered by the census loads
CALLS = {
    "subgroups": (["subgroups", "--group", "S3", "--format", "text"], ["group_core"]),
    # a perm: spec runs the cycle reader
    "subgroups-perm": (["subgroups", "--group", "perm:5:(1 2 3 4 5);(1 2)"],
                       ["group_core"]),
    "burnside": (["burnside", "--group", "S3"], ["group_core"]),
    "marks": (["marks", "--group", "S3"], ["group_core", "burnside"]),
    "marks-json": (["marks", "--group", "S3", "--format", "json"],
                   ["group_core", "burnside"]),
    "conditions": (["conditions", "--group", "S3"],
                   ["group_core", "burnside", "conditions"]),
    "classify": (["classify", "--group", "C4", "--max-size", "4"], _CENSUS),
    # a failing stage: classify hands its stage reports to the witness step
    "classify-witness": (["classify", "--group", "S3", "--coeff", "Z"],
                         _CENSUS + ["witness"]),
    "witness": (["witness", "--group", "C6", "--coeff", "Z"],
                ["group_core", "burnside", "conditions", "groupoid_calc", "witness"]),
    "pullback-demo": (["pullback-demo", "--seed", "3"], ["group_core", "pullback"]),
}
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


@contextlib.contextmanager
def quiet_when_stdout_closes():
    """Run the block and flush stdout; when the reader of stdout has gone,
    as under `| head -1`, send what is left to devnull and exit 141 with
    nothing on stderr, as `equisep.cli.main` does."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)


def main(package: pathlib.Path = PACKAGE, calls: dict = CALLS) -> tuple:
    """Print the report for package, with a row for each of calls; return
    (code lines, non-blank lines) of the package."""
    code_of = {}
    total_code = total_lines = 0
    records = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, lines = count(source)
        code_of[path.stem] = code
        total_code += code
        total_lines += lines
        records += record_fields(source)
        print(f"{path.name:<20} {code:>6} {lines:>6}")
    print(f"{'total':<20} {total_code:>6} {total_lines:>6}")
    print()
    if calls:
        print("code lines a CLI call loads")
        for name, (_, library) in calls.items():
            loaded = ["__init__", "_record", "cli", *library]
            print(f"{name:<20} {sum(code_of[m] for m in loaded):>6}")
        print()
    for name, fields in records:
        print(f"{name:<27} {fields:>6}")
    print(f"{'total fields':<27} {sum(n for _, n in records):>6}")
    names = public_names(package)
    if names is not None:
        print(f"{'public names':<27} {names:>6}")
    return total_code, total_lines


if __name__ == "__main__":
    with quiet_when_stdout_closes():
        main()
