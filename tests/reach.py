"""Line reach of the package: the lines of src/equisep that no user path
runs.

Run ``python3 -m tests.reach`` from the repository root; it takes about
half a minute.  It traces, in this one process with ``sys.settrace``, the
user-path corpus:

- the tests that pin what a user sees: the CLI goldens, the benchmark
  goldens, the acceptance criteria and the check digest (CORPUS);
- the demos, run as scripts;
- through ``cli.main``, the command lines of REFUSALS, at least one per
  site where the CLI refuses its input, those of HELP, and one query
  whose stdout is closed; and ``python3 -m equisep`` through its entry
  point.

A line counts when it holds bytecode.  Every such line that the corpus
never runs must be covered by a row of TABLE with its fate: an
``input`` check on input from outside the library, or the ``protocol``
of a public type (``__eq__``, ``__hash__``, ``__repr__``, ``__reduce__``
and the guards against assignment), each with the tier-1 test that runs
it.  A line that is neither goes from the library.  The tool then runs
each test the table names, traced on its own, and checks that it runs
the lines of its row.

It prints how many lines TABLE lists, per module and per fate, with
totals; then, per module, the unlisted lines the corpus never runs, then
the problems: a corpus run that failed, a row that names no code, a row
whose test does not run it.  It exits 1 when there is any of these.
"""

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys

from .loc import quiet_when_stdout_closes

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "equisep"
CORPUS = ("tests/test_cli_golden.py", "tests/test_bench_golden.py",
          "tests/test_acceptance.py", "tests/test_check_digest.py")

# (argv, exit code): the command lines the CLI refuses, at least one per
# site that raises the refusal, with the exit code each leaves with.
REFUSALS = (
    # cli: the words of the command line
    ([], 2),
    (["subgroups", "--group", "S4", "--coeff", "Z"], 2),
    (["subgroups"], 2),
    (["subgroups", "--group", "S4", "--format", "xml"], 2),
    # cli and conditions.prime_field: the coefficients
    (["conditions", "--group", "C2", "--coeff", "Fq:5"], 2),
    (["conditions", "--group", "C2", "--coeff", "Fp:1"], 2),
    (["conditions", "--group", "C2", "--coeff", "Fp:4"], 2),
    (["conditions", "--group", "C2", "--coeff", "Fp:8321"], 2),
    (["conditions", "--group", "C2", "--coeff",
      "Fp:3317044064679887385961981"], 2),
    # group_core: decimal fields
    (["classify", "--group", "C2", "--max-size", "-1"], 2),
    (["subgroups", "--group", "C" + "9" * 5000], 2),
    # group_core.make_group: named groups and their products
    (["subgroups", "--group", " "], 2),
    (["subgroups", "--group", "Nope7"], 2),
    (["subgroups", "--group", "C0"], 2),
    (["subgroups", "--group", "S1001"], 3),
    (["subgroups", "--group", "S9"], 3),
    (["subgroups", "--group", "C2000xC" + "9" * 4299], 3),
    (["subgroups", "--group", "x".join(["C1"] * 2001)], 3),
    # group_core.make_group: perm specs
    (["subgroups", "--group", "perm:3"], 2),
    (["subgroups", "--group", "perm:0:(1 2)"], 2),
    (["subgroups", "--group", "perm:300000000:(1 2)"], 3),
    (["subgroups", "--group", "perm:3:(1 2)x"], 2),
    (["subgroups", "--group", "perm:3:(1 4)"], 2),
    (["subgroups", "--group", "perm:3:(1 2 1)"], 2),
    (["subgroups", "--group", "perm:10:(1 2 3 4 5 6 7 8 9 10);(1 2)"], 3),
    # group_core: the lattice search and the table of marks
    (["subgroups", "--group", "C2xC2xC2xC2xC2xC2xC2"], 3),
    (["marks", "--group", "C2xC2xC2xC2xC2xC4"], 3),
    # groupoid_calc.truncated_gset_groupoid: the census
    (["classify", "--group", "C2", "--max-size", "1000000000"], 3),
    (["classify", "--group", "C2xC2xC2xC2", "--max-size", "32"], 3),
    (["classify", "--group", "C1", "--max-size", "1559"], 3),
)
HELP = (["--help"], ["classify", "--help"])
ENTRY = ["equisep", "--help"]

# The tier-1 tests that the table names most often.
_RECORDS = "tests/test_records.py::"
_BAD_ARGUMENTS = "tests/test_gset.py::test_argument_checks_raise_value_errors"
_LIBRARY = "tests/test_group_core.py::test_library_refusals"
_GSET = "tests/test_gset.py::test_gset_refusals"
_GROUPOID = "tests/test_groupoid_calc.py::test_groupoid_refusals"
_OTHER_TYPES = _RECORDS + "test_protocol_of_the_public_types_that_are_not_records"
_REAL_RECORDS = _RECORDS + "test_reprs_of_real_records"
_CHECKED = _RECORDS + "test_constructor_checks_still_run"
_WRONG = _RECORDS + "test_wrong_arguments_raise_type_error"

# (module, function, first line of a statement, fate, tier-1 test): the
# statements that no user path runs, each kept as a check on "input" from
# outside the library or as "protocol" of a public type, with a test that
# runs all of its lines.  The function is the qualified name the line's
# code has ("" for the module's own code); a row covers every statement
# of that function that starts with that line, or, given no line, the
# whole function: a protocol method, or a public constructor (or its
# helper) that no user path calls and that checks what a caller gives it.
TABLE = (
    ("__init__.py", "__dir__", "", "protocol",
     "tests/test_cli.py::TestLazyExports::test_star_import_and_dir_cover_every_name"),
    ("_record.py", "_Record._bind",
     'raise TypeError(f"{name}() takes {len(fields)} positional "', "input", _WRONG),
    ("_record.py", "_Record._bind",
     'raise TypeError(f"{name}() missing argument {field!r}")', "input", _WRONG),
    ("_record.py", "_Record._bind",
     'problem = ("multiple values for" if field in fields', "input", _WRONG),
    ("_record.py", "_Record._bind",
     'raise TypeError(f"{name}() got {problem} argument {field!r}")', "input", _WRONG),
    ("_record.py", "_Record.__eq__", "return NotImplemented", "protocol",
     _RECORDS + "test_never_equal_to_another_class"),
    ("_record.py", "_Record.__hash__", "", "protocol",
     _RECORDS + "test_equality_and_hash_follow_the_values"),
    ("_record.py", "_Record.__repr__", "", "protocol",
     _RECORDS + "test_repr_lists_fields"),
    ("_record.py", "_Record.__setattr__", "", "protocol",
     _RECORDS + "test_assignment_is_refused"),
    ("_record.py", "_Record.__delattr__", "", "protocol",
     _RECORDS + "test_assignment_is_refused"),
    ("_record.py", "_Record.__reduce__", "", "protocol",
     _RECORDS + "test_copy_and_pickle_round_trip"),
    ("classifier.py", "ClassificationOutcome.__init__",
     'raise ValueError("an outcome has a groupoid iff it is AllStandard")',
     "input", _CHECKED),
    ("families.py", "Family.__init__", "", "input", _CHECKED),
    ("families.py", "Family.__reduce__", "", "protocol",
     "tests/test_families.py::test_copy_and_pickle_keep_a_nonempty_family"),
    ("families.py", "Family.check_group",
     'raise ValueError(f"the family is over a group of order "', "input",
     "tests/test_families.py::test_family_over_another_group_rejected"),
    ("families.py", "Family.__repr__", "", "protocol", _REAL_RECORDS),
    ("group_core.py", "Group.__init__",
     'raise ValueError(f"not a permutation of degree {degree}: {g!r}")', "input",
     _LIBRARY),
    ("group_core.py", "Group.__eq__", "return NotImplemented", "protocol",
     _OTHER_TYPES),
    ("group_core.py", "Group.__hash__", "", "protocol", _OTHER_TYPES),
    ("group_core.py", "Group.__repr__", "", "protocol", _OTHER_TYPES),
    ("group_core.py", "Group.subgroup",
     'raise ValueError("subgroup elements must lie in the group")', "input",
     _BAD_ARGUMENTS),
    ("group_core.py", "Group.subgroup",
     'raise ValueError("subgroup elements do not form a group")', "input",
     _BAD_ARGUMENTS),
    ("group_core.py", "cyclic_group",
     'raise GroupSpecError(f"cyclic group needs n >= 1, got {n}")', "input",
     _LIBRARY),
    ("group_core.py", "symmetric_group",
     'raise GroupSpecError(f"symmetric group needs n >= 0, got {n}")', "input",
     _LIBRARY),
    ("group_core.py", "alternating_group",
     'raise GroupSpecError(f"alternating group needs n >= 1, got {n}")', "input",
     _LIBRARY),
    ("group_core.py", "dihedral_group",
     'raise GroupSpecError(f"dihedral group needs n >= 3, got {n}")', "input",
     _LIBRARY),
    ("group_core.py", "SubgroupClass.__repr__", "", "protocol", _REAL_RECORDS),
    ("group_core.py", "_position",
     'raise ValueError(f"class {cls.name} is a subgroup class of another group")',
     "input", "tests/test_group_core.py::test_class_of_another_group_refused"),
    ("group_core.py", "class_of_subgroup", "except KeyError:", "input", _LIBRARY),
    ("group_core.py", "class_of_subgroup", "pos = None", "input", _LIBRARY),
    ("group_core.py", "class_of_subgroup",
     'raise ValueError("not a subgroup of g")', "input", _LIBRARY),
    ("group_core.py", "double_cosets",
     'raise ValueError("double_cosets needs subgroups of g")', "input", _LIBRARY),
    ("groupoid_calc.py", "GSetType.__repr__", "", "protocol", _REAL_RECORDS),
    ("groupoid_calc.py", "census_size", "return 1", "input",
     "tests/test_groupoid_calc.py::TestTruncatedGroupoid"
     "::test_all_family_leaves_only_empty"),
    ("groupoid_calc.py", "truncated_gset_groupoid",
     'raise ValueError("max_size must be >= 0")', "input", _GROUPOID),
    ("gset.py", "GSet.__init__", "", "input", _BAD_ARGUMENTS),
    ("gset.py", "GSet.__repr__", "", "protocol", _OTHER_TYPES),
    ("gset.py", "coset_gset", 'raise ValueError("coset_gset needs a subgroup of g")',
     "input", _GSET),
    ("gset.py", "disjoint_union",
     'raise ValueError("disjoint_union needs at least one part")', "input",
     _BAD_ARGUMENTS),
    ("gset.py", "disjoint_union",
     'raise ValueError("disjoint_union needs G-sets over one group")', "input",
     _BAD_ARGUMENTS),
    ("gset.py", "restrict",
     'raise ValueError("restrict needs a subgroup of the acting group")', "input",
     _GSET),
    ("gset.py", "induce", 'raise ValueError("induce needs a subgroup of g")',
     "input", _GSET),
    ("gset.py", "induce",
     'raise ValueError("induce needs a K-set over the same subgroup")', "input",
     _GSET),
    ("gset.py", "mackey_decompose",
     'raise ValueError("mackey_decompose needs a K-set")', "input", _GSET),
    ("gset.py", "aut_group",
     'raise ResourceLimitError(f"automorphism group of order {t.aut_order} "',
     "input", "tests/test_groupoid_calc.py::TestTruncatedGroupoid"
     "::test_aut_refused_before_building"),
    ("gset.py", "f_split", "raise ValueError(", "input", _GSET),
    ("pullback.py", "FiniteGroupoid.__init__",
     'raise ValueError("component labels must be unique")', "input", _GROUPOID),
    ("pullback.py", "FiniteGroupoid.__eq__", "return NotImplemented", "protocol",
     _OTHER_TYPES),
    ("pullback.py", "FiniteGroupoid.__repr__", "", "protocol", _OTHER_TYPES),
    ("pullback.py", "GroupHom.__init__",
     'raise ValueError("homomorphism must be defined on every element")',
     "input", _GROUPOID),
    ("pullback.py", "GroupHom.__init__",
     'raise ValueError("homomorphism image leaves the target group")', "input",
     _GROUPOID),
    ("pullback.py", "GroupHom.__repr__", "", "protocol", _OTHER_TYPES),
    ("pullback.py", "GroupoidFunctor.__init__",
     'raise ValueError(f"component {c.label!r} has no image")', "input",
     _GROUPOID),
    ("pullback.py", "GroupoidFunctor.__init__",
     'raise ValueError(f"image component {image!r} missing in target")', "input",
     _GROUPOID),
    ("pullback.py", "GroupoidFunctor.__init__",
     'raise ValueError(f"component {c.label!r} has no hom")', "input", _GROUPOID),
    ("pullback.py", "GroupoidFunctor.__init__",
     'raise ValueError(f"hom at {c.label!r} has wrong endpoints")', "input",
     _GROUPOID),
    ("pullback.py", "GroupoidFunctor.__repr__", "", "protocol", _OTHER_TYPES),
    ("pullback.py", "_matching_pairs",
     'raise ValueError("pullback needs functors into the same groupoid")',
     "input", _GROUPOID),
    ("witness.py", "WitnessRecord.__init__",
     'raise ValueError("a witness needs at least two primes")', "input", _CHECKED),
)


class _Trace:
    """A sys.settrace hook, for the length of a with block, that records
    (module file name, line number) for each line run in the package into
    the set hits."""

    def __init__(self, package: pathlib.Path):
        self.package = str(package.resolve())
        self.hits = set()
        self._local = {}  # code file name -> its line hook, or None

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return self._local[name]
        except KeyError:
            local = self._local[name] = self._line_hook(name)
            return local

    def _line_hook(self, filename):
        path = os.path.realpath(filename)
        if os.path.dirname(path) != self.package:
            return None
        module = os.path.basename(path)

        def local(frame, event, arg):
            if event == "line":
                self.hits.add((module, frame.f_lineno))
            return local

        return local


def code_lines(source: str) -> dict:
    """Each line of source that holds bytecode, mapped to the qualified
    name of the outermost function or class with bytecode on it ("" for
    the module's own code).  A function's first line, which only its call
    event reports, counts for the code that defines it."""
    out = {}

    def walk(code, qualname):
        for _, _, line in code.co_lines():
            if line and not (qualname and line == code.co_firstlineno):
                out.setdefault(line, qualname)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, const.co_qualname)

    walk(compile(source, "<module>", "exec"), "")
    return out


def _statement_ends(source: str) -> dict:
    """The first line of each statement, except clauses included, mapped
    to the last line of its own text: its end, or for a compound
    statement the end of its header."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            out.setdefault(node.lineno, max(end, node.lineno))
    return out


def table_lines(package: pathlib.Path, table=TABLE) -> dict:
    """Each row of the table mapped to the lines of its module that it
    covers: the lines with bytecode of each statement in its function
    whose first line reads as its text, or of the whole function and the
    code nested in it when the text is empty.  A row that covers none no
    longer names code."""
    out, modules = {}, {}
    for row in table:
        module, function, text = row[:3]
        if module not in modules:
            source = (package / module).read_text(encoding="utf-8")
            modules[module] = (source.splitlines(), code_lines(source),
                               _statement_ends(source))
        lines, code, ends = modules[module]
        if not text:
            out[row] = sorted(n for n, q in code.items()
                              if q == function or q.startswith(function + "."))
            continue
        out[row] = [n for first, last in ends.items()
                    if code.get(first) == function
                    and lines[first - 1].strip() == text
                    for n in range(first, last + 1) if n in code]
    return out


class _Exit(Exception):
    """What os._exit raises while the entry point runs in this process."""


def _raise_exit(code):
    raise _Exit(code)


def _run_command_lines() -> list:
    """Run REFUSALS, HELP, a query whose stdout is closed, and ENTRY
    through the CLI; the exit codes that differ from those expected, as
    text."""
    from equisep import cli

    failures = []
    for argv, code in REFUSALS + tuple((argv, 0) for argv in HELP):
        if cli.main(list(argv)) != code:
            failures.append(f"{argv!r} did not exit {code}")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed, contextlib.redirect_stdout(closed):
        if cli.main(["subgroups", "--group", "C2"]) != 141:
            failures.append("a closed stdout did not exit 141")
    saved = sys.argv, os._exit
    sys.argv, os._exit = list(ENTRY), _raise_exit
    try:
        runpy.run_module("equisep", run_name="__main__", alter_sys=True)
    except _Exit as exc:
        if exc.args != (0,):
            failures.append(f"{ENTRY!r} exited {exc.args[0]}")
    finally:
        sys.argv, os._exit = saved
    return failures


def run_corpus() -> list:
    """Run the user-path corpus; the failures it met, as text."""
    import pytest

    failures = []
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        if pytest.main(["-q", "-p", "no:cacheprovider",
                        *(str(ROOT / f) for f in CORPUS)]) != 0:
            failures.append("a corpus test failed")
        for script in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
        failures += _run_command_lines()
    return failures


class _PerTest:
    """A pytest plugin that points the trace's hits at one set per test
    while the test runs."""

    def __init__(self, trace: _Trace):
        self.trace = trace
        self.reached = {}  # node id -> set of (module, line)

    def pytest_runtest_call(self, item):
        self.trace.hits = self.reached.setdefault(item.nodeid, set())

    def pytest_runtest_teardown(self, item):
        self.trace.hits = set()


def check_table(trace: _Trace, rows: dict) -> list:
    """Run each test the table names, under the trace; a failure among
    them, and the rows that name no code or whose test does not run all
    of their lines, as text."""
    import pytest

    plugin = _PerTest(trace)
    trace.hits = set()
    tests = sorted({row[4] for row in rows})
    out = []
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        # pytest given no test runs every test
        if tests and pytest.main(["-q", "-p", "no:cacheprovider",
                                  *(str(ROOT / t) for t in tests)],
                                 plugins=[plugin]) != 0:
            out.append("a test the table names failed")
    for row, lines in rows.items():
        module, function, text, _, test = row
        reached = set().union(*(hits for node, hits in plugin.reached.items()
                                if node == test or node.startswith(test + "[")))
        missed = [n for n in lines if (module, n) not in reached]
        if not lines:
            out.append(f"{module}: the row {function!r}, {text!r} names no code")
        elif missed:
            out.append(f"{module}: {test} does not run line {missed[0]}")
    return out


def unreached(package: pathlib.Path, hits: set, rows: dict) -> dict:
    """module -> the lines with bytecode that the hits miss and that no
    row covers, ascending, for each module that has any."""
    covered = hits | {(row[0], n) for row, lines in rows.items() for n in lines}
    out = {}
    for path in sorted(package.glob("*.py")):
        missed = [n for n in code_lines(path.read_text(encoding="utf-8"))
                  if (path.name, n) not in covered]
        if missed:
            out[path.name] = sorted(missed)
    return out


def print_listed(rows: dict) -> None:
    """Print how many lines the rows list in each module, as input checks,
    as protocol and both, then the same totals over the modules."""
    listed = {}
    for (module, _, _, fate, _), lines in rows.items():
        listed.setdefault(module, {"input": set(), "protocol": set()})[fate].update(lines)
    counts = [(module, len(f["input"]), len(f["protocol"]))
              for module, f in sorted(listed.items())]
    counts.append(("total", sum(c[1] for c in counts), sum(c[2] for c in counts)))
    print(f"{'listed lines':<20} {'input':>8} {'protocol':>8} {'total':>8}")
    for module, inputs, protocol in counts:
        print(f"{module:<20} {inputs:>8} {protocol:>8} {inputs + protocol:>8}")


def report(package: pathlib.Path, missed: dict, problems: list) -> int:
    """Print the unlisted unreached lines, module by module, then the
    problems; return how many there are of both."""
    for module, lines in missed.items():
        source = (package / module).read_text(encoding="utf-8").splitlines()
        print(f"{module}: {len(lines)} unlisted unreached")
        for n in lines:
            print(f"  {n:>4}  {source[n - 1].strip()}")
    for problem in problems:
        print(problem)
    count = sum(map(len, missed.values()))
    print(f"{count} unlisted unreached lines, {len(problems)} problems")
    return count + len(problems)


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    rows = table_lines(PACKAGE)
    with _Trace(PACKAGE) as trace:
        problems = run_corpus()
        hits = trace.hits
        problems += check_table(trace, rows)
    print_listed(rows)
    return 1 if report(PACKAGE, unreached(PACKAGE, hits, rows), problems) else 0


if __name__ == "__main__":
    with quiet_when_stdout_closes():
        code = main()
    sys.exit(code)
