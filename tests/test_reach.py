"""The line-reach tool of tests/reach.py on a fixture package whose
reach is known, and its table and refusal list against the package and
the tests they name."""

import importlib
import importlib.util

import pytest

from . import reach

FIXTURE = '''def area(width, height):
    if width < 0:
        raise ValueError(
            f"a width of {width}")
    return width * height


def unused():
    total = 0
    return total


class Box:
    def __repr__(self):
        return "Box()"
'''


def _run_fixture(tmp_path, run):
    """The (module, line) pairs of a package holding FIXTURE as shapes.py
    that run(module) runs, the import included."""
    package = tmp_path / "fixture"
    package.mkdir()
    (package / "shapes.py").write_text(FIXTURE)
    spec = importlib.util.spec_from_file_location(
        "reach_fixture_shapes", package / "shapes.py")
    with reach._Trace(package) as trace:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        run(module)
    return package, trace.hits


def test_code_lines_of_the_fixture():
    # the def lines count for the module and the class that run them
    assert reach.code_lines(FIXTURE) == {
        1: "", 2: "area", 3: "area", 4: "area", 5: "area", 8: "", 9: "unused",
        10: "unused", 13: "", 14: "Box", 15: "Box.__repr__",
    }


def test_unreached_lines_of_the_fixture(tmp_path):
    package, hits = _run_fixture(tmp_path, lambda m: m.area(2, 3))
    assert reach.unreached(package, hits, {}) == {
        "shapes.py": [3, 4, 9, 10, 15]}


def test_a_row_covers_its_whole_statement(tmp_path):
    package, hits = _run_fixture(tmp_path, lambda m: m.area(2, 3))
    row = ("shapes.py", "area", "raise ValueError(", "input", "a test")
    protocol = ("shapes.py", "Box.__repr__", 'return "Box()"', "protocol", "a test")
    rows = reach.table_lines(package, (row, protocol))
    assert rows == {row: [3, 4], protocol: [15]}
    assert reach.unreached(package, hits, rows) == {"shapes.py": [9, 10]}


def test_a_row_without_text_covers_the_whole_function(tmp_path):
    package, hits = _run_fixture(tmp_path, lambda m: m.area(2, 3))
    rows = reach.table_lines(package, [("shapes.py", "unused", "", "input", "t"),
                                       ("shapes.py", "Box", "", "protocol", "t")])
    assert list(rows.values()) == [[9, 10], [14, 15]]
    assert reach.unreached(package, hits, rows) == {"shapes.py": [3, 4]}


def test_a_row_that_names_no_statement_covers_nothing(tmp_path):
    package, _ = _run_fixture(tmp_path, lambda m: None)
    stale = [("shapes.py", "area", "return width + height", "input", "t"),
             ("shapes.py", "unused", "raise ValueError(", "input", "t"),
             # the text of a continuation line starts no statement
             ("shapes.py", "area", 'f"a width of {width}")', "input", "t"),
             ("shapes.py", "volume", "", "input", "t")]
    assert set(map(len, reach.table_lines(package, stale).values())) == {0}


def test_report_prints_each_unlisted_line(tmp_path, capsys):
    package, hits = _run_fixture(tmp_path, lambda m: None)
    missed = reach.unreached(package, hits, {})
    assert reach.report(package, missed, ["a problem"]) == 8
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "shapes.py: 7 unlisted unreached"
    assert lines[1].split() == ["2", "if", "width", "<", "0:"]
    assert lines[-2:] == ["a problem", "7 unlisted unreached lines, 1 problems"]


def test_listed_counts_follow_the_table(tmp_path, capsys):
    package, _ = _run_fixture(tmp_path, lambda m: None)
    table = [("shapes.py", "area", "raise ValueError(", "input", "t"),
             ("shapes.py", "unused", "", "input", "t"),
             ("shapes.py", "Box.__repr__", "", "protocol", "t")]
    rows = reach.table_lines(package, table)
    reach.print_listed(rows)
    inputs = len(rows[table[0]]) + len(rows[table[1]])
    protocol = len(rows[table[2]])
    assert (inputs, protocol) == (4, 1)
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["listed", "lines", "input", "protocol", "total"],
        ["shapes.py", "4", "1", "5"],
        ["total", "4", "1", "5"],
    ]


def test_the_traced_run_sees_a_refused_input(tmp_path):
    def refused(module):
        with pytest.raises(ValueError):
            module.area(-1, 3)

    package, hits = _run_fixture(tmp_path, refused)
    assert reach.unreached(package, hits, {}) == {"shapes.py": [5, 9, 10, 15]}


def _test_exists(test_id: str) -> bool:
    path, *names = test_id.split("::")
    module = importlib.import_module(path[:-3].replace("/", "."))
    obj = module
    for name in names:
        obj = getattr(obj, name, None)
    return callable(obj) and names[-1].startswith("test_")


def test_every_row_names_code_and_a_test_that_exists():
    """So the table cannot rot: each row covers a statement of the
    package, has one of the two fates, and names a tier-1 test by a node
    id without parameters; `python3 -m tests.reach` checks that the test
    runs the statement."""
    rows = reach.table_lines(reach.PACKAGE)
    assert len(rows) == len(reach.TABLE)
    assert [row for row, lines in rows.items() if not lines] == []
    assert {row[3] for row in reach.TABLE} == {"input", "protocol"}
    tests = {row[4] for row in reach.TABLE}
    assert [t for t in sorted(tests) if "[" in t or not _test_exists(t)] == []

