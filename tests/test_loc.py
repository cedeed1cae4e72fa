"""The line counter of tests/loc.py on a fixture whose counts are known,
its public-name count on a fixture and on the package, its rows of the
code lines each CLI call loads, and the README's counts against it."""

import os
import re
import subprocess
import sys

import equisep

from . import loc, mutants

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment alone


class Thing:
    """A class docstring."""

    size = 1

    def grow(self, by):
        """A function
        docstring."""
        total = (self.size
                 + by)
        text = """a string
that is not a docstring"""
        return total, text
'''


def test_counts_of_a_small_fixture():
    # code: import, class, size, def, the two lines of total, the two of
    # text, return; non-blank: 15, every line but the 6 blank ones
    assert loc.count(FIXTURE) == (9, 15)


def test_docstrings_only_at_the_top_of_a_body():
    source = 'x = 1\n"""not a docstring"""\n'
    assert loc.count(source) == (2, 2)
    assert loc.count('"""only a docstring"""\n') == (0, 1)


RECORDS = '''class Ring(_Record):
    __slots__ = ("name", "kind", "char")


class Report(_Record):
    __slots__ = ("ok",)  # one field

    class Inner(_Record):
        __slots__ = ("a", "b")


class Narrowed(Ring):
    __slots__ = ()


class Plain:
    __slots__ = ("x", "y")


class Empty(_Record):
    __slots__ = ()
'''


def test_record_fields_counts_the_slots_of_records():
    # Narrowed derives from a record but not from _Record by name, and
    # Plain and Empty name no fields of a record
    assert sorted(loc.record_fields(RECORDS)) == [
        ("Inner", 2), ("Report", 1), ("Ring", 3),
    ]
    assert loc.record_fields(FIXTURE) == []


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("\n# nothing\n")
    (tmp_path / "c.py").write_text(RECORDS)
    assert loc.main(tmp_path, {}) == (9 + 12, 16 + 12)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "9", "15"], ["b.py", "0", "1"], ["c.py", "12", "12"],
        ["total", "21", "28"], [],
        ["Ring", "3"], ["Report", "1"], ["Inner", "2"],
        ["total", "fields", "6"],
    ]


def test_main_counts_the_public_names_of_a_package(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text('__all__ = sorted({"b": 1, "a": 2})\n')
    assert loc.main(tmp_path, {}) == (1, 1)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["__init__.py", "1", "1"], ["total", "1", "1"], [],
        ["total", "fields", "0"], ["public", "names", "2"],
    ]


def test_a_call_row_sums_the_modules_it_loads():
    """The `subgroups` row of `python3 -m tests.loc` is the code lines of
    __init__, _record, cli and group_core, the modules that call loads."""
    out = subprocess.run([sys.executable, "-m", "tests.loc"], cwd=loc.PACKAGE.parents[1],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert loc.CALLS["subgroups"][1] == ["group_core"]
    expected = sum(loc.count((loc.PACKAGE / f"{m}.py").read_text(encoding="utf-8"))[0]
                   for m in ("__init__", "_record", "cli", "group_core"))
    assert ["subgroups", str(expected)] in rows


def test_call_rows_follow_the_table(tmp_path, capsys):
    for name, code in (("__init__", "__all__ = ()\n"), ("_record", "y = 2\nz = 3\n"),
                       ("cli", ""), ("lib", "w = 4\n")):
        (tmp_path / f"{name}.py").write_text(code)
    loc.main(tmp_path, {"bare": ([], []), "with-lib": (["verb"], ["lib"])})
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("code lines a CLI call loads")
    assert [line.split() for line in lines[at + 1:at + 4]] == [
        ["bare", "3"], ["with-lib", "4"], []]


def test_the_package_line_is_the_length_of_all():
    """`python3 -m tests.loc` ends with the number of equisep's public
    names, run from the repository root as the ROADMAP quotes it."""
    out = subprocess.run([sys.executable, "-m", "tests.loc"], cwd=loc.PACKAGE.parents[1],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1].split() == ["public", "names", str(len(equisep.__all__))]


def test_a_closed_stdout_exits_quietly():
    """`python3 -m tests.loc | head -1`: when the reader of stdout is gone
    before the report is written, the tool exits 141 with nothing on
    stderr, as the CLI does, and not with a BrokenPipeError traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "tests.loc"],
                              cwd=loc.PACKAGE.parents[1], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_the_readme_counts_match_the_tree():
    """The README's counts of record fields and records, of public names
    and of the edits of tests/mutants.py are those of the tree."""
    text = (loc.PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    records = [r for path in sorted(loc.PACKAGE.glob("*.py"))
               for r in loc.record_fields(path.read_text(encoding="utf-8"))]
    fields = re.search(r"counts (\d+) fields over the (\d+) records", text)
    assert fields, "the README gives no count of record fields"
    assert tuple(map(int, fields.groups())) == (
        sum(n for _, n in records), len(records))
    names = re.search(r"(\d+) public names in `equisep.__all__`", text)
    assert names and int(names[1]) == loc.public_names(loc.PACKAGE)
    edits = re.search(r"All (\d+) edits\s+are killed", text)
    assert edits and int(edits[1]) == len(mutants.MUTANTS)
