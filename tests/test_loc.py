"""The line counter of tests/loc.py on a fixture whose counts are known,
and its public-name count on a fixture and on the package."""

import subprocess
import sys

import equisep

from . import loc

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
    assert loc.main(tmp_path) == (9 + 12, 16 + 12)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "9", "15"], ["b.py", "0", "1"], ["c.py", "12", "12"],
        ["total", "21", "28"], [],
        ["Ring", "3"], ["Report", "1"], ["Inner", "2"],
        ["total", "fields", "6"],
    ]


def test_main_counts_the_public_names_of_a_package(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text('__all__ = sorted({"b": 1, "a": 2})\n')
    assert loc.main(tmp_path) == (1, 1)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["__init__.py", "1", "1"], ["total", "1", "1"], [],
        ["total", "fields", "0"], ["public", "names", "2"],
    ]


def test_the_package_line_is_the_length_of_all():
    """`python3 -m tests.loc` ends with the number of equisep's public
    names, run from the repository root as the ROADMAP quotes it."""
    out = subprocess.run([sys.executable, "-m", "tests.loc"], cwd=loc.PACKAGE.parents[1],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1].split() == ["public", "names", str(len(equisep.__all__))]
