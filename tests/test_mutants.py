"""The mutation list of tests/mutants.py against the tree it edits: each
old text occurs exactly once in its file, so no mutant rots silently as
the code changes, and each edit still parses, so a kill is never a
syntax error."""

import ast

import pytest

from . import mutants


def test_the_list_has_at_least_eight_distinct_mutants():
    assert len(mutants.MUTANTS) >= 8
    assert len({(path, old) for path, old, _, _ in mutants.MUTANTS}) == len(
        mutants.MUTANTS)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[f"{i}" for i in range(len(mutants.MUTANTS))])
def test_each_old_text_occurs_once_and_each_edit_parses(mutant):
    path, old, new, breaks = mutant
    source = (mutants.ROOT / path).read_text(encoding="utf-8")
    assert source.count(old) == 1, (path, old)
    assert new != old and breaks
    edited = mutants.mutated(mutant)
    assert edited != source
    ast.parse(edited)


def test_first_failure_reads_the_short_summary():
    output = ("F\n=== short test summary info ===\n"
              "FAILED tests/test_x.py::test_y[a-b] - assert 1 == 2\n"
              "1 failed in 0.1s\n")
    assert mutants.first_failure(output) == "tests/test_x.py::test_y[a-b]"
    assert mutants.first_failure("ERROR tests/test_z.py\n") == "tests/test_z.py"
    assert mutants.first_failure("3 passed in 0.1s\n") == ""
