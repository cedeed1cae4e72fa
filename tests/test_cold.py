"""The cold-query tool of tests/cold.py on one small query."""

import compileall
import hashlib
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_two_cold_runs_agree():
    """Two runs of one tree print one line: exit 0 and one digest, that
    of the query's stdout run directly."""
    out = subprocess.run(
        [sys.executable, "-m", "tests.cold", str(ROOT), "2", "subgroups", "--group", "C2"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    (line,) = out.splitlines()
    m = re.fullmatch(
        r"(.+): pyc (\d+)/(\d+), wall (\d+\.\d{3}) s, cpu (\d+\.\d{3}) s, "
        r"max-RSS (\d+\.\d) MB, exit (\S+), sha256 (\S+)",
        line,
    )
    assert m, line
    assert m.group(1) == str(ROOT)
    modules = len(list((ROOT / "src" / "equisep").glob("*.py")))
    assert int(m.group(2)) <= int(m.group(3)) == modules
    assert all(0 < float(m.group(i)) for i in (4, 5, 6))  # wall, cpu, RSS
    assert m.group(7) == "0"
    direct = subprocess.run(
        [sys.executable, "-m", "equisep", "subgroups", "--group", "C2"],
        cwd=ROOT, capture_output=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert m.group(8) == hashlib.sha256(direct).hexdigest()


def test_import_runs_a_bare_import():
    """`import` times a child that only imports equisep.cli: exit 0 and
    the digest of an empty stdout."""
    out = subprocess.run(
        [sys.executable, "-m", "tests.cold", str(ROOT), "1", "import"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    (line,) = out.splitlines()
    assert line.startswith(f"{ROOT}: pyc ")
    assert line.endswith(f", exit 0, sha256 {hashlib.sha256(b'').hexdigest()}")


def test_trees_with_different_bytecode_are_refused(tmp_path):
    """Two copies of the package, one compiled, are not compared: one
    error line and exit 2, before any run."""
    trees = [tmp_path / "plain", tmp_path / "compiled"]
    for tree in trees:
        shutil.copytree(ROOT / "src" / "equisep", tree / "src" / "equisep",
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(trees[1] / "src", quiet=1)
    proc = subprocess.run(
        [sys.executable, "-m", "tests.cold", ",".join(map(str, trees)), "1",
         "subgroups", "--group", "C2"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    modules = len(list((ROOT / "src" / "equisep").glob("*.py")))
    assert line.startswith("error: ")
    assert f"{trees[0]} 0/{modules}" in line
    assert f"{trees[1]} {modules}/{modules}" in line
