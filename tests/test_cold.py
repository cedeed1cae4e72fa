"""The cold-query tool of tests/cold.py on one small query."""

import hashlib
import os
import pathlib
import re
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
        r"(.+): wall (\d+\.\d{3}) s, max-RSS (\d+\.\d) MB, exit (\S+), sha256 (\S+)",
        line,
    )
    assert m, line
    assert m.group(1) == str(ROOT)
    assert 0 < float(m.group(2)) and 0 < float(m.group(3))
    assert m.group(4) == "0"
    direct = subprocess.run(
        [sys.executable, "-m", "equisep", "subgroups", "--group", "C2"],
        cwd=ROOT, capture_output=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert m.group(5) == hashlib.sha256(direct).hexdigest()
