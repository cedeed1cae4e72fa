"""Keep the benchmark harness runnable: its smoke mode checks that the
output checker rejects a corrupted table of marks."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_mode():
    pytest.importorskip("sympy")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "smoke: ok" in proc.stdout
