import pathlib
import runpy
import subprocess
import sys

import pytest

from . import oracles

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize(
    "script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_demo_output_holds_under_optimize(script):
    """python -O strips every assert; a demo prints the same without them,
    so none of its results depends on one."""
    plain, optimized = (
        subprocess.run([sys.executable, *flags, str(script)],
                       capture_output=True, text=True)
        for flags in ([], ["-O"])
    )
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


def test_demo_03_pullback_matches_the_oracle(capsys):
    """On demo 03's own instance, the materialized pullback has pullback_pi0's
    components, each with the automorphism order the demo prints."""
    demo = runpy.run_path(str(DEMO_DIR / "03_pullback_components.py"))
    assert capsys.readouterr().out.startswith("the pullback has 3 components:")
    comps = demo["comps"]
    slow = oracles.brute_force_pullback(demo["f"], demo["g"])
    assert len(slow) == len(comps) == 3
    for p in comps:
        comp = slow.component(f"{p.base[0]}|{p.base[1]}#{p.fiber_index}")
        assert comp.aut.order == p.aut_order
        assert p.fiber_size == len(comps)
