"""The benchmark's golden outputs, replayed in process.

`bench/golden.json` holds the SHA-256 of the stdout of every passing
query in the default seed's first cycles of each workload.  This test
draws the same queries from `bench/workloads.cycle`, runs each through
`cli.main` and compares the digests, so a change to any of those bytes
fails here and not only in a benchmark run.  It reads `bench/` and
writes nothing there.
"""

import hashlib
import json
from pathlib import Path

import pytest

from equisep import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 0  # the benchmark's default seed, the one golden.json was written from
MAX_CYCLES = 4  # golden.json covers the first two cycles


def test_golden_outputs_replay(monkeypatch, capsys):
    pytest.importorskip("sympy")
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import CYCLES, cycle

    golden = json.loads((BENCH / "golden.json").read_text())
    got = {}
    for index in range(MAX_CYCLES):
        for workload in CYCLES:
            for q in cycle(workload, SEED, index):
                key = q.key()
                if key in golden and key not in got:
                    capsys.readouterr()
                    assert cli.main(list(q.argv)) == 0, key
                    out = capsys.readouterr().out.encode()
                    got[key] = hashlib.sha256(out).hexdigest()
        if got.keys() == golden.keys():
            break
    assert sorted(golden.keys() - got.keys()) == []
    assert sorted(k for k in golden if got[k] != golden[k]) == []
