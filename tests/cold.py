"""Cold CLI queries against one or more checkouts, the method behind the
wall and peak-RSS figures that ROADMAP.md and CHANGES.md quote.

Run ``python3 -m tests.cold TREE[,TREE] RUNS VERB [OPTIONS...]``, e.g.
``python3 -m tests.cold .,../parent 3 marks --group S4xS4``.

Each run of each tree is one cold child, ``python3 -m equisep VERB
OPTIONS...`` with ``TREE/src`` on ``PYTHONPATH``, forked from this
process, which imports neither equisep nor sympy, so the child's max-RSS
from ``os.wait4`` is its own and not a large parent's.  The trees
alternate run by run.  Stdout is hashed as it arrives and never held;
stderr is discarded.  For each tree this prints the median wall, the
median child max-RSS, and the exit codes and stdout sha256 digests seen
(one of each when every run agrees).
"""

import hashlib
import os
import pathlib
import statistics
import sys
import time


def run_once(tree: pathlib.Path, argv: list) -> tuple:
    """(wall seconds, max-RSS MB, exit code, stdout sha256) of one cold
    child."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    read, write = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(tree)
            os.dup2(write, 1)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 2)
            os.execve(sys.executable, [sys.executable, "-m", "equisep", *argv], env)
        finally:
            os._exit(127)
    os.close(write)
    digest = hashlib.sha256()
    with os.fdopen(read, "rb") as out:
        for chunk in iter(lambda: out.read(1 << 16), b""):
            digest.update(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status), digest.hexdigest()


def main(argv: list) -> int:
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [pathlib.Path(t).resolve() for t in argv[0].split(",")]
    runs, query = int(argv[1]), argv[2:]
    seen = {tree: [] for tree in trees}
    for _ in range(runs):
        for tree in trees:
            seen[tree].append(run_once(tree, query))
    for tree, results in seen.items():
        walls, rss, codes, digests = zip(*results)
        print(f"{tree}: wall {statistics.median(walls):.3f} s, "
              f"max-RSS {statistics.median(rss):.1f} MB, "
              f"exit {','.join(map(str, sorted(set(codes))))}, "
              f"sha256 {','.join(sorted(set(digests)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
