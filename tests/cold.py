"""Cold CLI queries against one or more checkouts, the method behind the
wall and peak-RSS figures that ROADMAP.md and CHANGES.md quote.

Run ``python3 -m tests.cold TREE[,TREE] RUNS VERB [OPTIONS...]``, e.g.
``python3 -m tests.cold .,../parent 3 marks --group S4xS4``, or
``python3 -m tests.cold TREE[,TREE] RUNS import`` for the import floor.

Each run of each tree is one cold child, ``python3 -m equisep VERB
OPTIONS...``, or for ``import`` a bare ``python3 -c "import equisep.cli"``
(how the benchmark's ``setup_s`` is taken), with ``TREE/src`` on
``PYTHONPATH``, forked from this
process, which imports neither equisep nor sympy, so the child's max-RSS
from ``os.wait4`` is its own and not a large parent's.  The trees
alternate run by run.  Stdout is hashed as it arrives and never held;
stderr is discarded.  For each tree this prints how many of
``src/equisep/*.py`` had a ``.pyc`` for this interpreter when the runs
started, the median wall, the median child CPU time (user plus system,
from ``os.wait4``, steadier than the wall on a busy host), the median
child max-RSS, and the exit codes and stdout sha256 digests seen (one of
each when every run agrees).

Compiling the package costs every cold child more than many changes
save, so trees whose bytecode state differs are not compared: the tool
then prints one ``error:`` line and exits 2 before any run.
"""

import hashlib
import importlib.util
import os
import pathlib
import statistics
import sys
import time


def bytecode_state(tree: pathlib.Path) -> str:
    """How many of the modules of tree/src/equisep have a .pyc for this
    interpreter, as "compiled/modules"."""
    sources = sorted((tree / "src" / "equisep").glob("*.py"))
    compiled = sum(os.path.exists(importlib.util.cache_from_source(str(p)))
                   for p in sources)
    return f"{compiled}/{len(sources)}"


def run_once(tree: pathlib.Path, argv: list) -> tuple:
    """(wall seconds, CPU seconds, max-RSS MB, exit code, stdout sha256)
    of one cold child."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if argv == ["import"]:
        child = [sys.executable, "-c", "import equisep.cli"]
    else:
        child = [sys.executable, "-m", "equisep", *argv]
    read, write = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(tree)
            os.dup2(write, 1)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 2)
            os.execve(sys.executable, child, env)
        finally:
            os._exit(127)
    os.close(write)
    digest = hashlib.sha256()
    with os.fdopen(read, "rb") as out:
        for chunk in iter(lambda: out.read(1 << 16), b""):
            digest.update(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            os.waitstatus_to_exitcode(status), digest.hexdigest())


def main(argv: list) -> int:
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [pathlib.Path(t).resolve() for t in argv[0].split(",")]
    runs, query = int(argv[1]), argv[2:]
    states = {tree: bytecode_state(tree) for tree in trees}
    if len(set(states.values())) > 1:
        print("error: the trees' bytecode differs (.pyc per module: "
              + ", ".join(f"{tree} {state}" for tree, state in states.items())
              + "); compile or clear them alike", file=sys.stderr)
        return 2
    seen = {tree: [] for tree in trees}
    for _ in range(runs):
        for tree in trees:
            seen[tree].append(run_once(tree, query))
    for tree, results in seen.items():
        walls, cpus, rss, codes, digests = zip(*results)
        print(f"{tree}: pyc {states[tree]}, "
              f"wall {statistics.median(walls):.3f} s, "
              f"cpu {statistics.median(cpus):.3f} s, "
              f"max-RSS {statistics.median(rss):.1f} MB, "
              f"exit {','.join(map(str, sorted(set(codes))))}, "
              f"sha256 {','.join(sorted(set(digests)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
