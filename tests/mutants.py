"""A fixed mutation run: how hard tier-1 is to fool.

Run ``python3 -m tests.mutants`` from the repository root, outside
tier-1; a run of every mutant takes a few minutes.  Each tier-1 run has
CAP seconds.  To rerun one mutant, call ``run_tier1(MUTANTS[i], CAP)``.

Each row of MUTANTS is one small edit: the file, relative to the
repository root, the exact old text, which occurs once in it, the new
text, and what the edit breaks.  For each mutant the tool copies src/,
tests/, demos/, bench/, pyproject.toml and README.md, whose counts
tier-1 reads, to a temporary directory, applies the one edit and runs tier-1
there with ``-x``, less tests/test_mutants.py, which checks the list
against the unedited tree.  It prints whether the mutant was killed (a test failed,
or the run passed the cap) or survived, with the first failing test and
the wall time.  Before the mutants it runs the unedited copy, so that a
kill means the edit, not the copy; it exits 1 when that run fails or a
mutant survives.

A survivor is a finding: the test that kills it is added, and the
mutant stays on the list.  tests/test_mutants.py checks in tier-1 that
every old text still occurs exactly once in its file and that every
edit still parses.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

from .loc import quiet_when_stdout_closes

ROOT = pathlib.Path(__file__).resolve().parent.parent
CAP = 300.0  # seconds one tier-1 run may take
# tests/test_mutants.py pins the list to the unedited tree, so an edited
# copy would fail it by construction
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]

# (file, old text, new text, what the edit breaks)
MUTANTS = (
    ("src/equisep/witness.py", "for x in (m, m ^ full)", "for x in (m, m ^ 1)",
     "the double coset of m pairs it with m ^ 1, not with m times the "
     "diagonal's swap"),
    ("src/equisep/witness.py", '"swap" if m >> i & 1 else "id"',
     '"id" if m >> i & 1 else "swap"',
     "the renderer writes id for a swap and swap for an id"),
    ("src/equisep/witness.py", "_blocks(1 << r - 1, r)", "_blocks(1, r)",
     "eta swaps at the first prime instead of the last"),
    ("src/equisep/witness.py", "if rep.subgroup.order == 1 or rep.passed:",
     "if rep.passed:",
     "the witness search counts the trivial stage as a failing one"),
    ("src/equisep/groupoid_calc.py", "c.weyl_order ** n * factorial(n)",
     "c.weyl_order ** n * factorial(n - 1)",
     "the census automorphism order takes (n-1)! for the n! that permutes "
     "n orbits of one type"),
    ("tests/oracles.py", "if (len(graph) == len(a_table)",
     "if True or (len(graph) == len(a_table)",
     "the Goursat oracle keeps every graph, bijective or not"),
    ("src/equisep/conditions.py", "n % self.char == 0", "n % self.char != 0",
     "F_p stays indecomposable mod n exactly when p does not divide n"),
    ("src/equisep/conditions.py", "ring.char not in (0, q)",
     "ring.char not in (0,)",
     "the retraction check calls p invertible in F_p"),
    ("src/equisep/classifier.py", "if rep.subgroup not in family)", ")",
     "classify judges the classes inside the family too"),
    ("src/equisep/group_core.py", "while d * d <= n:", "while d * d < n:",
     "prime_factors stops one divisor early, so the square of a prime is "
     "its own prime factor"),
    ("src/equisep/burnside.py", "str(v).rjust(width)", "str(v).ljust(width)",
     "the marks sit at the left of their cells, under the right-aligned "
     "names"),
    ("src/equisep/group_core.py", "lcm(*map(perm_order, gens))",
     "lcm(*map(perm_order, gens[1:]))",
     "cyclicity leaves the first generator's order out of the lcm it "
     "compares with the group's order"),
    ("src/equisep/group_core.py",
     "all(pmul(a, b) == pmul(b, a) for a, b in combinations(gens, 2))", "True",
     "cyclicity skips the commutation check, so generators whose orders "
     "have the group's order as lcm make it cyclic"),
    ("src/equisep/group_core.py", "if prime_factors(index) == (index,):",
     "if index > 1:",
     "the lattice search skips the cyclics inside every join, not only "
     "those of prime index, and so loses classes"),
    ("src/equisep/group_core.py",
     "passed.update(map(t.row(x).__getitem__, inside))",
     "passed.update([t.row(x)[y] for y in passed])",
     "a non-normalizing x passes x times every index passed so far, not "
     "its coset xH, and so can pass elements of N(H)"),
    ("src/equisep/groupoid_calc.py", "room += vector[i] * s",
     "room += vector[i]",
     "the census odometer gives back one point per emptied orbit, not its "
     "size"),
    ("src/equisep/cli.py", "ResourceLimitError: 3}", "ResourceLimitError: 2}",
     "a refusal over a bound exits 2, the code of a malformed spec"),
    ("src/equisep/gset.py", "for n in joined]", "for n in joined[1:]]",
     "Aut(X) leaves out the translation by the first element the N(H) span "
     "joins onto H, so it misses part of W(H)"),
    ("src/equisep/pullback.py", "map(self.mapping.get, self.src.generators)",
     "map(self.mapping.get, self.src.generators[1:])",
     "a homomorphism image leaves out the first source generator's image, "
     "so the double cosets of a pullback are counted in too large a group"),
    ("src/equisep/conditions.py", "{'a' if ok else 'not a'}", "{'a'}",
     "the sphere's rule calls a failing stage's Weyl group a nontrivial "
     "p-group"),
    ("src/equisep/group_core.py", "if expected > MAX_ORDER:",
     "if expected >= MAX_ORDER:",
     "a named group whose order is exactly the bound is refused"),
    ("src/equisep/gset.py", "if t.aut_order > bound:",
     "if t.aut_order >= bound:",
     "an automorphism group whose order is exactly the bound is refused"),
    ("src/equisep/group_core.py", ' or "(" in c[1:]', "",
     "the cycle reader takes a nested ( for part of a point, so ((1 2)) is "
     "a bad point, not stray characters"),
)


def mutated(mutant) -> str:
    """The text of the mutant's file with its one edit applied."""
    path, old, new, _ = mutant
    return (ROOT / path).read_text(encoding="utf-8").replace(old, new, 1)


def first_failure(output: str) -> str:
    """The first test that pytest's short summary names as failed or in
    error, or "" when it names none."""
    for line in output.splitlines():
        for word in ("FAILED ", "ERROR "):
            if line.startswith(word):
                return line[len(word):].split(" - ")[0]
    return ""


def _copy(tree: pathlib.Path):
    ignore = shutil.ignore_patterns("__pycache__", ".*")
    for name in ("src", "tests", "demos", "bench"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, tree)


def run_tier1(mutant, cap: float) -> tuple:
    """(passed, first failing test, wall seconds) of tier-1 run in a copy
    of the tree with the mutant's edit, or with none for None; a run
    that passes the cap fails with "timeout"."""
    with tempfile.TemporaryDirectory(prefix="equisep-mutant-") as tmp:
        tree = pathlib.Path(tmp)
        _copy(tree)
        if mutant is not None:
            (tree / mutant[0]).write_text(mutated(mutant), encoding="utf-8")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=str(tree / "src") + (f":{path}" if path else ""))
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                                  capture_output=True, text=True, timeout=cap)
        except subprocess.TimeoutExpired:
            return False, "timeout", time.monotonic() - start
        wall = time.monotonic() - start
        return proc.returncode == 0, first_failure(proc.stdout), wall


def main() -> int:
    passed, failure, wall = run_tier1(None, CAP)
    print(f"unedited copy: {'passed' if passed else 'FAILED ' + failure} "
          f"in {wall:.1f} s", flush=True)
    if not passed:
        return 1
    survivors = 0
    for i, mutant in enumerate(MUTANTS):
        path, old, new, breaks = mutant
        passed, failure, wall = run_tier1(mutant, CAP)
        survivors += passed
        fate = "SURVIVED" if passed else f"killed by {failure}"
        print(f"{i:>2} {pathlib.Path(path).name}: {old!r} -> {new!r}\n"
              f"   {breaks}\n   {fate} in {wall:.1f} s", flush=True)
    print(f"{len(MUTANTS) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    with quiet_when_stdout_closes():
        code = main()
    sys.exit(code)
