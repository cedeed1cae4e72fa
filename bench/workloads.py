"""The three workloads, as endless sequences of CLI queries built from a seed.

A workload is a list of cycles.  Every cycle holds the same query
templates in the same order (which group family, which verb, which census
size), so each cycle costs the same at a given commit; the seed picks
everything else: random presentations of the groups (a random generating
pair on relabelled points), coefficients, output formats, demo seeds and
malformed inputs.  A run measures whole cycles, so the query mix, and
with it every metric, does not depend on where the clock ran out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from perms import elements, generated_order, parse_cycles, perm_spec, relabel

VERBS = ("subgroups", "marks", "burnside", "conditions")
PRIMES = (2, 3, 5, 7, 11, 13)
ALL_STANDARD = "AllStandard"
WITNESS = "NonStandardWitness"
NO_WITNESS = "ConditionsFailNoWitness"
UNIT = "UnitDecomposes"


@dataclass(frozen=True)
class Query:
    """One CLI call and the outcome its input should get."""

    argv: tuple
    exit_code: int = 0
    verdict: str | None = None  # classify: the verdict the group must get
    found: bool | None = None  # witness: whether a witness must be found
    known_defect: bool = False  # expected to fail at this commit; see README

    @property
    def verb(self) -> str:
        return self.argv[0]

    def option(self, name: str, default=None):
        argv = list(self.argv)
        return argv[argv.index(name) + 1] if name in argv else default

    def key(self) -> str:
        return " ".join(self.argv)


# Permutation-group shapes: degree and generators in cycle notation.  A
# random presentation is a random generating pair of the group they
# generate, conjugated by a random relabelling of the points.
SHAPES = {
    # lattice: order 24-72, degree <= 7, each marks query under 1.5 s
    "S4": (4, ("(1 2 3 4)", "(1 2)")),
    "S4xC2": (6, ("(1 2 3 4)", "(1 2)", "(5 6)")),
    "A4xC3": (7, ("(1 2 3)", "(1 2)(3 4)", "(5 6 7)")),
    "AGL(1,7)": (7, ("(1 2 3 4 5 6 7)", "(2 4 3 7 5 6)")),
    "F20xC2": (7, ("(1 2 3 4 5)", "(2 3 5 4)", "(6 7)")),
    "A5": (5, ("(1 2 3 4 5)", "(1 2 3)")),
    "S4xC3": (7, ("(1 2 3 4)", "(1 2)", "(5 6 7)")),
    # census: the passing p-groups, on their natural points
    "C2": (2, ("(1 2)",)),
    "C3": (3, ("(1 2 3)",)),
    "C4": (4, ("(1 2 3 4)",)),
    "C5": (5, ("(1 2 3 4 5)",)),
    "C9": (9, ("(1 2 3 4 5 6 7 8 9)",)),
    "C2xC2": (4, ("(1 2)", "(3 4)")),
    "C2xC4": (6, ("(1 2)", "(3 4 5 6)")),
    "D4": (4, ("(1 2 3 4)", "(1 3)")),
    "Q8": (8, ("(1 2 5 6)(3 4 7 8)", "(1 3 5 7)(2 8 6 4)")),
}

LATTICE_NAMED = ("S5", "A5xC2", "S4xC3", "C3xS4", "D4xS3", "S3xS3", "Q8xS3",
                 "D10xC2", "C2xC2xC2xC2")
# S4xC3 appears both named and as a random presentation: with it, six
# templates per cycle cost about 1 s or more, so the tail percentile (ten
# samples above it per two cycles) lands inside that cluster instead of
# on the gap below it.
LATTICE_SHAPES = ("S4", "S4xC2", "A4xC3", "AGL(1,7)", "F20xC2", "A5", "S4xC3")
CENSUS_GROUPS = ("C2", "C3", "C4", "C5", "C9", "C2xC2", "C2xC4", "D4", "Q8")
CENSUS_PRIME = {"C2": 2, "C3": 3, "C4": 2, "C5": 5, "C9": 3, "C2xC2": 2,
                "C2xC4": 2, "D4": 2, "Q8": 2}
MIX_SMALL = ("C6", "S3", "D4", "Q8", "C2xC2", "A4", "D5", "C12", "S4",
             "C2xC2xC2", "D6", "C10", "C15", "C30", "D15", "C3xS3")
MIX_ALL_STANDARD = (("C4", "4"), ("C2xC2", "4"), ("C3", "5"), ("Q8", "4"),
                    ("C2", "6"), ("D4", "4"))
MIX_WITNESS = (("C10", "Z"), ("C15", "Z"), ("S3", "Z"), ("D5", "Z"),
               ("C6", "sphere"))
MIX_NO_WITNESS = (("C30", "Z"), ("C6", "Fp:7"), ("C12", "Z"), ("C4", "Fp:5"),
                  ("C9", "Fp:2"), ("C2", "Fp:3"))
MIX_WITNESS_FOUND = (("C10", "Z", True), ("C15", "Z", True), ("S3", "Z", True),
                     ("D5", "Z", True), ("C12", "Z", False))
MALFORMED = ("X7", "C0", "perm:3:(1 4)", "perm:x:(1 2)", "S4xT2",
             "perm:4:(1 2)(2 3)", "perm:4:(1 2]")
OVER_BOUND = ("S8", "C2000xC2", "S9")
KNOWN_DEFECT_GROUPS = ("C2", "C4", "C2xC2", "D4")


def random_presentation(rng: random.Random, shape: str) -> str:
    """A perm: spec for the shape's group from a random generating pair."""
    degree, gens = SHAPES[shape]
    base = [parse_cycles(g, degree) for g in gens]
    els = elements(degree, base)
    while True:
        pair = [rng.choice(els), rng.choice(els)]
        if generated_order(degree, pair) == len(els):
            break
    sigma = list(range(degree))
    rng.shuffle(sigma)
    # the identity and a repeated element add nothing to the spec
    gens = dict.fromkeys(p for p in pair if p != els[0])
    return perm_spec(degree, [relabel(p, tuple(sigma)) for p in gens])


def _coeff(rng: random.Random) -> str:
    return rng.choice(("Z", "sphere", f"Fp:{rng.choice(PRIMES)}"))


def _fmt(rng: random.Random) -> tuple:
    return ("--format", rng.choice(("text", "json")))


def _lattice_query(rng, verb, group) -> Query:
    argv = (verb, "--group", group)
    if verb == "conditions":
        argv += ("--coeff", _coeff(rng))
    return Query(argv + _fmt(rng))


def lattice_cycle(rng: random.Random, index: int) -> list:
    """Named pool and random presentations, alternating; verbs rotate by cycle."""
    groups = []
    for i in range(max(len(LATTICE_NAMED), len(LATTICE_SHAPES))):
        if i < len(LATTICE_NAMED):
            groups.append(LATTICE_NAMED[i])
        if i < len(LATTICE_SHAPES):
            groups.append(random_presentation(rng, LATTICE_SHAPES[i]))
    return [
        _lattice_query(rng, VERBS[(j + index) % len(VERBS)], g)
        for j, g in enumerate(groups)
    ]


def _census_query(rng, name, size) -> Query:
    group = name if rng.random() < 0.5 else random_presentation(rng, name)
    coeff = rng.choice(("sphere", "Z", f"Fp:{CENSUS_PRIME[name]}"))
    argv = ("classify", "--group", group, "--coeff", coeff,
            "--max-size", str(size))
    return Query(argv + _fmt(rng), verdict=ALL_STANDARD)


# Census sizes per cycle: every group once at N=8 (about 1 s each), then
# a few light queries on groups the seed picks.  The heavy ones are the
# majority, so the median falls inside them, not on the gap between the
# two clusters.
CENSUS_LIGHT = (7, 6, 7)


def census_cycle(rng: random.Random, index: int) -> list:
    """Each p-group at N=8, and three light queries at N=7 or 6."""
    heavy = [_census_query(rng, name, 8) for name in CENSUS_GROUPS]
    light = [_census_query(rng, rng.choice(CENSUS_GROUPS), size)
             for size in CENSUS_LIGHT]
    return heavy[:3] + light[:1] + heavy[3:6] + light[1:2] + heavy[6:] + light[2:]


def mix_cycle(rng: random.Random, index: int) -> list:
    """38 short queries: all seven verbs, every verdict, one in ten refused."""
    qs = []
    for group in rng.sample(MIX_SMALL, len(MIX_SMALL)):
        qs.append(_lattice_query(rng, rng.choice(VERBS), group))
    for group, size in rng.sample(MIX_ALL_STANDARD, 3):
        coeff = rng.choice(("sphere", "Z"))
        qs.append(Query(("classify", "--group", group, "--coeff", coeff,
                         "--max-size", size) + _fmt(rng), verdict=ALL_STANDARD))
    qs.append(Query(("classify", "--group", "C6", "--coeff", "Z") + _fmt(rng),
                    verdict=WITNESS))
    for group, coeff in rng.sample(MIX_WITNESS, 2):
        qs.append(Query(("classify", "--group", group, "--coeff", coeff)
                        + _fmt(rng), verdict=WITNESS))
    for group, coeff in rng.sample(MIX_NO_WITNESS, 2):
        qs.append(Query(("classify", "--group", group, "--coeff", coeff)
                        + _fmt(rng), verdict=NO_WITNESS))
    qs.append(Query(("classify", "--group", "A5", "--coeff", "sphere")
                    + _fmt(rng), verdict=UNIT))
    qs.append(Query(("witness", "--group", "C6", "--coeff", "Z") + _fmt(rng),
                    found=True))
    qs.append(Query(("witness", "--group", "C30", "--coeff", "Z") + _fmt(rng),
                    found=False))
    for group, coeff, found in rng.sample(MIX_WITNESS_FOUND, 2):
        qs.append(Query(("witness", "--group", group, "--coeff", coeff)
                        + _fmt(rng), found=found))
    for _ in range(4):
        qs.append(Query(("pullback-demo", "--seed", str(rng.randrange(10**6)))
                        + _fmt(rng)))
    for group in OVER_BOUND:
        qs.append(Query((rng.choice(VERBS), "--group", group), exit_code=3))
    qs.append(Query((rng.choice(VERBS), "--group", rng.choice(MALFORMED)),
                    exit_code=2))
    qs.append(Query(("classify", "--group", rng.choice(KNOWN_DEFECT_GROUPS),
                     "--max-size", "-1"), exit_code=2, known_defect=True))
    rng.shuffle(qs)
    return qs


CYCLES = {"lattice": lattice_cycle, "census": census_cycle, "cli_mix": mix_cycle}


def cycle(workload: str, seed: int, index: int) -> list:
    """The index-th cycle of a workload; the same seed gives the same queries."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return CYCLES[workload](rng, index)
