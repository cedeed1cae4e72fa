"""Properties of the subgroup lattice on drawn `perm:` groups: the search's
orbits, the subconjugacy masks and the table of marks, each against a
route that does not read them.  Drawn with hypothesis, derandomized, so
every run checks the same groups."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equisep import group_core
from equisep.burnside import table_of_marks
from equisep.group_core import (
    ResourceLimitError,
    containment_counts,
    make_group,
    pconj,
    subgroup_conjugacy_classes,
)

from . import oracles

# Groups past this order make the tuple-permutation oracles too slow.
MAX_ORDER = 48

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def cycles(images) -> str:
    """A permutation of 0..n-1 in 1-based cycle notation, "(1)" for the
    identity."""
    seen, out = set(), []
    for start in range(len(images)):
        if start in seen:
            continue
        cycle = [start]
        while images[cycle[-1]] != start:
            cycle.append(images[cycle[-1]])
        seen.update(cycle)
        if len(cycle) > 1:
            out.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(out) or "(1)"


@st.composite
def perm_specs(draw):
    """`perm:` specs of degree at most 6 with one to three generators."""
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return f"perm:{degree}:" + ";".join(cycles(p) for p in gens)


def small_group(spec):
    try:
        return make_group(spec, max_order=MAX_ORDER)
    except ResourceLimitError:
        assume(False)


@SETTINGS
@given(perm_specs())
def test_search_orbits_partition_the_subgroups(spec):
    """The orbits _all_subgroups returns are disjoint, each is a whole
    conjugation orbit, and together they are every subgroup that
    layered_subgroups finds."""
    g = small_group(spec)
    t = group_core._table(g)
    orbits = [
        {frozenset(map(t.perms.__getitem__, sub)) for sub in orbit}
        for orbit, _ in group_core._all_subgroups(g)
    ]
    subs = oracles.layered_subgroups(g)
    assert sum(map(len, orbits)) == len(subs)
    assert set().union(*orbits) == set(subs)
    for orbit in orbits:
        first = next(iter(orbit))
        assert orbit == {frozenset(pconj(x, h) for h in first) for x in g}


@SETTINGS
@given(perm_specs())
def test_below_bits_are_the_nonzero_scanned_counts(spec):
    """Bit K of below[H] is set exactly when the scanned c[H][K] > 0."""
    g = small_group(spec)
    below = group_core._subgroup_classes(g).below
    want = oracles.containment_counts_by_scan(g)
    k = len(want)
    assert [[mask >> j & 1 == 1 for j in range(k)] for mask in below] == [
        [c > 0 for c in row] for row in want
    ]


@SETTINGS
@given(perm_specs())
def test_marks_are_weyl_scaled_counts(spec):
    """m(H, K) = |W(H)| * c[H][K] cell by cell; the table is lower
    triangular with diagonal |W(H)|, and m(G/H, 1) = |G:H|."""
    g = small_group(spec)
    classes = subgroup_conjugacy_classes(g)
    marks = table_of_marks(g).marks
    counts = containment_counts(g)
    for i, h in enumerate(classes):
        assert marks[i] == tuple(h.weyl_order * c for c in counts[i])
        assert marks[i][i] == h.weyl_order
        assert not any(marks[i][i + 1:])
        assert marks[i][0] == g.order // h.order
