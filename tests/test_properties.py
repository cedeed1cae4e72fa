"""Properties on drawn inputs, each against a route that does not read
what it checks: the subgroup lattice of drawn `perm:` groups (the
search's orbits, the lattice of a product against Goursat's lemma, the
subconjugacy masks and the table of marks), the
orbit classification of G-sets of drawn orbit types (round trip,
orbit deletion, automorphism groups and the Mackey decomposition), the
components of pullbacks of drawn groupoid functors, and the size of the
G-set census.  Drawn with hypothesis, derandomized, so every run checks
the same inputs."""

import functools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equisep import group_core, pullback
from equisep.burnside import table_of_marks
from equisep.families import closure_family
from equisep.group_core import (
    ResourceLimitError,
    closure,
    cyclic_group,
    direct_product,
    make_group,
    pconj,
    pmul,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from equisep.groupoid_calc import (
    CENSUS_COMPONENT_BOUND,
    census_size,
    truncated_gset_groupoid,
)
from equisep.gset import (
    GSetType,
    aut_group,
    induce,
    mackey_decompose,
    orbit_type,
    realize_type,
    restrict,
)
from equisep.pullback import (
    FiniteGroupoid,
    GroupoidComponent,
    GroupoidFunctor,
    all_homomorphisms,
    pullback_pi0,
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
def perm_specs(draw, max_degree=6):
    """`perm:` specs of degree at most max_degree with one to three
    generators."""
    degree = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return f"perm:{degree}:" + ";".join(cycles(p) for p in gens)


def small_group(spec):
    g = oracles.bounded_group(spec, MAX_ORDER)
    assume(g is not None)
    return g


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
        assert orbit == {frozenset(pconj(x, h) for h in first)
                         for x in g.sorted_elements()}


@st.composite
def product_factors(draw):
    """Two drawn `perm:` groups of degree at most 4 whose direct product
    has order at most MAX_ORDER."""
    a, b = (small_group(draw(perm_specs(max_degree=4))) for _ in range(2))
    assume(a.order * b.order <= MAX_ORDER)
    return a, b


@SETTINGS
@given(product_factors())
def test_product_lattice_matches_goursat(factors):
    """_all_subgroups of a drawn direct product finds each subgroup once,
    and they are those that Goursat's lemma builds from the factors'
    layered lattices."""
    a, b = factors
    g = direct_product(a, b)
    t = group_core._table(g)
    found = [frozenset(map(t.perms.__getitem__, sub))
             for orbit, _ in group_core._all_subgroups(g) for sub in orbit]
    want = oracles.goursat_subgroups(a, oracles.layered_subgroups(a),
                                     b, oracles.layered_subgroups(b))
    assert len(found) == len(set(found)) == len(want)
    assert set(found) == set(want)


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
    counts = oracles.containment_counts_by_scan(g)
    for i, h in enumerate(classes):
        assert marks[i] == tuple(h.weyl_order * c for c in counts[i])
        assert marks[i][i] == h.weyl_order
        assert not any(marks[i][i + 1:])
        assert marks[i][0] == g.order // h.order


@SETTINGS
@given(perm_specs())
def test_built_groups_are_their_generators_closures(spec):
    """Each group the library builds from an element set it holds, without
    closing its generators, has the closure of its generators as that set."""
    for h in oracles.groups_built_from_elements(small_group(spec)):
        assert closure(h.generators, h.degree) == h.elements


# G-sets are drawn as orbit types: a few classes with small multiplicities.
GSET_SETTINGS = settings(SETTINGS, max_examples=60)


def drawn_type(draw, g) -> GSetType:
    """Up to three classes of g, each with multiplicity 1 to 3."""
    picked = draw(st.lists(st.sampled_from(subgroup_conjugacy_classes(g)),
                           max_size=3, unique=True))
    return GSetType.from_counts(g, {c: draw(st.integers(1, 3)) for c in picked})


@st.composite
def orbit_types(draw):
    """An orbit type over a drawn `perm:` group, and one of its classes."""
    g = small_group(draw(perm_specs()))
    return drawn_type(draw, g), draw(st.sampled_from(subgroup_conjugacy_classes(g)))


@GSET_SETTINGS
@given(orbit_types())
def test_orbit_type_round_trip_and_deletion(drawn):
    """orbit_type reads back the type realize_type built from cosets, and
    so it does once a class's orbits are dropped from the type."""
    t, cls = drawn
    x = realize_type(t)
    assert orbit_type(x) == t
    kept = GSetType(t.group, tuple((c, n) for c, n in t.entries if c != cls))
    assert orbit_type(realize_type(kept)) == kept


@GSET_SETTINGS
@given(orbit_types())
def test_aut_group_has_the_wreath_order(drawn):
    """aut_group commutes with the action and has order t.aut_order, the
    product of |W(H)|^n * n!, or is refused when that is over the bound."""
    t, _ = drawn
    x = realize_type(t)
    if t.aut_order > group_core.MAX_ORDER:
        with pytest.raises(ResourceLimitError, match="gset.aut_group"):
            aut_group(x)
        return
    aut = aut_group(x)
    assert aut.order == t.aut_order
    for a in aut.generators:
        assert all(pmul(a, p) == pmul(p, a) for p in x.gen_images)


@st.composite
def mackey_inputs(draw):
    """A drawn `perm:` group g, two proper nontrivial subgroups h and k,
    each a conjugate of a drawn class's representative, and a K-set of a
    drawn orbit type."""
    g = small_group(draw(perm_specs()))
    classes, elements = subgroup_conjugacy_classes(g)[1:-1], g.sorted_elements()
    assume(classes)

    def subgroup():
        rep = draw(st.sampled_from(classes)).representative
        x = draw(st.sampled_from(elements))
        return g.subgroup({pconj(x, e) for e in rep.elements})

    h, k = subgroup(), subgroup()
    return g, h, k, realize_type(drawn_type(draw, k))


# 90 draws, not 60: with 60, a mackey_decompose that conjugates by r^-1
# where it should by r (or the reverse) still passed.
@settings(SETTINGS, max_examples=90)
@given(mackey_inputs())
def test_mackey_is_restriction_after_induction(inputs):
    """The double-coset sum mackey_decompose builds has the orbit type of
    the induced G-set restricted to H."""
    g, h, k, y = inputs
    assert orbit_type(mackey_decompose(g, h, k, y)) == orbit_type(
        restrict(induce(g, k, y), h))


# The automorphism groups `equisep pullback-demo` draws its groupoids from.
POOL = [cyclic_group(n) for n in (1, 2, 3, 4)] + [symmetric_group(3)]


@functools.cache
def pool_homs(i, j):
    return all_homomorphisms(POOL[i], POOL[j])


@st.composite
def functor_pairs(draw):
    """Functors f: B -> D and g: C -> D, D of one or two components and B
    and C of one to three, each automorphism group drawn from POOL."""

    def groupoid(name, most):
        picks = draw(st.lists(st.integers(0, len(POOL) - 1),
                              min_size=1, max_size=most))
        return picks, FiniteGroupoid(
            [GroupoidComponent(f"{name}{i}", POOL[k]) for i, k in enumerate(picks)])

    d_picks, d = groupoid("d", 2)

    def functor(name):
        picks, src = groupoid(name, 3)
        cmap, amap = {}, {}
        for comp, k in zip(src.components, picks):
            j = draw(st.integers(0, len(d_picks) - 1))
            cmap[comp.label] = d.components[j].label
            amap[comp.label] = draw(st.sampled_from(pool_homs(k, d_picks[j])))
        return GroupoidFunctor(src, d, cmap, amap)

    return functor("b"), functor("c")


@SETTINGS
@given(functor_pairs())
def test_pullback_components_three_ways(pair):
    """pullback_pi0's double cosets, _orbit_count's fixed points and the
    materialized pullback give the same components: as many in all, as
    many over each base pair, and the same automorphism orders."""
    f, g = pair
    fast = pullback_pi0(f, g)
    slow = oracles.brute_force_pullback(f, g)
    assert len(fast) == pullback._orbit_count(f, g) == len(slow)
    for p in fast:
        over = f"{p.base[0]}|{p.base[1]}#"
        assert p.fiber_size == sum(label.startswith(over) for label in slow.labels())
        assert p.aut_order == slow.component(f"{over}{p.fiber_index}").aut.order


# The p-groups whose census the benchmark's census workload lists.
CENSUS_SPECS = ("C2", "C3", "C4", "C5", "C9", "C2xC2", "C2xC4", "D4", "Q8")
census_group = functools.cache(make_group)


@st.composite
def census_inputs(draw):
    """A census p-group, the family closed under a few of its classes, a
    size bound N <= 8 and a limit."""
    g = census_group(draw(st.sampled_from(CENSUS_SPECS)))
    seed = draw(st.lists(st.sampled_from(subgroup_conjugacy_classes(g)),
                         max_size=3, unique=True))
    return g, closure_family(g, seed), draw(st.integers(0, 8)), draw(
        st.integers(0, 200))


@SETTINGS
@given(census_inputs())
def test_census_size_counts_the_listed_types(inputs):
    """census_size is the number of types truncated_gset_groupoid lists
    when that is at most the limit, and above the limit but no larger
    otherwise."""
    g, family, n, limit = inputs
    sizes = [g.order // c.order for c in family.outside()]
    listed = len(truncated_gset_groupoid(g, family, n))
    assert census_size(sizes, n, CENSUS_COMPONENT_BOUND) == listed
    got = census_size(sizes, n, limit)
    assert got == listed if listed <= limit else limit < got <= listed
