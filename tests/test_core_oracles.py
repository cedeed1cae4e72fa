"""The integer-indexed group core against tuple-permutation oracles.

Every subgroup, every class (size, place in class order, name,
containment counts), normalizers, Weyl groups with their sections, solvability and
perfect subgroups are recomputed on tuple permutations by
`tests/oracles.py` and compared with the library, on the acceptance
corpus, S5, A5xC2, C2xC2xC2xC2xC2, Q8xQ8, D4xD4 and random `perm:` specs
of order at most 48.  The subgroups of a product of two factors (C2xC2,
A5xC2, Q8xQ8, D4xD4) come from Goursat's lemma over the factors' layered
lattices, those of every other spec from the layered search.  On the
specs of order at most 48, normalizers are also checked on subgroups
that are not class representatives.  The lattices of seven direct
products, S5xD4 the largest, are also checked against Goursat's lemma
over their factors' layered lattices.
"""

import functools
import random

import pytest

from equisep import group_core
from equisep.group_core import (
    closure,
    group_flags,
    make_group,
    pconj,
    perfect_subgroup_classes,
    prime_factors,
    subgroup_conjugacy_classes,
    weyl_group,
)
from equisep.burnside import table_of_marks
from equisep.gset import coset_gset

from . import oracles
from .test_acceptance import CORPUS


def _specs():
    specs = CORPUS + ["S5", "A5xC2", "C2xC2xC2xC2xC2", "Q8xQ8", "D4xD4"]
    for spec in oracles.random_perm_specs(random.Random(2024), 40):
        if oracles.bounded_group(spec, 48) is not None:
            specs.append(spec)
    return specs


SPECS = _specs()


@functools.lru_cache(maxsize=None)
def _lattice(spec):
    """The group of spec and its subgroups as element sets: for a product
    of two factors, by Goursat's lemma over the factors' lattices, which
    test_product_subgroups_match_goursat checks on A5xC2 and D4xD4 too;
    for any other spec, by the layered search."""
    g = make_group(spec)
    factors = spec.split("x")
    if len(factors) == 2:
        (a, a_subs), (b, b_subs) = map(_lattice, factors)
        return g, oracles.goursat_subgroups(a, a_subs, b, b_subs)
    return g, oracles.layered_subgroups(g)


@functools.lru_cache(maxsize=None)
def _oracle(spec):
    g, subs = _lattice(spec)
    return g, subs, oracles.conjugacy_classes_by_scan(g, subs)


def _library_subgroups(g):
    """The subgroups of the lattice search's orbits, as the index sets it
    returns, and as sets of perms."""
    t = group_core._table(g)
    found = [sub for orbit, _ in group_core._all_subgroups(g) for sub in orbit]
    return found, {frozenset(t.perms[x] for x in sub) for sub in found}


def _library_derived_series(g):
    t = group_core._table(g)
    gens, orders = t.gens, [g.order]
    while True:
        gens, elems = group_core._derived_subgroup(t, gens)
        if len(elems) == orders[-1]:
            return orders
        orders.append(len(elems))


@pytest.mark.parametrize("spec", SPECS)
def test_subgroups_match_layered_search(spec):
    g, subs, _ = _oracle(spec)
    pairs, found = _library_subgroups(g)
    assert len(pairs) == len(found) == len(subs)
    assert found == set(subs)
    if g.order <= 12:
        assert found == set(oracles.brute_force_subgroups(g))


@pytest.mark.parametrize("left, right", [
    ("S3", "S3"), ("D4", "D4"), ("Q8", "Q8"), ("S4", "C3"), ("A5", "C2"),
    ("S4", "S4"), ("S5", "D4"),
])
def test_product_subgroups_match_goursat(left, right):
    """The subgroups of a direct product, as element sets, are those that
    Goursat's lemma builds from the factors' layered lattices, each once."""
    (a, a_subs), (b, b_subs) = _lattice(left), _lattice(right)
    g = make_group(f"{left}x{right}")
    assert g.elements == {x + tuple(i + a.degree for i in y)
                          for x in a.elements for y in b.elements}
    subs = oracles.goursat_subgroups(a, a_subs, b, b_subs)
    pairs, found = _library_subgroups(g)
    assert len(subs) == len(set(subs)) == len(pairs)
    assert set(subs) == found


@pytest.mark.parametrize("spec", SPECS)
def test_classes_and_counts_match_scan(spec):
    g, _, (want, counts) = _oracle(spec)
    classes = subgroup_conjugacy_classes(g)
    got = [
        (c.representative.elements, c.class_size,
         oracles.encode_subgroup(c.representative.elements), c.name)
        for c in classes
    ]
    assert got == want
    # the marks are |W(H)| times the scanned counts, cell by cell
    assert [list(row) for row in table_of_marks(g).marks] == [
        [c.weyl_order * n for n in row] for c, row in zip(classes, counts)
    ]


@pytest.mark.parametrize("spec", SPECS)
def test_normalizers_and_weyl_sections(spec):
    g, _, _ = _oracle(spec)
    t = group_core._table(g)
    for cls in subgroup_conjugacy_classes(g):
        h = cls.representative
        n = oracles.brute_force_normalizer(g, h.elements)
        # a stop at |G| makes the span a full scan
        gens, elems = group_core._normalizer(
            t, t.indices(h.generators), sorted(t.indices(h.elements)), g.order)
        assert {t.perms[x] for x in elems} == n
        assert closure([t.perms[x] for x in gens], g.degree) == n
        # weyl_group skips this prefix, which acts trivially
        assert gens[:len(h.generators)] == t.indices(h.generators)
        w = weyl_group(g, cls)
        assert w.elements == frozenset(oracles.brute_force_weyl_section(h.elements, n))
        assert closure(w.generators, w.degree) == w.elements
        assert w.order == cls.weyl_order
        assert group_core._is_cyclic(w) == oracles.is_cyclic_by_scan(w)


@pytest.mark.parametrize("spec", [s for s in SPECS if make_group(s).order <= 48])
def test_normalizers_of_other_subgroups(spec):
    """The normalizer span, run to |G|, on each representative conjugated
    by a seeded random element, and on the point stabilizers of the coset
    G-set of the class with the most members."""
    g, _, _ = _oracle(spec)
    t = group_core._table(g)
    rng = random.Random(18)
    perms = g.sorted_elements()
    classes = subgroup_conjugacy_classes(g)
    subs = []
    for cls in classes:
        x = rng.choice(perms)
        subs.append(g.subgroup(pconj(x, y) for y in cls.representative.elements))
    widest = max(classes, key=lambda c: c.class_size)
    x = coset_gset(g, widest.representative)
    subs += [x.group.subgroup(x._fixing(p)) for p in range(x.size)]
    for sub in subs:
        want = oracles.brute_force_normalizer(g, sub.elements)
        gens, elems = group_core._normalizer(
            t, t.indices(sub.generators), sorted(t.indices(sub.elements)), g.order)
        assert {t.perms[x] for x in elems} == want
        assert closure([t.perms[x] for x in gens], g.degree) == want
        assert gens[:len(sub.generators)] == t.indices(sub.generators)


@pytest.mark.parametrize("spec", SPECS)
def test_flags_and_perfect_classes(spec):
    g, _, _ = _oracle(spec)
    series = oracles.brute_force_derived_series(g)
    assert _library_derived_series(g) == series
    flags = group_flags(g)
    assert flags.is_solvable == (series[-1] == 1)
    assert flags.prime_divisors == frozenset(prime_factors(g.order))
    assert flags.is_p_group == (len(flags.prime_divisors) == 1)
    perfect = [
        c
        for c in subgroup_conjugacy_classes(g)
        if oracles.brute_force_commutator_subgroup(
            c.representative.elements, g.degree
        )
        == c.representative.elements
    ]
    assert perfect_subgroup_classes(g) == tuple(perfect)


@pytest.mark.parametrize("spec", SPECS)
def test_against_sympy(spec):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation = combinatorics.Permutation
    PermutationGroup = combinatorics.PermutationGroup

    g, _, _ = _oracle(spec)

    def sym(perms):
        return [Permutation(list(p)) for p in perms] or [
            Permutation(list(range(g.degree)))
        ]

    sg = PermutationGroup(sym(g.generators))
    assert sg.order() == g.order
    assert sg.is_solvable == group_flags(g).is_solvable
    assert [s.order() for s in sg.derived_series()] == _library_derived_series(g)
    t = group_core._table(g)
    for cls in subgroup_conjugacy_classes(g):
        # |N(H)| = |G| / |orbit of H under conjugation|, the orbit walked
        # with sympy's own products.
        start = frozenset(tuple(p.array_form) for p in sym(cls.representative.elements))
        orbit, frontier = {start}, [start]
        while frontier:
            sub = frontier.pop()
            for x in sg.generators:
                image = frozenset(
                    tuple((x**-1 * Permutation(list(p)) * x).array_form) for p in sub
                )
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        h = cls.representative
        _, elems = group_core._normalizer(
            t, t.indices(h.generators), sorted(t.indices(h.elements)), g.order)
        assert len(elems) == g.order // len(orbit)
