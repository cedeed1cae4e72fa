"""The integer-indexed group core against tuple-permutation oracles.

Every subgroup, every class (size, canonical key, name, containment
counts), normalizers, Weyl groups with their sections, solvability and
perfect subgroups are recomputed on tuple permutations by
`tests/oracles.py` and compared with the library, on the acceptance
corpus, S5, A5xC2, C2xC2xC2xC2xC2, Q8xQ8, D4xD4 and random `perm:` specs
of order at most 48.  On the specs of order at most 48, normalizers are
also checked on subgroups that are not class representatives.
"""

import functools
import random

import pytest

from equisep import group_core
from equisep.group_core import (
    ResourceLimitError,
    closure,
    containment_counts,
    group_flags,
    make_group,
    normalizer,
    pconj,
    perfect_subgroup_classes,
    prime_factors,
    subgroup_conjugacy_classes,
    weyl_group_with_section,
)
from equisep.gset import coset_gset

from . import oracles
from .test_acceptance import CORPUS


def _specs():
    specs = CORPUS + ["S5", "A5xC2", "C2xC2xC2xC2xC2", "Q8xQ8", "D4xD4"]
    for spec in oracles.random_perm_specs(random.Random(2024), 40):
        try:
            make_group(spec, max_order=48)
        except ResourceLimitError:
            continue
        specs.append(spec)
    return specs


SPECS = _specs()


@functools.lru_cache(maxsize=None)
def _oracle(spec):
    g = make_group(spec, max_order=2000)
    subs = oracles.layered_subgroups(g)
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


@pytest.mark.parametrize("spec", SPECS)
def test_classes_and_counts_match_scan(spec):
    g, _, (want, counts) = _oracle(spec)
    classes = subgroup_conjugacy_classes(g)
    got = [
        (c.representative.elements, c.class_size, c.canonical_key, c.name)
        for c in classes
    ]
    assert got == want
    assert [list(row) for row in containment_counts(g)] == counts


@pytest.mark.parametrize("spec", SPECS)
def test_normalizers_and_weyl_sections(spec):
    g, _, _ = _oracle(spec)
    for cls in subgroup_conjugacy_classes(g):
        h = cls.representative
        n = oracles.brute_force_normalizer(g, h.elements)
        got = normalizer(g, h)
        assert got.elements == n
        assert closure(got.generators, g.degree) == n
        # aut_group skips this prefix, which acts trivially
        assert got.generators[:len(h.generators)] == h.generators
        w, section = weyl_group_with_section(g, cls)
        assert section == oracles.brute_force_weyl_section(h.elements, n)
        assert w.elements == frozenset(section)
        assert closure(w.generators, w.degree) == w.elements
        assert w.order == cls.weyl_order


@pytest.mark.parametrize("spec", [s for s in SPECS if make_group(s).order <= 48])
def test_normalizers_of_other_subgroups(spec):
    """normalizer on each representative conjugated by a seeded random
    element, and on the point stabilizers of the coset G-set of the
    class with the most members."""
    g, _, _ = _oracle(spec)
    rng = random.Random(18)
    perms = g.sorted_elements()
    classes = subgroup_conjugacy_classes(g)
    subs = []
    for cls in classes:
        x = rng.choice(perms)
        subs.append(g.subgroup(pconj(x, y) for y in cls.representative.elements))
    widest = max(classes, key=lambda c: c.class_size)
    x = coset_gset(g, widest.representative)
    subs += [x.stabilizer(p) for p in range(x.size)]
    for sub in subs:
        want = oracles.brute_force_normalizer(g, sub.elements)
        got = normalizer(g, sub)
        assert got.elements == want
        assert closure(got.generators, g.degree) == want
        assert got.generators[:len(sub.generators)] == sub.generators


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
        assert normalizer(g, cls.representative).order == g.order // len(orbit)
