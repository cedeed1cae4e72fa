"""G-set orbit typing, induction, Mackey, automorphisms."""

import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

from equisep import group_core
from equisep.group_core import (
    cyclic_group,
    double_cosets,
    make_group,
    pconj,
    subgroup_conjugacy_classes,
    weyl_group,
)
from equisep.gset import (
    GSet,
    GSetType,
    aut_group,
    coset_gset,
    disjoint_union,
    f_assemble,
    f_split,
    induce,
    mackey_decompose,
    orbit_type,
    realize_type,
    restrict,
    trivial_gset,
)
from equisep.families import closure_family, empty_family
from equisep.groupoid_calc import truncated_gset_groupoid

from . import oracles


def classes_by_order(g):
    out = {}
    for c in subgroup_conjugacy_classes(g):
        out.setdefault(c.order, []).append(c)
    return out


def test_orbit_type_of_cosets():
    g = make_group("S3")
    for cls in subgroup_conjugacy_classes(g):
        t = orbit_type(coset_gset(g, cls.representative))
        assert t.entries == ((cls, 1),)
        assert t.size == g.order // cls.order


def test_orbit_type_complete_invariant():
    g = make_group("C6")
    by = classes_by_order(g)
    a = disjoint_union(coset_gset(g, by[2][0].representative), trivial_gset(g, 1))
    b = disjoint_union(trivial_gset(g, 1), coset_gset(g, by[2][0].representative))
    assert orbit_type(a) == orbit_type(b)
    assert orbit_type(a) != orbit_type(trivial_gset(g, 4))


def test_gset_type_label_and_size():
    g = make_group("C6")
    by = classes_by_order(g)
    t = GSetType.from_counts(g, {by[6][0]: 2, by[2][0]: 1})
    assert t.label() == "G/2a + 2*G/6a"
    assert t.size == 3 + 2
    assert orbit_type(realize_type(t)) == t
    assert GSetType.from_counts(g, {}).label() == "empty"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: GSet(make_group("S3"), 2, []),
         "a GSet needs one image per generator"),
        (lambda: coset_gset(make_group("S3"), make_group("C4")),
         "coset_gset needs a subgroup of g"),
        (lambda: restrict(trivial_gset(make_group("S3"), 1), make_group("C4")),
         "restrict needs a subgroup of the acting group"),
        (lambda: induce(make_group("S3"), make_group("C4"),
                        trivial_gset(make_group("C4"), 1)),
         "induce needs a subgroup of g"),
        (lambda: induce(make_group("S3"), cyclic_group(3),
                        trivial_gset(make_group("S3"), 1)),
         "induce needs a K-set over the same subgroup"),
        (lambda: mackey_decompose(make_group("S3"), cyclic_group(3),
                                  cyclic_group(3), trivial_gset(make_group("S3"), 1)),
         "mackey_decompose needs a K-set"),
        (lambda: f_split(trivial_gset(make_group("S3"), 1),
                         closure_family(make_group("S3"),
                                        subgroup_conjugacy_classes(make_group("S3")))),
         "G-set has isotropy inside the family: 6a"),
    ],
    ids=["images", "coset", "restrict", "induce-subgroup",
         "induce-kset", "mackey", "f-split"],
)
def test_gset_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Calls with a bad argument, each answered by a ValueError that is an
# argument check, not an assert, so that `python -O` keeps it, or by the
# TypeError of Group's signature, which takes no element set; run both in
# process and in an optimized child, which prints what each call raised.
BAD_ARGUMENTS = """
from equisep.families import Family
from equisep.group_core import Group, make_group, subgroup_conjugacy_classes
from equisep.classifier import ClassificationOutcome, Verdict
from equisep.gset import GSet, disjoint_union, trivial_gset

def outcomes():
    s3, c2, c3 = make_group("S3"), make_group("C2"), make_group("C3")
    c6 = make_group("C6")
    c6_order_2 = subgroup_conjugacy_classes(c6)[1]
    calls = [
        lambda: s3.subgroup([(0, 1, 2), (1, 0, 2), (0, 2, 1)]),
        lambda: s3.subgroup([]),
        lambda: c3.subgroup([(0, 1, 2), (1, 0, 2)]),
        lambda: disjoint_union(),
        lambda: disjoint_union(trivial_gset(c2, 1), trivial_gset(c3, 1)),
        lambda: Family(s3, frozenset([c6_order_2])),
        # a generator outside the given elements, and no identity in them
        lambda: Group(3, [(1, 2, 0)], [(0, 1, 2), (1, 0, 2)]),
        lambda: Group(3, [(1, 0, 2)], [(1, 0, 2)]),
        # images that are not permutations of the points, and a C3 acting
        # on two points by a transposition, which is no action
        lambda: GSet(c2, 2, [(0, 0)]),
        lambda: GSet(c2, 2, [(0, 5)]),
        lambda: GSet(c3, 2, [(1, 0)]),
        lambda: GSet(c2, 2, []),
        # a negative size, which no generator's image would catch
        lambda: GSet(make_group("C1"), -3, []),
        lambda: ClassificationOutcome(Verdict.ALL_STANDARD, ()),
    ]
    out = []
    for call in calls:
        try:
            call()
            out.append("returned")
        except TypeError as exc:
            # the text of Python's own signature errors varies by version
            out.append(type(exc).__name__)
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out
"""

BAD_ARGUMENT_ERRORS = [
    "ValueError: subgroup elements do not form a group",
    "ValueError: subgroup elements do not form a group",
    "ValueError: subgroup elements must lie in the group",
    "ValueError: disjoint_union needs at least one part",
    "ValueError: disjoint_union needs G-sets over one group",
    "ValueError: class 2a is a subgroup class of another group",
    "TypeError",
    "TypeError",
    "ValueError: not a permutation of 2 points: (0, 0)",
    "ValueError: not a permutation of 2 points: (0, 5)",
    "ValueError: the images are not an action of the group",
    "ValueError: a GSet needs one image per generator",
    "ValueError: a GSet needs a size of at least 0, not -3",
    "ValueError: an outcome has a groupoid iff it is AllStandard",
]


def test_argument_checks_raise_value_errors():
    space = {}
    exec(BAD_ARGUMENTS, space)
    assert space["outcomes"]() == BAD_ARGUMENT_ERRORS


def test_argument_checks_hold_under_optimize():
    """Group.subgroup, disjoint_union, Family, GSet and
    ClassificationOutcome check their arguments with
    ValueErrors that `python -O` keeps, and Group refuses an element set
    under it too."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(group_core.__file__)))
    probe = BAD_ARGUMENTS + "print(__debug__)\nprint(*outcomes(), sep='\\n')\n"
    proc = subprocess.run([sys.executable, "-O", "-c", probe],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"] + BAD_ARGUMENT_ERRORS


def test_restrict_coset_to_complement():
    g = make_group("C6")
    by = classes_by_order(g)
    x = coset_gset(g, by[2][0].representative)
    r = restrict(x, by[3][0].representative)
    t = orbit_type(r)
    assert len(t.entries) == 1
    cls, n = t.entries[0]
    assert cls.order == 1 and n == 1


def test_induce_from_full_group_is_identity():
    g = make_group("S3")
    y = disjoint_union(trivial_gset(g, 2), coset_gset(g, g.subgroup({g.identity})))
    ind = induce(g, g, y)
    assert orbit_type(ind) == orbit_type(y)


def test_induce_point_gives_cosets():
    g = make_group("S3")
    by = classes_by_order(g)
    k = by[2][0].representative
    y = trivial_gset(k, 1)
    ind = induce(g, k, y)
    assert orbit_type(ind) == orbit_type(coset_gset(g, k))


def test_mackey_s3_example():
    g = make_group("S3")
    by = classes_by_order(g)
    h = by[2][0].representative
    y = trivial_gset(h, 1)
    dec = mackey_decompose(g, h, h, y)
    t = orbit_type(dec)
    orders = sorted((c.order, n) for c, n in t.entries)
    assert orders == [(1, 1), (2, 1)]


def test_mackey_from_trivial_subgroup():
    g = make_group("S3")
    by = classes_by_order(g)
    h = by[2][0].representative
    e = g.subgroup({g.identity})
    y = trivial_gset(e, 1)
    dec = mackey_decompose(g, h, e, y)
    t = orbit_type(dec)
    assert len(t.entries) == 1
    cls, n = t.entries[0]
    assert cls.order == 1 and n == 3


def test_mackey_matches_restrict_of_induce_randomized():
    rng = random.Random(7)
    pool = ["C6", "S3", "D4", "A4", "C2xC4"]
    for _ in range(40):
        g = make_group(rng.choice(pool))
        classes = subgroup_conjugacy_classes(g)
        h = rng.choice(classes).representative
        k = rng.choice(classes).representative
        ksubs = subgroup_conjugacy_classes(g.subgroup(k.elements))
        parts = [
            coset_gset(g.subgroup(k.elements), rng.choice(ksubs).representative)
            for _ in range(rng.randint(1, 3))
        ]
        y = disjoint_union(*parts)
        left = mackey_decompose(g, h, g.subgroup(k.elements), y)
        right = restrict(induce(g, g.subgroup(k.elements), y), h)
        assert orbit_type(left) == orbit_type(right)


def test_aut_group_c6_example():
    g = make_group("C6")
    by = classes_by_order(g)
    x = coset_gset(g, by[2][0].representative)
    both = disjoint_union(x, x)
    assert aut_group(both).order == 18


def test_aut_group_regular_orbit():
    g = make_group("C6")
    x = coset_gset(g, g.subgroup({g.identity}))
    assert aut_group(x).order == 6


def test_aut_group_matches_brute_force():
    rng = random.Random(3)
    pool = ["C4", "S3", "C2xC2", "C6"]
    for _ in range(25):
        g = make_group(rng.choice(pool))
        classes = subgroup_conjugacy_classes(g)
        parts = [trivial_gset(g, 0)]
        size = 0
        while size < 10:
            cls = rng.choice(classes)
            block = coset_gset(g, cls.representative)
            if size + block.size > 10:
                break
            parts.append(block)
            size += block.size
        x = disjoint_union(*parts)
        bijections = oracles.all_equivariant_bijections(x)
        a = aut_group(x)
        assert a.order == len(bijections)
        assert a.elements == frozenset(bijections)


def _equivariant_map(x, pairs):
    """The self-map of x that sends u b to u c for each pair (b, c) and
    each element u, found by scanning the group, and fixes every other
    point."""
    perm = list(range(x.size))
    for b, c in pairs:
        for u in x.group.elements:
            perm[x.perm(u)[b]] = x.perm(u)[c]
    return tuple(perm)


@pytest.mark.parametrize("spec", ["C4", "S3", "D4", "C2xC2xC2"])
def test_aut_group_generators_are_the_greedy_choice(spec):
    """aut_group's generators are, class by class in class order, one
    translation of the class's first orbit per element that the greedy
    span of N(H) joins onto H, then one swap per adjacent pair of the
    class's orbits; the base point of an orbit is its least point whose
    stabilizer is H itself.  Each is an equivariant bijection, and they
    generate every one."""
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    perms = g.sorted_elements()
    rng = random.Random(1105)
    for _ in range(6):
        picks = rng.sample(classes, rng.randint(1, 3)) * rng.randint(1, 2)
        x = disjoint_union(*(coset_gset(g, c.representative) for c in picks))
        want = []
        for cls, n in orbit_type(x).entries:
            h = cls.representative.elements
            bases = [min(based) for based in (
                [p for p in orbit if oracles.stabilizer_elements(x, p) == h]
                for orbit in x.orbits()) if based]
            assert len(bases) == n
            first = bases[0]
            want += [_equivariant_map(x, [(first, x.perm(perms[j])[first])])
                     for j in group_core._normalizer_span(g, cls)[1]]
            want += [_equivariant_map(x, [(b, c), (c, b)])
                     for b, c in zip(bases, bases[1:])]
        a = aut_group(x)
        assert a.generators == tuple(want)
        for f in a.generators:
            assert sorted(f) == list(range(x.size))
            for s in g.generators:
                image = x.perm(s)
                assert all(f[image[p]] == image[f[p]] for p in range(x.size))
        assert a.elements == frozenset(oracles.all_equivariant_bijections(x))


@pytest.mark.parametrize("spec", ["S3", "D4", "A4"])
def test_aut_group_with_conjugate_stabilizers(spec):
    """Orbits of one class whose least points have different stabilizers."""
    g = make_group(spec)
    for cls in subgroup_conjugacy_classes(g):
        if cls.class_size == 1:
            continue
        h = cls.representative
        conjugates = (frozenset(pconj(t, k) for k in h.elements)
                      for t in g.sorted_elements())
        other = g.subgroup(next(c for c in conjugates if c != h.elements))
        x = disjoint_union(coset_gset(g, other), coset_gset(g, h))
        assert x.orbit_stabilizers()[0][1] == other.elements
        a = aut_group(x)
        assert a.elements == frozenset(oracles.all_equivariant_bijections(x))
        assert a.order == orbit_type(x).aut_order


def test_orbit_stabilizers_match_stabilizer():
    g = make_group("S4")
    classes = subgroup_conjugacy_classes(g)
    x = disjoint_union(*(coset_gset(g, c.representative) for c in classes[1:4]))
    pairs = x.orbit_stabilizers()
    assert [orbit for orbit, _ in pairs] == x.orbits()
    for orbit, stab in pairs:
        assert stab == x.group.subgroup(x._fixing(orbit[0])).elements
        assert stab == oracles.stabilizer_elements(x, orbit[0])


def test_stabilizers_and_transversals_on_random_unions(monkeypatch):
    """On disjoint unions of coset G-sets of random `perm:` groups, each
    orbit's stabilizer equals the elements found by scanning the group,
    and each transversal element moves its base point where it says.
    The stabilizers are spanned from the generators' images and the
    group's rows alone: no other element's image is read."""
    rng = random.Random(1601)
    checked = 0
    for spec in oracles.random_perm_specs(random.Random(1602), 24):
        g = oracles.bounded_group(spec, 120)
        if g is None:
            continue
        classes = subgroup_conjugacy_classes(g)
        x = disjoint_union(*(coset_gset(g, rng.choice(classes).representative)
                             for _ in range(rng.randint(1, 3))))
        for orbit in x.orbits():
            words = x.transversal(orbit[0])
            assert sorted(words) == list(orbit)
            assert all(x.perm(u)[orbit[0]] == q for q, u in words.items())
        fresh = disjoint_union(x)
        with monkeypatch.context() as m:
            m.setattr(type(x), "perm", lambda *_: pytest.fail("perm was read"))
            pairs = fresh.orbit_stabilizers()
        assert [orbit for orbit, _ in pairs] == x.orbits()
        for orbit, stab in pairs:
            assert stab == oracles.stabilizer_elements(x, orbit[0])
        checked += 1
    assert checked >= 15


def test_aut_group_order_formula():
    g = make_group("D4")
    classes = subgroup_conjugacy_classes(g)
    x = disjoint_union(
        coset_gset(g, classes[0].representative),
        coset_gset(g, classes[0].representative),
        coset_gset(g, classes[-1].representative),
    )
    t = orbit_type(x)
    expected = 1
    for cls, n in t.entries:
        w = weyl_group(g, cls).order
        fact = 1
        for i in range(1, n + 1):
            fact *= i
        expected *= w**n * fact
    assert aut_group(x).order == expected
    assert t.aut_order == expected


# SHA-256 over the automorphism groups (sorted elements and generators) of
# the census types of size <= 8 with order within the default bound, and
# the coset G-sets' generator images, of eight small groups: 588
# automorphism groups; the generators are aut_group's translations and
# swaps.  The second digest leaves the generators out, so it pins the
# element sets alone.
AUT_AND_COSET_DIGEST = (
    "ca18b799192e95da27a00191f89bc0a3308ca42001749281a5c2568d2c0503a3"
)
AUT_AND_COSET_ELEMENTS_DIGEST = (
    "aa46cf22d339f9291989fc485b6e3b5af62b46fa123df1633edd9429fdbc8f38"
)


def test_aut_groups_and_coset_gsets_are_pinned():
    digest, elements, built = hashlib.sha256(), hashlib.sha256(), 0
    for spec in ["C2", "C4", "S3", "D4", "C2xC2", "Q8", "A4", "C6"]:
        g = make_group(spec)
        for t in truncated_gset_groupoid(g, empty_family(g), 8):
            if t.aut_order <= group_core.MAX_ORDER:
                a = aut_group(realize_type(t))
                digest.update(repr((sorted(a.elements), a.generators)).encode())
                elements.update(repr(sorted(a.elements)).encode())
                built += 1
        for c in subgroup_conjugacy_classes(g):
            images = repr(coset_gset(g, c.representative).gen_images).encode()
            digest.update(images)
            elements.update(images)
    assert built == 588
    assert elements.hexdigest() == AUT_AND_COSET_ELEMENTS_DIGEST
    assert digest.hexdigest() == AUT_AND_COSET_DIGEST


def test_empty_gset_is_first_class():
    g = make_group("S3")
    e = trivial_gset(g, 0)
    assert orbit_type(e).entries == ()
    assert aut_group(e).order == 1
    assert orbit_type(e).label() == "empty"


def test_f_split_c2_example():
    g = make_group("C2")
    fam = empty_family(g)
    classes = subgroup_conjugacy_classes(g)
    x = disjoint_union(
        coset_gset(g, classes[0].representative),
        coset_gset(g, classes[1].representative),
    )
    split = f_split(x, fam)
    assert [n for _, n in split.ranks] == [1, 1]
    assert f_assemble(split) == orbit_type(x)


def test_f_split_rank_counts_injective_maps():
    g = make_group("C6")
    by = classes_by_order(g)
    fam = closure_family(g, [by[1][0]])
    x = disjoint_union(*[coset_gset(g, by[3][0].representative)] * 3)
    split = f_split(x, fam)
    for cls, n in split.ranks:
        maps = oracles.injective_equivariant_maps(g, cls, x)
        w = weyl_group(g, cls).order
        assert len(maps) == n * w
    assert dict(split.ranks)[by[3][0]] == 3


def test_f_split_rejects_isotropy_in_family():
    g = make_group("C6")
    by = classes_by_order(g)
    fam = closure_family(g, [by[2][0]])
    x = coset_gset(g, by[2][0].representative)
    with pytest.raises(ValueError):
        f_split(x, fam)


def test_f_split_rejects_family_over_another_group():
    g = cyclic_group(4)
    x = coset_gset(g, g)
    with pytest.raises(ValueError, match="order 2, not 4"):
        f_split(x, empty_family(cyclic_group(2)))


def test_f_split_roundtrip_randomized():
    rng = random.Random(11)
    pool = ["C6", "S3", "D4", "C2xC2"]
    for _ in range(30):
        g = make_group(rng.choice(pool))
        fam = empty_family(g)
        classes = subgroup_conjugacy_classes(g)
        parts = [trivial_gset(g, 0)]
        size = 0
        for _ in range(rng.randint(0, 4)):
            cls = rng.choice(classes)
            block = coset_gset(g, cls.representative)
            if size + block.size > 12:
                continue
            parts.append(block)
            size += block.size
        x = disjoint_union(*parts)
        assert f_assemble(f_split(x, fam)) == orbit_type(x)


def random_triples(seed: int, count: int):
    """(g, h, k) for random `perm:` groups of order at most 120, with h a
    class representative and k a random conjugate of one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        (spec,) = oracles.random_perm_specs(rng, 1)
        g = oracles.bounded_group(spec, 120)
        if g is None:
            continue
        classes = subgroup_conjugacy_classes(g)
        h = rng.choice(classes).representative
        k, x = rng.choice(classes).representative, rng.choice(g.sorted_elements())
        out.append((g, h, g.subgroup(pconj(x, t) for t in k.elements)))
    return out


def test_double_cosets_match_element_orbits():
    """Representatives and sizes agree with H-by-K orbits walked on tuple
    permutations, on 200 random triples."""
    for g, h, k in random_triples(1301, 200):
        assert double_cosets(g, h, k) == oracles.double_cosets_by_orbits(g, h, k)


def test_actions_match_per_element_tables():
    """coset_gset, induce, restrict and mackey_decompose, read at every
    element, agree with tables built element by element."""
    rng = random.Random(1302)
    for g, h, k in random_triples(1303, 30):
        x = coset_gset(g, h)
        table = oracles.coset_table(g.elements, h.elements)
        assert all(x.perm(u) == table[u] for u in g.elements)
        r = restrict(x, k)
        assert all(r.perm(u) == table[u] for u in k.elements)
        sub = rng.choice(subgroup_conjugacy_classes(k)).representative
        y = disjoint_union(coset_gset(k, sub), trivial_gset(k, 1))
        y_table = {u: y.perm(u) for u in k.elements}
        assert y_table == {
            u: p + (len(p),)
            for u, p in oracles.coset_table(k.elements, sub.elements).items()
        }
        ind = induce(g, k, y)
        want = oracles.induced_table(g.elements, k.elements, y_table, y.size)
        assert all(ind.perm(u) == want[u] for u in g.elements)
        mackey = mackey_decompose(g, h, k, y)
        want = oracles.mackey_table(g, h, k, y_table, y.size)
        assert all(mackey.perm(u) == want[u] for u in h.elements)


def test_building_gsets_composes_no_image_until_read(monkeypatch):
    """A G-set is built from its generators' images: no other element's
    image is composed, and no per-element list made, until one is read."""
    composed = []
    compose = group_core._Table.compose

    def counting(t, images, a):
        if images is not t._rows and images[a] is None:
            composed.append(a)
        return compose(t, images, a)

    monkeypatch.setattr(group_core._Table, "compose", counting)
    g = make_group("S4")
    classes = subgroup_conjugacy_classes(g)
    h, k = classes[2].representative, classes[-3].representative
    x = coset_gset(g, h)  # the input the others read
    built = [coset_gset(g, h), trivial_gset(g, 2), trivial_gset(g, 0),
             disjoint_union(x, trivial_gset(g, 1), x),
             induce(g, k, trivial_gset(k, 2))]
    assert composed == []
    # these read their inputs' images, but compose none of their own
    built += [restrict(x, k),
              mackey_decompose(g, h, k, coset_gset(k, k))]
    assert all(b._images is None for b in built)
    fresh = built[0]
    u = next(u for u in g.sorted_elements()[1:] if u not in g.generators)
    before = len(composed)
    assert fresh.perm(u) == oracles.coset_table(g.elements, h.elements)[u]
    assert len(composed) > before
    assert fresh._images[group_core._table(g).index[u]] == fresh.perm(u)
