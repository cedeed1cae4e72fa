"""Group construction, subgroup classification, Weyl groups, double cosets."""

import gc
import importlib
import inspect
import pkgutil
import random
import re
import weakref

import pytest

import equisep
from equisep import group_core
from equisep.burnside import table_of_marks
from equisep.families import Family, closure_family
from equisep.gset import GSetType, aut_group, realize_type
from equisep.group_core import (
    Group,
    GroupSpecError,
    ResourceLimitError,
    alternating_group,
    class_of_subgroup,
    closure,
    cyclic_group,
    dihedral_group,
    double_cosets,
    group_flags,
    make_group,
    perfect_subgroup_classes,
    pconj,
    pinv,
    pmul,
    subgroup_conjugacy_classes,
    symmetric_group,
    weyl_group,
)

from . import oracles
from .test_acceptance import CORPUS


def subgroup_count(g):
    """The subgroups the lattice search finds, summed over its orbits."""
    return sum(len(orbit) for orbit, _ in group_core._all_subgroups(g))


def test_make_group_named_families():
    assert make_group("C6").order == 6
    assert make_group("S3").order == 6
    assert make_group("A4").order == 12
    assert make_group("D4").order == 8
    assert make_group("Q8").order == 8
    assert make_group("C2xC2xC2").order == 8
    assert make_group("D1").order == 2
    assert make_group("D2").order == 4


def test_make_group_product_isomorphic_to_cyclic():
    g = make_group("C2xC3")
    assert g.order == 6
    assert oracles.find_isomorphism(g, make_group("C6")) is not None


def test_make_group_perm_spec():
    g = make_group("perm:5:(1 2 3)(4 5);(1 2)")
    assert g.degree == 5
    assert g.order == 12


def test_make_group_order_bound():
    with pytest.raises(ResourceLimitError):
        make_group("S8")
    assert oracles.bounded_group("perm:8:(1 2);(1 2 3 4 5 6 7 8)", 100) is None


def test_make_group_bound_edges(monkeypatch):
    """The bound admits an order or a degree equal to it, and refuses one
    past it; C1 adds a point and no order."""
    monkeypatch.setattr(group_core, "MAX_ORDER", 12)
    assert make_group("C12").order == 12
    assert make_group("C1xC11").degree == 12
    for spec, what in (("C13", "order 13"), ("C1xC12", "degree 13")):
        with pytest.raises(ResourceLimitError, match=f"{what} exceeds the bound 12"):
            make_group(spec)


@pytest.mark.parametrize("spec", ["S9", "S12", "C2000xC2", "A12xC2", "S100000"])
def test_make_group_refuses_before_building(monkeypatch, spec):
    def refuse(*args):
        raise AssertionError("built a group that the order bound refuses")

    for name in ("cyclic_group", "symmetric_group", "alternating_group"):
        monkeypatch.setattr(group_core, name, refuse)
    with pytest.raises(ResourceLimitError):
        make_group(spec)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: class_of_subgroup(make_group("S3"), {(1, 0, 2, 3)}),
         ValueError, "not a subgroup of g"),
        (lambda: Group(3, [(0, 0, 1)]),
         ValueError, "not a permutation of degree 3: (0, 0, 1)"),
        (lambda: cyclic_group(0),
         GroupSpecError, "cyclic group needs n >= 1, got 0"),
        (lambda: symmetric_group(-1),
         GroupSpecError, "symmetric group needs n >= 0, got -1"),
        (lambda: alternating_group(0),
         GroupSpecError, "alternating group needs n >= 1, got 0"),
        (lambda: dihedral_group(2),
         GroupSpecError, "dihedral group needs n >= 3, got 2"),
        (lambda: double_cosets(make_group("S3"), make_group("C4"), make_group("C4")),
         ValueError, "double_cosets needs subgroups of g"),
    ],
    ids=["foreign-subgroup", "non-permutation", "C0", "S-1", "A0", "D2",
         "double-cosets"],
)
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_class_of_another_group_refused():
    """Every reader of a class's place in the class order refuses a class
    of another group with the same error, here the classes of C6, whose
    names are also those of S3's classes."""
    g = make_group("S3")
    calls = [
        lambda cls: weyl_group(g, cls),
        lambda cls: closure_family(g, [cls]),
        lambda cls: Family(g, frozenset([cls])),
        lambda cls: GSetType.from_counts(g, {cls: 1}),
    ]
    foreign = subgroup_conjugacy_classes(make_group("C6"))
    assert [c.name for c in foreign] == [c.name for c in subgroup_conjugacy_classes(g)]
    for cls in foreign:
        for call in calls:
            with pytest.raises(ValueError, match=(
                    f"^class {cls.name} is a subgroup class of another group$")):
                call(cls)


@pytest.mark.parametrize(
    "bad",
    ["", "C0", "C6x", "B5", "perm:3:(1 4)", "perm:0:(1)", "perm:3:(1 1 2)",
     "perm:x:(1 2)", "S3y", "perm:3"],
)
def test_make_group_rejects_malformed(bad):
    with pytest.raises(GroupSpecError):
        make_group(bad)


def _outcome(read, text):
    """What read gives on text: its value, or its error's type and text."""
    try:
        return read(text)
    except (GroupSpecError, ResourceLimitError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("read, reference, alphabet, edges", [
    (lambda t: group_core._parse_cycles(t, 9), lambda t: oracles.regex_cycles(t, 9),
     "() ,\t123x(9)٣;",
     ["", " ", "()", "(1 2)", "((1 2))", "(1 2", ")", "(1 2))", "(1,2)\t(3 9)",
      " (1, ,2) ", "(1)(1)", "(10)", "(1 2)x", "(٣)"]),
    (lambda t: group_core._named_atom(t)[:2], oracles.regex_named_atom,
     "CDSAQxc8 0123٣-+",
     ["", "Q8", "Q", "C", "C0", "C12", " C2", "C2 ", "D1", "D2", "D3", "S3",
      "A1", "A2", "S1001", "A1000", "C٣", "C+1", "c8", "CC2"]),
], ids=["cycles", "atoms"])
def test_spec_readers_match_the_regex_reference(read, reference, alphabet, edges):
    """The str-method readers of cycles and named tokens give what the
    regular expressions they replaced give, on fixed edge cases and 20,000
    seeded random strings each: the same permutation or (order, degree),
    or the same error type and text."""
    rng = random.Random(9)
    texts = edges + ["".join(rng.choices(alphabet, k=rng.randint(0, 10)))
                     for _ in range(20_000)]
    outcomes = [(_outcome(read, t), _outcome(reference, t)) for t in texts]
    assert [t for t, (got, want) in zip(texts, outcomes) if got != want] == []
    kinds = {got[0] if isinstance(got[0], type) else "value" for got, _ in outcomes}
    assert {"value", GroupSpecError} <= kinds


def test_subgroup_classes_c6():
    g = make_group("C6")
    classes = subgroup_conjugacy_classes(g)
    assert [c.order for c in classes] == [1, 2, 3, 6]
    assert all(c.class_size == 1 for c in classes)


def test_subgroup_classes_s3():
    g = make_group("S3")
    classes = subgroup_conjugacy_classes(g)
    assert [c.order for c in classes] == [1, 2, 3, 6]
    sizes = {c.order: c.class_size for c in classes}
    assert sizes[2] == 3
    assert sizes[3] == 1


def test_subgroup_classes_q8():
    classes = subgroup_conjugacy_classes(make_group("Q8"))
    assert [c.order for c in classes] == [1, 2, 4, 4, 4, 8]
    assert all(c.class_size == 1 for c in classes)


# From degree 11 on, a point's decimal string sorts apart from its value
# ("10" < "2"), and the class order compares those strings
# (oracles.encode_subgroup).
@pytest.mark.parametrize(
    "spec,names",
    [
        ("S3", "1a 2a 3a 6a"),
        ("C12", "1a 2a 3a 4a 6a 12a"),
        ("D12", "1a 2a 2b 2c 3a 4a 4b 4c 6a 6b 6c 8a 12a 12b 12c 24a"),
        ("Q8xS3", "1a 2a 2b 2c 3a 4a 4b 4c 4d 4e 4f 4g 6a 6b 6c 8a 8b 8c 8d "
                  "8e 8f 8g 12a 12b 12c 12d 12e 12f 12g 16a 24a 24b 24c 24d "
                  "24e 24f 24g 48a"),
    ],
    ids=["S3", "C12", "D12", "Q8xS3"],
)
def test_class_names_and_sort_order(spec, names):
    classes = subgroup_conjugacy_classes(make_group(spec))
    assert [c.name for c in classes] == names.split()
    keys = [(c.order, oracles.encode_subgroup(c.representative.elements))
            for c in classes]
    assert keys == sorted(keys)


@pytest.mark.parametrize("spec", ["S4", "C12", "D12", "Q8xS3"])
def test_representative_is_lex_minimal_in_class(spec):
    g = make_group(spec)
    for cls in subgroup_conjugacy_classes(g):
        rep = cls.representative.elements
        best = min(
            (frozenset(pconj(x, h) for h in rep) for x in g.elements),
            key=oracles.encode_subgroup,
        )
        assert best == rep


@pytest.mark.parametrize("spec", ["C6", "S3", "D4", "A4", "C2xC2"])
def test_subgroup_counts_against_power_set_scan(spec):
    g = make_group(spec)
    subs = oracles.brute_force_subgroups(g)
    assert subgroup_count(g) == len(subs)
    count = oracles.conjugacy_class_count(g, subs)
    assert len(group_core._all_subgroups(g)) == count
    assert len(subgroup_conjugacy_classes(g)) == count


def test_classes_isomorphism_invariant():
    a = make_group("C2xC3")
    b = make_group("C6")
    profile = lambda g: sorted(
        (c.order, c.class_size) for c in subgroup_conjugacy_classes(g)
    )
    assert profile(a) == profile(b)


def test_orbit_stabilizer_for_classes():
    g = make_group("S4")
    t = group_core._table(g)
    for cls in subgroup_conjugacy_classes(g):
        h = cls.representative
        # a stop at |G| makes the normalizer span a full scan
        _, n = group_core._normalizer(
            t, t.indices(h.generators), sorted(t.indices(h.elements)), g.order)
        assert cls.class_size * len(n) == g.order


def test_weyl_group_examples():
    s3 = make_group("S3")
    classes = subgroup_conjugacy_classes(s3)
    by_order = {c.order: c for c in classes}
    assert weyl_group(s3, by_order[2]).order == 1
    assert weyl_group(s3, by_order[6]).order == 1
    w = weyl_group(s3, by_order[1])
    assert w.order == 6
    assert oracles.find_isomorphism(w, s3) is not None


@pytest.mark.parametrize("spec, cyclic", [
    ("C1", True), ("C6", True), ("C2xC2", False), ("C2xC4", False),
    ("C2xC3xC5", True), ("Q8", False), ("S3", False),
    ("perm:3:(1 2 3);(1 2)", False),
])
def test_cyclicity_is_read_off_generators(spec, cyclic):
    """_is_cyclic agrees with a scan of the elements' orders, on groups
    whose generators fail it by an lcm of orders short of the group's
    (C2xC2, C2xC4, Q8 and S3, which make_group generates by two
    transpositions) or only by not commuting (S3 on a 3-cycle and a
    transposition, whose orders have lcm 6)."""
    g = make_group(spec)
    assert group_core._is_cyclic(g) == oracles.is_cyclic_by_scan(g) == cyclic


def test_weyl_order_matches_normalizer_quotient():
    g = make_group("A4")
    t = group_core._table(g)
    for cls in subgroup_conjugacy_classes(g):
        h = cls.representative
        _, n = group_core._normalizer(
            t, t.indices(h.generators), sorted(t.indices(h.elements)), g.order)
        assert weyl_group(g, cls).order * cls.order == len(n)


def test_weyl_section_induces_quotient():
    """The elements the N(H) span joins onto H lie in N(H) and outside H,
    and W(H) has one generator for each of them."""
    g = make_group("D4")
    t = group_core._table(g)
    for cls in subgroup_conjugacy_classes(g):
        h, joined, members = group_core._normalizer_span(g, cls)
        _, n = group_core._normalizer(
            t, t.indices(cls.representative.generators), h, g.order)
        assert set(members) == set(n) and members[:len(h)] == h
        assert set(joined) <= set(n) - set(h)
        w = weyl_group(g, cls)
        assert len(w.generators) == len(joined)
        assert w.order * len(h) == len(n)


def test_double_cosets_s3_example():
    g = make_group("S3")
    flip = next(
        c for c in subgroup_conjugacy_classes(g) if c.order == 2
    ).representative
    sizes = [size for _, size in double_cosets(g, flip, flip)]
    assert sorted(sizes) == [2, 4]
    assert sum(sizes) == g.order


def test_double_coset_size_formula():
    g = make_group("S4")
    classes = subgroup_conjugacy_classes(g)
    h = next(c for c in classes if c.order == 4).representative
    k = next(c for c in classes if c.order == 6).representative
    dec = double_cosets(g, h, k)
    assert sum(size for _, size in dec) == g.order
    for rep, size in dec:
        cap = h.elements & frozenset(pconj(rep, x) for x in k.elements)
        assert size == h.order * k.order // len(cap)


def test_double_cosets_rejects_non_subgroups():
    g = make_group("S3")
    other = make_group("C2")
    with pytest.raises(ValueError):
        double_cosets(g, other, other)


def test_group_flags():
    a5 = make_group("A5")
    f = group_flags(a5)
    assert not f.is_solvable
    assert not f.is_p_group
    assert f.prime_divisors == {2, 3, 5}

    q8 = group_flags(make_group("Q8"))
    assert q8.is_p_group and q8.prime_divisors == {2} and q8.is_solvable

    triv = group_flags(make_group("C1"))
    assert triv.is_trivial and not triv.is_p_group and triv.is_solvable

    assert group_flags(make_group("S4")).is_solvable


def test_perfect_subgroup_classes():
    a5 = make_group("A5")
    assert [c.order for c in perfect_subgroup_classes(a5)] == [1, 60]
    s5 = make_group("S5")
    assert [c.order for c in perfect_subgroup_classes(s5)] == [1, 60]
    for spec in ["C6", "S4", "D4", "Q8"]:
        g = make_group(spec)
        assert [c.order for c in perfect_subgroup_classes(g)] == [1]


@pytest.mark.parametrize("spec", ["C1", "C6", "S4", "Q8xS3", "D4xS3"])
def test_perfect_classes_of_solvable_group_skip_the_lattice(spec, monkeypatch):
    def refuse(g):
        raise AssertionError("the lattice was built")

    g = make_group(spec)
    with monkeypatch.context() as m:
        m.setattr(group_core, "_all_subgroups", refuse)
        (trivial,) = perfect_subgroup_classes(g)
    assert g._table.lattice is None
    first = subgroup_conjugacy_classes(g)[0]
    assert first.name == "1a"
    assert trivial == first
    assert hash(trivial) == hash(first)


def test_solvable_iff_only_trivial_perfect_class():
    for spec in ["C1", "C6", "S3", "S4", "A4", "A5", "S5", "Q8"]:
        g = make_group(spec)
        perfect = perfect_subgroup_classes(g)
        assert group_flags(g).is_solvable == (len(perfect) == 1)


def test_class_of_subgroup_lookup():
    g = make_group("S3")
    flips = [x for x in g.elements if x != g.identity and pmul(x, x) == g.identity]
    assert len(flips) == 3
    found = {class_of_subgroup(g, frozenset([g.identity, f])) for f in flips}
    assert len(found) == 1
    assert next(iter(found)).order == 2


@pytest.mark.parametrize("spec", ["A4", "D6"])
def test_class_of_subgroup_indexes_every_subgroup(spec):
    g = make_group(spec)
    members = {}
    for sub in oracles.brute_force_subgroups(g):
        cls = class_of_subgroup(g, sub)
        rep = cls.representative.elements
        assert any(frozenset(pconj(x, h) for h in rep) == sub
                   for x in g.sorted_elements())
        members[cls] = members.get(cls, 0) + 1
    assert members == {c: c.class_size for c in subgroup_conjugacy_classes(g)}
    with pytest.raises(ValueError):
        class_of_subgroup(g, frozenset([g.identity, g.generators[0]]))


def test_subgroup_class_hash_follows_name():
    classes = subgroup_conjugacy_classes(make_group("D4"))
    again = subgroup_conjugacy_classes(make_group("D4"))
    for c, d in zip(classes, again):
        assert c == d and hash(c) == hash(d) == hash(c.name)


def test_left_cosets_partition():
    """_cosets over all of g, read back as perms, agrees with the scan
    over tuple permutations."""
    g = make_group("S4")
    t = group_core._table(g)
    for cls in subgroup_conjugacy_classes(g):
        h = cls.representative
        reps, coset_of = group_core._cosets(t, range(g.order), t.indices(h.elements))
        reps = [t.perms[x] for x in reps]
        coset_of = {t.perms[x]: c for x, c in coset_of.items()}
        assert reps == sorted(reps) and len(reps) * h.order == g.order
        for x in g.sorted_elements():
            assert reps[coset_of[x]] == min(pmul(x, k) for k in h.elements)
        assert (reps, coset_of) == oracles._left_cosets_by_scan(g.elements, h.elements)


def test_subconjugacy_relation():
    g = make_group("S4")
    classes = subgroup_conjugacy_classes(g)
    triv, full = classes[0], classes[-1]
    for cls in classes:
        assert oracles.below_bit(g, triv, cls)
        assert oracles.below_bit(g, cls, full)
        assert oracles.below_bit(g, cls, cls)
    two = next(c for c in classes if c.order == 2)
    three = next(c for c in classes if c.order == 3)
    assert not oracles.below_bit(g, two, three)
    assert not oracles.below_bit(g, three, two)


def test_group_equality_and_determinism():
    a = make_group("C6")
    b = make_group("C6")
    assert a == b and hash(a) == hash(b)
    ca = subgroup_conjugacy_classes(a)
    cb = subgroup_conjugacy_classes(b)
    assert [(c.name, c.representative) for c in ca] == [
        (c.name, c.representative) for c in cb]


def test_group_signature_takes_no_element_set():
    """Group always closes its generators; the bad calls that pass an
    element set are in tests/test_gset.py's BAD_ARGUMENTS."""
    assert str(inspect.signature(Group)) == "(degree, generators)"
    assert Group(3, [(1, 0, 2)]).elements == {(0, 1, 2), (1, 0, 2)}


@pytest.mark.parametrize("spec", CORPUS)
def test_built_groups_are_their_generators_closures(spec):
    """Subgroups, direct products, Weyl groups and automorphism groups
    are built from an element set without a closure;
    that set is the closure of their generators."""
    built = list(oracles.groups_built_from_elements(make_group(spec)))
    assert len(built) > 1
    for h in built:
        assert closure(h.generators, h.degree) == h.elements


def test_inverse_and_conjugation_helpers():
    g = make_group("S4")
    for x in g.sorted_elements()[:8]:
        assert pmul(x, pinv(x)) == g.identity
    a, b = g.generators[0], g.generators[1]
    assert pconj(a, b) == pmul(pmul(a, b), pinv(a))


@pytest.mark.parametrize(
    "spec,classes,subgroups",
    [("S4", 11, 30), ("S5", 19, 156), ("S6", 56, 1455), ("A6", 22, 501),
     ("S4xS4", 274, 2976)],
)
def test_lattice_sizes_match_known_counts(spec, classes, subgroups):
    """Conjugacy classes of subgroups (OEIS A000638) and subgroups
    (OEIS A005432) of S4, S5 and S6; A6 has 22 classes and 501 subgroups.
    S4xS4, with 2,976 subgroups in 274 classes, stays under SUBGROUP_BOUND."""
    found = subgroup_conjugacy_classes(make_group(spec))
    assert len(found) == classes
    assert sum(c.class_size for c in found) == subgroups


@pytest.mark.parametrize(
    "spec,most", [("S5", 200), ("S6", 1500), ("C2xC2xC2xC2xC2", 2077)]
)
def test_lattice_search_joins_once_per_normalizer_orbit(monkeypatch, spec, most):
    """Every _Table.join is counted, of two kinds.  Extensions: each
    class representative H is joined with one cyclic per N(H)-orbit,
    skipping the orbits that meet a join of prime index over H: 142 on S5
    and 1,260 on S6, where one join per cyclic took 901 and 12,498.  N(H)
    spans: each representative that is not normal spans N(H) from H by
    one join per picked generator, 16 on S5 and 73 on S6, so 158 and
    1,333 in all.  On C2 to the 5th every subgroup is normal, so no N(H)
    is spanned, and every join has index 2: the search makes one join
    per cover of its subspace lattice, the sum over d of
    [5 choose d]_2 (2^(5-d) - 1) = 2,077; one join per orbit took
    9,517."""
    calls = []
    join = group_core._Table.join

    def counting(self, *args):
        calls.append(1)
        return join(self, *args)

    monkeypatch.setattr(group_core._Table, "join", counting)
    found = subgroup_count(make_group(spec))
    assert found == {"S5": 156, "S6": 1455, "C2xC2xC2xC2xC2": 374}[spec]
    assert len(calls) <= most


def test_lattice_search_partitions_no_whole_group(monkeypatch):
    """N(H) is spanned up to |G| / |class of H|, so the search never
    splits G into the left cosets of a subgroup."""
    def refuse(*args):
        raise AssertionError("the search partitioned a group into cosets")

    monkeypatch.setattr(group_core, "_cosets", refuse)
    for spec, count in [("S5", 156), ("D4xS3", 120), ("C2xC2xC2xC2", 67)]:
        assert subgroup_count(make_group(spec)) == count


def test_normalizers_and_weyl_groups_span_no_second_group(monkeypatch):
    """weyl_group runs the one N(H) span once, keeps the generators it
    joined, and never respans a subgroup from its elements."""
    g = make_group("S5")
    classes = subgroup_conjugacy_classes(g)
    spans = []

    def refuse(*args):
        raise AssertionError("a subgroup was spanned from its elements")

    def counted(g, cls, span=group_core._normalizer_span):
        spans.append(span(g, cls))
        return spans[-1]

    monkeypatch.setattr(group_core.Group, "subgroup", refuse)
    monkeypatch.setattr(group_core, "_normalizer_span", counted)
    for cls in classes:
        w = weyl_group(g, cls)
        assert w.order == cls.weyl_order
        assert len(w.generators) == len(spans[-1][1])
    assert len(spans) == len(classes)


def test_lattice_bound_counts_subgroups_found(monkeypatch):
    """The search refuses once the subgroups found pass SUBGROUP_BOUND,
    and answers a lattice of exactly that many."""
    g = make_group("S4")
    monkeypatch.setattr(group_core, "SUBGROUP_BOUND", 30)
    assert subgroup_count(g) == 30
    monkeypatch.setattr(group_core, "SUBGROUP_BOUND", 29)
    with pytest.raises(ResourceLimitError) as info:
        group_core._all_subgroups(g)
    assert str(info.value) == (
        "subgroup lattice has at least 30 subgroups, over the bound 29 "
        "(layer group_core._all_subgroups)"
    )


class Unreadable:
    """A sequence that fails on any read."""

    def __iter__(self):
        raise AssertionError("a cell was counted")

    def __getitem__(self, i):
        raise AssertionError("a cell was counted")


def test_count_bound_refuses_the_table_before_counting(monkeypatch):
    """S4 has 11 classes: a bound of 120 cells refuses its 121-cell
    containment-count table, with no count made (the lattice's orbits and
    masks, which every cell reads, are not read), and 121 answers it."""
    g = make_group("S4")
    lattice = group_core._subgroup_classes(g)
    monkeypatch.setattr(group_core, "COUNT_CELL_BOUND", 120)
    with monkeypatch.context() as m:
        m.setattr(lattice, "orbits", Unreadable())
        m.setattr(lattice, "below", Unreadable())
        with pytest.raises(ResourceLimitError) as info:
            table_of_marks(g)
        assert str(info.value) == (
            "containment-count table of 11 classes has 121 cells, over the "
            "bound 120 (layer group_core._Lattice.counts)"
        )
    monkeypatch.setattr(group_core, "COUNT_CELL_BOUND", 121)
    assert len(table_of_marks(g).marks) == 11


def test_counts_and_marks_are_made_on_each_request():
    """The marks, counted from the containment counts, are not kept: each
    call makes a new table, and nothing on the group's table or lattice
    holds one."""
    g = make_group("S4")
    marks = table_of_marks(g).marks
    assert marks == table_of_marks(g).marks
    assert marks is not table_of_marks(g).marks
    t = g._table
    held = [getattr(o, s) for o in (t, t.lattice) for s in type(o).__slots__]
    assert not any(v is marks or v == marks for v in held)


def test_derived_data_dies_with_its_group():
    """Lattice, marks, flags, Weyl groups and automorphism groups are
    kept on the group or recomputed, never in a module-level
    memo, so a group nothing refers to is freed."""
    g = make_group("S4")
    ref = weakref.ref(g)
    classes = subgroup_conjugacy_classes(g)
    assert table_of_marks(g).marks[0][0] == g.order
    assert group_flags(g).is_solvable
    assert weyl_group(g, classes[1]).order == classes[1].weyl_order
    x = realize_type(GSetType.from_counts(g, {classes[-1]: 2}))
    assert aut_group(x).order == 2
    del g, classes, x
    gc.collect()
    assert ref() is None


def test_no_module_level_memo_tables():
    """No function of the library is wrapped in a memo (cache_info) or
    any other decorator (__wrapped__)."""
    names = [m.name for m in pkgutil.iter_modules(equisep.__path__)
             if m.name != "__main__"]
    assert "group_core" in names
    wrapped = []
    for name in names:
        module = importlib.import_module(f"equisep.{name}")
        for attr, obj in vars(module).items():
            members = [(attr, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members += [(f"{attr}.{k}", getattr(obj, k)) for k in vars(obj)]
            wrapped += [
                f"{name}.{label}" for label, fn in members
                if hasattr(fn, "cache_info") or hasattr(fn, "__wrapped__")
            ]
    assert wrapped == []
