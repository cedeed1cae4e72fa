"""Families of subgroups, and the exhaustive filtrations grown from them
one class at a time in class order."""

import copy
import pickle
import random

import pytest

from equisep import families, group_core
from equisep.families import Family, closure_family, empty_family
from equisep.group_core import (
    is_subconjugate,
    make_group,
    subgroup_conjugacy_classes,
)

from . import oracles


def by_order(g):
    out = {}
    for c in subgroup_conjugacy_classes(g):
        out.setdefault(c.order, []).append(c)
    return out


def every_class(g):
    return closure_family(g, subgroup_conjugacy_classes(g))


def accepted(fam):
    """The classes outside fam that the checking Family constructor takes
    added to fam: the minimal additions, all of whose proper subconjugates
    are already in fam."""
    out = []
    for cls in fam.outside():
        try:
            Family(fam.group, fam.classes | {cls})
        except ValueError:
            continue
        out.append(cls)
    return out


def test_family_closure_validation():
    g = make_group("C6")
    classes = by_order(g)
    with pytest.raises(ValueError):
        Family(g, frozenset([classes[2][0]]))
    fam = closure_family(g, [classes[2][0]])
    assert sorted(c.order for c in fam.classes) == [1, 2]


def test_family_over_another_group_rejected():
    g, other = make_group("C4"), make_group("C2")
    for fam in (empty_family(other), every_class(other)):
        with pytest.raises(ValueError, match="order 2, not 4"):
            fam.check_group(g)


def test_class_of_another_group_is_not_a_member():
    g = make_group("C4")
    fam = every_class(g)
    for spec in ("C2", "S3", "C4xC2"):
        for cls in subgroup_conjugacy_classes(make_group(spec)):
            assert (cls in fam) is False
    assert all((cls in fam) is True for cls in subgroup_conjugacy_classes(g))


def test_copy_and_pickle_keep_a_nonempty_family():
    g = make_group("S4")
    order_four = by_order(g)[4][0]
    fam = closure_family(g, [order_four])
    assert fam.mask not in (0, every_class(g).mask)
    for twin in (copy.deepcopy(fam), copy.copy(fam),
                 pickle.loads(pickle.dumps(fam))):
        assert twin == fam and type(twin) is Family
        assert twin.mask == fam.mask
        assert twin.classes == fam.classes
        assert order_four in twin.classes and repr(twin) == repr(fam)


def test_minimal_additions_c6_example():
    g = make_group("C6")
    classes = by_order(g)
    fam = closure_family(g, [classes[1][0]])
    assert [c.order for c in accepted(fam)] == [2, 3]


def test_minimal_additions_from_empty():
    g = make_group("S3")
    assert [c.order for c in accepted(empty_family(g))] == [1]


def test_exhaustive_filtration_c6():
    g = make_group("C6")
    stages, added = oracles.class_order_chain(empty_family(g))
    assert [c.order for c in added] == [1, 2, 3, 6]
    assert stages[0].classes == frozenset()
    assert stages[-1] == every_class(g)
    for i, fam in enumerate(stages):
        assert len(fam) == i


def test_exhaustive_filtration_single_class_steps():
    """The class-order chain from the empty family adds one class a step,
    each step is closed, and the last step holds every class."""
    g = make_group("S4")
    classes = subgroup_conjugacy_classes(g)
    stages, added = oracles.class_order_chain(empty_family(g))
    assert len(added) == len(classes)
    for prev, nxt, cls in zip(stages, stages[1:], added):
        assert nxt.classes - prev.classes == {cls}
        # Everything strictly below the new class is already present.
        for other in classes:
            if other != cls and is_subconjugate(g, other, cls):
                assert other in prev.classes
    assert stages[-1].classes == frozenset(classes)


def test_exhaustive_filtration_deterministic():
    """Two separately built copies of a group grow their chains through the
    same canonical keys, in ascending order."""
    a = oracles.class_order_chain(empty_family(make_group("D4")))[1]
    b = oracles.class_order_chain(empty_family(make_group("D4")))[1]
    assert [c.canonical_key for c in a] == [c.canonical_key for c in b]
    orders = [c.order for c in a]
    assert orders == sorted(orders)


@pytest.mark.parametrize("spec", ["C6", "S3", "D4", "Q8", "A4", "S4", "C2xC2xC2"])
def test_filtration_adds_the_least_minimal_addition(spec):
    g = make_group(spec)
    starts = [empty_family(g)]
    starts += [closure_family(g, [c]) for c in subgroup_conjugacy_classes(g)]
    for start in starts:
        stages, added = oracles.class_order_chain(start)
        assert stages[0] == start and stages[-1] == every_class(g)
        for prev, cls in zip(stages, added):
            assert cls == oracles.minimal_additions_by_scan(g, prev.classes)[0]


def test_filtration_from_partial_family():
    g = make_group("C6")
    classes = by_order(g)
    start = closure_family(g, [classes[2][0]])
    stages, added = oracles.class_order_chain(start)
    assert [c.order for c in added] == [3, 6]
    assert stages[-1] == every_class(g)


ORACLE_SPECS = ["S4", "D4xD4", "A5xC2", "Q8xS3", "C2xC2xC2xC2", "C2xC2xC2xC2xC2"]


def random_seeds(rng, classes, count):
    return [rng.sample(classes, rng.randint(0, 4)) for _ in range(count)]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_validation_matches_pairwise_scan(spec):
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    rng = random.Random(1101)
    accepted = rejected = 0
    for seed in random_seeds(rng, classes, 30):
        closed = oracles.closure_by_scan(g, seed)
        # a closed family less one member stays closed exactly when that
        # member is maximal in it; a random set is rarely closed
        dropped = closed
        if closed:
            dropped -= {rng.choice(sorted(closed, key=classes.index))}
        scattered = frozenset(rng.sample(classes, rng.randint(1, 5)))
        for candidate in (closed, dropped, scattered):
            missing = oracles.missing_by_scan(g, candidate)
            if missing is None:
                assert Family(g, candidate).classes == candidate
                accepted += 1
            else:
                other, cls = missing
                with pytest.raises(ValueError) as err:
                    Family(g, candidate)
                assert str(err.value).endswith(
                    f"{other.name} below {cls.name} is missing"
                )
                rejected += 1
    assert accepted >= 30 and rejected >= 30


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_closure_and_minimal_additions_match_pairwise_scan(spec):
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    rng = random.Random(1102)
    for seed in random_seeds(rng, classes, 12):
        fam = closure_family(g, seed)
        expected = oracles.closure_by_scan(g, seed)
        assert fam.classes == expected
        assert fam == Family(g, expected)
        assert hash(fam) == hash((g, fam.mask))
        assert accepted(fam) == oracles.minimal_additions_by_scan(g, expected)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_every_filtration_stage_is_closed(spec):
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    below = oracles.pairwise_subconjugacy(g)
    rng = random.Random(1103)
    for seed in random_seeds(rng, classes, 3):
        start = closure_family(g, seed)
        stages, added = oracles.class_order_chain(start)
        # stage i is the start plus the first i added classes
        step = dict.fromkeys(start.classes, -1)
        for i, cls in enumerate(added):
            step[cls] = i
        assert len(step) == len(classes)
        for i, fam in enumerate(stages):
            assert fam.classes == start.classes | set(added[:i])
        # so every stage is closed when no class is added after a class
        # above it
        for k in classes:
            for h in classes:
                if below(k, h):
                    assert step[k] <= step[h], (k.name, h.name)


class CountingMasks(tuple):
    """A tuple that counts the items read from it."""

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("spec", ["S4", "C2xC2xC2xC2"])
def test_one_below_test_per_added_class(spec, monkeypatch):
    """closure_family reads one mask per seed class, and the checking
    Family constructor one per class it is given, so each stage of a
    class-order chain costs one mask read per member."""
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    lattice = group_core._subgroup_classes(g)
    masks = CountingMasks(lattice.below)
    monkeypatch.setattr(lattice, "below", masks)

    def refuse(*args):
        raise AssertionError("is_subconjugate called")

    monkeypatch.setattr(group_core, "is_subconjugate", refuse)
    assert not hasattr(families, "is_subconjugate")
    seed = [classes[1], classes[-2]]
    masks.reads = 0
    start = closure_family(g, seed)
    assert masks.reads == len(seed)
    for fam in (start, empty_family(g)):
        masks.reads = 0
        stages, added = oracles.class_order_chain(fam)
        assert len(added) == len(classes) - len(fam)
        assert masks.reads == sum(map(len, stages))
