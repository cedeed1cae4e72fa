"""Families of subgroups and exhaustive filtrations."""

import copy
import pickle
import random

import pytest

from equisep import families, group_core
from equisep.families import (
    Family,
    all_family,
    closure_family,
    empty_family,
    exhaustive_filtration,
    minimal_additions,
)
from equisep.group_core import make_group, subgroup_conjugacy_classes

from . import oracles


def by_order(g):
    out = {}
    for c in subgroup_conjugacy_classes(g):
        out.setdefault(c.order, []).append(c)
    return out


def test_family_closure_validation():
    g = make_group("C6")
    classes = by_order(g)
    with pytest.raises(ValueError):
        Family(g, frozenset([classes[2][0]]))
    fam = closure_family(g, [classes[2][0]])
    assert sorted(c.order for c in fam.classes) == [1, 2]


def test_with_class_checks_the_added_class():
    g = make_group("S3")
    classes = by_order(g)
    with pytest.raises(ValueError, match="1a below 2a is missing"):
        empty_family(g).with_class(classes[2][0])
    fam = empty_family(g).with_class(classes[1][0]).with_class(classes[2][0])
    assert fam == Family(g, frozenset([classes[1][0], classes[2][0]]))


def test_family_over_another_group_rejected():
    g, other = make_group("C4"), make_group("C2")
    with pytest.raises(ValueError, match="order 2, not 4"):
        minimal_additions(g, all_family(other))
    with pytest.raises(ValueError, match="order 2, not 4"):
        exhaustive_filtration(g, all_family(other))


def test_class_of_another_group_is_not_a_member():
    g = make_group("C4")
    fam = all_family(g)
    for spec in ("C2", "S3", "C4xC2"):
        for cls in subgroup_conjugacy_classes(make_group(spec)):
            assert (cls in fam) is False
    assert all((cls in fam) is True for cls in subgroup_conjugacy_classes(g))


def test_copy_and_pickle_keep_a_nonempty_family():
    g = make_group("S4")
    order_four = by_order(g)[4][0]
    fam = closure_family(g, [order_four])
    assert fam.mask not in (0, all_family(g).mask)
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
    adds = minimal_additions(g, fam)
    assert [c.order for c in adds] == [2, 3]


def test_minimal_additions_from_empty():
    g = make_group("S3")
    adds = minimal_additions(g, empty_family(g))
    assert [c.order for c in adds] == [1]


def test_exhaustive_filtration_c6():
    g = make_group("C6")
    filt = exhaustive_filtration(g)
    assert [c.order for c in filt.added] == [1, 2, 3, 6]
    assert filt.stages[0].classes == frozenset()
    assert filt.stages[-1].is_all()
    for i, fam in enumerate(filt.stages):
        assert len(fam) == i


def test_exhaustive_filtration_single_class_steps():
    g = make_group("S4")
    filt = exhaustive_filtration(g)
    assert len(filt.added) == len(subgroup_conjugacy_classes(g))
    for prev, nxt, cls in zip(filt.stages, filt.stages[1:], filt.added):
        assert nxt.classes - prev.classes == {cls}
        # Everything strictly below the new class is already present.
        from equisep.group_core import is_subconjugate

        for other in subgroup_conjugacy_classes(g):
            if other != cls and is_subconjugate(g, other, cls):
                assert other in prev.classes


def test_exhaustive_filtration_deterministic():
    g = make_group("D4")
    a = exhaustive_filtration(g)
    b = exhaustive_filtration(g)
    assert [c.canonical_key for c in a.added] == [c.canonical_key for c in b.added]
    orders = [c.order for c in a.added]
    assert orders == sorted(orders)


@pytest.mark.parametrize("spec", ["C6", "S3", "D4", "Q8", "A4", "S4", "C2xC2xC2"])
def test_filtration_adds_the_least_minimal_addition(spec):
    g = make_group(spec)
    starts = [empty_family(g)]
    starts += [closure_family(g, [c]) for c in subgroup_conjugacy_classes(g)]
    for start in starts:
        filt = exhaustive_filtration(g, start)
        assert filt.stages[0] == start and filt.stages[-1].is_all()
        for prev, cls in zip(filt.stages, filt.added):
            assert cls == minimal_additions(g, prev)[0]


def test_filtration_from_partial_family():
    g = make_group("C6")
    classes = by_order(g)
    start = closure_family(g, [classes[2][0]])
    filt = exhaustive_filtration(g, start)
    assert [c.order for c in filt.added] == [3, 6]
    assert filt.stages[-1] == all_family(g)


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
        assert minimal_additions(g, fam) == oracles.minimal_additions_by_scan(
            g, expected
        )


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_every_filtration_stage_is_closed(spec):
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    below = oracles.pairwise_subconjugacy(g)
    rng = random.Random(1103)
    for seed in random_seeds(rng, classes, 3):
        start = closure_family(g, seed)
        filt = exhaustive_filtration(g, start)
        # stage i is the start plus the first i added classes
        step = dict.fromkeys(start.classes, -1)
        for i, cls in enumerate(filt.added):
            step[cls] = i
        assert len(step) == len(classes)
        for i, fam in enumerate(filt.stages):
            assert fam.classes == start.classes | set(filt.added[:i])
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
    masks.reads = 0
    filt = exhaustive_filtration(g, start)
    assert masks.reads == len(filt.added) == len(classes) - len(start)
    masks.reads = 0
    filt = exhaustive_filtration(g)
    assert masks.reads == len(filt.added) == len(classes)
