"""Families of subgroups and exhaustive filtrations."""

import pytest

from equisep.families import (
    Family,
    all_family,
    closure_family,
    empty_family,
    exhaustive_filtration,
    minimal_additions,
)
from equisep.group_core import make_group, subgroup_conjugacy_classes


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
