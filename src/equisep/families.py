"""Families of subgroups (sets of conjugacy classes closed under
subconjugation) and exhaustive filtrations that grow one class at a time."""

from __future__ import annotations

from ._record import _Record, _set, _set_key
from .group_core import (
    Group,
    SubgroupClass,
    is_subconjugate,
    subgroup_conjugacy_classes,
)


class Family(_Record):
    """A subconjugation-closed set of subgroup conjugacy classes."""

    __slots__ = ("group", "classes")

    def __init__(self, group: Group, classes: frozenset):
        _set(self, "group", group)
        _set(self, "classes", classes)
        _set_key(self, (group, classes))
        for cls in classes:
            assert cls.parent == group
            for other in subgroup_conjugacy_classes(group):
                if other not in classes and is_subconjugate(group, other, cls):
                    raise ValueError(
                        f"family not closed under subconjugation: "
                        f"{other.name} below {cls.name} is missing"
                    )

    def __contains__(self, cls: SubgroupClass) -> bool:
        return cls in self.classes

    def __len__(self):
        return len(self.classes)

    def sorted_classes(self):
        return sorted(self.classes, key=lambda c: (c.order, c.canonical_key))

    def is_all(self) -> bool:
        return len(self.classes) == len(subgroup_conjugacy_classes(self.group))

    def with_class(self, cls: SubgroupClass) -> "Family":
        return Family(self.group, self.classes | {cls})

    def __repr__(self):
        names = ",".join(c.name for c in self.sorted_classes())
        return f"Family({{{names}}})"


def empty_family(g: Group) -> Family:
    return Family(g, frozenset())


def all_family(g: Group) -> Family:
    return Family(g, frozenset(subgroup_conjugacy_classes(g)))


def closure_family(g: Group, seed) -> Family:
    """The smallest family containing the seed classes."""
    seed = list(seed)
    members = frozenset(
        c
        for c in subgroup_conjugacy_classes(g)
        if any(is_subconjugate(g, c, s) for s in seed)
    )
    return Family(g, members)


def minimal_additions(g: Group, family: Family):
    """Classes not in the family all of whose proper subgroups already are.

    These are exactly the classes that can extend the family by a single
    conjugacy class, sorted by (order, canonical key).
    """
    classes = subgroup_conjugacy_classes(g)
    return [
        cls
        for cls in classes
        if cls not in family.classes
        and all(
            c in family.classes or c == cls or not is_subconjugate(g, c, cls)
            for c in classes
        )
    ]


class Filtration(_Record):
    """A chain of families each adding one conjugacy class, ending at all."""

    __slots__ = ("stages", "added")

    def __init__(self, stages: tuple, added: tuple):
        _set(self, "stages", stages)  # Family, one more class each step
        _set(self, "added", added)  # SubgroupClass added at each step
        _set_key(self, (stages, added))

    def __len__(self):
        return len(self.added)


def exhaustive_filtration(g: Group, start: Family | None = None) -> Filtration:
    """Grow a family one class at a time until every class is present.

    The classes outside the start are added in (order, canonical key)
    order.  Every proper subconjugate of a class has a smaller order, so
    each added class is the least one `minimal_additions` offers at its
    step, and the filtration is deterministic.
    """
    fam = start if start is not None else empty_family(g)
    assert fam.group == g
    stages = [fam]
    added = tuple(
        c for c in subgroup_conjugacy_classes(g) if c not in fam.classes
    )
    for cls in added:
        fam = fam.with_class(cls)
        stages.append(fam)
    return Filtration(tuple(stages), added)
