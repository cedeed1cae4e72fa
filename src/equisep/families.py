"""Families of subgroups (sets of conjugacy classes closed under
subconjugation) and exhaustive filtrations that grow one class at a time."""

from __future__ import annotations

from dataclasses import dataclass

from .group_core import (
    Group,
    SubgroupClass,
    is_subconjugate,
    subgroup_conjugacy_classes,
)


@dataclass(frozen=True)
class Family:
    """A subconjugation-closed set of subgroup conjugacy classes."""

    group: Group
    classes: frozenset

    def __post_init__(self):
        for cls in self.classes:
            assert cls.parent == self.group
            for other in subgroup_conjugacy_classes(self.group):
                if other not in self.classes and is_subconjugate(
                    self.group, other, cls
                ):
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


@dataclass(frozen=True)
class Filtration:
    """A chain of families each adding one conjugacy class, ending at all."""

    stages: tuple  # Family, one more class each step
    added: tuple  # SubgroupClass added at each step

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
