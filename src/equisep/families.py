"""Families of subgroups (sets of conjugacy classes closed under
subconjugation) and exhaustive filtrations that grow one class at a time.

A family is an int mask over class positions in subgroup_conjugacy_classes
order.  It is closed when, for each member c, the mask below[c] of the
classes subconjugate to c (see _Lattice.below) has no bit outside it."""

from __future__ import annotations

from ._record import _Record
from .group_core import Group, SubgroupClass, _subgroup_classes


class Family(_Record):
    """A subconjugation-closed set of subgroup conjugacy classes, held as
    a mask over their positions; `classes` is read from the mask."""

    __slots__ = ("group", "mask")

    def __init__(self, group: Group, classes: frozenset):
        assert all(cls.parent == group for cls in classes)
        position = _subgroup_classes(group).position
        super().__init__(group, sum(1 << position[c] for c in classes))
        for cls in classes:
            self._checked(cls)

    @property
    def classes(self) -> frozenset:
        return frozenset(self._members(1))

    def _members(self, bit: int) -> list:
        """The classes whose mask bit is `bit`, in position order."""
        every = _subgroup_classes(self.group).classes
        return [c for i, c in enumerate(every) if self.mask >> i & 1 == bit]

    def __contains__(self, cls: SubgroupClass) -> bool:
        pos = _subgroup_classes(self.group).position.get(cls)
        return pos is not None and self.mask >> pos & 1 == 1

    def __len__(self):
        return self.mask.bit_count()

    def __reduce__(self):
        return _family, (self.group, self.mask)

    def _checked(self, cls: SubgroupClass) -> "Family":
        """The family itself, or a ValueError naming the least class below
        cls that it lacks."""
        lattice = _subgroup_classes(self.group)
        missing = lattice.below()[lattice.position[cls]] & ~self.mask
        if missing:
            other = lattice.classes[(missing & -missing).bit_length() - 1]
            raise ValueError(
                f"family not closed under subconjugation: "
                f"{other.name} below {cls.name} is missing"
            )
        return self

    def outside(self) -> list:
        """The classes not in the family, sorted by (order, canonical key)."""
        return self._members(0)

    def is_all(self) -> bool:
        return len(self) == len(_subgroup_classes(self.group).classes)

    def with_class(self, cls: SubgroupClass) -> "Family":
        """The family with cls added; cls alone is checked."""
        assert cls.parent == self.group
        pos = _subgroup_classes(self.group).position[cls]
        return _family(self.group, self.mask | 1 << pos)._checked(cls)

    def check_group(self, g: Group) -> None:
        if self.group != g:
            raise ValueError(f"the family is over a group of order "
                             f"{self.group.order}, not {g.order}")

    def __repr__(self):
        # position order is (order, canonical key) order
        names = ",".join(c.name for c in self._members(1))
        return f"Family({{{names}}})"


def _family(group: Group, mask: int) -> Family:
    """The family with this mask, which the caller knows to be closed."""
    fam = object.__new__(Family)
    _Record.__init__(fam, group, mask)
    return fam


def empty_family(g: Group) -> Family:
    return _family(g, 0)


def all_family(g: Group) -> Family:
    return _family(g, (1 << len(_subgroup_classes(g).classes)) - 1)


def closure_family(g: Group, seed) -> Family:
    """The smallest family containing the seed classes."""
    lattice = _subgroup_classes(g)
    mask = 0
    for s in seed:
        mask |= lattice.below()[lattice.position[s]]
    return _family(g, mask)


def minimal_additions(g: Group, family: Family):
    """Classes not in the family all of whose proper subgroups already are.

    These are exactly the classes that can extend the family by a single
    conjugacy class, sorted by (order, canonical key).
    """
    family.check_group(g)
    lattice, mask = _subgroup_classes(g), family.mask
    return [
        cls
        for pos, (cls, below) in enumerate(zip(lattice.classes, lattice.below()))
        if below & ~mask == 1 << pos
    ]


class Filtration(_Record):
    """A chain of families each adding one conjugacy class, ending at all."""

    __slots__ = ("stages",  # Family, one more class each step
                 "added")  # SubgroupClass added at each step

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
    fam.check_group(g)
    stages = [fam]
    added = tuple(fam.outside())
    for cls in added:
        fam = fam.with_class(cls)
        stages.append(fam)
    return Filtration(tuple(stages), added)
