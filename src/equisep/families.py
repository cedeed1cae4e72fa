"""Families of subgroups: sets of conjugacy classes closed under
subconjugation.

A family is an int mask over class positions in subgroup_conjugacy_classes
order.  It is closed when, for each member c, the mask below[c] of the
classes subconjugate to c (see _Lattice) has no bit outside it."""

from __future__ import annotations

from ._record import _Record
from .group_core import Group, SubgroupClass, _subgroup_classes


class Family(_Record):
    """A subconjugation-closed set of subgroup conjugacy classes, held as
    a mask over their positions; `classes` is read from the mask."""

    __slots__ = ("group", "mask")

    def __init__(self, group: Group, classes: frozenset):
        """Refuses classes of another group, and names the least class
        missing below a given one when the classes are not closed."""
        super().__init__(group, sum(_bit(group, c) for c in classes))
        lattice = _subgroup_classes(group)
        for cls in classes:
            missing = lattice.below[lattice.position[cls]] & ~self.mask
            if missing:
                other = lattice.classes[(missing & -missing).bit_length() - 1]
                raise ValueError(
                    f"family not closed under subconjugation: "
                    f"{other.name} below {cls.name} is missing"
                )

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

    def outside(self) -> list:
        """The classes not in the family, sorted by (order, canonical key)."""
        return self._members(0)

    def check_group(self, g: Group) -> None:
        if self.group != g:
            raise ValueError(f"the family is over a group of order "
                             f"{self.group.order}, not {g.order}")

    def __repr__(self):
        # position order is (order, canonical key) order
        names = ",".join(c.name for c in self._members(1))
        return f"Family({{{names}}})"


def _bit(group: Group, cls: SubgroupClass) -> int:
    """The mask bit of cls among group's classes, or a ValueError when cls
    is a class of another group."""
    if cls.parent != group:
        raise ValueError(f"class {cls.name} is a subgroup class of another group")
    return 1 << _subgroup_classes(group).position[cls]


def _family(group: Group, mask: int) -> Family:
    """The family with this mask, which the caller knows to be closed."""
    fam = object.__new__(Family)
    _Record.__init__(fam, group, mask)
    return fam


def empty_family(g: Group) -> Family:
    return _family(g, 0)


def closure_family(g: Group, seed) -> Family:
    """The smallest family containing the seed classes."""
    lattice = _subgroup_classes(g)
    mask = 0
    for s in seed:
        mask |= lattice.below[lattice.position[s]]
    return _family(g, mask)
