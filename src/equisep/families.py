"""Families of subgroups: sets of conjugacy classes closed under
subconjugation.

A family is an int mask over class positions in subgroup_conjugacy_classes
order.  It is closed when, for each member c, the mask below[c] of the
classes subconjugate to c (see _Lattice) has no bit outside it."""

from ._record import _Record
from .group_core import Group, SubgroupClass, _position, _subgroup_classes


class Family(_Record):
    """A subconjugation-closed set of subgroup conjugacy classes, held as
    a mask over their positions."""

    __slots__ = ("group", "mask")

    def __init__(self, group: Group, classes: frozenset):
        """Refuses classes of another group, and names the least class
        missing below a given one when the classes are not closed."""
        positions = {cls: _position(group, cls) for cls in classes}
        super().__init__(group, sum(1 << pos for pos in positions.values()))
        lattice = _subgroup_classes(group)
        for cls, pos in positions.items():
            missing = lattice.below[pos] & ~self.mask
            if missing:
                other = lattice.classes[(missing & -missing).bit_length() - 1]
                raise ValueError(
                    f"family not closed under subconjugation: "
                    f"{other.name} below {cls.name} is missing"
                )

    def _members(self, bit: int) -> list:
        """The classes whose mask bit is `bit`, in position order."""
        every = _subgroup_classes(self.group).classes
        return [c for i, c in enumerate(every) if self.mask >> i & 1 == bit]

    def __contains__(self, cls: SubgroupClass) -> bool:
        pos = _subgroup_classes(self.group).position.get(cls)
        return pos is not None and self.mask >> pos & 1 == 1

    def __reduce__(self):
        return _family, (self.group, self.mask)

    def outside(self) -> list:
        """The classes not in the family, in class order."""
        return self._members(0)

    def check_group(self, g: Group) -> None:
        if self.group != g:
            raise ValueError(f"the family is over a group of order "
                             f"{self.group.order}, not {g.order}")

    def __repr__(self):
        names = ",".join(c.name for c in self._members(1))
        return f"Family({{{names}}})"


def _family(group: Group, mask: int) -> Family:
    """The family with this mask, which the caller knows to be closed."""
    fam = object.__new__(Family)
    _Record.__init__(fam, group, mask)
    return fam


def empty_family(g: Group) -> Family:
    return _family(g, 0)


def closure_family(g: Group, seed) -> Family:
    """The smallest family containing the seed classes."""
    below = _subgroup_classes(g).below
    mask = 0
    for s in seed:
        mask |= below[_position(g, s)]
    return _family(g, mask)
