"""Skeletal finite groupoids and the truncated census of G-sets.

A skeletal groupoid is a list of components, each a label with its
automorphism group.  The census lists one component per isomorphism type
of G-set, its GSetType, and reads each automorphism order off the type;
the functor and pullback calculus over these groupoids is in pullback.
"""

from __future__ import annotations

from math import factorial

from ._record import _Record
from .group_core import (
    Group,
    ResourceLimitError,
    SubgroupClass,
)


class GSetType(_Record):
    """Multiset of (stabilizer class, multiplicity): the isomorphism type."""

    __slots__ = ("group",
                 "entries")  # ((SubgroupClass, int), ...) sorted by (order, key)

    @classmethod
    def from_counts(cls, group: Group, counts: dict) -> "GSetType":
        entries = tuple(
            (c, counts[c])
            for c in sorted(counts, key=lambda c: (c.order, c.canonical_key))
            if counts[c] > 0
        )
        return cls(group, entries)

    @property
    def size(self) -> int:
        g = self.group.order
        return sum(n * (g // c.order) for c, n in self.entries)

    @property
    def aut_order(self) -> int:
        """Order of the automorphism group, the product of W(H) wreath S_n.

        That is the product over classes of |W(H)|^n * n! for n orbits of
        class H, read off the class sizes; no Weyl group or automorphism is
        built.
        """
        out = 1
        for c, n in self.entries:
            out *= c.weyl_order ** n * factorial(n)
        return out

    def multiplicity(self, cls: SubgroupClass) -> int:
        return dict(self.entries).get(cls, 0)

    def label(self) -> str:
        return " + ".join([f"G/{c.name}" if n == 1 else f"{n}*G/{c.name}"
                           for c, n in self.entries]) or "empty"

    def drop(self, cls: SubgroupClass) -> "GSetType":
        """The type with every orbit of the given class deleted."""
        return GSetType(
            self.group, tuple((c, n) for c, n in self.entries if c != cls)
        )

    def __repr__(self):
        return f"GSetType({self.label()})"


class GroupoidComponent:
    """One component of a skeletal groupoid: a label and its automorphisms.

    A census component carries its G-set type instead of a built group: its
    aut_order comes from the wreath-product formula, and aut realizes the
    type and builds the group with gset.aut_group, which refuses an order
    over the bound, only on first access.
    """

    __slots__ = ("label", "gset_type", "_aut")

    def __init__(self, label: str, aut: Group | None = None,
                 gset_type: GSetType | None = None):
        if aut is None and gset_type is None:
            raise ValueError("a component needs an automorphism group or a type")
        self.label = label
        self.gset_type = gset_type
        self._aut = aut

    @property
    def aut(self) -> Group:
        if self._aut is None:
            from .gset import aut_group, realize_type

            self._aut = aut_group(realize_type(self.gset_type))
        return self._aut

    @property
    def aut_order(self) -> int:
        if self._aut is None:
            return self.gset_type.aut_order
        return self._aut.order

    def __eq__(self, other):
        if not isinstance(other, GroupoidComponent):
            return NotImplemented
        if (self.label, self.gset_type, self.aut_order) != (
            other.label, other.gset_type, other.aut_order
        ):
            return False
        # a type fixes the group it realizes; components without one
        # compare their groups
        return self.gset_type is not None or self.aut == other.aut

    def __repr__(self):
        return f"GroupoidComponent({self.label!r}, aut_order={self.aut_order})"


class FiniteGroupoid:
    """A skeletal groupoid with deterministically ordered components."""

    def __init__(self, components):
        self.components = tuple(components)
        labels = [c.label for c in self.components]
        if len(set(labels)) != len(labels):
            raise ValueError("component labels must be unique")
        self._by_label = {c.label: c for c in self.components}

    def labels(self):
        return tuple(c.label for c in self.components)

    def component(self, label: str) -> GroupoidComponent:
        return self._by_label[label]

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return self.components == other.components

    def to_json(self):
        return [
            {"label": c.label, "aut_order": c.aut_order}
            for c in self.components
        ]

    def __repr__(self):
        return f"FiniteGroupoid({len(self.components)} components)"


# Largest G-set census truncated_gset_groupoid enumerates; the cost of a
# census grows with its number of components.
CENSUS_COMPONENT_BOUND = 200_000


def _count_vectors(sizes, bound):
    """All multiplicity vectors with total weighted size <= bound >= 0.

    They come in odometer order, the first entry turning fastest: each
    step adds one orbit at the first position that still fits in the
    room left, emptying the positions before it.
    """
    vector = [0] * len(sizes)
    room = bound
    while True:
        yield tuple(vector)
        for i, s in enumerate(sizes):
            if s <= room:
                vector[i] += 1
                room -= s
                break
            room += vector[i] * s
            vector[i] = 0
        else:
            return


def census_size(sizes, bound: int, limit: int) -> int:
    """How many multiplicity vectors _count_vectors(sizes, bound) yields.

    A coin-change count in O(len(sizes) * bound) steps.  It stops once the
    count passes limit and then returns a lower bound that is above limit.
    Copies of the smallest orbit alone give bound // min(sizes) + 1 vectors,
    which also caps the table length below limit * min(sizes).
    """
    if not sizes:
        return 1
    if bound // min(sizes) >= limit:
        return bound // min(sizes) + 1
    ways = [1] + [0] * bound
    for s in sorted(sizes):
        for t in range(s, bound + 1):
            ways[t] += ways[t - s]
        total = sum(ways)
        if total > limit:
            break
    return total


def truncated_gset_groupoid(g: Group, family, max_size: int) -> FiniteGroupoid:
    """The groupoid of G-sets with isotropy outside the family, up to size N.

    One component per isomorphism class, including the empty G-set.  Each
    component carries its orbit type; automorphism orders come from the
    wreath-product formula and groups are built only when asked for.
    Refuses, before enumerating, a census of more than CENSUS_COMPONENT_BOUND
    components.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    family.check_group(g)
    outside = family.outside()
    sizes = [g.order // c.order for c in outside]
    estimate = census_size(sizes, max_size, CENSUS_COMPONENT_BOUND)
    if estimate > CENSUS_COMPONENT_BOUND:
        raise ResourceLimitError(
            f"G-set census up to size {max_size} has at least {estimate} "
            f"components, over the bound {CENSUS_COMPONENT_BOUND} "
            "(layer groupoid_calc.truncated_gset_groupoid)"
        )
    comps = []
    for vector in _count_vectors(sizes, max_size):
        # outside is in (order, canonical key) order, as GSetType entries are
        t = GSetType(g, tuple((c, n) for c, n in zip(outside, vector) if n))
        comps.append(GroupoidComponent(t.label(), gset_type=t))
    comps.sort(key=lambda c: (c.gset_type.size, c.label))
    return FiniteGroupoid(comps)
