"""G-set types and the truncated census of G-sets.

The census is the skeletal groupoid of G-sets up to a size bound, listed
by its objects: one GSetType per isomorphism type.  A type's automorphism
group is gset.aut_group(realize_type(t)), of order t.aut_order, which is
read off the type without building it.  Skeletal groupoids with built
automorphism groups, and the functors and pullbacks between them, are in
pullback.
"""

from __future__ import annotations

from math import factorial, lgamma, log

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

    def __repr__(self):
        return f"GSetType({self.label()})"


# Largest G-set census truncated_gset_groupoid enumerates; the cost of a
# census grows with its number of components.
CENSUS_COMPONENT_BOUND = 200_000
# Most decimal digits of an automorphism order the census may list: the
# interpreter's default limit on printing an int, fixed here so that lifting
# that limit cannot admit a census of ever larger factorials.
CENSUS_DIGIT_BOUND = 4300


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


def truncated_gset_groupoid(g: Group, family,
                            max_size: int) -> tuple[GSetType, ...]:
    """The G-set types with isotropy outside the family, up to size N.

    One GSetType per isomorphism class, the empty G-set included, sorted
    by (size, label).  Refuses, before enumerating, a census of more than
    CENSUS_COMPONENT_BOUND types, and one whose largest automorphism order
    has more than CENSUS_DIGIT_BOUND digits.  That order is estimated as
    the largest |W(H)|^n * n! of one class H, n = N // |G:H|: log n! is
    convex, so one class beats a mix up to rounding, and with G/G outside
    the family the estimate is N!, exact.
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
    digits = max([(lgamma(n + 1) + n * log(c.weyl_order)) / log(10)
                  for c, n in zip(outside, [max_size // s for s in sizes])],
                 default=0)
    if digits >= CENSUS_DIGIT_BOUND:
        raise ResourceLimitError(
            f"G-set census up to size {max_size} has an automorphism order of "
            f"about 10^{digits:.1f}, over {CENSUS_DIGIT_BOUND} digits "
            "(layer groupoid_calc.truncated_gset_groupoid)"
        )
    # outside is in (order, canonical key) order, as GSetType entries are
    census = [GSetType(g, tuple((c, n) for c, n in zip(outside, v) if n))
              for v in _count_vectors(sizes, max_size)]
    return tuple(sorted(census, key=lambda t: (t.size, t.label())))
