"""The Burnside ring through its table of marks: fixed-point counts of
coset spaces, idempotent block counts, and the decomposability predicates
used by the stage checks.

Marks are counted, not read off G-sets (Pfeiffer, Experiment. Math. 6,
1997): a coset gH is fixed by K exactly when K lies in the conjugate
gHg^-1, and each conjugate of H arises from |N(H)| elements g, so
m(H, K) = |(G/H)^K| = |W(H)| * c[H][K], with c[H][K] the number of
conjugates of H that contain K.  That count is 0 unless K is
subconjugate to H, so the lattice counts only the cells at the bits of
its `below[H]` mask, each scaled by |W(H)| as it is counted, in one walk
(`group_core._Lattice.counts`)."""

from __future__ import annotations

from ._record import _Record
from .group_core import (
    Group,
    SubgroupClass,
    _subgroup_classes,
    perfect_subgroup_classes,
    prime_factors,
)


class TableOfMarks(_Record):
    """Fixed-point counts m[H][K] = |(G/H)^K| over ordered classes: the
    subgroup classes, each holding G as its parent, and one tuple of
    marks per class.

    Each mark is counted as |W(H)| * c[H][K], where c[H][K] is the number
    of conjugates of H containing K.  Classes are sorted ascending by
    (order, canonical key), which makes the matrix lower triangular with
    Weyl group orders on the diagonal (only H itself contains H).
    """

    __slots__ = ("classes", "marks")  # marks: one tuple of ints per row

    def to_text(self) -> str:
        return marks_layout([c.name for c in self.classes], self.marks)


def marks_layout(names, marks) -> str:
    """The table of marks as right-aligned text: a header of class names,
    then one row per class, its name and its marks.  Every mark is at most
    |G:H| <= |G| = m(G/1, 1), the first mark, so that one sets the width."""
    width = max(len(n) for n in names)
    cell = max(width, len(str(marks[0][0])))
    head = " " * (width + 1) + " ".join(n.rjust(cell) for n in names)
    lines = [head]
    for name, row in zip(names, marks):
        lines.append(
            name.rjust(width)
            + " "
            + " ".join(str(v).rjust(cell) for v in row)
        )
    return "\n".join(lines)


def table_of_marks(g: Group) -> TableOfMarks:
    """The table of marks of g, m(H, K) = |W(H)| * c[H][K], counted in
    one walk of the lattice's below masks; no count table is kept."""
    lattice = _subgroup_classes(g)
    return TableOfMarks(lattice.classes, lattice.counts())


def idempotent_block_count(g: Group) -> int:
    """Number of primitive idempotents of the Burnside ring.

    Equals the number of conjugacy classes of perfect subgroups, so it is
    1 exactly for solvable groups.
    """
    return len(perfect_subgroup_classes(g))


def is_indecomposable_mod(n: int) -> bool:
    """Whether Z/n is an indecomposable ring (n = 0 meaning Z itself)."""
    # Z/1, the zero ring, has no prime factor
    return n == 0 or len(prime_factors(n)) == 1


def sphere_ic(weyl_order: int) -> bool:
    """The sphere-coefficient indecomposability criterion for a Weyl group
    of this order.

    Holds exactly when the group is a nontrivial p-group: both following
    quotients of the Burnside ring, the integers and Z/|W|, must be
    indecomposable, which pins |W| to a prime power > 1.
    """
    return is_indecomposable_mod(weyl_order)


def degree_is_constant(g: Group, h: SubgroupClass) -> bool:
    """Whether the mark vector of G/H is a nonzero constant.

    True only for H = G: a proper subgroup has a positive mark at the
    trivial class and mark zero at the full class.  The marks are |W(H)|
    times the containment counts, so the row's two end counts decide it:
    c[H][1] is H's class size, since every conjugate contains 1, and
    c[H][G] is 1 when H = G and 0 otherwise.  No count table is built.
    """
    return h.class_size == (h.order == g.order)
