"""Finite G-sets: orbit typing, induction and restriction, the Mackey
decomposition, automorphism groups, and splitting over a family of
subgroups.

A GSet holds one point permutation per generator of its group; any other
element's is composed on first read (group_core's _Table.compose), so a
G-set that the builders below make costs its generators, not its group.
The public constructor checks a caller's images against every element.  Orbits and
transversals are read off group_core's one orbit walk (orbit_of) over the
generators' images, and a point's stabilizer is spanned by its Schreier
elements, so neither reads any other element's image.  The multiset of
(stabilizer class, multiplicity) pairs is a complete isomorphism
invariant, so G-sets are compared through it; that GSetType lives with
the census in groupoid_calc.

The G-set calculus is built from what group_core already makes: G/H is
induction from a point, G x_H *, and Aut(X) is the product over classes
H of W(H) wreath S_n, its translations read off the elements the span
of N(H) joins onto H (group_core's _normalizer_span).  Those translations
and the swaps of same-class orbits are its generators, closed once.
"""

from collections import Counter

from ._record import _Record
from .group_core import (
    Group,
    _cosets,
    _group,
    _normalizer_span,
    _orbits,
    _table,
    class_of_subgroup,
    identity_perm,
    pconj,
    pinv,
    pmul,
    orbit_of,
    closure,
    double_cosets,
    resolve_max_order,
    ResourceLimitError,
)
from .groupoid_calc import GSetType


class GSet:
    """A finite left action of a Group on points 0..size-1, given by
    gen_images, the point permutations of group.generators in order; the
    permutation of any other element is composed on first read.  The
    constructor checks that the size is not negative and that the images
    are permutations that define an action, image(s*x) = image(s) o
    image(x) for each generator s."""

    __slots__ = ("group", "size", "gen_images", "_images")

    def __init__(self, group: Group, size: int, gen_images):
        if size < 0:
            raise ValueError(f"a GSet needs a size of at least 0, not {size}")
        self._set(group, size, gen_images)
        if len(self.gen_images) != len(group.generators):
            raise ValueError("a GSet needs one image per generator")
        for p in self.gen_images:
            if sorted(p) != list(range(size)):
                raise ValueError(f"not a permutation of {size} points: {p!r}")
        t = _table(group)
        images = [self.perm(x) for x in t.perms]
        for s, image in zip(t.gens, self.gen_images):
            if any(images[y] != tuple([image[q] for q in images[x]])
                   for x, y in enumerate(t.row(s))):
                raise ValueError("the images are not an action of the group")

    def _set(self, group, size, gen_images):
        self.group = group
        self.size = size
        self.gen_images = tuple(map(tuple, gen_images))
        self._images = None  # over the group's numbering, once one is read

    def perm(self, g):
        t = _table(self.group)
        if self._images is None:
            self._images = [None] * len(t.perms)
            self._images[0] = identity_perm(self.size)
            for s, p in zip(t.gens, self.gen_images):
                self._images[s] = p
        return t.compose(self._images, t.index[g])

    def orbits(self):
        """Orbits as sorted point tuples, ordered by minimal point."""
        return _orbits(self.size, [p.__getitem__ for p in self.gen_images])

    def orbit_stabilizers(self):
        """Each orbit, as in `orbits`, with the elements fixing its least point."""
        return [(orbit, self._fixing(orbit[0])) for orbit in self.orbits()]

    def _classified(self):
        """Each orbit, as in `orbits`, with its stabilizers' subgroup class."""
        return [(orbit, class_of_subgroup(self.group, stab))
                for orbit, stab in self.orbit_stabilizers()]

    def _fixed_by(self, sub: Group) -> list:
        """The points that every element of sub fixes, ascending."""
        perms = [self.perm(t) for t in sub.generators]
        return [p for p in range(self.size) if all(q[p] == p for q in perms)]

    def transversal(self, point: int) -> dict:
        """Each point q of point's orbit mapped to an element moving point
        to q."""
        perms = _table(self.group).perms
        return {q: perms[w] for q, w in self._words(point).items()}

    def _words(self, point: int) -> dict:
        """The transversal over the group's numbering, along orbit_of's
        tree: w(point) is the identity and w(s q) = s w(q) for the
        generator s that first reached s q."""
        t = _table(self.group)
        rows = [t.row(s) for s in t.gens]
        words = {}
        walk = orbit_of(point, [p.__getitem__ for p in self.gen_images])
        for q, step in walk.items():
            words[q] = 0 if step is None else rows[step[0]][words[step[1]]]
        return words

    def _fixing(self, point: int) -> frozenset:
        """The stabilizer of point, spanned by its Schreier elements
        w(s q)^-1 s w(q) over the orbit's points q and the generators s
        (Schreier's lemma); read off the generators' images and the
        group's rows."""
        t = _table(self.group)
        words, inv = self._words(point), t.inverse
        schreier = (
            t.row(inv[words[image[q]]])[row[w]]
            for image, row in zip(self.gen_images, map(t.row, t.gens))
            for q, w in words.items()
        )
        return frozenset(map(t.perms.__getitem__, t.span(schreier, [], [0])[1]))

    def __repr__(self):
        return f"GSet(group_order={self.group.order}, size={self.size})"


def _gset(group: Group, size: int, gen_images) -> GSet:
    """The G-set of these images, which the caller built as an action,
    made without checking them again."""
    x = object.__new__(GSet)
    x._set(group, size, gen_images)
    return x


def trivial_gset(g: Group, n: int) -> GSet:
    return _gset(g, n, [identity_perm(n)] * len(g.generators))


def coset_gset(g: Group, h: Group) -> GSet:
    """The left coset action of g on g/h, induced from a point: G x_H *."""
    if not h.is_subgroup_of(g):
        raise ValueError("coset_gset needs a subgroup of g")
    return induce(g, h, trivial_gset(h, 1))


def disjoint_union(*parts: GSet) -> GSet:
    if not parts:
        raise ValueError("disjoint_union needs at least one part")
    g = parts[0].group
    if any(p.group != g for p in parts):
        raise ValueError("disjoint_union needs G-sets over one group")
    images, offset = [[] for _ in g.generators], 0
    for p in parts:
        for img, s in zip(images, g.generators):
            img.extend(q + offset for q in p.perm(s))
        offset += p.size
    return _gset(g, offset, images)


def orbit_type(x: GSet) -> GSetType:
    """The complete isomorphism invariant of a G-set."""
    counts: Counter = Counter()
    for orbit, cls in x._classified():
        assert len(orbit) * cls.order == x.group.order
        counts[cls] += 1
    t = GSetType.from_counts(x.group, counts)
    assert t.size == x.size
    return t


def realize_type(t: GSetType) -> GSet:
    """A concrete G-set with the given orbit type."""
    parts = [trivial_gset(t.group, 0)]
    for cls, n in t.entries:
        block = coset_gset(t.group, cls.representative)
        parts.extend([block] * n)
    return disjoint_union(*parts)


def restrict(x: GSet, h: Group) -> GSet:
    """The same points viewed as an H-set for a subgroup H."""
    if not h.is_subgroup_of(x.group):
        raise ValueError("restrict needs a subgroup of the acting group")
    return _gset(h, x.size, [x.perm(s) for s in h.generators])


def induce(g: Group, k: Group, y: GSet) -> GSet:
    """The induced G-set G x_K Y on pairs (coset representative, point):
    s(r, q) = (r', k q) for s r = r' k."""
    if not k.is_subgroup_of(g):
        raise ValueError("induce needs a subgroup of g")
    if y.group != k:
        raise ValueError("induce needs a K-set over the same subgroup")
    t, n = _table(g), y.size
    reps, coset_of = _cosets(t, range(g.order), t.indices(k.elements))
    back = [pinv(t.perms[r]) for r in reps]
    images = [[] for _ in t.gens]
    for img, s in zip(images, t.gens):
        for x in map(t.row(s).__getitem__, reps):
            j = coset_of[x]
            img.extend(j * n + q for q in y.perm(pmul(back[j], t.perms[x])))
    return _gset(g, len(reps) * n, images)


def mackey_decompose(g: Group, h: Group, k: Group, y: GSet) -> GSet:
    """Restriction of an induced G-set, one summand per H-g-K double coset.

    Each double coset representative r contributes the H-set induced from
    H meet rKr^-1 acting on y through conjugation by r.
    """
    if y.group != k:
        raise ValueError("mackey_decompose needs a K-set")
    parts = []
    for r, _ in double_cosets(g, h, k):
        cap = g.subgroup(h.elements & {pconj(r, t) for t in k.elements})
        twisted = [y.perm(pconj(pinv(r), l)) for l in cap.generators]
        parts.append(induce(h, cap, _gset(cap, y.size, twisted)))
    return disjoint_union(*parts)


def aut_group(x: GSet) -> Group:
    """The group of equivariant self-bijections, as permutations of points.

    The product over classes H of W(H) wreath S_n for n orbits of class
    H.  Its generators, class by class in class order, are the
    translations of the class's first orbit by the elements the span of
    N(H) joins onto H, whose cosets generate W(H), then the swaps of
    neighbouring orbits of the class; the order is the product of
    |W(H)|^n * n!.  An order over the bound resolve_max_order() is
    refused before any generator is built.
    """
    g = x.group
    by_class: dict = {}
    for orbit, cls in x._classified():
        by_class.setdefault(cls, []).append(orbit)
    counts = {cls: len(orbits) for cls, orbits in by_class.items()}
    t = GSetType.from_counts(g, counts)
    bound = resolve_max_order()
    if t.aut_order > bound:
        raise ResourceLimitError(f"automorphism group of order {t.aut_order} "
                                 f"exceeds the bound {bound} (layer gset.aut_group)")
    gens, perms = [], g.sorted_elements()
    for cls, _ in t.entries:  # in class order
        joined = _normalizer_span(g, cls)[1]
        # One base point per orbit, each with stabilizer exactly H, the
        # class's representative: the stabilizer of a point H fixes is a
        # conjugate of H containing H, so equals it.
        fixed = set(x._fixed_by(cls.representative))
        bases = [min(fixed.intersection(orbit)) for orbit in by_class[cls]]
        # Each generator sends u b to u c for some pairs (b, c) of points
        # with stabilizer H, u running over words[b], the elements moving b
        # to each point of its orbit; they differ by elements of H, which
        # fix c, so the map is well defined.  A Weyl translation moves the
        # first base b to n b for n in N(H), a swap exchanges two orbits.
        words = {b: x.transversal(b) for b in bases}
        moves = [[(bases[0], x.perm(perms[n])[bases[0]])] for n in joined]
        moves += [[(b, c), (c, b)] for b, c in zip(bases, bases[1:])]
        for pairs in moves:
            perm = list(range(x.size))
            for b, c in pairs:
                for p, word in words[b].items():
                    perm[p] = x.perm(word)[c]
            gens.append(tuple(perm))
    return _group(x.size, gens, closure(gens, x.size))


class FSplitting(_Record):
    """Free Weyl-set ranks of a G-set over the classes outside a family:
    the acting group, and one (class, rank) pair per class outside it."""

    __slots__ = ("group",
                 "ranks")  # ((SubgroupClass, int), ...) over all classes outside F


def f_split(x: GSet, family) -> FSplitting:
    """Split a G-set with isotropy outside the family into Weyl ranks.

    The rank at a class H is the number of orbits of that class, equal to
    the count of injective equivariant maps G/H -> X divided by |W(H)|.
    """
    g = x.group
    family.check_group(g)
    t = orbit_type(x)
    offending = [c.name for c, _ in t.entries if c in family]
    if offending:
        raise ValueError(
            f"G-set has isotropy inside the family: {', '.join(offending)}"
        )
    ranks = tuple((c, t.multiplicity(c)) for c in family.outside())
    return FSplitting(g, ranks)


def f_assemble(split: FSplitting) -> GSetType:
    """Rebuild the orbit type from its family splitting."""
    counts = {c: n for c, n in split.ranks if n > 0}
    return GSetType.from_counts(split.group, counts)
