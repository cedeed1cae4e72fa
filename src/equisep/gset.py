"""Finite G-sets: orbit typing, fixed points with their Weyl action,
induction and restriction, the Mackey decomposition, automorphism groups,
and splitting over a family of subgroups.

A GSet stores the full action table, one point permutation per group
element.  The multiset of (stabilizer class, multiplicity) pairs is a
complete isomorphism invariant, so G-sets are compared through it; that
GSetType lives with the census in groupoid_calc.
"""

from __future__ import annotations

from collections import Counter

from ._record import _Record, _set, _set_key
from .group_core import (
    Group,
    SubgroupClass,
    class_of_subgroup,
    identity_perm,
    left_cosets,
    pinv,
    pmul,
    weyl_group_with_section,
    is_subconjugate,
    normalizer,
    closure,
    orbit_of,
    resolve_max_order,
    ResourceLimitError,
)
from .groupoid_calc import GSetType


class GSet:
    """A finite left action of a Group on points 0..size-1."""

    __slots__ = ("group", "size", "_maps")

    def __init__(self, group: Group, size: int, maps: dict):
        self.group = group
        self.size = size
        self._maps = dict(maps)

    def act(self, g, point: int) -> int:
        return self._maps[g][point]

    def perm(self, g):
        return self._maps[g]

    def validate(self):
        """Check the table is a genuine action; used on untrusted input."""
        if set(self._maps) != set(self.group.elements):
            raise ValueError("action table must cover every group element")
        ident = identity_perm(self.size)
        for g, p in self._maps.items():
            if len(p) != self.size or sorted(p) != list(range(self.size)):
                raise ValueError(f"image of {g} is not a permutation")
        if self._maps[self.group.identity] != ident:
            raise ValueError("identity must act trivially")
        for g in self.group.elements:
            for h in self.group.elements:
                if pmul(self._maps[g], self._maps[h]) != self._maps[pmul(g, h)]:
                    raise ValueError("action table is not multiplicative")
        return self

    def orbits(self):
        """Orbits as sorted point tuples, ordered by minimal point."""
        moves = [self._maps[g].__getitem__ for g in self.group.generators]
        seen = set()
        out = []
        for p in range(self.size):
            if p not in seen:
                orbit = orbit_of(p, moves)
                seen |= orbit
                out.append(tuple(sorted(orbit)))
        return out

    def orbit_stabilizers(self):
        """Each orbit, as in `orbits`, with the elements fixing its least point."""
        return [(orbit, self._fixing(orbit[0])) for orbit in self.orbits()]

    def stabilizer(self, point: int) -> Group:
        return self.group.subgroup(self._fixing(point))

    def _fixing(self, point: int) -> frozenset:
        return frozenset(
            g for g in self.group.elements if self._maps[g][point] == point
        )

    def __repr__(self):
        return f"GSet(group_order={self.group.order}, size={self.size})"


def empty_gset(g: Group) -> GSet:
    return GSet(g, 0, {x: () for x in g.elements})


def trivial_gset(g: Group, n: int) -> GSet:
    ident = identity_perm(n)
    return GSet(g, n, {x: ident for x in g.elements})


def gset_from_action(g: Group, size: int, maps: dict) -> GSet:
    """Build a GSet from an explicit table, validating it."""
    return GSet(g, size, {tuple(k): tuple(v) for k, v in maps.items()}).validate()


def coset_gset(g: Group, h: Group) -> GSet:
    """The left coset action of g on g/h."""
    if not h.is_subgroup_of(g):
        raise ValueError("coset_gset needs a subgroup of g")
    reps, coset_of = left_cosets(g, h)
    maps = {u: tuple(coset_of[pmul(u, r)] for r in reps) for u in g.elements}
    return GSet(g, len(reps), maps)


def disjoint_union(*parts: GSet) -> GSet:
    assert parts, "disjoint_union needs at least one part"
    g = parts[0].group
    assert all(p.group == g for p in parts)
    size = sum(p.size for p in parts)
    maps = {}
    for x in g.elements:
        img = []
        offset = 0
        for p in parts:
            img.extend(q + offset for q in p.perm(x))
            offset += p.size
        maps[x] = tuple(img)
    return GSet(g, size, maps)


def orbit_type(x: GSet) -> GSetType:
    """The complete isomorphism invariant of a G-set."""
    counts: Counter = Counter()
    for orbit, stab in x.orbit_stabilizers():
        cls = class_of_subgroup(x.group, stab)
        assert len(orbit) * cls.order == x.group.order
        counts[cls] += 1
    t = GSetType.from_counts(x.group, counts)
    assert t.size == x.size
    return t


def realize_type(t: GSetType) -> GSet:
    """A concrete G-set with the given orbit type."""
    parts = [empty_gset(t.group)]
    for cls, n in t.entries:
        block = coset_gset(t.group, cls.representative)
        parts.extend([block] * n)
    return disjoint_union(*parts)


def delete_orbits(x: GSet, cls: SubgroupClass) -> GSet:
    """x with every orbit of isotropy class cls removed, points renumbered."""
    keep = sorted(
        p
        for orbit, stab in x.orbit_stabilizers()
        if class_of_subgroup(x.group, stab) != cls
        for p in orbit
    )
    index = {p: i for i, p in enumerate(keep)}
    maps = {
        g: tuple(index[x.perm(g)[p]] for p in keep) for g in x.group.elements
    }
    return GSet(x.group, len(keep), maps)


def fixed_points(x: GSet, k: SubgroupClass) -> GSet:
    """The K-fixed points of x as a Weyl-group set.

    The Weyl group N(K)/K acts through the coset-representative section.
    When every orbit class of x is either the class of K itself or does not
    contain K subconjugately, the result is a free Weyl set; that freeness
    is asserted.
    """
    g = x.group
    assert k.parent == g
    w, section = weyl_group_with_section(g, k)
    krep = k.representative
    fixed = [
        p
        for p in range(x.size)
        if all(x.perm(t)[p] == p for t in krep.generators)
    ]
    index = {p: i for i, p in enumerate(fixed)}
    maps = {}
    for wp, rep in section.items():
        maps[wp] = tuple(index[x.perm(rep)[p]] for p in fixed)
    out = GSet(w, len(fixed), maps)
    entries = orbit_type(x).entries
    if all(c == k or not is_subconjugate(g, k, c) for c, _ in entries):
        free = all(len(orbit) == w.order for orbit in out.orbits())
        assert free, "fixed points failed to be a free Weyl set"
    return out


def restrict(x: GSet, h: Group) -> GSet:
    """The same points viewed as an H-set for a subgroup H."""
    if not h.is_subgroup_of(x.group):
        raise ValueError("restrict needs a subgroup of the acting group")
    return GSet(h, x.size, {t: x.perm(t) for t in h.elements})


def induce(g: Group, k: Group, y: GSet) -> GSet:
    """The induced G-set G x_K Y on pairs (coset representative, point)."""
    if not k.is_subgroup_of(g):
        raise ValueError("induce needs a subgroup of g")
    if y.group != k:
        raise ValueError("induce needs a K-set over the same subgroup")
    reps, coset_of = left_cosets(g, k)
    n = y.size
    maps = {}
    for u in g.elements:
        img = []
        for r in reps:
            moved = pmul(u, r)
            j = coset_of[moved]
            img.extend(j * n + q for q in y.perm(pmul(pinv(reps[j]), moved)))
        maps[u] = tuple(img)
    return GSet(g, len(reps) * n, maps)


def mackey_decompose(g: Group, h: Group, k: Group, y: GSet) -> GSet:
    """Restriction of an induced G-set, one summand per H-g-K double coset.

    Each double coset representative r contributes the H-set induced from
    H meet rKr^-1 acting on y through conjugation by r.
    """
    from .group_core import double_cosets

    if y.group != k:
        raise ValueError("mackey_decompose needs a K-set")
    dec = double_cosets(g, h, k)
    parts = []
    for r in dec.representatives:
        ir = pinv(r)
        conj_k = frozenset(pmul(pmul(r, t), ir) for t in k.elements)
        cap = g.subgroup(h.elements & conj_k)
        twisted = GSet(
            cap,
            y.size,
            {l: y.perm(pmul(pmul(ir, l), r)) for l in cap.elements},
        )
        parts.append(induce(h, cap, twisted))
    return disjoint_union(*parts) if parts else empty_gset(h)


def aut_group(x: GSet) -> Group:
    """The group of equivariant self-bijections, as permutations of points.

    Generated by Weyl translations on one orbit per class together with
    swaps of isomorphic orbits; the order is the product over classes of
    |W|^n * n! for n orbits of that class.  An order over the bound
    resolve_max_order() is refused before any generator is built.
    """
    g = x.group
    if x.size == 0:
        return Group(0, ())
    by_class: dict = {}
    for orbit, stab in x.orbit_stabilizers():
        cls = class_of_subgroup(g, stab)
        by_class.setdefault(cls, []).append((orbit, stab))
    counts = {cls: len(orbits) for cls, orbits in by_class.items()}
    t = GSetType.from_counts(g, counts)
    bound = resolve_max_order()
    if t.aut_order > bound:
        raise ResourceLimitError(f"automorphism group of order {t.aut_order} "
                                 f"exceeds the bound {bound} (layer gset.aut_group)")
    gens = []
    for cls, _ in t.entries:  # in (order, canonical key) order
        orbits = by_class[cls]
        s0 = g.subgroup(orbits[0][1])
        # One base point per orbit, all with the literal stabilizer s0: the
        # stabilizer of a point fixed by s0 is a conjugate containing s0, so
        # equals it.  The first orbit's base is its least point.
        bases = [
            next(
                p
                for p in orbit
                if all(x.perm(t)[p] == p for t in s0.generators)
            )
            for orbit, _ in orbits
        ]
        words = {}
        for base in bases:
            w = {base: g.identity}
            frontier = [base]
            while frontier:
                p = frontier.pop()
                for t in g.generators:
                    q = x.perm(t)[p]
                    if q not in w:
                        w[q] = pmul(t, w[p])
                        frontier.append(q)
            words[base] = w
        n_group = normalizer(g, s0)
        for t in n_group.generators:
            perm = list(range(x.size))
            for p, word in words[bases[0]].items():
                perm[p] = x.perm(pmul(word, t))[bases[0]]
            gens.append(tuple(perm))
        for i in range(len(bases) - 1):
            perm = list(range(x.size))
            for p, word in words[bases[i]].items():
                perm[p] = x.perm(word)[bases[i + 1]]
            for p, word in words[bases[i + 1]].items():
                perm[p] = x.perm(word)[bases[i]]
            gens.append(tuple(perm))
    els = closure(gens, x.size)
    return Group(x.size, gens, els).subgroup(els)


class FSplitting(_Record):
    """Free Weyl-set ranks of a G-set over the classes outside a family."""

    __slots__ = ("group", "family", "ranks")

    def __init__(self, group: Group, family, ranks: tuple):
        _set(self, "group", group)
        _set(self, "family", family)
        # ((SubgroupClass, int), ...) over all classes outside F
        _set(self, "ranks", ranks)
        _set_key(self, (group, family, ranks))

    def rank(self, cls: SubgroupClass) -> int:
        return dict(self.ranks)[cls]


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
    return FSplitting(g, family, ranks)


def f_assemble(split: FSplitting) -> GSetType:
    """Rebuild the orbit type from its family splitting."""
    counts = {c: n for c, n in split.ranks if n > 0}
    return GSetType.from_counts(split.group, counts)
