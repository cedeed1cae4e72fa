"""Skeletal finite groupoids, functors between them, and the component
count of a pullback.

A skeletal groupoid is a list of components, each a label with its
automorphism group.  The components of a pullback over a fixed pair of
source components biject with double cosets of the target automorphism
group under the two images, so pullback_pi0 never materializes objects;
brute_force_pullback does, as an independent check.
"""

from __future__ import annotations

from itertools import product

from ._record import _Record, _set, _set_key
from .group_core import (
    Group,
    ResourceLimitError,
    double_cosets,
    perm_order,
    pinv,
    pmul,
    reduce_generators,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from .gset import GSetType, aut_group, realize_type


class GroupHom:
    """A verified homomorphism between permutation groups."""

    def __init__(self, src: Group, dst: Group, mapping: dict):
        self.src = src
        self.dst = dst
        self.mapping = dict(mapping)
        if set(self.mapping) != set(src.elements):
            raise ValueError("homomorphism must be defined on every element")
        for x, fx in self.mapping.items():
            if fx not in dst.elements:
                raise ValueError("homomorphism image leaves the target group")
        for a in src.generators:
            fa = self.mapping[a]
            for b in src.elements:
                if self.mapping[pmul(a, b)] != pmul(fa, self.mapping[b]):
                    raise ValueError("mapping is not multiplicative")

    @classmethod
    def from_generator_images(cls, src: Group, dst: Group, images: dict):
        """Extend generator images to a homomorphism, or return None."""
        mapping = {src.identity: dst.identity}
        frontier = [src.identity]
        while frontier:
            x = frontier.pop()
            fx = mapping[x]
            for gen, img in images.items():
                y = pmul(gen, x)
                fy = pmul(img, fx)
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    mapping[y] = fy
                    frontier.append(y)
        if len(mapping) != src.order:
            return None
        return cls(src, dst, mapping)

    @classmethod
    def trivial(cls, src: Group, dst: Group) -> "GroupHom":
        return cls(src, dst, {x: dst.identity for x in src.elements})

    @classmethod
    def identity(cls, g: Group) -> "GroupHom":
        return cls(g, g, {x: x for x in g.elements})

    def __call__(self, x):
        return self.mapping[x]

    def image_group(self) -> Group:
        els = frozenset(self.mapping.values())
        return Group(self.dst.degree, reduce_generators(els, self.dst.degree), els)

    def __repr__(self):
        return f"GroupHom({self.src!r} -> {self.dst!r})"


def all_homomorphisms(src: Group, dst: Group):
    """Every homomorphism src -> dst, over all tuples of generator images."""
    gens = src.generators
    if not gens:
        return [GroupHom.trivial(src, dst)]
    gen_orders = [perm_order(g) for g in gens]
    candidates = [
        [y for y in dst.sorted_elements() if gen_orders[i] % perm_order(y) == 0]
        for i in range(len(gens))
    ]
    out = []
    seen = set()
    for images in product(*candidates):
        hom = GroupHom.from_generator_images(src, dst, dict(zip(gens, images)))
        if hom is not None:
            key = tuple(sorted(hom.mapping.items()))
            if key not in seen:
                seen.add(key)
                out.append(hom)
    return out


class GroupoidComponent:
    """One component of a skeletal groupoid: a label and its automorphisms.

    A census component carries its G-set type instead of a built group: its
    aut_order comes from the wreath-product formula, and aut realizes the
    type and builds the group only on first access.
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


class GroupoidFunctor:
    """A functor between skeletal groupoids: a component map plus verified
    homomorphisms of automorphism groups."""

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid,
                 component_map: dict, aut_maps: dict):
        self.source = source
        self.target = target
        self.component_map = dict(component_map)
        self.aut_maps = dict(aut_maps)
        for c in source.components:
            if c.label not in self.component_map:
                raise ValueError(f"component {c.label!r} has no image")
            image = self.component_map[c.label]
            if image not in target.labels():
                raise ValueError(f"image component {image!r} missing in target")
            hom = self.aut_maps.get(c.label)
            if hom is None:
                raise ValueError(f"component {c.label!r} has no hom")
            if hom.src != c.aut or hom.dst != target.component(image).aut:
                raise ValueError(f"hom at {c.label!r} has wrong endpoints")

    def __repr__(self):
        return f"GroupoidFunctor({len(self.source)} -> {len(self.target)})"


class PullbackComponent(_Record):
    """One component of a pullback groupoid over a fixed base pair.

    fiber_size counts the components over the same base pair, i.e. the
    double cosets; coset_size is this component's two-sided orbit size and
    aut_order the order of its automorphism group (the orbit stabilizer).
    """

    __slots__ = ("base", "eta_class", "fiber_size", "fiber_index", "coset_size",
                 "aut_order")

    def __init__(self, base: tuple, eta_class: tuple, fiber_size: int,
                 fiber_index: int, coset_size: int, aut_order: int):
        _set(self, "base", base)  # (source label in B, source label in C)
        _set(self, "eta_class", eta_class)  # minimal double-coset rep in Aut_D
        _set(self, "fiber_size", fiber_size)
        _set(self, "fiber_index", fiber_index)
        _set(self, "coset_size", coset_size)
        _set(self, "aut_order", aut_order)
        _set_key(self, (base, eta_class, fiber_size, fiber_index, coset_size,
                            aut_order))

    def to_json(self):
        return {
            "base": list(self.base),
            "eta_rep": ",".join(str(i) for i in self.eta_class),
            "fiber_index": self.fiber_index,
            "aut_order": self.aut_order,
        }


def _matching_pairs(f: GroupoidFunctor, g: GroupoidFunctor):
    if f.target != g.target:
        raise ValueError("pullback needs functors into the same groupoid")
    for b in f.source.labels():
        for c in g.source.labels():
            if f.component_map[b] == g.component_map[c]:
                yield b, c, f.component_map[b]


def pullback_pi0(f: GroupoidFunctor, g: GroupoidFunctor):
    """Components of the pullback of f against g, via double cosets.

    Over a base pair (b, c) with common image d, components biject with
    double cosets U\\Aut(d)/V where U and V are the images of the two
    automorphism maps.  Everything is sorted, so the output is stable.
    """
    out = []
    for b, c, d in _matching_pairs(f, g):
        aut_d = f.target.component(d).aut
        u = g.aut_maps[c].image_group()
        v = f.aut_maps[b].image_group()
        dec = double_cosets(aut_d, u, v)
        fiber = len(dec.representatives)
        order_b = f.source.component(b).aut_order
        order_c = g.source.component(c).aut_order
        for idx, (rep, size) in enumerate(zip(dec.representatives, dec.sizes)):
            out.append(
                PullbackComponent(
                    base=(b, c),
                    eta_class=rep,
                    fiber_size=fiber,
                    fiber_index=idx,
                    coset_size=size,
                    aut_order=order_b * order_c // size,
                )
            )
    return out


BRUTE_FORCE_AUT_BOUND = 64
# Largest G-set census truncated_gset_groupoid enumerates; the cost of a
# census grows with its number of components.
CENSUS_COMPONENT_BOUND = 200_000


def brute_force_pullback(f: GroupoidFunctor, g: GroupoidFunctor) -> FiniteGroupoid:
    """Materialize the pullback groupoid and read off its components.

    Objects over a base pair (b, c) are the elements eta of Aut(d);
    morphisms (beta, gamma) carry eta to g(gamma) * eta * f(beta)^-1.
    Component automorphism groups are realized as permutation pairs acting
    on the disjoint union of the two underlying point sets.
    """
    for comp in (*f.source.components, *g.source.components,
                 *f.target.components):
        if comp.aut_order > BRUTE_FORCE_AUT_BOUND:
            raise ResourceLimitError("automorphism group too large to materialize")
    components = []
    for b, c, d in _matching_pairs(f, g):
        aut_d = f.target.component(d).aut
        aut_b = f.source.component(b).aut
        aut_c = g.source.component(c).aut
        fb = f.aut_maps[b]
        gc = g.aut_maps[c]
        parent = {eta: eta for eta in aut_d.elements}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for beta in aut_b.elements:
            fb_inv = pinv(fb(beta))
            for gamma in aut_c.elements:
                gg = gc(gamma)
                for eta in aut_d.elements:
                    moved = pmul(pmul(gg, eta), fb_inv)
                    ra, rb = find(eta), find(moved)
                    if ra != rb:
                        parent[ra] = rb
        blocks: dict = {}
        for eta in aut_d.elements:
            blocks.setdefault(find(eta), []).append(eta)
        ordered = sorted(blocks.values(), key=min)
        for idx, block in enumerate(ordered):
            rep = min(block)
            pairs = []
            db, dc = aut_b.degree, aut_c.degree
            for beta in aut_b.elements:
                for gamma in aut_c.elements:
                    if pmul(gc(gamma), rep) == pmul(rep, fb(beta)):
                        pairs.append(beta + tuple(x + db for x in gamma))
            els = frozenset(pairs)
            aut = Group(db + dc, reduce_generators(els, db + dc), els)
            components.append(
                GroupoidComponent(label=f"{b}|{c}#{idx}", aut=aut)
            )
    return FiniteGroupoid(components)


def unit_power_component(n: int, *, unit_indecomposable: bool = False) -> GroupoidComponent:
    """The component of the n-fold unit power, with symmetric automorphisms.

    The caller must assert that the modeled category has an indecomposable
    unit; without that the automorphism group is not the full symmetric
    group.
    """
    if not unit_indecomposable:
        raise ValueError(
            "unit_power_component needs unit_indecomposable=True; the "
            "symmetric automorphism group is only valid for an "
            "indecomposable unit"
        )
    if n < 0:
        raise ValueError("unit power needs n >= 0")
    return GroupoidComponent(label=f"unit^{n}", aut=symmetric_group(n))


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
    outside = [
        c for c in subgroup_conjugacy_classes(g) if c not in family.classes
    ]
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
