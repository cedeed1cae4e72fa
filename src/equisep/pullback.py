"""Skeletal groupoids, the functors between them and the component
count of a pullback.

A skeletal groupoid is a list of components, each a label with its built
automorphism group.  The G-set census of groupoid_calc is such a groupoid
listed by its objects alone: a tuple of GSetTypes, each with its
automorphism order, and no group built.

The components of a pullback over a fixed pair of source components
biject with double cosets of the target automorphism group under the two
images, so pullback_pi0 never materializes objects.  _orbit_count counts
the same components by Burnside's lemma, without double cosets, and
random_groupoid and random_functor draw the random instances that
`equisep pullback-demo` compares the two on; the materializing oracle
is in the tests.  The witness module counts the fiber of its comparison
square, pi_0 of such a pullback, directly as double cosets; the tests
check that count against pullback_pi0 and the oracle.
"""

from itertools import product

from ._record import _Record
from .group_core import (
    Group,
    _table,
    double_cosets,
    perm_order,
    pmul,
)


class GroupoidComponent(_Record):
    """One component of a skeletal groupoid: a label and its automorphisms."""

    __slots__ = ("label", "aut")

    @property
    def aut_order(self) -> int:
        return self.aut.order


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

    def __repr__(self):
        return f"FiniteGroupoid({len(self.components)} components)"


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
        if not all(self.mapping[pmul(s, x)] == pmul(self.mapping[s], fx)
                   for s in src.generators for x, fx in self.mapping.items()):
            raise ValueError("mapping is not multiplicative")

    @classmethod
    def from_generator_images(cls, src: Group, dst: Group, images: dict):
        """Extend the images of src's generators to a homomorphism, or
        return None when they define none into dst: every image is
        composed along src's spanning words, and __init__ checks them."""
        t = _table(src)
        composed = [None] * len(t.perms)
        composed[0] = dst.identity
        for s, gen in zip(t.gens, src.generators):
            composed[s] = images[gen]
        mapping = {p: t.compose(composed, x) for x, p in enumerate(t.perms)}
        try:
            return cls(src, dst, mapping)
        except ValueError:
            return None

    @classmethod
    def trivial(cls, src: Group, dst: Group) -> "GroupHom":
        return cls(src, dst, {x: dst.identity for x in src.elements})

    def __call__(self, x):
        return self.mapping[x]

    def image_group(self) -> Group:
        els = frozenset(self.mapping.values())
        return self.dst.subgroup(els)

    def __repr__(self):
        return f"GroupHom({self.src!r} -> {self.dst!r})"


def all_homomorphisms(src: Group, dst: Group):
    """Every homomorphism src -> dst, over all tuples of generator images."""
    gens = src.generators
    gen_orders = [perm_order(g) for g in gens]
    candidates = [
        [y for y in dst.sorted_elements() if gen_orders[i] % perm_order(y) == 0]
        for i in range(len(gens))
    ]
    # the generators are distinct, so distinct images give distinct maps
    homs = (GroupHom.from_generator_images(src, dst, dict(zip(gens, images)))
            for images in product(*candidates))
    return [hom for hom in homs if hom is not None]


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


def random_groupoid(rng, name: str, pool, max_components: int) -> FiniteGroupoid:
    """A groupoid of 1 to max_components components, labelled name0,
    name1, ..., each with an automorphism group drawn from pool by rng."""
    n = rng.randint(1, max_components)
    return FiniteGroupoid(
        [GroupoidComponent(f"{name}{i}", rng.choice(pool)) for i in range(n)]
    )


def random_functor(rng, src: FiniteGroupoid, dst: FiniteGroupoid) -> GroupoidFunctor:
    """A functor src -> dst that sends each component to one drawn by rng,
    through a homomorphism drawn from all those between their groups."""
    cmap, amap = {}, {}
    for comp in src.components:
        target = rng.choice(dst.components)
        cmap[comp.label] = target.label
        amap[comp.label] = rng.choice(all_homomorphisms(comp.aut, target.aut))
    return GroupoidFunctor(src, dst, cmap, amap)


class PullbackComponent(_Record):
    """One component of a pullback groupoid over a fixed base pair.

    fiber_size counts the components over the same base pair, i.e. the
    double cosets; coset_size is this component's two-sided orbit size and
    aut_order the order of its automorphism group (the orbit stabilizer).
    """

    __slots__ = ("base",  # (source label in B, source label in C)
                 "eta_class",  # minimal double-coset rep in Aut_D
                 "fiber_size", "fiber_index", "coset_size", "aut_order")


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
        fiber = len(dec)
        order_b = f.source.component(b).aut_order
        order_c = g.source.component(c).aut_order
        for idx, (rep, size) in enumerate(dec):
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


def _orbit_count(f: GroupoidFunctor, g: GroupoidFunctor) -> int:
    """The number of components of the pullback of f against g, counted by
    Burnside's lemma, so that `equisep pullback-demo` can check
    pullback_pi0 against a count that builds no double coset.

    Over a base pair (b, c) with common image d, the objects are the
    elements eta of Aut(d), and (beta, gamma) in Aut(b) x Aut(c) carries
    eta to g(gamma) * eta * f(beta)^-1; the components are the orbits of
    this action.  By Burnside's lemma their number is the mean, over the
    pairs (beta, gamma), of the number of eta they fix, and eta is fixed
    exactly when g(gamma) * eta = eta * f(beta).
    """
    total = 0
    for b, c, d in _matching_pairs(f, g):
        images_b = f.aut_maps[b].mapping.values()
        images_c = g.aut_maps[c].mapping.values()
        aut_d = f.target.component(d).aut.elements
        fixed = sum(pmul(y, eta) == pmul(eta, x)
                    for x in images_b for y in images_c for eta in aut_d)
        total += fixed // (len(images_b) * len(images_c))
    return total
