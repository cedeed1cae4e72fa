"""Functors between skeletal groupoids, the component count of a
pullback, and the explicit non-standard witness built from one.

The components of a pullback over a fixed pair of source components
biject with double cosets of the target automorphism group under the two
images, so pullback_pi0 never materializes objects; brute_force_pullback
does, as an independent check.

The witness lives over the two-object set 2*[G/G]: splitting the ambient
category at each prime divisor turns its automorphisms into a power of
the symmetric group on two letters, both comparison maps become the
diagonal, and counting double cosets of the diagonal in that power shows
the comparison fiber has 2^(r-1) elements instead of one.
"""

from __future__ import annotations

from itertools import product

from ._record import _Record, _set, _set_key
from .conditions import RingDescriptor, geometric_fixed_points, stage_report
from .group_core import (
    Group,
    ResourceLimitError,
    direct_product,
    double_cosets,
    group_flags,
    identity_perm,
    perm_order,
    pinv,
    pmul,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from .groupoid_calc import FiniteGroupoid, GroupoidComponent, GSetType


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
        return self.dst.subgroup(els)

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
            raise ResourceLimitError(
                f"automorphism group of component {comp.label!r} has order "
                f"{comp.aut_order}, over the bound BRUTE_FORCE_AUT_BOUND = "
                f"{BRUTE_FORCE_AUT_BOUND}: too large to materialize "
                "(layer pullback.brute_force_pullback)")
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
        pair_group = direct_product(aut_b, aut_c)
        db = aut_b.degree
        for idx, block in enumerate(ordered):
            rep = min(block)
            pairs = []
            for beta in aut_b.elements:
                for gamma in aut_c.elements:
                    if pmul(gc(gamma), rep) == pmul(rep, fb(beta)):
                        pairs.append(beta + tuple(x + db for x in gamma))
            aut = pair_group.subgroup(pairs)
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


MODELING_NOTE = (
    "per-prime unit indecomposability is checked through the descriptor's "
    "prime-power modulus data; the fiber count itself is certified by "
    "explicit double-coset enumeration"
)


class WitnessRecord(_Record):
    """An explicit two-object comparison square whose fiber is too big.

    eta records one automorphism tuple per prime divisor; the certificate
    lists every double-coset orbit, and eta's orbit differs from the
    identity's.
    """

    __slots__ = ("x1", "x2", "primes", "eta", "fiber_size",
                 "double_coset_certificate", "note")

    def __init__(self, x1: GSetType, x2: GSetType, primes: tuple, eta: tuple,
                 fiber_size: int, double_coset_certificate: tuple,
                 note: str = MODELING_NOTE):
        _set(self, "x1", x1)
        _set(self, "x2", x2)
        _set(self, "primes", primes)
        _set(self, "eta", eta)  # one of "id" / "swap" per prime
        _set(self, "fiber_size", fiber_size)
        # orbits, each a tuple of rendered tuples
        _set(self, "double_coset_certificate", double_coset_certificate)
        _set(self, "note", note)
        _set_key(self, (x1, x2, primes, eta, fiber_size,
                            double_coset_certificate, note))

    @property
    def eta_text(self) -> str:
        return "(" + ",".join(self.eta) + ")"

    def to_json(self):
        return {
            "x1": self.x1.label(),
            "x2": self.x2.label(),
            "eta": self.eta_text,
            "fiber_size": self.fiber_size,
            "certificate": [list(orbit) for orbit in self.double_coset_certificate],
            "primes": list(self.primes),
            "note": self.note,
        }


class WitnessProbe(_Record):
    """Outcome of the witness search: a record, or the reasons there is none."""

    __slots__ = ("record", "failures", "stage_reports")

    def __init__(self, record: WitnessRecord | None, failures: tuple,
                 stage_reports: tuple):
        _set(self, "record", record)
        _set(self, "failures", failures)
        _set(self, "stage_reports", stage_reports)
        _set_key(self, (record, failures, stage_reports))

    @property
    def found(self) -> bool:
        return self.record is not None


def _describe_group(w: Group) -> str:
    if any(perm_order(x) == w.order for x in w.elements):
        return f"C{w.order}"
    return f"of order {w.order}"


def _render_blocks(eta, r: int) -> str:
    parts = ["id" if eta[2 * i] == 2 * i else "swap" for i in range(r)]
    return "(" + ",".join(parts) + ")"


def _witness_leg(r: int):
    """The comparison leg for r primes, with its diagonal S_2 -> (S_2)^r."""
    s2 = symmetric_group(2)
    # the per-prime indecomposability precondition was checked by the
    # caller, so each local corner is a genuine two-fold unit power
    per_prime = [
        unit_power_component(2, unit_indecomposable=True) for _ in range(r)
    ]
    power = per_prime[0].aut
    for comp in per_prime[1:]:
        power = direct_product(power, comp.aut)
    all_swap = tuple(2 * (i // 2) + (1 - i % 2) for i in range(2 * r))
    diag = GroupHom.from_generator_images(s2, power, {s2.generators[0]: all_swap})
    assert diag is not None

    source = FiniteGroupoid([GroupoidComponent("2*[G/G]", s2)])
    corner = FiniteGroupoid([GroupoidComponent("unit-power", power)])
    leg = GroupoidFunctor(source, corner, {"2*[G/G]": "unit-power"},
                          {"2*[G/G]": diag})
    return leg, diag


def _build_witness(g: Group, ring: RingDescriptor, primes) -> WitnessRecord:
    r = len(primes)
    x1 = GSetType.from_counts(g, {subgroup_conjugacy_classes(g)[-1]: 2})
    leg, diag = _witness_leg(r)
    comps = pullback_pi0(leg, leg)
    fiber = len(comps)
    assert all(p.fiber_size == fiber for p in comps)

    diag_els = sorted(diag.image_group().elements)
    orbits = []
    rep_of: dict = {}
    for p in comps:
        members = sorted(
            {pmul(pmul(u, p.eta_class), v) for u in diag_els for v in diag_els}
        )
        orbits.append(tuple(_render_blocks(m, r) for m in members))
        for m in members:
            rep_of[m] = p.eta_class
    ident = identity_perm(2 * r)
    eta_perm = tuple(range(2 * r - 2)) + (2 * r - 1, 2 * r - 2)
    assert rep_of[eta_perm] != rep_of[ident], "witness class collapsed"

    return WitnessRecord(
        x1=x1,
        x2=x1,
        primes=tuple(primes),
        eta=("id",) * (r - 1) + ("swap",),
        fiber_size=fiber,
        double_coset_certificate=tuple(sorted(orbits)),
    )


def witness_nonstandard(g: Group, ring: RingDescriptor) -> WitnessProbe:
    """Search for the two-object non-standard witness.

    Needs at least two prime divisors, passing stage checks at every
    nontrivial subgroup, separably closed fixed points at the bottom, and
    per-prime indecomposability of the coefficients.  Returns the record,
    or the list of violated preconditions.
    """
    primes = sorted(group_flags(g).prime_divisors)
    r = len(primes)
    failures = []
    if r < 2:
        failures.append(
            f"group order {g.order} has {r} prime divisor(s); need at least 2"
        )

    reports = []
    for cls in subgroup_conjugacy_classes(g):
        rep = stage_report(g, cls, ring)
        reports.append(rep)
        if cls.order == 1 or rep.passed:
            continue
        which = "indecomposability" if not rep.ic.ok else "retraction"
        failures.append(
            f"stage {cls.name}: {which} fails for Weyl group "
            f"{_describe_group(rep.weyl)}"
        )

    triv = subgroup_conjugacy_classes(g)[0]
    fixed = geometric_fixed_points(ring, triv)
    if not fixed.separably_closed:
        failures.append(
            f"fixed points of {ring.name} at the trivial subgroup are not "
            "separably closed"
        )

    for p in primes:
        k = 1
        n = g.order
        while n % p == 0:
            k *= p
            n //= p
        if not ring.indecomposable_mod(k):
            failures.append(f"{ring.name} decomposes mod {k}")

    if failures:
        return WitnessProbe(None, tuple(failures), tuple(reports))
    return WitnessProbe(_build_witness(g, ring, primes), (), tuple(reports))
