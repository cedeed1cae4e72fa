import random
import re
from itertools import product

import pytest

from equisep.group_core import (
    closure,
    cyclic_group,
    dihedral_group,
    direct_product,
    make_group,
    pinv,
    pmul,
    ResourceLimitError,
    subgroup_conjugacy_classes,
    symmetric_group,
    trivial_group,
)
from equisep.families import closure_family, empty_family
from equisep.groupoid_calc import (
    CENSUS_COMPONENT_BOUND,
    GSetType,
    census_size,
    truncated_gset_groupoid,
)
from equisep.gset import aut_group, realize_type
from equisep.pullback import (
    FiniteGroupoid,
    GroupHom,
    GroupoidComponent,
    GroupoidFunctor,
    all_homomorphisms,
    pullback_pi0,
)

from .oracles import (
    brute_force_pullback,
    count_orbit_multisets,
    extend_hom,
    reduce_generators,
    resummed_count_vectors,
)


def _point(label="p"):
    """A one-component groupoid whose component has automorphisms C2."""
    return FiniteGroupoid([GroupoidComponent(label, cyclic_group(2))])


def _functor(target, component_map, aut_maps):
    return GroupoidFunctor(_point(), target, component_map, aut_maps)


def _identity(g):
    return GroupHom(g, g, {x: x for x in g.elements})


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: truncated_gset_groupoid(cyclic_group(2),
                                         empty_family(cyclic_group(2)), -1),
         "max_size must be >= 0"),
        (lambda: GroupHom(cyclic_group(2), cyclic_group(3),
                          {x: x for x in cyclic_group(2).elements}),
         "homomorphism image leaves the target group"),
        (lambda: GroupHom(cyclic_group(2), cyclic_group(2), {}),
         "homomorphism must be defined on every element"),
        (lambda: FiniteGroupoid([GroupoidComponent("p", cyclic_group(2))] * 2),
         "component labels must be unique"),
        (lambda: _functor(_point(), {}, {}), "component 'p' has no image"),
        (lambda: _functor(_point(), {"p": "q"}, {}),
         "image component 'q' missing in target"),
        (lambda: _functor(_point(), {"p": "p"}, {}), "component 'p' has no hom"),
        (lambda: _functor(_point(), {"p": "p"},
                          {"p": GroupHom.trivial(cyclic_group(2), cyclic_group(3))}),
         "hom at 'p' has wrong endpoints"),
        (lambda: pullback_pi0(
            _functor(_point(), {"p": "p"}, {"p": _identity(cyclic_group(2))}),
            _functor(_point("q"), {"p": "q"}, {"p": _identity(cyclic_group(2))})),
         "pullback needs functors into the same groupoid"),
    ],
    ids=["census-size", "hom-target", "hom-domain", "labels", "no-image",
         "missing-image", "no-hom", "hom-endpoints", "pullback-targets"],
)
def test_groupoid_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def component(label, aut):
    return GroupoidComponent(label, aut)


def functor_to_point(source, target):
    """Collapse everything onto the target's single component."""
    d = target.components[0]
    return GroupoidFunctor(
        source,
        target,
        {c.label: d.label for c in source.components},
        {c.label: GroupHom.trivial(c.aut, d.aut) for c in source.components},
    )


class TestGroupHom:
    def test_rejects_partial_mapping(self):
        c2 = cyclic_group(2)
        with pytest.raises(ValueError):
            GroupHom(c2, c2, {c2.identity: c2.identity})

    def test_rejects_non_multiplicative(self):
        c4 = cyclic_group(4)
        c2 = cyclic_group(2)
        sigma = (1, 0)
        bad = {x: (sigma if x == (1, 2, 3, 0) else c2.identity) for x in c4.elements}
        with pytest.raises(ValueError):
            GroupHom(c4, c2, bad)

    def test_from_generator_images_inconsistent(self):
        c2 = cyclic_group(2)
        c3 = cyclic_group(3)
        gen = c2.generators[0]
        img = c3.generators[0]
        assert GroupHom.from_generator_images(c2, c3, {gen: img}) is None

    def test_from_generator_images_matches_extension_oracle(self):
        """Every tuple of generator images: the composed map is the one a
        breadth-first extension finds, and None exactly when that meets a
        conflict."""
        groups = [trivial_group(), cyclic_group(2), cyclic_group(4),
                  symmetric_group(3), make_group("C2xC2"), make_group("Q8")]
        for src, dst in product(groups, repeat=2):
            for images in product(dst.sorted_elements(),
                                  repeat=len(src.generators)):
                gens = dict(zip(src.generators, images))
                hom = GroupHom.from_generator_images(src, dst, gens)
                want = extend_hom(src, dst, gens)
                assert (None if hom is None else hom.mapping) == want

    def test_identity_and_image(self):
        s3 = symmetric_group(3)
        ident = GroupHom(s3, s3, {x: x for x in s3.elements})
        assert ident.image_group() == s3
        triv = GroupHom.trivial(s3, cyclic_group(2))
        assert triv.image_group().order == 1

    def test_hom_counts(self):
        c2, c4, c6 = cyclic_group(2), cyclic_group(4), cyclic_group(6)
        s3 = symmetric_group(3)
        assert len(all_homomorphisms(c2, c2)) == 2
        assert len(all_homomorphisms(c4, c2)) == 2
        assert len(all_homomorphisms(c6, s3)) == 6
        # abelianization of S3 is C2, so exactly two maps into any C6
        assert len(all_homomorphisms(s3, c6)) == 2
        assert len(all_homomorphisms(s3, cyclic_group(3))) == 1

    def test_image_generators_are_the_images_of_the_source_generators(self):
        """The image is generated by the images of src's generators, in
        src's order, the identity and repeats left out, and its elements
        are the mapping's values."""
        pairs = [
            (symmetric_group(3), symmetric_group(3)),
            (cyclic_group(4), dihedral_group(4)),
            (dihedral_group(4), symmetric_group(3)),
            (make_group("C2xC2"), dihedral_group(4)),
        ]
        for src, dst in pairs:
            for hom in all_homomorphisms(src, dst):
                image = hom.image_group()
                want = []
                for s in src.generators:
                    if hom(s) != dst.identity and hom(s) not in want:
                        want.append(hom(s))
                assert image.generators == tuple(want)
                assert image.elements == frozenset(hom.mapping.values())
                assert image.elements == closure(want, dst.degree)
                assert image.is_subgroup_of(dst)

    def test_all_homs_are_distinct_and_valid(self):
        s3 = symmetric_group(3)
        homs = all_homomorphisms(s3, s3)
        keys = {tuple(sorted(h.mapping.items())) for h in homs}
        assert len(keys) == len(homs)
        # trivial, three sign-like maps onto each C2, and 6 endo-autos... the
        # classical count for End(S3) is 10
        assert len(homs) == 10


class TestGroupoidBasics:
    def test_duplicate_labels_rejected(self):
        c = component("a", trivial_group())
        with pytest.raises(ValueError):
            FiniteGroupoid([c, component("a", cyclic_group(2))])

    def test_equality_is_structural(self):
        a = FiniteGroupoid([component("a", cyclic_group(2))])
        b = FiniteGroupoid([component("a", cyclic_group(2))])
        assert a == b
        assert a != FiniteGroupoid([component("a", cyclic_group(3))])

    def test_functor_validation(self):
        c2, c3 = cyclic_group(2), cyclic_group(3)
        b = FiniteGroupoid([component("x", c2)])
        d = FiniteGroupoid([component("d", c2)])
        with pytest.raises(ValueError):
            GroupoidFunctor(b, d, {"x": "nope"},
                            {"x": GroupHom(c2, c2, {x: x for x in c2.elements})})
        with pytest.raises(ValueError):
            GroupoidFunctor(b, d, {"x": "d"}, {})
        with pytest.raises(ValueError):
            # endpoints of the hom must be the actual automorphism groups
            GroupoidFunctor(b, d, {"x": "d"},
                            {"x": GroupHom(c3, c3, {x: x for x in c3.elements})})


class TestPullbackSmall:
    def test_trivial_target_gives_product(self):
        b = FiniteGroupoid([component("b1", trivial_group()),
                            component("b2", trivial_group())])
        c = FiniteGroupoid([component("c1", trivial_group()),
                            component("c2", trivial_group()),
                            component("c3", trivial_group())])
        d = FiniteGroupoid([component("d", trivial_group())])
        comps = pullback_pi0(functor_to_point(b, d), functor_to_point(c, d))
        assert len(comps) == 6
        assert all(p.fiber_size == 1 and p.aut_order == 1 for p in comps)

    def test_sigma2_diagonal_splits_in_two(self):
        pt = FiniteGroupoid([component("pt", trivial_group())])
        d = FiniteGroupoid([component("d", symmetric_group(2))])
        f = functor_to_point(pt, d)
        comps = pullback_pi0(f, f)
        assert len(comps) == 2
        assert [p.fiber_size for p in comps] == [2, 2]
        assert all(p.aut_order == 1 for p in comps)

    def test_equivalence_leaves_components_alone(self):
        groups = [cyclic_group(2), symmetric_group(3)]
        d = FiniteGroupoid([component(f"d{i}", g) for i, g in enumerate(groups)])
        b = FiniteGroupoid([component(f"b{i}", g) for i, g in enumerate(groups)])
        f = GroupoidFunctor(
            b, d,
            {f"b{i}": f"d{i}" for i in range(2)},
            {f"b{i}": GroupHom(g, g, {x: x for x in g.elements})
             for i, g in enumerate(groups)},
        )
        c2 = groups[0]
        c = FiniteGroupoid([component("c0", c2)])
        g_func = GroupoidFunctor(
            c, d, {"c0": "d0"}, {"c0": GroupHom(c2, c2, {x: x for x in c2.elements})}
        )
        comps = pullback_pi0(f, g_func)
        # pulling back along an equivalence reproduces the other source
        assert len(comps) == 1
        assert comps[0].aut_order == 2
        assert comps[0].base == ("b0", "c0")

    def test_trivial_images_in_c3(self):
        pt = FiniteGroupoid([component("pt", trivial_group())])
        d = FiniteGroupoid([component("d", cyclic_group(3))])
        comps = pullback_pi0(functor_to_point(pt, d), functor_to_point(pt, d))
        assert len(comps) == 3
        assert all(p.fiber_size == 3 for p in comps)

    def test_mismatched_targets_rejected(self):
        pt = FiniteGroupoid([component("pt", trivial_group())])
        d1 = FiniteGroupoid([component("d", trivial_group())])
        d2 = FiniteGroupoid([component("e", trivial_group())])
        with pytest.raises(ValueError):
            pullback_pi0(functor_to_point(pt, d1), functor_to_point(pt, d2))

    def test_diagonal_into_power_halves(self):
        # diagonal S2 -> S2^r on both legs: components pair off, 2^(r-1)
        s2 = symmetric_group(2)
        for r in (2, 3, 4):
            power = s2
            for _ in range(r - 1):
                power = direct_product(power, s2)
            sigma = s2.generators[0]
            diag_image = tuple(
                2 * (i // 2) + (1 - i % 2) for i in range(2 * r)
            )
            hom = GroupHom.from_generator_images(s2, power, {sigma: diag_image})
            assert hom is not None
            b = FiniteGroupoid([component("b", s2)])
            d = FiniteGroupoid([component("d", power)])
            f = GroupoidFunctor(b, d, {"b": "d"}, {"b": hom})
            comps = pullback_pi0(f, f)
            assert len(comps) == 2 ** (r - 1)
            assert all(p.fiber_size == 2 ** (r - 1) for p in comps)


class TestPullbackAgainstBruteForce:
    def assert_matches(self, f, g):
        fast = pullback_pi0(f, g)
        slow = brute_force_pullback(f, g)
        assert len(fast) == len(slow)
        by_base: dict = {}
        for p in fast:
            by_base.setdefault(p.base, []).append(p)
        for base, ps in by_base.items():
            labels = [f"{base[0]}|{base[1]}#{i}" for i in range(len(ps))]
            for p, label in zip(sorted(ps, key=lambda q: q.fiber_index), labels):
                comp = slow.component(label)
                assert comp.aut.order == p.aut_order
                assert p.fiber_size == len(ps)
            aut_d = f.target.component(f.component_map[base[0]]).aut
            assert sum(p.coset_size for p in ps) == aut_d.order

    def test_refusal_names_component_and_bound(self):
        pt = FiniteGroupoid([component("pt", trivial_group())])
        d = FiniteGroupoid([component("s5", symmetric_group(5))])
        f = functor_to_point(pt, d)
        with pytest.raises(
            ResourceLimitError,
            match=r"component 's5' has order 120, over the bound "
                  r"BRUTE_FORCE_AUT_BOUND = 64: .*"
                  r"\(layer pullback.brute_force_pullback\)",
        ):
            brute_force_pullback(f, f)

    def test_small_catalogue(self):
        pt = FiniteGroupoid([component("pt", trivial_group())])
        d = FiniteGroupoid([component("d", symmetric_group(3))])
        self.assert_matches(functor_to_point(pt, d), functor_to_point(pt, d))

    def test_randomized_instances(self):
        rng = random.Random(20240817)
        pool = [
            trivial_group(),
            cyclic_group(2),
            cyclic_group(3),
            cyclic_group(4),
            make_group("C2xC2"),
            symmetric_group(3),
            dihedral_group(4),
        ]
        hom_cache: dict = {}

        def homs(src, dst):
            key = (id(src), id(dst))
            if key not in hom_cache:
                hom_cache[key] = all_homomorphisms(src, dst)
            return hom_cache[key]

        def random_groupoid(name, max_components):
            n = rng.randint(1, max_components)
            return FiniteGroupoid(
                [component(f"{name}{i}", rng.choice(pool)) for i in range(n)]
            )

        def random_functor(src, dst):
            cmap = {}
            amap = {}
            for comp in src.components:
                target = rng.choice(dst.components)
                cmap[comp.label] = target.label
                amap[comp.label] = rng.choice(homs(comp.aut, target.aut))
            return GroupoidFunctor(src, dst, cmap, amap)

        checked = 0
        for _ in range(110):
            d = random_groupoid("d", 2)
            b = random_groupoid("b", 3)
            c = random_groupoid("c", 3)
            f = random_functor(b, d)
            g = random_functor(c, d)
            self.assert_matches(f, g)
            checked += 1
        assert checked >= 100

    def test_component_generators_are_the_greedy_choice(self):
        rng = random.Random(1104)
        pool = [cyclic_group(2), cyclic_group(4), make_group("C2xC2"),
                symmetric_group(3), dihedral_group(4)]
        for _ in range(20):
            d = FiniteGroupoid([component("d", rng.choice(pool))])
            b = FiniteGroupoid([component("b", rng.choice(pool))])
            c = FiniteGroupoid([component("c", rng.choice(pool))])
            daut = d.components[0].aut

            def to_d(src):
                comp = src.components[0]
                hom = rng.choice(all_homomorphisms(comp.aut, daut))
                return GroupoidFunctor(src, d, {comp.label: "d"},
                                       {comp.label: hom})

            for comp in brute_force_pullback(to_d(b), to_d(c)).components:
                assert comp.aut.generators == reduce_generators(
                    comp.aut.elements, comp.aut.degree
                )

    def test_coset_size_formula(self):
        # |U eta V| = |U| |V| / |U cap eta V eta^-1| on a nonabelian target
        s3 = symmetric_group(3)
        b = FiniteGroupoid([component("b", cyclic_group(2))])
        c = FiniteGroupoid([component("c", cyclic_group(3))])
        d = FiniteGroupoid([component("d", s3)])
        f = GroupoidFunctor(
            b, d, {"b": "d"},
            {"b": all_homomorphisms(cyclic_group(2), s3)[1]},
        )
        g = GroupoidFunctor(
            c, d, {"c": "d"},
            {"c": all_homomorphisms(cyclic_group(3), s3)[1]},
        )
        for p in pullback_pi0(f, g):
            u = g.aut_maps["c"].image_group()
            v = f.aut_maps["b"].image_group()
            eta = p.eta_class
            conj = {pmul(pmul(eta, x), pinv(eta)) for x in v.elements}
            meet = len(set(u.elements) & conj)
            assert p.coset_size == u.order * v.order // meet


class TestTruncatedGroupoid:
    def test_c2_size_two(self):
        g = cyclic_group(2)
        gpd = truncated_gset_groupoid(g, empty_family(g), 2)
        assert len(gpd) == 4
        assert gpd[0].label() == "empty"
        labels = {t.label() for t in gpd}
        assert "G/2a" in labels and "2*G/2a" in labels and "G/1a" in labels

    def test_c6_with_trivial_family(self):
        g = cyclic_group(6)
        from equisep.group_core import subgroup_conjugacy_classes

        triv = subgroup_conjugacy_classes(g)[0]
        fam = closure_family(g, [triv])
        gpd = truncated_gset_groupoid(g, fam, 3)
        assert len(gpd) == 7
        for t in gpd:
            assert all(c not in fam for c, _ in t.entries)

    def test_family_over_another_group_rejected(self):
        with pytest.raises(ValueError, match="order 2, not 4"):
            truncated_gset_groupoid(cyclic_group(4), empty_family(cyclic_group(2)), 4)

    def test_counts_match_multiset_oracle(self):
        for spec, bound in [("C4", 6), ("C2xC2", 5), ("S3", 6), ("D4", 4)]:
            g = make_group(spec)
            gpd = truncated_gset_groupoid(g, empty_family(g), bound)
            from equisep.group_core import subgroup_conjugacy_classes

            sizes = [g.order // c.order for c in subgroup_conjugacy_classes(g)]
            assert len(gpd) == count_orbit_multisets(sizes, bound)
            assert census_size(sizes, bound, 10**9) == len(gpd)

    def test_census_entries_are_in_class_order(self):
        """The census lays entries out in family.outside() order, which must
        be the class order from_counts sorts by; C12 acts
        on 12 points, where string and numeric point order differ."""
        g = cyclic_group(12)
        census = truncated_gset_groupoid(g, empty_family(g), 12)
        assert len(census) > 1
        for t in census:
            assert t == GSetType.from_counts(g, dict(t.entries))

    def test_count_vectors_match_resumming_oracle(self):
        import equisep.groupoid_calc as gc

        rng = random.Random(2024)
        for _ in range(200):
            sizes = [rng.choice((1, 2, 3, 4, 6, 8, 12))
                     for _ in range(rng.randrange(6))]
            bound = rng.randrange(13)
            got = list(gc._count_vectors(sizes, bound))
            assert got == list(resummed_count_vectors(sizes, bound))
            assert len(got) == census_size(sizes, bound, 10**9)

    def test_all_family_leaves_only_empty(self):
        g = cyclic_group(4)
        every = closure_family(g, subgroup_conjugacy_classes(g))
        gpd = truncated_gset_groupoid(g, every, 5)
        assert [t.label() for t in gpd] == ["empty"]
        assert aut_group(realize_type(gpd[0])).order == 1
        huge = truncated_gset_groupoid(g, every, 10**12)
        assert [t.label() for t in huge] == ["empty"]

    def test_aut_orders_follow_wreath_formula(self):
        from equisep.group_core import weyl_group

        g = make_group("S3")
        gpd = truncated_gset_groupoid(g, empty_family(g), 6)
        from math import factorial

        for t in gpd:
            expected = 1
            for cls, n in t.entries:
                w = weyl_group(g, cls).order
                expected *= w**n * factorial(n)
            assert aut_group(realize_type(t)).order == expected
            assert t.aut_order == expected

    def test_aut_order_formula_matches_closure(self):
        rng = random.Random(11)
        for spec in ("C4", "S3", "C2xC2", "D4"):
            g = make_group(spec)
            census = truncated_gset_groupoid(g, empty_family(g), 8)
            for t in rng.sample(census, 6):
                built = aut_group(realize_type(t)).order
                assert t.aut_order == built

    def test_aut_refused_before_building(self, monkeypatch):
        import equisep.gset as gs

        def no_closure(*args, **kwargs):
            raise AssertionError("aut_group built generators")

        monkeypatch.delenv("EQUISEP_MAX_ORDER", raising=False)
        monkeypatch.setattr(gs, "closure", no_closure)
        monkeypatch.setattr(gs, "_normalizer_span", no_closure)
        g = cyclic_group(4)
        census = {t.label(): t for t in truncated_gset_groupoid(g, empty_family(g), 12)}
        top = census["12*G/4a"]
        assert top.aut_order == 479_001_600
        with pytest.raises(
            ResourceLimitError,
            match=r"order 479001600 exceeds the bound 2000 \(layer gset.aut_group\)",
        ):
            aut_group(realize_type(top))
        monkeypatch.setenv("EQUISEP_MAX_ORDER", "23")
        with pytest.raises(ResourceLimitError, match="order 24 exceeds the bound 23"):
            aut_group(realize_type(census["4*G/4a"]))
        monkeypatch.undo()
        monkeypatch.setenv("EQUISEP_MAX_ORDER", "24")
        assert aut_group(realize_type(census["4*G/4a"])).order == 24

    def test_census_refused_before_enumerating(self, monkeypatch):
        import equisep.groupoid_calc as gc

        def no_enumeration(*args):
            raise AssertionError("census enumerated")

        monkeypatch.setattr(gc, "_count_vectors", no_enumeration)
        g = make_group("C2xC2xC2xC2")
        with pytest.raises(ResourceLimitError) as info:
            truncated_gset_groupoid(g, empty_family(g), 32)
        message = str(info.value)
        assert str(CENSUS_COMPONENT_BOUND) in message
        assert "truncated_gset_groupoid" in message
        assert "at least" in message
        with pytest.raises(ResourceLimitError, match="at least 1000000000001"):
            truncated_gset_groupoid(g, empty_family(g), 10**12)

    def test_sorted_by_size_then_label(self):
        g = cyclic_group(4)
        gpd = truncated_gset_groupoid(g, empty_family(g), 4)
        keys = [(t.size, t.label()) for t in gpd]
        assert keys == sorted(keys)
