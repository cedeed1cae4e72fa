"""Acceptance gate: the ten end-to-end criteria the package must meet.

Each test checks one criterion at its stated tolerance and prints a
single PASS line (visible with pytest -s or -v) when it holds.
"""

import random
import time

import equisep.group_core as gc
from equisep.burnside import (
    degree_is_constant,
    idempotent_block_count,
    sphere_ic,
    table_of_marks,
)
from equisep.classifier import Verdict, classify
from equisep.conditions import integers, sphere
from equisep.families import closure_family
from equisep.group_core import (
    alternating_group,
    group_flags,
    make_group,
    subgroup_conjugacy_classes,
    symmetric_group,
    weyl_group,
)
from equisep.gset import (
    GSetType,
    f_assemble,
    f_split,
    induce,
    mackey_decompose,
    orbit_type,
    realize_type,
    restrict,
)
from equisep.pullback import (
    FiniteGroupoid,
    GroupoidComponent,
    GroupoidFunctor,
    all_homomorphisms,
    pullback_pi0,
)
from equisep.witness import witness_nonstandard

from .oracles import (
    brute_force_pullback,
    count_orbit_multisets,
    injective_equivariant_maps,
)

CORPUS = [
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3",
    "C8", "D4", "Q8", "C9", "A4", "D6", "S4",
]

P_GROUPS = ["C2", "C3", "C4", "C2xC2", "Q8", "D4", "C8", "C9"]


def _passed(n: int, detail: str):
    print(f"criterion {n:02d} PASS: {detail}")


def test_criterion_01_p_group_standardness():
    start = time.monotonic()
    for spec in P_GROUPS:
        g = make_group(spec)
        sizes = [g.order // c.order for c in subgroup_conjugacy_classes(g)]
        expected = count_orbit_multisets(sizes, 6)
        for ring in (sphere(), integers()):
            out = classify(g, ring, 6)
            assert out.verdict is Verdict.ALL_STANDARD, (spec, ring.name)
            assert len(out.groupoid) == expected, (spec, ring.name)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passed(1, f"8 p-groups x 2 coefficient rings AllStandard, census at "
               f"N=6 matches the multiset oracle, {elapsed:.1f}s")


def test_criterion_02_c6_counterexample():
    expected_orbits = (
        ("(id,id)", "(swap,swap)"),
        ("(id,swap)", "(swap,id)"),
    )
    for ring in (sphere(), integers()):
        probe = witness_nonstandard(make_group("C6"), ring)
        assert probe.found, ring.name
        rec = probe.record
        assert rec.fiber_size == 2
        assert rec.eta == ("id", "swap")
        assert rec.double_coset_certificate == expected_orbits

    # independent enumeration: sign pairs under two-sided diagonal action
    pairs = [(a, b) for a in (0, 1) for b in (0, 1)]
    orbits = set()
    for a, b in pairs:
        orbit = frozenset({(a, b), ((a + 1) % 2, (b + 1) % 2)})
        orbits.add(orbit)
    assert orbits == {
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0)}),
    }
    _passed(2, "C6 witness has fiber 2 with eta=(id,swap) for both "
               "coefficient rings; diagonal orbits match by hand")


def test_criterion_03_sphere_ic_characterization():
    for spec in CORPUS:
        g = make_group(spec)
        flags = group_flags(g)
        expected = flags.is_p_group and not flags.is_trivial
        assert sphere_ic(g.order) == expected, spec
    _passed(3, "sphere indecomposability = nontrivial p-group across all "
               "15 corpus groups")


def test_criterion_04_dress_blocks():
    for spec in CORPUS:
        g = make_group(spec)
        assert group_flags(g).is_solvable, spec
        assert idempotent_block_count(g) == 1, spec

    start = time.monotonic()
    a5 = alternating_group(5)
    assert gc._table(a5).lattice is None  # a fresh group starts cold
    assert idempotent_block_count(a5) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"A5 took {elapsed:.1f}s"
    assert idempotent_block_count(symmetric_group(5)) == 2
    _passed(4, f"blocks=1 for 15 solvable groups, 2 for A5 ({elapsed:.1f}s "
               "cold) and S5")


def test_criterion_05_mackey_formula():
    rng = random.Random(1105)
    pool = [
        make_group(s)
        for s in ("C6", "S3", "D4", "Q8", "C2xC4", "A4", "D6", "C12", "S4")
    ]
    assert all(g.order <= 24 for g in pool)
    for _ in range(200):
        g = rng.choice(pool)
        classes = subgroup_conjugacy_classes(g)
        h = rng.choice(classes).representative
        k = rng.choice(classes).representative
        k_classes = subgroup_conjugacy_classes(k)
        counts = {c: rng.randint(0, 1) for c in k_classes}
        y = realize_type(GSetType.from_counts(k, counts))
        via_formula = orbit_type(mackey_decompose(g, h, k, y))
        direct = orbit_type(restrict(induce(g, k, y), h))
        assert via_formula == direct
    _passed(5, "200 random restrict-of-induced instances with |G| <= 24 "
               "match the double-coset decomposition exactly")


def test_criterion_06_pullback_pi0_oracle():
    rng = random.Random(1106)
    pool = [
        make_group(s)
        for s in ("C1", "C2", "C3", "C4", "C2xC2", "S3", "D4", "C8")
    ]
    assert all(g.order <= 8 for g in pool)
    hom_cache = {}

    def homs(a, b):
        key = (id(a), id(b))
        if key not in hom_cache:
            hom_cache[key] = all_homomorphisms(a, b)
        return hom_cache[key]

    def rand_groupoid(name, n_max):
        n = rng.randint(1, n_max)
        return FiniteGroupoid(
            [GroupoidComponent(f"{name}{i}", rng.choice(pool)) for i in range(n)]
        )

    def rand_functor(src, dst):
        cmap, amap = {}, {}
        for comp in src.components:
            tgt = rng.choice(dst.components)
            cmap[comp.label] = tgt.label
            amap[comp.label] = rng.choice(homs(comp.aut, tgt.aut))
        return GroupoidFunctor(src, dst, cmap, amap)

    checked = 0
    for _ in range(100):
        d = rand_groupoid("d", 2)
        b = rand_groupoid("b", 4)
        c = rand_groupoid("c", 4)
        f, g = rand_functor(b, d), rand_functor(c, d)
        fast = pullback_pi0(f, g)
        slow = brute_force_pullback(f, g)
        assert len(fast) == len(slow)
        per_base = {}
        for p in fast:
            per_base.setdefault(p.base, []).append(p)
        for base, ps in per_base.items():
            assert all(p.fiber_size == len(ps) for p in ps)
            for p in ps:
                comp = slow.component(f"{base[0]}|{base[1]}#{p.fiber_index}")
                assert comp.aut.order == p.aut_order
        checked += 1
    assert checked >= 100
    _passed(6, "100 random skeletal pullbacks: component counts, fiber "
               "sizes, and automorphism orders match brute force")


def test_criterion_07_f_splitting_roundtrip():
    rng = random.Random(1107)
    pool = [make_group(s) for s in ("C6", "S3", "D4", "C2xC2", "A4", "C12")]
    for _ in range(100):
        g = rng.choice(pool)
        classes = subgroup_conjugacy_classes(g)
        seed = [c for c in classes if rng.random() < 0.3 and c.order < g.order]
        family = closure_family(g, seed)
        outside = [c for c in classes if c not in family]
        shuffled = list(outside)
        rng.shuffle(shuffled)
        counts = {}
        budget = 12
        for c in shuffled:
            size = g.order // c.order
            cap = budget // size
            if cap:
                n = rng.randint(0, min(2, cap))
                counts[c] = n
                budget -= n * size
        t = GSetType.from_counts(g, counts)
        x = realize_type(t)
        assert x.size <= 12
        split = f_split(x, family)
        assert f_assemble(split) == t
        for cls, rank in split.ranks:
            w = weyl_group(g, cls).order
            assert len(injective_equivariant_maps(g, cls, x)) == rank * w
    _passed(7, "100 random splittings rebuild the orbit type and satisfy "
               "the injective-map rank formula")


def test_criterion_08_marks_structure():
    for spec in CORPUS:
        g = make_group(spec)
        tom = table_of_marks(g)
        for i, cls in enumerate(tom.classes):
            assert tom.marks[i][i] == weyl_group(g, cls).order, (spec, cls.name)
            assert degree_is_constant(g, cls) == (cls.order == g.order)
    _passed(8, "marks diagonal equals Weyl orders and constant degree "
               "happens only at H=G, across all corpus classes")


def test_criterion_09_a5_unit_decomposes():
    out = classify(alternating_group(5), sphere(), 4)
    assert out.verdict is Verdict.UNIT_DECOMPOSES
    assert out.groupoid is None and out.witness is None
    _passed(9, "classify(A5, sphere) reports the unit decomposing")


def test_criterion_10_c30_regression():
    probe = witness_nonstandard(make_group("C30"), sphere())
    assert not probe.found
    text = " ".join(probe.failures)
    for name in ("C15", "C10", "C6"):
        assert name in text
    failing = {
        r.subgroup.order: r.weyl.order
        for r in probe.stage_reports
        if r.subgroup.order > 1 and not r.passed
    }
    assert failing == {2: 15, 3: 10, 5: 6}
    _passed(10, "witness_nonstandard(C30, sphere) is absent and the "
                "failures name the Weyl groups C15, C10, C6")
