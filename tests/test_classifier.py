import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from equisep import cli, group_core, pullback, witness
from equisep.classifier import Verdict, classify
from equisep.conditions import StageReport, integers, prime_field, sphere
from equisep.families import closure_family, empty_family
from equisep.group_core import (
    alternating_group,
    cyclic_group,
    direct_product,
    make_group,
    pmul,
    prime_factors,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from equisep.gset import GSetType, orbit_type, realize_type
from equisep.witness import WitnessRecord, witness_nonstandard

from .oracles import brute_force_pullback, count_orbit_multisets, random_perm_specs


@pytest.mark.parametrize(
    "spec, ring",
    [("C6", sphere()), ("C10", integers()), ("A5", integers()), ("C210", None)],
    ids=["C6-sphere", "C10-Z", "A5-Z", "C210-four-primes"],
)
def test_witness_count_matches_pullback_calculus(spec, ring):
    """The witness reads the double cosets of the diagonal in (S_2)^r off
    bit masks.  The pullback of the diagonal leg against itself, through
    pullback_pi0 and materialized, has as many components, the witness's
    certificate orbits are that pullback's double cosets in the same
    order, and eta is the element that swaps at the last prime only.
    C210 passes no stage check, so its four-prime record is built on its
    primes directly."""
    g = make_group(spec)
    if ring is None:
        top = subgroup_conjugacy_classes(g)[-1]
        record = WitnessRecord(GSetType.from_counts(g, {top: 2}),
                               prime_factors(g.order))
        assert record.primes == (2, 3, 5, 7)
    else:
        record = witness_nonstandard(g, ring).record
    r = len(record.primes)
    s2 = symmetric_group(2)
    power = s2
    for _ in range(r - 1):
        power = direct_product(power, s2)
    all_swap = tuple(2 * (i // 2) + (1 - i % 2) for i in range(2 * r))
    hom = pullback.GroupHom.from_generator_images(s2, power,
                                                  {s2.generators[0]: all_swap})
    one = pullback.FiniteGroupoid([pullback.GroupoidComponent("2*[G/G]", s2)])
    corner = pullback.FiniteGroupoid(
        [pullback.GroupoidComponent("unit-power", power)])
    leg = pullback.GroupoidFunctor(one, corner, {"2*[G/G]": "unit-power"},
                                   {"2*[G/G]": hom})
    comps = pullback.pullback_pi0(leg, leg)
    assert (record.fiber_size == len(comps)
            == len(brute_force_pullback(leg, leg)) == 2 ** (r - 1))

    def render(x):
        return "(" + ",".join("id" if x[2 * i] == 2 * i else "swap"
                              for i in range(r)) + ")"

    diag = (power.identity, all_swap)
    cosets = {tuple(sorted({render(pmul(pmul(u, p.eta_class), v))
                            for u in diag for v in diag})) for p in comps}
    assert record.double_coset_certificate == tuple(sorted(cosets))
    assert sum(map(len, record.double_coset_certificate)) == 2 ** r
    members = {m for orbit in record.double_coset_certificate for m in orbit}
    assert members == {render(x) for x in power.elements}
    eta = tuple(range(2 * r - 2)) + (2 * r - 1, 2 * r - 2)
    assert record.eta_text == render(eta)
    assert not any(render(power.identity) in orbit and record.eta_text in orbit
                   for orbit in record.double_coset_certificate)


def test_witness_builds_no_group(monkeypatch):
    """The witness record is read off the primes: once the group is made,
    neither witness_nonstandard nor classify builds a group or counts
    double cosets, and both return the record on 2*[G/G] at (2, 3)."""
    def refuse(*_, **__):
        pytest.fail("the witness step built a group or counted double cosets")

    assert not {"double_cosets", "pmul"} & set(vars(witness))
    g = make_group("C6")
    monkeypatch.setattr(group_core, "double_cosets", refuse)
    monkeypatch.setattr(group_core.Group, "__init__", refuse)
    probe = witness_nonstandard(g, integers())
    outcome = classify(g, integers(), 4)
    assert probe.record == outcome.witness
    assert (probe.record.x1.label(), probe.record.primes) == ("2*G/6a", (2, 3))


def test_witness_path_loads_no_pullback():
    """witness_nonstandard, and a classify that reaches the witness, count
    the double cosets themselves: a child interpreter that runs both has
    not imported equisep.pullback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(group_core.__file__)))
    probe = (
        "import sys\n"
        "from equisep.classifier import classify\n"
        "from equisep.conditions import integers\n"
        "from equisep.group_core import make_group\n"
        "from equisep.witness import witness_nonstandard\n"
        "probe = witness_nonstandard(make_group('C10'), integers())\n"
        "outcome = classify(make_group('C10'), integers(), 4)\n"
        "print(probe.found, probe.record.fiber_size, outcome.verdict.value,\n"
        "      'equisep.pullback' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "2", "NonStandardWitness", "False"]


def test_witness_runs_no_derived_series(monkeypatch):
    """The witness step reads the primes off the group order: it never
    asks whether the group is solvable, so it builds no derived subgroup."""
    def refuse(*_):
        pytest.fail("a derived subgroup was built")

    monkeypatch.setattr(group_core, "_derived_subgroup", refuse)
    probe = witness_nonstandard(make_group("C6"), integers())
    assert probe.found and probe.record.primes == (2, 3)


def class_of_order(g, order):
    matches = [c for c in subgroup_conjugacy_classes(g) if c.order == order]
    assert len(matches) == 1
    return matches[0]


class TestWitness:
    def test_c6_sphere(self):
        g = cyclic_group(6)
        probe = witness_nonstandard(g, sphere())
        assert probe.found
        rec = probe.record
        assert rec.fiber_size == 2
        assert rec.eta == ("id", "swap")
        assert rec.eta_text == "(id,swap)"
        assert rec.primes == (2, 3)
        assert rec.x1.label() == "2*G/6a"
        assert rec.double_coset_certificate == (
            ("(id,id)", "(swap,swap)"),
            ("(id,swap)", "(swap,id)"),
        )

    def test_c6_integers_same_shape(self):
        g = cyclic_group(6)
        probe = witness_nonstandard(g, integers())
        assert probe.found
        assert probe.record.fiber_size == 2
        assert probe.record.eta_text == "(id,swap)"

    def test_c30_absent_with_named_weyl_groups(self):
        g = cyclic_group(30)
        probe = witness_nonstandard(g, sphere())
        assert not probe.found
        text = " ".join(probe.failures)
        for name in ("C15", "C10", "C6"):
            assert name in text
        # stage reports are still delivered for inspection
        failing = [r for r in probe.stage_reports if not r.passed]
        assert {r.weyl.order for r in failing} >= {15, 10, 6}

    def test_c10_sphere_fiber_two(self):
        g = cyclic_group(10)
        probe = witness_nonstandard(g, sphere())
        # W(C2) = C5 and W(C5) = C2 are p-groups, so the probe succeeds
        assert probe.found
        assert probe.record.fiber_size == 2

    def test_prime_power_group_has_no_witness(self):
        probe = witness_nonstandard(cyclic_group(9), sphere())
        assert not probe.found
        assert any("prime divisor" in f for f in probe.failures)

    def test_prime_field_blocked_by_separable_closure(self):
        g = cyclic_group(6)
        probe = witness_nonstandard(g, prime_field(5))
        assert not probe.found
        assert any("separably closed" in f for f in probe.failures)
        assert any("decomposes mod" in f for f in probe.failures)

    def test_witness_note_flags_modeling_assumption(self):
        probe = witness_nonstandard(cyclic_group(6), sphere())
        assert "modul" in probe.record.note  # modulus / moduli wording
        payload = cli._witness_record(probe.record)
        assert set(payload) >= {"x1", "x2", "eta", "fiber_size", "certificate"}
        assert payload["eta"] == "(id,swap)"
        assert payload["certificate"] == [
            ["(id,id)", "(swap,swap)"],
            ["(id,swap)", "(swap,id)"],
        ]


class TestClassify:
    def test_c4_sphere_all_standard(self):
        g = cyclic_group(4)
        out = classify(g, sphere(), 4)
        assert out.verdict is Verdict.ALL_STANDARD
        assert out.groupoid is not None
        sizes = [g.order // c.order for c in subgroup_conjugacy_classes(g)]
        assert len(out.groupoid) == count_orbit_multisets(sizes, 4)
        assert all(rep.passed for rep in out.stage_reports)

    def test_census_never_builds_aut_groups(self, monkeypatch):
        import equisep.gset as gc

        def refuse(x):
            raise AssertionError("aut_group called by the census")

        monkeypatch.setattr(gc, "aut_group", refuse)
        g = cyclic_group(4)
        out = classify(g, sphere(), 12)
        sizes = [g.order // c.order for c in subgroup_conjugacy_classes(g)]
        assert len(out.groupoid) == count_orbit_multisets(sizes, 12) == 84
        assert all(type(t) is GSetType for t in out.groupoid)
        payload = cli._classify(SimpleNamespace(g=g, ring=sphere(), max_size=12))
        payload = payload["groupoid"]
        assert payload[-1] == {"label": out.groupoid[-1].label(),
                               "aut_order": out.groupoid[-1].aut_order}
        with pytest.raises(AssertionError, match="aut_group"):
            gc.aut_group(realize_type(out.groupoid[-1]))

    def test_c6_sphere_is_witnessed(self):
        out = classify(cyclic_group(6), sphere(), 6)
        assert out.verdict is Verdict.NON_STANDARD_WITNESS
        assert out.witness is not None and out.witness.fiber_size == 2
        assert out.groupoid is None
        assert any(not rep.passed for rep in out.stage_reports)

    def test_a5_sphere_unit_decomposes(self):
        out = classify(alternating_group(5), sphere(), 4)
        assert out.verdict is Verdict.UNIT_DECOMPOSES
        assert out.stage_reports == ()
        assert out.groupoid is None and out.witness is None
        assert any("direct product" in n for n in out.notes)

    def test_a5_integers_not_unit_gated(self):
        # with non-unit coefficients the solvability gate does not apply;
        # only the bottom stage fails (W(e) = A5) and every proper-stage
        # Weyl group is a p-group, so the three-prime witness exists
        out = classify(alternating_group(5), integers(), 3)
        assert out.verdict is Verdict.NON_STANDARD_WITNESS
        assert out.witness.fiber_size == 4
        assert out.witness.eta_text == "(id,id,swap)"
        failing = [r for r in out.stage_reports if not r.passed]
        assert [r.subgroup.order for r in failing] == [1]

    def test_c30_sphere_fails_without_witness(self):
        out = classify(cyclic_group(30), sphere(), 3)
        assert out.verdict is Verdict.CONDITIONS_FAIL_NO_WITNESS
        assert out.witness is None
        assert any("C15" in n for n in out.notes)

    def test_c6_relative_to_trivial_family_is_standard(self):
        g = cyclic_group(6)
        fam = closure_family(g, [class_of_order(g, 1)])
        out = classify(g, sphere(), 3, family=fam)
        assert out.verdict is Verdict.ALL_STANDARD
        assert len(out.groupoid) == 7

    def test_groupoid_present_iff_all_standard(self):
        cases = [
            (cyclic_group(4), sphere()),
            (cyclic_group(6), sphere()),
            (alternating_group(5), sphere()),
            (cyclic_group(30), sphere()),
        ]
        for g, ring in cases:
            out = classify(g, ring, 3)
            assert (out.groupoid is not None) == (out.verdict is Verdict.ALL_STANDARD)

    def test_family_over_another_group_rejected(self):
        with pytest.raises(ValueError, match="order 2, not 4"):
            classify(cyclic_group(4), sphere(), 4,
                     family=empty_family(cyclic_group(2)))

    def test_json_schema(self):
        out = cli._classify(cli._parse(["classify", "--group", "C4",
                                        "--max-size", "4"]))
        assert out["verdict"] == "AllStandard"
        assert {"subgroup", "weyl_order", "ic", "rc"} <= set(out["stages"][0])
        assert all("label" in c and "aut_order" in c for c in out["groupoid"])
        wit = cli._classify(cli._parse(["classify", "--group", "C6",
                                        "--max-size", "4"]))
        assert wit["verdict"] == "NonStandardWitness"
        assert wit["witness"]["fiber_size"] == 2


class TestStandardAlgebra:
    """A standard algebra is named by the orbit type of its G-set, all of
    whose isotropy lies outside the family; deleting the orbits of a class
    the family gains commutes with that name."""

    def test_empty_and_unit(self):
        g = cyclic_group(6)
        top = class_of_order(g, 6)
        empty = realize_type(GSetType.from_counts(g, {}))
        unit = realize_type(GSetType.from_counts(g, {top: 1}))
        assert orbit_type(empty).label() == "empty"
        assert orbit_type(unit).label() == "G/6a"

    def test_c6_orbit_deletion_example(self):
        g = cyclic_group(6)
        e = class_of_order(g, 1)
        top = class_of_order(g, 6)
        x = realize_type(GSetType.from_counts(g, {e: 1, top: 1}))
        bigger = closure_family(g, [e])
        y = GSetType(g, tuple((c, n) for c, n in orbit_type(x).entries if c != e))
        assert y.label() == "G/6a"
        assert all(c not in bigger for c, _ in y.entries)

    def test_localization_commutes_randomized(self):
        rng = random.Random(409)
        pool = [make_group(s) for s in ("C4", "C6", "S3", "D4", "C2xC2")]
        for _ in range(100):
            g = rng.choice(pool)
            classes = subgroup_conjugacy_classes(g)
            k = rng.choice(classes)
            # the family is the closure of k; isotropy may sit at k itself
            # (those orbits get deleted) or outside the family entirely
            fam = closure_family(g, [k])
            counts = {
                c: rng.randint(0, 2)
                for c in classes
                if c == k or c not in fam
            }
            x = realize_type(GSetType.from_counts(g, counts))
            y = GSetType(g, tuple((c, n) for c, n in orbit_type(x).entries if c != k))
            assert orbit_type(realize_type(y)) == y
            assert all(c not in fam for c, _ in y.entries)


def p_group_specs():
    """Every product of the named atoms C2-C32, D3-D16 and Q8, as a
    multiset of factors in atom order, that is a p-group of order at most
    64.  The p-group atoms are C_{p^k} with p^k <= 32, D4, D8, D16 and
    Q8."""
    atoms = [(f"C{n}", n) for n in range(2, 33) if len(prime_factors(n)) == 1]
    atoms += [(f"D{n}", 2 * n) for n in (4, 8, 16)] + [("Q8", 8)]
    specs = []

    def grow(factors, order, start):
        for i in range(start, len(atoms)):
            name, n = atoms[i]
            if order * n <= 64 and len(prime_factors(order * n)) == 1:
                specs.append("x".join(factors + [name]))
                grow(factors + [name], order * n, i)

    grow([], 1, 0)
    return specs


P_GROUP_SPECS = p_group_specs()


def test_p_group_specs_cover_the_named_products():
    assert len(P_GROUP_SPECS) == 69
    for spec in ("C2xC32", "C3xC9", "C2xC2xC2xC2xC4", "C2xC2xC2xD4", "Q8xQ8",
                 "C2xD16", "C7xC7", "C31", "C2xC2xC2xC2xC2xC2"):
        assert spec in P_GROUP_SPECS


@pytest.mark.parametrize("spec", P_GROUP_SPECS)
def test_p_groups_are_all_standard(spec):
    """For a p-group every separable commutative algebra is standard, in
    G-spectra and in derived Mackey functors alike, so classify answers
    AllStandard with sphere and with Z coefficients.  classify reads no
    containment count, so C2xC2xC2xC2xC2xC2 (2,825 subgroup classes)
    takes about a second with both rings."""
    g = make_group(spec)
    for ring in (sphere(), integers()):
        out = classify(g, ring, 0)
        assert out.verdict is Verdict.ALL_STANDARD, (spec, ring.name)
        assert len(out.groupoid) == 1


def paper_table_specs():
    """Every product of the named atoms C2-C32, D3-D16, S3, S4, A4, A5 and
    Q8 of order at most 64, as a multiset of factors in atom order."""
    atoms = [(f"C{n}", n) for n in range(2, 33)]
    atoms += [(f"D{n}", 2 * n) for n in range(3, 17)]
    atoms += [("S3", 6), ("S4", 24), ("A4", 12), ("A5", 60), ("Q8", 8)]
    specs = []

    def grow(factors, order, start):
        for i in range(start, len(atoms)):
            name, n = atoms[i]
            if order * n <= 64:
                specs.append(("x".join(factors + [name]), order * n))
                grow(factors + [name], order * n, i)

    grow([], 1, 0)
    return specs


# sha256 of the "spec ring verdict" lines of the non-p-group specs, in
# paper_table_specs order with sphere before Z, joined by newlines
PAPER_TABLE_DIGEST = (
    "a24d325e6f46699aebaaaeffb1a00f80fdf75bbed46576ac7ecb781c14716d63"
)
# sha256 of the same runs' whole outcomes, one json.dumps(payload,
# sort_keys=True) line each, the payload that `classify --format json`
# prints, so stage reports, witness records and failure notes are pinned too
PAPER_OUTCOME_DIGEST = (
    "14a1d37e98064881d2e508d522371dec67951e7c99ae84fb5c2bdf0148935c1d"
)


def test_verdict_table_of_the_other_products():
    """The rest of the verdict table.  Only A5 is not solvable, and its
    unit decomposes over the sphere.  Every other group that is not a
    p-group fails a stage check, so none is AllStandard.  The witness
    search needs two prime divisors and every proper stage passing, so
    ConditionsFailNoWitness marks where it stops, not a proof that no
    non-standard algebra exists."""
    table = paper_table_specs()
    assert len(table) == 284
    p_groups = [s for s, n in table if len(prime_factors(n)) == 1]
    assert sorted(p_groups) == sorted(P_GROUP_SPECS)
    lines, outcomes = [], []
    for spec, order in table:
        if len(prime_factors(order)) == 1:
            continue
        g = make_group(spec)
        for name, ring in (("sphere", sphere()), ("Z", integers())):
            payload = cli._classify(SimpleNamespace(g=g, ring=ring, max_size=0))
            lines.append(f"{spec} {name} {payload['verdict']}")
            outcomes.append(json.dumps(payload, sort_keys=True))
    verdicts = Counter(line.split()[2] for line in lines)
    assert verdicts == {"ConditionsFailNoWitness": 364,
                        "NonStandardWitness": 65, "UnitDecomposes": 1}
    assert [line for line in lines if line.endswith("UnitDecomposes")] == [
        "A5 sphere UnitDecomposes"
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PAPER_TABLE_DIGEST
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == PAPER_OUTCOME_DIGEST


@pytest.mark.parametrize(
    "spec, verdict",
    [("C2xC2xC2xC2", Verdict.ALL_STANDARD),
     ("S4", Verdict.CONDITIONS_FAIL_NO_WITNESS),
     ("C6", Verdict.NON_STANDARD_WITNESS),
     ("A5", Verdict.UNIT_DECOMPOSES)],
)
def test_classify_reads_no_containment_count(spec, verdict, monkeypatch):
    """Every verdict is reached without the containment-count table: the
    filtration reads the subconjugacy masks, which the lattice search's
    extensions give."""

    def refuse(self):
        raise AssertionError("containment counts built")

    monkeypatch.setattr(group_core._Lattice, "counts", refuse)
    assert classify(make_group(spec), sphere(), 2).verdict is verdict


@pytest.mark.parametrize(
    "spec, ring, family_order, verdict",
    [("C6", integers(), None, Verdict.NON_STANDARD_WITNESS),
     ("C30", integers(), None, Verdict.CONDITIONS_FAIL_NO_WITNESS),
     ("S4", integers(), None, Verdict.CONDITIONS_FAIL_NO_WITNESS),
     ("D4", sphere(), None, Verdict.ALL_STANDARD),
     ("A5", sphere(), None, Verdict.UNIT_DECOMPOSES),
     ("C6", sphere(), 1, Verdict.ALL_STANDARD)],
    ids=["C6-Z", "C30-Z", "S4-Z", "D4-sphere", "A5-sphere", "C6-sphere-family"],
)
def test_classify_builds_each_stage_report_once(spec, ring, family_order,
                                                verdict, monkeypatch):
    """classify hands its own stage reports to the witness step, so no
    class's report is built twice; the witness reads every class's, and
    a decomposing unit is answered before any is built.  `family_order`
    is the order of the class whose closure is the family, None for
    empty."""
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    family = None
    if family_order is not None:
        family = closure_family(g, [class_of_order(g, family_order)])
    built = Counter()
    build = StageReport.__init__

    def counting(self, *values, **named):
        build(self, *values, **named)
        built[self.subgroup] += 1

    monkeypatch.setattr(StageReport, "__init__", counting)
    out = classify(g, ring, 2, family=family)
    assert out.verdict is verdict
    assert all(n == 1 for n in built.values()), built
    if verdict is Verdict.UNIT_DECOMPOSES:
        assert not built
    elif verdict is not Verdict.ALL_STANDARD:
        assert set(built) == set(classes)


def test_classify_witness_agrees_with_witness_nonstandard():
    """On drawn permutation groups, wherever classify reaches the witness
    step its witness and notes are witness_nonstandard's record and
    failures, though classify hands the step reports it built itself."""
    rng = random.Random(0)
    reached = Counter()
    for spec in random_perm_specs(rng, 20):
        g = make_group(spec)
        for ring in (sphere(), integers(), prime_field(rng.choice((2, 3, 5, 7)))):
            out = classify(g, ring, 0)
            if out.verdict in (Verdict.ALL_STANDARD, Verdict.UNIT_DECOMPOSES):
                continue
            probe = witness_nonstandard(g, ring)
            assert out.witness == probe.record, (spec, ring.name)
            assert out.notes == probe.failures, (spec, ring.name)
            reached[out.verdict] += 1
    assert reached[Verdict.NON_STANDARD_WITNESS] > 0
    assert reached[Verdict.CONDITIONS_FAIL_NO_WITNESS] > 0
