"""The containment counts behind marks, subconjugacy and Weyl orders,
checked against routes that do not read them: a scan over the group,
fixed points of coset G-sets, and built Weyl groups."""

import random

import pytest

from equisep import cli, group_core, gset
from equisep.burnside import table_of_marks
from equisep.group_core import (
    make_group,
    subgroup_conjugacy_classes,
    weyl_group,
)
from equisep.gset import GSetType, coset_gset

from . import oracles
from .test_acceptance import CORPUS


def oracle_groups():
    """The acceptance corpus, three larger groups, and random `perm:`
    specs of order at most 48."""
    groups = [make_group(s) for s in CORPUS + ["C30", "A5", "C2xC2xC2xC2"]]
    for spec in oracles.random_perm_specs(random.Random(2024), 40):
        g = oracles.bounded_group(spec, 48)
        if g is not None:
            groups.append(g)
    return groups


def test_below_bits_match_scan_over_group():
    for g in oracle_groups():
        classes = subgroup_conjugacy_classes(g)
        for below in classes:
            for above in classes:
                assert oracles.below_bit(g, below, above) == (
                    oracles.brute_force_subconjugate(g, below, above)
                ), (g, below.name, above.name)


def test_marks_match_fixed_points_of_coset_gsets():
    for g in oracle_groups():
        tom = table_of_marks(g)
        for i, h in enumerate(tom.classes):
            x = coset_gset(g, h.representative)
            for j, k in enumerate(tom.classes):
                assert tom.marks[i][j] == len(x._fixed_by(k.representative)), (
                    g, h.name, k.name
                )


def test_weyl_order_matches_built_weyl_group():
    for g in oracle_groups():
        t = group_core._table(g)
        for cls in subgroup_conjugacy_classes(g):
            h = cls.representative
            # a stop at |G| makes the normalizer span a full scan
            _, n = group_core._normalizer(
                t, t.indices(h.generators), sorted(t.indices(h.elements)), g.order)
            assert cls.weyl_order == weyl_group(g, cls).order
            assert cls.weyl_order * cls.order == len(n)


def test_containment_counts_count_conjugates():
    g = make_group("S4")
    classes = subgroup_conjugacy_classes(g)
    marks = table_of_marks(g).marks
    for i, h in enumerate(classes):
        conjugates = {
            frozenset(group_core.pconj(x, t) for t in h.representative.elements)
            for x in g.elements
        }
        assert len(conjugates) == h.class_size
        for j, k in enumerate(classes):
            want = sum(k.representative.elements <= c for c in conjugates)
            assert marks[i][j] == h.weyl_order * want


def test_lattice_readers_build_no_gset_or_weyl_group(monkeypatch, capsys):
    """Marks, Weyl orders, census automorphism orders, the subgroups verb
    and the stage checks of conditions and classify count; none of them
    builds a G-set or a Weyl group."""

    def boom(*args, **kwargs):
        raise AssertionError("built a G-set or a Weyl group")

    monkeypatch.setattr(gset, "coset_gset", boom)
    monkeypatch.setattr(gset, "_normalizer_span", boom)
    monkeypatch.setattr(group_core, "_normalizer_span", boom)
    g = make_group("D4xS3")
    classes = subgroup_conjugacy_classes(g)
    tom = table_of_marks(g)
    assert [tom.marks[i][i] for i in range(len(classes))] == [
        c.weyl_order for c in classes
    ]
    t = GSetType.from_counts(g, {classes[0]: 1, classes[-1]: 2})
    assert t.aut_order == classes[0].weyl_order * 2
    assert cli.main(["subgroups", "--group", "A4xC3"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == [
        "subgroup", "order", "class_size", "weyl"
    ]
    assert cli.main(["conditions", "--group", "D4xS3", "--coeff", "Z"]) == 0
    assert cli.main(["conditions", "--group", "A4xC3", "--coeff", "sphere",
                     "--format", "json"]) == 0
    assert cli.main(["classify", "--group", "C2xD4", "--coeff", "Z",
                     "--max-size", "4"]) == 0
    out = capsys.readouterr().out
    assert "verdict: AllStandard" in out
    assert '"weyl_order": 9' in out


@pytest.mark.parametrize("spec", ["S3", "D4", "A4"])
def test_subconjugacy_is_read_without_a_scan(monkeypatch, spec):
    """The below bits are read off the lattice: with conjugation disabled
    after the classes exist, they still answer."""
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)

    def boom(*args, **kwargs):
        raise AssertionError("scanned the group")

    monkeypatch.setattr(group_core, "pconj", boom)
    top = classes[-1]
    assert all(oracles.below_bit(g, c, top) for c in classes)
    assert [oracles.below_bit(g, top, c) for c in classes] == [
        c is top for c in classes
    ]


@pytest.mark.parametrize("spec", ["S4xS4", "D4xD4", "C2xC2xC2xC2xC2"])
def test_below_masks_match_pairwise_counts(spec):
    """The subconjugacy masks, closed over the lattice search's
    extensions, agree pair by pair with the scanned containment counts,
    which read no mask (the marks walk itself reads them)."""
    g = make_group(spec)
    classes = subgroup_conjugacy_classes(g)
    masks = group_core._subgroup_classes(g).below
    below = oracles.pairwise_subconjugacy(g)
    for i, h in enumerate(classes):
        assert [masks[i] >> j & 1 == 1 for j in range(len(classes))] == [
            below(k, h) for k in classes
        ], h.name


def test_counts_match_scan_on_random_groups():
    """The marks against |W(H)| times the pair-by-pair scanned counts,
    cell by cell, on 30 seeded random `perm:` specs of degree at most 6
    and on C2 to the 5th; a cell is nonzero exactly where the
    subconjugacy masks have a bit, so every cell outside them is 0."""
    specs = oracles.random_perm_specs(random.Random(2025), 30)
    for spec in specs + ["C2xC2xC2xC2xC2"]:
        g = make_group(spec)
        tom = table_of_marks(g)
        want = oracles.containment_counts_by_scan(g)
        masks = group_core._subgroup_classes(g).below
        for i, (h, row, mask) in enumerate(zip(tom.classes, tom.marks, masks)):
            for j, m in enumerate(row):
                assert m == h.weyl_order * want[i][j], (spec, i, j)
                assert (m > 0) == (mask >> j & 1 == 1), (spec, i, j)
