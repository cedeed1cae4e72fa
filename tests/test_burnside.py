"""Table of marks, idempotent blocks, decomposability predicates."""

import random

from equisep.burnside import (
    degree_is_constant,
    idempotent_block_count,
    is_indecomposable_mod,
    sphere_ic,
    table_of_marks,
)
from equisep import cli, group_core
from equisep.group_core import (
    make_group,
    pconj,
    subgroup_conjugacy_classes,
    weyl_group,
)
from equisep.gset import GSet, coset_gset, disjoint_union, orbit_type

from . import oracles


def test_marks_c2_example():
    tom = table_of_marks(make_group("C2"))
    assert tom.marks == ((2, 0), (1, 1))


def test_marks_s3_example():
    tom = table_of_marks(make_group("S3"))
    assert tom.marks == (
        (6, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 0, 2, 0),
        (1, 1, 1, 1),
    )


def test_marks_structure():
    for spec in ["C6", "D4", "A4", "S4"]:
        g = make_group(spec)
        tom = table_of_marks(g)
        n = len(tom.classes)
        # marks_layout sizes every cell by the longest name, G's included,
        # which is longer than the largest mark, the first
        assert max(map(max, tom.marks)) == tom.marks[0][0] == g.order
        assert tom.classes[-1].name == f"{g.order}a"
        for i in range(n):
            # First column is the index, the diagonal is the Weyl order.
            assert tom.marks[i][0] == g.order // tom.classes[i].order
            assert tom.marks[i][i] == weyl_group(g, tom.classes[i]).order
            for j in range(i + 1, n):
                assert tom.marks[i][j] == 0 or (
                    tom.classes[i].order == tom.classes[j].order
                )
        # Nonzero mark means subconjugate.
        for i in range(n):
            for j in range(n):
                assert (tom.marks[i][j] > 0) == oracles.below_bit(
                    g, tom.classes[j], tom.classes[i]
                )


def _marks(tom, x):
    """The mark vector of the G-set x, read from its orbit type: the
    combination of the table's rows with the type's multiplicities."""
    t = orbit_type(x)
    coefficients = [t.multiplicity(cls) for cls in tom.classes]
    return tuple(sum(c * m for c, m in zip(coefficients, column))
                 for column in zip(*tom.marks))


def test_marks_are_a_ring_homomorphism():
    """The marks of X x Y are the entrywise product of those of X and Y
    (tom Dieck, Transformation Groups and Representation Theory, LNM 766),
    and each mark of X counts the points its class representative fixes."""
    rng = random.Random(11)
    for spec in ["S3", "D4", "Q8", "A4", "C6", "S4", "C2xC2xC2"]:
        g = make_group(spec)
        tom = table_of_marks(g)
        reps = [cls.representative for cls in tom.classes]

        def draw():
            return disjoint_union(*(coset_gset(g, rng.choice(reps))
                                    for _ in range(rng.randint(1, 2))))

        for _ in range(4):
            x, y = draw(), draw()
            while x.size * y.size > 600:
                x, y = draw(), draw()
            images = [[p * y.size + q for p in xs for q in ys]
                      for xs, ys in zip(x.gen_images, y.gen_images)]
            product = GSet(g, x.size * y.size, images)
            mx, my = _marks(tom, x), _marks(tom, y)
            assert _marks(tom, product) == tuple(a * b for a, b in zip(mx, my))
            fixed = tuple(
                sum(all(x.perm(h)[p] == p for h in rep.generators)
                    for p in range(x.size))
                for rep in reps
            )
            assert mx == fixed


def test_idempotent_block_count_examples():
    assert idempotent_block_count(make_group("A5")) == 2
    assert idempotent_block_count(make_group("S5")) == 2
    for spec in ["C1", "C6", "S3", "S4", "Q8", "C2xC2"]:
        assert idempotent_block_count(make_group(spec)) == 1


def test_idempotent_blocks_against_rational_idempotent_oracle():
    """Blocks found by gluing ghost idempotents along perfect cores.

    For each class the derived series of its representative lands on a
    perfect subgroup; classes sharing that core conjugacy class form one
    block.  The block indicator vectors must come from integer elements of
    the Burnside ring and partition the unit.
    """
    for spec in ["C6", "S3", "A4", "S4", "A5"]:
        g = make_group(spec)
        tom = table_of_marks(g)
        classes = tom.classes
        cores = []
        for cls in classes:
            cur = cls.representative.elements
            while True:
                nxt = oracles.brute_force_commutator_subgroup(cur, g.degree)
                if nxt == cur:
                    break
                cur = nxt
            key = min(
                (
                    oracles.encode_subgroup(frozenset(pconj(x, h) for h in cur))
                    for x in g.elements
                ),
            )
            cores.append(key)
        blocks = {}
        for idx, key in enumerate(cores):
            blocks.setdefault(key, []).append(idx)
        assert len(blocks) == idempotent_block_count(g)
        total = [0] * len(classes)
        for members in blocks.values():
            chi = [1 if i in members else 0 for i in range(len(classes))]
            coeffs = oracles.solve_upper_triangular(tom.marks, chi)
            assert all(c.denominator == 1 for c in coeffs)
            total = [t + c for t, c in zip(total, chi)]
        assert total == [1] * len(classes)


def test_is_indecomposable_mod():
    assert is_indecomposable_mod(0)
    assert not is_indecomposable_mod(1)
    for n in [2, 3, 4, 8, 9, 25, 27]:
        assert is_indecomposable_mod(n)
    for n in [6, 10, 12, 30, 60]:
        assert not is_indecomposable_mod(n)


def test_sphere_ic_is_nontrivial_p_group():
    assert sphere_ic(make_group("C4").order)
    assert sphere_ic(make_group("Q8").order)
    assert not sphere_ic(make_group("C1").order)
    assert not sphere_ic(make_group("C6").order)
    assert not sphere_ic(make_group("S3").order)


def test_sphere_ic_quotient_characterization():
    """Same answer as asking both Z and Z/|W| to be indecomposable."""
    from equisep.group_core import prime_factors

    for spec in ["C1", "C2", "C4", "C6", "S3", "D4", "Q8", "A4", "C12"]:
        w = make_group(spec)
        direct = sphere_ic(w.order)
        via_quotients = (
            w.order > 1
            and is_indecomposable_mod(0)
            and is_indecomposable_mod(w.order)
        )
        assert direct == via_quotients


def test_degree_is_constant_iff_full_subgroup(monkeypatch):
    """Decided from two counts, with no count table built."""
    def refuse(self):
        raise AssertionError("the count table was built")

    monkeypatch.setattr(group_core._Lattice, "counts", refuse)
    for spec in ["C6", "S3", "D4", "A4", "C2xC2xC2xC2xC2"]:
        g = make_group(spec)
        for cls in subgroup_conjugacy_classes(g):
            assert degree_is_constant(g, cls) == (cls.order == g.order)


def test_marks_text_round_trip():
    tom = table_of_marks(make_group("S3"))
    text = tom.to_text()
    rows = [line.split()[1:] for line in text.splitlines()[1:]]
    assert [[int(v) for v in row] for row in rows] == [
        list(row) for row in tom.marks
    ]
    blob = cli._marks(cli._parse(["marks", "--group", "S3"]))
    assert blob["marks"] == tom.marks
    assert blob["classes"] == [c.name for c in tom.classes]
