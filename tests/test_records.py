"""The contract of the immutable value records: construction by position
and keyword with their defaults, equality within one class, hashing as
the compared fields, the Name(field=value, ...) repr, refused assignment,
the constructor checks, the refusal of wrong arguments, and copy and
pickle."""

import copy
import importlib
import pathlib
import pickle
import sys

import pytest

from equisep._record import _Record
from equisep.burnside import TableOfMarks, table_of_marks
from equisep.classifier import ClassificationOutcome, Verdict
from equisep.conditions import (
    CheckResult,
    RingDescriptor,
    StageReport,
    integers,
    prime_field,
    sphere,
)
from equisep.families import Family, closure_family, empty_family
from equisep.group_core import (
    GroupFlags,
    SubgroupClass,
    group_flags,
    make_group,
    subgroup_conjugacy_classes,
)
from equisep.gset import FSplitting, GSetType, trivial_gset
from equisep.pullback import (
    FiniteGroupoid,
    GroupHom,
    GroupoidComponent,
    GroupoidFunctor,
    PullbackComponent,
)
from equisep.witness import MODELING_NOTE, WitnessProbe, WitnessRecord

from . import oracles

# Each record with its fields in constructor order.  Records that check
# nothing in their constructor are filled with plain strings.
FIELDS = {
    TableOfMarks: ("classes", "marks"),
    WitnessProbe: ("record", "failures", "stage_reports"),
    RingDescriptor: ("kind", "char"),
    CheckResult: ("ok", "rule", "convention"),
    StageReport: ("subgroup", "ic", "rc", "sep_closed"),
    SubgroupClass: ("parent", "representative", "class_size", "name"),
    GroupFlags: ("is_solvable", "prime_divisors"),
    PullbackComponent: ("base", "eta_class", "fiber_size", "fiber_index",
                        "coset_size", "aut_order"),
    GroupoidComponent: ("label", "aut"),
    GSetType: ("group", "entries"),
    FSplitting: ("group", "ranks"),
}
CHECKED = (WitnessRecord, Family, ClassificationOutcome)
CUSTOM_REPR = (SubgroupClass, GSetType, Family)


def _plain_args(cls):
    return tuple(f"{f}-value" for f in FIELDS[cls])


def _checked_samples():
    """(cls, fields, args) for the records whose constructors check."""
    g = make_group("S3")
    classes = subgroup_conjugacy_classes(g)
    return [
        (WitnessRecord, ("x1", "primes"),
         (GSetType.from_counts(g, {classes[-1]: 2}), (2, 3))),
        (Family, ("group", "classes"),
         (g, oracles.members(closure_family(g, [classes[1]])))),
        (ClassificationOutcome,
         ("verdict", "stage_reports", "groupoid", "witness", "notes"),
         (Verdict.UNIT_DECOMPOSES, (), None, None, ("a note",))),
    ]


def _field(rec, f):
    """The value rec was built with for its constructor argument f: a
    Family, built from classes, holds their mask."""
    if (type(rec), f) == (Family, "classes"):
        return oracles.members(rec)
    return getattr(rec, f)


def _samples():
    out = [(cls, FIELDS[cls], _plain_args(cls)) for cls in FIELDS]
    return out + _checked_samples()


def _sample(cls):
    """(fields, args) of the sample of cls."""
    return next((fields, args) for c, fields, args in _samples() if c is cls)


RECORDS = (*FIELDS, *CHECKED)
SAMPLE_IDS = [cls.__name__ for cls in RECORDS]


def test_every_record_is_covered():
    covered = {cls for cls, _, _ in _samples()}
    assert covered == set(_Record.__subclasses__())
    assert len(covered) == 14


@pytest.mark.parametrize("index", range(14), ids=SAMPLE_IDS)
def test_positional_and_keyword_construction(index):
    cls, fields, args = _samples()[index]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    for rec in (by_position, by_keyword):
        assert tuple(_field(rec, f) for f in fields) == args
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)


@pytest.mark.parametrize("index", range(14), ids=SAMPLE_IDS)
def test_equality_and_hash_follow_the_values(index):
    cls, fields, args = _samples()[index]
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if cls is SubgroupClass:
        assert hash(a) == hash(a.name)
    elif cls is Family:
        assert hash(a) == hash((a.group, a.mask))
    elif cls is not RingDescriptor:
        assert hash(a) == hash(args)


@pytest.mark.parametrize("index", range(14), ids=SAMPLE_IDS)
def test_never_equal_to_another_class(index):
    cls, _, args = _samples()[index]
    rec = cls(*args)
    twin = type("Twin", (cls,), {"__slots__": ()})(*args)
    assert rec != twin and twin != rec
    assert rec != args
    if cls is GSetType:
        assert rec != GroupoidComponent(*args)


@pytest.mark.parametrize("index", range(14), ids=SAMPLE_IDS)
def test_assignment_is_refused(index):
    cls, fields, args = _samples()[index]
    rec = cls(*args)
    for f in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(rec, f, 0)
        with pytest.raises(AttributeError):
            delattr(rec, f)
        if (cls, f) == (Family, "classes"):
            assert oracles.members(rec) == args[1]
        else:
            assert getattr(rec, f) is args[fields.index(f)]
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if c not in CUSTOM_REPR],
    ids=lambda c: c.__name__,
)
def test_repr_lists_fields(cls):
    fields, args = _sample(cls)
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, args))
    assert repr(cls(*args)) == f"{cls.__name__}({inner})"


def test_reprs_of_real_records():
    g = make_group("S3")
    classes = subgroup_conjugacy_classes(g)
    assert repr(CheckResult(True, "x")) == (
        "CheckResult(ok=True, rule='x', convention=False)"
    )
    assert repr(group_flags(g)) == (
        "GroupFlags(is_solvable=True, prime_divisors=frozenset({2, 3}))"
    )
    assert repr(table_of_marks(g)) == (
        "TableOfMarks("
        "classes=(SubgroupClass(1a, size=1), SubgroupClass(2a, size=3), "
        "SubgroupClass(3a, size=1), SubgroupClass(6a, size=1)), "
        "marks=((6, 0, 0, 0), (3, 1, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1)))"
    )
    assert repr(ClassificationOutcome(Verdict.UNIT_DECOMPOSES, ())) == (
        "ClassificationOutcome(verdict=<Verdict.UNIT_DECOMPOSES: "
        "'UnitDecomposes'>, stage_reports=(), groupoid=None, witness=None, "
        "notes=())"
    )
    assert repr(classes[1]) == "SubgroupClass(2a, size=3)"
    assert repr(closure_family(g, [classes[1]])) == "Family({1a,2a})"
    assert repr(GSetType(g, ((classes[0], 2), (classes[1], 1)))) == (
        "GSetType(2*G/1a + G/2a)"
    )


def test_protocol_of_the_public_types_that_are_not_records():
    """Group, GSet and the groupoid types print as what they are; a Group
    hashes by its elements, and a Group or a FiniteGroupoid is never equal
    to a value of another type."""
    g, c2 = make_group("S3"), make_group("C2")
    point = FiniteGroupoid([GroupoidComponent("p", c2)])
    hom = GroupHom.trivial(c2, c2)
    assert repr(g) == "Group(order=6, degree=3)"
    assert repr(trivial_gset(g, 4)) == "GSet(group_order=6, size=4)"
    assert repr(point) == "FiniteGroupoid(1 components)"
    assert repr(hom) == (
        "GroupHom(Group(order=2, degree=2) -> Group(order=2, degree=2))"
    )
    assert repr(GroupoidFunctor(point, point, {"p": "p"}, {"p": hom})) == (
        "GroupoidFunctor(1 -> 1)"
    )
    assert hash(g) == hash(make_group("S3"))
    assert g != "S3" and point != point.components


def test_defaults():
    outcome = ClassificationOutcome(Verdict.UNIT_DECOMPOSES, ())
    assert (outcome.groupoid, outcome.witness, outcome.notes) == (None, None, ())
    assert CheckResult(False, "r").convention is False
    record = WitnessRecord(*_sample(WitnessRecord)[1])
    assert record.note == MODELING_NOTE
    c6 = make_group("C6")
    x1 = GSetType.from_counts(c6, {subgroup_conjugacy_classes(c6)[-1]: 2})
    record = WitnessRecord(x1, (2, 3, 5))
    assert (record.eta, record.fiber_size) == (("id", "id", "swap"), 4)
    assert len(record.double_coset_certificate) == 4


def test_constructor_checks_still_run():
    g = make_group("S3")
    classes = subgroup_conjugacy_classes(g)
    with pytest.raises(ValueError, match="1a below 2a is missing"):
        Family(g, frozenset([classes[1]]))
    other = subgroup_conjugacy_classes(make_group("C2"))
    with pytest.raises(ValueError, match="a subgroup class of another group"):
        Family(g, frozenset(other))
    with pytest.raises(ValueError, match="groupoid iff it is AllStandard"):
        ClassificationOutcome(Verdict.ALL_STANDARD, ())
    with pytest.raises(ValueError, match="groupoid iff it is AllStandard"):
        ClassificationOutcome(Verdict.UNIT_DECOMPOSES, (),
                              groupoid=())
    x1 = GSetType.from_counts(g, {classes[-1]: 2})
    with pytest.raises(ValueError, match="at least two primes"):
        WitnessRecord(x1, (2,))


def test_ring_descriptors_compare_by_char_and_pickle():
    assert RingDescriptor("prime_field", 5) != RingDescriptor("prime_field", 7)
    assert [ring.name for ring in (sphere(), integers(), prime_field(7))] == [
        "sphere", "Z", "F7"]
    for ring in (sphere(), integers(), prime_field(5)):
        assert pickle.loads(pickle.dumps(ring)) == ring


@pytest.mark.parametrize("cls", [*FIELDS, WitnessRecord],
                         ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    rec = cls(*_sample(cls)[1])
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_copy_of_a_checked_record():
    g = make_group("S3")
    fam = empty_family(g)
    assert copy.deepcopy(fam) == fam


@pytest.mark.parametrize("index", range(14), ids=SAMPLE_IDS)
def test_wrong_arguments_raise_type_error(index):
    """A missing field, an unknown keyword, a field given twice and one
    positional argument too many are refused as an explicit signature
    would refuse them."""
    cls, fields, args = _samples()[index]
    without_first = dict(zip(fields[1:], args[1:]))
    calls = {
        "missing": lambda: cls(**without_first),
        "unknown": lambda: cls(*args, no_such_field=1),
        "twice": lambda: cls(*args, **{fields[0]: args[0]}),
        "too many": lambda: cls(*args, None),
    }
    for what, call in calls.items():
        with pytest.raises(TypeError):
            call()
            pytest.fail(f"{cls.__name__}: {what} argument accepted")


def test_every_record_binds_in_the_shared_constructor(monkeypatch):
    """Every record, Family included, binds its fields in the shared
    constructor, and no package module keeps a slot setter of its own."""
    samples = [(cls, args) for cls, _, args in _samples()]
    shared = _Record.__init__
    built = []

    def counted(self, *values, **named):
        built.append(type(self))
        shared(self, *values, **named)

    monkeypatch.setattr(_Record, "__init__", counted)
    for cls, args in samples:
        cls(*args)
    assert built == [cls for cls, _ in samples]
    package = pathlib.Path(sys.modules["equisep"].__file__).parent
    modules = [importlib.import_module(f"equisep.{p.stem}")
               for p in package.glob("*.py") if p.stem[0] != "_"]
    modules.append(sys.modules["equisep._record"])
    assert len(modules) > 10
    assert not [m.__name__ for m in modules if hasattr(m, "_set")]
