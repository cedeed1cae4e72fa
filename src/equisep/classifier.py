"""Top-level classification: build one stage report per subgroup class,
in (order, canonical key) order, and judge the classes outside the
family.  When they all pass, present the census of G-sets up to the size
bound, a tuple of GSetTypes (groupoid_calc.truncated_gset_groupoid);
when one fails, hand every report to the witness step (witness._find,
the step witness_nonstandard also calls), so no report is built twice.
Skeletal groupoids with built automorphism groups are in pullback.
"""

from __future__ import annotations

from enum import Enum

from ._record import _Record
from .burnside import idempotent_block_count
from .conditions import RingDescriptor, stage_report
from .families import Family, empty_family
from .group_core import Group, group_flags, subgroup_conjugacy_classes
from .groupoid_calc import truncated_gset_groupoid


class Verdict(Enum):
    ALL_STANDARD = "AllStandard"
    NON_STANDARD_WITNESS = "NonStandardWitness"
    CONDITIONS_FAIL_NO_WITNESS = "ConditionsFailNoWitness"
    UNIT_DECOMPOSES = "UnitDecomposes"


class ClassificationOutcome(_Record):
    __slots__ = ("verdict", "stage_reports",
                 "groupoid",  # an AllStandard verdict's census: GSetTypes
                 "witness",  # a WitnessRecord or None
                 "notes")
    _defaults = {"groupoid": None, "witness": None, "notes": ()}

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if (self.groupoid is not None) != (self.verdict is Verdict.ALL_STANDARD):
            raise ValueError("an outcome has a groupoid iff it is AllStandard")


def classify(g: Group, ring: RingDescriptor, max_size: int,
             family: Family | None = None) -> ClassificationOutcome:
    """Decide whether every separable algebra with isotropy outside the
    family comes from a G-set, and present the evidence."""
    if family is None:
        family = empty_family(g)
    family.check_group(g)
    flags = group_flags(g)
    if not flags.is_solvable and ring.burnside_unit:
        blocks = idempotent_block_count(g)
        return ClassificationOutcome(
            verdict=Verdict.UNIT_DECOMPOSES,
            stage_reports=(),
            notes=(
                "the unit decomposes non-trivially as a direct product: "
                f"its zeroth ring has {blocks} idempotent blocks",
            ),
        )

    # one report per class, each built once: the witness step reads them
    # all, the verdict those of the classes outside the family
    every = tuple(stage_report(cls, ring) for cls in subgroup_conjugacy_classes(g))
    reports = tuple(rep for rep in every if rep.subgroup not in family)
    if all(rep.passed for rep in reports):
        return ClassificationOutcome(
            verdict=Verdict.ALL_STANDARD,
            stage_reports=reports,
            groupoid=truncated_gset_groupoid(g, family, max_size),
        )

    from .witness import _find

    probe = _find(g, ring, every)
    if probe.found:
        return ClassificationOutcome(
            verdict=Verdict.NON_STANDARD_WITNESS,
            stage_reports=reports,
            witness=probe.record,
        )
    return ClassificationOutcome(
        verdict=Verdict.CONDITIONS_FAIL_NO_WITNESS,
        stage_reports=reports,
        notes=probe.failures,
    )
