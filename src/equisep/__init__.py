"""Separable-algebra classification over finite group actions.

The library is organized bottom-up: permutation groups and their
subgroup lattice (group_core), the table of marks (burnside), families of
subgroups (families), per-stage checks (conditions), G-set types and the
census, a tuple of GSetTypes (groupoid_calc), and the classifier
(classifier).  Beside them sit finite G-sets with the Mackey calculus and
automorphism groups (gset), skeletal groupoids with their functors and
pullbacks (pullback), and the non-standard witness (witness), which
classify loads only when a stage check fails.  The witness's comparison
fiber is pi_0 of the pullback of the diagonal leg against itself, i.e.
the double cosets of the diagonal in (S_2)^r, and the witness counts
those directly.  The cli module exposes all of it as the `equisep`
command.

The names below load on first access (PEP 562): `import equisep` imports
no submodule, and `equisep.classify` imports the classifier, and what it
needs, only when it is read.  So a command-line verb compiles and runs
only the modules it uses.
"""

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.  A submodule's own
# name maps to itself and reads as the module.
_SUBMODULE = {
    name: module
    for module, names in {
        "burnside": (
            "burnside",
            "TableOfMarks",
            "degree_is_constant",
            "idempotent_block_count",
            "is_indecomposable_mod",
            "sphere_ic",
            "table_of_marks",
        ),
        "classifier": (
            "classifier",
            "ClassificationOutcome",
            "Verdict",
            "classify",
        ),
        "conditions": (
            "conditions",
            "CheckResult",
            "RingDescriptor",
            "StageReport",
            "check_ic",
            "check_rc",
            "integers",
            "prime_field",
            "sphere",
            "stage_report",
        ),
        "families": (
            "families",
            "Family",
            "closure_family",
            "empty_family",
        ),
        "group_core": (
            "group_core",
            "Group",
            "GroupFlags",
            "GroupSpecError",
            "ResourceLimitError",
            "SubgroupClass",
            "alternating_group",
            "class_of_subgroup",
            "cyclic_group",
            "dihedral_group",
            "direct_product",
            "double_cosets",
            "group_flags",
            "make_group",
            "perfect_subgroup_classes",
            "quaternion_group",
            "subgroup_conjugacy_classes",
            "symmetric_group",
            "trivial_group",
            "weyl_group",
        ),
        "groupoid_calc": (
            "groupoid_calc",
            "GSetType",
            "truncated_gset_groupoid",
        ),
        "gset": (
            "gset",
            "FSplitting",
            "GSet",
            "aut_group",
            "coset_gset",
            "disjoint_union",
            "f_assemble",
            "f_split",
            "induce",
            "mackey_decompose",
            "orbit_type",
            "realize_type",
            "restrict",
            "trivial_gset",
        ),
        "pullback": (
            "pullback",
            "FiniteGroupoid",
            "GroupHom",
            "GroupoidComponent",
            "GroupoidFunctor",
            "PullbackComponent",
            "all_homomorphisms",
            "pullback_pi0",
        ),
        "witness": (
            "witness",
            "WitnessProbe",
            "WitnessRecord",
            "witness_nonstandard",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _SUBMODULE.keys())
