"""Separable-algebra classification over finite group actions.

The library is organized bottom-up: permutation groups and their
subgroup lattice (group_core), finite G-sets and the Mackey calculus
(gset), families and filtrations (families), the table of marks and
Burnside-ring criteria (burnside), skeletal groupoids with pullback
component counts (groupoid_calc), coefficient descriptors with the
per-stage checks (conditions), and the classifier with its witness
construction (classifier).  The cli module exposes all of it as the
`equisep` command.
"""

from .burnside import (
    BurnsideElement,
    TableOfMarks,
    degree_is_constant,
    idempotent_block_count,
    is_indecomposable_mod,
    sphere_ic,
    table_of_marks,
)
from .classifier import (
    ClassificationOutcome,
    Verdict,
    WitnessProbe,
    WitnessRecord,
    classify,
    standard_algebra,
    witness_nonstandard,
)
from .conditions import (
    CheckResult,
    RingDescriptor,
    StageReport,
    UnsupportedDescriptorError,
    check_ic,
    check_rc,
    custom,
    geometric_fixed_points,
    integers,
    prime_field,
    sphere,
    stage_report,
)
from .families import (
    Family,
    Filtration,
    all_family,
    closure_family,
    empty_family,
    exhaustive_filtration,
    minimal_additions,
)
from .group_core import (
    DoubleCosetDecomposition,
    Group,
    GroupFlags,
    GroupSpecError,
    ResourceLimitError,
    SubgroupClass,
    alternating_group,
    class_of_subgroup,
    containment_counts,
    cyclic_group,
    dihedral_group,
    direct_product,
    double_cosets,
    group_flags,
    is_subconjugate,
    make_group,
    normalizer,
    perfect_subgroup_classes,
    quaternion_group,
    subgroup_conjugacy_classes,
    symmetric_group,
    trivial_group,
    weyl_group,
    weyl_group_with_section,
)
from .groupoid_calc import (
    FiniteGroupoid,
    GroupHom,
    GroupoidComponent,
    GroupoidFunctor,
    PullbackComponent,
    all_homomorphisms,
    brute_force_pullback,
    pullback_pi0,
    truncated_gset_groupoid,
    unit_power_component,
)
from .gset import (
    FSplitting,
    GSet,
    GSetType,
    aut_group,
    coset_gset,
    delete_orbits,
    disjoint_union,
    empty_gset,
    f_assemble,
    f_split,
    fixed_points,
    gset_from_action,
    induce,
    mackey_decompose,
    orbit_type,
    realize_type,
    restrict,
    trivial_gset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
