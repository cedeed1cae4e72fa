"""Tour of the group layer: subgroup classes, Weyl groups, and marks.

Run with: python3 demos/01_subgroups_and_marks.py
"""

from equisep import (
    group_flags,
    idempotent_block_count,
    make_group,
    subgroup_conjugacy_classes,
    table_of_marks,
)

# Groups are built from a tiny spec language.  Named families cover the
# usual suspects; perm:<degree>:<cycles> handles everything else.
s4 = make_group("S4")
custom = make_group("perm:5:(1 2 3)(4 5);(1 2)")
print(f"S4 has order {s4.order}; the custom group has order {custom.order}")

# Subgroup conjugacy classes come back sorted by order, named like
# conjugacy classes of elements: 1a, 2a, 2b, ...
print("\nsubgroup classes of S4:")
for cls in subgroup_conjugacy_classes(s4):
    print(
        f"  {cls.name:>3}  order {cls.order:>2}  "
        f"{cls.class_size} conjugate(s)  Weyl order {cls.weyl_order}"
    )

# The table of marks records fixed-point counts of coset actions.  Its
# diagonal recovers the Weyl group orders, its first column the indices.
d4 = make_group("D4")
print("\ntable of marks of D4:")
print(table_of_marks(d4).to_text())

# Idempotent block counts of the mark ring detect solvability.
for spec in ("S4", "A5"):
    g = make_group(spec)
    flags = group_flags(g)
    print(
        f"\n{spec}: solvable={flags.is_solvable}, "
        f"idempotent blocks={idempotent_block_count(g)}"
    )
