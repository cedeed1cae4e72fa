"""Induction, restriction, and the double-coset decomposition.

Run with: python3 demos/02_mackey_decomposition.py
"""

from equisep import (
    GSetType,
    double_cosets,
    induce,
    mackey_decompose,
    make_group,
    orbit_type,
    realize_type,
    restrict,
    subgroup_conjugacy_classes,
)

g = make_group("S3")
classes = subgroup_conjugacy_classes(g)
h = next(c for c in classes if c.order == 2).representative
k = next(c for c in classes if c.order == 3).representative

# Start from the one-point K-set and induce up to G: that gives the
# coset action on G/K, here two points.
point = realize_type(GSetType.from_counts(k, {subgroup_conjugacy_classes(k)[-1]: 1}))
up = induce(g, k, point)
print(f"inducing a point from the order-3 subgroup gives {orbit_type(up).label()}")

# Restricting back down to the order-2 subgroup H splits into H-orbits.
down = restrict(up, h)
print(f"restricted to H it reads {orbit_type(down).label()}")

# The same answer arrives orbit by orbit through H\G/K double cosets,
# without ever forming the induced G-set.
dec = double_cosets(g, h, k)
print(f"H\\G/K has {len(dec)} double cosets of sizes {[size for _, size in dec]}")
formula = mackey_decompose(g, h, k, point)
print(f"the decomposition gives {orbit_type(formula).label()}")
assert orbit_type(formula) == orbit_type(down)

# The formula holds for any K-set, not just points.
bigger = realize_type(
    GSetType.from_counts(k, {c: 1 for c in subgroup_conjugacy_classes(k)})
)
lhs = orbit_type(mackey_decompose(g, h, k, bigger))
rhs = orbit_type(restrict(induce(g, k, bigger), h))
assert lhs == rhs
print(f"with a {bigger.size}-point K-set both sides give {lhs.label()}")
