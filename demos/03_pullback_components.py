"""Counting components of a groupoid pullback by double cosets.

Run with: python3 demos/03_pullback_components.py
"""

from equisep import (
    FiniteGroupoid,
    GroupHom,
    GroupoidComponent,
    GroupoidFunctor,
    cyclic_group,
    pullback_pi0,
    symmetric_group,
    trivial_group,
)

# A skeletal groupoid is just a list of components with automorphism
# groups.  Take B and C to be single points with no symmetries, and D a
# point whose symmetries form S3.
s3 = symmetric_group(3)
b = FiniteGroupoid([GroupoidComponent("b", trivial_group())])
c = FiniteGroupoid([GroupoidComponent("c", cyclic_group(2))])
d = FiniteGroupoid([GroupoidComponent("d", s3)])

into_d = lambda src, label, hom: GroupoidFunctor(
    src, d, {label: "d"}, {label: hom}
)
f = into_d(b, "b", GroupHom.trivial(trivial_group(), s3))

# Map C's symmetry onto a transposition in S3.
sigma = next(x for x in s3.sorted_elements() if x != s3.identity and x[2] == 2)
hom = GroupHom.from_generator_images(cyclic_group(2), s3,
                                     {cyclic_group(2).generators[0]: sigma})
g = into_d(c, "c", hom)

# Components over the base pair (b, c) are the double cosets of the two
# image subgroups inside Aut(d) = S3: here {e}\S3/<sigma>.
comps = pullback_pi0(f, g)
print(f"the pullback has {len(comps)} components:")
for p in comps:
    print(
        f"  base {p.base}, coset rep {p.eta_class}, "
        f"coset size {p.coset_size}, aut order {p.aut_order}"
    )

# Automorphism orders multiply out to |Aut(b)| * |Aut(c)| / coset size.
for p in comps:
    assert p.aut_order * p.coset_size == 1 * 2
print("orbit-stabilizer bookkeeping checks out")
