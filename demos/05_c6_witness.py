"""The C6 witness, reconstructed step by step.

Run with: python3 demos/05_c6_witness.py
"""

from equisep import (
    FiniteGroupoid,
    GroupHom,
    GroupoidComponent,
    GroupoidFunctor,
    aut_group,
    direct_product,
    make_group,
    pullback_pi0,
    realize_type,
    stage_report,
    sphere,
    subgroup_conjugacy_classes,
    symmetric_group,
    witness_nonstandard,
    GSetType,
)

c6 = make_group("C6")

# Stage checks: every subgroup K contributes its Weyl group N(K)/K.  For
# C6 the bottom stage has Weyl group C6 itself, order 6 = 2*3, and the
# indecomposability check rejects it.
print("stage checks for C6 over the sphere:")
for cls in subgroup_conjugacy_classes(c6):
    rep = stage_report(cls, sphere())
    print(
        f"  {cls.name}: weyl order {rep.weyl.order}, "
        f"ic={rep.ic.ok}, rc={rep.rc.ok}"
    )

# The witness lives over the two-element trivial C6-set.  Its plain
# automorphisms form S2.
top = subgroup_conjugacy_classes(c6)[-1]
two_points = realize_type(GSetType.from_counts(c6, {top: 2}))
a = aut_group(two_points)
print(f"\n2*[G/G] has automorphism group of order {a.order}")

# Splitting at the primes 2 and 3 doubles the symmetries: the relevant
# automorphism group becomes S2 x S2, and both comparison maps are the
# diagonal.
s2 = symmetric_group(2)
power = direct_product(s2, s2)
diag = GroupHom.from_generator_images(
    s2, power, {s2.generators[0]: (1, 0, 3, 2)}
)
src = FiniteGroupoid([GroupoidComponent("2*[G/G]", s2)])
dst = FiniteGroupoid([GroupoidComponent("per-prime", power)])
leg = GroupoidFunctor(src, dst, {"2*[G/G]": "per-prime"}, {"2*[G/G]": diag})

# Components of the comparison square's pullback are double cosets of the
# diagonal.  A single component would mean the data glues; two means the
# tuple (id, swap) cannot come from any global automorphism.
comps = pullback_pi0(leg, leg)
print(f"the comparison fiber splits into {len(comps)} classes")

# The packaged search counts those double cosets directly and hands back
# the certificate.
probe = witness_nonstandard(c6, sphere())
rec = probe.record
print(f"\nwitness: eta = {rec.eta_text}, fiber size {rec.fiber_size}")
print("double-coset orbits:")
for orbit in rec.double_coset_certificate:
    print("  {" + ", ".join(orbit) + "}")
print(f"note: {rec.note}")
