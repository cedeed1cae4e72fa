"""Running the classifier: positive, relative, and degenerate outcomes.

Run with: python3 demos/04_classification.py
"""

from equisep import (
    Verdict,
    classify,
    closure_family,
    integers,
    make_group,
    sphere,
    subgroup_conjugacy_classes,
)

# For a p-group every stage check passes and the answer is the full
# census of G-sets up to the size bound: one GSetType per isomorphism
# class, with the order of its automorphism group.
c4 = make_group("C4")
out = classify(c4, sphere(), max_size=4)
print(f"C4 over the sphere: {out.verdict.value}")
for t in out.groupoid:
    print(f"  {t.label():<16} aut order {t.aut_order}")

# C6 fails at the bottom stage: the Weyl group there is all of C6, whose
# order has two prime factors.  The classifier answers with an explicit
# witness instead.
c6 = make_group("C6")
out = classify(c6, sphere(), max_size=6)
print(f"\nC6 over the sphere: {out.verdict.value}")
print(f"  witness fiber size {out.witness.fiber_size}, eta {out.witness.eta_text}")

# Relative to the family generated by the trivial subgroup the bottom
# stage is excused, and C6 classifies cleanly.
triv = subgroup_conjugacy_classes(c6)[0]
fam = closure_family(c6, [triv])
out = classify(c6, sphere(), max_size=6, family=fam)
print(f"\nC6 relative to the trivial family: {out.verdict.value}")
print(f"  {len(out.groupoid)} components with isotropy outside the family")

# Integer coefficients drop the unit obstruction for non-solvable groups,
# so A5 gets a witness with three primes; over the sphere the unit itself
# decomposes and classification stops immediately.
a5 = make_group("A5")
for ring in (sphere(), integers()):
    out = classify(a5, ring, max_size=3)
    extra = ""
    if out.verdict is Verdict.NON_STANDARD_WITNESS:
        extra = f" (fiber {out.witness.fiber_size}, eta {out.witness.eta_text})"
    print(f"\nA5 over {ring.name}: {out.verdict.value}{extra}")
