"""The explicit non-standard witness, counted by double cosets.

The witness lives over the two-object set 2*[G/G]: splitting the ambient
category at each of the r prime divisors turns its automorphisms into the
power (S_2)^r of the symmetric group on two letters, and both comparison
maps become the diagonal D.  The comparison fiber is pi_0 of the pullback
of that diagonal leg against itself, which is the set of double cosets
D\\(S_2)^r/D.  An element of the abelian group (S_2)^r is an r-bit mask,
with bit i set where it swaps at the i-th prime, and D = {0, full}; so
the double coset of m is {m, m ^ full}, and there are 2^(r-1) of them
instead of one.  The record reads all of this off its primes and builds
no group.

The search is one step, `_find`, that reads a stage report for every
subgroup class and builds none.  `witness_nonstandard` builds those
reports itself and calls it; `classify` hands it the reports it built
for its own verdict, so a failing classification builds each report once.
"""

from ._record import _Record
from .conditions import RingDescriptor, stage_report
from .group_core import Group, _is_cyclic, prime_factors, subgroup_conjugacy_classes
from .groupoid_calc import GSetType


MODELING_NOTE = (
    "per-prime unit indecomposability is checked through the descriptor's "
    "prime-power modulus data; the fiber count itself is certified by "
    "explicit double-coset enumeration"
)


def _blocks(m: int, r: int) -> tuple:
    """The element of (S_2)^r with mask m, one "id" / "swap" per prime."""
    return tuple("swap" if m >> i & 1 else "id" for i in range(r))


def _text(blocks: tuple) -> str:
    return "(" + ",".join(blocks) + ")"


class WitnessRecord(_Record):
    """An explicit two-object comparison square whose fiber is too big.

    x1 is the two-object G-set type 2*[G/G], which serves as both
    corners (the JSON writes it under both "x1" and "x2"); primes are
    the r >= 2 prime divisors it splits at.  eta swaps at the last prime
    only; the certificate lists every double-coset orbit, and eta's orbit
    differs from the identity's.  Every record carries the same modeling
    note, a class attribute.
    """

    __slots__ = ("x1",  # a GSetType
                 "primes")
    note = MODELING_NOTE

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if len(self.primes) < 2:
            raise ValueError("a witness needs at least two primes")

    @property
    def eta(self) -> tuple:
        r = len(self.primes)
        return _blocks(1 << r - 1, r)

    @property
    def eta_text(self) -> str:
        return _text(self.eta)

    @property
    def fiber_size(self) -> int:
        return 2 ** (len(self.primes) - 1)

    @property
    def double_coset_certificate(self) -> tuple:
        """The orbits {m, m ^ full}, one per mask m without the last bit,
        each as its two rendered members sorted, and sorted."""
        r = len(self.primes)
        full = (1 << r) - 1
        return tuple(sorted(tuple(sorted(_text(_blocks(x, r)) for x in (m, m ^ full)))
                            for m in range(self.fiber_size)))


class WitnessProbe(_Record):
    """Outcome of the witness search: a record, or the reasons there is none."""

    __slots__ = ("record",  # a WitnessRecord or None
                 "failures", "stage_reports")

    @property
    def found(self) -> bool:
        return self.record is not None


def _describe_group(w: Group) -> str:
    if _is_cyclic(w):
        return f"C{w.order}"
    return f"of order {w.order}"


def _find(g: Group, ring: RingDescriptor, reports: tuple) -> WitnessProbe:
    """The witness step, shared by witness_nonstandard and classify: it
    reads one stage report per subgroup class, in class order, builds
    none, and keeps them as the probe's stage_reports."""
    primes = prime_factors(g.order)
    r = len(primes)
    failures = []
    if r < 2:
        failures.append(
            f"group order {g.order} has {r} prime divisor(s); need at least 2"
        )

    for rep in reports:
        if rep.subgroup.order == 1 or rep.passed:
            continue
        which = "indecomposability" if not rep.ic.ok else "retraction"
        failures.append(
            f"stage {rep.subgroup.name}: {which} fails for Weyl group "
            f"{_describe_group(rep.weyl)}"
        )

    if not ring.separably_closed:
        failures.append(
            f"fixed points of {ring.name} at the trivial subgroup are not "
            "separably closed"
        )

    for p in primes:
        k = 1
        n = g.order
        while n % p == 0:
            k *= p
            n //= p
        if not ring.indecomposable_mod(k):
            failures.append(f"{ring.name} decomposes mod {k}")

    if failures:
        return WitnessProbe(None, tuple(failures), reports)
    # the per-prime indecomposability checked above makes each local
    # corner a two-fold unit power with automorphisms S_2
    top = subgroup_conjugacy_classes(g)[-1]
    return WitnessProbe(WitnessRecord(GSetType.from_counts(g, {top: 2}), primes),
                        (), reports)


def witness_nonstandard(g: Group, ring: RingDescriptor) -> WitnessProbe:
    """Search for the two-object non-standard witness.

    Needs at least two prime divisors, passing stage checks at every
    nontrivial subgroup, separably closed fixed points at the bottom, and
    per-prime indecomposability of the coefficients.  Returns the record,
    or the list of violated preconditions.  It does not read
    ring.burnside_unit, so over a non-solvable group it may find a
    witness where classify answers UnitDecomposes first (A5 with sphere).
    """
    return _find(g, ring, tuple(stage_report(cls, ring)
                                for cls in subgroup_conjugacy_classes(g)))
