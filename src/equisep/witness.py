"""The explicit non-standard witness, counted by double cosets.

The witness lives over the two-object set 2*[G/G]: splitting the ambient
category at each of the r prime divisors turns its automorphisms into the
power (S_2)^r of the symmetric group on two letters, and both comparison
maps become the diagonal D.  The comparison fiber is pi_0 of the pullback
of that diagonal leg against itself, which is the set of double cosets
D\\(S_2)^r/D; they are counted directly, and there are 2^(r-1) of them
instead of one.

The search is one step, `_find`, that reads a stage report for every
subgroup class and builds none.  `witness_nonstandard` builds those
reports itself and calls it; `classify` hands it the reports it built
for its own verdict, so a failing classification builds each report once.
"""

from __future__ import annotations

from ._record import _Record
from .conditions import RingDescriptor, stage_report
from .group_core import (
    Group,
    direct_product,
    double_cosets,
    group_flags,
    perm_order,
    pmul,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from .groupoid_calc import GSetType


MODELING_NOTE = (
    "per-prime unit indecomposability is checked through the descriptor's "
    "prime-power modulus data; the fiber count itself is certified by "
    "explicit double-coset enumeration"
)


class WitnessRecord(_Record):
    """An explicit two-object comparison square whose fiber is too big.

    eta records one automorphism tuple per prime divisor; the certificate
    lists every double-coset orbit, and eta's orbit differs from the
    identity's.
    """

    __slots__ = ("x1", "x2", "primes",  # x1 and x2 are GSetTypes
                 "eta",  # one of "id" / "swap" per prime
                 "fiber_size",
                 "double_coset_certificate",  # orbits, tuples of rendered tuples
                 "note")
    _defaults = {"note": MODELING_NOTE}

    @property
    def eta_text(self) -> str:
        return "(" + ",".join(self.eta) + ")"

    def to_json(self):
        return {
            "x1": self.x1.label(),
            "x2": self.x2.label(),
            "eta": self.eta_text,
            "fiber_size": self.fiber_size,
            "certificate": [list(orbit) for orbit in self.double_coset_certificate],
            "primes": list(self.primes),
            "note": self.note,
        }


class WitnessProbe(_Record):
    """Outcome of the witness search: a record, or the reasons there is none."""

    __slots__ = ("record",  # a WitnessRecord or None
                 "failures", "stage_reports")

    @property
    def found(self) -> bool:
        return self.record is not None


def _describe_group(w: Group) -> str:
    if any(perm_order(x) == w.order for x in w.elements):
        return f"C{w.order}"
    return f"of order {w.order}"


def _render_blocks(eta, r: int) -> str:
    parts = ["id" if eta[2 * i] == 2 * i else "swap" for i in range(r)]
    return "(" + ",".join(parts) + ")"


def _build_witness(g: Group, primes) -> WitnessRecord:
    r = len(primes)
    x1 = GSetType.from_counts(g, {subgroup_conjugacy_classes(g)[-1]: 2})
    # the per-prime indecomposability precondition was checked by the
    # caller, so each local corner is a two-fold unit power with
    # automorphisms S_2, and both comparison legs are the diagonal
    s2 = symmetric_group(2)
    power = s2
    for _ in range(r - 1):
        power = direct_product(power, s2)
    ident = power.identity
    all_swap = tuple(2 * (i // 2) + (1 - i % 2) for i in range(2 * r))
    diag = (ident, all_swap)
    diagonal = power.subgroup(diag)
    dec = double_cosets(power, diagonal, diagonal)

    orbits = []
    rep_of: dict = {}
    for rep in dec.representatives:
        members = sorted({pmul(pmul(u, rep), v) for u in diag for v in diag})
        orbits.append(tuple(_render_blocks(m, r) for m in members))
        for m in members:
            rep_of[m] = rep
    eta_perm = tuple(range(2 * r - 2)) + (2 * r - 1, 2 * r - 2)
    assert rep_of[eta_perm] != rep_of[ident], "witness class collapsed"

    return WitnessRecord(
        x1=x1,
        x2=x1,
        primes=tuple(primes),
        eta=("id",) * (r - 1) + ("swap",),
        fiber_size=len(dec),
        double_coset_certificate=tuple(sorted(orbits)),
    )


def _find(g: Group, ring: RingDescriptor, reports: tuple) -> WitnessProbe:
    """The witness step, shared by witness_nonstandard and classify: it
    reads one stage report per subgroup class, in class order, builds
    none, and keeps them as the probe's stage_reports."""
    primes = sorted(group_flags(g).prime_divisors)
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
    return WitnessProbe(_build_witness(g, primes), (), reports)


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
