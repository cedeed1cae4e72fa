"""Coefficient ring descriptors and the per-stage standardness checks.

A descriptor is plain data: the ring's name, its kind (sphere, integers
or prime field) and its characteristic.  The checks read it together
with the Weyl order |W(H)| of a stage, so one descriptor serves every
stage unchanged.  They decide whether the induction step applies: an
indecomposability check tied to the Weyl group order and a retraction
check tied to the primes of that order that the ring inverts.
"""

from ._record import _Record
from .burnside import is_indecomposable_mod, sphere_ic
from .group_core import Group, SubgroupClass, prime_factors, weyl_group


class RingDescriptor(_Record):
    """A coefficient ring the checks know: the sphere (kind "sphere"), the
    integers ("integers") or the prime field F_p ("prime_field"), with
    characteristic char, 0 but for F_p.  Its name is read off both.  Build
    one with sphere(), integers() or prime_field(p)."""

    __slots__ = ("kind", "char")

    @property
    def name(self) -> str:
        return {"sphere": "sphere", "integers": "Z"}.get(self.kind, f"F{self.char}")

    @property
    def separably_closed(self) -> bool:
        return self.kind != "prime_field"

    @property
    def burnside_unit(self) -> bool:
        return self.kind == "sphere"

    def indecomposable_mod(self, n: int) -> bool:
        """Whether the mod-n reduction stays indecomposable: over F_p it
        collapses to zero unless p divides n."""
        return n % self.char == 0 if self.char else is_indecomposable_mod(n)


def sphere() -> RingDescriptor:
    """The initial ring.  Retraction questions are settled on its integral
    shadow, so they delegate to the integers."""
    return RingDescriptor("sphere", 0)


def integers() -> RingDescriptor:
    return RingDescriptor("integers", 0)


# Miller-Rabin with the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015).  The
# first 12 bases are not enough: 318665857834031151167461 passes them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_field(p: int) -> RingDescriptor:
    if p >= _MR_EXACT_BELOW:
        raise ValueError(
            f"{p} is too large: primality is only decided below {_MR_EXACT_BELOW}"
        )
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return RingDescriptor("prime_field", p)


class CheckResult(_Record):
    __slots__ = ("ok", "rule", "convention")
    _defaults = {"convention": False}


def check_ic(ring: RingDescriptor, weyl_order: int) -> CheckResult:
    """Indecomposability at a stage whose Weyl group has this order."""
    if weyl_order == 1:
        return CheckResult(True, "trivial Weyl group, holds by convention",
                           convention=True)
    if ring.kind == "sphere":
        if sphere_ic(weyl_order):
            return CheckResult(True, f"Weyl group of order {weyl_order} is a "
                                     "nontrivial p-group")
        return CheckResult(False, f"Weyl group of order {weyl_order} is not a "
                                  "nontrivial p-group")
    if ring.indecomposable_mod(weyl_order):
        return CheckResult(True, f"{ring.name} stays indecomposable "
                                 f"mod {weyl_order}")
    return CheckResult(False, f"{ring.name} decomposes mod {weyl_order}")


def check_rc(ring: RingDescriptor, weyl_order: int) -> CheckResult:
    """Retraction obstruction at a stage whose Weyl group has this order."""
    if weyl_order == 1:
        return CheckResult(True, "trivial Weyl group, holds by convention",
                           convention=True)
    if ring.kind == "sphere":
        inner = check_rc(integers(), weyl_order)
        return CheckResult(inner.ok, f"delegated to Z: {inner.rule}")
    bad = [q for q in prime_factors(weyl_order) if ring.char not in (0, q)]
    if bad:
        return CheckResult(False, f"prime {bad[0]} divides {weyl_order} and is "
                                  f"invertible in {ring.name}")
    return CheckResult(True, f"no {weyl_order}-torsion and no prime divisor of "
                             f"{weyl_order} is invertible in {ring.name}")


class StageReport(_Record):
    """The verdict for one subgroup stage of the induction.

    The checks read only the Weyl order |W(H)|; the Weyl group itself is
    built when `weyl` is first read.
    """

    __slots__ = ("subgroup", "ic", "rc", "sep_closed")  # ic, rc: CheckResult

    @property
    def weyl_order(self) -> int:
        return self.subgroup.weyl_order

    @property
    def weyl(self) -> Group:
        return weyl_group(self.subgroup.parent, self.subgroup)

    @property
    def passed(self) -> bool:
        return self.ic.ok and self.rc.ok


def stage_report(cls: SubgroupClass, ring: RingDescriptor) -> StageReport:
    """Run both checks at one subgroup stage."""
    return StageReport(
        subgroup=cls,
        ic=check_ic(ring, cls.weyl_order),
        rc=check_rc(ring, cls.weyl_order),
        sep_closed=ring.separably_closed,
    )
