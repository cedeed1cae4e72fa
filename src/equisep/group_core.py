"""Finite permutation groups: construction from spec strings, subgroup
classification up to conjugacy, Weyl groups, double cosets, and structural
flags (p-group, solvable, perfect subgroups).

A permutation on points 0..degree-1 is a tuple of images; composition
applies the right factor first, so (a*b)(x) = a[b[x]].  Groups are
immutable and compare by their element sets, which lets subgroups of a
common parent be used as dictionary keys.
"""

from __future__ import annotations

import os
import re
import string
from dataclasses import dataclass
from functools import lru_cache, partial
from math import factorial

Perm = tuple

DEFAULT_MAX_ORDER = 2000
MAX_ORDER_ENV = "EQUISEP_MAX_ORDER"


class GroupSpecError(ValueError):
    """Malformed group specification string."""


class ResourceLimitError(RuntimeError):
    """A construction exceeds the configured order bound."""


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Compose permutations, applying b first: (a*b)(x) = a[b[x]]."""
    return tuple(map(a.__getitem__, b))


def pinv(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def pconj(g: Perm, h: Perm) -> Perm:
    """Conjugate h by g, returning g h g^-1."""
    return pmul(pmul(g, h), pinv(g))


def perm_order(a: Perm) -> int:
    e = identity_perm(len(a))
    n, x = 1, a
    while x != e:
        x = pmul(a, x)
        n += 1
    return n


def closure(generators, degree: int, max_size: int | None = None) -> frozenset:
    """Multiplicative closure of the generators, as a frozenset of perms."""
    e = identity_perm(degree)
    els = {e}
    frontier = [e]
    gens = [tuple(g) for g in generators]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pmul(g, x)
                if y not in els:
                    els.add(y)
                    new.append(y)
                    if max_size is not None and len(els) > max_size:
                        raise ResourceLimitError(
                            f"group order exceeds the bound {max_size}"
                        )
        frontier = new
    return frozenset(els)


def orbit_of(seed, maps) -> set:
    """Everything reachable from seed by applying the maps repeatedly."""
    out = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for f in maps:
            y = f(x)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def reduce_generators(elements, degree: int):
    """Greedily pick a small generating set for a known element set."""
    target = frozenset(elements)
    gens: list[Perm] = []
    have = {identity_perm(degree)}
    for x in sorted(target):
        if x not in have:
            gens.append(x)
            have = closure(gens, degree)
            if have == target:
                break
    assert have == target or target == {identity_perm(degree)}
    return tuple(gens)


class Group:
    """An immutable permutation group on points 0..degree-1."""

    __slots__ = ("degree", "generators", "elements", "order", "_hash", "_sorted")

    def __init__(self, degree, generators, elements=None, max_order=None):
        generators = tuple(dict.fromkeys(tuple(g) for g in generators))
        ident = identity_perm(degree)
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g!r}")
        if elements is None:
            elements = closure(generators, degree, max_size=max_order)
        self.degree = degree
        self.generators = generators
        self.elements = frozenset(elements)
        self.order = len(self.elements)
        assert ident in self.elements
        self._hash = hash((degree, self.elements))
        self._sorted = None

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def sorted_elements(self):
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements))
        return self._sorted

    def __contains__(self, g):
        return g in self.elements

    def __iter__(self):
        return iter(self.sorted_elements())

    def __len__(self):
        return self.order

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Group(order={self.order}, degree={self.degree})"

    def subgroup(self, elements) -> "Group":
        """The subgroup with the given elements, sharing this degree."""
        els = frozenset(elements)
        assert els <= self.elements
        return Group(self.degree, reduce_generators(els, self.degree), els)

    def is_subgroup_of(self, other: "Group") -> bool:
        return self.degree == other.degree and self.elements <= other.elements


def trivial_group(degree: int = 1) -> Group:
    return Group(degree, ())


def cyclic_group(n: int) -> Group:
    if n < 1:
        raise GroupSpecError(f"cyclic group needs n >= 1, got {n}")
    if n == 1:
        return trivial_group()
    rot = tuple((i + 1) % n for i in range(n))
    return Group(n, (rot,))


def symmetric_group(n: int) -> Group:
    if n < 0:
        raise GroupSpecError(f"symmetric group needs n >= 0, got {n}")
    if n == 0:
        return Group(0, ())
    gens = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append(tuple(t))
    return Group(n, gens)


def alternating_group(n: int) -> Group:
    if n < 1:
        raise GroupSpecError(f"alternating group needs n >= 1, got {n}")
    gens = []
    for i in range(n - 2):
        c = list(range(n))
        c[i], c[i + 1], c[i + 2] = c[i + 1], c[i + 2], c[i]
        gens.append(tuple(c))
    return Group(n, gens)


def dihedral_group(n: int) -> Group:
    # Faithful on the n-gon only for n >= 3; smaller cases are handled
    # by make_group through aliases.
    if n < 3:
        raise GroupSpecError(f"dihedral group needs n >= 3, got {n}")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return Group(n, (rot, ref))


def quaternion_group() -> Group:
    # Regular action of Q8 on its 8 elements.
    a = (1, 2, 3, 0, 5, 6, 7, 4)
    b = (4, 7, 6, 5, 2, 1, 0, 3)
    g = Group(8, (a, b))
    assert g.order == 8
    return g


def direct_product(a: Group, b: Group) -> Group:
    """Product group acting on the disjoint union of the two point sets."""
    da, db = a.degree, b.degree
    idb = identity_perm(db)
    ida = identity_perm(da)
    gens = [g + tuple(x + da for x in idb) for g in a.generators]
    gens += [ida + tuple(x + da for x in b.generators[i]) for i in range(len(b.generators))]
    els = frozenset(
        ga + tuple(x + da for x in gb) for ga in a.elements for gb in b.elements
    )
    return Group(da + db, gens, els)


_ATOM_RE = re.compile(r"^([CDSA])([0-9]+)$")
_MAX_FACTORIAL_DEGREE = 1000
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _spec_int(digits: str, what: str) -> int:
    """A decimal spec field; a GroupSpecError when int() cannot read it
    (non-ASCII digits, or more digits than the interpreter converts)."""
    try:
        return int(digits)
    except ValueError:
        raise GroupSpecError(
            f"cannot read {what} {digits[:20]!r} of length {len(digits)}"
        ) from None


def _named_atom(token: str):
    """Parse one named-family token into (order, builder), building nothing."""
    if token == "Q8":
        return 8, quaternion_group
    m = _ATOM_RE.match(token)
    if not m:
        raise GroupSpecError(f"unrecognized group token {token!r}")
    kind, n = m.group(1), _spec_int(m.group(2), "group size")
    if n < 1:
        raise GroupSpecError(f"{kind}<n> needs n >= 1")
    if kind == "C":
        return n, lambda: cyclic_group(n)
    if kind == "D":
        if n == 1:
            return 2, lambda: cyclic_group(2)
        if n == 2:
            return 4, lambda: direct_product(cyclic_group(2), cyclic_group(2))
        return 2 * n, lambda: dihedral_group(n)
    if n > _MAX_FACTORIAL_DEGREE:
        # n! is too long to compute or print and beyond any buildable order.
        raise ResourceLimitError(f"group {token} exceeds every order bound")
    if kind == "S":
        return factorial(n), lambda: symmetric_group(n)
    return max(1, factorial(n) // 2), lambda: alternating_group(n)


def _parse_cycles(text: str, degree: int) -> Perm:
    text = text.strip()
    if not text:
        raise GroupSpecError("empty generator in perm spec")
    covered = _CYCLE_RE.sub("", text).strip()
    if covered:
        raise GroupSpecError(f"stray characters in cycles: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        pts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        cyc = []
        for p in pts:
            if not p.isdigit():
                raise GroupSpecError(f"bad point {p!r} in cycle")
            k = _spec_int(p, "point")
            if not 1 <= k <= degree:
                raise GroupSpecError(f"point {k} outside 1..{degree}")
            if k - 1 in seen:
                raise GroupSpecError(f"point {k} repeated in generator")
            seen.add(k - 1)
            cyc.append(k - 1)
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def resolve_max_order(max_order: int | None = None) -> int:
    if max_order is not None:
        return max_order
    env = os.environ.get(MAX_ORDER_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise GroupSpecError(f"bad {MAX_ORDER_ENV} value {env!r}") from exc
    return DEFAULT_MAX_ORDER


def make_group(spec: str, max_order: int | None = None) -> Group:
    """Build a group from a spec string.

    Grammar: C<n>, D<n> (order 2n), S<n>, A<n>, Q8, products of those
    joined with "x", or "perm:<degree>:<gen>;<gen>..." with generators in
    cycle notation on 1-based points, e.g. "perm:5:(1 2 3)(4 5);(1 2)".
    """
    bound = resolve_max_order(max_order)
    spec = spec.strip()
    if not spec:
        raise GroupSpecError("empty group spec")
    if spec.startswith("perm:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise GroupSpecError("perm spec needs the form perm:<degree>:<gens>")
        if not parts[1].isdigit():
            raise GroupSpecError(f"bad degree {parts[1]!r}")
        degree = _spec_int(parts[1], "degree")
        if degree < 1:
            raise GroupSpecError("perm spec needs degree >= 1")
        if degree > bound:
            # checked before any degree-length permutation is allocated
            raise ResourceLimitError(f"perm degree {degree} exceeds the bound {bound}")
        gens = [
            _parse_cycles(chunk, degree)
            for chunk in parts[2].split(";")
            if chunk.strip()
        ]
        els = closure(gens, degree, max_size=bound)
        return Group(degree, gens, els)
    builders = []
    expected = 1
    for token in spec.split("x"):
        order, build = _named_atom(token.strip())
        expected *= order
        if expected > bound:
            raise ResourceLimitError(
                f"group of order {expected} exceeds the bound {bound}"
            )
        builders.append(build)
    group = builders[0]()
    for build in builders[1:]:
        group = direct_product(group, build())
    assert group.order == expected
    return group


def encode_subgroup(elements) -> bytes:
    """Deterministic byte encoding of a subgroup's sorted element list."""
    return b"|".join(
        ",".join(str(i) for i in p).encode("ascii") for p in sorted(elements)
    )


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups, with its canonical representative."""

    parent: Group
    representative: Group
    class_size: int
    canonical_key: bytes
    name: str

    @property
    def order(self) -> int:
        return self.representative.order

    @property
    def weyl_order(self) -> int:
        """|W(H)| = |N(H)/H|, where the class size is the index |G : N(H)|."""
        return self.parent.order // (self.order * self.class_size)

    def __hash__(self):
        # Equal classes share their key, so this agrees with __eq__ and
        # avoids rehashing the parent group and representative.
        return hash(self.canonical_key)

    def __repr__(self):
        return f"SubgroupClass({self.name}, size={self.class_size})"


def _cyclic_subgroups(g: Group):
    """All cyclic subgroups, as a dict element-set -> one generator."""
    out: dict[frozenset, Perm] = {frozenset({g.identity}): g.identity}
    for x in g.sorted_elements():
        key = frozenset(orbit_of(x, [partial(pmul, x)]))
        if key not in out:
            out[key] = x
    return out


@lru_cache(maxsize=None)
def _all_subgroups(g: Group):
    """Every subgroup of g as a frozenset of elements.

    Layered generator extension: close each known subgroup against each
    cyclic subgroup until nothing new appears.  Every subgroup is generated
    by cyclic ones, so this is exhaustive.
    """
    cyc = _cyclic_subgroups(g)
    subs: dict[frozenset, tuple] = {frozenset({g.identity}): ()}
    for key, gen in cyc.items():
        if key not in subs:
            subs[key] = (gen,)
    union_cache: dict[frozenset, frozenset] = {}
    frontier = list(subs)
    while frontier:
        fresh = []
        for skey in frontier:
            sgens = subs[skey]
            for ckey, cgen in cyc.items():
                if ckey <= skey:
                    continue
                ukey = skey | ckey
                tkey = union_cache.get(ukey)
                if tkey is None:
                    tkey = closure(sgens + (cgen,), g.degree)
                    union_cache[ukey] = tkey
                if tkey not in subs:
                    subs[tkey] = sgens + (cgen,)
                    fresh.append(tkey)
        frontier = fresh
    return tuple(sorted(subs, key=encode_subgroup))


@lru_cache(maxsize=None)
def _subgroup_classes(g: Group):
    """The conjugacy classes of subgroups, a subgroup -> class position
    index, and the containment counts c[H][K] (see containment_counts).

    Walks the conjugation orbit of every subgroup once; the members of a
    class are its orbit, which is all that counting containment needs.
    """
    all_subs = set(_all_subgroups(g))
    conjugators = [
        lambda sub, t=t: frozenset(pconj(t, h) for h in sub) for t in g.generators
    ]
    classed: set[frozenset] = set()
    raw = []
    # Subgroups come in canonical-key order, so the first one met in each
    # orbit is that orbit's canonical representative.
    for sub in _all_subgroups(g):
        if sub not in classed:
            orbit = orbit_of(sub, conjugators)
            assert orbit <= all_subs
            classed |= orbit
            raw.append((sub, orbit))
    raw.sort(key=lambda item: (len(item[0]), encode_subgroup(item[0])))
    classes = []
    index: dict[frozenset, int] = {}
    per_order: dict[int, int] = {}
    for pos, (rep, orbit) in enumerate(raw):
        idx = per_order.get(len(rep), 0)
        per_order[len(rep)] = idx + 1
        suffix = string.ascii_lowercase[idx] if idx < 26 else f"_{idx}"
        cls = SubgroupClass(
            parent=g,
            representative=g.subgroup(rep),
            class_size=len(orbit),
            canonical_key=encode_subgroup(rep),
            name=f"{len(rep)}{suffix}",
        )
        classes.append(cls)
        index.update(dict.fromkeys(orbit, pos))
    contains = tuple(
        tuple(sum(k <= h for h in orbit) for k, _ in raw) for _, orbit in raw
    )
    return tuple(classes), index, contains


def subgroup_conjugacy_classes(g: Group) -> tuple:
    """Conjugacy classes of subgroups, sorted by (order, canonical key).

    Names follow the order-plus-letter convention: 1a, 2a, 2b, ...
    """
    return _subgroup_classes(g)[0]


def class_of_subgroup(g: Group, elements: frozenset) -> SubgroupClass:
    """The conjugacy class containing the given subgroup of g."""
    classes, index, _ = _subgroup_classes(g)
    pos = index.get(frozenset(elements))
    if pos is None:
        raise ValueError("not a subgroup of g")
    return classes[pos]


def containment_counts(g: Group) -> tuple:
    """c[H][K], the number of conjugates of H that contain the
    representative of K, over the classes in subgroup_conjugacy_classes
    order.  Marks are m(H, K) = |W(H)| * c[H][K]; K is subconjugate to H
    exactly when c[H][K] > 0."""
    return _subgroup_classes(g)[2]


def is_subconjugate(g: Group, below: SubgroupClass, above: SubgroupClass) -> bool:
    """True when some conjugate of `below` sits inside `above`, that is,
    when c[above][below], the number of conjugates of `above` containing
    `below`'s representative, is positive; the mark is |W(above)| times it."""
    _, index, contains = _subgroup_classes(g)
    row = index[above.representative.elements]
    return contains[row][index[below.representative.elements]] > 0


@lru_cache(maxsize=None)
def normalizer(g: Group, sub: Group) -> Group:
    """N_g(sub) as a subgroup of g."""
    gens = sub.generators
    els = frozenset(
        x
        for x in g.elements
        if all(pconj(x, h) in sub.elements for h in gens)
    )
    return g.subgroup(els)


def left_cosets(g: Group, h: Group):
    """The left cosets xH of a subgroup h of g.

    Returns (reps, coset_of): reps lists the least element of each coset,
    in increasing order, and coset_of maps every element of g to the index
    of its coset in reps.
    """
    reps = []
    coset_of: dict[Perm, int] = {}
    for x in g.sorted_elements():
        if x not in coset_of:
            for k in h.elements:
                coset_of[pmul(x, k)] = len(reps)
            reps.append(x)
    assert len(reps) * h.order == g.order
    return tuple(reps), coset_of


@lru_cache(maxsize=None)
def weyl_group_with_section(g: Group, cls: SubgroupClass):
    """The Weyl group N_g(H)/H acting on cosets, with a coset-rep section.

    Returns (W, section) where W permutes the left cosets of H inside its
    normalizer and section maps each element of W to one representative in
    the normalizer inducing it.
    """
    h = cls.representative
    n = normalizer(g, h)
    reps, coset_of = left_cosets(n, h)
    m = len(reps)
    section: dict[Perm, Perm] = {}
    for x in n.sorted_elements():
        section.setdefault(tuple(coset_of[pmul(x, r)] for r in reps), x)
    assert len(section) == m
    perms = frozenset(section)
    return Group(m, reduce_generators(perms, m), perms), section


def weyl_group(g: Group, cls: SubgroupClass) -> Group:
    """N_g(H)/H as a permutation group on the cosets of H in N_g(H)."""
    return weyl_group_with_section(g, cls)[0]


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    """The partition of a group into H-g-K double cosets."""

    group: Group
    left: Group
    right: Group
    representatives: tuple
    sizes: tuple

    def __len__(self):
        return len(self.representatives)


def double_cosets(g: Group, h: Group, k: Group) -> DoubleCosetDecomposition:
    """Decompose g into double cosets HxK, sorted by minimal representative."""
    if not (h.is_subgroup_of(g) and k.is_subgroup_of(g)):
        raise ValueError("double_cosets needs subgroups of g")
    moves = [lambda y, a=a: pmul(a, y) for a in h.generators]
    moves += [lambda y, b=b: pmul(y, b) for b in k.generators]
    seen: set[Perm] = set()
    reps, sizes = [], []
    for x in g.sorted_elements():
        if x not in seen:
            orbit = orbit_of(x, moves)
            seen |= orbit
            reps.append(x)
            sizes.append(len(orbit))
    assert sum(sizes) == g.order
    return DoubleCosetDecomposition(g, h, k, tuple(reps), tuple(sizes))


def prime_factors(n: int) -> tuple:
    """Sorted distinct prime divisors of n >= 1."""
    assert n >= 1
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def commutator_closure(elements, degree: int) -> frozenset:
    """The subgroup generated by all commutators of the given elements."""
    els = tuple(elements)
    gens = set()
    for a in els:
        ia = pinv(a)
        for b in els:
            c = pmul(pmul(a, b), pmul(ia, pinv(b)))
            gens.add(c)
    return closure(gens, degree)


@dataclass(frozen=True)
class GroupFlags:
    is_trivial: bool
    is_p_group: bool
    p_prime: int | None
    is_solvable: bool
    prime_divisors: frozenset


@lru_cache(maxsize=None)
def group_flags(g: Group) -> GroupFlags:
    """Structural flags: triviality, p-group, solvability, prime divisors."""
    primes = prime_factors(g.order)
    is_p = len(primes) == 1
    cur = g.elements
    while True:
        nxt = commutator_closure(cur, g.degree)
        if nxt == cur:
            break
        cur = nxt
    solvable = len(cur) == 1
    return GroupFlags(
        is_trivial=g.order == 1,
        is_p_group=is_p,
        p_prime=primes[0] if is_p else None,
        is_solvable=solvable,
        prime_divisors=frozenset(primes),
    )


def perfect_subgroup_classes(g: Group) -> tuple:
    """Classes whose representative equals its own commutator subgroup."""
    out = []
    for cls in subgroup_conjugacy_classes(g):
        rep = cls.representative
        if commutator_closure(rep.elements, g.degree) == rep.elements:
            out.append(cls)
    return tuple(out)
