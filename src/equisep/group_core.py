"""Finite permutation groups: construction from spec strings, subgroup
classification up to conjugacy, Weyl groups, double cosets, and structural
flags (p-group, solvable, perfect subgroups).

A permutation on points 0..degree-1 is a tuple of images; composition
applies the right factor first, so (a*b)(x) = a[b[x]].  Groups are
immutable and compare by their element sets, which lets subgroups of a
common parent be used as dictionary keys.  A group's elements are always
the closure of its generators: `Group` takes that closure, and the
builders that already hold it (subgroups, direct products, perm specs
closed under the order bound, Weyl groups and gset's automorphism
groups) pass it to `_group`, which does not close again.

Inside this module a group's elements are also numbered 0..n-1 in
`sorted_elements()` order (`_Table`), so the identity is 0 and index order
is the order everything here sorts by.  The table holds the perm -> index
map, inverses, and left-multiplication rows row(a)[x] = index(a*x).  An
action of the group is held as its generators' images, and the image of
another element is composed on first read (`_Table.compose`); the rows
are the regular action.  A subgroup is then a frozenset of indices, the
one form the lattice search finds it in and the lattice keeps, so K <= H
is a set test.  A join walks the generators' rows one left coset at a
time (`_Table.join`); `_Table.span` joins candidates in greedily, which
picks a subgroup's generators and spans commutator subgroups and
stabilizers (`_normalizer` is a scan of its own).  The table is also the
one home of what is derived from the group: its sorted elements, its
lattice and its flags are fields of the table, so they are computed
once per group and freed with it; a Group itself holds only its degree,
generators and elements.  The lattice keeps no k x k table: the marks
are counted from its subconjugacy masks on each request.  Nor does it
keep Weyl groups: `weyl_group` spans N(H) on each call, and whether one
is cyclic is read off its generators (`_is_cyclic`).

There is one orbit walk, `orbit_of`, which returns its breadth-first tree
(each point with the map and the point it was first reached from).
Closures, orbits, powers, conjugacy orbits, the spanning words that
`compose` follows and the transversals of G-sets all read it.

The lattice (`_all_subgroups`) is found by Neubueser's cyclic extension,
one subgroup per conjugacy class.  If M is a maximal subgroup of K, then
K = <M, c> for any c in K outside M, and c can be taken of prime-power
order, because K is generated by its prime-power elements.  When
M = xHx^-1 for the class representative H, x^-1 K x = <H, x^-1 c x>.
And for n in N(H), <H, ncn^-1> = n<H, c>n^-1 lies in the class of
<H, c>.  So extending each representative by one prime-power cyclic
subgroup per N(H)-conjugation orbit of those it does not contain, and
adding the whole conjugation orbit of each new subgroup, reaches every
subgroup, by induction on the order; the span of N(H) stops at
|G| / |orbit of H| elements.  Once K = <H, c> has prime index over H,
every cyclic subgroup inside K but not inside H gives K again, and each
member of its N(H)-orbit a conjugate of K, so those orbits are skipped
without losing a class.  The search returns its conjugation orbits, each
with the orbits it was extended from; the classes and their
subconjugacy masks are built from them in one pass.  The public API
keeps perm tuples and frozensets.
"""

import sys
from itertools import combinations, filterfalse
from math import factorial, gcd, lcm

from ._record import _Record

Perm = tuple

# Most elements, and most points, of any group a spec names.
MAX_ORDER = 2000
# Most subgroups _all_subgroups finds before refusing the lattice: groups
# within the order bound can have hundreds of millions (C2 to the 10th).
SUBGROUP_BOUND = 10_000
# Most cells of the k x k containment-count table _Lattice.counts builds:
# C2 to the 6th (2,825 classes, 7,980,625 cells) fits in 1 GiB of address
# space, C2 to the 5th x C4 (5,276 classes, 27,836,176 cells) does not.
COUNT_CELL_BOUND = 10_000_000


class GroupSpecError(ValueError):
    """Malformed group specification string."""


class ResourceLimitError(RuntimeError):
    """A construction exceeds a resource bound."""


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
    """The order of a, the size of its powers' orbit."""
    return len(orbit_of(a, [lambda x, f=a.__getitem__: tuple(map(f, x))]))


def closure(generators, degree: int, max_size: int | None = None) -> frozenset:
    """Multiplicative closure of the generators, as a frozenset of perms:
    the orbit of the identity under left multiplication by each."""
    # pmul(g, x) inlined, one call per product
    maps = [lambda x, f=tuple(g).__getitem__: tuple(map(f, x)) for g in generators]
    tree = orbit_of(identity_perm(degree), maps, max_size)
    if max_size is not None and len(tree) > max_size:
        raise ResourceLimitError(f"group order exceeds the bound {max_size} "
                                 "(layer group_core.closure)")
    return frozenset(tree)


def orbit_of(seed, maps, limit: int | None = None) -> dict:
    """Everything reachable from seed by applying the maps repeatedly, as
    a breadth-first tree in the order it was walked: each point maps to
    how it was first reached, (map number, predecessor), and the seed to
    None.  With a limit, the walk stops once it holds more points."""
    tree = {seed: None}
    frontier = [seed]
    numbered = list(enumerate(maps))
    for x in frontier:
        for i, f in numbered:
            y = f(x)
            if y not in tree:
                tree[y] = (i, x)
                frontier.append(y)
        if limit is not None and len(tree) > limit:
            break
    return tree


def _orbits(size: int, maps) -> list:
    """The orbits of the maps on points 0..size-1, as sorted tuples in
    order of their least points."""
    seen, out = set(), []
    for p in range(size):
        if p not in seen:
            orbit = orbit_of(p, maps)
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return out


class Group:
    """An immutable permutation group on points 0..degree-1."""

    __slots__ = ("degree", "generators", "elements", "order", "_table",
                 "__weakref__")

    def __init__(self, degree, generators):
        generators = tuple(dict.fromkeys(tuple(g) for g in generators))
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g!r}")
        self._set(degree, generators, closure(generators, degree))

    def _set(self, degree, generators, elements):
        self.degree = degree
        self.generators = generators
        self.elements = frozenset(elements)
        self.order = len(self.elements)
        self._table = None

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def sorted_elements(self):
        return _table(self).perms

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        # the frozenset keeps its own hash once computed
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"Group(order={self.order}, degree={self.degree})"

    def subgroup(self, elements) -> "Group":
        """The subgroup with the given elements, sharing this degree."""
        els = frozenset(elements)
        if not els <= self.elements:
            raise ValueError("subgroup elements must lie in the group")
        t = _table(self)
        # generators picked greedily in index order
        gens, have = t.span(sorted(t.indices(els)), [], [0])
        if len(have) != len(els):
            raise ValueError("subgroup elements do not form a group")
        return _group(self.degree, [t.perms[x] for x in gens], els)

    def is_subgroup_of(self, other: "Group") -> bool:
        return self.degree == other.degree and self.elements <= other.elements


def _group(degree: int, generators, elements) -> Group:
    """The group on these generators whose elements, their closure, the
    caller already holds, built without closing them again."""
    g = object.__new__(Group)
    g._set(degree, tuple(dict.fromkeys(generators)), elements)
    return g


class _Table:
    """One group's elements numbered 0..n-1 in sorted order, so the
    identity is 0, with the perm -> index map, inverses and the
    left-multiplication rows row(a)[x] = index(a*x).  The group's _Lattice
    and GroupFlags are stored here on first use (None until then)."""

    __slots__ = ("perms", "index", "inverse", "gens", "_rows", "_words",
                 "lattice", "flags")

    def __init__(self, g: Group):
        self.perms = tuple(sorted(g.elements))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.inverse = [self.index[pinv(p)] for p in self.perms]
        self.gens = tuple(self.index[s] for s in g.generators)
        self._rows = [None] * len(self.perms)
        self._words = None
        self.lattice = None
        self.flags = None

    def indices(self, perms) -> list:
        return [self.index[p] for p in perms]

    def row(self, a: int) -> tuple:
        """row(a)[x] = index(a*x), composed on first use."""
        return self._rows[a] or self.compose(self._rows, a)

    def compose(self, images: list, a: int) -> tuple:
        """images[a], where images lists an action's point permutations
        over the numbering, the identity's and the generators' given: a
        missing one is composed along the spanning words as
        image(s*x) = image(s) o image(x), keeping those made on the way."""
        if self._words is None:
            self._words = self._spanning_words()
        words, chain = self._words, []
        while images[a] is None:
            chain.append(a)
            a = words[a][1]
        for a in reversed(chain):
            i, b = words[a]
            image = images[self.gens[i]]
            images[a] = tuple([image[x] for x in images[b]])
        return images[a]

    def _spanning_words(self) -> dict:
        """words[y] = (i, x) with y = s*x for the i-th generator s: the
        orbit_of tree of the identity under the generators' rows, which
        this fills."""
        perms, index, rows = self.perms, self.index, self._rows
        rows[0] = tuple(range(len(perms)))
        for s in self.gens:
            p = perms[s]
            rows[s] = tuple([index[pmul(p, x)] for x in perms])
        return orbit_of(0, [rows[s].__getitem__ for s in self.gens])

    def conj(self, t: int, y: int) -> int:
        """index(t y t^-1), read off row(t) alone."""
        r, inv = self.row(t), self.inverse
        return r[inv[r[inv[y]]]]

    def join(self, elems: list, gens, c: int) -> list:
        """The elements of <H, c>, where elems lists H = <gens> with the
        identity first, followed by the new ones: left cosets of H are
        added while a generator moves a coset representative outside what
        is known."""
        out = list(elems)
        seen = set(out)
        rows = [self.row(s) for s in gens] + [self.row(c)]
        cosets = [elems]
        for coset in cosets:
            for row in rows:
                if row[coset[0]] not in seen:
                    new = [row[z] for z in coset]
                    seen.update(new)
                    out += new
                    cosets.append(new)
        return out

    def span(self, candidates, gens, elems: list) -> tuple:
        """Greedy joins onto H = <gens>, whose elements elems lists with
        the identity first: each candidate outside what is generated so far
        is joined in and becomes a generator.  Returns (gens, elems) of
        the subgroup generated."""
        gens, seen = list(gens), set(elems)
        for c in candidates:
            if c not in seen:
                elems = self.join(elems, gens, c)
                gens.append(c)
                seen = set(elems)
        return gens, elems


def _table(g: Group) -> _Table:
    if g._table is None:
        g._table = _Table(g)
    return g._table


def trivial_group() -> Group:
    return Group(1, ())


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
    return _group(da + db, gens, els)


_MAX_FACTORIAL_DEGREE = 1000


def _spec_int(digits: str, what: str) -> int:
    """A decimal field of the command line's input, ASCII digits only: a
    GroupSpecError for anything else (int() alone would also take other
    scripts' digits, signs, spaces and underscores) and for more digits
    than the interpreter converts."""
    if not (digits.isascii() and digits.isdigit()):
        raise GroupSpecError(f"bad {what} {digits[:20]!r}")
    try:
        return int(digits)
    except ValueError:
        raise GroupSpecError(
            f"cannot read {what} {digits[:20]!r} of length {len(digits)}"
        ) from None


def _named_atom(token: str):
    """Parse one named-family token into (order, degree, builder), building
    nothing."""
    if token == "Q8":
        return 8, 8, quaternion_group
    kind, digits = token[:1], token[1:]
    if kind not in ("C", "D", "S", "A") or not (digits.isascii() and digits.isdigit()):
        raise GroupSpecError(f"unrecognized group token {token!r}")
    n = _spec_int(digits, "group size")
    if n < 1:
        raise GroupSpecError(f"{kind}<n> needs n >= 1")
    if kind == "C":
        return n, n, lambda: cyclic_group(n)
    if kind == "D":
        if n == 1:
            return 2, 2, lambda: cyclic_group(2)
        if n == 2:
            return 4, 4, lambda: direct_product(cyclic_group(2), cyclic_group(2))
        return 2 * n, n, lambda: dihedral_group(n)
    if n > _MAX_FACTORIAL_DEGREE:
        # n! is too long to compute or print and beyond any buildable order.
        raise ResourceLimitError(f"group {token} exceeds every order bound "
                                 "(layer group_core.make_group)")
    if kind == "S":
        return factorial(n), n, lambda: symmetric_group(n)
    return max(1, factorial(n) // 2), n, lambda: alternating_group(n)


def _parse_cycles(text: str, degree: int) -> Perm:
    text = text.strip()
    # "(a b)(c, d) (e f)": each piece before a ")" is an opening "(" and
    # its points, after any white space; nothing follows the last ")".
    *cycles, rest = [c.lstrip() for c in text.split(")")]
    if rest or any(c[:1] != "(" or "(" in c[1:] for c in cycles):
        raise GroupSpecError(f"stray characters in cycles: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for c in cycles:
        cyc = []
        for p in c[1:].replace(",", " ").split():
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


def _decimal(n: int) -> str:
    """n in decimal, or a lower bound on it when it has more digits than
    the interpreter converts to a string."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and n >= 10**limit:
        return f"at least 10^{limit}"
    return str(n)


def make_group(spec: str) -> Group:
    """Build a group from a spec string.

    Grammar: C<n>, D<n> (order 2n), S<n>, A<n>, Q8, products of those
    joined with "x", or "perm:<degree>:<gen>;<gen>..." with generators in
    cycle notation on 1-based points, e.g. "perm:5:(1 2 3)(4 5);(1 2)".
    A group of order or degree over MAX_ORDER is refused before it is built.
    """
    spec = spec.strip()
    if not spec:
        raise GroupSpecError("empty group spec")
    if spec.startswith("perm:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise GroupSpecError("perm spec needs the form perm:<degree>:<gens>")
        degree = _spec_int(parts[1], "degree")
        if degree < 1:
            raise GroupSpecError("perm spec needs degree >= 1")
        if degree > MAX_ORDER:
            # checked before any degree-length permutation is allocated
            raise ResourceLimitError(f"perm degree {degree} exceeds the bound "
                                     f"{MAX_ORDER} (layer group_core.make_group)")
        gens = [
            _parse_cycles(chunk, degree)
            for chunk in parts[2].split(";")
            if chunk.strip()
        ]
        return _group(degree, gens, closure(gens, degree, max_size=MAX_ORDER))
    builders = []
    expected, degree = 1, 0
    for token in spec.split("x"):
        order, points, build = _named_atom(token.strip())
        expected *= order
        if expected > MAX_ORDER:
            raise ResourceLimitError(
                f"group of order {_decimal(expected)} exceeds the bound "
                f"{MAX_ORDER} (layer group_core.make_group)"
            )
        degree += points
        builders.append(build)
    # Trivial factors add points but no order, and each product step
    # copies every point of every element built so far.
    if degree > MAX_ORDER:
        raise ResourceLimitError(f"group degree {degree} exceeds the bound "
                                 f"{MAX_ORDER} (layer group_core.make_group)")
    group = builders[0]()
    for build in builders[1:]:
        group = direct_product(group, build())
    assert group.order == expected
    return group


class SubgroupClass(_Record):
    """A conjugacy class of subgroups, with its canonical representative."""

    # parent and representative are Groups
    __slots__ = ("parent", "representative", "class_size", "name")

    @property
    def order(self) -> int:
        return self.representative.order

    @property
    def weyl_order(self) -> int:
        """|W(H)| = |N(H)/H|, where the class size is the index |G : N(H)|."""
        return self.parent.order // (self.order * self.class_size)

    def __hash__(self):
        # Equal classes share their name, which agrees with __eq__; the
        # classes of one group have distinct names, so hashing the name
        # spreads them without rehashing the parent and representative.
        return hash(self.name)

    def __repr__(self):
        return f"SubgroupClass({self.name}, size={self.class_size})"


def _prime_power_cyclics(t: _Table):
    """The cyclic subgroups of prime-power order > 1, as a list of their
    least generating indices, and cyclic_of, which maps every index that
    generates one of them to its position in that list (-1 elsewhere)."""
    n = len(t.perms)
    cyclic_of, out = [-1] * n, []
    done = bytearray(n)
    for x in range(1, n):
        if done[x]:
            continue
        # the lattice search builds most of these rows for its joins anyway
        powers = list(orbit_of(0, [t.row(x).__getitem__]))
        m = len(powers)
        prime_power = len(prime_factors(m)) == 1
        for k in range(1, m):
            if gcd(k, m) == 1:
                done[powers[k]] = 1
                if prime_power:
                    cyclic_of[powers[k]] = len(out)
        if prime_power:
            out.append(x)
    return out, cyclic_of


def _normalizer(t: _Table, gens, elems: list, order: int) -> tuple:
    """(gens, elems) of N(H), where elems lists H = <gens>, identity first:
    a greedy span over the indices in order, which joins in each x that
    normalizes H and passes the left coset xH of each other x, stopping
    at order elements, |N(H)|.  An order of |G| makes it a full scan."""
    inside, passed, ngens = set(elems), set(elems), list(gens)
    for x in filterfalse(passed.__contains__, range(len(t.perms))):
        if len(elems) == order:
            break
        if all(t.conj(x, y) in inside for y in gens):
            elems = t.join(elems, ngens, x)
            ngens.append(x)
            passed.update(elems)
        else:
            passed.update(map(t.row(x).__getitem__, inside))
    return ngens, elems


def _all_subgroups(g: Group) -> list:
    """Every subgroup of g, as one (conjugates, lower) pair per
    conjugation orbit, in the order the orbits were found: conjugates
    lists the orbit's subgroups, each the frozenset of its element
    indices, and lower the number of the orbit of every subgroup H whose
    extension <H, c> lies in this orbit, whether or not it was new; a
    skipped extension lies in an orbit already listed.

    One subgroup H per orbit is extended by one prime-power cyclic
    subgroup from each N(H)-conjugation orbit of those it does not
    contain, skipping the orbits that meet a join of prime index over H;
    each new subgroup brings its whole orbit.  The module docstring gives
    the argument that this is exhaustive.  Each todo entry keeps the size
    of H's conjugation orbit: the cyclics' orbits are walked with the
    generators of N(H) that _normalizer spans up to |G| / size elements,
    or, once for every normal H (size 1), with g's generators.  It stops
    with a ResourceLimitError once it finds more than SUBGROUP_BOUND
    subgroups.
    """
    t = _table(g)
    n, inv = len(t.perms), t.inverse
    cyclics, cyclic_of = _prime_power_cyclics(t)

    def cyclic_orbits(movers) -> list:
        """The orbits of the cyclics' positions under conjugation."""
        return _orbits(len(cyclics), [
            [cyclic_of[r[inv[r[inv[c]]]]] for c in cyclics].__getitem__
            for r in map(t.row, movers)
        ])

    normal_orbits = cyclic_orbits(t.gens)
    conjugations = [[t.conj(s, x) for x in range(n)] for s in t.gens]
    conjugators = [
        lambda sub, m=m: frozenset(map(m.__getitem__, sub)) for m in conjugations
    ]
    found = {frozenset([0]): 0}
    todo = [((), [0], 1)]
    out = [([frozenset([0])], [])]
    for i, (gens, elems, size) in enumerate(todo):
        if size == 1:
            orbits = normal_orbits
        else:
            orbits = cyclic_orbits(_normalizer(t, gens, elems, n // size)[0])
        inside = set(elems)
        # the cyclics in a join of prime index over H, and -1, which
        # cyclic_of gives the elements of other orders and no orbit holds
        covered = set()
        for orbit in orbits:
            c = cyclics[orbit[0]]
            if c in inside or not covered.isdisjoint(orbit):
                continue
            k = t.join(elems, gens, c)
            index = len(k) // len(elems)
            if prime_factors(index) == (index,):
                covered.update(map(cyclic_of.__getitem__, k[len(elems):]))
            key = frozenset(k)
            if key not in found:
                conjugates = orbit_of(key, conjugators)
                found.update(dict.fromkeys(conjugates, len(todo)))
                if len(found) > SUBGROUP_BOUND:
                    raise ResourceLimitError(
                        f"subgroup lattice has at least {len(found)} "
                        f"subgroups, over the bound {SUBGROUP_BOUND} "
                        "(layer group_core._all_subgroups)"
                    )
                todo.append((gens + (c,), k, len(conjugates)))
                out.append((list(conjugates), []))
            out[found[key]][1].append(i)
    return out


class _Lattice:
    """A group's subgroup classes, in subgroup_conjugacy_classes order,
    with a subgroup -> class position index, a class -> position map, and
    per class its (representative, conjugates) and its subconjugacy mask
    below; no Weyl group is kept (weyl_group builds one on each call).  A
    subgroup is the frozenset of element indices _all_subgroups found.

    below[H] is a mask over class positions with bit K set when K is
    subconjugate to H, that is, when c[H][K] > 0; H's own bit is set.  It
    is the closure, taken in class order, of the classes the search
    extended into H's (lower, see _all_subgroups), and that closure is
    exact.  If M is maximal in K, then K = <M, c> for some c of
    prime-power order, and the search extends the representative H of
    M's class by a cyclic from each N(H)-orbit, one of which gives a
    conjugate of K; an orbit it skips gives the class of a join it made
    (see the module docstring).  So each class lists the classes of its
    maximal subgroups, all earlier in class order; no count is read."""

    __slots__ = ("classes", "index", "position", "orbits", "below")

    def __init__(self, classes, index, orbits, below):
        self.classes = classes
        self.index = index
        self.position = {c: i for i, c in enumerate(classes)}
        self.orbits = orbits
        self.below = below

    def counts(self) -> tuple:
        """The marks |W(H)| * c[H][K], a new table on every call, with
        c[H][K] the number of conjugates of H that contain the
        representative of K.  c[H][K] is nonzero exactly at the bits of
        below[H], so only those cells are counted, lowest bit first; the
        rest are 0.  Refuses, before counting, a table of more than
        COUNT_CELL_BOUND cells."""
        k = len(self.classes)
        if k * k > COUNT_CELL_BOUND:
            raise ResourceLimitError(
                f"containment-count table of {k} classes has {k * k} "
                f"cells, over the bound {COUNT_CELL_BOUND} "
                "(layer group_core._Lattice.counts)"
            )
        rows = []
        scales = (h.weyl_order for h in self.classes)
        for scale, (_, orbit), mask in zip(scales, self.orbits, self.below):
            row = [0] * k
            while mask:
                pos = (mask & -mask).bit_length() - 1
                row[pos] = scale * sum(map(self.orbits[pos][0].issubset, orbit))
                mask &= mask - 1
            rows.append(tuple(row))
        return tuple(rows)


def _class(g: Group, elements: list, size: int, name: str) -> SubgroupClass:
    """The subgroup class called name, with size conjugates, represented
    by the subgroup of g with the given sorted elements."""
    return SubgroupClass(g, g.subgroup(elements), size, name)


def _subgroup_classes(g: Group) -> _Lattice:
    """The conjugacy classes of subgroups, as a _Lattice, built on the
    first call and kept on g's table.

    Each class is one orbit of _all_subgroups.  The classes are sorted
    by order, then by their representatives' sorted elements compared
    as tuples of the elements' ranks, an element ranked by its images
    written as comma-joined decimals; the representative is the least
    member of its orbit under that key.  This is the class order.  The
    below masks are closed in class order as the classes are made.
    """
    t = _table(g)
    if t.lattice is not None:
        return t.lattice
    found = _all_subgroups(g)
    rank = [0] * len(t.perms)
    encoded = sorted(range(len(t.perms)), key=lambda x: ",".join(map(str, t.perms[x])))
    for r, x in enumerate(encoded):
        rank[x] = r

    def key(sub):
        return tuple(map(rank.__getitem__, sorted(sub)))

    raw = []
    for number, (orbit, lower) in enumerate(found):
        rep = min(orbit, key=key)
        raw.append((len(rep), key(rep), rep, orbit, lower, number))
    raw.sort(key=lambda item: item[:2])
    position = {item[5]: pos for pos, item in enumerate(raw)}
    classes, orbits, below, index = [], [], [], {}
    per_order: dict[int, int] = {}
    for pos, (order, _, rep, orbit, lower, _) in enumerate(raw):
        idx = per_order.get(order, 0)
        per_order[order] = idx + 1
        suffix = chr(ord("a") + idx) if idx < 26 else f"_{idx}"
        classes.append(_class(g, [t.perms[x] for x in sorted(rep)], len(orbit),
                              f"{order}{suffix}"))
        orbits.append((rep, orbit))
        index.update(dict.fromkeys(orbit, pos))
        mask = 1 << pos
        for i in lower:
            mask |= below[position[i]]
        below.append(mask)
    t.lattice = _Lattice(tuple(classes), index, orbits, tuple(below))
    return t.lattice


def subgroup_conjugacy_classes(g: Group) -> tuple:
    """Conjugacy classes of subgroups, in class order (_subgroup_classes).

    Names follow the order-plus-letter convention: 1a, 2a, 2b, ...
    """
    return _subgroup_classes(g).classes


def _position(g: Group, cls: SubgroupClass) -> int:
    """The position of cls in g's class order, or a ValueError when cls
    is a class of another group."""
    pos = _subgroup_classes(g).position.get(cls)
    if pos is None:
        raise ValueError(f"class {cls.name} is a subgroup class of another group")
    return pos


def class_of_subgroup(g: Group, elements: frozenset) -> SubgroupClass:
    """The conjugacy class containing the given subgroup of g."""
    lattice = _subgroup_classes(g)
    try:
        pos = lattice.index.get(frozenset(_table(g).indices(elements)))
    except KeyError:
        pos = None
    if pos is None:
        raise ValueError("not a subgroup of g")
    return lattice.classes[pos]


def _cosets(t: _Table, members, h: list):
    """The left cosets xH, over t's numbering, of the subgroup with index
    list h among the ascending indices members: (reps, coset_of), reps
    the least index of each coset and coset_of index -> coset number."""
    reps, coset_of = [], {}
    for x in members:
        if x not in coset_of:
            row = t.row(x)
            for k in h:
                coset_of[row[k]] = len(reps)
            reps.append(x)
    return reps, coset_of


def _normalizer_span(g: Group, cls: SubgroupClass) -> tuple:
    """(h, joined, members) for the representative H of cls: h lists H's
    element indices, identity first, joined the elements _normalizer's
    span joined onto H, in join order and none of them in H, and members
    N(H)'s element indices, H's first.  The span runs once, stopped at
    |N(H)|."""
    t = _table(g)
    h = cls.representative
    elems = sorted(t.indices(h.elements))
    hgens = t.indices(h.generators)
    ngens, members = _normalizer(t, hgens, elems, g.order // cls.class_size)
    return elems, ngens[len(hgens):], members


def weyl_group(g: Group, cls: SubgroupClass) -> Group:
    """N_g(H)/H as a permutation group on the left cosets of H in N_g(H),
    generated by the images of the elements _normalizer's span joined
    onto H.  Built on each call; no Weyl group is kept."""
    _position(g, cls)
    t = _table(g)
    h, joined, members = _normalizer_span(g, cls)
    reps, coset_of = _cosets(t, sorted(members), h)

    def image(x):
        # depends only on the coset xH, as every r normalizes H
        row = t.row(x)
        return tuple(coset_of[row[r]] for r in reps)

    return _group(len(reps), map(image, joined), frozenset(map(image, reps)))


def _is_cyclic(w: Group) -> bool:
    """Whether w is cyclic, read off its generators: exactly when they
    commute pairwise and the lcm of their orders is |w|.  Commuting
    generators make w abelian, an abelian group's exponent is the lcm of
    its generators' orders, and an abelian group is cyclic exactly when
    its exponent is its order."""
    gens = w.generators
    return (all(pmul(a, b) == pmul(b, a) for a, b in combinations(gens, 2))
            and lcm(*map(perm_order, gens)) == w.order)


def double_cosets(g: Group, h: Group, k: Group) -> tuple:
    """Decompose g into double cosets HxK: one (minimal representative,
    size) pair per double coset, sorted by representative.  They are the
    H-orbits on the left cosets of K, each led by its least coset."""
    if not (h.is_subgroup_of(g) and k.is_subgroup_of(g)):
        raise ValueError("double_cosets needs subgroups of g")
    t = _table(g)
    reps, coset_of = _cosets(t, range(g.order), t.indices(k.elements))
    moves = [[coset_of[row[x]] for x in reps].__getitem__
             for row in map(t.row, t.indices(h.generators))]
    orbits = _orbits(len(reps), moves)
    pairs = tuple((t.perms[reps[orbit[0]]], len(orbit) * k.order) for orbit in orbits)
    assert sum(size for _, size in pairs) == g.order
    return pairs


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


def _derived_subgroup(t: _Table, gens):
    """Generators and elements of H' for H = <gens>: the normal closure,
    in H, of the commutators of H's generators, spanned by their
    conjugacy orbits in H."""
    row, inv = t.row, t.inverse
    commutators = [row(a)[row(b)[row(inv[a])[inv[b]]]] for a, b in combinations(gens, 2)]
    conjugators = [lambda y, h=h: t.conj(h, y) for h in gens]
    return t.span((y for c in commutators for y in orbit_of(c, conjugators)), [], [0])


class GroupFlags(_Record):
    """Whether a group is solvable, and the primes dividing its order;
    triviality and being a p-group are read off the primes."""

    __slots__ = ("is_solvable", "prime_divisors")

    @property
    def is_trivial(self) -> bool:
        return not self.prime_divisors

    @property
    def is_p_group(self) -> bool:
        return len(self.prime_divisors) == 1


def group_flags(g: Group) -> GroupFlags:
    """Solvability and the prime divisors of the order, from which
    triviality and being a p-group follow; computed on the first call and
    kept on g's table."""
    t = _table(g)
    if t.flags is not None:
        return t.flags
    gens, size = t.gens, g.order
    while True:
        dgens, elems = _derived_subgroup(t, gens)
        if len(elems) == size:
            break
        gens, size = dgens, len(elems)
    t.flags = GroupFlags(size == 1, frozenset(prime_factors(g.order)))
    return t.flags


def perfect_subgroup_classes(g: Group) -> tuple:
    """Classes whose representative equals its own commutator subgroup.

    Only the trivial subgroup of a solvable group is perfect, so its
    class is returned without building the lattice.  By Burnside's
    p^a q^b theorem a group whose order has at most two prime divisors is
    solvable, so otherwise only classes of order 1 or with at least three
    prime divisors need a derived subgroup.
    """
    t = _table(g)
    if group_flags(g).is_solvable:
        return (_class(g, t.perms[:1], 1, "1a"),)
    classes = subgroup_conjugacy_classes(g)
    return tuple(
        cls
        for cls in classes
        if cls.order == 1
        or (
            len(prime_factors(cls.order)) > 2
            and len(_derived_subgroup(t, t.indices(cls.representative.generators))[1])
            == cls.order
        )
    )
