"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes results by a different route than the library:
power-set scans, the layered subgroup search and conjugation scans on
tuple permutations, the subgroups of a direct product by Goursat's
lemma, double cosets and G-set action tables built element by element,
containment counts scanned pair by pair over conjugation orbits for
marks, subconjugacy and families, generator picks that close perm tuples
after each pick, exhaustive map enumeration, union-find on materialized
objects (brute_force_pullback, the pullback groupoid built object by
object), exact rational linear algebra, and spec tokens and cycles read
by regular expressions.  Three helpers read the
library instead, for the tests that hold it against the oracles:
below_bit (a subconjugacy bit), members (a family's classes) and
bounded_group (make_group under a smaller order bound).
"""

from __future__ import annotations

import functools
import itertools
import re
import string
from fractions import Fraction
from math import factorial

from equisep import group_core
from equisep.group_core import (
    Group,
    GroupSpecError,
    ResourceLimitError,
    _spec_int,
    _subgroup_classes,
    closure,
    cyclic_group,
    direct_product,
    identity_perm,
    make_group,
    orbit_of,
    pconj,
    perm_order,
    pinv,
    pmul,
    subgroup_conjugacy_classes,
    weyl_group,
)
from equisep.families import Family
from equisep.gset import aut_group, coset_gset, disjoint_union
from equisep.pullback import (
    FiniteGroupoid,
    GroupoidComponent,
    GroupoidFunctor,
    _matching_pairs,
)


def encode_subgroup(elements) -> bytes:
    """A subgroup's sorted elements as bytes, each element's images
    written as comma-joined decimals and the elements joined by "|": the
    reference the tests check the library's class order against, which
    is (order, encode_subgroup of the representative)."""
    return b"|".join(
        ",".join(str(i) for i in p).encode("ascii") for p in sorted(elements)
    )


def brute_force_subgroups(g: Group):
    """All subgroups by power-set scan.  Only sane for |g| <= 12."""
    els = sorted(g.elements)
    assert len(els) <= 12
    out = []
    for r in range(len(els) + 1):
        for combo in itertools.combinations(els, r):
            s = frozenset(combo)
            if g.identity not in s:
                continue
            if all(pmul(a, b) in s for a in s for b in s):
                out.append(s)
    return out


def layered_subgroups(g: Group):
    """All subgroups as frozensets of perms, by layered generator
    extension on tuple permutations: close each known subgroup against
    each cyclic subgroup until nothing new appears.  Every subgroup is
    generated by cyclic ones, so this is exhaustive.  Sorted by
    encode_subgroup."""
    cyclic = {}
    for x in g.sorted_elements():
        powers, y = {g.identity}, x
        while y != g.identity:
            powers.add(y)
            y = pmul(x, y)
        cyclic.setdefault(frozenset(powers), x)
    subs = {frozenset({g.identity}): ()}
    for key, gen in cyclic.items():
        subs.setdefault(key, (gen,))
    joins = {}  # union of element sets -> the subgroup it generates
    frontier = list(subs)
    while frontier:
        fresh = []
        for skey in frontier:
            sgens = subs[skey]
            for ckey, cgen in cyclic.items():
                if ckey <= skey:
                    continue
                ukey = skey | ckey
                if ukey not in joins:
                    joins[ukey] = closure(sgens + (cgen,), g.degree)
                tkey = joins[ukey]
                if tkey not in subs:
                    subs[tkey] = sgens + (cgen,)
                    fresh.append(tkey)
        frontier = fresh
    return sorted(subs, key=encode_subgroup)


def _quotients(g: Group, subs):
    """For each pair A0 <= A1 of the subgroups subs of g with A0 normal
    in A1, A1/A0 as (cosets, table): the cosets of A0 as element sets,
    the trivial one first, and table[i][j] the coset of the product of
    cosets i and j.  A0 is normal in A1 when its orbit of conjugates
    under A1's generators, walked by orbit_of, is A0 alone."""
    for a1 in subs:
        movers = [lambda h, x=x: frozenset(pconj(x, y) for y in h)
                  for x in reduce_generators(a1, g.degree)]
        for a0 in subs:
            if not a0 <= a1 or len(orbit_of(a0, movers, 1)) > 1:
                continue
            cosets, coset_of = [a0], dict.fromkeys(a0, 0)
            for x in sorted(a1):
                if x not in coset_of:
                    coset = frozenset(pmul(x, y) for y in a0)
                    coset_of.update(dict.fromkeys(coset, len(cosets)))
                    cosets.append(coset)
            reps = [min(c) for c in cosets]
            table = [[coset_of[pmul(x, y)] for y in reps] for x in reps]
            yield cosets, table


def _element_orders(table) -> list:
    """The order of each element of a group given by its table, the
    identity being element 0."""
    out = []
    for row in table:
        k, y = 1, row[0]
        while y:
            k, y = k + 1, row[y]
        out.append(k)
    return out


def goursat_subgroups(a: Group, a_subs, b: Group, b_subs) -> list:
    """All subgroups of direct_product(a, b), as frozensets of its perms,
    from the factors' lattices a_subs and b_subs of layered_subgroups, by
    Goursat's lemma (Ann. Sci. ENS 6, 1889; Petrillo, College Math. J.
    40, 2009): one subgroup for each tuple (A0 normal in A1 <= a, B0
    normal in B1 <= b, theta: A1/A0 -> B1/B0 an isomorphism), the pairs
    (x, y) with x in A1, y in B1 and theta(x A0) = y B0.  Theta is
    fixed by the images of generators of A1/A0, picked greedily, so each
    choice of images of the same orders is walked with orbit_of over
    pairs of cosets: it is an isomorphism when the walk meets each coset
    of A1/A0 once and each of B1/B0 once."""
    shift = a.degree
    by_shape = {}
    for cosets, table in _quotients(b, b_subs):
        orders = _element_orders(table)
        by_shape.setdefault((len(table), tuple(sorted(orders))), []).append(
            (cosets, table, orders))
    out = []
    for a_cosets, a_table in _quotients(a, a_subs):
        a_orders = _element_orders(a_table)
        key = (len(a_table), tuple(sorted(a_orders)))
        gens, reached = [], {0}
        for i in sorted(range(len(a_table)), key=lambda i: -a_orders[i]):
            if i not in reached:
                gens.append(i)
                reached = orbit_of(0, [a_table[g].__getitem__ for g in gens])
        for b_cosets, b_table, b_orders in by_shape.get(key, ()):
            options = [[j for j, o in enumerate(b_orders) if o == a_orders[g]]
                       for g in gens]
            for images in itertools.product(*options):
                moves = [lambda p, u=a_table[g], v=b_table[h]: (u[p[0]], v[p[1]])
                         for g, h in zip(gens, images)]
                graph = orbit_of((0, 0), moves, len(a_table))
                if (len(graph) == len(a_table)
                        and len({y for _, y in graph}) == len(b_table)):
                    out.append(frozenset(
                        x + tuple(i + shift for i in y)
                        for p, q in graph for x in a_cosets[p]
                        for y in b_cosets[q]))
    return out


def conjugacy_classes_by_scan(g: Group, subgroups):
    """The classes among the given subgroups (frozensets of perms), found
    by conjugating with every element of g, sorted by (order, key).

    Returns (classes, counts): classes lists (representative, class size,
    key, name), the key being the representative's encode_subgroup, the
    representative the member with the least key and the name its order
    plus a letter; counts[i][j] is the number of conjugates of class i's
    representative that contain class j's representative."""
    seen, orbits = set(), []
    for sub in sorted(subgroups, key=encode_subgroup):
        if sub not in seen:
            orbit = {frozenset(pconj(x, h) for h in sub) for x in g.elements}
            seen |= orbit
            orbits.append((sub, orbit))
    orbits.sort(key=lambda item: (len(item[0]), encode_subgroup(item[0])))
    classes, per_order = [], {}
    for rep, orbit in orbits:
        idx = per_order.get(len(rep), 0)
        per_order[len(rep)] = idx + 1
        suffix = string.ascii_lowercase[idx] if idx < 26 else f"_{idx}"
        classes.append((rep, len(orbit), encode_subgroup(rep), f"{len(rep)}{suffix}"))
    counts = [[sum(k <= h for h in orbit) for k, _ in orbits] for _, orbit in orbits]
    return classes, counts


def brute_force_normalizer(g: Group, h) -> frozenset:
    """The elements of g that conjugate the element set h onto itself."""
    h = frozenset(h)
    return frozenset(
        x for x in g.elements if frozenset(pconj(x, y) for y in h) == h
    )


def brute_force_weyl_section(h, n) -> dict:
    """The action of the elements of n on the left cosets of h inside n, as
    a dict from coset permutation to the least element inducing it; the
    cosets are numbered by their least elements in increasing order."""
    reps, coset_of = [], {}
    for x in sorted(n):
        if x not in coset_of:
            for k in h:
                coset_of[pmul(x, k)] = len(reps)
            reps.append(x)
    section = {}
    for x in sorted(n):
        section.setdefault(tuple(coset_of[pmul(x, r)] for r in reps), x)
    return section


def is_cyclic_by_scan(g: Group) -> bool:
    """Whether some element of g has order |g|, by a scan of them all."""
    return any(perm_order(x) == g.order for x in g.elements)


def brute_force_derived_series(g: Group) -> list:
    """The orders of g, g', g'', ... down to the first term that repeats."""
    cur, orders = g.elements, [g.order]
    while True:
        nxt = brute_force_commutator_subgroup(cur, g.degree)
        if nxt == cur:
            return orders
        cur = nxt
        orders.append(len(cur))


def brute_force_commutator_subgroup(elements, degree: int) -> frozenset:
    """The subgroup generated by all commutators of the given elements."""
    els = tuple(elements)
    gens = {
        pmul(pmul(a, b), pmul(pinv(a), pinv(b))) for a in els for b in els
    }
    return closure(gens, degree)


def brute_force_subconjugate(g: Group, below, above) -> bool:
    """Whether some conjugate of below's representative lies in above's,
    by conjugating below's generators with every element of g."""
    target = above.representative.elements
    gens = below.representative.generators
    return any(
        all(pconj(x, h) in target for h in gens) for x in g.sorted_elements()
    )


def below_bit(g: Group, below, above) -> bool:
    """The library's answer to whether below is subconjugate to above:
    below's bit in the lattice's mask below[above], for the tests that
    hold it against an oracle."""
    lattice = _subgroup_classes(g)
    return lattice.below[lattice.position[above]] >> lattice.position[below] & 1 == 1


def members(family) -> frozenset:
    """The classes of the family's group that the family holds."""
    return frozenset(c for c in subgroup_conjugacy_classes(family.group)
                     if c in family)


def bounded_group(spec: str, bound: int):
    """make_group(spec) with group_core.MAX_ORDER set to bound for the call,
    or None when the group is over that bound."""
    saved, group_core.MAX_ORDER = group_core.MAX_ORDER, bound
    try:
        return make_group(spec)
    except ResourceLimitError:
        return None
    finally:
        group_core.MAX_ORDER = saved


@functools.cache
def containment_counts_by_scan(g: Group) -> tuple:
    """c[H][K] over the classes in subgroup_conjugacy_classes order, the
    number of conjugates of H that contain K's representative, counted
    pair by pair: every pair with |K| dividing |H|, each representative
    against every conjugate of H, the conjugates walked on tuple
    permutations with g's generators.  Reads no lattice mask."""
    classes = subgroup_conjugacy_classes(g)
    conjugates = []
    for h in classes:
        orbit, frontier = {h.representative.elements}, [h.representative.elements]
        for sub in frontier:
            for x in g.generators:
                image = frozenset(pconj(x, y) for y in sub)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        conjugates.append(orbit)
    return tuple(
        tuple(
            sum(k.representative.elements <= c for c in orbit)
            if h.order % k.order == 0 else 0
            for k in classes
        )
        for h, orbit in zip(classes, conjugates)
    )


def pairwise_subconjugacy(g: Group):
    """below(k, h), whether class k is subconjugate to class h, read pair by
    pair off containment_counts_by_scan (c[h][k] > 0)."""
    position = {c: i for i, c in enumerate(subgroup_conjugacy_classes(g))}
    counts = containment_counts_by_scan(g)
    return lambda k, h: counts[position[h]][position[k]] > 0


def missing_by_scan(g: Group, classes):
    """The first (missing class, member) pair the pairwise closure check
    meets, taking members in the set's own order and then every class of
    g in order; None when the set is closed under subconjugation."""
    below = pairwise_subconjugacy(g)
    for cls in classes:
        for other in subgroup_conjugacy_classes(g):
            if other not in classes and below(other, cls):
                return other, cls
    return None


def closure_by_scan(g: Group, seed) -> frozenset:
    """Every class subconjugate to some seed class, by pairwise scan."""
    below = pairwise_subconjugacy(g)
    return frozenset(
        c for c in subgroup_conjugacy_classes(g)
        if any(below(c, s) for s in seed)
    )


def minimal_additions_by_scan(g: Group, classes) -> list:
    """The classes outside the set all of whose proper subconjugates are
    inside it, in class order, by pairwise scan."""
    below = pairwise_subconjugacy(g)
    every = subgroup_conjugacy_classes(g)
    return [
        cls for cls in every
        if cls not in classes
        and all(c in classes or c == cls or not below(c, cls) for c in every)
    ]


def class_order_chain(start):
    """The exhaustive filtration from the family start: (stages, added),
    the families made by adding the classes outside start one at a time
    in class order, and those classes.  Each stage is built by the
    checking Family constructor; a prefix in class order is closed."""
    added = tuple(start.outside())
    stages = [Family(start.group, members(start) | set(added[:i]))
              for i in range(len(added) + 1)]
    return stages, added


def groups_built_from_elements(g: Group):
    """The groups the library builds from an element set it already holds,
    without closing their generators: g x C2, and for each class of g its
    representative's elements as a subgroup, its Weyl group, and the
    automorphisms of two copies of its coset G-set when their order
    is within the bound."""
    yield direct_product(g, cyclic_group(2))
    for cls in subgroup_conjugacy_classes(g):
        h = cls.representative
        w = weyl_group(g, cls)
        yield from (g.subgroup(h.elements), w)
        if 2 * w.order ** 2 <= group_core.MAX_ORDER:
            x = coset_gset(g, h)
            yield aut_group(disjoint_union(x, x))


def reduce_generators(elements, degree: int):
    """Greedily pick generators for a known element set: each element, in
    sorted order, that the closure of those picked so far lacks, with the
    perm tuples closed again after each pick."""
    target = frozenset(elements)
    gens = []
    have = {identity_perm(degree)}
    for x in sorted(target):
        if x not in have:
            gens.append(x)
            have = closure(gens, degree)
            if have == target:
                break
    assert have == target or target == {identity_perm(degree)}
    return tuple(gens)


_ATOM_RE = re.compile(r"^([CDSA])([0-9]+)$")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def regex_named_atom(token: str) -> tuple:
    """(order, degree) of one named-family token, read by a regular
    expression: the reference for group_core._named_atom."""
    if token == "Q8":
        return 8, 8
    m = _ATOM_RE.match(token)
    if not m:
        raise GroupSpecError(f"unrecognized group token {token!r}")
    kind, n = m.group(1), _spec_int(m.group(2), "group size")
    if n < 1:
        raise GroupSpecError(f"{kind}<n> needs n >= 1")
    if kind == "C":
        return n, n
    if kind == "D":
        if n == 1:
            return 2, 2
        if n == 2:
            return 4, 4
        return 2 * n, n
    if n > group_core._MAX_FACTORIAL_DEGREE:
        raise ResourceLimitError(f"group {token} exceeds every order bound "
                                 "(layer group_core.make_group)")
    if kind == "S":
        return factorial(n), n
    return max(1, factorial(n) // 2), n


def regex_cycles(text: str, degree: int) -> tuple:
    """The permutation of one generator in cycle notation, read by regular
    expressions: the reference for group_core._parse_cycles."""
    text = text.strip()
    if _CYCLE_RE.sub("", text).strip():
        raise GroupSpecError(f"stray characters in cycles: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        cyc = []
        for p in filter(None, re.split(r"[,\s]+", body.strip())):
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


def random_perm_specs(rng, count: int, max_degree: int = 6):
    """Random `perm:` specs on 3..max_degree points with one to three
    generators, in 1-based cycle notation."""
    specs = []
    for _ in range(count):
        degree = rng.randint(3, max_degree)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            seen, cycles = set(), []
            for start in range(degree):
                if start in seen:
                    continue
                cycle = [start]
                while images[cycle[-1]] != start:
                    cycle.append(images[cycle[-1]])
                seen.update(cycle)
                if len(cycle) > 1:
                    cycles.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
            gens.append("".join(cycles) or "(1)")
        specs.append(f"perm:{degree}:" + ";".join(gens))
    return specs


def double_cosets_by_orbits(g: Group, h: Group, k: Group):
    """(representative, size) of each double coset HxK in order of their
    least elements, each walked on tuple permutations from that element
    by left multiplication with H's generators and right multiplication
    with K's."""
    moves = [lambda y, a=a: pmul(a, y) for a in h.generators]
    moves += [lambda y, b=b: pmul(y, b) for b in k.generators]
    seen, out = set(), []
    for x in g.sorted_elements():
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for move in moves:
                z = move(y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        out.append((x, len(orbit)))
    return tuple(out)


BRUTE_FORCE_AUT_BOUND = 64


def brute_force_pullback(f: GroupoidFunctor, g: GroupoidFunctor) -> FiniteGroupoid:
    """Materialize the pullback groupoid and read off its components.

    Objects over a base pair (b, c) are the elements eta of Aut(d);
    morphisms (beta, gamma) carry eta to g(gamma) * eta * f(beta)^-1.
    Component automorphism groups are realized as permutation pairs acting
    on the disjoint union of the two underlying point sets.
    """
    for comp in (*f.source.components, *g.source.components,
                 *f.target.components):
        if comp.aut_order > BRUTE_FORCE_AUT_BOUND:
            raise ResourceLimitError(
                f"automorphism group of component {comp.label!r} has order "
                f"{comp.aut_order}, over the bound BRUTE_FORCE_AUT_BOUND = "
                f"{BRUTE_FORCE_AUT_BOUND}: too large to materialize "
                "(layer pullback.brute_force_pullback)")
    components = []
    for b, c, d in _matching_pairs(f, g):
        aut_d = f.target.component(d).aut
        aut_b = f.source.component(b).aut
        aut_c = g.source.component(c).aut
        fb = f.aut_maps[b]
        gc = g.aut_maps[c]
        parent = {eta: eta for eta in aut_d.elements}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for beta in aut_b.elements:
            fb_inv = pinv(fb(beta))
            for gamma in aut_c.elements:
                gg = gc(gamma)
                for eta in aut_d.elements:
                    moved = pmul(pmul(gg, eta), fb_inv)
                    ra, rb = find(eta), find(moved)
                    if ra != rb:
                        parent[ra] = rb
        blocks: dict = {}
        for eta in aut_d.elements:
            blocks.setdefault(find(eta), []).append(eta)
        ordered = sorted(blocks.values(), key=min)
        pair_group = direct_product(aut_b, aut_c)
        db = aut_b.degree
        for idx, block in enumerate(ordered):
            rep = min(block)
            pairs = []
            for beta in aut_b.elements:
                for gamma in aut_c.elements:
                    if pmul(gc(gamma), rep) == pmul(rep, fb(beta)):
                        pairs.append(beta + tuple(x + db for x in gamma))
            aut = pair_group.subgroup(pairs)
            components.append(
                GroupoidComponent(label=f"{b}|{c}#{idx}", aut=aut)
            )
    return FiniteGroupoid(components)


def _left_cosets_by_scan(elements, sub):
    """The left cosets of the element set sub in the element set elements:
    (reps, coset_of), reps the least element of each coset in increasing
    order and coset_of element -> coset number."""
    reps, coset_of = [], {}
    for x in sorted(elements):
        if x not in coset_of:
            for t in sub:
                coset_of[pmul(x, t)] = len(reps)
            reps.append(x)
    return reps, coset_of


def coset_table(elements, sub) -> dict:
    """The left coset action on elements/sub as a table over every element:
    u -> the permutation of coset numbers."""
    reps, coset_of = _left_cosets_by_scan(elements, sub)
    return {u: tuple(coset_of[pmul(u, r)] for r in reps) for u in elements}


def induced_table(elements, sub, y_table: dict, size: int) -> dict:
    """The induced set elements x_sub Y over every element, on pairs
    (coset number, point) numbered coset * size + point, where y_table
    gives the action of every element of sub on Y's size points."""
    reps, coset_of = _left_cosets_by_scan(elements, sub)
    out = {}
    for u in elements:
        img = []
        for r in reps:
            moved = pmul(u, r)
            j = coset_of[moved]
            img.extend(j * size + q for q in y_table[pmul(pinv(reps[j]), moved)])
        out[u] = tuple(img)
    return out


def mackey_table(g: Group, h: Group, k: Group, y_table: dict, size: int) -> dict:
    """The restriction to H of G x_K Y over every element of H, as the
    concatenation, one summand per double coset HrK in order, of the set
    induced from H meet rKr^-1 acting on Y through conjugation by r."""
    out = dict.fromkeys(h.elements, ())
    for r, _ in double_cosets_by_orbits(g, h, k):
        ir = pinv(r)
        cap = h.elements & {pmul(pmul(r, t), ir) for t in k.elements}
        twisted = {l: y_table[pmul(pmul(ir, l), r)] for l in cap}
        part = induced_table(h.elements, cap, twisted, size)
        offset = len(out[h.identity])
        for u in out:
            out[u] += tuple(q + offset for q in part[u])
    return out


def conjugacy_class_count(g: Group, subgroups) -> int:
    """Count conjugacy classes among the given subgroup element sets."""
    left = set(subgroups)
    count = 0
    while left:
        s = left.pop()
        count += 1
        for x in g.elements:
            left.discard(frozenset(pconj(x, h) for h in s))
    return count


def extend_hom(src: Group, dst: Group, gen_images: dict):
    """Extend generator images to a full homomorphism dict, or None."""
    e_src, e_dst = src.identity, dst.identity
    mapping = {e_src: e_dst}
    frontier = [e_src]
    while frontier:
        x = frontier.pop()
        fx = mapping[x]
        for gen, img in gen_images.items():
            y = pmul(gen, x)
            fy = pmul(img, fx)
            if y in mapping:
                if mapping[y] != fy:
                    return None
            else:
                mapping[y] = fy
                frontier.append(y)
    if len(mapping) != src.order:
        return None
    return mapping


def find_isomorphism(a: Group, b: Group):
    """Brute-force isomorphism between small groups, or None."""
    if a.order != b.order:
        return None
    gens = a.generators if a.generators else (a.identity,)
    orders = {}
    for x in b.elements:
        n, y = 1, x
        while y != b.identity:
            y = pmul(x, y)
            n += 1
        orders[x] = n

    def gen_order(x):
        n, y = 1, x
        while y != identity_perm(a.degree):
            y = pmul(x, y)
            n += 1
        return n

    candidates = [
        [y for y in sorted(b.elements) if orders[y] == gen_order(gen)]
        for gen in gens
    ]
    for choice in itertools.product(*candidates):
        mapping = extend_hom(a, b, dict(zip(gens, choice)))
        if mapping is not None and len(set(mapping.values())) == a.order:
            return mapping
    return None


def count_orbit_multisets(sizes, bound: int) -> int:
    """Number of multisets of orbits with total size <= bound.

    Counting is by dynamic programming over the available orbit sizes, one
    slot per conjugacy class, so classes of equal size count separately.
    """
    counts = [0] * (bound + 1)
    counts[0] = 1
    for s in sizes:
        nxt = list(counts)
        for total in range(bound + 1):
            if counts[total] == 0:
                continue
            t = total + s
            while t <= bound:
                nxt[t] += counts[total]
                t += s
        counts = nxt
    return sum(counts)


def resummed_count_vectors(sizes, bound):
    """All multiplicity vectors with total weighted size <= bound, first
    entry fastest, recomputing each partial vector's weighted size."""
    if not sizes:
        yield ()
        return
    head = sizes[0]
    for rest in resummed_count_vectors(sizes[1:], bound):
        used = sum(m * s for m, s in zip(rest, sizes[1:]))
        n = 0
        while used + n * head <= bound:
            yield (n,) + rest
            n += 1


def stabilizer_elements(x, point):
    """Elements of the acting group fixing one point of a GSet."""
    return frozenset(g for g in x.group.elements if x.perm(g)[point] == point)


def all_equivariant_bijections(x):
    """Every equivariant self-bijection, found by matching orbit base points."""
    orbits = x.orbits()
    bases = [orb[0] for orb in orbits]
    stabs = [stabilizer_elements(x, b) for b in bases]
    point_stab = {p: stabilizer_elements(x, p) for p in range(x.size)}
    candidates = [
        [p for p in range(x.size) if st <= point_stab[p]] for st in stabs
    ]
    words = transversal_words(x)
    out = []
    for images in itertools.product(*candidates):
        perm = [None] * x.size
        for base, img in zip(bases, images):
            for p, w in words[base].items():
                perm[p] = x.perm(w)[img]
        if len(set(perm)) == x.size:
            out.append(tuple(perm))
    return out


def transversal_words(x):
    """For each orbit base point, a dict point -> group element moving base there."""
    out = {}
    for orb in x.orbits():
        base = orb[0]
        words = {base: x.group.identity}
        frontier = [base]
        while frontier:
            p = frontier.pop()
            for g in x.group.generators:
                q = x.perm(g)[p]
                if q not in words:
                    words[q] = pmul(g, words[p])
                    frontier.append(q)
        out[base] = words
    return out


def injective_equivariant_maps(g: Group, cls, x):
    """All injective equivariant maps from the coset set g/H into x.

    A map is determined by the image of the base coset, which must be fixed
    by H; it is injective exactly when the image's stabilizer is H itself.
    """
    h = cls.representative
    maps = []
    for p in range(x.size):
        if not all(x.perm(k)[p] == p for k in h.generators):
            continue
        if stabilizer_elements(x, p) == h.elements:
            maps.append(p)
    return maps


def solve_upper_triangular(matrix, rhs):
    """Solve M^T c = v exactly for lower-triangular integer M."""
    n = len(matrix)
    c = [Fraction(0)] * n
    # M^T is upper triangular; back-substitute from the last row.
    for i in reversed(range(n)):
        total = Fraction(rhs[i])
        for j in range(i + 1, n):
            total -= Fraction(matrix[j][i]) * c[j]
        c[i] = total / Fraction(matrix[i][i])
    return c
