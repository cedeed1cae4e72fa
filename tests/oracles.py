"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes results by a different route than the library:
power-set scans, exhaustive map enumeration, union-find on materialized
objects, and exact rational linear algebra.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from equisep.group_core import (
    Group,
    identity_perm,
    pconj,
    pinv,
    pmul,
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


def brute_force_subconjugate(g: Group, below, above) -> bool:
    """Whether some conjugate of below's representative lies in above's,
    by conjugating below's generators with every element of g."""
    target = above.representative.elements
    gens = below.representative.generators
    return any(
        all(pconj(x, h) in target for h in gens) for x in g.sorted_elements()
    )


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


def stabilizer_elements(x, point):
    """Elements of the acting group fixing one point of a GSet."""
    return frozenset(g for g in x.group.elements if x.act(g, point) == point)


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
                perm[p] = x.act(w, img)
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
                q = x.act(g, p)
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
        if not all(x.act(k, p) == p for k in h.generators):
            continue
        if stabilizer_elements(x, p) == h.elements:
            maps.append(p)
    return maps


class UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def blocks(self):
        out = {}
        for i in self.parent:
            out.setdefault(self.find(i), []).append(i)
        return list(out.values())


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
