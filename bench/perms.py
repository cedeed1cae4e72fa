"""Group specs as the equisep CLI reads them, seen through sympy.

The benchmark builds its inputs and checks its outputs without the library
under test: spec strings are parsed here, and orders, solvability and
prime divisors come from ``sympy.combinatorics``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from sympy import factorint
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.group_constructs import DirectProduct
from sympy.combinatorics.named_groups import (
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    SymmetricGroup,
)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_ATOM_RE = re.compile(r"^([CDSA])([0-9]+)$")


def _quaternion_regular():
    """Q8 acting on itself by left multiplication (points 1,i,j,k,-1,-i,-j,-k)."""
    # unit[(a, b)] = (sign, c) means a*b = sign*c, with 1, i, j, k as 0-3
    unit = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def left(a):
        images = []
        for x in range(8):
            sign, u = unit[(a, x % 4)]
            if x >= 4:
                sign = -sign
            images.append(u if sign > 0 else u + 4)
        return Permutation(images)

    return PermutationGroup([left(1), left(2)])


def _named_atom(token: str) -> PermutationGroup:
    if token == "Q8":
        return _quaternion_regular()
    m = _ATOM_RE.match(token)
    if not m:
        raise ValueError(f"unrecognized group token {token!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "C":
        return CyclicGroup(n)
    if kind == "D":
        return DihedralGroup(n)
    if kind == "S":
        return SymmetricGroup(n)
    return AlternatingGroup(n)


def parse_cycles(text: str, degree: int) -> tuple:
    """One generator in 1-based cycle notation, as a 0-based image tuple."""
    images = list(range(degree))
    for body in _CYCLE_RE.findall(text):
        pts = [int(p) - 1 for p in body.split()]
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return tuple(images)


def cycles_text(perm: tuple) -> str:
    """A 0-based image tuple in 1-based cycle notation, fixed points omitted."""
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = perm[x]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out)


def perm_spec(degree: int, gens) -> str:
    return f"perm:{degree}:" + ";".join(cycles_text(g) for g in gens)


def to_sympy(spec: str) -> PermutationGroup:
    """The group a well-formed CLI spec names, built by sympy."""
    if spec.startswith("perm:"):
        _, degree, body = spec.split(":", 2)
        d = int(degree)
        gens = [parse_cycles(chunk, d) for chunk in body.split(";") if chunk]
        return PermutationGroup([Permutation(list(g)) for g in gens])
    atoms = [_named_atom(t) for t in spec.split("x")]
    return atoms[0] if len(atoms) == 1 else DirectProduct(*atoms)


@dataclass(frozen=True)
class Facts:
    order: int
    solvable: bool
    primes: tuple


@lru_cache(maxsize=None)
def facts(spec: str) -> Facts:
    g = to_sympy(spec)
    order = int(g.order())
    return Facts(order, bool(g.is_solvable), tuple(sorted(factorint(order))))


def elements(degree: int, gens) -> list:
    """Every element of the group generated by gens, sorted, as image tuples."""
    g = PermutationGroup([Permutation(list(x), size=degree) for x in gens])
    return sorted(tuple(p.array_form) for p in g.elements)


def generated_order(degree: int, gens) -> int:
    g = PermutationGroup([Permutation(list(x), size=degree) for x in gens])
    return int(g.order())


def relabel(perm: tuple, sigma: tuple) -> tuple:
    """sigma * perm * sigma^-1: the same permutation on renamed points."""
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[sigma[i]] = sigma[j]
    return tuple(out)
