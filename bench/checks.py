"""Output checks that do not trust the library under test.

Group orders, solvability and prime divisors come from sympy.  Each check
reads the CLI's text or JSON output and tests identities that any correct
answer satisfies:

- subgroups: |W(H)| * class_size * |H| = |G| for every class;
- marks: lower triangular, first column |G:H|, diagonal |W(H)| dividing
  |G:H|, zero unless |K| divides |H|, last row all ones;
- burnside: one idempotent block exactly when the group is solvable;
- classify (census): one component per multiplicity vector of size <= N,
  with aut_order = prod |W(H)|^n * n!;
- witness and the NonStandardWitness verdict: fiber_size = 2^(r-1) for r
  prime divisors;
- pullback-demo: brute_force_matches is true;
- refusals: the documented exit code and a one-line error.

Weyl orders seen in one query are kept per group spec and compared with
every later query on the same spec.  Outputs listed in golden.json must
match byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import factorial, prod

from perms import facts


class CheckError(Exception):
    """The output is wrong."""


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _order_of(name: str) -> int:
    m = re.match(r"^(\d+)[a-z_]", name)
    _require(m is not None, f"bad class name {name!r}")
    return int(m.group(1))


def _table(lines):
    """Rows of a whitespace-aligned table, header dropped."""
    return [line.split() for line in lines[1:]]


def _weyl_consistent(seen: dict, spec: str, weyl: dict):
    """Same group spec, same Weyl orders, whichever verb reported them."""
    known = seen.setdefault(spec, {})
    for name, w in weyl.items():
        _require(known.setdefault(name, w) == w,
                 f"Weyl order of {name} is {w} here, {known[name]} before")


def _check_classes(n: int, names: list, weyl: dict):
    _require(names and names[0] == "1a", "first class is not 1a")
    _require(_order_of(names[-1]) == n, "last class is not G itself")
    _require(len(set(names)) == len(names), "duplicate class names")
    orders = [_order_of(c) for c in names]
    _require(orders == sorted(orders), "classes not sorted by order")
    for name in names:
        h = _order_of(name)
        _require(n % h == 0, f"{name}: order does not divide |G|={n}")
        _require((n // h) % weyl[name] == 0, f"{name}: |W(H)| does not divide |G:H|")
    _require(weyl["1a"] == n, "W(1) is not G")
    _require(weyl[names[-1]] == 1, "W(G) is not trivial")


def check_subgroups(n, out, is_json):
    if is_json:
        rows = [(r["subgroup"], r["order"], r["class_size"], r["weyl_order"])
                for r in json.loads(out)]
    else:
        rows = [(r[0], int(r[1]), int(r[2]), int(r[3]))
                for r in _table(out.splitlines())]
    for name, order, size, w in rows:
        _require(_order_of(name) == order, f"{name}: order column {order}")
        _require(w * size * order == n,
                 f"{name}: weyl {w} * class_size {size} * order {order} != {n}")
    weyl = {r[0]: r[3] for r in rows}
    _check_classes(n, [r[0] for r in rows], weyl)
    return weyl


def check_marks(n, out, is_json):
    if is_json:
        payload = json.loads(out)
        names, m = payload["classes"], payload["marks"]
    else:
        lines = out.splitlines()
        names = lines[0].split()
        rows = [line.split() for line in lines[1:]]
        _require([r[0] for r in rows] == names, "row and column names differ")
        m = [[int(v) for v in r[1:]] for r in rows]
    k = len(names)
    _require(len(m) == k and all(len(r) == k for r in m), "marks not square")
    for i, name in enumerate(names):
        h = _order_of(name)
        _require(m[i][0] == n // h, f"m({name},1) = {m[i][0]}, not |G:H|")
        for j in range(k):
            if j > i:
                _require(m[i][j] == 0, "marks not lower triangular")
            elif m[i][j]:
                _require(h % _order_of(names[j]) == 0,
                         f"m({name},{names[j]}) nonzero but |K| does not divide |H|")
    _require(m[-1] == [1] * k, "G/G row is not all ones")
    weyl = {name: m[i][i] for i, name in enumerate(names)}
    _check_classes(n, names, weyl)
    return weyl


def check_burnside(spec, f, out, is_json):
    if is_json:
        p = json.loads(out)
        group, blocks, solvable, perfect = (p["group"], p["blocks"],
                                            p["solvable"], p["perfect_classes"])
    else:
        lines = out.splitlines()
        group = lines[0].removeprefix("group: ")
        blocks = int(lines[1].removeprefix("blocks="))
        solvable = lines[2] == "solvable=true"
        perfect = lines[3].removeprefix("perfect classes: ").split(", ")
    _require(group == spec, "group line does not echo the spec")
    _require(solvable == f.solvable, f"solvable={solvable}, sympy says {f.solvable}")
    _require((blocks == 1) == f.solvable, f"{blocks} blocks for solvable={f.solvable}")
    _require(perfect[0] == "1a", "trivial group missing from perfect classes")
    if f.solvable:
        _require(perfect == ["1a"], "a solvable group has a nontrivial perfect subgroup")
    return {}


def _stage_rows(lines):
    """(name, weyl) from the subgroup/weyl/ic/rc/sep_closed table."""
    _require(lines and lines[0].split()[:2] == ["subgroup", "weyl"],
             "missing stage table")
    rows = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != 5 or not cells[1].isdigit():
            break
        rows.append((cells[0], int(cells[1])))
    return rows


def check_conditions(n, out, is_json):
    if is_json:
        reports = json.loads(out)
        rows = [(r["subgroup"], r["weyl_order"]) for r in reports]
        _require(all(len(r["reasons"]) == 2 for r in reports), "reasons missing")
    else:
        lines = out.splitlines()
        rows = _stage_rows(lines)
        _require(len(lines) == 1 + 3 * len(rows), "one ic and one rc rule per stage")
    weyl = dict(rows)
    _check_classes(n, [r[0] for r in rows], weyl)
    return weyl


def _count_vectors(sizes, bound):
    if not sizes:
        return 1
    return sum(_count_vectors(sizes[1:], bound - k * sizes[0])
               for k in range(bound // sizes[0] + 1))


def _label_counts(label):
    if label == "empty":
        return {}
    counts = {}
    for chunk in label.split(" + "):
        n, _, cls = chunk.rpartition("*")
        _require(cls.startswith("G/"), f"bad component label {label!r}")
        counts[cls[2:]] = int(n) if n else 1
    return counts


def check_census(n, max_size, stages, groupoid):
    weyl = dict(stages)
    names = [s[0] for s in stages]
    _check_classes(n, names, weyl)
    sizes = [n // _order_of(c) for c in names]
    expected = _count_vectors(sizes, max_size)
    _require(len(groupoid) == expected,
             f"{len(groupoid)} components, {expected} vectors of size <= {max_size}")
    labels = set()
    for label, aut in groupoid:
        counts = _label_counts(label)
        _require(set(counts) <= set(weyl), f"unknown class in {label!r}")
        size = sum(k * n // _order_of(c) for c, k in counts.items())
        _require(size <= max_size, f"{label!r} has size {size} > {max_size}")
        want = prod(weyl[c] ** k * factorial(k) for c, k in counts.items())
        _require(aut == want, f"aut_order of {label!r} is {aut}, formula {want}")
        labels.add(label)
    _require(len(labels) == len(groupoid), "duplicate component labels")
    return weyl


def check_classify(q, f, out, is_json):
    if is_json:
        p = json.loads(out)
        verdict = p["verdict"]
        stages = [(s["subgroup"], s["weyl_order"]) for s in p["stages"]]
        groupoid = [(c["label"], c["aut_order"]) for c in p.get("groupoid", [])]
        fiber = p["witness"]["fiber_size"] if "witness" in p else None
        notes = p.get("notes", [])
    else:
        lines = out.splitlines()
        verdict = lines[0].removeprefix("verdict: ")
        stages = _stage_rows(lines[1:]) if len(lines) > 1 and \
            lines[1].startswith("subgroup") else []
        groupoid, fiber = [], None
        if "components" in out:
            start = next(i for i, x in enumerate(lines) if x.startswith("components"))
            groupoid = [(" ".join(r[:-1]), int(r[-1]))
                        for r in _table(lines[start + 1:])
                        if not r[0].startswith("note:")]
        for line in lines:
            if line.startswith("fiber_size = "):
                fiber = int(line.removeprefix("fiber_size = "))
        notes = [x for x in lines if x.startswith("note: ")]
    _require(verdict == q.verdict, f"verdict {verdict}, expected {q.verdict}")
    if verdict == "AllStandard":
        return check_census(f.order, int(q.option("--max-size", "6")), stages, groupoid)
    if verdict == "NonStandardWitness":
        _require(fiber == 2 ** (len(f.primes) - 1),
                 f"fiber_size {fiber} for {len(f.primes)} primes")
    elif verdict == "UnitDecomposes":
        _require(not f.solvable, "the unit decomposes only for non-solvable groups")
    _require(verdict == "NonStandardWitness" or notes, "no notes on a verdict")
    return {}


def check_witness(q, f, out, is_json):
    if is_json:
        p = json.loads(out)
        found = p["found"]
        fiber = p["witness"]["fiber_size"] if found else None
        orbits = len(p["witness"]["certificate"]) if found else None
    else:
        lines = out.splitlines()
        found = lines[0] == "witness found"
        fiber = orbits = None
        if found:
            fiber = int(next(x for x in lines if x.startswith("fiber_size = "))
                        .removeprefix("fiber_size = "))
            orbits = sum(1 for x in lines if x.startswith("  {"))
    _require(found == q.found, f"found={found}, expected {q.found}")
    if found:
        _require(fiber == 2 ** (len(f.primes) - 1),
                 f"fiber_size {fiber} for {len(f.primes)} primes")
        _require(orbits == fiber, "one certificate orbit per fiber element")
    return {}


def check_pullback(q, out, is_json):
    if is_json:
        p = json.loads(out)
        seed, ok = p["seed"], p["brute_force_matches"]
    else:
        lines = out.splitlines()
        seed = int(lines[0].removeprefix("seed: "))
        ok = lines[-1] == "brute_force_matches=true"
    _require(seed == int(q.option("--seed")), "seed not echoed")
    _require(ok, "pullback components disagree with brute force")
    return {}


def check(q, rc: int, stdout: bytes, stderr: bytes, seen: dict, golden: dict):
    """Raise CheckError unless the query got the outcome its input expects."""
    _require(rc == q.exit_code, f"exit code {rc}, expected {q.exit_code}")
    err = stderr.decode()
    if q.exit_code:
        _require(not stdout, "output on a refused input")
        _require(err.startswith("error: ") and err.count("\n") == 1,
                 "refusal is not a one-line error")
        return
    _require(not err, "stderr not empty: " + err[-200:])
    want = golden.get(q.key())
    if want is not None:
        _require(digest(stdout) == want, "output differs from the golden digest")
    out = stdout.decode()
    is_json = q.option("--format", "text") == "json"
    if q.verb == "pullback-demo":
        check_pullback(q, out, is_json)
        return
    spec = q.option("--group")
    f = facts(spec)
    if q.verb == "subgroups":
        weyl = check_subgroups(f.order, out, is_json)
    elif q.verb == "marks":
        weyl = check_marks(f.order, out, is_json)
    elif q.verb == "burnside":
        weyl = check_burnside(spec, f, out, is_json)
    elif q.verb == "conditions":
        weyl = check_conditions(f.order, out, is_json)
    elif q.verb == "classify":
        weyl = check_classify(q, f, out, is_json)
    else:
        weyl = check_witness(q, f, out, is_json)
    _weyl_consistent(seen, spec, weyl)
