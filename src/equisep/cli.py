"""Command-line front end.

Verbs map one-to-one onto library entry points; everything prints either
an aligned text block or JSON.  Exit codes: 0 success, 1 unsupported
coefficient descriptor, 2 parse error, 3 resource bound exceeded, and 141
(128 + SIGPIPE, as a shell reports a process killed by SIGPIPE) when
stdout is closed before the output is written, e.g. by `| head -1`; that
exit prints nothing to stderr.  `run`, the console entry point, exits
without tearing the interpreter down; `main` returns the code instead.
Each verb imports the library modules it runs inside its own function,
after its input is parsed, so a call loads only what its verb needs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .group_core import (
    GroupSpecError,
    ResourceLimitError,
    UnsupportedDescriptorError,
    _spec_int,
    cyclic_group,
    group_flags,
    make_group,
    perfect_subgroup_classes,
    subgroup_conjugacy_classes,
    symmetric_group,
    trivial_group,
)


def _parse_coeff(text: str):
    from .conditions import integers, prime_field, sphere

    if text == "sphere":
        return sphere()
    if text == "Z":
        return integers()
    if text.startswith("Fp:"):
        p = _spec_int(text[3:], "coefficient prime")
        try:
            return prime_field(p)
        except ValueError as exc:
            raise GroupSpecError(f"bad coefficient spec {text!r}: {exc}") from exc
    raise GroupSpecError(
        f"unknown coefficient {text!r}; expected sphere, Z, or Fp:<p>"
    )


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _table(rows, header) -> str:
    widths = [
        max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))
    ]
    lines = []
    for r in [header] + rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _stage_rows(reports):
    rows = [
        [
            rep.subgroup.name,
            rep.weyl_order,
            _bool(rep.ic.ok),
            _bool(rep.rc.ok),
            _bool(rep.sep_closed),
        ]
        for rep in reports
    ]
    return _table(rows, ["subgroup", "weyl", "ic", "rc", "sep_closed"])


def _cmd_subgroups(args):
    g = make_group(args.group)
    classes = subgroup_conjugacy_classes(g)
    payload = [
        {
            "subgroup": c.name,
            "order": c.order,
            "class_size": c.class_size,
            "weyl_order": c.weyl_order,
        }
        for c in classes
    ]
    rows = [list(row.values()) for row in payload]
    return payload, _table(rows, ["subgroup", "order", "class_size", "weyl"])


def _cmd_marks(args):
    g = make_group(args.group)
    from .burnside import table_of_marks

    tom = table_of_marks(g)
    return tom.to_json(), tom.to_text()


def _cmd_burnside(args):
    g = make_group(args.group)
    perfect = [c.name for c in perfect_subgroup_classes(g)]
    blocks = len(perfect)
    solvable = group_flags(g).is_solvable
    text = "\n".join(
        [
            f"group: {args.group}",
            f"blocks={blocks}",
            f"solvable={_bool(solvable)}",
            "perfect classes: " + ", ".join(perfect),
        ]
    )
    payload = {
        "group": args.group,
        "blocks": blocks,
        "solvable": solvable,
        "perfect_classes": perfect,
    }
    return payload, text


def _cmd_conditions(args):
    g = make_group(args.group)
    ring = _parse_coeff(args.coeff)
    from .conditions import stage_report

    reports = [stage_report(g, cls, ring) for cls in subgroup_conjugacy_classes(g)]
    lines = [_stage_rows(reports)]
    for rep in reports:
        lines.append(f"{rep.subgroup.name}: ic: {rep.ic.rule}")
        lines.append(f"{rep.subgroup.name}: rc: {rep.rc.rule}")
    return [rep.to_json() for rep in reports], "\n".join(lines)


def _groupoid_text(gpd) -> str:
    rows = [[c.label, c.aut_order] for c in gpd.components]
    return _table(rows, ["component", "aut_order"])


def _cmd_classify(args):
    if args.max_size < 0:
        raise GroupSpecError(f"--max-size must be >= 0, got {args.max_size}")
    g = make_group(args.group)
    ring = _parse_coeff(args.coeff)
    from .classifier import classify

    out = classify(g, ring, args.max_size)
    lines = [f"verdict: {out.verdict.value}"]
    if out.stage_reports:
        lines.append(_stage_rows(out.stage_reports))
    if out.groupoid is not None:
        lines.append(f"components (size <= {args.max_size}):")
        lines.append(_groupoid_text(out.groupoid))
    if out.witness is not None:
        lines.append(_witness_text(out.witness))
    for note in out.notes:
        lines.append(f"note: {note}")
    return out.to_json(), "\n".join(lines)


def _witness_text(rec) -> str:
    lines = [
        f"x1 = x2 = {rec.x1.label()}",
        f"eta = {rec.eta_text}",
        f"fiber_size = {rec.fiber_size}",
        "certificate:",
    ]
    for orbit in rec.double_coset_certificate:
        lines.append("  {" + ", ".join(orbit) + "}")
    lines.append(f"note: {rec.note}")
    return "\n".join(lines)


def _cmd_witness(args):
    g = make_group(args.group)
    ring = _parse_coeff(args.coeff)
    from .witness import witness_nonstandard

    probe = witness_nonstandard(g, ring)
    if probe.found:
        payload = {"found": True, "witness": probe.record.to_json()}
        text = "witness found\n" + _witness_text(probe.record)
    else:
        payload = {"found": False, "failures": list(probe.failures)}
        text = "witness absent\n" + "\n".join(f"  - {f}" for f in probe.failures)
    return payload, text


def _random_groupoid(rng, name, pool, max_components):
    from .groupoid_calc import FiniteGroupoid, GroupoidComponent

    n = rng.randint(1, max_components)
    return FiniteGroupoid(
        [GroupoidComponent(f"{name}{i}", rng.choice(pool)) for i in range(n)]
    )


def _random_functor(rng, src, dst):
    from .pullback import GroupoidFunctor, all_homomorphisms

    cmap, amap = {}, {}
    for comp in src.components:
        target = rng.choice(dst.components)
        cmap[comp.label] = target.label
        amap[comp.label] = rng.choice(all_homomorphisms(comp.aut, target.aut))
    return GroupoidFunctor(src, dst, cmap, amap)


def _cmd_pullback_demo(args):
    import random

    from .pullback import brute_force_pullback, pullback_pi0

    rng = random.Random(args.seed)
    pool = [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        symmetric_group(3),
    ]
    d = _random_groupoid(rng, "d", pool, 2)
    b = _random_groupoid(rng, "b", pool, 3)
    c = _random_groupoid(rng, "c", pool, 3)
    f = _random_functor(rng, b, d)
    g = _random_functor(rng, c, d)
    comps = pullback_pi0(f, g)
    bf = brute_force_pullback(f, g)
    ok = len(comps) == len(bf)
    rows = [
        [f"{p.base[0]}|{p.base[1]}", p.fiber_index, p.fiber_size, p.aut_order]
        for p in comps
    ]
    text = "\n".join(
        [
            f"seed: {args.seed}",
            _table(rows, ["base", "fiber_index", "fiber_size", "aut_order"]),
            f"brute_force_matches={_bool(ok)}",
        ]
    )
    payload = {
        "seed": args.seed,
        "components": [p.to_json() for p in comps],
        "brute_force_matches": ok,
    }
    return payload, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equisep",
        description="Classify separable algebras over finite group actions "
        "and compute the underlying G-set calculus.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, group=True, coeff=False, size=False):
        if group:
            p.add_argument("--group", required=True,
                           help="group spec, e.g. C6, S4, Q8, C2xC2, "
                                "perm:<degree>:<cycles>")
        if coeff:
            p.add_argument("--coeff", default="sphere",
                           help="coefficients: sphere, Z, or Fp:<p>")
        if size:
            p.add_argument("--max-size", type=int, default=6,
                           help="G-set cardinality bound for the census")
        p.add_argument("--format", choices=["text", "json"], default="text")

    common(sub.add_parser("subgroups", help="subgroup conjugacy classes"))
    common(sub.add_parser("marks", help="table of marks"))
    common(sub.add_parser("burnside", help="idempotent blocks and solvability"))
    common(sub.add_parser("conditions", help="per-stage checks"), coeff=True)
    common(sub.add_parser("classify", help="full classification"),
           coeff=True, size=True)
    common(sub.add_parser("witness", help="non-standard witness search"),
           coeff=True)
    demo = sub.add_parser("pullback-demo",
                          help="random pullback vs brute force")
    demo.add_argument("--seed", type=int, default=0)
    common(demo, group=False)
    return parser


_DISPATCH = {
    "subgroups": _cmd_subgroups,
    "marks": _cmd_marks,
    "burnside": _cmd_burnside,
    "conditions": _cmd_conditions,
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "pullback-demo": _cmd_pullback_demo,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text = _DISPATCH[args.verb](args)
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedDescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.format == "json":
            import json

            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; send what is left, and the flush at exit,
        # to devnull so no second error is raised.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


def run():
    """The console entry: main(), then flush stdout and stderr and end the
    process at once with os._exit.  A query keeps no open files, children
    or atexit work, so the interpreter's teardown, which frees every
    object one by one, only costs time.  An exception, SystemExit from
    argparse included, leaves the normal way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
