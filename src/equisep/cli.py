"""Command-line front end.

VERBS lists each verb once: its help, its options, the builder of its
JSON payload and the renderer of its text, which reads that payload alone,
so both formats report the same numbers by construction; only the
requested format is made.  Each builder imports the library modules it
runs, after its input is parsed, so a call loads only what its verb needs.
Exit codes: 0 success, 1 unsupported coefficient descriptor, 2 parse
error, 3 resource bound exceeded, and 141 (128 + SIGPIPE, as a shell
reports a process killed by SIGPIPE) when stdout is closed before the
output is written, e.g. by `| head -1`; that exit prints nothing to
stderr.  `run`, the console entry point, exits without tearing the
interpreter down; `main` returns the code instead.
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


def _read_options(args):
    """Read the verb's option strings, in this order, so the first bad one
    is the one reported: --max-size and --group (the group as args.g),
    then --coeff (as args.ring) and --seed."""
    given = vars(args)
    if "max_size" in given:
        args.max_size = _spec_int(args.max_size, "--max-size")
    if "group" in given:
        args.g = make_group(args.group)
    if "coeff" in given:
        args.ring = _parse_coeff(args.coeff)
    if "seed" in given:
        args.seed = _spec_int(args.seed, "--seed")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# Column headers that differ from the payload key the column shows.
_HEADERS = {"weyl_order": "weyl", "label": "component"}
_STAGE_KEYS = ("subgroup", "weyl_order", "ic", "rc", "sep_closed")


def _table(rows, keys) -> str:
    """The rows' values at keys, aligned in columns under their headers."""
    cells = [[_HEADERS.get(k, k) for k in keys]]
    cells += [[_cell(r[k]) for k in keys] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(keys))]
    return "\n".join(
        "  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in cells
    )


def _witness_lines(w) -> list:
    return [
        f"x1 = x2 = {w['x1']}",
        f"eta = {w['eta']}",
        f"fiber_size = {w['fiber_size']}",
        "certificate:",
        *("  {" + ", ".join(orbit) + "}" for orbit in w["certificate"]),
        f"note: {w['note']}",
    ]


def _subgroups(args):
    return [{"subgroup": c.name, "order": c.order, "class_size": c.class_size,
             "weyl_order": c.weyl_order}
            for c in subgroup_conjugacy_classes(args.g)]


def _subgroups_text(payload, args) -> str:
    return _table(payload, ("subgroup", "order", "class_size", "weyl_order"))


def _marks(args):
    from .burnside import table_of_marks

    return table_of_marks(args.g).to_json()


def _marks_text(payload, args) -> str:
    from .burnside import marks_layout

    return marks_layout(payload["classes"], payload["marks"])


def _burnside(args):
    perfect = [c.name for c in perfect_subgroup_classes(args.g)]
    return {
        "group": args.group,
        "blocks": len(perfect),
        "solvable": group_flags(args.g).is_solvable,
        "perfect_classes": perfect,
    }


def _burnside_text(payload, args) -> str:
    return (f"group: {payload['group']}\nblocks={payload['blocks']}\n"
            f"solvable={_cell(payload['solvable'])}\n"
            "perfect classes: " + ", ".join(payload["perfect_classes"]))


def _conditions(args):
    from .conditions import stage_report

    return [
        stage_report(args.g, cls, args.ring).to_json()
        for cls in subgroup_conjugacy_classes(args.g)
    ]


def _conditions_text(payload, args) -> str:
    lines = [_table(payload, _STAGE_KEYS)]
    for s in payload:
        lines.extend(f"{s['subgroup']}: {reason}" for reason in s["reasons"])
    return "\n".join(lines)


def _classify(args):
    from .classifier import classify

    return classify(args.g, args.ring, args.max_size).to_json()


def _classify_text(payload, args) -> str:
    lines = [f"verdict: {payload['verdict']}"]
    if payload["stages"]:
        lines.append(_table(payload["stages"], _STAGE_KEYS))
    if "groupoid" in payload:
        lines.append(f"components (size <= {args.max_size}):")
        lines.append(_table(payload["groupoid"], ("label", "aut_order")))
    if "witness" in payload:
        lines.extend(_witness_lines(payload["witness"]))
    lines.extend(f"note: {note}" for note in payload.get("notes", ()))
    return "\n".join(lines)


def _witness(args):
    from .witness import witness_nonstandard

    probe = witness_nonstandard(args.g, args.ring)
    if probe.found:
        return {"found": True, "witness": probe.record.to_json()}
    return {"found": False, "failures": list(probe.failures)}


def _witness_text(payload, args) -> str:
    if payload["found"]:
        return "\n".join(["witness found", *_witness_lines(payload["witness"])])
    return "\n".join(["witness absent",
                      *(f"  - {f}" for f in payload["failures"])])


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


def _pullback_demo(args):
    import random

    from .pullback import brute_force_pullback, pullback_pi0

    rng = random.Random(args.seed)
    pool = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
            symmetric_group(3)]
    d = _random_groupoid(rng, "d", pool, 2)
    b = _random_groupoid(rng, "b", pool, 3)
    c = _random_groupoid(rng, "c", pool, 3)
    f = _random_functor(rng, b, d)
    g = _random_functor(rng, c, d)
    comps = pullback_pi0(f, g)
    return {
        "seed": args.seed,
        "components": [p.to_json() for p in comps],
        "brute_force_matches": len(comps) == len(brute_force_pullback(f, g)),
    }


def _pullback_demo_text(payload, args) -> str:
    bases = ["|".join(p["base"]) for p in payload["components"]]
    # the fiber over a base pair has one component per double coset
    rows = [{**p, "base": base, "fiber_size": bases.count(base)}
            for base, p in zip(bases, payload["components"])]
    table = _table(rows, ("base", "fiber_index", "fiber_size", "aut_order"))
    return (f"seed: {payload['seed']}\n{table}\n"
            f"brute_force_matches={_cell(payload['brute_force_matches'])}")


def _json(payload, args) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


_OPTIONS = {
    "group": {"required": True,
              "help": "group spec, e.g. C6, S4, Q8, C2xC2, "
                      "perm:<degree>:<cycles>"},
    "coeff": {"default": "sphere", "help": "coefficients: sphere, Z, or Fp:<p>"},
    "max-size": {"default": "6",
                 "help": "G-set cardinality bound for the census"},
    "seed": {"default": "0"},
}

# verb: (help, options, builder, text renderer)
VERBS = {
    "subgroups": ("subgroup conjugacy classes", ("group",),
                  _subgroups, _subgroups_text),
    "marks": ("table of marks", ("group",), _marks, _marks_text),
    "burnside": ("idempotent blocks and solvability", ("group",),
                 _burnside, _burnside_text),
    "conditions": ("per-stage checks", ("group", "coeff"),
                   _conditions, _conditions_text),
    "classify": ("full classification", ("group", "coeff", "max-size"),
                 _classify, _classify_text),
    "witness": ("non-standard witness search", ("group", "coeff"),
                _witness, _witness_text),
    "pullback-demo": ("random pullback vs brute force", ("seed",),
                      _pullback_demo, _pullback_demo_text),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equisep",
        description="Classify separable algebras over finite group actions "
        "and compute the underlying G-set calculus.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, options, _, _) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


_EXIT_CODES = {GroupSpecError: 2, ResourceLimitError: 3,
               UnsupportedDescriptorError: 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, _, build, render = VERBS[args.verb]
    try:
        _read_options(args)
        payload = build(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for e, c in _EXIT_CODES.items() if isinstance(exc, e))
    text = (_json if args.format == "json" else render)(payload, args)
    try:
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
