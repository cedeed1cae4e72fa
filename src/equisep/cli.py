"""Command-line front end.

VERBS lists each verb once: its help, its options, the builder of its
JSON payload and the renderer of its text, which reads that payload alone,
so both formats report the same numbers by construction; only the
requested format is made.  The builders write every payload key from the
library's plain records, so the output format has this one home.
_OPTIONS gives each option its default and the reader of its text.  The
command line is read from these two tables alone: the first word is the
verb, the rest are its options, each
--option value or --option=value in any order, the last one given
counting, and -h or --help anywhere prints the help built from them.
Each builder imports the library modules it runs, after its input is
parsed, so a call loads only what its verb needs.
Exit codes: 0 success, 2 parse error, 3 resource bound exceeded, and
141 (128 + SIGPIPE, as a shell reports a process killed by SIGPIPE) when
stdout is closed before the output is written, e.g. by `| head -1`; that
exit prints nothing to stderr.  Every refused input, a malformed command
line included, leaves through _EXIT_CODES as one `error:` line on
stderr.  A traceback (exit 1) is never a refusal; it marks a fault in
the code.  `run`, the console entry point, exits without tearing the
interpreter down; `main` returns the code instead.
"""

import os
import sys
from types import SimpleNamespace

from .group_core import (
    GroupSpecError,
    ResourceLimitError,
    _spec_int,
    cyclic_group,
    group_flags,
    make_group,
    perfect_subgroup_classes,
    subgroup_conjugacy_classes,
    symmetric_group,
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


def _stage(rep) -> dict:
    """The payload row of a stage report."""
    checks = (("ic", rep.ic), ("rc", rep.rc))
    return {"subgroup": rep.subgroup.name, "weyl_order": rep.weyl_order,
            **{k: c.ok for k, c in checks}, "sep_closed": rep.sep_closed,
            "reasons": [f"{k}: {c.rule}" for k, c in checks],
            "convention_flags": [f"{k}-convention"
                                 for k, c in checks if c.convention]}


def _witness_record(w) -> dict:
    """The payload of a witness record; x1 serves as both corners."""
    return {"x1": w.x1.label(), "x2": w.x1.label(), "eta": w.eta_text,
            "fiber_size": w.fiber_size, "primes": list(w.primes), "note": w.note,
            "certificate": [list(orbit) for orbit in w.double_coset_certificate]}


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

    tom = table_of_marks(args.g)
    return {"classes": [c.name for c in tom.classes],
            "marks": tom.marks}


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

    return [_stage(stage_report(cls, args.ring))
            for cls in subgroup_conjugacy_classes(args.g)]


def _conditions_text(payload, args) -> str:
    lines = [_table(payload, _STAGE_KEYS)]
    for s in payload:
        lines.extend(f"{s['subgroup']}: {reason}" for reason in s["reasons"])
    return "\n".join(lines)


def _classify(args):
    from .classifier import classify

    out = classify(args.g, args.ring, args.max_size)
    payload = {"verdict": out.verdict.value,
               "stages": [_stage(rep) for rep in out.stage_reports]}
    if out.groupoid is not None:
        payload["groupoid"] = [{"label": t.label(), "aut_order": t.aut_order}
                               for t in out.groupoid]
    if out.witness is not None:
        payload["witness"] = _witness_record(out.witness)
    if out.notes:
        payload["notes"] = list(out.notes)
    return payload


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
        return {"found": True, "witness": _witness_record(probe.record)}
    return {"found": False, "failures": list(probe.failures)}


def _witness_text(payload, args) -> str:
    if payload["found"]:
        return "\n".join(["witness found", *_witness_lines(payload["witness"])])
    return "\n".join(["witness absent",
                      *(f"  - {f}" for f in payload["failures"])])


def _pullback_demo(args):
    import random

    from .pullback import (_orbit_count, pullback_pi0, random_functor,
                           random_groupoid)

    rng = random.Random(args.seed)
    pool = [cyclic_group(n) for n in (1, 2, 3, 4)] + [symmetric_group(3)]
    d = random_groupoid(rng, "d", pool, 2)
    b = random_groupoid(rng, "b", pool, 3)
    c = random_groupoid(rng, "c", pool, 3)
    f = random_functor(rng, b, d)
    g = random_functor(rng, c, d)
    comps = pullback_pi0(f, g)
    return {
        "seed": args.seed,
        "components": [{"base": list(p.base),
                        "eta_rep": ",".join(map(str, p.eta_class)),
                        "fiber_index": p.fiber_index, "aut_order": p.aut_order}
                       for p in comps],
        "brute_force_matches": len(comps) == _orbit_count(f, g),
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


def _format(text: str) -> str:
    if text not in ("text", "json"):
        raise GroupSpecError(f"--format must be text or json, not {text!r}")
    return text


# option: (attribute it is read into, its default text or None if it is
# required, the reader of its text, help).  The options are read in this
# order, so the first bad one is the one reported.  The readers of --group
# and --coeff look their function up when called, so a wrapper set on this
# module (a tracer's span, a test's stub) takes effect.
_OPTIONS = {
    "format": ("format", "text", _format, "text or json"),
    "max-size": ("max_size", "6", lambda text: _spec_int(text, "--max-size"),
                 "G-set cardinality bound for the census"),
    "group": ("g", None, lambda text: make_group(text),
              "group spec, e.g. C6, S4, Q8, C2xC2, perm:<degree>:<cycles>"),
    "coeff": ("ring", "sphere", lambda text: _parse_coeff(text),
              "coefficients: sphere, Z, or Fp:<p>"),
    "seed": ("seed", "0", lambda text: _spec_int(text, "--seed"),
             "seed of the random groupoids"),
}

# verb: (help, options besides --format, builder, text renderer)
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
    "pullback-demo": ("random pullback vs a Burnside count", ("seed",),
                      _pullback_demo, _pullback_demo_text),
}


def _parse(argv):
    """The verb argv[0] and its options, each written --option value or
    --option=value; a value may start with "-", and the last one given
    counts.  Once every word is placed, the options are read in _OPTIONS
    order: --group into args.g (its text stays args.group), --coeff into
    args.ring, and the rest under their own names."""
    verb = argv[0] if argv else None
    if verb not in VERBS:
        raise GroupSpecError(f"expected a verb ({', '.join(VERBS)}), got {verb!r}")
    given = {option: _OPTIONS[option][1] for option in (*VERBS[verb][1], "format")}
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        value = value if eq else next(words, None)
        if name[:2] != "--" or name[2:] not in given or value is None:
            raise GroupSpecError(f"cannot read {word!r}; {verb} takes "
                                 + ", ".join(f"--{o} VALUE" for o in given))
        given[name[2:]] = value
    args = SimpleNamespace(verb=verb, group=given.get("group"))
    for option, (attribute, _, read, _) in _OPTIONS.items():
        if option in given:
            if given[option] is None:
                raise GroupSpecError(f"{verb} needs --{option}")
            setattr(args, attribute, read(given[option]))
    return args


def _help(verb) -> str:
    """The verb's help, then each of its options with its help and default."""
    lines = [f"{verb}: {VERBS[verb][0]}"]
    for option in (*VERBS[verb][1], "format"):
        _, default, _, text = _OPTIONS[option]
        need = "required" if default is None else f"default {default}"
        lines.append(f"  --{option:<9} {text} ({need})")
    return "\n".join(lines)


_EXIT_CODES = {GroupSpecError: 2, ResourceLimitError: 3}


def main(argv) -> int:
    """Answer the command line argv (the words after the program name) and
    return its exit code; no input makes it raise SystemExit."""
    if "-h" in argv or "--help" in argv:
        text = "\n".join(map(_help, argv[:1] if argv[0] in VERBS else VERBS))
    else:
        try:
            args = _parse(argv)
            payload = VERBS[args.verb][2](args)
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(c for e, c in _EXIT_CODES.items() if isinstance(exc, e))
        render = _json if args.format == "json" else VERBS[args.verb][3]
        text = render(payload, args)
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
    """The console entry: main() on sys.argv, then flush stdout and stderr
    and end the process at once with os._exit.  A query keeps no open
    files, children or atexit work, so the interpreter's teardown, which
    frees every object one by one, only costs time.  An exception from a
    fault in the code still leaves the normal way."""
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
