"""Benchmark of the equisep command line, one cold process per query.

    python3 bench/run.py --workload lattice --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke
    python3 bench/run.py --write-golden

A single closed-loop client runs one CLI child at a time (``python3 -m
equisep ...`` with ``PYTHONPATH=src``), waits for it with ``os.wait4``
and records wall time, user+sys CPU and max RSS.  Each child is capped at
1 GiB of address space and 60 s of wall and CPU time, so a runaway query
counts as failed instead of exhausting the machine.  Queries come from
``workloads.py`` in whole cycles until at least ``--seconds`` of query
time have passed; every output is then checked by ``checks.py``.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` every query runs twice, plain and under ``tracer.py``, and
the last line holds the per-layer metrics.  Lines before it show the same
numbers for people.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  README.md maps each metric to
the workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp" / str(os.getpid())
sys.path.insert(0, str(BENCH))

from checks import CheckError, check, digest  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import ALL_STANDARD, CYCLES, Query, cycle  # noqa: E402

DEFAULT_SEED = 0
GOLDEN = BENCH / "golden.json"
SETUP_SPAWNS = 3  # bare imports per cycle boundary
AS_LIMIT = 1 << 30  # bytes of address space per child
TIME_LIMIT = 60  # seconds of wall and of CPU time per child
# A plain run measures at least MIN_CYCLES cycles.  The tail percentile is
# fixed per workload: the one that leaves TAIL_BEYOND samples above it in
# MIN_CYCLES cycles.  So it does not jump when a faster program fits more
# cycles into the run.
MIN_CYCLES = 2
TAIL_BEYOND = 10
IMPORT_CMD = [sys.executable, "-c", "import equisep.cli"]
# per-function inclusive time, summed over outermost calls
TIMED = ("group_core.make_group", "group_core.subgroup_conjugacy_classes",
         "group_core.weyl_group_with_section", "burnside.table_of_marks",
         "gset.aut_group", "groupoid_calc.truncated_gset_groupoid",
         "groupoid_calc.pullback_pi0", "groupoid_calc.brute_force_pullback",
         "classifier.witness_nonstandard", "families.exhaustive_filtration")
COUNTED = ("group_core.closure", "group_core.normalizer", "gset.fixed_points",
           "conditions.stage_report")


@dataclass
class Run:
    """One finished child process."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    t_spawn: float


@dataclass
class Outcome:
    query: Query
    run: Run
    error: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EQUISEP_MAX_ORDER", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list, env: dict) -> Run:
    """Run one child to completion under the address-space and time caps."""
    with open(TMP / "stdout", "w+b") as out, open(TMP / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        try:
            resource.prlimit(proc.pid, resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
            resource.prlimit(proc.pid, resource.RLIMIT_CPU, (TIME_LIMIT, TIME_LIMIT))
        except ProcessLookupError:
            pass  # already exited
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], TIME_LIMIT)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(proc.returncode, t1 - t0, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, out.read(), err.read(), t0)


def query_cmd(q: Query) -> list:
    return [sys.executable, "-m", "equisep", *q.argv]


def traced_cmd(q: Query, spans_file: Path) -> list:
    return [sys.executable, str(BENCH / "tracer.py"), str(spans_file), *q.argv]


def setup_times(env: dict) -> list:
    """Wall times of bare children that only import the CLI module."""
    runs = [spawn(IMPORT_CMD, env) for _ in range(SETUP_SPAWNS)]
    bad = [r for r in runs if r.rc != 0]
    if bad:
        sys.exit(f"error: importing equisep.cli failed: {bad[0].stderr.decode()}")
    return [r.wall for r in runs]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check_all(outcomes: list, golden: dict):
    seen: dict = {}
    for o in outcomes:
        r = o.run
        try:
            check(o.query, r.rc, r.stdout, r.stderr, seen, golden)
        except CheckError as exc:
            o.error = str(exc)
        except Exception as exc:  # unparseable output is a wrong output
            o.error = f"output not parseable: {exc!r}"


def tail(values: list, cycles: int):
    """(value, percentile): nearest rank, TAIL_BEYOND samples above it
    for every MIN_CYCLES cycles run."""
    xs = sorted(values)
    beyond = min(TAIL_BEYOND * cycles // MIN_CYCLES, len(xs) - 1)
    k = len(xs) - 1 - beyond
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(outcomes: list, setup: list, cycles: int) -> dict:
    walls = [o.run.wall for o in outcomes]
    failed = sum(o.error is not None for o in outcomes)
    tail_s, _ = tail(walls, cycles)
    return {
        "throughput_qps": (len(walls) / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_s, "s"),
        "cpu_s_per_query": (statistics.fmean(o.run.cpu for o in outcomes), "s"),
        "peak_rss_mb": (max(o.run.rss_mb for o in outcomes), "MB"),
        "success_frac": (1 - failed / len(outcomes), "frac"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _outermost(spans: list, i: int) -> bool:
    name, p = spans[i][0], spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def span_totals(doc: dict, run: Run) -> dict:
    """Per-layer and per-function totals for one traced child."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    tot: dict = {}

    def add(key, value):
        tot[key] = tot.get(key, 0) + value

    for i, (n, t0, t1, parent, size, hit) in enumerate(spans):
        fn = names[n]
        layer = fn.split(".")[0]
        add(f"{layer}.self_s", t1 - t0 - child[i])
        add(f"{layer}.calls", 1)
        if fn in TIMED and _outermost(spans, i):
            add(f"{fn}.s", t1 - t0)
        if fn in COUNTED:
            add(f"{fn}.calls", 1)
        if size is None:  # not sized, or the call raised
            continue
        if fn == "group_core.closure":
            add("group_core.closure.elements", size)
        elif fn == "group_core._all_subgroups" and hit is False:
            add("group_core.subgroups", size)
        elif fn == "gset.aut_group":
            add("gset.aut_group.elements", size)
        elif fn == "groupoid_calc.truncated_gset_groupoid":
            add("groupoid_calc.components", size)
    hits = sum(h for h, _ in doc["caches"].values())
    misses = sum(m for _, m in doc["caches"].values())
    add("cache_hits", hits)
    add("group_core.cache_lookups", hits + misses)
    add("startup.import_s", doc["t_imported"] - run.t_spawn)
    add("trace.wall_s", run.wall)
    return tot


def per_layer(pairs: list) -> dict:
    """Per-query means over (untraced, traced, span totals) triples."""
    n = len(pairs)
    tot: dict = {}
    for _, _, t in pairs:
        for k, v in t.items():
            tot[k] = tot.get(k, 0) + v
    plain = sum(u.run.wall for u, _, _ in pairs)
    traced = sum(t.run.wall for _, t, _ in pairs)

    def mean(key):
        return tot.get(key, 0) / n

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (mean(f"{layer}.self_s"), "s/query")
        out[f"{layer}.calls"] = (mean(f"{layer}.calls"), "count/query")
    out["startup.import_s"] = (mean("startup.import_s"), "s/query")
    out["group_core.closure.calls"] = (mean("group_core.closure.calls"), "count/query")
    out["group_core.closure.elements"] = (mean("group_core.closure.elements"),
                                          "count/query")
    out["group_core.subgroups"] = (mean("group_core.subgroups"), "count/query")
    out["group_core.normalizer.calls"] = (mean("group_core.normalizer.calls"),
                                          "count/query")
    lookups = tot.get("group_core.cache_lookups", 0)
    out["group_core.cache_hit_ratio"] = (
        tot.get("cache_hits", 0) / lookups if lookups else 0.0, "ratio")
    out["group_core.cache_lookups"] = (lookups / n, "count/query")
    out["gset.fixed_points.calls"] = (mean("gset.fixed_points.calls"), "count/query")
    out["gset.aut_group.elements"] = (mean("gset.aut_group.elements"), "count/query")
    out["groupoid_calc.components"] = (mean("groupoid_calc.components"),
                                       "count/query")
    out["conditions.stage_report.calls"] = (mean("conditions.stage_report.calls"),
                                            "count/query")
    for fn in TIMED:
        out[f"{fn}.s"] = (mean(f"{fn}.s"), "s/query")
    unattributed = (tot["trace.wall_s"] - tot["startup.import_s"]
                    - sum(tot.get(f"{layer}.self_s", 0) for layer in LAYERS))
    out["trace.unattributed_s"] = (unattributed / n, "s/query")
    out["trace.wall_s"] = (traced / n, "s/query")
    out["trace.untraced_wall_s"] = (plain / n, "s/query")
    out["trace.overhead_frac"] = (traced / plain - 1, "frac")
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool, env: dict):
    """Whole cycles of the workload until `seconds` of query time have run,
    and at least MIN_CYCLES of them unless traced.

    Set-up probes run before every cycle and after the last one, so that
    `setup_s` samples the same stretch of time as the queries.
    """
    outcomes, pairs, setup = [], [], []
    busy, index = 0.0, 0
    spans_file = TMP / "spans.json"
    min_cycles = 1 if traced else MIN_CYCLES
    while busy < seconds or index < min_cycles:
        setup += setup_times(env)
        for i, q in enumerate(cycle(workload, seed, index)):
            if not traced:
                outcomes.append(Outcome(q, spawn(query_cmd(q), env)))
                busy += outcomes[-1].run.wall
                continue
            # alternate which of the pair runs first, so that neither
            # gains from running second
            spans_file.unlink(missing_ok=True)
            if i % 2 == 0:
                plain = Outcome(q, spawn(query_cmd(q), env))
                t = Outcome(q, spawn(traced_cmd(q, spans_file), env))
            else:
                t = Outcome(q, spawn(traced_cmd(q, spans_file), env))
                plain = Outcome(q, spawn(query_cmd(q), env))
            outcomes += [plain, t]
            busy += plain.run.wall + t.run.wall
            if spans_file.exists():
                doc = json.loads(spans_file.read_text())
                pairs.append((plain, t, span_totals(doc, t.run)))
            else:  # killed before the tracer could write
                t.error = "no spans written"
        index += 1
    setup += setup_times(env)
    return outcomes, pairs, setup, index


def report(metrics: dict, outcomes: list, extra: dict):
    for name, (value, unit) in metrics.items():
        note = extra.get(name, "")
        print(f"  {name:44s} {value:14.6g} {unit:12s} {note}")
    bad = [o for o in outcomes if o.error]
    for o in bad[:20]:
        tag = "known defect" if o.query.known_defect else "FAILED"
        print(f"  {tag}: {o.query.key()}: {o.error}")
    if len(bad) > 20:
        print(f"  ... {len(bad) - 20} more failures")


def result_line(outcomes: list, metrics: dict) -> str:
    failed = [o for o in outcomes if o.error]
    return json.dumps({
        "correct": all(o.query.known_defect for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def bench(args, env: dict) -> int:
    spawn(IMPORT_CMD, env)  # warm-up: byte-compiles the package once
    outcomes, pairs, setup, cycles = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), env)
    check_all(outcomes, load_golden())
    walls = [o.run.wall for o in outcomes]
    failed = sum(o.error is not None for o in outcomes)
    runs = "2 runs each, plain and traced" if args.trace else "1 run each"
    print(f"workload {args.workload}, seed {args.seed}: {cycles} cycles, "
          f"{len(outcomes) // (1 + args.trace)} queries ({runs}), "
          "one closed-loop client")
    if args.trace:
        metrics = per_layer(pairs)
        extra = {"group_core.cache_hit_ratio":
                 f"over {metrics['group_core.cache_lookups'][0] * len(pairs):.0f} "
                 "lookups in 7 caches"}
    else:
        metrics = end_to_end(outcomes, setup, cycles)
        _, pct = tail(walls, cycles)
        extra = {"latency_tail_s": f"p{pct:.1f} of n={len(walls)}",
                 "success_frac": f"failed_frac={failed / len(walls):.4f} "
                                 f"({failed}/{len(walls)})",
                 "setup_s": f"median of {len(setup)} bare imports"}
    report(metrics, outcomes, extra)
    print(result_line(outcomes, metrics))
    return 0


SMOKE = (
    Query(("marks", "--group", "S3", "--format", "text")),
    Query(("classify", "--group", "C2", "--coeff", "sphere", "--max-size", "4",
           "--format", "json"), verdict=ALL_STANDARD),
    Query(("witness", "--group", "C6", "--coeff", "Z"), found=True),
)


def smoke(env: dict) -> int:
    """One tiny query per workload, traced, and a corrupted output to reject."""
    problems = []
    spans_file = TMP / "spans.json"
    outcomes = []
    for q in SMOKE:
        outcomes.append(Outcome(q, spawn(query_cmd(q), env)))
        t = Outcome(q, spawn(traced_cmd(q, spans_file), env))
        outcomes.append(t)
        totals = span_totals(json.loads(spans_file.read_text()), t.run)
        if not totals.get("cli.calls"):
            problems.append(f"no cli span traced for {q.key()}")
    check_all(outcomes, load_golden())
    problems += [f"{o.query.key()}: {o.error}" for o in outcomes if o.error]
    marks = outcomes[0].run
    corrupted = marks.stdout.replace(b"2a  3", b"2a  4", 1)
    try:
        check(SMOKE[0], 0, corrupted, b"", {}, {})
        problems.append("a corrupted marks table passed the checks")
    except CheckError as exc:
        print(f"corrupted marks table rejected: {exc}")
    if corrupted == marks.stdout:
        problems.append("the corruption did not change the marks output")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def write_golden(env: dict) -> int:
    """Digest every passing output of the default seed's first cycles."""
    golden = {}
    for workload in CYCLES:
        outcomes = [Outcome(q, spawn(query_cmd(q), env))
                    for index in range(MIN_CYCLES)
                    for q in cycle(workload, DEFAULT_SEED, index)]
        check_all(outcomes, {})
        for o in outcomes:
            if o.error is None and o.query.exit_code == 0:
                golden[o.query.key()] = digest(o.run.stdout)
            elif o.error and not o.query.known_defect:
                print(f"not recorded, check failed: {o.query.key()}: {o.error}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "equisep" / "cli.py").is_file():
        print(f"error: no equisep sources under {SRC}", file=sys.stderr)
        return 2
    TMP.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        if args.smoke:
            return smoke(env)
        if args.write_golden:
            return write_golden(env)
        if not args.workload:
            parser.error("--workload is required")
        return bench(args, env)
    finally:
        for f in TMP.iterdir():
            f.unlink()
        TMP.rmdir()
        try:
            TMP.parent.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
