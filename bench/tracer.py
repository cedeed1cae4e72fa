"""Run one equisep CLI query with a span around every layer entry point.

Usage: python3 bench/tracer.py SPANS_FILE CLI_ARG...

Each layer is one module of the library.  Before the query runs, every
public function of a layer (plus ``group_core._all_subgroups``) is
replaced, in every equisep module that holds a reference to it, by a
wrapper that records a span: function, start, end, parent span, and for a
few functions the size of the result.  Per-element permutation
primitives are left alone: they run millions of times per query and
would swamp the measurement.  Spans stay in memory and are written to
SPANS_FILE as JSON when the query ends, with the lru_cache statistics of
``group_core``.  The exit code is the CLI's.
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

LAYERS = ("group_core", "gset", "families", "burnside", "groupoid_calc",
          "conditions", "classifier", "cli")
PRIMITIVES = {"pmul", "pinv", "pconj", "identity_perm", "perm_order"}
PRIVATE_ENTRY_POINTS = {"group_core": ("_all_subgroups",)}
# functions whose result size is recorded, and how to read it
SIZED = {
    "group_core.closure": len,
    "group_core._all_subgroups": len,
    "gset.aut_group": lambda g: g.order,
    "groupoid_calc.truncated_gset_groupoid": len,
}


def _entry_points(module, layer):
    for name, obj in vars(module).items():
        if name in PRIMITIVES:
            continue
        if name.startswith("_") and name not in PRIVATE_ENTRY_POINTS.get(layer, ()):
            continue
        is_cached = hasattr(obj, "cache_info")
        if not (isinstance(obj, types.FunctionType) or is_cached):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj, is_cached


class Recorder:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent, size, cache hit]
        self.stack = []

    def wrap(self, qualname, fn, is_cached):
        idx = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self.stack
        size_of = SIZED.get(qualname)
        clock = time.perf_counter
        info = fn.cache_info if is_cached else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            misses = info().misses if info else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info:
                span[5] = info().misses == misses
            if size_of is not None:
                span[4] = size_of(result)
            return result

        return wrapper

    def patch(self, modules):
        originals = {}
        for layer, module in modules.items():
            for name, fn, is_cached in _entry_points(module, layer):
                originals[id(fn)] = self.wrap(f"{layer}.{name}", fn, is_cached)
        for module in [sys.modules["equisep"], *modules.values()]:
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)


def main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    modules = {layer: importlib.import_module(f"equisep.{layer}")
               for layer in LAYERS}
    t_imported = time.perf_counter()
    caches = {name: fn for name, fn, cached
              in _entry_points(modules["group_core"], "group_core") if cached}
    rec = Recorder()
    rec.patch(modules)
    code = 1
    try:
        code = modules["cli"].main(cli_args)
    except SystemExit as exc:
        code = exc.code
        raise
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump({
                "t_start": T_START,
                "t_imported": t_imported,
                "t_end": time.perf_counter(),
                "names": rec.names,
                "spans": rec.spans,
                "caches": {k: list(fn.cache_info()[:2]) for k, fn in caches.items()},
                "exit_code": code,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
