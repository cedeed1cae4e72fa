"""Every annotation in the package resolves: typing.get_type_hints succeeds
on each function and method defined at the top level of a module or in a
class body.  The functions are found by parsing the sources, so a new one
is checked without being listed here.  No module of the package, of the
tests or of the demos imports a name at its top level that it never
reads."""

import ast
import importlib
import pathlib
import typing

import pytest

import equisep

PACKAGE = pathlib.Path(equisep.__file__).parent
TESTS = pathlib.Path(__file__).parent
DEMOS = TESTS.parent / "demos"
# __main__ defines nothing and runs the command line when imported
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")


def _unwrap(obj):
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    return [getattr(obj, "__func__", obj)]


def _functions(stem):
    """(qualified name, function) for each def at the top level of the
    module or in a top-level class body."""
    name = "equisep" if stem == "__init__" else f"equisep.{stem}"
    module = importlib.import_module(name)
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, vars(module)[node.name]))
        elif isinstance(node, ast.ClassDef):
            cls = vars(module)[node.name]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for func in _unwrap(vars(cls)[item.name]):
                        out.append((f"{node.name}.{item.name}", func))
    return out


def test_every_module_is_checked():
    assert {"__init__", "_record", "cli", "classifier", "gset"} <= set(MODULES)
    assert sum(len(_functions(stem)) for stem in MODULES) > 200


@pytest.mark.parametrize("stem", MODULES)
def test_annotations_resolve(stem):
    failures = []
    for qualname, func in _functions(stem):
        try:
            typing.get_type_hints(func)
        except Exception as exc:  # any failure to resolve is reported
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert failures == []


def _unused_imports(path):
    """The names path's top-level imports bind that nothing in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) >= 5
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) + demos
    assert len(paths) > 30
    assert [u for path in paths for u in _unused_imports(path)] == []
