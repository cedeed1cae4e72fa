import ast
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import equisep
from equisep import cli, group_core

from . import loc
from .reach import REFUSALS


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("EQUISEP_MAX_ORDER", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "equisep", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestGoldenOutputs:
    def test_classify_c4_sphere_json(self):
        proc = run_cli("classify", "--group", "C4", "--coeff", "sphere",
                       "--max-size", "4", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "AllStandard"
        assert len(payload["groupoid"]) == 10
        assert all(s["ic"] and s["rc"] for s in payload["stages"])

    def test_witness_c6_integers(self):
        proc = run_cli("witness", "--group", "C6", "--coeff", "Z",
                       "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["found"] is True
        wit = payload["witness"]
        assert wit["fiber_size"] == 2
        assert wit["eta"] == "(id,swap)"
        assert wit["certificate"] == [
            ["(id,id)", "(swap,swap)"],
            ["(id,swap)", "(swap,id)"],
        ]

    def test_burnside_a5(self):
        proc = run_cli("burnside", "--group", "A5")
        assert proc.returncode == 0
        assert "blocks=2" in proc.stdout
        assert "solvable=false" in proc.stdout
        as_json = json.loads(
            run_cli("burnside", "--group", "A5", "--format", "json").stdout
        )
        assert as_json["blocks"] == 2
        assert as_json["solvable"] is False

    def test_marks_s3_text(self):
        proc = run_cli("marks", "--group", "S3")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].split() == ["1a", "2a", "3a", "6a"]
        assert lines[1].split() == ["1a", "6", "0", "0", "0"]
        assert lines[4].split() == ["6a", "1", "1", "1", "1"]

    def test_subgroups_d4(self):
        proc = run_cli("subgroups", "--group", "D4", "--format", "json")
        rows = json.loads(proc.stdout)
        assert [r["subgroup"] for r in rows] == [
            "1a", "2a", "2b", "2c", "4a", "4b", "4c", "8a",
        ]
        assert rows[0]["weyl_order"] == 8
        assert sum(r["class_size"] * 0 + 1 for r in rows) == 8

    def test_witness_absent_c30(self):
        proc = run_cli("witness", "--group", "C30", "--coeff", "sphere")
        assert proc.returncode == 0
        assert "witness absent" in proc.stdout
        for name in ("C15", "C10", "C6"):
            assert name in proc.stdout


class TestTextJsonAgreement:
    def test_classify_c6_modes_agree(self):
        text = run_cli("classify", "--group", "C6", "--coeff", "sphere").stdout
        payload = json.loads(
            run_cli("classify", "--group", "C6", "--coeff", "sphere",
                    "--format", "json").stdout
        )
        assert "verdict: NonStandardWitness" in text
        assert payload["verdict"] == "NonStandardWitness"
        assert "fiber_size = 2" in text
        assert payload["witness"]["fiber_size"] == 2
        assert payload["witness"]["eta"] in text

    def test_conditions_c6_f5(self):
        payload = json.loads(
            run_cli("conditions", "--group", "C6", "--coeff", "Fp:5",
                    "--format", "json").stdout
        )
        assert [s["subgroup"] for s in payload] == ["1a", "2a", "3a", "6a"]
        assert [s["ic"] for s in payload] == [False, False, False, True]
        assert all(not s["sep_closed"] for s in payload)
        assert payload[3]["convention_flags"] == [
            "ic-convention", "rc-convention",
        ]


@pytest.mark.parametrize(
    "argv",
    [["subgroups", "--group", "S3"],
     ["marks", "--group", "S3"],
     ["burnside", "--group", "A5"],
     ["conditions", "--group", "C6", "--coeff", "Fp:5"],
     ["classify", "--group", "C6", "--coeff", "sphere"],
     ["witness", "--group", "C30", "--coeff", "sphere"],
     ["pullback-demo", "--seed", "3"]],
    ids=lambda argv: argv[0],
)
def test_only_the_requested_format_is_built(argv, monkeypatch, capsys):
    """The builder runs once per call; JSON mode never renders text, and
    text mode renders from the payload the builder returned."""
    help_text, options, build, render = cli.VERBS[argv[0]]
    built = []

    def counted(args):
        built.append((build(args), args))
        return built[-1][0]

    def no_text(payload, args):
        raise AssertionError("text rendered in JSON mode")

    monkeypatch.setitem(cli.VERBS, argv[0],
                        (help_text, options, counted, no_text))
    assert cli.main(argv + ["--format", "json"]) == 0
    assert len(built) == 1
    # through json.dumps, as a payload may hold tuples, written as arrays
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(built[0][0]))
    monkeypatch.setitem(cli.VERBS, argv[0],
                        (help_text, options, counted, render))
    assert cli.main(argv + ["--format", "text"]) == 0
    assert len(built) == 2
    assert capsys.readouterr().out == render(*built[1]) + "\n"


# numpy is not a dependency; dataclasses brings inspect, ast, dis and
# tokenize with it, string is not needed, and argparse (with gettext) is
# replaced by reading the VERBS table: each would add to the start-up cost
# of every command-line call.
HEAVY_MODULES = ("numpy", "dataclasses", "inspect", "ast", "dis", "tokenize",
                 "string", "argparse", "gettext")


@pytest.mark.parametrize(
    "run",
    ["import equisep.cli",
     "from equisep.cli import main; main(['subgroups', '--group', 'S3'])"],
    ids=["import", "subgroups-S3"],
)
def test_cli_child_loads_no_heavy_modules(run):
    probe = (f"import sys; {run}; "
             f"print([m for m in {HEAVY_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


LIBRARY = ("burnside", "classifier", "conditions", "families", "group_core",
           "groupoid_calc", "gset", "pullback", "witness")


def _loaded_by(code):
    """The modules a child interpreter adds to sys.modules while it runs
    code.  The child starts with -S, so no site hook preloads a module and
    hides its import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(equisep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("EQUISEP_MAX_ORDER", None)
    probe = ("import sys\nbefore = set(sys.modules)\n" + code + "\n"
             "print('--loaded--', *sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    marker, *loaded = proc.stdout.splitlines()[-1].split()
    assert marker == "--loaded--"
    return set(loaded)


def test_import_equisep_loads_no_submodule():
    loaded = _loaded_by("import equisep")
    assert "equisep" in loaded
    assert [m for m in loaded if m.startswith("equisep.")] == []


@pytest.mark.parametrize("module", LIBRARY)
def test_submodule_reads_as_attribute_of_a_fresh_package(module):
    """Each submodule's name reads on a plain `import equisep`, before
    anything has imported the submodule."""
    loaded = _loaded_by(f"import equisep\nequisep.{module}")
    assert f"equisep.{module}" in loaded


@pytest.mark.parametrize("argv, library", list(loc.CALLS.values()), ids=list(loc.CALLS))
def test_verb_loads_only_its_modules(argv, library):
    """Each call of tests.loc's CALLS loads equisep, _record, cli and the
    library modules of its row, and no __future__; only a JSON call loads
    json."""
    loaded = _loaded_by(f"from equisep.cli import main\nmain({argv!r})")
    ours = {m for m in loaded if m == "equisep" or m.startswith("equisep.")}
    assert ours == {"equisep", "equisep._record", "equisep.cli"} | {
        f"equisep.{m}" for m in library
    }
    assert "__future__" not in loaded
    assert ("json" in loaded) == ("json" in argv)
    if argv[0] in ("subgroups", "burnside"):
        assert loaded.isdisjoint({"typing", "random"})


# The package's public names.
PUBLIC_NAMES = """
CheckResult ClassificationOutcome FSplitting
Family FiniteGroupoid GSet GSetType Group GroupFlags GroupHom
GroupSpecError GroupoidComponent GroupoidFunctor PullbackComponent
ResourceLimitError RingDescriptor StageReport SubgroupClass TableOfMarks
Verdict WitnessProbe WitnessRecord all_homomorphisms alternating_group
aut_group burnside check_ic check_rc class_of_subgroup classifier classify
closure_family conditions coset_gset cyclic_group degree_is_constant
dihedral_group direct_product disjoint_union double_cosets
empty_family f_assemble f_split families
group_core group_flags groupoid_calc gset idempotent_block_count induce
integers is_indecomposable_mod mackey_decompose make_group
orbit_type perfect_subgroup_classes prime_field pullback pullback_pi0 quaternion_group realize_type restrict
sphere sphere_ic stage_report subgroup_conjugacy_classes symmetric_group
table_of_marks trivial_group trivial_gset truncated_gset_groupoid weyl_group
witness witness_nonstandard
""".split()


# Public names that no library module, demo or acceptance criterion reads,
# each kept for its reason.
KEPT: dict = {}
# Class members (record fields, public methods and properties) that no
# library module, demo or acceptance criterion reads, each kept for its
# reason.
KEPT_MEMBERS: dict = {}
ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(equisep.__file__).parent


def _read_names(tree, attributes_only=False) -> set:
    """The names a module reads: each Name, Attribute, imported name and
    imported module path part, or with attributes_only each Attribute
    alone, except inside the def or class that defines that name."""
    out = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif attributes_only:
            names = []
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = node.module.split(".")
        else:
            names = []
        out.update(n for n in names if n not in owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return out


def _names_read_by_users(attributes_only=False) -> set:
    """The names read, as _read_names reads them, by the library modules
    (the export table aside), the demos and the acceptance criteria."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    assert len(paths) > 15
    read = set()
    for path in paths:
        read |= _read_names(ast.parse(path.read_text()), attributes_only)
    return read


def _class_members() -> list:
    """(class, member) for each public __slots__ field and each public
    method or property of a class in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = []
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names.append(stmt.name)
                elif (isinstance(stmt, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "__slots__"
                              for t in stmt.targets)):
                    names += [e.value for e in stmt.value.elts]
            out += [(node.name, n) for n in names if not n.startswith("_")]
    return out


class TestLazyExports:
    def test_all_lists_the_public_names(self):
        assert len(PUBLIC_NAMES) == 74
        assert sorted(equisep.__all__) == PUBLIC_NAMES

    def test_every_public_name_is_read(self):
        """A public name is read by a library module (the export table
        aside), a demo or an acceptance criterion, or is kept for a
        reason."""
        read = _names_read_by_users()
        assert {n for n in equisep.__all__ if n not in read} == KEPT.keys()

    def test_every_class_member_is_read(self):
        """Each __slots__ field and each public method or property of a
        package class is read as an attribute, x.name, by a library
        module, a demo or an acceptance criterion, or is kept for a
        reason.  The check matches names, not owners: a read of .group
        anywhere counts for every class with a member called group, so a
        member that shares its name with one read elsewhere passes
        unread."""
        members = _class_members()
        assert len(members) > 80
        read = _names_read_by_users(attributes_only=True)
        unread = {f"{cls}.{name}" for cls, name in members if name not in read}
        assert unread == KEPT_MEMBERS.keys()

    def test_each_name_is_the_object_its_module_defines(self):
        for name in PUBLIC_NAMES:
            obj = getattr(equisep, name)
            if name in LIBRARY:
                assert obj is sys.modules[f"equisep.{name}"]
            else:
                assert obj.__module__.startswith("equisep."), name
                assert getattr(sys.modules[obj.__module__], name) is obj

    def test_star_import_and_dir_cover_every_name(self):
        namespace = {}
        exec("from equisep import *", namespace)
        assert set(PUBLIC_NAMES) <= namespace.keys()
        assert set(PUBLIC_NAMES) <= set(dir(equisep))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            equisep.no_such_name
        assert not hasattr(equisep, "no_such_name")


def test_child_stdout_matches_in_process_main(capsys):
    """`python -m equisep` ends with os._exit; the flush before it must
    hand over the whole of a large output (about 1 MB here)."""
    argv = ["marks", "--group", "S4xS4", "--format", "json"]
    env = os.environ.copy()
    env.pop("EQUISEP_MAX_ORDER", None)
    env.pop("PYTHONUNBUFFERED", None)  # the child's stdout must buffer
    proc = subprocess.run([sys.executable, "-m", "equisep", *argv],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


class TestDeterminismAndSeeds:
    def test_pullback_demo_deterministic(self):
        a = run_cli("pullback-demo", "--seed", "5")
        b = run_cli("pullback-demo", "--seed", "5")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert "brute_force_matches=true" in a.stdout

    def test_pullback_demo_json(self):
        payload = json.loads(
            run_cli("pullback-demo", "--seed", "9", "--format", "json").stdout
        )
        assert payload["brute_force_matches"] is True
        for comp in payload["components"]:
            assert set(comp) == {"base", "eta_rep", "fiber_index", "aut_order"}


class TestExitCodes:
    def test_parse_errors_exit_two(self):
        assert run_cli("subgroups", "--group", "Nope7").returncode == 2
        assert run_cli("conditions", "--group", "C2",
                       "--coeff", "Fq:5").returncode == 2
        assert run_cli("conditions", "--group", "C2",
                       "--coeff", "Fp:4").returncode == 2

    def test_missing_flags_exit_two(self):
        assert run_cli("subgroups").returncode == 2
        assert run_cli("not-a-verb").returncode == 2

    def test_resource_bound_exit_three(self):
        assert run_cli("subgroups", "--group", "S9").returncode == 3
        census = run_cli("classify", "--group", "C2xC2xC2xC2",
                         "--max-size", "32")
        assert census.returncode == 3
        assert "bound 200000" in census.stderr

    def test_oversized_lattice_refused_inside_search(self):
        # C2 to the 7th has 29,212 subgroups; the search stops past 10,000
        proc = run_cli("subgroups", "--group", "C2xC2xC2xC2xC2xC2xC2")
        assert proc.returncode == 3
        assert proc.stdout == ""
        found = re.fullmatch(
            r"error: subgroup lattice has at least (\d+) subgroups, over the "
            r"bound 10000 \(layer group_core\._all_subgroups\)\n",
            proc.stderr,
        )
        assert found is not None, proc.stderr
        # every conjugation orbit of an abelian group is a single subgroup
        assert int(found.group(1)) == group_core.SUBGROUP_BOUND + 1

    def test_burnside_of_oversized_solvable_lattice(self):
        # blocks come from solvability alone; the lattice is never built
        proc = run_cli("burnside", "--group", "C2xC2xC2xC2xC2xC2xC2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "group: C2xC2xC2xC2xC2xC2xC2\nblocks=1\nsolvable=true\n"
            "perfect classes: 1a\n"
        )

    @pytest.mark.parametrize("group", ["C4", "C6"])
    def test_negative_max_size_exit_two(self, group):
        proc = run_cli("classify", "--group", group, "--max-size", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    def test_count_table_over_bound_exit_three(self, monkeypatch, capsys):
        monkeypatch.setattr(group_core, "COUNT_CELL_BOUND", 120)
        assert cli.main(["marks", "--group", "S4", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: containment-count table of 11 classes has 121 cells, "
            "over the bound 120 (layer group_core._Lattice.counts)\n"
        )

    def test_large_prime_coefficient(self):
        ok = run_cli("conditions", "--group", "C2", "--coeff", "Fp:1000000007")
        assert ok.returncode == 0
        too_large = run_cli("conditions", "--group", "C2",
                            "--coeff", "Fp:3317044064679887385961981")
        assert too_large.returncode == 2
        assert too_large.stderr.startswith("error: ")

    def test_closed_stdout_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "equisep", "conditions",
                 "--group", "C30", "--coeff", "Fp:1000000007"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "spec",
        ["C" + "9" * 5000, "perm:" + "9" * 5000 + ":(1 2)",
         "perm:3:(1 " + "9" * 5000 + ")"],
        ids=["named-size", "perm-degree", "cycle-point"],
    )
    def test_huge_digit_strings_exit_two(self, spec):
        proc = run_cli("subgroups", "--group", spec)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot read ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["subgroups", "--group", "perm:\u0663:(1 2 3)"],
         ["subgroups", "--group", "perm:3:(\u0661 \u0662 \u0663)"],
         ["subgroups", "--group", "C\u0664"],
         ["conditions", "--group", "C2", "--coeff", "Fp:\u0667"],
         ["conditions", "--group", "C2", "--coeff", "Fp: 7"],
         ["conditions", "--group", "C2", "--coeff", "Fp:1_000_003"],
         ["conditions", "--group", "C2", "--coeff", "Fp:+7"],
         ["classify", "--group", "C2", "--max-size", "\u0663"],
         ["classify", "--group", "C2", "--max-size", " 3"],
         ["classify", "--group", "C2", "--max-size", "1_0"],
         ["classify", "--group", "C2", "--max-size", "+3"],
         ["pullback-demo", "--seed", "\u0663"],
         ["pullback-demo", "--seed", "+3"],
         ["pullback-demo", "--seed", "-3"]],
        ids=["perm-degree", "cycle-points", "named-size", "prime-digit",
             "prime-space", "prime-underscore", "prime-sign", "size-digit",
             "size-space", "size-underscore", "size-sign", "seed-digit",
             "seed-sign", "seed-negative"],
    )
    def test_decimal_fields_take_ascii_digits_only(self, argv, capsys):
        """int() would read each of these; a decimal field of the input
        is ASCII digits and nothing else."""
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "value",
        [" 5", "5 ", "+5", "1_0", "\u06630", "-1"],
        ids=["space-before", "space-after", "sign", "underscore", "digit",
             "negative"],
    )
    def test_max_order_env_takes_ascii_digits_only(self, value, monkeypatch,
                                                   capsys):
        """The bound from the environment is read as the command line's
        decimal fields are; -1 is refused as input, not taken as a bound."""
        monkeypatch.setenv("EQUISEP_MAX_ORDER", value)
        assert cli.main(["subgroups", "--group", "C2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad EQUISEP_MAX_ORDER {value!r}\n"

    @pytest.mark.parametrize(
        "spec",
        ["C2000xC" + "9" * 4299, "C" + "9" * 4299 + "xC" + "9" * 4299],
        ids=["past-digit-limit", "within-digit-limit"],
    )
    def test_huge_product_order_exit_three(self, spec):
        proc = run_cli("subgroups", "--group", spec)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: group of order ")
        assert proc.stderr.endswith(
            " exceeds the bound 2000 (layer group_core.make_group)\n"
        )
        assert proc.stderr.count("\n") == 1

    def test_order_past_digit_limit_is_not_printed(self):
        proc = run_cli("subgroups", "--group", "C2000xC" + "9" * 4299,
                       env_extra={"PYTHONINTMAXSTRDIGITS": "4300"})
        assert proc.stderr == (
            "error: group of order at least 10^4300 exceeds the bound 2000 "
            "(layer group_core.make_group)\n"
        )

    @pytest.mark.parametrize("fmt, digest", [
        ("text", "71388fc2e92ce65ddf89d984ec9eae628e771c1ac870f297c723cea42e50b667"),
        ("json", "d5a6047d3e68dcc53eba50e3c12a65ab7feadaccc40a30ceb718ac9fc6141d07"),
    ], ids=["text", "json"])
    def test_census_past_digit_limit_refused_before_enumerating(
        self, monkeypatch, capsys, fmt, digest
    ):
        """The census of C1 up to N lists N + 1 types, the largest of
        automorphism order N!.  1558! has 4,300 digits, and that census
        prints the bytes it always has; 1559! has 4,301, and that census
        is refused before a type is drawn, with the estimate named."""
        from equisep import groupoid_calc

        argv = ["classify", "--group", "C1", "--format", fmt, "--max-size"]
        code, out, err = _main_output(argv + ["1558"], capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")

        def boom(*args):
            raise AssertionError("the census was enumerated")

        monkeypatch.setattr(groupoid_calc, "_count_vectors", boom)
        for size, estimate in (("1559", "4302.6"), ("199999", "973344.9")):
            assert _main_output(argv + [size], capsys) == (3, "", (
                f"error: G-set census up to size {size} has an automorphism "
                f"order of about 10^{estimate}, over 4300 digits "
                "(layer groupoid_calc.truncated_gset_groupoid)\n"))

    def test_census_digit_bound_ignores_the_interpreter_limit(self):
        """The bound is fixed: lifting the interpreter's limit on printing
        an int does not admit the census."""
        proc = run_cli("classify", "--group", "C1", "--max-size", "199999",
                       env_extra={"PYTHONINTMAXSTRDIGITS": "0"})
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.count("\n") == 1 and "over 4300 digits" in proc.stderr

    def test_perm_degree_over_bound_refused_before_building(
        self, monkeypatch, capsys
    ):
        def boom(*args, **kwargs):
            raise AssertionError("built before the bound check")

        for name in ("closure", "identity_perm", "_parse_cycles"):
            monkeypatch.setattr(group_core, name, boom)
        monkeypatch.setenv("EQUISEP_MAX_ORDER", "50")
        with pytest.raises(group_core.ResourceLimitError, match="bound 50"):
            group_core.make_group("perm:51:(1 2)")
        monkeypatch.delenv("EQUISEP_MAX_ORDER")
        code = cli.main(["subgroups", "--group", "perm:300000000:(1 2)"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: perm degree 300000000 exceeds the bound 2000 "
            "(layer group_core.make_group)\n"
        )

    @pytest.mark.parametrize("spec, message", [
        ("S1001", "group S1001 exceeds every order bound "
                  "(layer group_core.make_group)"),
        ("perm:10:(1 2 3 4 5 6 7 8 9 10);(1 2)",
         "group order exceeds the bound 2000 (layer group_core.closure)"),
    ], ids=["factorial-degree", "perm-closure"])
    def test_order_refusals_name_their_layer(self, monkeypatch, capsys, spec, message):
        monkeypatch.delenv("EQUISEP_MAX_ORDER", raising=False)
        assert cli.main(["subgroups", "--group", spec]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_env_override_tightens_bound(self):
        ok = run_cli("subgroups", "--group", "C12")
        assert ok.returncode == 0
        denied = run_cli("subgroups", "--group", "C12",
                         env_extra={"EQUISEP_MAX_ORDER": "10"})
        assert denied.returncode == 3


@pytest.mark.parametrize(
    "argv, env, code", REFUSALS,
    ids=[" ".join([*(f"{k}={v}" for k, v in env.items()), *argv])[:40] or "no-words"
         for argv, env, _ in REFUSALS],
)
def test_each_refusal_site_exits_with_one_line(argv, env, code, monkeypatch,
                                               capsys):
    """Each command line of the reach corpus's refusals, at least one per
    site where the CLI refuses its input, leaves with its exit code and
    one `error:` line, and prints nothing on stdout."""
    monkeypatch.delenv("EQUISEP_MAX_ORDER", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(list(argv)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err[-1] == "\n"


def _main_output(argv, capsys):
    """cli.main(argv) in process: its code, stdout and stderr."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestArgumentReading:
    @pytest.mark.parametrize(
        "argv",
        [[], ["nope"], ["subgroups"], ["subgroups", "--group"],
         ["subgroups", "--gr", "S4"], ["subgroups", "S4"],
         ["marks", "-g", "S4"], ["subgroups", "--group", "S4", "--coeff", "Z"],
         ["subgroups", "--group", "S4", "--format", "xml"]],
        ids=["empty", "unknown-verb", "missing-group", "missing-value",
             "abbreviation", "bare-word", "short-option", "other-verbs-option",
             "bad-format"],
    )
    def test_refused_argv_exits_two_with_one_line(self, argv, capsys):
        code, out, err = _main_output(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "variant",
        [["classify", "--group=C4", "--coeff=Z", "--max-size=4",
          "--format=json"],
         ["classify", "--format", "json", "--max-size", "4", "--coeff", "Z",
          "--group", "C4"],
         ["classify", "--group", "S3", "--coeff", "sphere", "--max-size", "2",
          "--format", "text", "--group", "C4", "--coeff", "Z", "--max-size",
          "4", "--format", "json"]],
        ids=["equals", "swapped", "repeated"],
    )
    def test_spellings_print_the_same_bytes(self, variant, capsys):
        plain = ["classify", "--group", "C4", "--coeff", "Z", "--max-size", "4",
                 "--format", "json"]
        expected = _main_output(plain, capsys)
        assert expected[0] == 0 and expected[2] == ""
        assert _main_output(variant, capsys) == expected

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["classify", "--help"]],
                             ids=["help", "h", "classify-help"])
    def test_help(self, argv, capsys):
        code, out, err = _main_output(argv, capsys)
        assert code == 0
        assert err == ""
        verbs = [v for v in cli.VERBS if f"{v}: " in out]
        if argv[0] == "classify":
            assert verbs == ["classify"]
            for option in ("--group", "--coeff", "--max-size", "--format"):
                assert option in out
        else:
            assert verbs == list(cli.VERBS)


# each option's good and malformed values for the fuzzed command lines;
# a --max-size value is drawn from its own lists or the group lists, so
# every --max-size that reads as a number is at most 6
FUZZ_VALUES = {
    "group": (["C1", "C2", "C6", "S3", "D4", "Q8", "C2xC2", "perm:3:(1 2 3)"],
              ["S5", "C2000xC2", "X7", "C0", "C", "", "perm:3:(1 4)",
               "perm:x:(1 2)", "S4xT2", "perm:4:(1 2]", "a\nb"]),
    "coeff": (["sphere", "Z", "Fp:2", "Fp:5"],
              ["Fp:4", "Fp:", "Fp:-7", "Fp:\u0667", "Fp:+3", "Q"]),
    "max-size": (["0", "2", "4", "6"], ["-1", "+3", "\u0663", " 4", "x"]),
    "seed": (["0", "42", "987654321"],
             ["-3", "+5", "\u0661\u0662", "1_0"]),
    "format": (["text", "json"], ["xml", "JSON", ""]),
}
# words that are no option of any verb
FUZZ_JUNK = ["-h", "-g", "--", "-", "--gr", "--help=1", "x", "=", "--=",
             "\u00e9", "classify"]


def _fuzz_argv(rng):
    """A verb (now and then a wrong one), then most of its options in a
    random order, each as --option value or --option=value, with a good
    value more often than not; now and then a junk word, an option of
    another verb, a value meant for another option or a missing value."""
    verb = rng.choice(list(cli.VERBS) * 5 + ["nope", "--group", "-h"])
    options = [*cli.VERBS.get(verb, ((), ("group",)))[1], "format"]
    options = [o for o in options if rng.random() < 0.8]
    for _ in range(rng.choice((0, 0, 0, 0, 1))):
        options.append(rng.choice(list(FUZZ_VALUES)))
    argv = [verb]
    for option in rng.sample(options, len(options)):
        good, bad = FUZZ_VALUES[option if rng.random() < 0.95 else "group"]
        value = rng.choice(good if rng.random() < 0.85 else bad)
        if rng.random() < 0.3:
            argv.append(f"--{option}={value}")
        elif rng.random() < 0.03:
            argv.append(f"--{option}")  # its value left out
        else:
            argv += [f"--{option}", value]
        if rng.random() < 0.04:
            argv.append(rng.choice(FUZZ_JUNK))
    return argv


def test_fuzzed_command_lines_exit_with_one_line(monkeypatch, capsys):
    """Seeded random command lines: each call returns 0, 2 or 3, raises
    nothing, writes nothing to stderr on success and one error line
    otherwise."""
    monkeypatch.setenv("EQUISEP_MAX_ORDER", "60")
    rng = random.Random(17)
    codes = set()
    for _ in range(300):
        argv = _fuzz_argv(rng)
        code, out, err = _main_output(argv, capsys)
        codes.add(code)
        assert code in (0, 2, 3), argv
        if code:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
        else:
            assert err == "", argv
    assert codes == {0, 2, 3}
    assert set(cli._EXIT_CODES.values()) == {2, 3}
