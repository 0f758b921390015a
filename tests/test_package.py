"""The package surface: what the root binds, and the modules each entry point loads."""

from __future__ import annotations

import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapchi
from mapchi import btutte, eulerchar, maporacle, mapseries

SRC = Path(__file__).resolve().parent.parent / "src"


def test_star_import_binds_all():
    namespace: dict[str, object] = {}
    exec("from mapchi import *", namespace)
    assert set(mapchi.__all__) <= set(namespace)
    assert "map_count_table" not in namespace
    assert namespace["TruncationError"] is mapchi.TruncationError
    assert namespace["RouteMismatchError"] is mapchi.RouteMismatchError


def test_shared_errors_live_in_the_package_root():
    """The shared errors and the guards live in the root; every layer binds those guards.

    The CLI checks no reach itself: each request past one is refused by the
    layer that serves it.
    """
    from mapchi import cli, symfunc, verify

    for layer in (btutte, eulerchar, maporacle, mapseries, verify):
        assert layer.check_truncation is mapchi.check_truncation
    assert not hasattr(cli, "check_truncation")
    for layer in (cli, eulerchar, maporacle):
        assert layer.check_indices is mapchi.check_indices
    assert mapchi.check_truncation.__module__ == "mapchi"
    assert mapchi.check_indices.__module__ == "mapchi"
    for layer in (eulerchar, maporacle, symfunc, verify):
        assert layer.check_agreement is mapchi.check_agreement
    assert mapchi.check_agreement.__module__ == "mapchi"
    assert mapchi.RouteMismatchError is eulerchar.RouteMismatchError
    assert issubclass(mapchi.TruncationError, ValueError)


def test_the_guard_is_the_only_raise_of_truncation_error():
    raising = {
        path.name: path.read_text().count("raise TruncationError")
        for path in (SRC / "mapchi").glob("*.py")
    }
    assert {name: count for name, count in raising.items() if count} == {"__init__.py": 1}


def test_the_guard_is_the_only_raise_of_route_mismatch_error():
    """Apart from the guard, only log W's negative-power invariant raises it."""
    raising = {
        path.name: path.read_text().count("raise RouteMismatchError")
        for path in (SRC / "mapchi").glob("*.py")
    }
    assert {name: count for name, count in raising.items() if count} == {
        "__init__.py": 1,
        "eulerchar.py": 1,
    }


def test_agreement_guard_names_the_first_differing_key_in_sorted_order():
    # Both the insertion order and the set order of these keys put 9 first.
    with pytest.raises(mapchi.RouteMismatchError) as caught:
        mapchi.check_agreement("rows", "left", {9: 1, 1: 5, 2: 7}, "right", {9: 2, 1: 5, 2: 8})
    assert str(caught.value) == "rows at 2: left 7, right 8"


def test_agreement_guard_reads_an_absent_key_as_zero():
    assert mapchi.check_agreement("rows", "left", {1: 5, 2: 0}, "right", {1: 5, 3: 0}) == 3
    with pytest.raises(mapchi.RouteMismatchError, match=r"^rows at 4: left 0, right 1$"):
        mapchi.check_agreement("rows", "left", {1: 5}, "right", {1: 5, 4: 1})


def test_agreement_guard_compares_other_values_whole():
    assert mapchi.check_agreement("pair", "left", (1, 2), "right", (1, 2)) == 1
    assert mapchi.check_agreement("list", "left", [], "right", []) == 1
    with pytest.raises(mapchi.RouteMismatchError, match=r"^pair: left \(1, 2\), right \(2, 1\)$"):
        mapchi.check_agreement("pair", "left", (1, 2), "right", (2, 1))
    with pytest.raises(mapchi.RouteMismatchError, match="^mixed: "):
        mapchi.check_agreement("mixed", "left", {1: 2}, "right", 2)


def test_agreement_guard_returns_the_number_of_keys_compared():
    assert mapchi.check_agreement("none", "left", {}, "right", {}) == 0
    assert mapchi.check_agreement("rows", "left", {"a": 1, "b": 2}, "right", {"b": 2, "a": 1}) == 2


def _is_index(node):
    """`g` or `s` as a name or an attribute, or `min` of such indices."""
    if isinstance(node, ast.Name):
        return node.id in ("g", "s")
    if isinstance(node, ast.Attribute):
        return node.attr in ("g", "s")
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "min"
        and all(_is_index(arg) for arg in node.args)
    )


def _below_one(node):
    """A comparison that holds exactly when an index is below 1."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
        return False
    (op,), left, (right,) = node.ops, node.left, node.comparators
    if isinstance(op, (ast.Gt, ast.GtE)):
        op, left, right = (ast.Lt() if isinstance(op, ast.Gt) else ast.LtE()), right, left
    bound = {ast.Lt: 1, ast.LtE: 0}.get(type(op))
    return (
        bound is not None
        and _is_index(left)
        and isinstance(right, ast.Constant)
        and right.value == bound
    )


def _domain_refusals(tree):
    """The `if`s that test an index below 1 and raise or return in their body."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and any(_below_one(test) for test in ast.walk(node.test))
        and any(isinstance(leaf, (ast.Raise, ast.Return)) for leaf in ast.walk(node))
    ]


def _raised_text(tree):
    """Every string piece that a `raise` statement spells out."""
    return "\n".join(
        leaf.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for leaf in ast.walk(node)
        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
    )


def test_the_index_guard_is_the_only_check_of_the_domain():
    """Only `check_indices` refuses g < 1 or s < 1, and only it raises the template."""
    trees = {path.name: ast.parse(path.read_text()) for path in (SRC / "mapchi").glob("*.py")}
    checking = {name: len(_domain_refusals(tree)) for name, tree in trees.items()}
    assert {name: count for name, count in checking.items() if count} == {"__init__.py": 1}
    raising = {name: _raised_text(tree).count("g >= 1 and s >= 1") for name, tree in trees.items()}
    assert {name: count for name, count in raising.items() if count} == {"__init__.py": 1}


def _verify_at(max_edges):
    from mapchi.verify import run_verify

    return run_verify(max_edges=max_edges)


#: Each library site of the reach guard, with a request one edge past its reach.
PAST_REACH = {
    "map_count_table(11)": (
        lambda: btutte.map_count_table(11),
        "the map-count table needs 11 edges; it reaches 10",
    ),
    "jack_partition_sum(6)": (
        lambda: mapseries.jack_partition_sum(6),
        "the Jack series needs 6 edges; it reaches 5",
    ),
    "run_verify(max_edges=11)": (
        lambda: _verify_at(11),
        "verify-all needs 11 edges; it reaches 10",
    ),
    "rooted_orientable_counts(7)": (
        lambda: maporacle.rooted_orientable_counts(7),
        "the orientable census needs 7 edges; it reaches 6",
    ),
    "rooted_locally_orientable_counts(6)": (
        lambda: maporacle.rooted_locally_orientable_counts(6),
        "the all-surfaces census needs 6 edges; it reaches 5",
    ),
    "lambda_from_census(1, 2)": (
        lambda: maporacle.lambda_from_census(1, 2),
        "Lambda(1,2) from the censuses needs 6 edges; it reaches 5",
    ),
    "xi_from_maps(2, 1, table3)": (
        lambda: eulerchar.xi_from_maps(2, 1, btutte.map_count_table(3)),
        "xi(2,1) from map counts needs 6 edges; it reaches 3",
    ),
}


@pytest.mark.parametrize(("call", "message"), PAST_REACH.values(), ids=PAST_REACH)
def test_out_of_reach_requests_raise_truncation_error(call, message):
    with pytest.raises(mapchi.TruncationError) as caught:
        call()
    assert str(caught.value) == message


#: The same sites asked for no edge.  The (g, s) sites take their edge count
#: from `lambda_edges`, which is positive for every g, s >= 1, so the test
#: makes it end at 0.
ZERO_EDGES = {
    "map_count_table(0)": (lambda: btutte.map_count_table(0), "the map-count table"),
    "jack_partition_sum(0)": (lambda: mapseries.jack_partition_sum(0), "the Jack series"),
    "run_verify(max_edges=0)": (lambda: _verify_at(0), "verify-all"),
    "rooted_orientable_counts(0)": (
        lambda: maporacle.rooted_orientable_counts(0),
        "the orientable census",
    ),
    "rooted_locally_orientable_counts(0)": (
        lambda: maporacle.rooted_locally_orientable_counts(0),
        "the all-surfaces census",
    ),
    "lambda_from_census(1, 1)": (
        lambda: maporacle.lambda_from_census(1, 1),
        "Lambda(1,1) from the censuses",
    ),
    "xi_from_maps(1, 1, table3)": (
        lambda: eulerchar.xi_from_maps(1, 1, btutte.map_count_table(3)),
        "xi(1,1) from map counts",
    ),
}


@pytest.mark.parametrize(("call", "what"), ZERO_EDGES.values(), ids=ZERO_EDGES)
def test_zero_edge_requests_raise_value_error(monkeypatch, call, what):
    monkeypatch.setattr(eulerchar, "lambda_edges", lambda g, s: range(0, 1))
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{what} needs at least 1 edge, got 0"


#: Each library site of the index guard, as a call at (g, s) and the request
#: its refusal names.
DOMAIN = {
    "xi_closed": (lambda g, s: eulerchar.xi_closed(g, s), "xi({g},{s})"),
    "xi_from_logW": (lambda g, s: eulerchar.xi_from_logW(g, s), "xi({g},{s})"),
    "xi_from_maps": (lambda g, s: eulerchar.xi_from_maps(g, s), "xi({g},{s})"),
    "lambda_values": (lambda g, s: eulerchar.lambda_values(g, s), "Lambda({g},{s})"),
    "chi_complex": (lambda g, s: eulerchar.chi_complex(g, s), "Lambda({g},{s})"),
    "chi_fixed_curves": (
        lambda g, s: eulerchar.chi_fixed_curves(g, s, 0, separating=False),
        "chi({g},{s}) with 0 fixed curves",
    ),
    "lambda_from_census": (
        lambda g, s: maporacle.lambda_from_census(g, s),
        "Lambda({g},{s}) from the censuses",
    ),
}


@pytest.mark.parametrize(("g", "s"), [(0, 1), (1, 0)])
@pytest.mark.parametrize(("call", "what"), DOMAIN.values(), ids=DOMAIN)
def test_indices_outside_the_domain_raise_value_error(call, what, g, s):
    with pytest.raises(ValueError) as caught:
        call(g, s)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{what.format(g=g, s=s)} needs g >= 1 and s >= 1"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mapchi.no_such_name  # noqa: B018


def test_dir_covers_all():
    assert set(mapchi.__all__) <= set(dir(mapchi))


def test_the_root_holds_only_what_its_file_binds():
    """Each public name of `mapchi` is bound in its own file or is a loaded submodule.

    The root routes no name to a layer: it defines no `__getattr__`, and its
    `__all__` lists only names it binds itself.
    """
    bound = _bound_names(ast.parse((SRC / "mapchi" / "__init__.py").read_text()))
    assert not hasattr(mapchi, "__getattr__")
    assert set(mapchi.__all__) <= bound
    foreign = {
        name
        for name in dir(mapchi)
        if not name.startswith("_")
        and name not in bound
        and getattr(getattr(mapchi, name), "__name__", None) != f"mapchi.{name}"
    }
    assert not foreign


#: Each public layer name the root used to re-export, with its one home module.
HOMES = {
    **dict.fromkeys(
        ("ALPHA", "AlphaFn", "TruncatedSeries", "UniPoly", "VariableMixError")
        + ("bernoulli", "poly_str"),
        "arith",
    ),
    **dict.fromkeys(
        ("ExtractionError", "MapCountTable", "map_count_table")
        + ("nonneg_report", "specialize_counts"),
        "btutte",
    ),
    **dict.fromkeys(
        ("INV_GAMMA", "LambdaTriple", "ParityError", "chi_complex", "chi_fixed_curves")
        + ("chi_real", "eval_at_gamma", "lambda_values", "logW_series", "xi_closed")
        + ("xi_from_logW", "xi_from_maps"),
        "eulerchar",
    ),
    **dict.fromkeys(
        ("GlueCensus", "double_cover_lift_check", "glue_census", "lambda_from_census")
        + ("rooted_locally_orientable_counts", "rooted_orientable_counts"),
        "maporacle",
    ),
    **dict.fromkeys(("extract_map_counts", "jack_partition_sum"), "mapseries"),
    **dict.fromkeys(
        ("MapKey", "Partition", "partitions_of", "vertex_distribution_of", "z_of"),
        "partitions",
    ),
    **dict.fromkeys(
        ("JackRecord", "JackSystemError", "PowerSumExpr", "cauchy_check")
        + ("inner_product", "jack"),
        "symfunc",
    ),
}


@pytest.mark.parametrize("name", sorted(HOMES))
def test_layer_name_lives_in_its_home_alone(name):
    """The home module's own file binds the name, and the root does not reach it."""
    home = HOMES[name]
    module = importlib.import_module(f"mapchi.{home}")
    assert name in _bound_names(ast.parse((SRC / "mapchi" / f"{home}.py").read_text()))
    assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__
    assert name not in vars(mapchi)
    with pytest.raises(AttributeError):
        getattr(mapchi, name)


def _modules_after(statements: str) -> set[str]:
    """sys.modules of a fresh `python -S` after the statements run.

    -S keeps site hooks (.pth files) from importing modules of their own.
    """
    script = f"import sys\n{statements}\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


#: The rational arithmetic: `fractions` loads `decimal` and `numbers`.
RATIONAL = {"fractions", "decimal", "numbers"}

#: Standard modules that neither `import mapchi.cli` nor any command loads.
NEVER_LOADED = {
    "json",
    "argparse",
    "gettext",
    "locale",
    "dataclasses",
    "inspect",
    "logging",
}


def test_import_mapchi_loads_no_submodule():
    loaded = _modules_after("import mapchi")
    assert not {m for m in loaded if m.startswith("mapchi.")}


def test_import_cli_loads_no_layer():
    loaded = _modules_after("import mapchi.cli")
    assert not (RATIONAL | NEVER_LOADED) & loaded
    assert {m for m in loaded if m.startswith("mapchi")} == {"mapchi", "mapchi.cli"}


def _rows(argvs, code, layers, fractions):
    return [(argv, code, {"cli", *layers}, fractions) for argv in argvs]


#: What each command loads, row for row as README's cost-model table states
#: it: (argv, exit code, the `mapchi` submodules, whether `fractions` loads).
LOADS = [
    *_rows([["--version"], ["-h"]], 0, (), False),
    # Refused by the index guard, by an option's converter or by the handler's
    # option-mix check, before any layer loads.
    *_rows(
        [
            ["euler", "xi", "--g", "0", "--s", "1"],
            ["euler", "xi", "--g", "601", "--s", "1"],
            ["jack", "--shape", "8,7"],
            ["jack", "--shape", "6,5"],
            ["oracle", "glue", "--sides", "8,6"],
            ["euler", "chi", "--variant", "real", "--g", "1", "--s", "1", "--m", "2"],
            ["euler", "chi", "--variant", "fixed", "--g", "1", "--s", "1"],
        ],
        2,
        (),
        False,
    ),
    *_rows(
        [
            ["oracle", "glue", "--sides", "4,2"],
            ["oracle", "rooted", "--edges", "3"],
            ["oracle", "rooted", "--edges", "3", "--surface", "all"],
        ],
        0,
        ("maporacle", "partitions"),
        False,
    ),
    # Refused: the oracle raises TruncationError from the package root.
    *_rows(
        [
            ["oracle", "rooted", "--edges", "7"],
            ["oracle", "rooted", "--edges", "6", "--surface", "all"],
        ],
        2,
        ("maporacle", "partitions"),
        False,
    ),
    # Refused by the index guard before the oracle loads `eulerchar`.
    *_rows([["oracle", "lambda", "--g", "0", "--s", "1"]], 2, ("maporacle", "partitions"), False),
    *_rows(
        [["oracle", "lambda", "--g", "1", "--s", "1"]],
        0,
        ("maporacle", "partitions", "eulerchar", "arith"),
        True,
    ),
    *_rows(
        [
            ["euler", "xi", "--g", "3", "--s", "2"],
            ["euler", "xi", "--g", "3", "--s", "2", "--route", "logw"],
            ["euler", "chi", "--variant", "real", "--g", "2", "--s", "1"],
        ],
        0,
        ("eulerchar", "arith"),
        True,
    ),
    *_rows(
        [["euler", "xi", "--g", "1", "--s", "1", "--route", "maps"]],
        0,
        ("eulerchar", "arith", "btutte", "partitions"),
        True,
    ),
    *_rows(
        [
            ["maps", "table", "--max-edges", "3"],
            ["--format", "json", "maps", "table", "--max-edges", "3"],
            ["--format", "json", "maps", "table", "--max-edges", "3", "--b", "0"],
            ["--format", "json", "maps", "table", "--max-edges", "3", "--b", "1"],
            ["--format", "csv", "maps", "table", "--max-edges", "3"],
        ],
        0,
        ("btutte", "partitions", "arith"),
        False,
    ),
    *_rows(
        [["--format", "json", "maps", "table", "--max-edges", "3", "--b", "1/2"]],
        0,
        ("btutte", "partitions", "arith"),
        True,
    ),
    *_rows(
        [["jack", "--shape", "3,2,1"], ["--format", "json", "jack", "--shape", "3,2,1"]],
        0,
        ("symfunc", "partitions", "arith"),
        False,
    ),
    *_rows(
        [["verify-all", "--max-edges", "1"]],
        0,
        (
            "verify",
            "arith",
            "btutte",
            "eulerchar",
            "maporacle",
            "partitions",
            "symfunc",
        ),
        True,
    ),
]


@pytest.mark.parametrize(
    ("argv", "code", "layers", "fractions"),
    [pytest.param(*row, id=" ".join(row[0])) for row in LOADS],
)
def test_each_command_loads_exactly_its_modules(argv, code, layers, fractions):
    """Each command loads the layers it runs and no other; no command loads `json`."""
    loaded = _modules_after(f"from mapchi.cli import main\nassert main({argv!r}) == {code}")
    assert {m for m in loaded if m.startswith("mapchi")} == {
        "mapchi",
        *(f"mapchi.{layer}" for layer in layers),
    }
    assert (RATIONAL <= loaded) if fractions else not RATIONAL & loaded
    assert not NEVER_LOADED & loaded


def test_mapkey_has_one_home():
    from mapchi import partitions

    assert partitions.MapKey is btutte.MapKey


def test_table_names_live_in_btutte_alone():
    """The table layer is `btutte`; the Jack cross-check neither defines nor re-exports it."""
    for name in (
        "ExtractionError",
        "MapCountTable",
        "counts_from_cumulant",
        "map_count_table",
        "nonneg_report",
        "specialize_counts",
    ):
        assert getattr(btutte, name).__module__ == "mapchi.btutte"
        assert not hasattr(mapseries, name), name


def _module_scope(body):
    """The statements of a module's own scope: into if, try, with and for, not into defs."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for block in ("body", "orelse", "handlers", "finalbody"):
                yield from _module_scope(getattr(node, block, ()))
        elif isinstance(node, ast.ExceptHandler):
            yield from _module_scope(node.body)


def _bound_names(tree: ast.Module) -> set[str]:
    """Every name the module's own scope binds, `if TYPE_CHECKING:` blocks included."""
    bound = set()
    for node in _module_scope(tree.body):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For, ast.With)):
            bound |= {
                name.id
                for name in ast.walk(node)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            }
    return bound


def _annotations(body):
    """Annotations of the module scope, of class bodies and of def signatures, not def bodies."""
    for node in _module_scope(body):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.ClassDef):
            yield from _annotations(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns


@pytest.mark.parametrize("path", sorted((SRC / "mapchi").glob("*.py")), ids=lambda p: p.name)
def test_annotations_name_only_bound_names(path):
    """Every name in a module-level annotation is a builtin or bound by the module.

    Names bound under `if TYPE_CHECKING:` count.  Postponed annotations are
    never evaluated at run time, so a name nothing binds goes unnoticed
    until a type checker or a documentation tool resolves it.
    """
    tree = ast.parse(path.read_text())
    known = _bound_names(tree) | set(dir(builtins))
    unbound = {
        name.id
        for annotation in _annotations(tree.body)
        for name in ast.walk(annotation)
        if isinstance(name, ast.Name) and name.id not in known
    }
    assert not unbound, f"{path.name} annotates with unbound {sorted(unbound)}"
