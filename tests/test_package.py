"""The package surface: lazy exports, and the modules each entry point loads."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapchi

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", sorted(mapchi._EXPORTS))
def test_export_is_the_home_module_object(name):
    home = f"mapchi.{mapchi._EXPORTS[name]}"
    value = getattr(mapchi, name)
    assert value is getattr(importlib.import_module(home), name)
    assert getattr(value, "__module__", home) == home


def test_star_import_binds_all():
    namespace: dict[str, object] = {}
    exec("from mapchi import *", namespace)
    assert set(mapchi.__all__) <= set(namespace)
    assert namespace["map_count_table"] is mapchi.btutte.map_count_table
    assert namespace["TruncationError"] is mapchi.TruncationError
    assert namespace["RouteMismatchError"] is mapchi.RouteMismatchError


def test_shared_errors_live_in_the_package_root():
    from mapchi import btutte, eulerchar, maporacle

    assert mapchi.TruncationError is eulerchar.TruncationError
    assert mapchi.TruncationError is btutte.TruncationError
    assert mapchi.RouteMismatchError is eulerchar.RouteMismatchError
    assert mapchi.RouteMismatchError is maporacle.RouteMismatchError
    assert issubclass(mapchi.TruncationError, ValueError)


def _verify_at(max_edges):
    from mapchi.verify import run_verify

    return run_verify(max_edges=max_edges)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: mapchi.map_count_table(11), "truncation 11 exceeds supported bound 10"),
        (lambda: mapchi.jack_partition_sum(6), "truncation 6 exceeds supported bound 5"),
        (lambda: _verify_at(11), "truncation 11 exceeds supported bound 10"),
        (
            lambda: mapchi.rooted_orientable_counts(7),
            "the orientable oracle enumerates at most 6 edges, asked for 7",
        ),
        (
            lambda: mapchi.rooted_locally_orientable_counts(6),
            "the all-surfaces oracle enumerates at most 5 edges, asked for 6",
        ),
        (
            lambda: mapchi.lambda_from_census(1, 2),
            "Lambda(1,2) needs rooted censuses through n=6, "
            "the two censuses together reach n=5",
        ),
        (
            lambda: mapchi.xi_from_maps(2, 1, mapchi.map_count_table(3)),
            "xi(2,1) needs map counts through n=6, table reaches n=3: "
            "insufficient truncation",
        ),
    ],
    ids=[
        "map_count_table(11)",
        "jack_partition_sum(6)",
        "run_verify(max_edges=11)",
        "rooted_orientable_counts(7)",
        "rooted_locally_orientable_counts(6)",
        "lambda_from_census(1, 2)",
        "xi_from_maps(2, 1, table3)",
    ],
)
def test_out_of_reach_requests_raise_truncation_error(call, message):
    with pytest.raises(mapchi.TruncationError) as caught:
        call()
    assert str(caught.value) == message


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mapchi.no_such_name  # noqa: B018


def test_dir_covers_all():
    assert set(mapchi.__all__) <= set(dir(mapchi))


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
            "mapseries",
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
    from mapchi import btutte, partitions

    assert mapchi.MapKey is partitions.MapKey is btutte.MapKey


def test_table_names_live_in_btutte_alone():
    """The table layer is `btutte`; the Jack cross-check neither defines nor re-exports it."""
    from mapchi import btutte, mapseries

    for name in (
        "ExtractionError",
        "MapCountTable",
        "NonnegativityViolation",
        "check_truncation",
        "counts_from_cumulant",
        "map_count_table",
        "nonneg_report",
        "specialize_counts",
    ):
        assert getattr(btutte, name).__module__ == "mapchi.btutte"
        assert not hasattr(mapseries, name), name
