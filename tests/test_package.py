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
    assert namespace["map_count_table"] is mapchi.mapseries.map_count_table


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

NEVER_ON_IMPORT = RATIONAL | {
    "json",
    "argparse",
    "gettext",
    "locale",
    "dataclasses",
    "inspect",
    "logging",
    "mapchi.arith",
    "mapchi.partitions",
    "mapchi.symfunc",
    "mapchi.mapseries",
    "mapchi.maporacle",
    "mapchi.verify",
    "mapchi.eulerchar",
}


def test_import_mapchi_loads_no_submodule():
    loaded = _modules_after("import mapchi")
    assert not {m for m in loaded if m.startswith("mapchi.")}


def test_import_cli_loads_no_worker_layer():
    loaded = _modules_after("import mapchi.cli")
    assert not NEVER_ON_IMPORT & loaded
    assert {m for m in loaded if m.startswith("mapchi")} == {
        "mapchi",
        "mapchi.cli",
        "mapchi.btutte",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["oracle", "glue", "--sides", "4,2"],
        ["oracle", "rooted", "--edges", "3"],
        ["oracle", "rooted", "--edges", "3", "--surface", "all"],
    ],
    ids=" ".join,
)
def test_integer_commands_load_no_rational_arithmetic(argv):
    loaded = _modules_after(f"from mapchi.cli import main\nassert main({argv!r}) == 0")
    assert not (RATIONAL | {"mapchi.arith", "mapchi.eulerchar", "mapchi.mapseries"}) & loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "maps", "table", "--max-edges", "3"],
        ["--format", "json", "maps", "table", "--max-edges", "3", "--b", "0"],
        ["--format", "json", "maps", "table", "--max-edges", "3", "--b", "1"],
        ["--format", "csv", "maps", "table", "--max-edges", "3"],
        ["--format", "json", "jack", "--shape", "3,2,1"],
    ],
    ids=" ".join,
)
def test_integer_valued_commands_load_neither_fractions_nor_json(argv):
    """The table and the Jack records are integer polynomials, and JSON has its own writer."""
    loaded = _modules_after(f"from mapchi.cli import main\nassert main({argv!r}) == 0")
    assert not (RATIONAL | {"json"}) & loaded


def test_rational_b_still_runs_over_fractions():
    loaded = _modules_after(
        "from mapchi.cli import main\n"
        "assert main(['--format', 'json', 'maps', 'table', '--max-edges', '3', '--b', '1/2']) == 0"
    )
    assert "fractions" in loaded


def test_mapkey_has_one_home():
    from mapchi import mapseries, partitions

    assert mapchi.MapKey is partitions.MapKey is mapseries.MapKey


def test_maps_table_loads_neither_jack_layer_nor_dataclasses():
    loaded = _modules_after(
        "from mapchi.cli import main\n"
        "assert main(['maps', 'table', '--max-edges', '3']) == 0"
    )
    assert "mapchi.mapseries" in loaded
    assert not {"mapchi.symfunc", "dataclasses"} & loaded


def test_euler_xi_logw_loads_no_argument_parser():
    loaded = _modules_after(
        "from mapchi.cli import main\n"
        "assert main(['euler', 'xi', '--g', '3', '--s', '2', '--route', 'logw']) == 0"
    )
    assert "mapchi.eulerchar" in loaded
    assert not {"argparse", "gettext", "locale"} & loaded
