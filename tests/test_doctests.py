"""Run every module's doctest examples."""

from __future__ import annotations

import doctest

import mapchi.arith
import mapchi.btutte
import mapchi.eulerchar
import mapchi.maporacle
import mapchi.mapseries
import mapchi.partitions
import mapchi.symfunc
import mapchi.verify

MODULES = (
    mapchi.arith,
    mapchi.partitions,
    mapchi.symfunc,
    mapchi.btutte,
    mapchi.mapseries,
    mapchi.eulerchar,
    mapchi.maporacle,
    mapchi.verify,
)


def test_module_doctests():
    attempted = 0
    for module in MODULES:
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        attempted += result.attempted
    assert attempted > 10  # the docstrings genuinely carry examples
