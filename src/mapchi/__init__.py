"""Exact Euler characteristics of moduli of real and complex curves.

Everything is computed in exact rational arithmetic.  The core pipeline
counts rooted maps on surfaces, graded by a parameter b, with the b-deformed
Tutte recursion (checked against a Jack-polynomial generating series), and
assembles from them the parametrized Euler characteristics xi^s_g(gamma)
together with their classical specializations.  Independent closed-form and
brute-force enumeration routes cross-check every number the package
produces.

The names below are imported from their submodule on first access, so
``import mapchi`` alone loads no submodule and each command of the ``mapchi``
script pays only for the layers it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Exit codes of every ``mapchi`` command: success, a refused request or a
#: failed check, and a violated conjecture (see `mapchi.verify`).
EXIT_OK = 0
EXIT_FAILURE = 2
EXIT_CONJECTURE = 3

#: Home submodule of each public name.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ALPHA",
            "AlphaFn",
            "TruncatedSeries",
            "UniPoly",
            "VariableMixError",
            "bernoulli",
            "poly_str",
            "sum_of_powers_poly",
        ),
        "arith",
    ),
    **dict.fromkeys(
        (
            "INV_GAMMA",
            "ChiValue",
            "LambdaTriple",
            "ParityError",
            "RouteMismatchError",
            "TruncationError",
            "chi_complex",
            "chi_fixed_curves",
            "chi_real",
            "chi_real_from_lambda",
            "eval_at_gamma",
            "lambda_values",
            "logW_series",
            "xi_closed",
            "xi_from_logW",
            "xi_from_maps",
        ),
        "eulerchar",
    ),
    **dict.fromkeys(
        (
            "GlueCensus",
            "double_cover_lift_check",
            "glue_census",
            "lambda_from_census",
            "rooted_locally_orientable_counts",
            "rooted_orientable_counts",
        ),
        "maporacle",
    ),
    **dict.fromkeys(
        (
            "ExtractionError",
            "MapCountTable",
            "MapKey",
            "NonnegativityViolation",
            "extract_map_counts",
            "jack_partition_sum",
            "map_count_table",
            "map_series",
            "nonneg_report",
            "specialize_counts",
        ),
        "mapseries",
    ),
    **dict.fromkeys(
        ("Partition", "partitions_of", "vertex_distribution_of", "z_of"),
        "partitions",
    ),
    **dict.fromkeys(
        (
            "CauchyReport",
            "JackRecord",
            "JackSystemError",
            "PowerSumExpr",
            "cauchy_check",
            "inner_product",
            "jack",
            "power_to_monomial",
        ),
        "symfunc",
    ),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
