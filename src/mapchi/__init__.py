"""Exact Euler characteristics of moduli of real and complex curves.

Everything is computed in exact rational arithmetic.  The core pipeline
counts rooted maps on surfaces, graded by a parameter b, with the b-deformed
Tutte recursion (checked against a Jack-polynomial generating series), and
assembles from them the parametrized Euler characteristics xi^s_g(gamma)
together with their classical specializations.  Independent closed-form and
brute-force enumeration routes cross-check every number the package
produces.
"""

from __future__ import annotations

from .arith import (
    ALPHA,
    AlphaFn,
    TruncatedSeries,
    UniPoly,
    VariableMixError,
    bernoulli,
    poly_str,
    sum_of_powers_poly,
)
from .eulerchar import (
    INV_GAMMA,
    ChiValue,
    LambdaTriple,
    ParityError,
    RouteMismatchError,
    TruncationError,
    chi_complex,
    chi_fixed_curves,
    chi_real,
    chi_real_from_lambda,
    eval_at_gamma,
    lambda_values,
    logW_series,
    xi_closed,
    xi_from_logW,
    xi_from_maps,
)
from .maporacle import (
    GlueCensus,
    double_cover_lift_check,
    glue_census,
    lambda_from_census,
    rooted_locally_orientable_counts,
    rooted_orientable_counts,
)
from .mapseries import (
    ExtractionError,
    MapCountTable,
    MapKey,
    NonnegativityViolation,
    extract_map_counts,
    jack_partition_sum,
    map_count_table,
    map_series,
    nonneg_report,
    specialize_counts,
)
from .partitions import Partition, partitions_of, vertex_distribution_of, z_of
from .symfunc import (
    CauchyReport,
    JackRecord,
    JackSystemError,
    PowerSumExpr,
    cauchy_check,
    inner_product,
    jack,
    power_to_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "INV_GAMMA",
    "AlphaFn",
    "CauchyReport",
    "ChiValue",
    "ExtractionError",
    "GlueCensus",
    "JackRecord",
    "JackSystemError",
    "LambdaTriple",
    "MapCountTable",
    "MapKey",
    "NonnegativityViolation",
    "ParityError",
    "Partition",
    "PowerSumExpr",
    "RouteMismatchError",
    "TruncatedSeries",
    "TruncationError",
    "UniPoly",
    "VariableMixError",
    "bernoulli",
    "cauchy_check",
    "chi_complex",
    "chi_fixed_curves",
    "chi_real",
    "chi_real_from_lambda",
    "double_cover_lift_check",
    "eval_at_gamma",
    "extract_map_counts",
    "glue_census",
    "inner_product",
    "jack",
    "jack_partition_sum",
    "lambda_from_census",
    "lambda_values",
    "logW_series",
    "map_count_table",
    "map_series",
    "nonneg_report",
    "partitions_of",
    "poly_str",
    "power_to_monomial",
    "rooted_locally_orientable_counts",
    "rooted_orientable_counts",
    "specialize_counts",
    "sum_of_powers_poly",
    "vertex_distribution_of",
    "xi_closed",
    "xi_from_logW",
    "xi_from_maps",
    "z_of",
    "__version__",
]
