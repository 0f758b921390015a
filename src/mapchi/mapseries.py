"""The refined map-count polynomials, and the Jack series that cross-checks them.

The refined map numbers m(i, j, n) count rooted maps with n edges, j faces
and vertex distribution i (vertices of any valence >= 1) as polynomials in
a nonorientability parameter b: b = 0 selects orientable surfaces, b = 1
counts maps on all surfaces.  `map_count_table` reads them off the joint
cumulants kappa_mu of the b-deformed Gaussian ensemble (`btutte`), mu being
the vertex-valence partition:

    m(i, j, n) = [N^j] 2n kappa_mu / (z_mu (1 + b)^(l(mu) - 1)).

The division must be exact over the integers: a remainder or a non-integer
quotient raises `ExtractionError`.  The rows are `UniPoly`s in b with `int`
coefficients, so building the table needs no `fractions`.

The same numbers also come from the generating series assembled from Jack
symmetric functions:

    S(z) = sum over partitions theta of even weight 2m of
           z^m * J_theta(y; alpha) * J_theta(1_x; alpha)
                * [p_{(2,...,2)}] J_theta / <J_theta, J_theta>,

    M(z) = 2 * alpha * z d/dz log S(z).

The z^n coefficient of M is a linear combination of power sums p_mu(y)
whose coefficients are polynomials in x over rational functions of alpha.
Reading mu as the vertex-valence multiset, the x-degree as the face count
j, and substituting alpha = b + 1 yields m(i, j, n) again.  alpha stays
symbolic through the logarithm and the Euler operator; b enters only at
extraction, after all rational-function cancellation.  This route solves
every Jack function up to weight 2n, so it stops at
`JACK_ROUTE_MAX_EDGES`; the verification suite compares it with the
recursion row for row.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import TruncationError, btutte
from .arith import AlphaFn, TruncatedSeries, UniPoly, int_poly_divmod
from .partitions import (
    MapKey,
    Partition,
    partition_from_distribution,
    partitions_of,
    vertex_distribution_of,
    z_of,
)
from .btutte import MAX_EDGE_TRUNCATION

#: Largest truncation of the Jack route (`jack_partition_sum`, `map_series`).
#: At 5 edges it solves every Jack function of weight 10 in about 0.4 s,
#: assembles S(z) in about 2 s and takes its log in about 1 s (2 vCPUs,
#: Python 3.11.7).
JACK_ROUTE_MAX_EDGES = 5


class ExtractionError(RuntimeError):
    """A map count failed a polynomiality, divisibility or integrality check."""


class MapCountTable:
    """Refined map-count polynomials in b for every key with n <= max_n."""

    def __init__(self, entries: dict[MapKey, UniPoly], max_n: int):
        self.entries = entries
        self.max_n = max_n

    def __getitem__(self, key: MapKey) -> UniPoly:
        return self.entries[key]

    def keys_sorted(self) -> list[MapKey]:
        """Rows ordered by edge count, then face count, then vertex partition."""
        return sorted(
            self.entries,
            key=lambda k: (k.n, k.j, partition_from_distribution(k.i)),
        )


def check_truncation(max_n: int, bound: int = MAX_EDGE_TRUNCATION) -> None:
    """Raise ValueError if max_n < 1 and `TruncationError` if max_n > bound."""
    if max_n < 1:
        raise ValueError(f"truncation {max_n} is below 1")
    if max_n > bound:
        raise TruncationError(f"truncation {max_n} exceeds supported bound {bound}")


def jack_partition_sum(max_n: int) -> TruncatedSeries:
    """The Jack-function partition sum S(z), truncated at z**max_n.

    The z^m coefficient sums, over all partitions theta of weight 2m, the
    power-sum expansion of J_theta in the y-alphabet scaled by

        J_theta(1_x) * [p_(2^m)] J_theta / <J_theta, J_theta>,

    a polynomial in x over AlphaFn.  Odd-weight shapes contribute nothing
    since no pure-2 partition exists there.
    """
    from .symfunc import PowerSumExpr

    check_truncation(max_n, JACK_ROUTE_MAX_EDGES)
    coeffs: list[object] = [PowerSumExpr.one()]
    for m in range(1, max_n + 1):
        coeffs.append(_partition_sum_level(m))
    return TruncatedSeries("z", coeffs, max_n)


def _partition_sum_level(m: int) -> PowerSumExpr:
    """The z^m coefficient of S(z), summed over one common denominator.

    D is the lcm of the norms of the shapes with a pure-2 coefficient
    (`symfunc.cleared_norms`).  Each shape then contributes the polynomial
    (D / norm) * p2coeff * principal * expansion, and only the final
    coefficients are reduced, once each, as AlphaFn(sum, D).
    """
    from .symfunc import PowerSumExpr, cleared_norms, jack

    records = [rec for rec in map(jack, partitions_of(2 * m)) if rec.p2coeff]
    den, cleared = cleared_norms(rec.shape for rec in records)
    sums: dict[tuple[Partition, int], UniPoly] = {}
    for rec in records:
        scale = rec.p2coeff * cleared[rec.shape]
        for j, pj in enumerate(rec.principal.coeffs):
            if not pj:
                continue
            weight = scale * pj
            for mu, c in rec.expansion.terms.items():
                sums[mu, j] = sums.get((mu, j), 0) + weight * c

    terms: dict[Partition, list[AlphaFn]] = {}
    for (mu, j), num in sums.items():
        row = terms.setdefault(mu, [AlphaFn.zero()] * (2 * m + 1))
        row[j] = AlphaFn(num, den)
    return PowerSumExpr({mu: UniPoly("x", row) for mu, row in terms.items()})


def map_series(max_n: int) -> TruncatedSeries:
    """The map generating series M(z) = 2 alpha z d/dz log S(z)."""
    s = jack_partition_sum(max_n)
    return s.log().z_ddz().scale(AlphaFn.alpha() * 2)


def extract_map_counts(series: TruncatedSeries) -> MapCountTable:
    """Read refined map-count polynomials in b off a map series.

    For each z^n coefficient, each power sum p_mu(y) and each x-power x^j,
    the scalar must be a polynomial in alpha that becomes an integer
    polynomial in b under alpha = b + 1; any failure aborts with
    diagnostics, since it would contradict the framework.  The rows have
    `int` coefficients, like `map_count_table`'s.  Zero polynomials are
    omitted.
    """
    from fractions import Fraction

    from .symfunc import PowerSumExpr

    b_plus_one = UniPoly("b", (1, 1))
    entries: dict[MapKey, UniPoly] = {}
    for n in range(1, series.max_order + 1):
        expr = series.coefficient(n)
        if not isinstance(expr, PowerSumExpr):
            if not expr:
                continue
            raise ExtractionError(f"z^{n} coefficient is not a power-sum expression")
        for mu, xpoly in expr.terms.items():
            if not isinstance(xpoly, UniPoly):
                # A bare scalar is an x-free term; faces j = 0 is impossible.
                raise ExtractionError(
                    f"z^{n} p_{mu.parts} coefficient carries no face variable: {xpoly!r}"
                )
            for j, coeff in enumerate(xpoly.coeffs):
                if not coeff:
                    continue
                if j == 0:
                    raise ExtractionError(
                        f"z^{n} p_{mu.parts} has an x-free term {coeff!r}"
                    )
                if not isinstance(coeff, AlphaFn):
                    coeff = AlphaFn(coeff)
                if not coeff.is_polynomial:
                    raise ExtractionError(
                        f"coefficient at n={n}, mu={mu.parts}, j={j} is not "
                        f"polynomial in alpha: {coeff!r}"
                    )
                bpoly = coeff.substitute(b_plus_one)
                for c in bpoly.coeffs:
                    if Fraction(c).denominator != 1:
                        raise ExtractionError(
                            f"non-integer b-coefficient at n={n}, mu={mu.parts}, "
                            f"j={j}: {bpoly!r}"
                        )
                key = MapKey(vertex_distribution_of(mu), j, n).validate()
                entries[key] = UniPoly("b", [int(c) for c in bpoly.coeffs])
    return MapCountTable(entries=entries, max_n=series.max_order)


def counts_from_cumulant(mu: Partition, kappa: dict[int, list[int]]) -> dict[int, UniPoly]:
    """The rows [N^j] 2n kappa / (z_mu (1 + b)^(l - 1)) of one valence partition.

    kappa is {face count j: [b-coefficients]}, as `btutte.face_rows` gives
    it.  Returns the nonzero b-polynomials keyed by j.  Each row is one
    exact division over the integers: since 1 + b is monic, it succeeds
    exactly when (1 + b)^(l - 1) divides kappa_j and z_mu divides 2n times
    that quotient.  A remainder or an inexact step raises `ExtractionError`.
    """
    n, z = mu.weight // 2, z_of(mu)
    divisor = UniPoly("b", [z * math.comb(mu.length - 1, k) for k in range(mu.length)])
    rows = {}
    for j, coeffs in kappa.items():
        step = int_poly_divmod(UniPoly("b", [2 * n * c for c in coeffs]), divisor)
        if step is None:
            raise ExtractionError(
                f"non-integer b-coefficient at n={n}, mu={mu.parts}, j={j}: "
                f"2n * {coeffs} / ({z} (1+b)^{mu.length - 1})"
            )
        poly, remainder = step
        if remainder:
            raise ExtractionError(
                f"kappa at mu={mu.parts}, N^{j} is not divisible by "
                f"(1+b)^{mu.length - 1}"
            )
        if poly:
            rows[j] = poly
    return rows


@lru_cache(maxsize=None)
def map_count_table(max_n: int) -> MapCountTable:
    """Every refined count through max_n edges, from the b-Tutte recursion.

    Cached per truncation.  Treat as immutable.
    """
    check_truncation(max_n)
    entries: dict[MapKey, UniPoly] = {}
    for n in range(1, max_n + 1):
        for mu in partitions_of(2 * n):
            for j, poly in counts_from_cumulant(mu, btutte.face_rows(mu, max_n)).items():
                entries[MapKey(vertex_distribution_of(mu), j, n).validate()] = poly
    return MapCountTable(entries=entries, max_n=max_n)


def specialize_counts(table: MapCountTable, b_value: Fraction) -> dict[MapKey, Fraction]:
    """Evaluate every entry at a rational b (0 = orientable, 1 = all surfaces)."""
    from fractions import Fraction

    return {key: Fraction(poly.eval(Fraction(b_value))) for key, poly in table.entries.items()}


class NonnegativityViolation(NamedTuple):
    """The first negative b-coefficient of one table entry."""

    key: MapKey
    poly: UniPoly
    degree: int
    coefficient: int


def nonneg_report(table: MapCountTable) -> list[NonnegativityViolation]:
    """Entries with any negative b-coefficient.

    Nonnegativity of the refined counts is conjectural, so this is a report
    for the caller to act on, never an assertion.
    """
    violations = []
    for key in table.keys_sorted():
        poly = table.entries[key]
        for deg, c in enumerate(poly.coeffs):
            if c < 0:
                violations.append(
                    NonnegativityViolation(key=key, poly=poly, degree=deg, coefficient=c)
                )
                break
    return violations
