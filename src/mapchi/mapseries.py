"""The refined map-count polynomials, and the Jack series that cross-checks them.

The refined map numbers m(i, j, n) count rooted maps with n edges, j faces
and vertex distribution i (vertices of any valence >= 1) as polynomials in
a nonorientability parameter b: b = 0 selects orientable surfaces, b = 1
counts maps on all surfaces.  `map_count_table` reads them off the joint
cumulants kappa_mu of the b-deformed Gaussian ensemble (`btutte`), mu being
the vertex-valence partition:

    m(i, j, n) = [N^j] 2n kappa_mu / (z_mu (1 + b)^(l(mu) - 1)).

Both divisions are exact, and every coefficient must come out an integer;
any remainder raises `ExtractionError`.

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
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import btutte
from .arith import AlphaFn, TruncatedSeries, UniPoly
from .partitions import (
    Partition,
    partition_from_distribution,
    partitions_of,
    vertex_distribution_of,
    z_of,
)
from .btutte import MAX_EDGE_TRUNCATION

#: Largest truncation of the Jack route (`jack_partition_sum`, `map_series`).
#: At 5 edges it solves every Jack function of weight 10 and takes about
#: 20 s on 2 vCPUs, most of it in the S(z) assembly.
JACK_ROUTE_MAX_EDGES = 5


class ExtractionError(RuntimeError):
    """A map count failed a polynomiality, divisibility or integrality check."""


class MapKey(NamedTuple):
    """Index of a refined map count: vertex distribution, faces, edges."""

    i: tuple[int, ...]
    j: int
    n: int

    def validate(self) -> MapKey:
        if any(k < 0 for k in self.i):
            raise ValueError(f"negative vertex multiplicity in {self}")
        if self.i and self.i[-1] == 0:
            raise ValueError(f"vertex distribution has trailing zeros: {self}")
        edge_ends = sum(k * ik for k, ik in enumerate(self.i, start=1))
        if edge_ends != 2 * self.n:
            raise ValueError(
                f"vertex valences sum to {edge_ends}, expected {2 * self.n}: {self}"
            )
        if not 1 <= self.j <= self.n + 1:
            raise ValueError(f"face count {self.j} outside 1..{self.n + 1}: {self}")
        return self

    @property
    def vertex_count(self) -> int:
        return sum(self.i)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.n + self.j

    def enters_lambda(self, g: int, s: int) -> bool:
        """Whether the maps of this key are counted by lambda^s_g(n).

        They have s faces, no vertex of valence 1 or 2, and Euler
        characteristic 1 - g, that is n - g - s + 1 vertices.
        """
        return self.j == s and not any(self.i[:2]) and self.euler_characteristic == 1 - g


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
            key=lambda k: (k.n, k.j, partition_from_distribution(k.i).parts),
        )


def check_truncation(max_n: int, bound: int = MAX_EDGE_TRUNCATION) -> None:
    """Raise ValueError unless 1 <= max_n <= bound."""
    if max_n < 1:
        raise ValueError(f"truncation {max_n} is below 1")
    if max_n > bound:
        raise ValueError(f"truncation {max_n} exceeds supported bound {bound}")


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

    Every norm is a product of alpha-linear factors, so their lcm D is a
    max-multiplicity merge of those factors.  Each shape then contributes
    the polynomial (D / norm) * p2coeff * principal * expansion, and only
    the final coefficients are reduced, once each, as AlphaFn(sum, D).
    """
    from .symfunc import PowerSumExpr, hook_product, jack, jack_norm_factors

    contributions = []
    common: Counter[tuple[int, int]] = Counter()
    content_lcm = 1
    for theta in partitions_of(2 * m):
        rec = jack(theta)
        if not rec.p2coeff:
            continue
        content, factors = _primitive_factors(jack_norm_factors(theta))
        contributions.append((rec, content, factors))
        common |= factors
        content_lcm = math.lcm(content_lcm, content)

    sums: dict[tuple[Partition, int], UniPoly] = {}
    for rec, content, factors in contributions:
        scale = rec.p2coeff * Fraction(content_lcm, content)
        scale = scale * hook_product((common - factors).elements())
        for j, pj in enumerate(rec.principal.coeffs):
            if not pj:
                continue
            weight = scale * pj
            for mu, c in rec.expansion.terms.items():
                sums[mu, j] = sums.get((mu, j), 0) + weight * c

    den = hook_product(common.elements()) * content_lcm
    terms: dict[Partition, list[AlphaFn]] = {}
    for (mu, j), num in sums.items():
        row = terms.setdefault(mu, [AlphaFn.zero()] * (2 * m + 1))
        row[j] = AlphaFn(num, den)
    return PowerSumExpr({mu: UniPoly("x", row) for mu, row in terms.items()})


def _primitive_factors(factors) -> tuple[int, Counter[tuple[int, int]]]:
    """Split s * alpha + t factors into an integer content and primitive factors."""
    content = 1
    out: Counter[tuple[int, int]] = Counter()
    for s, t in factors:
        if s == 0:
            content *= t
            continue
        g = math.gcd(s, t)
        content *= g
        out[s // g, t // g] += 1
    return content, out


def map_series(max_n: int) -> TruncatedSeries:
    """The map generating series M(z) = 2 alpha z d/dz log S(z)."""
    s = jack_partition_sum(max_n)
    return s.log().z_ddz().scale(AlphaFn.alpha() * 2)


def extract_map_counts(series: TruncatedSeries) -> MapCountTable:
    """Read refined map-count polynomials in b off a map series.

    For each z^n coefficient, each power sum p_mu(y) and each x-power x^j,
    the scalar must be a polynomial in alpha that becomes an integer
    polynomial in b under alpha = b + 1; any failure aborts with
    diagnostics, since it would contradict the framework.  Zero polynomials
    are omitted.
    """
    from .symfunc import PowerSumExpr

    b_plus_one = UniPoly("b", (Fraction(1), Fraction(1)))
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
                entries[key] = bpoly
    return MapCountTable(entries=entries, max_n=series.max_order)


def counts_from_cumulant(mu: Partition, kappa: btutte.Poly) -> dict[int, UniPoly]:
    """The rows [N^j] 2n kappa / (z_mu (1 + b)^(l - 1)) of one valence partition.

    kappa is the joint cumulant of mu as a {(N-power, b-power): int} dict.
    Returns the nonzero b-polynomials keyed by face count j; a remainder in
    either division raises `ExtractionError`.
    """
    n, z = mu.weight // 2, z_of(mu)
    by_face: dict[int, list[int]] = {}
    for (j, d), c in kappa.items():
        row = by_face.setdefault(j, [])
        row.extend([0] * (d + 1 - len(row)))
        row[d] = c
    rows = {}
    for j, coeffs in by_face.items():
        for _ in range(mu.length - 1):
            coeffs, remainder = _divide_by_one_plus_b(coeffs)
            if remainder:
                raise ExtractionError(
                    f"kappa at mu={mu.parts}, N^{j} is not divisible by "
                    f"(1+b)^{mu.length - 1}"
                )
        if any(2 * n * c % z for c in coeffs):
            raise ExtractionError(
                f"non-integer b-coefficient at n={n}, mu={mu.parts}, j={j}: "
                f"2n * {coeffs} / {z}"
            )
        poly = UniPoly("b", [Fraction(2 * n * c // z) for c in coeffs])
        if poly:
            rows[j] = poly
    return rows


def _divide_by_one_plus_b(coeffs: list[int]) -> tuple[list[int], int]:
    """Quotient and remainder of a b-polynomial (coefficients by degree) by 1 + b."""
    quotient = []
    carry = 0
    for c in reversed(coeffs[1:]):
        carry = c - carry
        quotient.append(carry)
    quotient.reverse()
    return quotient, (coeffs[0] if coeffs else 0) - carry


@lru_cache(maxsize=None)
def map_count_table(max_n: int) -> MapCountTable:
    """Every refined count through max_n edges, from the b-Tutte recursion.

    Cached per truncation.  Treat as immutable.
    """
    check_truncation(max_n)
    entries: dict[MapKey, UniPoly] = {}
    for n in range(1, max_n + 1):
        for mu in partitions_of(2 * n):
            for j, poly in counts_from_cumulant(mu, btutte.cumulant(mu.parts)).items():
                entries[MapKey(vertex_distribution_of(mu), j, n).validate()] = poly
    return MapCountTable(entries=entries, max_n=max_n)


def specialize_counts(table: MapCountTable, b_value: Fraction) -> dict[MapKey, Fraction]:
    """Evaluate every entry at a rational b (0 = orientable, 1 = all surfaces)."""
    return {key: Fraction(poly.eval(Fraction(b_value))) for key, poly in table.entries.items()}


class NonnegativityViolation(NamedTuple):
    """The first negative b-coefficient of one table entry."""

    key: MapKey
    poly: UniPoly
    degree: int
    coefficient: Fraction


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
