"""The Jack series, over rational functions in alpha.

`btutte.map_count_table` reads the refined map numbers m(i, j, n) off the
b-Tutte recursion.  The same numbers also come from the generating series
assembled from Jack symmetric functions:

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
every Jack function up to weight 2n, so it stops at `MAX_JACK_WEIGHT` // 2
edges.  No command runs it: `verify-all` checks the table against the same
series at integer alpha (`verify.jack_rows`), and this symbolic form is kept
for the benchmark's trace and the tests, which take
``jack_partition_sum(n).log().z_ddz().scale(2 * alpha)`` themselves.
At 5 edges it solves every Jack function of weight 10 in 0.16-0.29 s,
assembles S(z) in 1.5-2.3 s and takes its log in 0.55-0.8 s (three runs in
process, 2 vCPUs, Python 3.11.7).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import MAX_JACK_WEIGHT, btutte, check_truncation
from .arith import AlphaFn, TruncatedSeries, UniPoly
from .partitions import MapKey, Partition, partitions_of

if TYPE_CHECKING:
    from .symfunc import PowerSumExpr


def jack_partition_sum(max_n: int) -> TruncatedSeries:
    """The Jack-function partition sum S(z), truncated at z**max_n.

    The z^m coefficient sums, over all partitions theta of weight 2m, the
    power-sum expansion of J_theta in the y-alphabet scaled by

        J_theta(1_x) * [p_(2^m)] J_theta / <J_theta, J_theta>,

    a polynomial in x over AlphaFn.  Odd-weight shapes contribute nothing
    since no pure-2 partition exists there.
    """
    from .symfunc import PowerSumExpr

    check_truncation(max_n, MAX_JACK_WEIGHT // 2, "the Jack series")
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

    records = {theta: rec for theta in partitions_of(2 * m) if (rec := jack(theta)).p2coeff}
    den, cleared = cleared_norms(records)
    sums: dict[tuple[Partition, int], UniPoly] = {}
    for theta, rec in records.items():
        scale = rec.p2coeff * cleared[theta]
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


def extract_map_counts(series: TruncatedSeries) -> btutte.MapCountTable:
    """Read refined map-count polynomials in b off a map series.

    For each z^n coefficient, each power sum p_mu(y) and each x-power x^j,
    the scalar must be a polynomial in alpha that becomes an integer
    polynomial in b under alpha = b + 1; any failure aborts with
    diagnostics, since it would contradict the framework.  The rows have
    `int` coefficients, like `btutte.map_count_table`'s.  Zero polynomials are
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
            raise btutte.ExtractionError(f"z^{n} coefficient is not a power-sum expression")
        for mu, xpoly in expr.terms.items():
            if not isinstance(xpoly, UniPoly):
                # A bare scalar is an x-free term; faces j = 0 is impossible.
                raise btutte.ExtractionError(
                    f"z^{n} p_{mu.parts} coefficient carries no face variable: {xpoly!r}"
                )
            for j, coeff in enumerate(xpoly.coeffs):
                if not coeff:
                    continue
                if j == 0:
                    raise btutte.ExtractionError(
                        f"z^{n} p_{mu.parts} has an x-free term {coeff!r}"
                    )
                if not isinstance(coeff, AlphaFn):
                    coeff = AlphaFn(coeff)
                if not coeff.is_polynomial:
                    raise btutte.ExtractionError(
                        f"coefficient at n={n}, mu={mu.parts}, j={j} is not "
                        f"polynomial in alpha: {coeff!r}"
                    )
                bpoly = coeff.substitute(b_plus_one)
                for c in bpoly.coeffs:
                    if Fraction(c).denominator != 1:
                        raise btutte.ExtractionError(
                            f"non-integer b-coefficient at n={n}, mu={mu.parts}, "
                            f"j={j}: {bpoly!r}"
                        )
                key = MapKey(mu.parts, j).validate()
                entries[key] = UniPoly("b", [int(c) for c in bpoly.coeffs])
    return btutte.MapCountTable(entries=entries, max_n=series.max_order)
