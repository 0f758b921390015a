"""The refined map-count table, read off the b-Tutte recursion.

The refined map numbers m(i, j, n) count rooted maps with n edges, j faces
and vertex distribution i (vertices of any valence >= 1) as polynomials in
a nonorientability parameter b: b = 0 selects orientable surfaces, b = 1
counts maps on all surfaces.  They are read off the joint cumulants kappa_mu
of the b-deformed Gaussian ensemble with a source (Goulden and Jackson 1997;
alpha = 2/beta = 1 + b), mu being the vertex-valence partition:

    m(i, j, n) = [N^j] 2n kappa_mu / (z_mu (1 + b)^(l(mu) - 1)).

`map_count_table` makes that division over the integers: a remainder or a
non-integer quotient raises `ExtractionError`.  The rows are `UniPoly`s in
b with `int` coefficients, so building the table needs no `fractions`.  The
Jack series of `mapseries` gives the same rows by a second route.

The ensemble's loop equation deletes the root edge of a map and gives a
recursion for the moments E(p_{k+1}, R) = E[tr H^(k+1) prod_{r in R} tr H^r],
R a multiset of the other vertex degrees (Goulden and Jackson 1997; Chapuy
and Dolega 2022, "b-deformed Tutte equations"):

    E(p_{k+1}, R) = b k E(p_{k-1}, R)                           twisted loop
        + sum_{a + c = k - 1} E(p_a, p_c, R)                    root splits
        + (1 + b) sum_{r in R} r E(p_{k+r-1}, R - r)            edge to r

with E() = 1 and each p_0 a factor N; the last sum weights each distinct
degree r by its multiplicity.  The joint cumulants follow by one
conversion, with the root a and the rest R:

    kappa(p_a, R) = E(p_a, R) - sum_{L + T = R, T nonempty} kappa(p_a, L) E(T),

L + T running over the vertices of R as distinct objects, so each
sub-multiset is weighted by binomials.  Both are polynomials in N (the face
variable) and b with nonnegative integer coefficients: the recursion has
only nonnegative terms, and so has its connected form, which adds a product
over the splits of R.  Each step is a ring operation, so `moment` and
`cumulant` run at an integer point and `face_rows` reads the coefficients
off one such value.

`moment` and `cumulant` memoize every value they reach during one build of
`map_count_table`, which clears both before it returns: their keys hold the
build's packed point N = 2^(W (n + 1)), b = 2^W, where W grows strictly with
n, so no other truncation could reuse an entry.  Building
`map_count_table(10)` in a fresh process reaches 2814 `moment` and 2713
`cumulant` entries and peaks at 22.5 MB resident, against 13.1 MB for the
bare interpreter (2 vCPUs, Python 3.11.7).  The `cumulant` memo carries the
build: without it the same table took 1.9-3.5 s over 7 fresh processes
instead of 0.28-0.53 s over 20, at 21.7 MB peak instead of 22.5 MB, so it
costs under 1 MB.  The memory the memos hold past 10 edges during a build
is mostly the `moment` cache's.

>>> cumulant((2,), 3, 5)  # N^2 + N b
24
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

from . import MAX_EDGE_TRUNCATION, check_truncation
from .arith import UniPoly, int_poly_divmod
from .partitions import MapKey, Partition, partitions_of, z_of

if TYPE_CHECKING:
    from fractions import Fraction


def _moment(N: int, b: int, *parts: int) -> int:
    """E of the entries in any order; the largest becomes the root."""
    return moment(tuple(sorted(parts, reverse=True)), N, b)


@lru_cache(maxsize=None)
def moment(parts: tuple[int, ...], N: int, b: int) -> int:
    """E(p_{parts[0]}, p_{parts[1]}, ...) at the integer point (N, b).

    Ordered, memoized and refused like `cumulant`, except that E() = 1.
    """
    if min(parts, default=0) < 0:
        raise ValueError(f"the multiset of degrees {parts} has a negative degree")
    if sum(parts) % 2:
        return 0
    if not parts:
        return 1
    if parts[-1] == 0:
        return N * moment(parts[:-1], N, b)
    k, rest = parts[0] - 1, parts[1:]
    out = b * k * _moment(N, b, k - 1, *rest) if k else 0
    for a in range(k):
        out += _moment(N, b, a, k - 1 - a, *rest)
    for r, mult in Counter(rest).items():
        reduced = list(rest)
        reduced.remove(r)
        out += r * mult * (1 + b) * _moment(N, b, k + r - 1, *reduced)
    return out


@lru_cache(maxsize=None)
def _splits(rest: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Every (R1, R2, number of ways) with R1 + R2 = rest as vertex sets."""
    groups = sorted(Counter(rest).items(), reverse=True)
    out = []
    for taken in product(*(range(m + 1) for _, m in groups)):
        left = tuple(v for (v, _), t in zip(groups, taken) for _ in range(t))
        right = tuple(v for (v, m), t in zip(groups, taken) for _ in range(m - t))
        ways = math.prod(math.comb(m, t) for (_, m), t in zip(groups, taken))
        out.append((left, right, ways))
    return tuple(out)


@lru_cache(maxsize=None)
def cumulant(parts: tuple[int, ...], N: int, b: int) -> int:
    """kappa(p_{parts[0]}, p_{parts[1]}, ...) at the integer point (N, b).

    The degrees are in descending order and the root is the largest.
    Memoized per multiset and point.  The empty multiset has no root, and
    a negative degree has no vertex: both raise ValueError.
    """
    if not parts:
        raise ValueError("the empty multiset of degrees has no root")
    if min(parts) < 0:
        raise ValueError(f"the multiset of degrees {parts} has a negative degree")
    if sum(parts) % 2 or (len(parts) > 1 and parts[-1] == 0):
        return 0
    out = moment(parts, N, b)
    for left, right, ways in _splits(parts[1:]):
        if right:
            out -= ways * cumulant((parts[0], *left), N, b) * moment(right, N, b)
    return out


def face_rows(parts: tuple[int, ...], max_n: int) -> dict[int, list[int]]:
    """The nonzero rows {N-power: [b-coefficients]} of kappa(parts), |parts| <= 2 max_n.

    One evaluation at b = 2^W, N = 2^(W (max_n + 1)), split into W-bit
    fields (Kronecker substitution).  No field carries: a coefficient is
    at most kappa_mu(1, 1), one nonnegative term of E_mu(1, 1) < 2^W, and
    the b-degree is at most n < max_n + 1.  W needs no recursion: at N = 1
    the ensemble is one Gaussian x of variance 1 + b, so E_mu(1, 1) =
    E[x^(2n)] = 2^n (2n - 1)!! = (2n)! / n! for every mu of 2n.
    """
    if sum(parts) > 2 * max_n:
        raise ValueError(f"{parts} weighs more than 2 * {max_n}")
    width = (math.factorial(2 * max_n) // math.factorial(max_n)).bit_length()
    step = width * (max_n + 1)
    packed = cumulant(tuple(parts), 1 << step, 1 << width)
    mask, rows = (1 << width) - 1, {}
    for j in range(packed.bit_length() // step + 1):
        block = (packed >> (step * j)) & ((1 << step) - 1)
        if block:
            rows[j] = [(block >> d) & mask for d in range(0, block.bit_length(), width)]
    return rows


class ExtractionError(RuntimeError):
    """A map count failed a polynomiality, divisibility or integrality check."""


class MapCountTable(dict):
    """Refined map-count polynomials, {MapKey: UniPoly in b}, for every key with n <= max_n."""

    def __init__(self, entries: dict[MapKey, UniPoly], max_n: int):
        super().__init__(entries)
        self.max_n = max_n

    def keys_sorted(self) -> list[MapKey]:
        """Rows ordered by edge count, then face count, then valence partition."""
        return sorted(self, key=lambda k: (k.n, k.j, k.mu))


def counts_from_cumulant(mu: Partition, kappa: dict[int, list[int]]) -> dict[int, UniPoly]:
    """The rows [N^j] 2n kappa / (z_mu (1 + b)^(l - 1)) of one valence partition.

    kappa is {face count j: [b-coefficients]}, as `face_rows` gives it.
    Returns the nonzero b-polynomials keyed by j.  Each row is one exact
    division over the integers: since 1 + b is monic, it succeeds exactly
    when (1 + b)^(l - 1) divides kappa_j and z_mu divides 2n times that
    quotient.  A remainder or an inexact step raises `ExtractionError`.
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
    check_truncation(max_n, MAX_EDGE_TRUNCATION, "the map-count table")
    table = MapCountTable({}, max_n)
    for n in range(1, max_n + 1):
        for mu in partitions_of(2 * n):
            for j, poly in counts_from_cumulant(mu, face_rows(mu, max_n)).items():
                table[MapKey(mu.parts, j).validate()] = poly
    # The memo keys hold this build's packed point, which no other truncation shares.
    moment.cache_clear()
    cumulant.cache_clear()
    return table


def specialize_counts(
    table: MapCountTable, b_value: int | Fraction
) -> dict[MapKey, int | Fraction]:
    """Evaluate every entry at a rational b (0 = orientable, 1 = all surfaces).

    An `int` b gives `int` counts and a `Fraction` b gives `Fraction`s; any
    other b raises TypeError.
    """
    if not isinstance(b_value, int):
        from fractions import Fraction  # loaded already when b is a Fraction

        if not isinstance(b_value, Fraction):
            raise TypeError(f"b must be an int or a Fraction, got {b_value!r}")
    return {key: poly.eval(b_value) for key, poly in table.items()}


def nonneg_report(table: MapCountTable) -> dict[MapKey, tuple[int, int]]:
    """{key: (b-degree, coefficient)} of each row's first negative coefficient.

    Keys come in `keys_sorted` order.  Nonnegativity of the refined counts is
    conjectural, so this is a report for the caller to act on, never an assertion.
    """
    violations = {}
    for key in table.keys_sorted():
        for deg, c in enumerate(table[key].coeffs):
            if c < 0:
                violations[key] = (deg, c)
                break
    return violations
