"""Joint cumulants of the b-deformed Gaussian ensemble, by root-edge deletion.

The map series of `mapseries` is the Gaussian beta-ensemble with a source
(Goulden and Jackson 1997; alpha = 2/beta = 1 + b).  Its loop equation
deletes the root edge of a map and gives a recursion for the joint
cumulants kappa(p_{k+1}, R) of the power sums, R a multiset of the other
vertex degrees (La Croix 2009; Chapuy and Dolega 2022, "b-deformed Tutte
equations"):

    kappa(p_{k+1}, R) = b k kappa(p_{k-1}, R)                   twisted loop
        + sum_{a + c = k - 1} [ kappa(p_a, p_c, R)              root splits
                              + sum_{R1 + R2 = R} kappa(p_a, R1) kappa(p_c, R2) ]
        + (1 + b) sum_{r in R} r kappa(p_{k+r-1}, R - r)        edge to r

with kappa(p_0) = N and every other cumulant with a p_0 entry zero.  The
R1 + R2 sum runs over the vertices of R as distinct objects, so each
sub-multiset is weighted by binomials, and the last sum weights each
distinct degree r by its multiplicity.  Every kappa is a polynomial in N
(the face variable) and b with nonnegative integer coefficients.  Each
step is a ring operation, so `cumulant` runs at an integer point and
`face_rows` reads the coefficients off one such value.

>>> cumulant((2,), 3, 5)  # N^2 + N b
24
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import product

#: Largest supported truncation of `mapseries.map_count_table`.  The
#: recursion builds the 10-edge table (6454 rows) in about 0.8 s on 2 vCPUs;
#: each further edge costs two to three times as much.
MAX_EDGE_TRUNCATION = 10

_EMPTY_MULTISET = "the empty multiset of degrees has no root"


def _kappa(N: int, b: int, *parts: int) -> int:
    """kappa of the entries in any order; the largest becomes the root."""
    return cumulant(tuple(sorted(parts, reverse=True)), N, b)


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
    Memoized per multiset and point.  The empty multiset has no root and
    raises ValueError.
    """
    if not parts:
        raise ValueError(_EMPTY_MULTISET)
    if sum(parts) % 2 or (len(parts) > 1 and parts[-1] == 0):
        return 0
    if parts == (0,):
        return N
    k, rest = parts[0] - 1, parts[1:]
    out = b * k * _kappa(N, b, k - 1, *rest) if k else 0
    for a in range(k):
        c = k - 1 - a
        out += _kappa(N, b, a, c, *rest)
        for left, right, ways in _splits(rest):
            out += ways * _kappa(N, b, a, *left) * _kappa(N, b, c, *right)
    for r, mult in Counter(rest).items():
        reduced = list(rest)
        reduced.remove(r)
        out += r * mult * (1 + b) * _kappa(N, b, k + r - 1, *reduced)
    return out


def face_rows(parts: tuple[int, ...], max_n: int) -> dict[int, list[int]]:
    """The nonzero rows {N-power: [b-coefficients]} of kappa(parts), |parts| <= 2 max_n.

    One evaluation at b = 2^W, N = 2^(W (max_n + 1)), split into W-bit
    fields (Kronecker substitution).  No field carries: a coefficient is
    at most kappa_mu(1, 1) <= kappa_(2n)(1, 1) < 2^W (at N = 1, p_mu =
    p_(2n), and the cumulant is one nonnegative term of that moment), and
    the b-degree is at most n < max_n + 1.
    """
    if not parts:
        raise ValueError(_EMPTY_MULTISET)
    if sum(parts) > 2 * max_n:
        raise ValueError(f"{parts} weighs more than 2 * {max_n}")
    width = cumulant((2 * max_n,), 1, 1).bit_length()
    step = width * (max_n + 1)
    packed = cumulant(tuple(parts), 1 << step, 1 << width)
    mask, rows = (1 << width) - 1, {}
    for j in range(packed.bit_length() // step + 1):
        block = (packed >> (step * j)) & ((1 << step) - 1)
        if block:
            rows[j] = [(block >> d) & mask for d in range(0, block.bit_length(), width)]
    return rows
