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
distinct degree r by its multiplicity.  Every coefficient is a polynomial
in N (the face variable) and b with nonnegative integer coefficients.

>>> cumulant((2,)) == {(2, 0): 1, (1, 1): 1}
True
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import product

#: A polynomial in N and b, as {(N-power, b-power): integer coefficient}.
Poly = dict[tuple[int, int], int]


def _add(acc: Poly, poly: Poly, scale: int = 1, b_shift: int = 0) -> None:
    """acc += scale * b**b_shift * poly, in place."""
    for (j, d), c in poly.items():
        key = (j, d + b_shift)
        acc[key] = acc.get(key, 0) + scale * c


def _kappa(*parts: int) -> Poly:
    """kappa of the entries in any order; the largest becomes the root."""
    return cumulant(tuple(sorted(parts, reverse=True)))


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
def cumulant(parts: tuple[int, ...]) -> Poly:
    """kappa(p_{parts[0]}, p_{parts[1]}, ...) for degrees in descending order.

    The root is the largest degree.  Memoized per multiset; treat the
    returned dict as immutable.
    """
    if sum(parts) % 2 or (len(parts) > 1 and parts[-1] == 0):
        return {}
    if parts == (0,):
        return {(1, 0): 1}
    k, rest = parts[0] - 1, parts[1:]
    out: Poly = {}
    if k:
        _add(out, _kappa(k - 1, *rest), scale=k, b_shift=1)
    for a in range(k):
        c = k - 1 - a
        _add(out, _kappa(a, c, *rest))
        for left, right, ways in _splits(rest):
            first, second = _kappa(a, *left), _kappa(c, *right)
            for (j1, d1), c1 in first.items():
                for (j2, d2), c2 in second.items():
                    key = (j1 + j2, d1 + d2)
                    out[key] = out.get(key, 0) + ways * c1 * c2
    for r, mult in Counter(rest).items():
        reduced = list(rest)
        reduced.remove(r)
        edge = _kappa(k + r - 1, *reduced)
        _add(out, edge, scale=r * mult)
        _add(out, edge, scale=r * mult, b_shift=1)
    return {key: c for key, c in out.items() if c}
