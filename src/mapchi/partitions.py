"""Integer partitions in reverse-lexicographic order and their statistics.

Partitions index both the power-sum/monomial bases of symmetric functions
and the vertex-valence data of maps.  Throughout the package a partition is
written with weakly decreasing positive parts, and lists of all partitions
of n are produced in reverse-lexicographic order: (n) first, (1,...,1) last.
For partitions of equal weight that order coincides with plain
lexicographic comparison of the part tuples.  `MapKey` indexes a refined
map count by its valence partition and face count.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple


class Partition(tuple):
    """An integer partition: a tuple of weakly decreasing positive parts.

    Being a tuple, a partition equals, hashes and orders like the bare
    tuple of its parts, and is immutable.

    >>> Partition((3, 1, 1)).weight
    5
    >>> Partition((3, 1, 1)).length
    3
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(operator.index, parts))
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a bare tuple."""
        return tuple(self)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> multiplicity."""
        out: dict[int, int] = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def __repr__(self):
        return f"Partition{self.parts!r}"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order.

    >>> [p.parts for p in partitions_of(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    >>> partitions_of(0)
    (Partition(),)
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(Partition(p) for p in gen(n, n))


def z_of(mu: Partition) -> int:
    """The centralizer order z_mu = prod_k k^{m_k} m_k!.

    The conjugacy class of cycle type mu in the symmetric group on
    |mu| letters has |mu|!/z_mu elements.

    >>> z_of(Partition((2, 1, 1)))
    4
    >>> z_of(Partition((3,)))
    3
    """
    out = 1
    for part, mult in mu.multiplicities().items():
        out *= part**mult * math.factorial(mult)
    return out


def vertex_distribution_of(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Multiplicity vector (i_1, i_2, ...) with i_k = #parts equal to k.

    The tuple ends at the largest part, so it never has trailing zeros.

    >>> vertex_distribution_of(Partition((3, 1, 1)))
    (2, 0, 1)
    >>> vertex_distribution_of(Partition(()))
    ()
    """
    if not mu:
        return ()
    out = [0] * mu[0]
    for p in mu:
        out[p - 1] += 1
    return tuple(out)


class MapKey(NamedTuple):
    """Index of a refined map count: valence partition and face count.

    `mu` holds the vertex valences as a plain tuple of weakly decreasing
    parts, so a key prints the same whichever producer built it; they sum
    to 2n for n edges.  The edge count n and the vertex distribution i are
    read off `mu`.
    """

    mu: tuple[int, ...]
    j: int

    def validate(self) -> MapKey:
        Partition(self.mu)  # positive, weakly decreasing parts
        if sum(self.mu) % 2:
            raise ValueError(f"vertex valences sum to the odd number {sum(self.mu)}: {self}")
        if not 1 <= self.j <= self.n + 1:
            raise ValueError(f"face count {self.j} outside 1..{self.n + 1}: {self}")
        return self

    @property
    def n(self) -> int:
        """The edge count: half the valence sum."""
        return sum(self.mu) // 2

    @property
    def i(self) -> tuple[int, ...]:
        """The vertex distribution, as `vertex_distribution_of` gives it."""
        return vertex_distribution_of(self.mu)

    @property
    def euler_characteristic(self) -> int:
        return len(self.mu) - self.n + self.j

    def enters_lambda(self, g: int, s: int) -> bool:
        """Whether the maps of this key are counted by lambda^s_g(n).

        They have s faces, no vertex of valence 1 or 2, and Euler
        characteristic 1 - g, that is n - g - s + 1 vertices.
        """
        return self.j == s and min(self.mu, default=3) >= 3 and self.euler_characteristic == 1 - g
