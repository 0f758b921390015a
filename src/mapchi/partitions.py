"""Integer partitions in reverse-lexicographic order and their statistics.

Partitions index both the power-sum/monomial bases of symmetric functions
and the vertex-valence data of maps.  Throughout the package a partition is
written with weakly decreasing positive parts, and lists of all partitions
of n are produced in reverse-lexicographic order: (n) first, (1,...,1) last.
For partitions of equal weight that order coincides with plain
lexicographic comparison of the part tuples.  `MapKey` indexes a refined
map count by its vertex distribution, face count and edge count.
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


def vertex_distribution_of(mu: Partition) -> tuple[int, ...]:
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


def partition_from_distribution(i: tuple[int, ...]) -> Partition:
    """Inverse of `vertex_distribution_of` (trailing zeros tolerated).

    >>> partition_from_distribution((2, 0, 1)).parts
    (3, 1, 1)
    """
    parts = []
    for k in range(len(i), 0, -1):
        if i[k - 1] < 0:
            raise ValueError("multiplicities must be nonnegative")
        parts.extend([k] * i[k - 1])
    return Partition(parts)


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
