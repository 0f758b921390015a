"""Brute-force surface and map enumerators used as independent oracles.

Two unrelated combinatorial models cross-check the algebraic map series:

* polygon gluings: every way of identifying the sides of s labeled polygons
  in pairs, each identification either orientation-reversing (antiparallel,
  the a...a^-1 pattern) or orientation-preserving (parallel, the a...a
  pattern).  Corner tracing yields the vertex count of the glued surface,
  2-coloring of polygon orientations decides orientability, and
  V - E + F gives the Euler characteristic with E = n side pairs and
  F = s polygons.

* encoded rooted maps: an orientable rooted map with n edges is a
  permutation nu on 2n edge-end labels together with the fixed involution
  eps0 = (0 1)(2 3)...; vertices are cycles of nu, faces are cycles of
  nu o eps0, and connectedness is transitivity of the generated group.
  A locally orientable rooted map is a triple of perfect matchings on 4n
  flags (four per edge): two fixed matchings carry the edge structure and
  the third ranges over all (4n-1)!! candidates; vertices and faces are
  orbits of pairs of matchings.

Normalizations from labeled censuses down to rooted counts are derived
once, validated against forced small cases, and asserted integral
everywhere else.  Each model enumerates up to a fixed edge count,
`MAX_ORIENTABLE_EDGES` (4) for the permutations and
`MAX_LOCALLY_ORIENTABLE_EDGES` (3) for the matchings; larger requests
raise `TruncationError` before any enumeration starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .eulerchar import (
    LambdaTriple,
    RouteMismatchError,
    TruncationError,
    lambda_sum,
    lambda_values,
)
from .mapseries import MapKey
from .partitions import Partition, vertex_distribution_of

#: Largest edge count of the permutation census: it visits all (2n)!
#: permutations, 40,320 at n = 4 (about 0.4 s); n = 5 would be 3,628,800.
MAX_ORIENTABLE_EDGES = 4

#: Largest edge count of the matching census: it visits all (4n-1)!!
#: matchings, 10,395 at n = 3; n = 4 would be 2,027,025.
MAX_LOCALLY_ORIENTABLE_EDGES = 3


class NormalizationError(RuntimeError):
    """A labeled census did not divide evenly into rooted counts."""


# ---------------------------------------------------------------------------
# Disjoint-set helpers
# ---------------------------------------------------------------------------


class _DSU:
    __slots__ = ("parent", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.count -= 1

    def class_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for x in range(len(self.parent)):
            r = self.find(x)
            sizes[r] = sizes.get(r, 0) + 1
        return sizes


class _ParityDSU:
    """Union-find with a sign relative to the root; detects parity conflicts."""

    __slots__ = ("parent", "parity")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n

    def find(self, x: int) -> tuple[int, int]:
        if self.parent[x] == x:
            return x, 0
        root, par = self.find(self.parent[x])
        self.parent[x] = root
        self.parity[x] ^= par
        return root, self.parity[x]

    def union(self, a: int, b: int, rel: int) -> bool:
        """Impose parity(a) xor parity(b) = rel; False on contradiction."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == rel
        self.parent[ra] = rb
        self.parity[ra] = pa ^ pb ^ rel
        return True


# ---------------------------------------------------------------------------
# Polygon gluings
# ---------------------------------------------------------------------------


def _matchings(items: tuple[int, ...]):
    """All perfect matchings of an even-sized tuple, as tuples of pairs."""
    if not items:
        yield ()
        return
    first = items[0]
    for k in range(1, len(items)):
        partner = items[k]
        rest = items[1:k] + items[k + 1 :]
        for tail in _matchings(rest):
            yield ((first, partner),) + tail


@dataclass(frozen=True)
class GlueOutcome:
    vertices: int
    chi: int
    orientable: bool
    connected: bool
    min_valence: int


def _polygon_layout(sides: tuple[int, ...]):
    """Per-side (polygon, start corner, end corner) with global corner ids."""
    owner: list[int] = []
    start: list[int] = []
    end: list[int] = []
    offset = 0
    for p, length in enumerate(sides):
        for c in range(length):
            owner.append(p)
            start.append(offset + c)
            end.append(offset + (c + 1) % length)
        offset += length
    return owner, start, end


def _evaluate_gluing(
    sides: tuple[int, ...],
    layout,
    pairs: tuple[tuple[int, int], ...],
    twists: tuple[bool, ...],
) -> GlueOutcome:
    owner, start, end = layout
    total_corners = sum(sides)
    corners = _DSU(total_corners)
    polys = _DSU(len(sides))
    orient = _ParityDSU(len(sides))
    orientable = True
    for (a, b), twist in zip(pairs, twists):
        if twist:
            corners.union(start[a], start[b])
            corners.union(end[a], end[b])
        else:
            corners.union(start[a], end[b])
            corners.union(end[a], start[b])
        polys.union(owner[a], owner[b])
        if not orient.union(owner[a], owner[b], 1 if twist else 0):
            orientable = False
    sizes = corners.class_sizes()
    vertices = len(sizes)
    n_edges = len(pairs)
    chi = vertices - n_edges + len(sides)
    return GlueOutcome(
        vertices=vertices,
        chi=chi,
        orientable=orientable,
        connected=polys.count == 1,
        min_valence=min(sizes.values()),
    )


def _pattern_word(sides: tuple[int, ...], pairs, twists) -> str:
    """Render a gluing as a boundary word, polygons separated by '|'.

    The first side of a pair gets a fresh letter; its partner repeats the
    letter, with exponent -1 when the identification is antiparallel.
    """
    total = sum(sides)
    symbol: dict[int, str] = {}
    letters = "abcdefghijklmnopqrstuvwxyz"
    next_letter = 0
    for (a, b), twist in sorted(zip(pairs, twists)):
        letter = letters[next_letter]
        next_letter += 1
        symbol[a] = letter
        symbol[b] = letter if twist else letter + "^-1"
    words = []
    offset = 0
    for length in sides:
        words.append(" ".join(symbol[offset + c] for c in range(length)))
        offset += length
    return " | ".join(words)


@dataclass
class GlueCensus:
    """Exhaustive census of the gluings of a fixed polygon collection."""

    sides: tuple[int, ...]
    edge_count: int
    raw_count: int = 0
    connected_count: int = 0
    by_chi: dict[tuple[int, bool], int] = field(default_factory=dict)
    by_chi_filtered: dict[tuple[int, bool], int] = field(default_factory=dict)
    patterns_filtered: dict[tuple[int, bool], list[str]] = field(default_factory=dict)

    def lambda_nonorientable(self, genus: int) -> int:
        """Connected nonorientable gluings of Euler characteristic 1 - genus,
        all boundary-graph valences >= 3."""
        return self.by_chi_filtered.get((1 - genus, False), 0)

    def lambda_orientable(self, handles: int) -> int:
        return self.by_chi_filtered.get((2 - 2 * handles, True), 0)


def glue_census(*sides: int, collect_patterns: bool = False) -> GlueCensus:
    """Enumerate every pairing x twist assignment of the given polygon sides.

    Only connected gluings enter the censuses; `raw_count` counts every
    enumerated configuration.  The filtered census additionally requires
    every vertex of the glued boundary graph to have valence >= 3.

    >>> glue_census(2).by_chi
    {(2, True): 1, (1, False): 1}
    >>> glue_census(4).lambda_nonorientable(1)
    4
    """
    if not sides or any(k < 1 for k in sides):
        raise ValueError("polygon side counts must be positive")
    total = sum(sides)
    if total % 2:
        raise ValueError("total side count must be even")
    census = GlueCensus(sides=tuple(sides), edge_count=total // 2)
    layout = _polygon_layout(tuple(sides))
    for pairs in _matchings(tuple(range(total))):
        for twists in product((False, True), repeat=total // 2):
            census.raw_count += 1
            out = _evaluate_gluing(tuple(sides), layout, pairs, twists)
            if not out.connected:
                continue
            census.connected_count += 1
            key = (out.chi, out.orientable)
            census.by_chi[key] = census.by_chi.get(key, 0) + 1
            if out.min_valence >= 3:
                census.by_chi_filtered[key] = census.by_chi_filtered.get(key, 0) + 1
                if collect_patterns:
                    census.patterns_filtered.setdefault(key, []).append(
                        _pattern_word(tuple(sides), pairs, twists)
                    )
    return census


def double_cover_lift_check(*sides: int) -> int:
    """Check the orientable-double-cover lifting count over a polygon set.

    For every connected nonorientable gluing of the s given polygons, build
    all 2^n equivariant lifts to the doubled polygon collection: each base
    identification either stays within matching copies or crosses them,
    with the twist unchanged (both copies carry the same side labeling, so
    the gluing homeomorphism lifts verbatim; the orientation double cover
    is the choice that crosses exactly at the parallel identifications).
    Exactly 2^{s-1} lifts must glue to a connected orientable surface, each
    with doubled Euler characteristic.  Returns the number of base gluings
    checked.
    """
    base_sides = tuple(sides)
    s = len(base_sides)
    total = sum(base_sides)
    if total % 2:
        raise ValueError("total side count must be even")
    layout = _polygon_layout(base_sides)
    cover_sides = tuple(k for k in base_sides for _ in range(2))
    cover_layout = _polygon_layout(cover_sides)

    # Side u of base polygon p lifts to the same local position in cover
    # polygons 2p and 2p+1.
    base_offsets = [0]
    for k in base_sides:
        base_offsets.append(base_offsets[-1] + k)
    cover_offsets = [0]
    for k in cover_sides:
        cover_offsets.append(cover_offsets[-1] + k)
    owner, _, _ = layout

    def lift_side(u: int, copy: int) -> int:
        p = owner[u]
        local = u - base_offsets[p]
        return cover_offsets[2 * p + copy] + local

    checked = 0
    n = total // 2
    for pairs in _matchings(tuple(range(total))):
        for twists in product((False, True), repeat=n):
            base = _evaluate_gluing(base_sides, layout, pairs, twists)
            if not base.connected or base.orientable:
                continue
            checked += 1
            good = 0
            for choices in product((0, 1), repeat=n):
                cover_pairs = []
                cover_twists = []
                for (a, b), twist, crossed in zip(pairs, twists, choices):
                    cover_pairs.append((lift_side(a, 0), lift_side(b, crossed)))
                    cover_twists.append(twist)
                    cover_pairs.append((lift_side(a, 1), lift_side(b, 1 - crossed)))
                    cover_twists.append(twist)
                out = _evaluate_gluing(
                    cover_sides, cover_layout, tuple(cover_pairs), tuple(cover_twists)
                )
                if out.connected and out.orientable:
                    if out.chi != 2 * base.chi:
                        raise RouteMismatchError(
                            "orientable lift fails Euler-characteristic doubling"
                        )
                    good += 1
            if good != 2 ** (s - 1):
                raise RouteMismatchError(
                    f"gluing {_pattern_word(base_sides, pairs, twists)!r} has "
                    f"{good} orientable lifts, expected {2 ** (s - 1)}"
                )
    return checked


# ---------------------------------------------------------------------------
# Encoded rooted maps
# ---------------------------------------------------------------------------


def _check_edges(n: int, limit: int, model: str) -> None:
    if n < 1:
        raise ValueError("edge count must be positive")
    if n > limit:
        raise TruncationError(
            f"the {model} oracle enumerates at most {limit} edges, asked for {n}"
        )


def _rooted(
    raw: dict[tuple[tuple[int, ...], int], int], divisor: int, n: int, model: str
) -> dict[MapKey, int]:
    """Rooted counts from a labeled census keyed by (valences, faces), in
    (distribution, faces) order; every class must divide by `divisor`."""
    classes = {
        (vertex_distribution_of(Partition(valences)), faces): count
        for (valences, faces), count in raw.items()
    }
    counts: dict[MapKey, int] = {}
    for (dist, faces), count in sorted(classes.items()):
        rooted, rest = divmod(count, divisor)
        if rest:
            raise NormalizationError(
                f"{model} census class {dist}, j={faces} has size {count}, "
                f"not divisible by {divisor}"
            )
        counts[MapKey(dist, faces, n).validate()] = rooted
    return counts


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for x in range(len(perm)):
        if seen[x]:
            continue
        length = 0
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return lengths


def rooted_orientable_counts(n: int) -> dict[MapKey, int]:
    """Rooted orientable maps with n edges, by vertex distribution and faces.

    Enumerates all permutations nu of the 2n edge-end labels against the
    fixed pairing eps0(x) = x xor 1, keeping transitive pairs.  The labeled
    census relates to rooted counts through the relabeling group: over all
    (2n-1)!! choices of the pairing, each rooted map is encoded by exactly
    (2n-1)! transitive pairs (label 1 pinned at the root), so with eps0
    frozen the class counts divide by (2n-1)!/(2n-1)!! = 2^{n-1} (n-1)!.
    Integrality of every quotient is asserted.  At most
    `MAX_ORIENTABLE_EDGES` edges.

    >>> rooted_orientable_counts(1)
    {MapKey(i=(0, 1), j=2, n=1): 1, MapKey(i=(2,), j=1, n=1): 1}
    """
    _check_edges(n, MAX_ORIENTABLE_EDGES, "permutation")
    return dict(_orientable_counts(n))


@lru_cache(maxsize=None)
def _orientable_counts(n: int) -> dict[MapKey, int]:
    raw: dict[tuple[tuple[int, ...], int], int] = {}
    labels = 2 * n
    for nu in permutations(range(labels)):
        dsu = _DSU(labels)
        for x in range(labels):
            dsu.union(x, nu[x])
            dsu.union(x, x ^ 1)
        if dsu.count != 1:
            continue
        valences = tuple(sorted(_cycle_lengths(nu), reverse=True))
        faces = len(_cycle_lengths(tuple(nu[x ^ 1] for x in range(labels))))
        key = (valences, faces)
        raw[key] = raw.get(key, 0) + 1
    return _rooted(raw, 2 ** (n - 1) * math.factorial(n - 1), n, "permutation")


def rooted_locally_orientable_counts(n: int) -> dict[MapKey, int]:
    """Rooted maps on all surfaces with n edges, by vertex distribution and faces.

    Each edge contributes four flags 4e..4e+3; the fixed matchings
    m1(x) = x xor 1 (same side) and m2(x) = x xor 2 (same end) carry the
    edge structure, while the third matching ranges over all (4n-1)!!
    pairings of the flags.  Vertices are orbits of <m2, m3> (valence =
    orbit size / 2), faces are orbits of <m1, m3>, and connectedness is
    transitivity of all three.

    The rooted normalization divides the census by 4^{n-1} (n-1)!, the
    number of flag relabelings fixing the root flag: calibrated against
    the three 1-edge rooted maps, where the divisor is 1 and the census
    must reproduce the totals {(i=(2),j=1): 1, (i=(0,1),j=1): 1,
    (i=(0,1),j=2): 1} exactly; asserted integral for larger n.  At most
    `MAX_LOCALLY_ORIENTABLE_EDGES` edges.

    >>> rooted_locally_orientable_counts(2)[MapKey((0, 0, 0, 1), 1, 2)]
    5
    """
    _check_edges(n, MAX_LOCALLY_ORIENTABLE_EDGES, "matching")
    return dict(_locally_orientable_counts(n))


@lru_cache(maxsize=None)
def _locally_orientable_counts(n: int) -> dict[MapKey, int]:
    flags = 4 * n
    raw: dict[tuple[tuple[int, ...], int], int] = {}
    for matching in _matchings(tuple(range(flags))):
        m3 = [0] * flags
        for a, b in matching:
            m3[a] = b
            m3[b] = a
        conn = _DSU(flags)
        for x in range(flags):
            conn.union(x, x ^ 1)
            conn.union(x, x ^ 2)
            conn.union(x, m3[x])
        if conn.count != 1:
            continue
        verts = _DSU(flags)
        facedsu = _DSU(flags)
        for x in range(flags):
            verts.union(x, x ^ 2)
            verts.union(x, m3[x])
            facedsu.union(x, x ^ 1)
            facedsu.union(x, m3[x])
        orbit_sizes = sorted(verts.class_sizes().values(), reverse=True)
        if any(size % 2 for size in orbit_sizes):
            raise NormalizationError("odd vertex orbit in matching model")
        valences = tuple(size // 2 for size in orbit_sizes)
        key = (valences, facedsu.count)
        raw[key] = raw.get(key, 0) + 1
    counts = _rooted(raw, 4 ** (n - 1) * math.factorial(n - 1), n, "matching")
    if n == 1:
        expected = {
            MapKey((2,), 1, 1): 1,
            MapKey((0, 1), 1, 1): 1,
            MapKey((0, 1), 2, 1): 1,
        }
        if counts != expected:
            raise NormalizationError(
                f"calibration against the 1-edge rooted maps failed: {counts}"
            )
    return counts


# ---------------------------------------------------------------------------
# Euler characteristics from censuses
# ---------------------------------------------------------------------------


def lambda_from_census(g: int, s: int) -> LambdaTriple:
    """(Lambda, Lambda^O, Lambda^N) assembled from the rooted-map oracles.

    `eulerchar.lambda_sum` over the rooted counts with n = g+s .. 3g+3s-3
    edges, on all surfaces for Lambda and orientable only for Lambda^O.
    Compared against the closed forms; any disagreement raises.  Both
    censuses must reach n = 3g+3s-3, which only (g, s) = (1, 1) does.
    """
    if g < 1 or s < 1:
        raise ValueError("need g >= 1 and s >= 1")
    top = 3 * g + 3 * s - 3
    reach = min(MAX_ORIENTABLE_EDGES, MAX_LOCALLY_ORIENTABLE_EDGES)
    if top > reach:
        raise TruncationError(
            f"Lambda({g},{s}) needs rooted censuses through n={top}, "
            f"the two censuses together reach n={reach}"
        )
    edges = range(g + s, top + 1)
    allsurf = {k: c for n in edges for k, c in rooted_locally_orientable_counts(n).items()}
    orientable = {k: c for n in edges for k, c in rooted_orientable_counts(n).items()}
    lam = lambda_sum(allsurf, g, s, Fraction(0))
    lam_o = lambda_sum(orientable, g, s, Fraction(0))
    triple = LambdaTriple(total=lam, orientable=lam_o, nonorientable=lam - lam_o)
    algebraic = lambda_values(g, s)
    if triple != algebraic:
        raise RouteMismatchError(
            f"census route for Lambda({g},{s}) gives {triple}, "
            f"closed forms give {algebraic}"
        )
    return triple
