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
  permutation sigma on 2n darts together with the fixed involution
  alpha = (0 1)(2 3)...; vertices are cycles of sigma and faces are cycles
  of sigma o alpha.  A rooted map on any surface is a triple of perfect
  matchings on 4n flags (four per edge): two fixed matchings carry the edge
  structure and the third glues the edges; vertices and faces are orbits
  of pairs of matchings.

Each rooted-map census generates every rooted map exactly once, in the
canonical order from the root (Walsh 1983, "Generating nonisomorphic maps
without storing them"): the root gets label 0, and the next unset image is
either an already-labelled element or the first element of a new edge,
which takes the next free labels.  A generated structure is the canonical
labelling of its own rooted map, so no labelling is visited twice, no count
is divided, and connectedness holds by construction.  The search never
closes a map before it has n edges, so it has no dead ends and its leaves
are exactly the rooted maps.  Each model enumerates up to a fixed edge
count, `MAX_ORIENTABLE_EDGES` (6) for the permutations and
`MAX_LOCALLY_ORIENTABLE_EDGES` (5) for the matchings; larger requests raise
`TruncationError` before any enumeration starts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .eulerchar import (
    LambdaTriple,
    RouteMismatchError,
    TruncationError,
    lambda_sum,
    lambda_values,
)
from .mapseries import MapKey
from .partitions import Partition, vertex_distribution_of

#: Largest edge count of the permutation census: 110,410 rooted maps at
#: n = 6 (about 0.7 s); n = 7 would be 1,708,394.
MAX_ORIENTABLE_EDGES = 6

#: Largest edge count of the matching census: 100,278 rooted maps at n = 5
#: (about 0.7 s); n = 6 would be 2,450,304.
MAX_LOCALLY_ORIENTABLE_EDGES = 5


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


class GlueOutcome(NamedTuple):
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


class GlueCensus:
    """Exhaustive census of the gluings of a fixed polygon collection.

    The counts and the (chi, orientable)-keyed tallies start empty and are
    filled by `glue_census`.
    """

    def __init__(self, sides: tuple[int, ...], edge_count: int):
        self.sides = sides
        self.edge_count = edge_count
        self.raw_count = 0
        self.connected_count = 0
        self.by_chi: dict[tuple[int, bool], int] = {}
        self.by_chi_filtered: dict[tuple[int, bool], int] = {}
        self.patterns_filtered: dict[tuple[int, bool], list[str]] = {}

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


def _by_map_key(raw: dict[tuple[tuple[int, ...], int], int], n: int) -> dict[MapKey, int]:
    """A census keyed by (valences, faces), rekeyed by `MapKey` in
    (distribution, faces) order."""
    classes = {
        (vertex_distribution_of(Partition(valences)), faces): count
        for (valences, faces), count in raw.items()
    }
    return {
        MapKey(dist, faces, n).validate(): count
        for (dist, faces), count in sorted(classes.items())
    }


def _cycle_lengths(perm: list[int]) -> list[int]:
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


def _orbit_sizes(m3: list[int], fixed: int) -> list[int]:
    """Orbit sizes of the group generated by x -> x xor `fixed` and `m3`.

    Both generators are fixed-point-free involutions, so every orbit is a
    cycle that alternates them and has even size.
    """
    seen = [False] * len(m3)
    sizes = []
    for x in range(len(m3)):
        if seen[x]:
            continue
        size = 0
        while not seen[x]:
            y = x ^ fixed
            seen[x] = seen[y] = True
            x = m3[y]
            size += 2
        sizes.append(size)
    return sizes


def rooted_orientable_counts(n: int) -> dict[MapKey, int]:
    """Rooted orientable maps with n edges, by vertex distribution and faces.

    A map is a rotation sigma on 2n darts against the edge involution
    alpha(x) = x xor 1 (edge k has darts 2k and 2k+1); vertices are cycles
    of sigma and faces are cycles of sigma o alpha.  The root dart is 0 and
    sigma is built in label order: sigma(d) is either a labelled dart that
    is nobody's image yet, or the first dart of a new edge, which takes the
    next two labels.  This is the canonical labelling of exactly one rooted
    map, so each rooted map is generated once and nothing is divided.  At
    most `MAX_ORIENTABLE_EDGES` edges.

    >>> rooted_orientable_counts(1)
    {MapKey(i=(0, 1), j=2, n=1): 1, MapKey(i=(2,), j=1, n=1): 1}
    """
    _check_edges(n, MAX_ORIENTABLE_EDGES, "permutation")
    return dict(_orientable_counts(n))


@lru_cache(maxsize=None)
def _orientable_counts(n: int) -> dict[MapKey, int]:
    darts = 2 * n
    sigma = [0] * darts
    unreached = [False] * darts  # labelled darts that are no dart's sigma-image
    unreached[0] = unreached[1] = True
    raw: dict[tuple[tuple[int, ...], int], int] = {}

    def extend(d: int, labelled: int) -> None:
        # Darts below d have their image; labelled - d darts are unreached.
        if d == labelled:
            valences = tuple(sorted(_cycle_lengths(sigma), reverse=True))
            faces = len(_cycle_lengths([sigma[x ^ 1] for x in range(darts)]))
            raw[valences, faces] = raw.get((valences, faces), 0) + 1
            return
        if labelled < darts:
            sigma[d] = labelled
            unreached[labelled + 1] = True
            extend(d + 1, labelled + 2)
            unreached[labelled + 1] = False
        # Taking the last unreached dart closes the map: only with n edges.
        if labelled == darts or labelled - d > 1:
            for e in range(labelled):
                if unreached[e]:
                    unreached[e] = False
                    sigma[d] = e
                    extend(d + 1, labelled)
                    unreached[e] = True

    extend(0, 2)
    return _by_map_key(raw, n)


def rooted_locally_orientable_counts(n: int) -> dict[MapKey, int]:
    """Rooted maps on all surfaces with n edges, by vertex distribution and faces.

    Each edge k contributes four flags 4k..4k+3; the fixed matchings
    m1(x) = x xor 1 (same side) and m2(x) = x xor 2 (same end) carry the
    edge structure, and a third matching m3 glues the edges.  Vertices are
    orbits of <m2, m3> (valence = orbit size / 2) and faces are orbits of
    <m1, m3>.  The root flag is 0 and m3 is built in label order: the next
    flag d with m3(d) unset is matched either to a later labelled flag with
    m3 unset, or to flag 4k of a new edge k, whose four flags take the next
    labels.  This is the canonical labelling of exactly one rooted map, so
    each rooted map is generated once and nothing is divided.  At most
    `MAX_LOCALLY_ORIENTABLE_EDGES` edges.

    >>> rooted_locally_orientable_counts(2)[MapKey((0, 0, 0, 1), 1, 2)]
    5
    """
    _check_edges(n, MAX_LOCALLY_ORIENTABLE_EDGES, "matching")
    return dict(_locally_orientable_counts(n))


@lru_cache(maxsize=None)
def _locally_orientable_counts(n: int) -> dict[MapKey, int]:
    flags = 4 * n
    m3 = [-1] * flags
    raw: dict[tuple[tuple[int, ...], int], int] = {}

    def extend(d: int, labelled: int, unmatched: int) -> None:
        # Flags below d are matched; `unmatched` labelled flags are not.
        while d < labelled and m3[d] >= 0:
            d += 1
        if d == labelled:
            vertices = _orbit_sizes(m3, 2)
            valences = tuple(sorted((size // 2 for size in vertices), reverse=True))
            faces = len(_orbit_sizes(m3, 1))
            raw[valences, faces] = raw.get((valences, faces), 0) + 1
            return
        if labelled < flags:
            m3[d], m3[labelled] = labelled, d
            extend(d + 1, labelled + 4, unmatched + 2)
            m3[labelled] = -1
        # Matching the last two unmatched flags closes the map: only with n edges.
        if labelled == flags or unmatched > 2:
            for e in range(d + 1, labelled):
                if m3[e] < 0:
                    m3[d], m3[e] = e, d
                    extend(d + 1, labelled, unmatched - 2)
                    m3[e] = -1
        m3[d] = -1

    extend(0, 4, 4)
    return _by_map_key(raw, n)


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
