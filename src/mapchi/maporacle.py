"""Brute-force surface and map enumerators used as independent oracles.

Both models count vertices the same way.  Each describes a surface by
pairings (perfect matchings, that is fixed-point-free involutions) of a
finite set; a vertex is an orbit of the group generated by two pairings,
a cycle that alternates them, and `_orbit_halves` walks those cycles.

* polygon gluings: every way of identifying the sides of s labeled polygons
  in pairs, each identification either orientation-reversing (antiparallel,
  the a...a^-1 pattern) or orientation-preserving (parallel, the a...a
  pattern).  The elements are side ends: side u has ends 2u (its start
  corner) and 2u + 1 (its end corner).  The corner pairing joins each
  polygon corner's two side ends, the gluing pairing joins the side ends
  that an identification lays on each other, and vertices are the orbits
  of the two.  Orientability follows the rule of the rooted maps below:
  each polygon takes an orientation class, side end 2u its polygon's class
  and 2u + 1 the other, and the gluing is orientable when some choice of
  classes makes the gluing pairing swap them, as the corner pairing does.
  V - E + F gives the Euler characteristic with E = n side pairs and
  F = s polygons.

* rooted maps: a rooted map on any surface with n edges is a triple of
  perfect matchings on 4n flags (four per edge): two fixed matchings carry
  the edge structure and the third glues the edges; vertices and faces are
  orbits of pairs of matchings.  The map is orientable exactly when its
  flags split into two orientation classes that all three matchings swap.

One census generates every rooted map exactly once, in the canonical order
from the root (Walsh 1983, "Generating nonisomorphic maps without storing
them"): the root flag gets label 0, and the next unmatched flag is matched
either to an already-labelled flag or to the first flag of a new edge,
which takes the next free labels.  A generated structure is the canonical
labelling of its own rooted map, so no labelling is visited twice, no count
is divided, and connectedness holds by construction.  The search never
closes a map before it has n edges, so it has no dead ends and its leaves
are exactly the rooted maps.  Each flag's orientation class is fixed when
its edge is labelled, so the orientable census is the same search that
matches only flags of opposite classes; every step leaves as many unmatched
flags in one class as in the other, so it has no dead ends either.  It
enumerates up to `MAX_ORIENTABLE_EDGES` (6) edges, the census on all
surfaces up to `MAX_LOCALLY_ORIENTABLE_EDGES` (5); larger requests raise
`TruncationError` before any enumeration starts.

The censuses are integer counts, so the rational layers (`eulerchar`,
`fractions`) load only where they run, in `lambda_from_census`; the
errors this module raises, and the guards that raise them, live in the
package root.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from typing import TYPE_CHECKING, NamedTuple

from . import check_agreement, check_indices, check_truncation
from .partitions import MapKey

if TYPE_CHECKING:
    from .eulerchar import LambdaTriple

#: Largest edge count of the orientable census: 110,410 rooted maps at
#: n = 6 (about 0.9 s); n = 7 would be 1,708,394.
MAX_ORIENTABLE_EDGES = 6

#: Largest edge count of the census on all surfaces: 100,278 rooted maps at
#: n = 5 (about 0.9 s); n = 6 would be 2,450,304.
MAX_LOCALLY_ORIENTABLE_EDGES = 5


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------


def _orbit_halves(first: list[int], second: list[int]) -> list[int]:
    """Half the size of each orbit of the group generated by two pairings.

    `first` and `second` are fixed-point-free involutions, as lists, so
    every orbit is a cycle that alternates them; its half size is the number
    of `first` pairs it holds.
    """
    seen = [False] * len(first)
    halves = []
    for x in range(len(first)):
        if seen[x]:
            continue
        half = 0
        while not seen[x]:
            y = first[x]
            seen[x] = seen[y] = True
            x = second[y]
            half += 1
        halves.append(half)
    return halves


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
    chi: int
    orientable: bool
    connected: bool
    min_valence: int


def _polygon_layout(sides: tuple[int, ...]):
    """The owning polygon of each side and the corner pairing of side ends.

    Sides are numbered polygon by polygon along each boundary; side u has
    ends 2u (start corner) and 2u + 1 (end corner).  The corner pairing
    joins 2u + 1 and 2 next(u), where next(u) is the next side of the same
    polygon, so each of its pairs is one polygon corner.
    """
    owner: list[int] = []
    corner = [0] * (2 * sum(sides))
    for p, length in enumerate(sides):
        first = len(owner)
        for c in range(length):
            u, following = first + c, first + (c + 1) % length
            corner[2 * u + 1], corner[2 * following] = 2 * following, 2 * u + 1
            owner.append(p)
    return owner, corner


def _evaluate_gluing(
    sides: tuple[int, ...],
    layout,
    pairs: tuple[tuple[int, int], ...],
    twists: tuple[bool, ...],
) -> GlueOutcome:
    """Lay the pairs on the side ends and read off the glued surface;
    `orientable` covers polygon 0's component, so read it only if `connected`."""
    owner, corner = layout
    glue = [0] * len(corner)
    # The polygons each polygon's pairs reach, with each pair's twist.
    reach: list[list[tuple[int, bool]]] = [[] for _ in sides]
    for (a, b), twist in zip(pairs, twists):
        # A parallel (twisted) pair lays start on start, an antiparallel one
        # start on end.
        x, y = 2 * a, 2 * b + (not twist)
        glue[x], glue[y] = y, x
        glue[x + 1], glue[y ^ 1] = y ^ 1, x + 1
        p, q = owner[a], owner[b]
        reach[p].append((q, twist))
        reach[q].append((p, twist))
    # Orientation class of each polygon reached from polygon 0: the gluing
    # pairing swaps side-end classes when a twisted pair joins opposite
    # polygon classes and an untwisted pair equal ones.
    side = [0] + [-1] * (len(sides) - 1)
    walk = [0]
    orientable = True
    for p in walk:
        for q, twist in reach[p]:
            c = side[p] ^ twist
            if side[q] < 0:
                side[q] = c
                walk.append(q)
            elif side[q] != c:
                orientable = False
    valences = _orbit_halves(corner, glue)
    return GlueOutcome(
        chi=len(valences) - len(pairs) + len(sides),
        orientable=orientable,
        connected=-1 not in side,
        min_valence=min(valences),
    )


def _pattern_word(sides: tuple[int, ...], pairs, twists) -> str:
    """Render a gluing as a boundary word, polygons separated by '|'.

    The first side of a pair gets a fresh letter; its partner repeats the
    letter, with exponent -1 when the identification is antiparallel.
    """
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

    def __init__(self, edge_count: int):
        self.edge_count = edge_count
        self.raw_count = 0
        self.connected_count = 0
        self.by_chi: dict[tuple[int, bool], int] = {}
        self.by_chi_filtered: dict[tuple[int, bool], int] = {}
        self.patterns_filtered: dict[tuple[int, bool], list[str]] = {}


def _checked_side_total(sides: tuple[int, ...]) -> int:
    """The total side count; ValueError unless there are sides, each >= 1, with an even total."""
    if not sides or any(k < 1 for k in sides):
        raise ValueError("polygon side counts must be positive")
    total = sum(sides)
    if total % 2:
        raise ValueError("total side count must be even")
    return total


def _gluings(sides: tuple[int, ...]):
    """The edge count and every pairing x twist assignment of the sides.

    Checks the sides before returning, then yields (pairs, twists,
    `GlueOutcome`) lazily, pairings in `_matchings` order and each pairing's
    twists in `product` order.
    """
    edges = _checked_side_total(sides) // 2
    layout = _polygon_layout(sides)
    return edges, (
        (pairs, twists, _evaluate_gluing(sides, layout, pairs, twists))
        for pairs in _matchings(tuple(range(2 * edges)))
        for twists in product((False, True), repeat=edges)
    )


def glue_census(*sides: int, collect_patterns: bool = False) -> GlueCensus:
    """Enumerate every pairing x twist assignment of the given polygon sides.

    Only connected gluings enter the censuses; `raw_count` counts every
    enumerated configuration.  The filtered census additionally requires
    every vertex of the glued boundary graph to have valence >= 3.

    >>> glue_census(2).by_chi
    {(2, True): 1, (1, False): 1}
    >>> glue_census(4).by_chi_filtered
    {(0, False): 4, (0, True): 1}
    """
    edges, gluings = _gluings(sides)
    census = GlueCensus(edge_count=edges)
    for pairs, twists, out in gluings:
        census.raw_count += 1
        if not out.connected:
            continue
        census.connected_count += 1
        key = (out.chi, out.orientable)
        census.by_chi[key] = census.by_chi.get(key, 0) + 1
        if out.min_valence >= 3:
            census.by_chi_filtered[key] = census.by_chi_filtered.get(key, 0) + 1
            if collect_patterns:
                census.patterns_filtered.setdefault(key, []).append(
                    _pattern_word(sides, pairs, twists)
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
    with doubled Euler characteristic; `check_agreement` compares the list
    of their Euler characteristics with that expectation.  Returns the
    number of base gluings checked.
    """
    s = len(sides)
    edges, gluings = _gluings(sides)
    cover_sides = tuple(k for k in sides for _ in range(2))
    cover_layout = _polygon_layout(cover_sides)

    # Base polygon p, whose k sides start at side `first`, lifts to cover
    # polygons 2p and 2p+1; side u keeps its place in both copies.
    lifted = [
        (u + first, u + first + k)
        for first, k in zip(accumulate((0, *sides)), sides)
        for u in range(first, first + k)
    ]

    checked = 0
    for pairs, twists, base in gluings:
        if not base.connected or base.orientable:
            continue
        checked += 1
        lift_chis = []
        for choices in product((0, 1), repeat=edges):
            cover_pairs = []
            cover_twists = []
            for (a, b), twist, crossed in zip(pairs, twists, choices):
                cover_pairs.append((lifted[a][0], lifted[b][crossed]))
                cover_twists.append(twist)
                cover_pairs.append((lifted[a][1], lifted[b][1 - crossed]))
                cover_twists.append(twist)
            out = _evaluate_gluing(
                cover_sides, cover_layout, tuple(cover_pairs), tuple(cover_twists)
            )
            if out.connected and out.orientable:
                lift_chis.append(out.chi)
        check_agreement(
            f"orientable lifts of {_pattern_word(sides, pairs, twists)!r}",
            "Euler characteristics",
            lift_chis,
            "the double cover",
            [2 * base.chi] * 2 ** (s - 1),
        )
    return checked


# ---------------------------------------------------------------------------
# Rooted maps
# ---------------------------------------------------------------------------


def rooted_orientable_counts(n: int) -> dict[MapKey, int]:
    """Rooted orientable maps with n edges, by valence partition and faces.

    The maps of `rooted_locally_orientable_counts` whose flags split into two
    orientation classes that all three matchings swap.  At most
    `MAX_ORIENTABLE_EDGES` edges.

    >>> rooted_orientable_counts(1)
    {MapKey(mu=(2,), j=2): 1, MapKey(mu=(1, 1), j=1): 1}
    """
    check_truncation(n, MAX_ORIENTABLE_EDGES, "the orientable census")
    return dict(_rooted_census(n, True))


def rooted_locally_orientable_counts(n: int) -> dict[MapKey, int]:
    """Rooted maps on all surfaces with n edges, by valence partition and faces.

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

    >>> rooted_locally_orientable_counts(2)[MapKey((4,), 1)]
    5
    """
    check_truncation(n, MAX_LOCALLY_ORIENTABLE_EDGES, "the all-surfaces census")
    return dict(_rooted_census(n, False))


@lru_cache(maxsize=None)
def _rooted_census(n: int, orientable: bool) -> dict[MapKey, int]:
    """The canonical census of rooted maps with n edges; with `orientable`,
    m3 joins only flags of opposite orientation class.  The keys come in the
    order the search first reaches them."""
    flags = 4 * n
    same_side = [x ^ 1 for x in range(flags)]
    same_end = [x ^ 2 for x in range(flags)]
    m3 = [-1] * flags
    # Orientation class of each labelled flag.  Edge k's flags get
    # (c, c^1, c^1, c), so m1 and m2 swap the class; a new edge takes
    # c = side[d] ^ 1 from the flag d it hangs from, so m3 swaps it too.
    side = [0, 1, 1, 0] + [0] * (flags - 4)
    raw: dict[tuple[tuple[int, ...], int], int] = {}

    def extend(d: int, labelled: int, unmatched: int) -> None:
        # Flags below d are matched; `unmatched` labelled flags are not.
        while d < labelled and m3[d] >= 0:
            d += 1
        if d == labelled:
            valences = tuple(sorted(_orbit_halves(same_end, m3), reverse=True))
            faces = len(_orbit_halves(same_side, m3))
            raw[valences, faces] = raw.get((valences, faces), 0) + 1
            return
        if labelled < flags:
            c = side[d] ^ 1
            side[labelled : labelled + 4] = c, c ^ 1, c ^ 1, c
            m3[d], m3[labelled] = labelled, d
            extend(d + 1, labelled + 4, unmatched + 2)
            m3[labelled] = -1
        # Matching the last two unmatched flags closes the map: only with n edges.
        if labelled == flags or unmatched > 2:
            same_class = side[d] if orientable else -1
            for e in range(d + 1, labelled):
                if m3[e] < 0 and side[e] != same_class:
                    m3[d], m3[e] = e, d
                    extend(d + 1, labelled, unmatched - 2)
                    m3[e] = -1
        m3[d] = -1

    extend(0, 4, 4)
    return {MapKey(*key).validate(): count for key, count in raw.items()}


# ---------------------------------------------------------------------------
# Euler characteristics from censuses
# ---------------------------------------------------------------------------


def lambda_from_census(g: int, s: int) -> LambdaTriple:
    """(Lambda, Lambda^O, Lambda^N) assembled from the rooted-map oracles.

    `eulerchar.lambda_sum` over the rooted counts with n in `lambda_edges`,
    on all surfaces for Lambda and orientable only for Lambda^O.  Compared
    against the closed forms; any disagreement raises.  Both censuses must
    reach the last such n, which only (g, s) = (1, 1) does.
    """
    what = f"Lambda({g},{s}) from the censuses"
    check_indices(g, s, what)

    from fractions import Fraction

    from .eulerchar import LambdaTriple, lambda_edges, lambda_sum, lambda_values

    edges = lambda_edges(g, s)
    check_truncation(edges[-1], min(MAX_ORIENTABLE_EDGES, MAX_LOCALLY_ORIENTABLE_EDGES), what)
    allsurf = {k: c for n in edges for k, c in rooted_locally_orientable_counts(n).items()}
    orientable = {k: c for n in edges for k, c in rooted_orientable_counts(n).items()}
    lam = lambda_sum(allsurf, g, s, Fraction(0))
    lam_o = lambda_sum(orientable, g, s, Fraction(0))
    triple = LambdaTriple(total=lam, orientable=lam_o, nonorientable=lam - lam_o)
    check_agreement(f"Lambda({g},{s})", "census route", triple, "closed form", lambda_values(g, s))
    return triple
