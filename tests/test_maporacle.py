"""Brute-force oracles: polygon gluings and rooted-map censuses."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from mapchi import TruncationError
from mapchi.btutte import map_count_table, specialize_counts
from mapchi.eulerchar import lambda_values
from mapchi.maporacle import (
    _evaluate_gluing,
    _orbit_halves,
    _polygon_layout,
    double_cover_lift_check,
    glue_census,
    lambda_from_census,
    rooted_locally_orientable_counts,
    rooted_orientable_counts,
)
from mapchi.partitions import MapKey

# -- polygon gluings ---------------------------------------------------------


def test_two_gon_census():
    census = glue_census(2)
    assert census.raw_count == 2
    assert census.connected_count == 2
    assert census.by_chi == {(2, True): 1, (1, False): 1}
    assert census.by_chi_filtered == {}  # both gluings leave low-valence vertices


def test_square_census():
    census = glue_census(4, collect_patterns=True)
    assert census.raw_count == 12
    assert census.by_chi == {(2, True): 2, (1, False): 5, (0, False): 4, (0, True): 1}
    assert census.by_chi_filtered == {(0, False): 4, (0, True): 1}


def test_square_patterns_are_the_klein_and_torus_words():
    census = glue_census(4, collect_patterns=True)
    klein = set(census.patterns_filtered[(0, False)])
    assert klein == {"a a b b", "a b a^-1 b", "a b a b^-1", "a b b a"}
    assert census.patterns_filtered[(0, True)] == ["a b a^-1 b^-1"]


def test_two_squares_census_counts_connectivity():
    census = glue_census(2, 2)
    assert census.raw_count == 12
    assert census.connected_count == 8
    assert census.by_chi == {(2, True): 4, (1, False): 4}


def test_glue_census_rejects_bad_sides():
    with pytest.raises(ValueError):
        glue_census()
    with pytest.raises(ValueError):
        glue_census(3)
    with pytest.raises(ValueError):
        glue_census(2, 0)


@pytest.mark.parametrize("census", [glue_census, double_cover_lift_check])
@pytest.mark.parametrize(
    "sides, message",
    [
        ((2, 0), "polygon side counts must be positive"),
        ((), "polygon side counts must be positive"),
        ((0,), "polygon side counts must be positive"),
        ((-2, 4), "polygon side counts must be positive"),
        ((3,), "total side count must be even"),
    ],
)
def test_side_counts_are_checked_before_enumeration(census, sides, message):
    with pytest.raises(ValueError, match=message):
        census(*sides)


def test_orientable_gluings_have_even_chi():
    census = glue_census(6)
    for (chi, orientable), count in census.by_chi.items():
        assert count > 0
        assert chi <= 2
        if orientable:
            assert chi % 2 == 0


def test_double_cover_lifts():
    assert double_cover_lift_check(2) == 1
    assert double_cover_lift_check(4) == 9
    assert double_cover_lift_check(2, 2) == 4
    assert double_cover_lift_check(4, 2) == 72
    assert double_cover_lift_check(6) == 105
    assert double_cover_lift_check(2, 2, 2) == 32
    assert double_cover_lift_check(3, 3) == 90


def test_two_squares_and_octagon_censuses():
    """Class tallies of the 1,680 gluings of two squares and of an octagon."""
    squares = glue_census(4, 4)
    assert squares.by_chi == {
        (2, True): 72, (1, False): 304, (0, False): 544, (-1, False): 496, (0, True): 120,
    }
    assert squares.by_chi_filtered == {(0, False): 160, (-1, False): 496, (0, True): 24}
    octagon = glue_census(8)
    assert octagon.by_chi == {
        (2, True): 14, (1, False): 93, (0, False): 304, (-1, False): 690,
        (-2, False): 488, (0, True): 70, (-2, True): 21,
    }
    assert octagon.by_chi_filtered == {(-2, False): 488, (-1, False): 198, (-2, True): 21}


def _random_pairing(rng: random.Random, size: int) -> list[int]:
    elements = list(range(size))
    rng.shuffle(elements)
    pairing = [0] * size
    for x, y in zip(elements[::2], elements[1::2]):
        pairing[x], pairing[y] = y, x
    return pairing


def _orbit_halves_by_search(first: list[int], second: list[int]) -> list[int]:
    """Orbits found breadth-first under both pairings, in order of their
    least element, each halved."""
    seen = [False] * len(first)
    halves = []
    for start in range(len(first)):
        if seen[start]:
            continue
        seen[start] = True
        frontier, size = [start], 0
        while frontier:
            size += len(frontier)
            reached = []
            for x in frontier:
                for y in (first[x], second[x]):
                    if not seen[y]:
                        seen[y] = True
                        reached.append(y)
            frontier = reached
        halves.append(size // 2)
    return halves


@pytest.mark.parametrize("seed", range(20))
def test_orbit_halves_match_a_breadth_first_search(seed):
    rng = random.Random(seed)
    for _ in range(25):
        size = 2 * rng.randint(1, 12)
        first = _random_pairing(rng, size)
        second = _random_pairing(rng, size)
        assert _orbit_halves(first, second) == _orbit_halves_by_search(first, second)


def _all_gluings(total: int):
    """Every (pairs, twists) on `total` sides: each perfect matching, its
    first side paired first, with every twist assignment."""

    def matchings(items):
        if not items:
            yield ()
            return
        for k in range(1, len(items)):
            for tail in matchings(items[1:k] + items[k + 1 :]):
                yield ((items[0], items[k]),) + tail

    for pairs in matchings(tuple(range(total))):
        for twists in product((False, True), repeat=total // 2):
            yield pairs, twists


def _orientable_and_connected_by_search(sides, pairs, twists) -> tuple[bool, bool]:
    """Orientable: some colouring c of the polygons has c[p] ^ c[q] == twist
    for every pair joining polygons p and q.  Connected: no nonempty proper
    set of polygons is closed under the pairs."""
    owner = [p for p, length in enumerate(sides) for _ in range(length)]
    joins = [(owner[a], owner[b], twist) for (a, b), twist in zip(pairs, twists)]
    orientable = any(
        all(c[p] ^ c[q] == twist for p, q, twist in joins)
        for c in product((0, 1), repeat=len(sides))
    )
    connected = not any(
        0 < sum(inside) < len(sides) and all(inside[p] == inside[q] for p, q, _ in joins)
        for inside in product((False, True), repeat=len(sides))
    )
    return orientable, connected


@pytest.mark.parametrize(
    "sides", [(1, 1, 1, 1), (2, 2, 2), (3, 1, 2), (4, 2), (1,) * 6, (2, 2, 1, 1)]
)
def test_gluing_classes_match_an_exhaustive_colouring(sides):
    layout = _polygon_layout(sides)
    for pairs, twists in _all_gluings(sum(sides)):
        out = _evaluate_gluing(sides, layout, pairs, twists)
        orientable, connected = _orientable_and_connected_by_search(sides, pairs, twists)
        assert out.connected == connected, (pairs, twists)
        # `orientable` is read only for connected gluings.
        if connected:
            assert out.orientable == orientable, (pairs, twists)


# -- rooted-map oracles -------------------------------------------------------


def test_rooted_orientable_one_edge():
    assert rooted_orientable_counts(1) == {
        MapKey((1, 1), 1): 1,
        MapKey((2,), 2): 1,
    }


def test_rooted_locally_orientable_one_edge():
    """The three 1-edge rooted maps: a loop on the sphere, a twisted loop on
    the projective plane and an isthmus, each exactly once."""
    assert rooted_locally_orientable_counts(1) == {
        MapKey((1, 1), 1): 1,
        MapKey((2,), 1): 1,
        MapKey((2,), 2): 1,
    }


def test_rooted_totals():
    for n, expected in ((1, 2), (2, 10), (3, 74), (4, 706), (5, 8162), (6, 110410)):
        assert sum(rooted_orientable_counts(n).values()) == expected
    for n, expected in ((1, 3), (2, 24), (3, 297), (4, 4896)):
        assert sum(rooted_locally_orientable_counts(n).values()) == expected


def test_oracles_match_series_specializations():
    """Both oracles agree with the b = 0 and b = 1 columns of the series table."""
    table = map_count_table(4)
    at_zero = specialize_counts(table, Fraction(0))
    at_one = specialize_counts(table, Fraction(1))
    for n in range(1, 5):
        orient = rooted_orientable_counts(n)
        everything = rooted_locally_orientable_counts(n)
        for key in (k for k in table if k.n == n):
            assert orient.get(key, 0) == at_zero[key]
            assert everything.get(key, 0) == at_one[key]
        assert set(orient) == {k for k in at_zero if k.n == n and at_zero[k]}
        assert set(everything) == {k for k in at_one if k.n == n and at_one[k]}


def test_orientable_census_is_the_orientable_part_of_all_surfaces():
    """Each orientable key is a key of the census on all surfaces with no
    larger count and an even Euler characteristic; on the sphere, where
    every map is orientable, the two censuses agree."""
    for n in range(1, 6):
        orient = rooted_orientable_counts(n)
        everything = rooted_locally_orientable_counts(n)
        for key, count in orient.items():
            assert key in everything and count <= everything[key]
            assert key.euler_characteristic % 2 == 0
        spheres = {k: c for k, c in everything.items() if k.euler_characteristic == 2}
        assert spheres
        assert {k: c for k, c in orient.items() if k.euler_characteristic == 2} == spheres


def test_rooted_counts_respect_enumeration_bound():
    with pytest.raises(
        TruncationError,
        match="the orientable census needs 7 edges; it reaches 6",
    ):
        rooted_orientable_counts(7)
    with pytest.raises(
        TruncationError,
        match="the all-surfaces census needs 6 edges; it reaches 5",
    ):
        rooted_locally_orientable_counts(6)
    with pytest.raises(ValueError):
        rooted_orientable_counts(0)


def test_lambda_from_census():
    triple = lambda_from_census(1, 1)
    assert triple == lambda_values(1, 1)
    assert triple.total == Fraction(-1, 12)
    assert triple.nonorientable == 0


def test_lambda_from_census_bound_guard():
    with pytest.raises(TruncationError):
        lambda_from_census(2, 1)  # needs censuses through n = 6
    with pytest.raises(ValueError):
        lambda_from_census(0, 1)
