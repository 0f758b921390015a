"""The refined map counts: the recursion's table, nonnegativity, and the Jack route."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from mapchi import check_agreement
from mapchi.arith import ALPHA, AlphaFn, UniPoly
from mapchi.btutte import (
    ExtractionError,
    MapCountTable,
    counts_from_cumulant,
    map_count_table,
    nonneg_report,
    specialize_counts,
)
from mapchi.maporacle import rooted_locally_orientable_counts, rooted_orientable_counts
from mapchi.mapseries import extract_map_counts, jack_partition_sum, map_series
from mapchi.partitions import MapKey, Partition
from mapchi.symfunc import PowerSumExpr
from mapchi.verify import (
    REFERENCE_COUNTS,
    ROOTED_TOTALS_ALL,
    ROOTED_TOTALS_ORIENTABLE,
    alpha_dual,
    harer_zagier_rows,
    rooted_orientable_totals,
    slicing_rows,
)


def test_series_first_coefficient():
    """z^1 coefficient of S(z) is (x/(2 alpha)) p_11 + (x(x + alpha - 1)/(2 alpha)) p_2."""
    s = jack_partition_sum(1)
    half = AlphaFn.alpha(-1) * Fraction(1, 2)
    x = UniPoly.gen("x")
    c = s.coefficient(1)
    assert c.coefficient((1, 1)) == x * half
    assert c.coefficient((2,)) == (x**2 + x * (AlphaFn.alpha() - 1)) * half
    assert s.coefficient(0) == PowerSumExpr.one()


def test_map_series_first_coefficient():
    """z^1 coefficient of M(z) is x p_11 + (x^2 + (alpha-1)x) p_2."""
    m = map_series(1)
    x = UniPoly.gen("x")
    c = m.coefficient(1)
    assert c.coefficient((1, 1)) == x
    assert c.coefficient((2,)) == x**2 + x * (AlphaFn.alpha() - 1)


def test_map_counts_match_known_table():
    table = map_count_table(3)
    assert table == {key: UniPoly("b", coeffs) for key, coeffs in REFERENCE_COUNTS.items()}


def test_map_count_table_is_the_dict_of_its_rows():
    table = map_count_table(3)
    assert isinstance(table, dict) and table.max_n == 3
    assert not hasattr(table, "entries")


def test_table_coefficients_are_ints():
    """Every row through 10 edges has int coefficients, never a Fraction or a float."""
    for key, poly in map_count_table(10).items():
        assert poly.var == "b" and all(type(c) is int for c in poly.coeffs), (key, poly)


def test_recursion_equals_jack_route():
    table, jack_rows = map_count_table(3), extract_map_counts(map_series(3))
    assert check_agreement("map counts", "recursion", table, "Jack route", jack_rows) == 32


def test_specialize_counts_takes_an_int_or_a_fraction_and_refuses_a_float():
    table = map_count_table(1)
    b = {MapKey((2,), 1): 1, MapKey((2,), 2): 0, MapKey((1, 1), 1): 0}  # b-degree per row
    assert specialize_counts(table, 1) == {key: 1 for key in b}
    assert all(type(count) is int for count in specialize_counts(table, 1).values())
    half = Fraction(1, 2)
    assert specialize_counts(table, half) == {key: half**d for key, d in b.items()}
    with pytest.raises(TypeError, match="b must be an int or a Fraction, got 0.5"):
        specialize_counts(table, 0.5)


def test_orientable_totals_through_eight_edges():
    by_b0 = specialize_counts(map_count_table(8), Fraction(0))
    for n in range(1, 9):
        total = sum(v for k, v in by_b0.items() if k.n == n)
        assert total == ROOTED_TOTALS_ORIENTABLE[n]


def test_chord_diagram_recursion_gives_rooted_orientable_totals():
    totals = rooted_orientable_totals(12)
    assert totals == {**ROOTED_TOTALS_ORIENTABLE, 11: 285764591114, 12: 7213364729026}
    assert [totals[n] for n in range(1, 7)] == [2, 10, 74, 706, 8162, 110410]


def test_closed_forms_match_ten_edge_table():
    """Harer-Zagier's one-vertex rows at b = 0, Tutte's even-degree planar rows."""
    table = map_count_table(10)
    one_vertex = harer_zagier_rows(10)
    planar = slicing_rows(10)
    assert (len(one_vertex), len(planar)) == (35, 138)
    assert all(type(count) is int for count in planar.values())
    for key, eps in one_vertex.items():
        assert table[key].coeff(0) == eps
    for key, count in planar.items():
        assert table[key] == UniPoly("b", [count])
    # Spot values: a square glues to one torus, a hexagon to ten tori and
    # an octagon to 21 genus-2 surfaces; the rooted planar 4-regular maps
    # with k = 2 vertices number 2 * 3^k (2k)! / (k! (k+2)!) = 9.
    assert one_vertex[MapKey((4,), 1)] == 1
    assert one_vertex[MapKey((6,), 2)] == 10
    assert one_vertex[MapKey((8,), 1)] == 21
    assert planar[MapKey((4, 4), 4)] == 9
    # The recursion's genus-0 rows are the Catalan numbers.
    genus0 = {key.n: count for key, count in harer_zagier_rows(30).items() if key.j == key.n + 1}
    assert genus0 == {n: math.comb(2 * n, n) // (n + 1) for n in range(1, 31)}


def test_all_surface_totals_through_six_edges():
    by_b1 = specialize_counts(map_count_table(6), Fraction(1))
    totals = {n: sum(v for k, v in by_b1.items() if k.n == n) for n in range(1, 7)}
    assert totals == ROOTED_TOTALS_ALL


def test_cumulant_division_remainders_raise():
    # (1, 1) needs one factor 1 + b, which N alone does not have.
    with pytest.raises(ExtractionError, match="not divisible"):
        counts_from_cumulant(Partition((1, 1)), {1: [1]})
    # (2, 2): 2n = 4 times (1 + b) / (1 + b) = 1, over z = 8.
    with pytest.raises(ExtractionError, match="non-integer"):
        counts_from_cumulant(Partition((2, 2)), {1: [1, 1]})
    assert counts_from_cumulant(Partition((1, 1)), {1: [1, 1]}) == {
        1: UniPoly("b", (1,))
    }


def test_specializations_hit_rooted_map_totals():
    table = map_count_table(3)
    by_b0 = specialize_counts(table, Fraction(0))
    by_b1 = specialize_counts(table, Fraction(1))
    for n, expected in ((1, 2), (2, 10), (3, 74)):
        assert sum(v for k, v in by_b0.items() if k.n == n) == expected
    for n, expected in ((1, 3), (2, 24), (3, 297)):
        assert sum(v for k, v in by_b1.items() if k.n == n) == expected


def test_keys_sorted_order():
    table = map_count_table(2)
    keys = table.keys_sorted()
    assert keys[0] == MapKey((1, 1), 1)
    assert [k.n for k in keys] == sorted(k.n for k in keys)
    for a, b in zip(keys, keys[1:]):
        assert (a.n, a.j) <= (b.n, b.j)


def test_mapkey_validate_accepts_good_keys():
    """Every key that a producer builds: the reference table, the 10-edge
    table, both censuses at their reach and the closed-form rows."""
    keys = [
        *REFERENCE_COUNTS,
        *map_count_table(10),
        *(key for n in range(1, 7) for key in rooted_orientable_counts(n)),
        *(key for n in range(1, 6) for key in rooted_locally_orientable_counts(n)),
        *harer_zagier_rows(10),
        *slicing_rows(10),
    ]
    for key in keys:
        assert key.validate() == key
        assert type(key.mu) is tuple and repr(key) == f"MapKey(mu={key.mu!r}, j={key.j})"


def test_mapkey_validate_rejects_bad_keys():
    with pytest.raises(ValueError, match="weakly decreasing"):
        MapKey((1, 3), 1).validate()  # unordered parts
    with pytest.raises(ValueError, match="odd number 3"):
        MapKey((2, 1), 1).validate()  # odd weight
    with pytest.raises(ValueError, match="positive"):
        MapKey((3, -1), 1).validate()  # a negative part
    with pytest.raises(ValueError, match="face count 3 outside 1..2"):
        MapKey((2,), 3).validate()  # too many faces


def test_mapkey_euler_characteristic():
    assert MapKey((1, 1), 1).euler_characteristic == 2
    assert MapKey((6,), 1).euler_characteristic == -1
    key = MapKey((3, 1, 1, 1), 1)
    assert (key.i, key.j, key.n) == ((3, 0, 1), 1, 3)


def test_table_rows_satisfy_surface_constraints():
    """Every row through 10 edges, at b = alpha - 1, is its own alpha <-> 1/alpha
    dual at its Euler genus 2 - chi; that implies the Euler and crosscap
    bounds, b-free sphere rows and no orientable maps at odd chi."""
    b_at_alpha = UniPoly(ALPHA, (-1, 1))
    for key, poly in map_count_table(10).items():
        at_alpha = poly.compose(b_at_alpha)
        assert at_alpha == alpha_dual(at_alpha, 2 - key.euler_characteristic), (key, poly)


def test_nonneg_report_empty_for_real_counts():
    assert nonneg_report(map_count_table(3)) == {}


def test_nonneg_report_flags_synthetic_violation():
    bad = MapCountTable(
        entries={MapKey((1, 1), 1): UniPoly("b", (-1, 2))},
        max_n=1,
    )
    assert nonneg_report(bad) == {MapKey((1, 1), 1): (0, -1)}


def test_extraction_rejects_constant_terms():
    """A z-coefficient with an x-free component cannot be a map count."""
    from mapchi.arith import TruncatedSeries

    series = TruncatedSeries(
        "z", [PowerSumExpr.one(), PowerSumExpr.basis((1, 1)) * Fraction(3)], 1
    )
    with pytest.raises(ExtractionError):
        extract_map_counts(series)


def test_truncation_guards():
    with pytest.raises(ValueError):
        jack_partition_sum(0)
    with pytest.raises(ValueError):
        jack_partition_sum(6)
    with pytest.raises(ValueError):
        map_count_table(0)
    with pytest.raises(ValueError):
        map_count_table(11)
