"""Map-count series: partition sum, extraction, refined counts, nonnegativity."""

from __future__ import annotations

from fractions import Fraction

import pytest

from mapchi.arith import AlphaFn, UniPoly
from mapchi.mapseries import (
    ExtractionError,
    MapCountTable,
    MapKey,
    counts_from_cumulant,
    extract_map_counts,
    jack_partition_sum,
    map_count_table,
    map_series,
    nonneg_report,
    specialize_counts,
)
from mapchi.partitions import Partition
from mapchi.symfunc import PowerSumExpr
from mapchi.verify import REFERENCE_COUNTS, ROOTED_TOTALS_ALL, ROOTED_TOTALS_ORIENTABLE


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
    assert table.entries == {
        key: UniPoly("b", coeffs) for key, coeffs in REFERENCE_COUNTS.items()
    }


def test_recursion_equals_jack_route():
    assert map_count_table(3).entries == extract_map_counts(map_series(3)).entries


def test_orientable_totals_through_eight_edges():
    by_b0 = specialize_counts(map_count_table(8), Fraction(0))
    for n in range(1, 9):
        total = sum(v for k, v in by_b0.items() if k.n == n)
        assert total == ROOTED_TOTALS_ORIENTABLE[n]


def test_all_surface_totals_through_six_edges():
    by_b1 = specialize_counts(map_count_table(6), Fraction(1))
    totals = {n: sum(v for k, v in by_b1.items() if k.n == n) for n in range(1, 7)}
    assert totals == ROOTED_TOTALS_ALL


def test_cumulant_division_remainders_raise():
    # (1, 1) needs one factor 1 + b, which N alone does not have.
    with pytest.raises(ExtractionError, match="not divisible"):
        counts_from_cumulant(Partition((1, 1)), {(1, 0): 1})
    # (2, 2): 2n = 4 times (1 + b) / (1 + b) = 1, over z = 8.
    with pytest.raises(ExtractionError, match="non-integer"):
        counts_from_cumulant(Partition((2, 2)), {(1, 0): 1, (1, 1): 1})
    assert counts_from_cumulant(Partition((1, 1)), {(1, 0): 1, (1, 1): 1}) == {
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
    assert keys[0] == MapKey((2,), 1, 1)
    assert [k.n for k in keys] == sorted(k.n for k in keys)
    for a, b in zip(keys, keys[1:]):
        assert (a.n, a.j) <= (b.n, b.j)


def test_mapkey_validate_accepts_good_keys():
    for key in REFERENCE_COUNTS:
        assert key.validate() == key


def test_mapkey_validate_rejects_bad_keys():
    with pytest.raises(ValueError):
        MapKey((2, 0), 1, 1).validate()  # trailing zero
    with pytest.raises(ValueError):
        MapKey((2,), 3, 1).validate()  # too many faces
    with pytest.raises(ValueError):
        MapKey((1,), 1, 1).validate()  # valences do not sum to 2n
    with pytest.raises(ValueError):
        MapKey((-1, 0, 1), 1, 1).validate()


def test_mapkey_euler_characteristic():
    assert MapKey((2,), 1, 1).euler_characteristic == 2
    assert MapKey((0, 0, 0, 0, 0, 1), 1, 3).euler_characteristic == -1


def test_table_rows_satisfy_surface_constraints():
    """Euler bound, crosscap degree bound, orientable rows free of b."""
    table = map_count_table(3)
    for key, poly in table.entries.items():
        chi = key.euler_characteristic
        assert chi <= 2
        assert poly.degree <= 2 - chi
        if chi == 2:
            assert poly.degree <= 0
        if chi % 2:
            assert poly.coeff(0) == 0
        assert all(c.denominator == 1 and c >= 0 for c in poly.coeffs)


def test_nonneg_report_empty_for_real_counts():
    assert nonneg_report(map_count_table(3)) == []


def test_nonneg_report_flags_synthetic_violation():
    bad = MapCountTable(
        entries={MapKey((2,), 1, 1): UniPoly("b", (-1, 2))},
        max_n=1,
    )
    report = nonneg_report(bad)
    assert len(report) == 1
    assert report[0].key == MapKey((2,), 1, 1)
    assert report[0].degree == 0
    assert report[0].coefficient == -1


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
