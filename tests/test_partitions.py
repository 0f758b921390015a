"""Integer partitions: enumeration order, centralizer orders, vertex distributions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchi.partitions import Partition, partitions_of, vertex_distribution_of, z_of
from mapchi.symfunc import jack


def partition_count_oracle(n: int) -> int:
    """Independent p(n) via the bounded-largest-part recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for largest in range(n + 1):
        table[largest][0] = 1
    for largest in range(1, n + 1):
        for total in range(1, n + 1):
            table[largest][total] = table[largest - 1][total]
            if total >= largest:
                table[largest][total] += table[largest][total - largest]
    return table[n][n]


def test_partition_counts_match_oracle():
    for n in range(15):
        assert len(partitions_of(n)) == partition_count_oracle(n)


def test_partitions_listed_in_descending_reverse_lex():
    for n in range(1, 11):
        parts = partitions_of(n)
        assert parts[0] == Partition((n,))
        assert parts[-1] == Partition((1,) * n)
        for a, b in zip(parts, parts[1:]):
            assert b < a


def test_partitions_of_zero():
    assert partitions_of(0) == (Partition(()),)


def test_z_of_known_values():
    assert z_of(Partition(())) == 1
    assert z_of(Partition((3,))) == 3
    assert z_of(Partition((2, 1, 1))) == 4
    assert z_of(Partition((2, 2))) == 8
    assert z_of(Partition((1, 1, 1))) == 6


def test_class_equation():
    """Sum of n!/z_mu over partitions of n gives n! (conjugacy classes of S_n)."""
    for n in range(1, 10):
        total = sum(Fraction(math.factorial(n), z_of(mu)) for mu in partitions_of(n))
        assert total == math.factorial(n)


def test_vertex_distribution_round_trip():
    for n in range(11):
        for mu in partitions_of(n):
            dist = vertex_distribution_of(mu)
            assert sum((k + 1) * m for k, m in enumerate(dist)) == mu.weight
            assert sum(dist) == mu.length


def test_vertex_distribution_has_no_trailing_zeros():
    assert vertex_distribution_of(Partition((3, 1, 1))) == (2, 0, 1)
    assert vertex_distribution_of(Partition(())) == ()


def test_partition_validates_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


@pytest.mark.parametrize("part", [2.5, Fraction(5, 2), "3"], ids=["float", "Fraction", "str"])
def test_partition_refuses_non_integer_parts(part):
    with pytest.raises(TypeError):
        Partition((part, 1))


def test_jack_refuses_a_non_integer_shape():
    with pytest.raises(TypeError):
        jack((2.9,))


def test_partition_accepts_integer_like_parts():
    class Index:
        """An integer stand-in such as a numpy int: it has `__index__`."""

        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    mu = Partition((Index(3), True))
    assert mu == (3, 1)
    assert all(type(p) is int for p in mu)
    assert repr(mu) == "Partition(3, 1)"


def test_partition_is_immutable_and_hashable():
    mu = Partition((2, 1))
    with pytest.raises(AttributeError):
        mu.parts = (3,)
    with pytest.raises(AttributeError):
        mu.weight = 1
    assert len({Partition((2, 1)), Partition((2, 1)), Partition((3,))}) == 2
    for parts in ((), (3,), (2, 1), (3, 1, 1)):
        assert hash(Partition(parts)) == hash(parts)
    by_shape = {Partition((2, 1)): "a", Partition(()): "b"}
    assert by_shape[(2, 1)] == "a" and by_shape[()] == "b"
    assert repr(Partition((3, 1, 1))) == "Partition(3, 1, 1)"
    assert repr(Partition((3,))) == "Partition(3,)"
    assert repr(Partition(())) == "Partition()"


def test_partition_compares_with_bare_tuples():
    assert Partition((2, 1)) == (2, 1)
    assert Partition(()) == ()
    assert Partition((2, 2)) < Partition((3, 1)) < (3, 2)
    assert Partition((2,)) + Partition((1,)) == (2, 1)


def test_partition_accessors():
    mu = Partition((4, 2, 2, 1))
    assert mu.weight == 9
    assert mu.length == 4
    assert mu.multiplicities() == {4: 1, 2: 2, 1: 1}


@given(st.integers(0, 9))
@settings(max_examples=30)
def test_every_partition_sums_to_n(n):
    for mu in partitions_of(n):
        assert sum(mu.parts) == n
        assert all(a >= b for a, b in zip(mu.parts, mu.parts[1:]))
