"""The b-Tutte moments and cumulants at integer points, and the packed decoding."""

from __future__ import annotations

import math

import pytest

from mapchi import MAX_EDGE_TRUNCATION
from mapchi.btutte import _table_rows, cumulant, face_rows, moment
from mapchi.partitions import partitions_of


def test_hand_decodings():
    # kappa_(2) = N^2 + N b and kappa_(1,1) = N + N b.
    assert face_rows((2,), 1) == {2: [1], 1: [0, 1]}
    assert face_rows((1, 1), 1) == {1: [1, 1]}
    assert cumulant((2,), 3, 5) == 24
    assert cumulant((1, 1), 3, 5) == 18


def test_moments_match_closed_forms():
    """Closed forms of the Gaussian ensemble, none read through the cumulants.

    E_(2) = N^2 + N b and E_(1,1) = N + N b.  At N = 1 the ensemble is one
    Gaussian x of variance 1 + b, and every mu of 2n has E_mu = E[x^(2n)].
    tr H is Gaussian of variance N (1 + b), which fixes E_(1^2n).
    """
    assert moment((2,), 3, 5) == 24
    assert moment((1, 1), 3, 5) == 18
    for n in range(1, 8):
        double_factorial = math.prod(range(1, 2 * n, 2))
        for b in (0, 1, 2, 5):
            for mu in partitions_of(2 * n):
                assert moment(tuple(mu), 1, b) == (1 + b) ** n * double_factorial, mu
            for N in (1, 2, 3, 7):
                assert moment((1,) * (2 * n), N, b) == (N * (1 + b)) ** n * double_factorial


def test_decoding_matches_point_values():
    # The decoded polynomials, evaluated back, give the recursion's values.
    for mu in partitions_of(8):
        rows = face_rows(mu, 4)
        for N, b in ((2, 3), (5, 1), (1, 0)):
            value = sum(c * N**j * b**d for j, row in rows.items() for d, c in enumerate(row))
            assert value == cumulant(tuple(mu), N, b)


def test_no_field_carries_through_the_truncation_bound():
    """Every mu with |mu| <= 2 MAX_EDGE_TRUNCATION, at the narrowest fields a table gives it.

    A carry out of a W-bit field changes the digit sum, so equal sums
    mean every coefficient was read whole.  The field width rests on
    kappa_mu(1, 1) <= kappa_(2n)(1, 1) = (2n)! / n!, checked here too.
    """
    for n in range(1, MAX_EDGE_TRUNCATION + 1):
        bound = cumulant((2 * n,), 1, 1)
        assert bound == 2**n * math.prod(range(1, 2 * n, 2))
        assert bound == math.factorial(2 * n) // math.factorial(n)
        for mu in partitions_of(2 * n):
            total = cumulant(tuple(mu), 1, 1)
            assert total <= bound
            rows = face_rows(mu, n)
            assert sum(map(sum, rows.values())) == total, mu


def test_a_table_build_empties_both_memos():
    """Their keys hold the build's packed point, which no other build reuses."""
    cumulant((2, 2), 3, 5)  # fills both memos
    assert moment.cache_info().currsize and cumulant.cache_info().currsize
    _table_rows.__wrapped__(2)  # a fresh build, past the rows' own cache
    assert moment.cache_info().currsize == cumulant.cache_info().currsize == 0


def test_face_rows_refuses_too_heavy_parts():
    with pytest.raises(ValueError, match="weighs more"):
        face_rows((4,), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cumulant((), 3, 5),
        lambda: face_rows((), 1),
        lambda: cumulant((-2, 4), 3, 5),
        lambda: face_rows((-2, 4), 1),
        lambda: moment((4, -2), 3, 5),
    ],
    ids=["cumulant()", "face_rows()", "cumulant(-2,4)", "face_rows(-2,4)", "moment(4,-2)"],
)
def test_empty_or_negative_multiset_is_refused(call):
    """No root, or a degree no vertex has: refused, not recursed on without end."""
    with pytest.raises(ValueError, match="multiset of degrees"):
        call()
