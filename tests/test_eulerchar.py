"""Parametrized Euler characteristics: three routes, specializations, chi family."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from mapchi import MAX_EDGE_TRUNCATION, TruncationError, btutte, eulerchar
from mapchi.arith import AlphaFn, UniPoly, bernoulli
from mapchi.btutte import map_count_table
from mapchi.cli import MAX_EULER_INDEX, main
from mapchi.eulerchar import (
    INV_GAMMA,
    LambdaTriple,
    ParityError,
    RouteMismatchError,
    chi_complex,
    chi_fixed_curves,
    chi_real,
    eval_at_gamma,
    lambda_values,
    logW_series,
    xi_closed,
    xi_from_logW,
    xi_from_maps,
)
from mapchi.verify import alpha_dual


def test_logW_first_order_coefficient():
    """Hand-expanded t^1 coefficient of log W.

    Collecting the k=1 tail term and the delta=1 double sum gives
    (-1/(12a) + 1/4 - a/12) x + (1/(4a) - 1/4) x^2 - x^3/(6a).
    """
    alpha = AlphaFn.alpha()
    inv = AlphaFn.alpha(-1)
    expected = UniPoly(
        "x",
        (
            AlphaFn.zero(),
            inv * Fraction(-1, 12) + Fraction(1, 4) - alpha * Fraction(1, 12),
            inv * Fraction(1, 4) - Fraction(1, 4),
            inv * Fraction(-1, 6),
        ),
    )
    assert logW_series(1).coefficient(1) == expected
    with pytest.raises(ValueError):
        logW_series(0)


def test_xi_closed_known_values():
    assert xi_closed(1, 1).coeffs == (
        Fraction(1, 12),
        Fraction(-1, 4),
        Fraction(1, 12),
    )
    # Pinned by xi(1/2) = -1/12 and xi(1) = 0 with zero constant term.
    assert xi_closed(2, 1).coeffs == (0, Fraction(1, 24), Fraction(-1, 24))
    assert xi_closed(1, 2) == xi_closed(1, 1) * -1
    with pytest.raises(ValueError):
        xi_closed(0, 1)
    with pytest.raises(ValueError):
        xi_closed(1, 0)


def test_xi_degree_law():
    """Degree g for even g, degree g+1 for odd g, with predictable top term;
    its own alpha <-> 1/alpha dual at k = g + 1 in alpha = 1/gamma."""
    for g in range(1, 9):
        for s in range(1, 4):
            xi = xi_closed(g, s)
            assert xi.var == "1/gamma"
            assert xi == alpha_dual(xi, g + 1)
            if g % 2 == 0:
                assert xi.degree == g
                assert all(xi.coeff(k) == 0 for k in range(2, g))
            else:
                assert xi.degree == g + 1
                assert bernoulli(g + 1) != 0


def test_xi_routes_agree():
    for g in range(1, 6):
        for s in range(1, 4):
            assert xi_from_logW(g, s) == xi_closed(g, s)


def test_xi_routes_agree_up_to_the_admitted_top():
    """The closed form and log W agree at the top (g, s) that `euler xi` admits.

    Seven seeded pairs from 1..600 join (600, 600).
    """
    rng = random.Random(5)
    top = MAX_EULER_INDEX
    pairs = [(top, top)] + [(rng.randint(1, top), rng.randint(1, top)) for _ in range(7)]
    for g, s in pairs:
        assert xi_from_logW(g, s) == xi_closed(g, s), (g, s)


def test_xi_from_logW_is_one_coefficient_of_the_series():
    """The one-coefficient route equals s! (-1)^s [x^s t^{g+s-1}] alpha * log W."""
    for g in range(1, 7):
        for s in range(1, 5):
            order = g + s - 1
            coeff = logW_series(order).coefficient(order).coeff(s)
            value = coeff * AlphaFn.alpha() * ((-1) ** s * math.factorial(s))
            assert xi_from_logW(g, s) == UniPoly(INV_GAMMA, value.as_alpha_poly().coeffs)


def test_xi_from_logW_refuses_a_leftover_negative_power(monkeypatch):
    monkeypatch.setattr(eulerchar, "_logW_coefficient", lambda delta, s: {-2: Fraction(1)})
    with pytest.raises(RouteMismatchError, match="negative power"):
        xi_from_logW(1, 1)


def test_xi_from_logW_compares_itself_with_the_closed_form(monkeypatch, capsys):
    solved = eulerchar._logW_coefficient

    def perturbed(delta, s):
        terms = dict(solved(delta, s))
        terms[-1] = terms.get(-1, 0) + 1  # a power the negative-power invariant admits
        return terms

    monkeypatch.setattr(eulerchar, "_logW_coefficient", perturbed)
    with pytest.raises(RouteMismatchError, match=r"^xi\(2,1\): log W route .*, closed form "):
        xi_from_logW(2, 1)
    assert main(["euler", "xi", "--route", "logw", "--g", "2", "--s", "1"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: xi(2,1): log W route ") and err.count("\n") == 1


def test_xi_from_maps_matches_closed_form():
    table = map_count_table(3)
    assert xi_from_maps(1, 1, table) == xi_closed(1, 1)


def test_xi_from_maps_requires_deep_table():
    with pytest.raises(TruncationError) as caught:
        xi_from_maps(1, 1, map_count_table(2))
    assert str(caught.value) == "xi(1,1) from map counts needs 3 edges; it reaches 2"
    with pytest.raises(TruncationError):
        xi_from_maps(2, 1, map_count_table(3))


def test_xi_from_maps_builds_its_table_when_given_none():
    """Every (g, s) the largest table reaches, 3g + 3s - 3 <= 10, agrees three ways."""
    top = map_count_table(MAX_EDGE_TRUNCATION)
    reached = [(g, s) for g in range(1, 4) for s in range(1, 4) if 3 * g + 3 * s - 3 <= 10]
    assert reached == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    for g, s in reached:
        assert xi_from_maps(g, s) == xi_from_maps(g, s, top) == xi_closed(g, s)


def test_xi_from_maps_refuses_past_the_largest_table_before_building_one(monkeypatch):
    def built(max_n):
        raise AssertionError("a refused request built a table")

    monkeypatch.setattr(btutte, "map_count_table", built)
    with pytest.raises(TruncationError) as caught:
        xi_from_maps(3, 2)
    assert str(caught.value) == "xi(3,2) from map counts needs 12 edges; it reaches 10"


def test_eval_at_gamma():
    xi = xi_closed(1, 1)
    assert eval_at_gamma(xi, Fraction(1, 2)) == Fraction(-1, 12)
    assert eval_at_gamma(xi, Fraction(1)) == Fraction(-1, 12)
    assert eval_at_gamma(UniPoly(INV_GAMMA, (0, 1)), Fraction(1, 3)) == 3
    with pytest.raises(ValueError):
        eval_at_gamma(UniPoly("b", (1,)), Fraction(1))


def test_eval_at_gamma_takes_an_int_or_a_fraction_and_refuses_a_float():
    inv_gamma = UniPoly(INV_GAMMA, (0, 1))
    assert eval_at_gamma(inv_gamma, 2) == Fraction(1, 2)
    assert eval_at_gamma(inv_gamma, Fraction(1, 10)) == 10
    assert eval_at_gamma(xi_closed(1, 1), 1) == Fraction(-1, 12)
    with pytest.raises(TypeError, match="gamma must be an int or a Fraction, got 0.1"):
        eval_at_gamma(xi_closed(1, 1), 0.1)


def test_lambda_values():
    assert lambda_values(1, 1) == LambdaTriple(
        Fraction(-1, 12), Fraction(-1, 12), Fraction(0)
    )
    assert lambda_values(2, 1) == LambdaTriple(
        Fraction(-1, 12), Fraction(0), Fraction(-1, 12)
    )
    assert lambda_values(2, 2) == LambdaTriple(
        Fraction(1, 6), Fraction(0), Fraction(1, 6)
    )
    for g in range(1, 9):
        for s in range(1, 4):
            triple = lambda_values(g, s)
            assert triple.total == triple.orientable + triple.nonorientable
            if g % 2:
                assert triple.nonorientable == 0
            else:
                assert triple.orientable == 0


def test_chi_real_values():
    assert chi_real(1, 0) == Fraction(1, 2)
    assert chi_real(0, 0) == 1
    assert chi_real(0, 1) == 1
    assert chi_real(0, 5) == 0
    assert chi_real(2, 1) == Fraction(-1, 12)
    assert chi_real(3, 1) == 0  # odd g >= 3 kills B_g
    with pytest.raises(ValueError):
        chi_real(-1, 0)


@pytest.mark.parametrize("formula", ["chi_real", "_complex_formula"])
@pytest.mark.parametrize("call", [lambda_values, chi_complex])
def test_a_wrong_closed_form_breaks_the_lambda_check(monkeypatch, call, formula):
    """lambda_values compares (2^{s-1} Lambda^N, Lambda^O) with both closed forms."""
    right = getattr(eulerchar, formula)
    off = {(2, 1): Fraction(1, 7)}
    monkeypatch.setattr(eulerchar, formula, lambda g, s: right(g, s) + off.get((g, s), 0))
    with pytest.raises(RouteMismatchError, match=r"\(2,1\)"):
        call(2, 1)
    call(2, 2)


def test_chi_complex_values():
    assert chi_complex(1, 1) == Fraction(-1, 12)
    assert chi_complex(3, 1) == Fraction(1, 120)
    assert chi_complex(5, 1) == Fraction(-1, 252)
    for g in (2, 4, 6):
        assert chi_complex(g, 1) == 0
    for g in range(1, 8):
        for s in range(1, 4):
            assert chi_complex(g, s) == eval_at_gamma(xi_closed(g, s), Fraction(1))


def test_chi_fixed_curves_values():
    assert chi_fixed_curves(2, 1, 1, separating=True) == Fraction(1, 12)
    assert chi_fixed_curves(3, 1, 1, separating=False) == Fraction(1, 3)


def test_chi_fixed_curves_reduces_by_cutting_along_the_curves():
    """Every admissible m for g <= 13, s <= 7 but the non-separating m = g.

    The separating side runs chi_complex through xi_closed at gamma = 1, a
    second route to every separating value.
    """
    for g in range(1, 14):
        for s in range(1, 8):
            for m in range(g):
                nonsep = chi_fixed_curves(g, s, m, separating=False)
                assert nonsep == chi_real(g - m, s + m) / math.factorial(m)
            for m in range(1 - g % 2, g, 2):  # g - m odd and at least 1
                sep = chi_fixed_curves(g, s, m, separating=True)
                assert sep == (-1) ** m * chi_complex(g - m, s) / math.factorial(m)


def test_chi_fixed_curves_at_m_equal_g_reads_the_formula_not_the_tabulated_zero():
    """The open edge of ROADMAP.md item 16: which of the two values is right.

    Cutting along g non-separating curves leaves genus 0, where chi_real is
    a tabulated 0, yet the fixed-curve value is the real formula there.
    """
    for g in range(1, 7):
        for s in range(1, 5):
            value = chi_fixed_curves(g, s, g, separating=False)
            assert value != 0
            assert value == eulerchar._real_formula(0, s + g) / math.factorial(g)
            assert chi_real(0, s + g) == 0


@pytest.mark.parametrize(
    "chi, args, expected",
    [
        (chi_real, (1, 0), Fraction(1, 2)),
        (chi_real, (0, 5), Fraction(0)),
        (chi_real, (4, 0), Fraction(-7, 720)),
        (chi_real, (4, 3), Fraction(14, 3)),
        (chi_complex, (2, 1), Fraction(0)),
        (chi_complex, (3, 1), Fraction(1, 120)),
        (chi_fixed_curves, (2, 1, 1, True), Fraction(1, 12)),
        (chi_fixed_curves, (3, 1, 1, False), Fraction(1, 3)),
    ],
)
def test_chi_functions_return_plain_fractions(chi, args, expected):
    value = chi(*args)
    assert type(value) is Fraction
    assert value == expected


def test_chi_fixed_curves_guards():
    with pytest.raises(ParityError):
        chi_fixed_curves(3, 1, 1, separating=True)  # g-m+1 odd
    with pytest.raises(ValueError):
        chi_fixed_curves(1, 1, 2, separating=True)  # g-m-1 < 0
    with pytest.raises(ValueError):
        chi_fixed_curves(2, 1, 3, separating=False)  # m > g
    with pytest.raises(ValueError):
        chi_fixed_curves(0, 1, 0, separating=False)
