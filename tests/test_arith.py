"""Exact arithmetic layer: Bernoulli numbers, polynomials, rational functions, series."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchi.arith import (
    ALPHA,
    AlphaFn,
    TruncatedSeries,
    UniPoly,
    VariableMixError,
    bernoulli,
    int_poly_divmod,
    poly_divmod,
    poly_gcd,
    poly_str,
)
from mapchi.symfunc import PowerSumExpr

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
small_polys = st.lists(rationals, max_size=6).map(lambda cs: UniPoly("b", cs))


def bernoulli_oracle(limit: int) -> list[Fraction]:
    """Independent Bernoulli computation straight from the defining identity."""
    values = [Fraction(1)]
    for n in range(1, limit + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += Fraction(math.comb(n + 1, k)) * values[k]
        values.append(-acc / (n + 1))
    return values


def test_bernoulli_known_values():
    """Frozen values in the B_1 = -1/2 convention."""
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(20) == Fraction(-174611, 330)


def test_bernoulli_matches_independent_recurrence():
    oracle = bernoulli_oracle(24)
    for j, value in enumerate(oracle):
        assert bernoulli(j) == value


def test_bernoulli_odd_indices_vanish():
    for j in range(3, 30, 2):
        assert bernoulli(j) == 0


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


# -- UniPoly ----------------------------------------------------------------


def test_unipoly_trims_trailing_zeros():
    assert UniPoly("b", (1, 2, 0, 0)) == UniPoly("b", (1, 2))
    assert UniPoly("b", (0, 0)).degree == -1
    assert not UniPoly("b", ())


@given(small_polys, small_polys, small_polys)
@settings(max_examples=150)
def test_unipoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys, rationals)
@settings(max_examples=150)
def test_unipoly_eval_is_a_homomorphism(a, b, x):
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)


@given(small_polys, st.integers(0, 5))
@settings(max_examples=60)
def test_unipoly_pow_matches_repeated_product(p, k):
    expected = UniPoly.one("b")
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_unipoly_compose_switches_variable():
    p = UniPoly("alpha", (Fraction(1), Fraction(2)))  # 1 + 2 alpha
    q = p.compose(UniPoly("b", (Fraction(1), Fraction(1))))  # alpha = b + 1
    assert q.var == "b"
    assert q.coeffs == (Fraction(3), Fraction(2))


def test_unipoly_rejects_mixed_variables():
    with pytest.raises(VariableMixError):
        UniPoly.gen("b") + UniPoly.gen("x")
    with pytest.raises(VariableMixError):
        UniPoly.gen("t") * UniPoly.gen("z")


def test_unipoly_constants_compare_across_variables():
    assert UniPoly("b", (Fraction(3),)) == UniPoly("x", (Fraction(3),))
    assert UniPoly("b", (Fraction(3),)) == 3
    assert UniPoly("b", (0, 1)) != UniPoly("x", (0, 1))


def test_int_poly_divmod_cases():
    two_alpha = UniPoly(ALPHA, (0, 2))
    quotient, remainder = int_poly_divmod(two_alpha * (UniPoly.gen(ALPHA) - 3), two_alpha)
    assert quotient == UniPoly(ALPHA, (-3, 1)) and not remainder
    assert all(type(c) is int for c in quotient.coeffs)
    # An inexact leading step: 1 is no multiple of 2.
    assert int_poly_divmod(UniPoly(ALPHA, (1, 1)), two_alpha) is None
    # A nonzero remainder: 2 alpha + 1 = 1 * (2 alpha) + 1.
    assert int_poly_divmod(UniPoly(ALPHA, (1, 2)), two_alpha) == (
        UniPoly(ALPHA, (1,)),
        UniPoly(ALPHA, (1,)),
    )
    # Integer content: 3 / 2 is not an integer.
    assert int_poly_divmod(UniPoly(ALPHA, (3,)), UniPoly(ALPHA, (2,))) is None


int_polys = st.lists(st.integers(-30, 30), max_size=5).map(lambda cs: UniPoly("b", cs))
nonzero_int_polys = int_polys.filter(bool)


@given(int_polys, nonzero_int_polys, int_polys)
@settings(max_examples=200)
def test_int_poly_divmod_agrees_with_rational_division(q, b, r):
    """b * q divides exactly; b * q + r splits as over the rationals, or not at all."""
    assert int_poly_divmod(b * q, b) == (q, UniPoly("b"))
    a = b * q + r
    step = int_poly_divmod(a, b)
    if step is None:
        assert any(Fraction(c).denominator != 1 for c in poly_divmod(a, b)[0].coeffs)
    else:
        assert step == poly_divmod(a, b)


def test_poly_str_formats():
    assert poly_str(UniPoly("b", (1, 1, 3))) == "1+b+3b^2"
    assert poly_str(UniPoly("b", (0, 13, 13, 15))) == "13b+13b^2+15b^3"
    assert poly_str(UniPoly("b", ())) == "0"
    assert poly_str(UniPoly("b", (Fraction(1, 2), Fraction(-1, 4)))) == "1/2-(1/4)b"


# -- AlphaFn ----------------------------------------------------------------


def alpha_fn(num_coeffs, den_coeffs) -> AlphaFn:
    return AlphaFn(UniPoly(ALPHA, num_coeffs), UniPoly(ALPHA, den_coeffs))


nonzero_polys = st.lists(rationals, min_size=1, max_size=4).filter(lambda cs: any(cs))
alpha_fns = st.builds(alpha_fn, st.lists(rationals, max_size=4), nonzero_polys)


def test_alpha_fn_canonical_form():
    """Common factors cancel and the denominator is monic."""
    a = alpha_fn((-1, 0, 1), (-1, 1))  # (alpha^2-1)/(alpha-1)
    assert a == AlphaFn.alpha() + 1
    b = alpha_fn((0, 2), (4,))
    assert b.den == UniPoly.one(ALPHA)
    assert b.num.coeffs == (Fraction(0), Fraction(1, 2))


@given(alpha_fns, alpha_fns, alpha_fns)
@settings(max_examples=100)
def test_alpha_fn_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(alpha_fns)
@settings(max_examples=100)
def test_alpha_fn_canonical_invariants(a):
    """Numerator and denominator stay coprime with a monic denominator."""
    assert a.den.coeffs[-1] == 1
    if a.num:
        assert poly_gcd(a.num, a.den).degree == 0


def test_alpha_power_laws():
    alpha = AlphaFn.alpha()
    assert AlphaFn.alpha(-2) * AlphaFn.alpha(3) == alpha
    assert AlphaFn.alpha(0) == 1


def test_alpha_fn_coerces_alpha_polynomials():
    gen = UniPoly.gen(ALPHA)
    assert AlphaFn.alpha() + gen == AlphaFn.alpha() * 2
    assert gen * AlphaFn.alpha() == AlphaFn.alpha(2)


def test_alpha_fn_substitute_requires_polynomial():
    with pytest.raises(ValueError):
        AlphaFn.alpha(-1).substitute(UniPoly.gen("b"))
    sub = AlphaFn(UniPoly(ALPHA, (1, 1))).substitute(UniPoly("b", (1, 1)))
    assert sub.var == "b" and sub.coeffs == (Fraction(2), Fraction(1))


# -- TruncatedSeries --------------------------------------------------------


unit_series = st.lists(rationals, max_size=5).map(
    lambda cs: TruncatedSeries("z", [Fraction(1)] + cs, 6)
)


@given(unit_series, unit_series)
@settings(max_examples=80)
def test_series_log_is_additive(f, g):
    """log(f*g) = log f + log g for series with constant term 1."""
    assert (f * g).log() == f.log() + g.log()


@given(unit_series)
@settings(max_examples=80)
def test_series_log_derivative_identity(f):
    """f * (z d/dz log f) = z d/dz f."""
    assert f * f.log().z_ddz() == f.z_ddz()


def test_series_log_of_geometric():
    """log(1/(1-z)) has coefficients 1/m."""
    geo = TruncatedSeries("z", [Fraction(1)] * 8, 7)
    expected = TruncatedSeries("z", [0] + [Fraction(1, m) for m in range(1, 8)], 7)
    assert geo.log() == expected


def test_series_log_with_a_zero_alpha_coefficient():
    """A zero coefficient leaves `0 - sum(...)` in Newton's identity."""
    x = AlphaFn.alpha()
    assert 0 - x == -x
    log = TruncatedSeries("z", [AlphaFn(1), 0, x], 3).log()
    assert [log.coefficient(k) for k in range(4)] == [0, 0, x, 0]


@pytest.mark.parametrize(
    "value",
    [UniPoly.gen(ALPHA), AlphaFn.alpha(), PowerSumExpr.one()],
    ids=lambda value: type(value).__name__,
)
def test_unsupported_operands_of_subtraction_name_subtraction(value):
    """Either side of `-` refuses a string as `-` does, and numbers still subtract."""
    for subtract in (lambda: "x" - value, lambda: value - "x"):
        with pytest.raises(TypeError, match="unsupported operand type.*for -: "):
            subtract()
    assert 1 - value + value == 1
    assert Fraction(1, 2) - value == -(value - Fraction(1, 2))


def test_series_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries("z", [Fraction(2), Fraction(1)], 3).log()


def test_series_refuses_mixed_variables_and_orders():
    f = TruncatedSeries("z", [Fraction(1)], 3)
    with pytest.raises(VariableMixError):
        f + TruncatedSeries("t", [Fraction(1)], 3)
    with pytest.raises(ValueError):
        f + TruncatedSeries("z", [Fraction(1)], 4)


def test_series_coefficient_bounds():
    f = TruncatedSeries("z", [Fraction(1), Fraction(2)], 3)
    assert f.coefficient(1) == 2
    assert f.coefficient(3) == 0
    with pytest.raises(IndexError):
        f.coefficient(4)
