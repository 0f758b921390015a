"""Symmetric functions: power sums, monomial transition, Jack functions, Cauchy kernel."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from mapchi import RouteMismatchError, symfunc
from mapchi.arith import ALPHA, TruncatedSeries, UniPoly
from mapchi.partitions import Partition, partitions_of, z_of
from mapchi.symfunc import (
    JackRecord,
    PowerSumExpr,
    cauchy_check,
    expand_in_variables,
    inner_product,
    jack,
)

ALPHA_GEN = UniPoly.gen(ALPHA)


def psum(coeff_by_parts: dict[tuple[int, ...], object]) -> PowerSumExpr:
    out = PowerSumExpr()
    for parts, c in coeff_by_parts.items():
        out = out + PowerSumExpr.basis(parts) * c
    return out


# -- power-sum algebra an d monomial expansion -------------------------------


def test_power_sum_product_merges_parts():
    p2 = PowerSumExpr.basis((2,))
    p11 = PowerSumExpr.basis((1, 1))
    assert p2 * p11 == PowerSumExpr.basis((2, 1, 1))
    assert (p2 + p11) * p2 == PowerSumExpr.basis((2, 2)) + PowerSumExpr.basis((2, 1, 1))


def test_series_log_with_a_zero_power_sum_coefficient():
    """A zero coefficient leaves `0 - sum(...)` in Newton's identity."""
    p2 = PowerSumExpr.basis((2,))
    assert 0 - p2 == -p2
    log = TruncatedSeries("z", [PowerSumExpr.one(), 0, p2], 3).log()
    assert [log.coefficient(k) for k in range(4)] == [0, 0, p2, 0]


def test_inner_product_is_diagonal_in_power_sums():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = inner_product(PowerSumExpr.basis(lam), PowerSumExpr.basis(mu))
                if lam == mu:
                    assert got == UniPoly.monomial(ALPHA, lam.length, z_of(lam))
                else:
                    assert got == 0


def monomial_expansion_oracle(parts: tuple[int, ...], nvars: int) -> dict[Partition, int]:
    """Expand p_parts by brute force over all variable assignments.

    Only the sorted representative x_1^{mu_1} x_2^{mu_2} ... of each orbit is
    counted, matching the monomial-coefficient convention of the package.
    """
    out: dict[Partition, int] = {}
    for choice in itertools.product(range(nvars), repeat=len(parts)):
        expo = [0] * nvars
        for part, var in zip(parts, choice):
            expo[var] += part
        if any(a < b for a, b in zip(expo, expo[1:])):
            continue
        key = Partition(tuple(e for e in expo if e))
        out[key] = out.get(key, 0) + 1
    return out


def test_expand_in_variables_matches_brute_force():
    for parts in (mu.parts for n in range(7) for mu in partitions_of(n)):
        got = expand_in_variables(PowerSumExpr.basis(parts))
        assert got == monomial_expansion_oracle(parts, sum(parts))


def monomial_rows(n: int) -> dict[Partition, dict[Partition, object]]:
    """{lam: {mu: [m_mu] p_lam}} over weight n, nonzero entries only."""
    return {lam: expand_in_variables(PowerSumExpr.basis(lam)) for lam in partitions_of(n)}


def test_monomial_expansion_triangular():
    """p_lam only involves monomials no earlier than lam in reverse-lex order."""
    for n in range(1, 7):
        for lam, row in monomial_rows(n).items():
            for mu, c in row.items():
                assert c != 0
                assert lam <= mu


def test_monomial_expansion_hand_rows():
    rows = monomial_rows(3)
    assert rows[Partition((3,))][Partition((3,))] == 1
    assert rows[Partition((1, 1, 1))][Partition((1, 1, 1))] == 6
    assert rows[Partition((2, 1))][Partition((3,))] == 1


# -- Jack functions ----------------------------------------------------------


def test_jack_hand_values():
    assert jack((1,)).expansion == psum({(1,): 1})
    assert jack((2,)).expansion == psum({(1, 1): 1, (2,): ALPHA_GEN})
    assert jack((1, 1)).expansion == psum({(1, 1): 1, (2,): -1})
    assert jack((3,)).expansion == psum(
        {(1, 1, 1): 1, (2, 1): ALPHA_GEN * 3, (3,): UniPoly.monomial(ALPHA, 2, 2)}
    )
    assert jack((1, 1, 1)).expansion == psum({(1, 1, 1): 1, (2, 1): -3, (3,): 2})
    assert jack((2, 1)).expansion == psum(
        {(1, 1, 1): 1, (2, 1): ALPHA_GEN - 1, (3,): -ALPHA_GEN}
    )


def test_jack_norms():
    assert jack((1,)).norm == ALPHA_GEN
    assert jack((2,)).norm == UniPoly(ALPHA, (0, 0, 2, 2))
    assert jack((2, 1)).norm == UniPoly(ALPHA, (0, 0, 2, 5, 2))


def gram_schmidt_jack_oracle(n: int, a: Fraction) -> dict[Partition, dict[Partition, Fraction]]:
    """Independent Jack construction at alpha = a: Gram-Schmidt on monomials.

    Expresses each m_theta in the power-sum basis by inverting the transition
    table with exact Gaussian elimination, orthogonalizes in increasing
    reverse-lex order under the pairing <p_mu, p_mu> = z_mu * a^l(mu), which
    is positive definite for a > 0, then rescales so the m_(1^n) coefficient
    equals n!.  Returns {theta: {mu: [p_mu] J_theta(a)}}, nonzero values only.
    """
    order = list(reversed(partitions_of(n)))  # ascending reverse-lex
    rows = monomial_rows(n)
    size = len(order)
    # Rows: p_lam in terms of m_mu.  Invert to get m in terms of p.  The
    # rows hold ints, and int / int is a float, so eliminate over Fractions.
    matrix = [[Fraction(rows[lam].get(mu, 0)) for mu in order] for lam in order]
    inverse = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inverse[col], inverse[pivot] = inverse[pivot], inverse[col]
        inv_lead = 1 / matrix[col][col]
        matrix[col] = [v * inv_lead for v in matrix[col]]
        inverse[col] = [v * inv_lead for v in inverse[col]]
        for r in range(size):
            if r != col and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [u - f * v for u, v in zip(matrix[r], matrix[col])]
                inverse[r] = [u - f * v for u, v in zip(inverse[r], inverse[col])]

    def pairing(f: dict, g: dict) -> Fraction:
        return sum(
            (c * g[mu] * z_of(mu) * a**mu.length for mu, c in f.items() if mu in g), Fraction(0)
        )

    ones = Partition((1,) * n)
    out: dict[Partition, dict[Partition, Fraction]] = {}
    for i, theta in enumerate(order):
        g = {order[j]: inverse[i][j] for j in range(size)}
        for prev in out.values():
            overlap = pairing(g, prev)
            if overlap:
                scale = overlap / pairing(prev, prev)
                g = {mu: c - scale * prev.get(mu, 0) for mu, c in g.items()}
        ones_coeff = sum(c * rows[mu].get(ones, 0) for mu, c in g.items())
        scale = math.factorial(n) / ones_coeff
        out[theta] = {mu: c * scale for mu, c in g.items() if c}
    return out


def test_jack_matches_gram_schmidt_oracle():
    """J_theta(a) equals the Gram-Schmidt oracle at a = k/2 for k = 1..n.

    Every [p_mu] J_theta of weight n is an integer polynomial in alpha of
    degree at most n - 1, so agreement at n points is the identity.
    """
    for n in range(1, 7):
        records = {shape: jack(shape) for shape in partitions_of(n)}
        for shape, rec in records.items():
            assert all(c.degree <= n - 1 for c in rec.expansion.terms.values()), shape
        for k in range(1, n + 1):
            a = Fraction(k, 2)
            for shape, expected in gram_schmidt_jack_oracle(n, a).items():
                values = {mu: c.eval(a) for mu, c in records[shape].expansion.terms.items()}
                assert {mu: v for mu, v in values.items() if v} == expected, (shape, a)


def test_jack_coefficients_are_integer_alpha_polynomials():
    """Every stored coefficient is an int, never a Fraction or a float (int / int)."""
    for n in range(11):
        for shape in partitions_of(n):
            rec = jack(shape)
            values = [
                *rec.expansion.terms.values(),
                rec.norm,
                rec.p2coeff,
                *rec.principal.coeffs,
            ]
            for c in values:
                assert isinstance(c, UniPoly) and c.var == ALPHA, (shape, c)
                assert all(type(v) is int for v in c.coeffs), (shape, c)


def test_inexact_division_raises_jack_system_error():
    # The operator entry A[(4), (2, 2)] = 4 broken to 5: the eigenvalue gap
    # of (2, 2) no longer divides its numerator.
    column = dict(symfunc._level(4))
    column[Partition((2, 2))] = [
        (nu, entry + (nu == (4,))) for nu, entry in column[Partition((2, 2))]
    ]
    with pytest.raises(symfunc.JackSystemError, match=r"\[m_\(2, 2\)\] J_\(4,\)"):
        symfunc._monomial_coefficients(Partition((4,)), column)
    # [m_(1,1)] = 3 is no multiple of M[(1,1), (1,1)] = 2!.
    with pytest.raises(symfunc.JackSystemError, match=r"\[p_\(1, 1\)\] J_\(1, 1\)"):
        symfunc._power_sum_coefficients(
            Partition((1, 1)), {Partition((1, 1)): UniPoly(ALPHA, (3,))}
        )


def test_jack_principal_specializations():
    x = UniPoly.gen("x")
    assert jack((1,)).principal == x
    assert jack((2,)).principal == UniPoly("x", (0, ALPHA_GEN, 1))
    assert jack((1, 1)).principal == x**2 - x
    for n in range(1, 9):
        for shape in partitions_of(n):
            rec = jack(shape)
            direct = sum(
                (UniPoly.monomial("x", mu.length, c) for mu, c in rec.expansion.terms.items()),
                UniPoly("x", ()),
            )
            assert rec.principal == direct


def test_jack_p2_coefficients():
    assert jack((2,)).p2coeff == ALPHA_GEN
    assert jack((1, 1)).p2coeff == -1
    for n in (1, 3, 5):
        for shape in partitions_of(n):
            assert jack(shape).p2coeff == 0
    assert jack((2, 2)).p2coeff == jack((2, 2)).expansion.coefficient((2, 2))


def test_operator_weight_four_by_hand():
    """Stanley's rule at weight 4, worked by hand: A[nu, mu] for nu above mu.

    Each entry sums p - q over the ways one pair of parts (u, v) of mu
    becomes (p, q) with p > u, e.g. the six pairs of ones in (1,1,1,1)
    each merge into (2, 0) with p - q = 2.
    """
    got = {
        (nu.parts, mu.parts): entry
        for mu, col in symfunc._level(4).items()
        for nu, entry in col
    }
    assert got == {
        ((4,), (3, 1)): 4,
        ((4,), (2, 2)): 4,
        ((3, 1), (2, 2)): 2,
        ((3, 1), (2, 1, 1)): 6,
        ((2, 2), (2, 1, 1)): 2,
        ((2, 1, 1), (1, 1, 1, 1)): 12,
    }
    assert all(type(entry) is int for entry in got.values())


def test_jack_cache_returns_identical_records():
    assert jack((2, 1)) is jack(Partition((2, 1)))


def test_jack_record_is_filed_under_its_shape_and_does_not_repeat_it():
    assert JackRecord._fields == ("expansion", "norm", "principal", "p2coeff")


def test_jack_weight_zero():
    rec = jack(())
    assert rec.expansion == PowerSumExpr.one()
    assert rec.norm == 1


# -- Cauchy kernel -----------------------------------------------------------


def test_cauchy_kernel_matches_product_expansion():
    # The Gram form <J_theta, J_sigma> = norm or 0 is the Cauchy identity
    # only where every norm is invertible.
    for n in range(9):
        shapes = partitions_of(n)
        assert all(jack(theta).norm != 0 for theta in shapes)
        assert cauchy_check(n) == len(shapes) * (len(shapes) + 1) // 2


def test_cauchy_check_catches_a_perturbed_power_sum_coefficient(monkeypatch):
    # Perturb [p_(3)] J_(2,1) in a copy of the record, so the cache stays intact.
    solved = symfunc.jack

    def perturbed(shape):
        rec = solved(shape)
        if shape != (2, 1):
            return rec
        terms = dict(rec.expansion.terms)
        terms[Partition((3,))] = terms.get(Partition((3,)), 0) + 1
        return rec._replace(expansion=PowerSumExpr(terms))

    monkeypatch.setattr(symfunc, "jack", perturbed)
    # The message names the first differing pair of shapes (theta, sigma)
    # before its colon, and J_(2,1) is in it.
    pair_with_21 = r"\([^:]*Partition\(2, 1\)[^:]*\)"
    with pytest.raises(RouteMismatchError, match=rf"^Cauchy kernel at degree 3 at {pair_with_21}:"):
        cauchy_check(3)


def test_cleared_norms_clear_every_norm():
    for n in range(11):
        den, cleared = symfunc.cleared_norms(partitions_of(n))
        assert set(cleared) == set(partitions_of(n))
        for theta, quotient in cleared.items():
            assert quotient * symfunc.hook_product(symfunc.jack_norm_factors(theta)) == den
