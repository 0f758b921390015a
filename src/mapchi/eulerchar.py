"""Parametrized Euler characteristics of moduli spaces, by three routes.

The central object is xi^s_g(gamma), a polynomial in 1/gamma that
interpolates the orbifold Euler characteristics of moduli spaces of genus-g
curves with s marked points: gamma = 1 recovers the complex (orientable)
side, gamma = 1/2 the real (fixed-point-free involution) side.  Routes:

* `xi_closed`   -- an explicit Bernoulli-number closed form, one sum for
                   every genus;
* `xi_from_logW`-- one coefficient of a formal t-series, log W, whose
                   coefficients are polynomials in x over Laurent
                   polynomials in alpha = 1/gamma;
* `xi_from_maps`-- an alternating sum over refined map counts with
                   b = 1/gamma - 1.

All three agree exactly: `xi_from_logW` and `xi_from_maps` compare their
result with `xi_closed` through `check_agreement`, which raises on any
mismatch.
Downstream values: Lambda = xi(1/2), Lambda^O = xi(1), Lambda^N their
difference, and the chi variants for real, complex and fixed-curve cases.

Polynomials in 1/gamma are `UniPoly` values tagged ``"1/gamma"``;
evaluating one at a rational gamma means evaluating at 1/gamma.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, TypeVar

from . import (
    MAX_EDGE_TRUNCATION,
    RouteMismatchError,
    check_agreement,
    check_indices,
    check_truncation,
)
from .arith import ALPHA, AlphaFn, TruncatedSeries, UniPoly, bernoulli

if TYPE_CHECKING:
    from .btutte import MapCountTable
    from .partitions import MapKey

INV_GAMMA = "1/gamma"

T = TypeVar("T")


class ParityError(ValueError):
    """Separating fixed curves require g - m + 1 to be even."""


def eval_at_gamma(poly: UniPoly, gamma: int | Fraction) -> Fraction:
    """Evaluate a polynomial in 1/gamma at an `int` or `Fraction` gamma, else TypeError."""
    if poly.var != INV_GAMMA:
        raise ValueError(f"expected a polynomial in {INV_GAMMA!r}, got {poly.var!r}")
    if not isinstance(gamma, (int, Fraction)):
        raise TypeError(f"gamma must be an int or a Fraction, got {gamma!r}")
    return Fraction(poly.eval(Fraction(1) / gamma))


# ---------------------------------------------------------------------------
# Route 1: the formal t-series
# ---------------------------------------------------------------------------


def _logW_coefficient(delta: int, s: int) -> dict[int, Fraction]:
    """[x^s t^delta] log W as a Laurent polynomial {alpha power: coefficient}.

    log W is the formal t-series (alpha = 1/gamma)

        log W = -(x/alpha) * sum_{k>=1} B_{2k} t^{2k-1} / (2k (2k-1))
              + sum_{delta>=1} t^delta / (delta (delta+1)) *
                sum_{r=1}^{delta+1} C(delta+1, r) B_{delta+1-r} *
                [ x^r (-1)^{delta+1-r} alpha^{delta-r}
                  - sum_{m=1}^{r+1} C(r+1, m) (B_{r+1-m} / (r+1))
                       x^m alpha^{r-m} (-1)^{delta-m} ].

    The first sum is the second's m = 1 term at r = 0 (zero at even delta,
    as B_{delta+1} = 0), so a coefficient is a finite sum of monomials in
    alpha from the second sum with r from 0: the head with r = s and the
    inner terms with m = s.  Zero coefficients are dropped; s must be at
    least 1 (the x^0 coefficient is zero).

    >>> _logW_coefficient(1, 1)
    {-1: Fraction(-1, 12), 0: Fraction(1, 4), 1: Fraction(-1, 12)}
    """
    terms: dict[int, Fraction] = {}

    def add(power: int, value: Fraction) -> None:
        terms[power] = terms.get(power, 0) + value

    for r in range(max(0, s - 1), delta + 2):
        br = bernoulli(delta + 1 - r)
        if not br:
            continue
        weight = Fraction(math.comb(delta + 1, r), delta * (delta + 1)) * br
        if r == s:
            add(delta - r, -weight if (delta + 1 - r) % 2 else weight)
        bm = bernoulli(r + 1 - s)
        if bm:
            sign = -1 if (delta - s) % 2 else 1
            add(r - s, -sign * weight * math.comb(r + 1, s) * bm / (r + 1))
    return {power: c for power, c in terms.items() if c}


def _dense(terms: dict[int, Fraction], shift: int) -> list[Fraction]:
    """The coefficient list of sum_p terms[p] alpha^(p + shift); no p + shift < 0."""
    coeffs = [Fraction(0)] * (max(terms, default=-shift) + shift + 1)
    for power, c in terms.items():
        coeffs[power + shift] = c
    return coeffs


def logW_series(max_delta: int) -> TruncatedSeries:
    """The formal expansion of log W as a t-series through order max_delta.

    The coefficient of t^delta is a polynomial in x (of degree delta + 2)
    whose coefficients are Laurent polynomials in alpha (= 1/gamma), held as
    `AlphaFn` values; `_logW_coefficient` states the series and computes
    each of them.  This is a definition of the formal object; no limits are
    involved.
    """
    if max_delta < 1:
        raise ValueError("max_delta must be at least 1")
    coeffs = [UniPoly.zero("x")]
    for delta in range(1, max_delta + 1):
        xcoeffs = [AlphaFn.zero()]
        for s in range(1, delta + 3):
            terms = _logW_coefficient(delta, s)
            shift = -min([0, *terms])
            num = UniPoly(ALPHA, _dense(terms, shift))
            xcoeffs.append(AlphaFn(num, UniPoly.monomial(ALPHA, shift)))
        coeffs.append(UniPoly("x", xcoeffs))
    return TruncatedSeries("t", coeffs, max_delta)


def xi_from_logW(g: int, s: int) -> UniPoly:
    """xi^s_g extracted as s! (-1)^s [x^s t^{g+s-1}] alpha * log W.

    Only that one coefficient of the series is computed.  The result is
    asserted equal to `xi_closed`, which reuses the Bernoulli numbers this
    extraction cached.
    """
    check_indices(g, s, f"xi({g},{s})")
    terms = _logW_coefficient(g + s - 1, s)
    if min(terms, default=0) < -1:
        raise RouteMismatchError(
            f"xi({g},{s}) extraction left a negative power of 1/gamma: {terms!r}"
        )
    scale = (-1) ** s * math.factorial(s)
    series = UniPoly(INV_GAMMA, [c * scale for c in _dense(terms, 1)])
    check_agreement(f"xi({g},{s})", "log W route", series, "closed form", xi_closed(g, s))
    return series


# ---------------------------------------------------------------------------
# Route 2: Bernoulli closed forms
# ---------------------------------------------------------------------------


def xi_closed(g: int, s: int) -> UniPoly:
    """The closed-form xi^s_g as a polynomial in 1/gamma.

    For every g >= 1 (alpha = 1/gamma):  ((g+s-2)! (-1)^{g+s} / (g+1)!) *
    [ (g+1) B_g alpha^g + sum_{r=0}^{g+1} C(g+1, r) B_{g+1-r} B_r alpha^r ].
    At even g only r = 1 and r = g give a nonzero B_{g+1-r} B_r, so the
    bracket is (g+1) (B_g/2) (alpha^g - alpha); zero products are skipped.

    The result has degree g for even g and degree g+1 for odd g (the top
    coefficient is then a nonzero multiple of B_{g+1}).  In alpha = 1/gamma
    it is its own alpha <-> 1/alpha dual at k = g + 1 (`verify.alpha_dual`):
    alpha^{g+1} xi(1/alpha) = (-1)^{g+1} xi(alpha), so its coefficients
    satisfy c_r = (-1)^{g+1} c_{g+1-r}.  At even g that makes c_0 = -c_{g+1}
    = 0 and, at alpha = 1, Lambda^O = xi(1) = -xi(1) = 0.

    >>> xi_closed(1, 1).coeffs
    (Fraction(1, 12), Fraction(-1, 4), Fraction(1, 12))
    >>> xi_closed(2, 1).coeffs
    (Fraction(0, 1), Fraction(1, 24), Fraction(-1, 24))
    """
    check_indices(g, s, f"xi({g},{s})")
    prefactor = Fraction(
        (-1) ** (g + s) * math.factorial(g + s - 2), math.factorial(g + 1)
    )
    coeffs = [Fraction(0)] * (g + 2)
    coeffs[g] += prefactor * (g + 1) * bernoulli(g)
    for r in range(0, g + 2):
        product = bernoulli(g + 1 - r) * bernoulli(r)
        if product:
            coeffs[r] += prefactor * math.comb(g + 1, r) * product
    return UniPoly(INV_GAMMA, coeffs)


# ---------------------------------------------------------------------------
# Route 3: alternating sums over refined map counts
# ---------------------------------------------------------------------------


def lambda_sum(counts: Mapping[MapKey, T], g: int, s: int, zero: T) -> T:
    """s! sum_n ((-1)^{n-s} / (2n)) lambda^s_g(n), the map sum behind Lambda and xi.

    lambda^s_g(n) adds the counts with n edges that `MapKey.enters_lambda`
    admits; they may be integers or polynomials, and `zero` is the empty sum.
    """
    total = zero
    for key, count in counts.items():
        if key.enters_lambda(g, s):
            sign = -1 if (key.n - s) % 2 else 1
            total = total + count * Fraction(sign * math.factorial(s), 2 * key.n)
    return total


def lambda_edges(g: int, s: int) -> range:
    """The edge counts g + s <= n <= 3g + 3s - 3 where lambda^s_g(n) can be nonzero.

    Its maps have v = n - g - s + 1 >= 1 vertices, all of valence >= 3: 3v <= 2n.
    """
    return range(g + s, 3 * g + 3 * s - 2)


def xi_from_maps(g: int, s: int, table: MapCountTable | None = None) -> UniPoly:
    """xi^s_g summed from refined map counts with b = 1/gamma - 1.

    xi^s_g is `lambda_sum` over the b-polynomials of the table, with
    b = 1/gamma - 1 substituted afterwards (the sum is linear).  The result
    is asserted equal to `xi_closed`.  The table, built when none is given,
    must reach the last of `lambda_edges`.
    """
    check_indices(g, s, f"xi({g},{s})")
    needed = lambda_edges(g, s)[-1]
    reach = MAX_EDGE_TRUNCATION if table is None else table.max_n
    check_truncation(needed, reach, f"xi({g},{s}) from map counts")
    if table is None:
        from .btutte import map_count_table

        table = map_count_table(needed)
    b_from_gamma = UniPoly(INV_GAMMA, (Fraction(-1), Fraction(1)))  # b = 1/gamma - 1
    total = lambda_sum(table, g, s, UniPoly.zero("b")).compose(b_from_gamma)
    check_agreement(f"xi({g},{s})", "map-sum route", total, "closed form", xi_closed(g, s))
    return total


# ---------------------------------------------------------------------------
# Specializations and the chi family
# ---------------------------------------------------------------------------


class LambdaTriple(NamedTuple):
    total: Fraction          # Lambda       = xi(1/2)
    orientable: Fraction     # Lambda^O     = xi(1)
    nonorientable: Fraction  # Lambda^N     = Lambda - Lambda^O


def _real_formula(g: int, s: int) -> Fraction:
    """(-2)^{s-1} (1 - 2^{g-1}) ((g+s-2)!/g!) B_g, for g >= 0 and g + s >= 2.

    >>> _real_formula(2, 1), _real_formula(0, 3)
    (Fraction(-1, 12), Fraction(2, 1))
    """
    return (
        Fraction(-2) ** (s - 1)
        * (1 - Fraction(2) ** (g - 1))
        * Fraction(math.factorial(g + s - 2), math.factorial(g))
        * bernoulli(g)
    )


def _complex_formula(g: int, s: int) -> Fraction:
    """(-1)^s (g+s-2)! B_{g+1} / ((g+1) (g-1)!), g, s >= 1: 0 at even g, as B_{g+1} = 0."""
    return Fraction(
        (-1) ** s * math.factorial(g + s - 2), (g + 1) * math.factorial(g - 1)
    ) * bernoulli(g + 1)


def lambda_values(g: int, s: int) -> LambdaTriple:
    """(Lambda, Lambda^O, Lambda^N), cross-checked against the two closed forms.

    Lambda is xi at gamma = 1/2, Lambda^O is xi at gamma = 1.  The real
    Euler characteristic 2^{s-1} Lambda^N must equal `chi_real` and the
    complex one Lambda^O must equal `_complex_formula`; any disagreement
    raises, since it would signal an implementation bug.
    """
    check_indices(g, s, f"Lambda({g},{s})")
    xi = xi_closed(g, s)
    lam = eval_at_gamma(xi, Fraction(1, 2))
    lam_o = eval_at_gamma(xi, Fraction(1))
    check_agreement(
        f"(2^(s-1) Lambda^N, Lambda^O)({g},{s})",
        "evaluation",
        (2 ** (s - 1) * (lam - lam_o), lam_o),
        "closed forms",
        (chi_real(g, s), _complex_formula(g, s)),
    )
    return LambdaTriple(total=lam, orientable=lam_o, nonorientable=lam - lam_o)


_CHI_REAL_SPECIALS: dict[tuple[int, int], Fraction] = {
    (1, 0): Fraction(1, 2),
    (0, 0): Fraction(1),
    (0, 1): Fraction(1),
}


def chi_real(g: int, s: int) -> Fraction:
    """Euler characteristic of the real (fixed-point-free involution) moduli space.

    `_real_formula` for g >= 1 and g + s > 1, with tabulated special values
    at (1,0), (0,0), (0,1) and zero for (0, s >= 2).

    >>> chi_real(1, 0)
    Fraction(1, 2)
    >>> chi_real(2, 1)
    Fraction(-1, 12)
    """
    if g < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    if (g, s) in _CHI_REAL_SPECIALS:
        return _CHI_REAL_SPECIALS[(g, s)]
    if g == 0:
        return Fraction(0)  # chi_fixed_curves at m = g reads _real_formula(0, s) instead
    return _real_formula(g, s)


def chi_complex(g: int, s: int) -> Fraction:
    """Euler characteristic of the moduli space of complex curves.

    Lambda^O = xi^s_g(1), from `lambda_values`, which checks it against
    `_complex_formula`: zero for even g.

    >>> chi_complex(1, 1)
    Fraction(-1, 12)
    >>> chi_complex(3, 1)
    Fraction(1, 120)
    """
    return lambda_values(g, s).orientable


def chi_fixed_curves(g: int, s: int, m: int, separating: bool) -> Fraction:
    """Euler characteristic for involutions with m fixed curves.

    Cutting along the m fixed curves leaves a quotient of genus g - m, so
    each value is a closed form at shifted indices, divided by m!:
    non-separating (m <= g) is `_real_formula(g - m, s + m) / m!`, and
    separating (g-m+1 even, g-m-1 >= 0) is
    `(-1)^m _complex_formula(g - m, s) / m!`.  At m = g the non-separating
    value is the formula at genus 0, not `chi_real`'s tabulated zero there.

    >>> chi_fixed_curves(2, 1, 1, separating=True)
    Fraction(1, 12)
    """
    check_indices(g, s, f"chi({g},{s}) with {m} fixed curves")
    if m < 0:
        raise ValueError("the fixed-curve count needs m >= 0")
    if separating:
        if (g - m + 1) % 2:
            raise ParityError(f"g-m+1 = {g - m + 1} must be even for separating curves")
        if g - m - 1 < 0:
            raise ValueError("separating case needs g - m - 1 >= 0")
        return (-1) ** m * _complex_formula(g - m, s) / math.factorial(m)
    if m > g:
        raise ValueError("non-separating case needs m <= g")
    return _real_formula(g - m, s + m) / math.factorial(m)
