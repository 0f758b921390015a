"""Parametrized Euler characteristics of moduli spaces, by three routes.

The central object is xi^s_g(gamma), a polynomial in 1/gamma that
interpolates the orbifold Euler characteristics of moduli spaces of genus-g
curves with s marked points: gamma = 1 recovers the complex (orientable)
side, gamma = 1/2 the real (fixed-point-free involution) side.  Routes:

* `xi_closed`   -- explicit Bernoulli-number closed forms (one branch for
                   even g, one for odd g);
* `xi_from_logW`-- coefficient extraction from a formal t-series whose
                   coefficients are polynomials in x over rational
                   functions of alpha = 1/gamma;
* `xi_from_maps`-- an alternating sum over refined map counts with
                   b = 1/gamma - 1.

All three agree exactly; the cross-checks here raise on any mismatch.
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

from .arith import AlphaFn, TruncatedSeries, UniPoly, bernoulli

if TYPE_CHECKING:
    from .mapseries import MapCountTable, MapKey

INV_GAMMA = "1/gamma"

T = TypeVar("T")


class RouteMismatchError(RuntimeError):
    """Two provably equal computation routes disagreed: an implementation bug."""


class TruncationError(ValueError):
    """A map-count table does not reach the edge counts a sum requires."""


class ParityError(ValueError):
    """Separating fixed curves require g - m + 1 to be even."""


def gamma_poly(coeffs) -> UniPoly:
    """A polynomial in 1/gamma from a coefficient sequence."""
    return UniPoly(INV_GAMMA, [Fraction(c) for c in coeffs])


def eval_at_gamma(poly: UniPoly, gamma: Fraction) -> Fraction:
    """Evaluate a polynomial in 1/gamma at a rational gamma."""
    if poly.var != INV_GAMMA:
        raise ValueError(f"expected a polynomial in {INV_GAMMA!r}, got {poly.var!r}")
    return Fraction(poly.eval(Fraction(1) / Fraction(gamma)))


def _alpha_to_gamma_poly(fn: AlphaFn) -> UniPoly:
    """Rewrite a polynomial AlphaFn as a polynomial in 1/gamma (same values)."""
    return UniPoly(INV_GAMMA, fn.as_alpha_poly().coeffs)


# ---------------------------------------------------------------------------
# Route 1: the formal t-series
# ---------------------------------------------------------------------------


def logW_series(max_delta: int) -> TruncatedSeries:
    """The formal expansion of log W as a t-series through order max_delta.

    The coefficient of t^delta is a polynomial in x whose coefficients are
    Laurent-style rational functions of alpha (= 1/gamma):

        log W = -(x/alpha) * sum_{k>=1} B_{2k} t^{2k-1} / (2k (2k-1))
              + sum_{delta>=1} t^delta / (delta (delta+1)) *
                sum_{r=1}^{delta+1} C(delta+1, r) B_{delta+1-r} *
                [ x^r (-1)^{delta+1-r} alpha^{delta-r}
                  - sum_{m=1}^{r+1} C(r+1, m) (B_{r+1-m} / (r+1))
                       x^m alpha^{r-m} (-1)^{delta-m} ].

    This is a definition of the formal object; no limits are involved.
    """
    if max_delta < 1:
        raise ValueError("max_delta must be at least 1")
    x_zero = UniPoly.zero("x")
    coeffs: list[UniPoly] = [x_zero for _ in range(max_delta + 1)]

    # Odd-order tail driven by the even Bernoulli numbers.
    for k in range(1, max_delta // 2 + 2):
        delta = 2 * k - 1
        if delta > max_delta:
            break
        scalar = AlphaFn.alpha(-1) * Fraction(-bernoulli(2 * k), 2 * k * (2 * k - 1))
        coeffs[delta] = coeffs[delta] + UniPoly("x", (AlphaFn.zero(), scalar))

    # Double sum over delta and r.
    for delta in range(1, max_delta + 1):
        outer = Fraction(1, delta * (delta + 1))
        poly = UniPoly.zero("x")
        for r in range(1, delta + 2):
            br = bernoulli(delta + 1 - r)
            if not br:
                continue
            binom = math.comb(delta + 1, r)
            head = AlphaFn.alpha(delta - r) * Fraction((-1) ** (delta + 1 - r))
            term = UniPoly.monomial("x", r, head)
            for m in range(1, r + 2):
                bm = bernoulli(r + 1 - m)
                if not bm:
                    continue
                sign = -1 if (delta - m) % 2 else 1
                inner = (
                    AlphaFn.alpha(r - m)
                    * Fraction(math.comb(r + 1, m) * sign * bm.numerator,
                               (r + 1) * bm.denominator)
                )
                term = term - UniPoly.monomial("x", m, inner)
            poly = poly + term * (outer * binom * br)
        coeffs[delta] = coeffs[delta] + poly

    return TruncatedSeries("t", coeffs, max_delta)


def xi_from_logW(g: int, s: int) -> UniPoly:
    """xi^s_g extracted as s! (-1)^s [x^s t^{g+s-1}] alpha * log W."""
    if g < 1 or s < 1:
        raise ValueError("xi is defined here for g >= 1 and s >= 1")
    order = g + s - 1
    tcoeff = logW_series(order).coefficient(order)
    xcoeff = tcoeff.coeff(s)
    if not isinstance(xcoeff, AlphaFn):
        xcoeff = AlphaFn(xcoeff)
    value = xcoeff * AlphaFn.alpha() * Fraction((-1) ** s * math.factorial(s))
    if not value.is_polynomial:
        raise RouteMismatchError(
            f"xi({g},{s}) extraction left a nontrivial denominator: {value!r}"
        )
    return _alpha_to_gamma_poly(value)


# ---------------------------------------------------------------------------
# Route 2: Bernoulli closed forms
# ---------------------------------------------------------------------------


def xi_closed(g: int, s: int) -> UniPoly:
    """The closed-form xi^s_g as a polynomial in 1/gamma.

    Even g:  ((g+s-2)!/g!) (-1)^s (B_g/2) ((1/gamma)^g - (1/gamma)).
    Odd g:   ((g+s-2)! (-1)^{s+1} / (g+1)!) * [ (g+1) B_g (1/gamma)^g
             + sum_{r=0}^{g+1} C(g+1, r) B_{g+1-r} B_r (1/gamma)^r ].

    The result has degree g for even g and degree g+1 for odd g (the top
    coefficient is then a nonzero multiple of B_{g+1}).

    >>> xi_closed(1, 1).coeffs
    (Fraction(1, 12), Fraction(-1, 4), Fraction(1, 12))
    """
    if g < 1 or s < 1:
        raise ValueError("xi is defined here for g >= 1 and s >= 1")
    if g % 2 == 0:
        base = (
            Fraction(math.factorial(g + s - 2), math.factorial(g))
            * (-1) ** s
            * bernoulli(g)
            / 2
        )
        coeffs = [Fraction(0)] * (g + 1)
        coeffs[g] += base
        coeffs[1] -= base
        return UniPoly(INV_GAMMA, coeffs)
    prefactor = Fraction(
        (-1) ** (s + 1) * math.factorial(g + s - 2), math.factorial(g + 1)
    )
    coeffs = [Fraction(0)] * (g + 2)
    coeffs[g] += prefactor * (g + 1) * bernoulli(g)
    for r in range(0, g + 2):
        coeffs[r] += prefactor * math.comb(g + 1, r) * bernoulli(g + 1 - r) * bernoulli(r)
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


def xi_from_maps(g: int, s: int, table: MapCountTable) -> UniPoly:
    """xi^s_g summed from refined map counts with b = 1/gamma - 1.

    xi^s_g is `lambda_sum` over the b-polynomials of the table, with
    b = 1/gamma - 1 substituted afterwards (the sum is linear).  The result
    is asserted equal to `xi_closed`; requires the table to reach
    n = 3g+3s-3.
    """
    if g < 1 or s < 1:
        raise ValueError("xi is defined here for g >= 1 and s >= 1")
    top = 3 * g + 3 * s - 3
    if table.max_n < top:
        raise TruncationError(
            f"xi({g},{s}) needs map counts through n={top}, "
            f"table reaches n={table.max_n}: insufficient truncation"
        )
    b_from_gamma = UniPoly(INV_GAMMA, (Fraction(-1), Fraction(1)))  # b = 1/gamma - 1
    total = lambda_sum(table.entries, g, s, UniPoly.zero("b")).compose(b_from_gamma)
    closed = xi_closed(g, s)
    if total != closed:
        raise RouteMismatchError(
            f"map-sum route for xi({g},{s}) gives {total!r}, closed form {closed!r}"
        )
    return total


# ---------------------------------------------------------------------------
# Specializations and the chi family
# ---------------------------------------------------------------------------


class LambdaTriple(NamedTuple):
    total: Fraction          # Lambda       = xi(1/2)
    orientable: Fraction     # Lambda^O     = xi(1)
    nonorientable: Fraction  # Lambda^N     = Lambda - Lambda^O


def lambda_values(g: int, s: int) -> LambdaTriple:
    """(Lambda, Lambda^O, Lambda^N), cross-checked against their closed forms.

    Lambda is xi at gamma = 1/2, Lambda^O is xi at gamma = 1.  Both are
    re-derived from independent Bernoulli formulas:

        even g:  Lambda = (-1)^s ((g+s-2)!/g!) (2^{g-1} - 1) B_g,
                 Lambda^O = 0;
        odd g:   Lambda = Lambda^O
                        = (-1)^s ((g+s-2)! / ((g+1) (g-1)!)) B_{g+1}.

    Any disagreement raises, since it would signal an implementation bug.
    """
    xi = xi_closed(g, s)
    lam = eval_at_gamma(xi, Fraction(1, 2))
    lam_o = eval_at_gamma(xi, Fraction(1))
    if g % 2 == 0:
        closed_lam = (
            Fraction((-1) ** s * math.factorial(g + s - 2), math.factorial(g))
            * (2 ** (g - 1) - 1)
            * bernoulli(g)
        )
        closed_lam_o = Fraction(0)
    else:
        closed_lam = Fraction(
            (-1) ** s * math.factorial(g + s - 2),
            (g + 1) * math.factorial(g - 1),
        ) * bernoulli(g + 1)
        closed_lam_o = closed_lam
    if lam != closed_lam or lam_o != closed_lam_o:
        raise RouteMismatchError(
            f"Lambda({g},{s}): evaluation gives ({lam}, {lam_o}), "
            f"closed forms give ({closed_lam}, {closed_lam_o})"
        )
    return LambdaTriple(total=lam, orientable=lam_o, nonorientable=lam - lam_o)


class ChiValue(NamedTuple):
    """An Euler characteristic with its defining indices."""

    value: Fraction
    g: int
    s: int
    variant: str
    m: int | None = None
    separating: bool | None = None


_CHI_REAL_SPECIALS: dict[tuple[int, int], Fraction] = {
    (1, 0): Fraction(1, 2),
    (0, 0): Fraction(1),
    (0, 1): Fraction(1),
}


def chi_real(g: int, s: int) -> ChiValue:
    """Euler characteristic of the real (fixed-point-free involution) moduli space.

    For g >= 1 and g + s > 1:
        chi = (-2)^{s-1} (1 - 2^{g-1}) ((g+s-2)!/g!) B_g,
    with tabulated special values at (1,0), (0,0), (0,1) and zero for
    (0, s >= 2).

    >>> chi_real(1, 0).value
    Fraction(1, 2)
    >>> chi_real(2, 1).value
    Fraction(-1, 12)
    """
    if g < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    if (g, s) in _CHI_REAL_SPECIALS:
        return ChiValue(_CHI_REAL_SPECIALS[(g, s)], g, s, "real")
    if g == 0:
        return ChiValue(Fraction(0), g, s, "real")
    value = (
        Fraction(-2) ** (s - 1)
        * (1 - 2 ** (g - 1))
        * Fraction(math.factorial(g + s - 2), math.factorial(g))
        * bernoulli(g)
    )
    return ChiValue(Fraction(value), g, s, "real")


def chi_real_from_lambda(g: int, s: int) -> ChiValue:
    """chi of the real moduli space as 2^{s-1} Lambda^N, checked against chi_real."""
    if g < 1 or s < 1:
        raise ValueError("the Lambda route needs g >= 1 and s >= 1")
    value = 2 ** (s - 1) * lambda_values(g, s).nonorientable
    direct = chi_real(g, s).value
    if value != direct:
        raise RouteMismatchError(
            f"chi_real({g},{s}): Lambda route gives {value}, formula gives {direct}"
        )
    return ChiValue(Fraction(value), g, s, "real")


def chi_complex(g: int, s: int) -> ChiValue:
    """Euler characteristic of the moduli space of complex curves.

    Zero for even g; for odd g:
        chi = (-1)^s (g+s-2)! B_{g+1} / ((g+1) (g-1)!).
    Always equals xi^s_g at gamma = 1 (asserted).

    >>> chi_complex(1, 1).value
    Fraction(-1, 12)
    >>> chi_complex(3, 1).value
    Fraction(1, 120)
    """
    if g < 1 or s < 1:
        raise ValueError("indices must be positive")
    if g % 2 == 0:
        value = Fraction(0)
    else:
        value = Fraction(
            (-1) ** s * math.factorial(g + s - 2),
            (g + 1) * math.factorial(g - 1),
        ) * bernoulli(g + 1)
    via_xi = eval_at_gamma(xi_closed(g, s), Fraction(1))
    if value != via_xi:
        raise RouteMismatchError(
            f"chi_complex({g},{s}): formula gives {value}, xi(1) gives {via_xi}"
        )
    return ChiValue(Fraction(value), g, s, "complex")


def chi_fixed_curves(g: int, s: int, m: int, separating: bool) -> ChiValue:
    """Euler characteristic for involutions with m fixed curves.

    Non-separating fixed-curve system (m <= g):
        chi = (-2)^{s+m-1} (1 - 2^{g-m-1}) ((g+s-2)! / (m! (g-m)!)) B_{g-m}.
    Separating (g-m+1 even, g-m-1 >= 0):
        chi = (-1)^{s+m} ((g-m+s-2)! / (m! (g-m+1) (g-m-1)!)) B_{g-m+1}.

    >>> chi_fixed_curves(2, 1, 1, separating=True).value
    Fraction(1, 12)
    """
    if g < 1 or s < 1 or m < 0:
        raise ValueError("need g >= 1, s >= 1, m >= 0")
    if separating:
        if (g - m + 1) % 2:
            raise ParityError(f"g-m+1 = {g - m + 1} must be even for separating curves")
        if g - m - 1 < 0:
            raise ValueError("separating case needs g - m - 1 >= 0")
        if g - m + s - 2 < 0:
            raise ValueError(f"undefined for g-m+s < 2 (got g={g}, s={s}, m={m})")
        value = Fraction(
            (-1) ** (s + m) * math.factorial(g - m + s - 2),
            math.factorial(m) * (g - m + 1) * math.factorial(g - m - 1),
        ) * bernoulli(g - m + 1)
    else:
        if m > g:
            raise ValueError("non-separating case needs m <= g")
        if g + s - 2 < 0:
            raise ValueError(f"undefined for g+s < 2 (got g={g}, s={s})")
        value = (
            Fraction(-2) ** (s + m - 1)
            * (1 - Fraction(2) ** (g - m - 1))
            * Fraction(math.factorial(g + s - 2), math.factorial(m) * math.factorial(g - m))
            * bernoulli(g - m)
        )
    return ChiValue(Fraction(value), g, s, "fixed-curves", m=m, separating=separating)
