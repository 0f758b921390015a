"""Exact scalars, tagged polynomials, rational functions and truncated series.

All arithmetic in this package is exact.  Scalars are `int` where the
values are integers and `fractions.Fraction` where something divides,
polynomials are dense coefficient tuples over a single tagged variable,
rational functions in the parameter alpha are kept in a reduced canonical
form, and power series are truncated at a fixed order.  There is no
floating-point mode and no numerical tolerance anywhere.

`fractions` is imported inside the code that divides (`bernoulli`,
`poly_divmod`, `poly_gcd`, `AlphaFn` and `TruncatedSeries.log`), so integer
polynomial arithmetic runs without it.
Exact division of integer polynomials is `int_poly_divmod`, a long division
over the integers that the Jack solve and the map-count extraction share.
Since ``int / int`` is a float, nothing here divides two coefficients with
``/`` unless one of them is a `Fraction`.

Conventions
-----------
* A `UniPoly` carries a variable tag (``"alpha"``, ``"b"``, ``"x"``, ``"t"``,
  ``"z"``, ``"1/gamma"``).  Its arithmetic takes a `UniPoly` in the same
  variable, an `int`, a `Fraction` or, off alpha, an `AlphaFn`.  A `UniPoly`
  in another variable raises `VariableMixError`; any other operand returns
  `NotImplemented`, so Python raises TypeError unless the operand takes it
  (an `AlphaFn` takes an alpha-polynomial).  Coefficients may be any exact
  ring element; `UniPoly.one`, `gen` and `monomial` build `int`s.
* `AlphaFn` holds reduced rational functions in alpha under ``+``, ``-``
  and ``*``, for the Jack series S(z) and log W, until the Jack route no
  longer needs it; nothing divides by one.  Instances are normalized on
  construction (numerator and denominator coprime, denominator monic), so
  equal values have equal representations and ``==`` is structural.

>>> UniPoly.gen("b") + UniPoly.gen("x")
Traceback (most recent call last):
    ...
mapchi.arith.VariableMixError: cannot mix polynomial variables 'b' and 'x'
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

ALPHA = "alpha"


class VariableMixError(ValueError):
    """Raised when two polynomials with different variable tags are combined."""


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

#: B_0, B_1, ... as far as computed; B_0 = 1 is added on the first call.
_bernoulli_cache: list[Fraction] = []


def bernoulli(j: int) -> Fraction:
    """Return the Bernoulli number B_j in the convention B_1 = -1/2.

    These are the coefficients of t/(e^t - 1) = sum_j B_j t^j / j!, computed
    through the recurrence B_n = -(1/(n+1)) * sum_{k<n} C(n+1, k) B_k and
    memoized.

    >>> bernoulli(0), bernoulli(1), bernoulli(2)
    (Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6))
    >>> bernoulli(3)
    Fraction(0, 1)
    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    from fractions import Fraction

    if j < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if not _bernoulli_cache:
        _bernoulli_cache.append(Fraction(1))
    while len(_bernoulli_cache) <= j:
        n = len(_bernoulli_cache)
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * _bernoulli_cache[k]
        _bernoulli_cache.append(-acc / (n + 1))
    return _bernoulli_cache[j]


# ---------------------------------------------------------------------------
# Dense univariate polynomials with a variable tag
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial ``coeffs[k] * var**k`` with exact coefficients.

    Trailing zero coefficients are trimmed on construction, so the zero
    polynomial has an empty coefficient tuple and equal polynomials have
    equal coefficient tuples.  Coefficients may be any exact ring elements
    (ints, Fractions, `AlphaFn` values, or other polynomials in a different
    variable); binary operations between two `UniPoly` values require equal
    variable tags.  An `int` and a `Fraction` coefficient of the same value
    compare equal, so polynomials over either are interchangeable.

    >>> UniPoly.gen("b") ** 2 + 1
    UniPoly('b', [1, 0, 1])
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> UniPoly:
        return cls(var)

    @classmethod
    def one(cls, var: str) -> UniPoly:
        return cls(var, (1,))

    @classmethod
    def gen(cls, var: str) -> UniPoly:
        """The polynomial ``var`` itself."""
        return cls(var, (0, 1))

    @classmethod
    def monomial(cls, var: str, k: int, value=1) -> UniPoly:
        return cls(var, (0,) * k + (value,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def _classify(self, other):
        """Return a UniPoly peer, a scalar, or None (defer to the operand)."""
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise VariableMixError(
                    f"cannot mix polynomial variables {self.var!r} and {other.var!r}"
                )
            return other
        if isinstance(other, AlphaFn):
            # alpha-polynomials embed into AlphaFn; let AlphaFn coerce us.
            return None if self.var == ALPHA else other
        if isinstance(other, int):
            return other
        # A Fraction operand means `fractions` is loaded already.
        from fractions import Fraction

        return other if isinstance(other, Fraction) else None

    def __add__(self, other):
        o = self._classify(other)
        if o is None:
            return NotImplemented
        if isinstance(o, UniPoly):
            n = max(len(self.coeffs), len(o.coeffs))
            return UniPoly(self.var, [self.coeff(k) + o.coeff(k) for k in range(n)])
        if not self.coeffs:
            return UniPoly(self.var, (o,))
        cs = list(self.coeffs)
        cs[0] = cs[0] + o
        return UniPoly(self.var, cs)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._classify(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._classify(other)
        if o is None:
            return NotImplemented
        return (-self) + o

    def __mul__(self, other):
        o = self._classify(other)
        if o is None:
            return NotImplemented
        if isinstance(o, UniPoly):
            if not self.coeffs or not o.coeffs:
                return UniPoly(self.var)
            out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for k, b in enumerate(o.coeffs):
                    if b:
                        out[i + k] = out[i + k] + a * b
            return UniPoly(self.var, out)
        if not o:
            return UniPoly(self.var)
        return UniPoly(self.var, [c * o for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = UniPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            if other.var == self.var:
                return self.coeffs == other.coeffs
            # Distinct tags only agree on embedded constants.
            return (
                self.is_constant()
                and other.is_constant()
                and self.coeff(0) == other.coeff(0)
            )
        if isinstance(other, AlphaFn):
            return NotImplemented
        return self.is_constant() and self.coeff(0) == other

    __hash__ = None

    # -- substitution and output ---------------------------------------

    def eval(self, value):
        """Evaluate at a scalar by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def compose(self, sub):
        """Substitute `sub` (a polynomial or scalar) for the variable."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * sub + c
        if isinstance(sub, UniPoly) and not isinstance(acc, UniPoly):
            return UniPoly(sub.var, (acc,))
        return acc

    def coeff_strings(self) -> list[str]:
        """Coefficients as strings indexed by degree (for serialization)."""
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.coeffs)!r})"

    def __str__(self):
        return poly_str(self)


def poly_str(p: UniPoly) -> str:
    """Human-readable polynomial in its own variable, like ``1+b+3b^2`` or ``13b+13b^2+15b^3``."""
    if not p:
        return "0"
    power_base = f"({p.var})" if "/" in p.var else p.var
    terms = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        mono = power_base if k == 1 else f"{power_base}^{k}"
        if c == 1:
            terms.append(mono)
        elif c == -1:
            terms.append(f"-{mono}")
        else:
            cs = str(c)
            sign = "-" if cs.startswith("-") else ""
            cs = cs.lstrip("-")
            cs = f"({cs})" if "/" in cs else cs
            terms.append(f"{sign}{cs}{mono}")
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


# -- exact division over the integers --------------------------------------


def int_poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly] | None:
    """Quotient and remainder of integer polynomials, by long division over ZZ.

    Returns None when a step is inexact: the running remainder's leading
    coefficient is no multiple of b's.  Otherwise the result is the one over
    the rationals, so a nonzero remainder means b does not divide a at all.

    >>> int_poly_divmod(UniPoly("b", (2, 4, 2)), UniPoly("b", (2, 2)))
    (UniPoly('b', [1, 1]), UniPoly('b', []))
    """
    if a.var != b.var:
        raise VariableMixError(f"cannot divide {a.var!r} by {b.var!r}")
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    size, lead = len(b.coeffs), b.coeffs[-1]
    quotient = [0] * max(len(rem) - size + 1, 0)
    for i in reversed(range(len(quotient))):
        q, r = divmod(rem[i + size - 1], lead)
        if r:
            return None
        quotient[i] = q
        if q:
            for k, d in enumerate(b.coeffs):
                rem[i + k] -= q * d
    return UniPoly(a.var, quotient), UniPoly(a.var, rem)


# -- polynomial division over a coefficient field (Fractions) -------------


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder over the rationals; the quotient has `Fraction`s.

    >>> poly_divmod(UniPoly("x", (1, 0, 1)), UniPoly("x", (0, 2)))
    (UniPoly('x', [Fraction(0, 1), Fraction(1, 2)]), UniPoly('x', [1]))
    """
    from fractions import Fraction

    if a.var != b.var:
        raise VariableMixError(f"cannot divide {a.var!r} by {b.var!r}")
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return UniPoly.zero(a.var), a
    quot = [Fraction(0)] * (dq + 1)
    lead = Fraction(b.coeffs[-1])  # so that top / lead is a Fraction even for two ints
    for i in range(dq, -1, -1):
        top = rem[i + len(b.coeffs) - 1]
        if not top:
            continue
        q = top / lead
        quot[i] = q
        for k, c in enumerate(b.coeffs):
            rem[i + k] -= q * c
    return UniPoly(a.var, quot), UniPoly(a.var, rem)


def poly_exact_div(a: UniPoly, b: UniPoly) -> UniPoly:
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("polynomial division is not exact")
    return q


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the coefficient field."""
    from fractions import Fraction

    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a and a.coeffs[-1] != 1:
        a = a * (Fraction(1) / a.coeffs[-1])
    return a


# ---------------------------------------------------------------------------
# Rational functions in alpha
# ---------------------------------------------------------------------------


class AlphaFn:
    """Rational function in the deformation parameter alpha (= 1/gamma = b+1).

    The representation is canonical: numerator and denominator are coprime
    polynomials in alpha over Fraction and the denominator is monic, so
    structural equality coincides with equality of values.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        from fractions import Fraction

        num = _as_alpha_poly(num)
        den = _as_alpha_poly(den)
        if not den:
            raise ZeroDivisionError("AlphaFn with zero denominator")
        if not num:
            self.num = UniPoly.zero(ALPHA)
            self.den = UniPoly.one(ALPHA)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = poly_exact_div(num, g)
            den = poly_exact_div(den, g)
        lead = den.coeffs[-1]
        if lead != 1:
            inv = Fraction(1) / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def alpha(cls, power: int = 1) -> AlphaFn:
        """alpha**power, with negative powers allowed."""
        if power >= 0:
            return cls(UniPoly.monomial(ALPHA, power))
        return cls(UniPoly.one(ALPHA), UniPoly.monomial(ALPHA, -power))

    @classmethod
    def zero(cls) -> AlphaFn:
        return cls(0)

    # -- coercion -----------------------------------------------------

    @staticmethod
    def _coerce(value):
        from fractions import Fraction

        if isinstance(value, AlphaFn):
            return value
        if isinstance(value, (int, Fraction)):
            return AlphaFn(value)
        if isinstance(value, UniPoly) and value.var == ALPHA:
            return AlphaFn(value)
        return None

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_alpha_poly(self) -> UniPoly:
        """The underlying polynomial in alpha; error if the denominator is nontrivial."""
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial in alpha: {self!r}")
        return self.num

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlphaFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = AlphaFn.__new__(AlphaFn)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (-self) + o

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlphaFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    # -- substitution and output ----------------------------------------

    def substitute(self, sub: UniPoly) -> UniPoly:
        """Substitute a polynomial for alpha; requires a trivial denominator."""
        return self.as_alpha_poly().compose(sub)

    def __repr__(self):
        if self.is_polynomial:
            return f"AlphaFn({poly_str(self.num)})"
        return f"AlphaFn(({poly_str(self.num)})/({poly_str(self.den)}))"

    __str__ = __repr__


def _as_alpha_poly(value) -> UniPoly:
    from fractions import Fraction

    if isinstance(value, UniPoly):
        if value.var != ALPHA:
            raise VariableMixError(f"expected an {ALPHA!r} polynomial, got {value.var!r}")
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly(ALPHA, (Fraction(value),))
    raise TypeError(f"cannot interpret {value!r} as a polynomial in alpha")


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Power series in a tagged variable, truncated beyond ``max_order``.

    Coefficients may live in any exact commutative ring with operator
    arithmetic (Fractions, polynomials, power-sum expressions).  Operations
    never produce or report coefficients beyond the truncation order.
    """

    __slots__ = ("var", "coeffs", "max_order")

    def __init__(self, var: str, coeffs, max_order: int | None = None):
        cs = list(coeffs)
        if max_order is None:
            max_order = len(cs) - 1
        if max_order < 0:
            raise ValueError("max_order must be nonnegative")
        if len(cs) > max_order + 1:
            cs = cs[: max_order + 1]
        while len(cs) < max_order + 1:
            cs.append(0)
        self.var = var
        self.coeffs = tuple(cs)
        self.max_order = max_order

    def coefficient(self, k: int):
        if k < 0 or k > self.max_order:
            raise IndexError(f"order {k} outside truncation {self.max_order}")
        return self.coeffs[k]

    def _peer(self, other) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.var != self.var:
            raise VariableMixError(
                f"cannot mix series variables {self.var!r} and {other.var!r}"
            )
        if other.max_order != self.max_order:
            raise ValueError("series truncation orders differ")
        return other

    def __add__(self, other):
        o = self._peer(other)
        return TruncatedSeries(
            self.var, [a + b for a, b in zip(self.coeffs, o.coeffs)], self.max_order
        )

    def __mul__(self, other):
        o = self._peer(other)
        out = [0] * (self.max_order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for k in range(self.max_order + 1 - i):
                b = o.coeffs[k]
                if b:
                    out[i + k] = out[i + k] + a * b
        return TruncatedSeries(self.var, out, self.max_order)

    def scale(self, c) -> TruncatedSeries:
        """Multiply every coefficient by the ring element ``c``."""
        return TruncatedSeries(self.var, [a * c if a else 0 for a in self.coeffs], self.max_order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.var != self.var or other.max_order != self.max_order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def log(self) -> TruncatedSeries:
        """Series logarithm by Newton's identity L_n = n f_n - sum_{0<k<n} L_k f_{n-k}.

        L_n is n times the z^n coefficient of log f.  Requires constant
        term exactly 1; raises ValueError otherwise.
        """
        from fractions import Fraction

        f = self.coeffs
        if not f[0] == 1:
            raise ValueError("series logarithm requires constant term 1")
        newton = [0]
        for n in range(1, self.max_order + 1):
            newton.append(f[n] * n - sum((newton[k] * f[n - k] for k in range(1, n)), 0))
        logs = [c * Fraction(1, n) if c else 0 for n, c in enumerate(newton)]
        return TruncatedSeries(self.var, logs, self.max_order)

    def z_ddz(self) -> TruncatedSeries:
        """Apply the Euler operator var * d/dvar (coefficient k picks up a factor k)."""
        return TruncatedSeries(
            self.var,
            [c * k if c else 0 for k, c in enumerate(self.coeffs)],
            self.max_order,
        )

    def __repr__(self):
        return f"TruncatedSeries({self.var!r}, {list(self.coeffs)!r}, max_order={self.max_order})"
