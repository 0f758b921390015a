"""Symmetric functions in the power-sum basis and Jack polynomials.

A symmetric function is stored as a finite linear combination of power sums
p_mu indexed by partitions (`PowerSumExpr`).  The alpha-deformed inner
product is diagonal there:

    <p_lam, p_mu> = delta_{lam,mu} * z_lam * alpha**length(lam).

Jack functions are taken in the J normalization, fixed by three conditions:

* orthogonality: <J_theta, J_sigma> = 0 for theta != sigma,
* triangularity: the monomial expansion of J_theta is supported on shapes
  no later than theta in reverse-lex order,
* normalization: the coefficient of m_(1^n) equals n!.

`jack` computes them by solving the defining conditions as an exact linear
system over `AlphaFn` in the power-sum coefficient vector, walking the
partitions of each weight in ascending reverse-lex order so orthogonality
can be imposed against previously computed shapes.  Records are cached per
shape.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import ALPHA, AlphaFn, UniPoly
from .partitions import Partition, partitions_of, z_of

logger = logging.getLogger(__name__)


class JackSystemError(RuntimeError):
    """Raised when the defining linear system for a Jack function is singular."""


# ---------------------------------------------------------------------------
# Linear combinations of power sums
# ---------------------------------------------------------------------------


class PowerSumExpr:
    """A finite linear combination of power sums p_mu.

    Coefficients may be any exact ring elements (Fractions, `AlphaFn`,
    polynomials).  Multiplication concatenates partition indices, matching
    p_lam * p_mu = p_{lam union mu}.  Scalars coerce to multiples of the
    empty power sum p_() = 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Partition, object] = {}
        if terms:
            for mu, c in terms.items():
                if not isinstance(mu, Partition):
                    mu = Partition(mu)
                if c:
                    clean[mu] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> PowerSumExpr:
        return cls()

    @classmethod
    def one(cls) -> PowerSumExpr:
        return cls({Partition(): Fraction(1)})

    @classmethod
    def basis(cls, mu) -> PowerSumExpr:
        return cls({Partition(mu) if not isinstance(mu, Partition) else mu: Fraction(1)})

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, PowerSumExpr):
            return value
        if isinstance(value, (int, Fraction, AlphaFn, UniPoly)):
            return cls({Partition(): value})
        return None

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, mu) -> object:
        if not isinstance(mu, Partition):
            mu = Partition(mu)
        return self.terms.get(mu, 0)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for mu, c in o.terms.items():
            out[mu] = out.get(mu, 0) + c
        return PowerSumExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return PowerSumExpr({mu: -c for mu, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PowerSumExpr):
            out: dict[Partition, object] = {}
            for mu, a in self.terms.items():
                for nu, b in other.terms.items():
                    key = Partition(sorted(mu.parts + nu.parts, reverse=True))
                    prod = a * b
                    out[key] = out.get(key, 0) + prod
            return PowerSumExpr(out)
        # Anything else acts as a scalar on the coefficients.
        return PowerSumExpr({mu: c * other for mu, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if set(self.terms) != set(o.terms):
            return False
        return all(c == o.terms[mu] for mu, c in self.terms.items())

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "PowerSumExpr(0)"
        bits = [f"p{mu.parts}: {c!r}" for mu, c in sorted(self.terms.items(), key=lambda t: (t[0].weight, t[0].parts))]
        return "PowerSumExpr({" + ", ".join(bits) + "})"


def inner_product(f: PowerSumExpr, g: PowerSumExpr):
    """The alpha-deformed inner product, diagonal in the power-sum basis.

    Coefficients of f and g must be free of the principal variable x;
    the result then lies in the same coefficient ring extended by alpha.
    """
    total = 0
    for mu, cf in f.terms.items():
        cg = g.terms.get(mu)
        if cg is not None:
            total = total + cf * cg * z_of(mu) * AlphaFn.alpha(mu.length)
    return total


# ---------------------------------------------------------------------------
# Power-sum <-> monomial transition
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _psum_monomial_dict(parts: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Coefficient of each sorted monomial in p_parts expanded in nvars variables.

    Keys are weakly decreasing exponent vectors of length nvars.  Multiplying
    by p_k uses the pullback rule: the coefficient of x^f in P*p_k is the sum
    over variable positions j of the coefficient of x^{f - k e_j} in P.
    """
    state: dict[tuple[int, ...], int] = {(0,) * nvars: 1}
    for k in parts:
        support: set[tuple[int, ...]] = set()
        for expo in state:
            for j in range(nvars):
                lifted = list(expo)
                lifted[j] += k
                lifted.sort(reverse=True)
                support.add(tuple(lifted))
        new: dict[tuple[int, ...], int] = {}
        for f in support:
            total = 0
            for j in range(nvars):
                if f[j] >= k:
                    e = list(f)
                    e[j] -= k
                    e.sort(reverse=True)
                    total += state.get(tuple(e), 0)
            if total:
                new[f] = total
        state = new
    return state


@lru_cache(maxsize=None)
def power_to_monomial(n: int) -> dict[tuple[Partition, Partition], Fraction]:
    """Transition table M with p_lam = sum_mu M[lam, mu] * m_mu over weight n.

    Only nonzero entries are present.  The table is triangular: M[lam, mu]
    vanishes unless mu is no earlier than lam in reverse-lex order.

    >>> t = power_to_monomial(2)
    >>> t[(Partition((1, 1)), Partition((1, 1)))]
    Fraction(2, 1)
    >>> t[(Partition((1, 1)), Partition((2,)))]
    Fraction(1, 1)
    """
    table: dict[tuple[Partition, Partition], Fraction] = {}
    nvars = max(n, 1)
    for lam in partitions_of(n):
        mono = _psum_monomial_dict(lam.parts, nvars)
        for expo, cnt in mono.items():
            mu = Partition(tuple(e for e in expo if e))
            table[(lam, mu)] = Fraction(cnt)
    return table


def expand_in_variables(expr: PowerSumExpr, num_vars: int) -> dict[Partition, object]:
    """Monomial coefficients of a power-sum expression in finitely many variables.

    Returns {exponent partition: coefficient} for the distinguished sorted
    monomial of each orbit; partitions longer than num_vars do not appear.
    """
    out: dict[Partition, object] = {}
    for mu, c in expr.terms.items():
        mono = _psum_monomial_dict(mu.parts, num_vars)
        for expo, cnt in mono.items():
            key = Partition(tuple(e for e in expo if e))
            out[key] = out.get(key, 0) + c * cnt
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Jack symmetric functions (J normalization)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JackRecord:
    """A computed Jack function together with its derived statistics.

    expansion: power-sum expansion with `AlphaFn` coefficients.
    norm:      <J, J> under the alpha inner product.
    principal: the one-row principal specialization, i.e. the polynomial in
               x obtained by sending every p_k to x.
    p2coeff:   the coefficient of p_(2,...,2); zero for odd weight, where no
               such partition exists.
    """

    shape: Partition
    expansion: PowerSumExpr
    norm: AlphaFn
    principal: UniPoly
    p2coeff: AlphaFn


_jack_cache: dict[Partition, JackRecord] = {}


def jack(shape) -> JackRecord:
    """The Jack function J_shape, computed exactly and cached by shape.

    >>> jack((1,)).expansion == PowerSumExpr.basis((1,))
    True
    >>> jack((2,)).norm == AlphaFn.alpha(2) * 2 + AlphaFn.alpha(3) * 2
    True
    """
    theta = shape if isinstance(shape, Partition) else Partition(shape)
    rec = _jack_cache.get(theta)
    if rec is not None:
        return rec
    # Computing a shape requires every earlier shape of the same weight,
    # so fill in the whole weight level in ascending reverse-lex order.
    ascending = list(reversed(partitions_of(theta.weight)))
    previous: list[JackRecord] = []
    for pos, sigma in enumerate(ascending):
        cached = _jack_cache.get(sigma)
        if cached is None:
            cached = _solve_jack(sigma, pos, ascending, previous)
            _jack_cache[sigma] = cached
        previous.append(cached)
    return _jack_cache[theta]


def _solve_jack(
    theta: Partition,
    pos: int,
    ascending: list[Partition],
    previous: list[JackRecord],
) -> JackRecord:
    n = theta.weight
    if n == 0:
        one = PowerSumExpr.one()
        return JackRecord(
            shape=theta,
            expansion=one,
            norm=AlphaFn.one(),
            principal=UniPoly.one("x"),
            p2coeff=AlphaFn.one(),
        )

    trans = power_to_monomial(n)
    lam_list = ascending
    count = len(lam_list)

    rows: list[list[AlphaFn]] = []
    rhs: list[AlphaFn] = []

    # Triangularity: the monomial coefficient vanishes strictly above theta.
    for mu in lam_list[pos + 1 :]:
        rows.append([AlphaFn(trans.get((lam, mu), 0)) for lam in lam_list])
        rhs.append(AlphaFn.zero())
    # Normalization: coefficient of m_(1^n) equals n!.
    bottom = lam_list[0]
    rows.append([AlphaFn(trans.get((lam, bottom), 0)) for lam in lam_list])
    rhs.append(AlphaFn(math.factorial(n)))
    # Orthogonality against every earlier shape of the same weight.
    for srec in previous:
        rows.append(
            [
                srec.expansion.coefficient(lam) * z_of(lam) * AlphaFn.alpha(lam.length)
                if lam in srec.expansion.terms
                else AlphaFn.zero()
                for lam in lam_list
            ]
        )
        rhs.append(AlphaFn.zero())

    solution = _solve_linear(rows, rhs, count, shape=theta)

    expansion = PowerSumExpr(
        {lam: c for lam, c in zip(lam_list, solution) if c}
    )
    for lam, c in expansion.terms.items():
        if not c.is_polynomial:
            logger.warning(
                "Jack expansion coefficient [p_%s] J_%s has a nontrivial "
                "denominator: %r",
                lam.parts,
                theta.parts,
                c,
            )

    norm = inner_product(expansion, expansion)
    if not isinstance(norm, AlphaFn):
        norm = AlphaFn(norm)
    if not norm:
        raise JackSystemError(f"vanishing norm for shape {theta.parts}")

    principal_coeffs: list[object] = [AlphaFn.zero()] * (n + 1)
    for lam, c in expansion.terms.items():
        principal_coeffs[lam.length] = principal_coeffs[lam.length] + c
    principal = UniPoly("x", principal_coeffs)

    if n % 2 == 0:
        p2 = expansion.coefficient(Partition((2,) * (n // 2)))
        p2coeff = p2 if isinstance(p2, AlphaFn) else AlphaFn(p2)
    else:
        p2coeff = AlphaFn.zero()

    return JackRecord(
        shape=theta,
        expansion=expansion,
        norm=norm,
        principal=principal,
        p2coeff=p2coeff,
    )


def _solve_linear(
    rows: list[list[AlphaFn]],
    rhs: list[AlphaFn],
    ncols: int,
    shape: Partition | None = None,
) -> list[AlphaFn]:
    """Exact Gauss-Jordan elimination over the rational-function field."""
    if len(rows) != ncols:
        raise JackSystemError(
            f"defining system for {shape and shape.parts} is not square"
        )
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    used = [False] * len(aug)
    pivot_of_col: list[int] = []
    for col in range(ncols):
        best = None
        for ri, row in enumerate(aug):
            entry = row[col]
            if used[ri] or not entry:
                continue
            cx = entry.complexity()
            if best is None or cx < best[0]:
                best = (cx, ri)
                if cx == 0:
                    break
        if best is None:
            raise JackSystemError(
                f"singular defining system for shape {shape and shape.parts}"
            )
        ri = best[1]
        used[ri] = True
        pivot_of_col.append(ri)
        inv = aug[ri][col].inv()
        aug[ri] = [e * inv if e else e for e in aug[ri]]
        prow = aug[ri]
        for rj, row in enumerate(aug):
            if rj == ri or not row[col]:
                continue
            f = row[col]
            aug[rj] = [a - f * b if b else a for a, b in zip(row, prow)]
    return [aug[pivot_of_col[col]][ncols] for col in range(ncols)]


# ---------------------------------------------------------------------------
# Cauchy kernel verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyReport:
    """Outcome of comparing both sides of the alpha-deformed Cauchy identity."""

    ok: bool
    degree: int
    num_vars: int
    mismatch: tuple[Partition, Partition, str, str] | None = None


def cauchy_check(n: int, num_vars: int) -> CauchyReport:
    """Verify the degree-n component of the Cauchy identity for Jack functions,

        prod_{i,j} (1 - x_i y_j)^(-1/alpha)
            = sum_theta J_theta(x; alpha) J_theta(y; alpha) / <J_theta, J_theta>.

    Both sides are expanded in the monomial basis of num_vars x-variables and
    num_vars y-variables over `AlphaFn` and compared coefficient by
    coefficient.  The product side is the reproducing kernel of the inner
    product; its bigraded degree-(n, n) component is

        sum over partitions rho of n of  p_rho(x) p_rho(y) / (z_rho * alpha**length(rho)),

    which is what gets expanded here.  Returns a report carrying the first
    discrepant coefficient if any.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if num_vars < 1:
        raise ValueError("need at least one variable")

    # Kernel side: sum over rho of p_rho(x) p_rho(y) / (z_rho alpha^l(rho)),
    # expanded into monomials in x and y separately.
    kernel: dict[tuple[Partition, Partition], AlphaFn] = {}
    for rho in partitions_of(n):
        weight = AlphaFn.alpha(-rho.length) / z_of(rho)
        mono = _psum_monomial_dict(rho.parts, num_vars)
        entries = [
            (Partition(tuple(e for e in expo if e)), cnt) for expo, cnt in mono.items()
        ]
        for mu, cx in entries:
            for nu, cy in entries:
                key = (mu, nu)
                kernel[key] = kernel.get(key, AlphaFn.zero()) + weight * (cx * cy)

    # Jack side: sum over shapes of J(x) (x) J(y) / norm.
    jackside: dict[tuple[Partition, Partition], AlphaFn] = {}
    for theta in partitions_of(n):
        rec = jack(theta)
        mono = expand_in_variables(rec.expansion, num_vars)
        inv_norm = rec.norm.inv()
        for mu, cx in mono.items():
            for nu, cy in mono.items():
                key = (mu, nu)
                jackside[key] = jackside.get(key, AlphaFn.zero()) + cx * cy * inv_norm

    keys = sorted(set(kernel) | set(jackside), key=lambda t: (t[0].parts, t[1].parts))
    for key in keys:
        lhs = kernel.get(key, AlphaFn.zero())
        rhs = jackside.get(key, AlphaFn.zero())
        if lhs != rhs:
            return CauchyReport(
                ok=False,
                degree=n,
                num_vars=num_vars,
                mismatch=(key[0], key[1], repr(lhs), repr(rhs)),
            )
    return CauchyReport(ok=True, degree=n, num_vars=num_vars)
