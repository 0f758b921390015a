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

`jack` computes one shape at a time by Stanley's eigen-recursion: J_theta
is the eigenvector of a Laplace-Beltrami (cut-and-join) operator, which is
triangular in the monomial basis, so its monomial coefficients follow one
by one down the reverse-lex order.  They are polynomials in alpha, and the
recursion only divides them exactly by eigenvalue differences linear in
alpha, so no rational function and no gcd appears.  The norm and the
principal specialization are Stanley's hook products.  Records are cached
per shape, and the operator once per weight.

Every coefficient of J_theta is an integer polynomial in alpha, in the
monomial and in the power-sum basis (Knop and Sahi 1997, Invent. Math.
128), and so are the norm and the principal specialization.  They are
stored as `UniPoly`s with `int` coefficients, and solving a record builds
no `Fraction`: both divisions of the solve, by the eigenvalue gaps and by
the diagonal of the power-sum to monomial table, are exact divisions over
the integers (`arith.int_poly_divmod`), and an inexact step or a remainder
raises `JackSystemError`.

Both tables the recursion reads are closed combinatorial rules (Stanley
1989, Adv. Math. 77, "Some combinatorial properties of Jack symmetric
functions", section 3).  The operator's off-diagonal entry A[nu, mu] sums
p - q over the ways one pair of parts (u, v) of mu becomes (p, q) with
p > u and p + q = u + v; it is an integer, free of alpha.  The expansion
[m_nu] p_mu counts the groupings of the parts of mu into blocks whose
sums are the parts of nu, times prod_j m_j(nu)!.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from . import check_agreement
from .arith import ALPHA, UniPoly, int_poly_divmod
from .partitions import Partition, partitions_of, z_of

class JackSystemError(RuntimeError):
    """Raised when the Laplace-Beltrami recursion for a Jack function breaks down."""


# ---------------------------------------------------------------------------
# Linear combinations of power sums
# ---------------------------------------------------------------------------


class PowerSumExpr:
    """A finite linear combination of power sums p_mu.

    Coefficients may be any exact ring elements (ints, Fractions,
    polynomials, rational functions).  Multiplication concatenates partition
    indices, matching p_lam * p_mu = p_{lam union mu}.  An int, Fraction or
    `UniPoly` scalar coerces to a multiple of the empty power sum p_() = 1.
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
    def one(cls) -> PowerSumExpr:
        return cls({Partition(): 1})

    @classmethod
    def basis(cls, mu) -> PowerSumExpr:
        return cls({Partition(mu) if not isinstance(mu, Partition) else mu: 1})

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, PowerSumExpr):
            return value
        if isinstance(value, (int, UniPoly)):
            return cls({Partition(): value})
        # A Fraction operand means `fractions` is loaded already.
        from fractions import Fraction

        if isinstance(value, Fraction):
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (-self) + o

    def __mul__(self, other):
        if isinstance(other, PowerSumExpr):
            out: dict[Partition, object] = {}
            for mu, a in self.terms.items():
                for nu, b in other.terms.items():
                    key = Partition(sorted(mu + nu, reverse=True))
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
            total = total + cf * cg * UniPoly.monomial(ALPHA, mu.length, z_of(mu))
    return total


# ---------------------------------------------------------------------------
# Power-sum <-> monomial transition
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _monomial_row(mu: Partition) -> dict[Partition, int]:
    """p_mu in the monomial basis, {nu: [m_nu] p_mu}.

    [m_nu] p_mu counts the ways to group the parts of mu into blocks whose
    sums are the parts of nu, times prod_j m_j(nu)! for placing the blocks
    on variables with equal exponents (Stanley 1989, Adv. Math. 77, section
    3).  The grouping is counted part by part: each part joins one of the
    blocks so far or opens a new one, tallied by the sorted block sums.
    """
    ways: dict[tuple[int, ...], int] = {(): 1}
    for k in mu:
        grown: dict[tuple[int, ...], int] = {}
        for sums, count in ways.items():
            blocks = sums + (0,)  # the last block is a new, empty one
            for i in range(len(blocks)):
                key = blocks[:i] + (blocks[i] + k,) + blocks[i + 1 :]
                key = tuple(sorted(filter(None, key), reverse=True))
                grown[key] = grown.get(key, 0) + count
        ways = grown
    row: dict[Partition, int] = {}
    for sums, count in ways.items():
        nu = Partition(sums)
        for m in nu.multiplicities().values():
            count *= math.factorial(m)
        row[nu] = count
    return row


def expand_in_variables(expr: PowerSumExpr) -> dict[Partition, object]:
    """Monomial coefficients of a power-sum expression.

    Returns {exponent partition: coefficient} for the distinguished sorted
    monomial of each orbit, with zero coefficients dropped.
    """
    out: dict[Partition, object] = {}
    for mu, c in expr.terms.items():
        for key, cnt in _monomial_row(mu).items():
            out[key] = out.get(key, 0) + c * cnt
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Jack symmetric functions (J normalization)
# ---------------------------------------------------------------------------


class JackRecord(NamedTuple):
    """A computed Jack function together with its derived statistics.

    Every value is a polynomial in alpha with integer coefficients
    (Knop-Sahi), stored as a `UniPoly` in alpha whose coefficients are
    `int`s.

    expansion: power-sum expansion with alpha-polynomial coefficients.
    norm:      <J, J> under the alpha inner product.
    principal: the one-row principal specialization, i.e. the polynomial in
               x over alpha-polynomials obtained by sending every p_k to x.
    p2coeff:   the coefficient of p_(2,...,2); zero for odd weight, where no
               such partition exists.
    """

    expansion: PowerSumExpr
    norm: UniPoly
    principal: UniPoly
    p2coeff: UniPoly


_jack_cache: dict[Partition, JackRecord] = {}


def jack(shape) -> JackRecord:
    """The Jack function J_shape, computed exactly and cached by shape.

    >>> jack((1,)).expansion == PowerSumExpr.basis((1,))
    True
    >>> print(jack((2,)).norm)
    2alpha^2+2alpha^3
    >>> print(jack((2,)).principal.coeffs[1])
    alpha
    """
    theta = shape if isinstance(shape, Partition) else Partition(shape)
    rec = _jack_cache.get(theta)
    if rec is None:
        rec = _jack_cache[theta] = _solve_jack(theta)
    return rec


def _solve_jack(theta: Partition) -> JackRecord:
    n = theta.weight
    monomial = _monomial_coefficients(theta, _level(n))
    expansion = PowerSumExpr(_power_sum_coefficients(theta, monomial))
    # An odd weight has no pure-2 partition, so the lookup misses there.
    p2coeff = expansion.terms.get(Partition((2,) * (n // 2)), UniPoly.zero(ALPHA))
    return JackRecord(
        expansion=expansion,
        norm=hook_product(jack_norm_factors(theta)),
        principal=_principal_specialization(theta),
        p2coeff=p2coeff,
    )


def _monomial_coefficients(theta: Partition, column: Columns) -> dict[Partition, UniPoly]:
    """[m_mu] J_theta for every mu, by Stanley's eigen-recursion.

    J_theta is the eigenvector of the Laplace-Beltrami operator with
    eigenvalue e_theta whose leading coefficient is the upper hook product.
    The operator is triangular in the monomial basis, so walking down the
    reverse-lex order from theta each coefficient solves

        (e_theta - e_mu) * [m_mu] J = sum over nu above mu of [m_nu] J * A[nu, mu].

    Every [m_mu] J_theta is an integer polynomial in alpha (Knop-Sahi), so
    each division is exact over the integers; an inexact step or a remainder
    means a broken operator.  Where the two eigenvalues coincide, mu and
    theta are incomparable in dominance order and the coefficient is zero.
    """
    e_theta = _eigenvalue(theta)
    coeffs = {theta: hook_product(_hook_factors(theta)[0])}
    shapes = partitions_of(theta.weight)
    for mu in shapes[shapes.index(theta) + 1 :]:
        numerator = UniPoly.zero(ALPHA)
        for nu, entry in column[mu]:
            v = coeffs.get(nu)
            if v is not None:
                numerator = numerator + v * entry
        if not numerator:
            continue
        gap = e_theta - _eigenvalue(mu)
        if not gap:
            raise JackSystemError(
                f"[m_{mu.parts}] J_{theta.parts} has a nonzero numerator but "
                "the eigenvalues coincide"
            )
        step = int_poly_divmod(numerator, gap)
        if step is None or step[1]:
            raise JackSystemError(
                f"[m_{mu.parts}] J_{theta.parts} is not an integer polynomial in alpha"
            )
        coeffs[mu] = step[0]
    return coeffs


def _power_sum_coefficients(
    theta: Partition, monomial: dict[Partition, UniPoly]
) -> dict[Partition, UniPoly]:
    """[p_rho] J_theta from the monomial coefficients, by back-substitution.

    [m_mu] J = sum_rho [p_rho] J * M[rho, mu], where M[rho, mu] = [m_mu] p_rho
    vanishes unless mu is rho or coarser.  A coarser shape comes earlier in
    reverse-lex order, so walking up from (1^n) each [p_rho] J is what is
    left of [m_rho] J, divided by M[rho, rho] = prod_j m_j(rho)!.  Every
    [p_rho] J_theta is an integer polynomial in alpha (Knop-Sahi), so that
    division is exact; a remainder means a broken expansion.
    """
    residual: dict[Partition, UniPoly] = dict(monomial)
    out: dict[Partition, UniPoly] = {}
    for rho in reversed(partitions_of(theta.weight)):
        left = residual.pop(rho, None)
        if not left:
            continue
        row = _monomial_row(rho)
        step = int_poly_divmod(left, UniPoly(ALPHA, (row[rho],)))
        if step is None or step[1]:
            raise JackSystemError(
                f"[p_{rho.parts}] J_{theta.parts} is not an integer polynomial in alpha"
            )
        c = out[rho] = step[0]
        for mu, m in row.items():
            if mu != rho:
                residual[mu] = residual.get(mu, 0) - c * m
    return out


# -- closed forms from the diagram -------------------------------------------


def _hook_factors(theta: Partition) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Stanley's upper and lower hooks of every cell, as alpha-linear factors.

    A factor (s, t) stands for s * alpha + t.  A cell with arm a and leg l
    has upper hook alpha * a + l + 1 and lower hook alpha * (a + 1) + l.
    """
    parts = theta.parts
    columns = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    upper: list[tuple[int, int]] = []
    lower: list[tuple[int, int]] = []
    for i, row in enumerate(parts):
        for j in range(row):
            arm, leg = row - j - 1, columns[j] - i - 1
            upper.append((arm, leg + 1))
            lower.append((arm + 1, leg))
    return upper, lower


def jack_norm_factors(shape) -> list[tuple[int, int]]:
    """<J_shape, J_shape> as a list of alpha-linear factors (s, t) = s * alpha + t.

    The norm is the product of the upper and lower hooks over the cells.

    >>> jack_norm_factors((2,))
    [(1, 1), (0, 1), (2, 0), (1, 0)]
    """
    theta = shape if isinstance(shape, Partition) else Partition(shape)
    upper, lower = _hook_factors(theta)
    return upper + lower


def hook_product(factors) -> UniPoly:
    """The alpha-polynomial product of linear factors (s, t) = s * alpha + t."""
    out = UniPoly.one(ALPHA)
    for s, t in factors:
        out = out * UniPoly(ALPHA, (t, s))
    return out


def cleared_norms(shapes) -> tuple[UniPoly, dict[Partition, UniPoly]]:
    """The lcm D of the norms <J_theta, J_theta>, and D / norm for each shape.

    Each hook factor s * alpha + t (`jack_norm_factors`) splits into its
    content gcd(s, t) and, for s > 0, a primitive factor.  D is the lcm of
    the contents times the max-multiplicity merge of the primitive factors.
    """
    split = {}
    common: Counter[tuple[int, int]] = Counter()
    content_lcm = 1
    for theta in shapes:
        content, primitive = 1, Counter()
        for s, t in jack_norm_factors(theta):
            g = math.gcd(s, t)
            content *= g
            if s:
                primitive[s // g, t // g] += 1
        split[theta] = content, primitive
        common |= primitive
        content_lcm = math.lcm(content_lcm, content)
    return hook_product(common.elements()) * content_lcm, {
        theta: hook_product((common - primitive).elements()) * (content_lcm // content)
        for theta, (content, primitive) in split.items()
    }


def _eigenvalue(mu: Partition) -> UniPoly:
    """e_mu = alpha * n(mu') - n(mu), the Laplace-Beltrami eigenvalue of J_mu."""
    n_mu = sum(i * p for i, p in enumerate(mu))
    n_conj = sum(p * (p - 1) // 2 for p in mu)
    return UniPoly(ALPHA, (-n_mu, n_conj))


def _principal_specialization(theta: Partition) -> UniPoly:
    """J_theta with every p_k sent to x: the product of x - i + alpha * j over cells (i, j)."""
    coeffs = [UniPoly.one(ALPHA)]  # x-coefficients, as alpha-polynomials
    for i, row in enumerate(theta):
        for j in range(row):
            shift = UniPoly(ALPHA, (-i, j))
            coeffs = [
                (coeffs[k - 1] if k else 0) + (coeffs[k] * shift if k < len(coeffs) else 0)
                for k in range(len(coeffs) + 1)
            ]
    return UniPoly("x", coeffs)


# -- the Laplace-Beltrami operator, one weight at a time ----------------------


#: The weight-n operator as columns: column[mu] lists the entries A[nu, mu]
#: with nu strictly above mu, where Delta m_nu = sum_mu A[nu, mu] m_mu.
Columns = dict[Partition, list[tuple[Partition, int]]]


@lru_cache(maxsize=None)
def _level(n: int) -> Columns:
    """The weight-n Laplace-Beltrami operator in the monomial basis.

    The operator follows Stanley's rule (Stanley 1989, Adv. Math. 77,
    section 3).  For each pair of parts u >= v of mu, taken by position,
    and each p in u+1 .. u+v, let q = u + v - p and let nu be mu with
    (u, v) replaced by (p, q); then A[nu, mu] gains p - q.  Every entry is
    an alpha-free integer and nu lies strictly above mu in reverse-lex
    order.  The diagonal is the eigenvalue e_mu: Stanley's D(alpha) differs
    from Delta only by a constant on each weight, so the gaps e_theta - e_mu
    are the same.
    """
    column: Columns = {}
    for mu in partitions_of(n):
        parts = mu.parts
        entries: dict[Partition, int] = {}
        for j, v in enumerate(parts):
            for i, u in enumerate(parts[:j]):
                rest = parts[:i] + parts[i + 1 : j] + parts[j + 1 :]
                for p in range(u + 1, u + v + 1):
                    q = u + v - p
                    nu = Partition(sorted(filter(None, rest + (p, q)), reverse=True))
                    entries[nu] = entries.get(nu, 0) + p - q
        column[mu] = list(entries.items())
    return column


# ---------------------------------------------------------------------------
# Cauchy kernel verification
# ---------------------------------------------------------------------------


def cauchy_check(n: int) -> int:
    """Verify the degree-n component of the Cauchy identity for Jack functions,

        prod_{i,j} (1 - x_i y_j)^(-1/alpha)
            = sum_theta J_theta(x; alpha) J_theta(y; alpha) / <J_theta, J_theta>,

    in its Gram form.  Let C hold the coefficients [p_rho] J_theta, N the
    norms <J_theta, J_theta> on a diagonal and G = diag(z_rho alpha^l(rho)).
    The products p_rho(x) p_sigma(y) are linearly independent, and the
    product side's degree-(n, n) part is sum_rho p_rho(x) p_rho(y) / G_rho,
    so the identity reads C^T N^-1 C = G^-1.  With N invertible, inverting
    both sides shows it holds exactly when C G C^T = N, that is when
    <J_theta, J_sigma> is the norm for theta = sigma and 0 otherwise: the
    Cauchy identity and Jack orthogonality are one statement.

    The Gram matrix is symmetric, so `check_agreement` compares it over the
    pairs (theta, sigma) with sigma <= theta, an identity of integer
    polynomials in alpha, and raises `RouteMismatchError` naming the first
    pair of shapes where it differs from the norms.  Returns the number of
    pairs compared, p(n)(p(n) + 1)/2.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")

    shapes = partitions_of(n)
    records = {theta: jack(theta) for theta in shapes}
    gram = {
        (theta, sigma): inner_product(records[theta].expansion, records[sigma].expansion)
        for i, theta in enumerate(shapes)
        for sigma in shapes[i:]
    }
    norms = {(theta, theta): rec.norm for theta, rec in records.items()}
    what = f"Cauchy kernel at degree {n}"
    return check_agreement(what, "<J_theta, J_sigma>", gram, "norm", norms)
