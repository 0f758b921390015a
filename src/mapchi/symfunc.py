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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import ALPHA, AlphaFn, UniPoly, poly_divmod
from .partitions import Partition, partitions_of, z_of

class JackSystemError(RuntimeError):
    """Raised when the Laplace-Beltrami recursion for a Jack function breaks down."""


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
            total = total + cf * cg * UniPoly.monomial(ALPHA, mu.length, z_of(mu))
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


def _monomial_row(mu: Partition) -> dict[Partition, int]:
    """p_mu as {exponent partition: coefficient}, in the |mu| variables it needs."""
    return {
        Partition(tuple(e for e in expo if e)): cnt
        for expo, cnt in _psum_monomial_dict(mu.parts, mu.weight).items()
    }


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
    return {
        (lam, mu): Fraction(cnt)
        for lam in partitions_of(n)
        for mu, cnt in _monomial_row(lam).items()
    }


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
    (Knop-Sahi), stored as a `UniPoly` in alpha.

    expansion: power-sum expansion with alpha-polynomial coefficients.
    norm:      <J, J> under the alpha inner product.
    principal: the one-row principal specialization, i.e. the polynomial in
               x over alpha-polynomials obtained by sending every p_k to x.
    p2coeff:   the coefficient of p_(2,...,2); zero for odd weight, where no
               such partition exists.
    """

    shape: Partition
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
    level = _level(n)
    psums: dict[Partition, UniPoly] = {}
    for mu, v in _monomial_coefficients(theta, level).items():
        for rho, c in level.inverse[mu].items():
            psums[rho] = psums.get(rho, 0) + v * c
    expansion = PowerSumExpr(psums)
    # An odd weight has no pure-2 partition, so the lookup misses there.
    p2coeff = expansion.terms.get(Partition((2,) * (n // 2)), UniPoly.zero(ALPHA))
    return JackRecord(
        shape=theta,
        expansion=expansion,
        norm=hook_product(jack_norm_factors(theta)),
        principal=_principal_specialization(theta),
        p2coeff=p2coeff,
    )


def _monomial_coefficients(theta: Partition, level: _Level) -> dict[Partition, UniPoly]:
    """[m_mu] J_theta for every mu, by Stanley's eigen-recursion.

    J_theta is the eigenvector of the Laplace-Beltrami operator with
    eigenvalue e_theta whose leading coefficient is the upper hook product.
    The operator is triangular in the monomial basis, so walking down the
    reverse-lex order from theta each coefficient solves

        (e_theta - e_mu) * [m_mu] J = sum over nu above mu of [m_nu] J * A[nu, mu].

    Every [m_mu] J_theta is a polynomial in alpha (Knop-Sahi), so each
    division is exact; a remainder means a broken operator.  Where the two
    eigenvalues coincide, mu and theta are incomparable in dominance order
    and the coefficient is zero.
    """
    e_theta = _eigenvalue(theta)
    coeffs = {theta: hook_product(_hook_factors(theta)[0])}
    shapes = partitions_of(theta.weight)
    for mu in shapes[shapes.index(theta) + 1 :]:
        numerator = UniPoly.zero(ALPHA)
        for nu, entry in level.column[mu]:
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
        quotient, remainder = poly_divmod(numerator, gap)
        if remainder:
            raise JackSystemError(
                f"[m_{mu.parts}] J_{theta.parts} is not a polynomial in alpha"
            )
        coeffs[mu] = quotient
    return coeffs


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
        out = out * UniPoly(ALPHA, (Fraction(t), Fraction(s)))
    return out


def _eigenvalue(mu: Partition) -> UniPoly:
    """e_mu = alpha * n(mu') - n(mu), the Laplace-Beltrami eigenvalue of J_mu."""
    n_mu = sum(i * p for i, p in enumerate(mu.parts))
    n_conj = sum(p * (p - 1) // 2 for p in mu.parts)
    return UniPoly(ALPHA, (Fraction(-n_mu), Fraction(n_conj)))


def _principal_specialization(theta: Partition) -> UniPoly:
    """J_theta with every p_k sent to x: the product of x - i + alpha * j over cells (i, j)."""
    coeffs = [UniPoly.one(ALPHA)]  # x-coefficients, as alpha-polynomials
    for i, row in enumerate(theta.parts):
        for j in range(row):
            shift = UniPoly(ALPHA, (Fraction(-i), Fraction(j)))
            coeffs = [
                (coeffs[k - 1] if k else 0) + (coeffs[k] * shift if k < len(coeffs) else 0)
                for k in range(len(coeffs) + 1)
            ]
    return UniPoly("x", coeffs)


# -- the Laplace-Beltrami operator, one weight at a time ----------------------


class _Level(NamedTuple):
    """The operator of one weight in the monomial basis, and the basis change.

    column[mu]:  the entries A[nu, mu] with nu strictly above mu, where
                 Delta m_nu = sum_mu A[nu, mu] m_mu.
    inverse[mu]: m_mu in the power-sum basis, {rho: coefficient}.
    """

    column: dict[Partition, list[tuple[Partition, UniPoly]]]
    inverse: dict[Partition, dict[Partition, Fraction]]


def _cut_and_join(rho: Partition) -> dict[Partition, UniPoly]:
    """Delta p_rho in the power-sum basis, with alpha-polynomial coefficients.

        Delta = 1/2 sum_{i,j} (alpha i j p_{i+j} d_i d_j + (i+j) p_i p_j d_{i+j})
                + (alpha - 1)/2 sum_i i (i-1) p_i d_i

    The first sum joins two parts of rho, the second cuts one part in two.
    Its eigenvalue on J_mu is e_mu.
    """
    mult = rho.multiplicities()
    out: dict[Partition, UniPoly] = {}

    def add(removed, added, value) -> None:
        parts = list(rho.parts)
        for p in removed:
            parts.remove(p)
        key = Partition(sorted(parts + list(added), reverse=True))
        out[key] = out.get(key, 0) + value

    for i in mult:
        for j in mult:
            pairs = mult[i] * (mult[j] - 1) if i == j else mult[i] * mult[j]
            if pairs:
                add((i, j), (i + j,), UniPoly(ALPHA, (Fraction(0), Fraction(i * j * pairs, 2))))
    for k, m_k in mult.items():
        for i in range(1, k):
            add((k,), (i, k - i), UniPoly(ALPHA, (Fraction(k * m_k, 2),)))
    diagonal = Fraction(sum(k * (k - 1) * m_k for k, m_k in mult.items()), 2)
    add((), (), UniPoly(ALPHA, (-diagonal, diagonal)))
    return out


@lru_cache(maxsize=None)
def _level(n: int) -> _Level:
    """Conjugate Delta into the monomial basis: A = M^-1 P M.

    M is the power-sum to monomial table, triangular in reverse-lex order, so
    its inverse comes from back-substitution.  The result must again be
    triangular with the eigenvalues e_mu on its diagonal; anything else
    raises `JackSystemError`.
    """
    shapes = partitions_of(n)
    trans = power_to_monomial(n)
    rows: dict[Partition, list[tuple[Partition, Fraction]]] = {rho: [] for rho in shapes}
    for (rho, mu), c in trans.items():
        rows[rho].append((mu, c))

    # p_rho = M[rho, rho] m_rho + (monomials above rho), solved from the top.
    inverse: dict[Partition, dict[Partition, Fraction]] = {}
    for rho in shapes:
        m_rho = {rho: Fraction(1)}
        for mu, c in rows[rho]:
            if mu != rho:
                for sigma, d in inverse[mu].items():
                    m_rho[sigma] = m_rho.get(sigma, 0) - c * d
        lead = 1 / trans[rho, rho]
        inverse[rho] = {sigma: d * lead for sigma, d in m_rho.items() if d}

    delta = {rho: _cut_and_join(rho) for rho in shapes}
    column: dict[Partition, list[tuple[Partition, UniPoly]]] = {mu: [] for mu in shapes}
    for nu in shapes:
        image: dict[Partition, UniPoly] = {}
        for rho, c in inverse[nu].items():
            for sigma, entry in delta[rho].items():
                image[sigma] = image.get(sigma, 0) + entry * c
        mono: dict[Partition, UniPoly] = {}
        for sigma, coeff in image.items():
            for mu, c in rows[sigma]:
                mono[mu] = mono.get(mu, 0) + coeff * c
        for mu, entry in mono.items():
            if not entry:
                continue
            if mu.parts > nu.parts:
                raise JackSystemError(
                    f"weight-{n} operator is not triangular: m_{nu.parts} -> m_{mu.parts}"
                )
            if mu != nu:
                column[mu].append((nu, entry))
        if mono.get(nu, 0) != _eigenvalue(nu):
            raise JackSystemError(
                f"weight-{n} operator has diagonal {mono.get(nu)!r} at {nu.parts}, "
                f"expected {_eigenvalue(nu)!r}"
            )
    return _Level(column=column, inverse=inverse)


# ---------------------------------------------------------------------------
# Cauchy kernel verification
# ---------------------------------------------------------------------------


class CauchyReport(NamedTuple):
    """Outcome of comparing both sides of the alpha-deformed Cauchy identity."""

    ok: bool
    degree: int
    mismatch: tuple[Partition, Partition, str, str] | None = None


def cauchy_check(n: int) -> CauchyReport:
    """Verify the degree-n component of the Cauchy identity for Jack functions,

        prod_{i,j} (1 - x_i y_j)^(-1/alpha)
            = sum_theta J_theta(x; alpha) J_theta(y; alpha) / <J_theta, J_theta>.

    Both sides are expanded in the monomial basis of n x-variables and
    n y-variables over `AlphaFn` and compared coefficient by coefficient;
    n variables carry every degree-n monomial, so the comparison is exact
    for any number of variables.  The product side is the reproducing
    kernel of the inner product; its bigraded degree-(n, n) component is

        sum over partitions rho of n of  p_rho(x) p_rho(y) / (z_rho * alpha**length(rho)),

    which is what gets expanded here.  Returns a report carrying the first
    discrepant coefficient if any.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")

    # Kernel side: sum over rho of p_rho(x) p_rho(y) / (z_rho alpha^l(rho)),
    # expanded into monomials in x and y separately.
    kernel: dict[tuple[Partition, Partition], AlphaFn] = {}
    for rho in partitions_of(n):
        weight = AlphaFn.alpha(-rho.length) / z_of(rho)
        mono = _monomial_row(rho)
        for mu, cx in mono.items():
            for nu, cy in mono.items():
                key = (mu, nu)
                kernel[key] = kernel.get(key, AlphaFn.zero()) + weight * (cx * cy)

    # Jack side: sum over shapes of J(x) (x) J(y) / norm.
    jackside: dict[tuple[Partition, Partition], AlphaFn] = {}
    for theta in partitions_of(n):
        rec = jack(theta)
        mono = expand_in_variables(rec.expansion)
        inv_norm = AlphaFn(1, rec.norm)
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
                mismatch=(key[0], key[1], repr(lhs), repr(rhs)),
            )
    return CauchyReport(ok=True, degree=n)
