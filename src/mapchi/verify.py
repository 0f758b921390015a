"""The self-verification suite behind the ``verify-all`` command.

Each check re-derives a slice of the package's output by an independent
route and fails loudly on any disagreement.  Every comparison of two
routes, or of a route with tabulated values, goes through
`check_agreement`; `_require` states only invariants (the alpha <-> 1/alpha
duality of `alpha_dual`, bounds, nonzero values, order).  Results are
collected rather than raised so a single run reports every broken
invariant.  Exit-code policy: 0 when everything passes, 3 when the only
failures are violations of the (conjectural) coefficient-nonnegativity
report, 2 otherwise.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import (
    EXIT_CONJECTURE,
    EXIT_FAILURE,
    EXIT_OK,
    MAX_EDGE_TRUNCATION,
    MAX_JACK_WEIGHT,
    arith,
    check_agreement,
    check_truncation,
)
from .arith import (
    AlphaFn,
    TruncatedSeries,
    UniPoly,
    VariableMixError,
    bernoulli,
    int_poly_divmod,
)
from .btutte import map_count_table, nonneg_report
from .eulerchar import (
    INV_GAMMA,
    ParityError,
    chi_fixed_curves,
    chi_real,
    lambda_edges,
    lambda_values,
    xi_closed,
    xi_from_logW,
    xi_from_maps,
)
from .maporacle import (
    MAX_LOCALLY_ORIENTABLE_EDGES,
    MAX_ORIENTABLE_EDGES,
    double_cover_lift_check,
    glue_census,
    lambda_from_census,
    rooted_locally_orientable_counts,
    rooted_orientable_counts,
)
from .partitions import MapKey, Partition, partitions_of, z_of
from .symfunc import PowerSumExpr, cauchy_check, expand_in_variables, jack

#: Checks whose failure signals a violated conjecture, not a broken package;
#: when only these fail, the run exits with `EXIT_CONJECTURE`.  Refined-count
#: nonnegativity is conjectural.  Every coefficient of the b-Tutte cumulants
#: (`btutte`) is nonnegative in b, so only the division by (1 + b)^(l(mu) - 1)
#: in `btutte.counts_from_cumulant` stands between the recursion and
#: manifest positivity.
CONJECTURE_CHECKS = frozenset({"nonnegativity"})

#: Refined map-count polynomials through 3 edges, keyed by
#: (valence partition, faces) with b-coefficients by degree.
#: Independently tabulated; the b = 0 and b = 1 column sums reproduce the
#: classical rooted-map counts in `ROOTED_TOTALS_ORIENTABLE` and
#: `ROOTED_TOTALS_ALL`.
REFERENCE_COUNTS: dict[MapKey, tuple[int, ...]] = {
    MapKey((1, 1), 1): (1,),
    MapKey((2,), 1): (0, 1),
    MapKey((2,), 2): (1,),
    MapKey((2, 1, 1), 1): (2,),
    MapKey((2, 2), 1): (0, 1),
    MapKey((3, 1), 1): (0, 4),
    MapKey((4,), 1): (1, 1, 3),
    MapKey((2, 2), 2): (1,),
    MapKey((3, 1), 2): (4,),
    MapKey((4,), 2): (0, 5),
    MapKey((4,), 3): (2,),
    MapKey((2, 2, 1, 1), 1): (3,),
    MapKey((2, 2, 2), 1): (0, 1),
    MapKey((3, 1, 1, 1), 1): (2,),
    MapKey((3, 2, 1), 1): (0, 12),
    MapKey((3, 3), 1): (1, 1, 5),
    MapKey((4, 1, 1), 1): (0, 9),
    MapKey((4, 2), 1): (3, 3, 9),
    MapKey((5, 1), 1): (6, 6, 18),
    MapKey((6,), 1): (0, 13, 13, 15),
    MapKey((2, 2, 2), 2): (1,),
    MapKey((3, 2, 1), 2): (12,),
    MapKey((3, 3), 2): (0, 9),
    MapKey((4, 1, 1), 2): (9,),
    MapKey((4, 2), 2): (0, 15),
    MapKey((5, 1), 2): (0, 30),
    MapKey((6,), 2): (10, 10, 32),
    MapKey((3, 3), 3): (4,),
    MapKey((4, 2), 3): (6,),
    MapKey((5, 1), 3): (12,),
    MapKey((6,), 3): (0, 22),
    MapKey((6,), 4): (5,),
}


def rooted_orientable_totals(max_n: int) -> dict[int, int]:
    """Rooted orientable maps with n edges, keyed by n = 1..max_n.

    The chord-diagram recursion (Arques and Beraud 2000, Discrete Math. 215;
    OEIS A000698): a(1) = 1 and a(m) = (2m-1)!! - sum_{k=1}^{m-1}
    (2k-1)!! a(m-k), where n edges give a(n+1).
    """
    odd = [1]  # odd[k] = (2k - 1)!!
    for k in range(1, max_n + 2):
        odd.append(odd[-1] * (2 * k - 1))
    a = [0, 1]
    for m in range(2, max_n + 2):
        a.append(odd[m] - sum(odd[k] * a[m - k] for k in range(1, m)))
    return {n: a[n + 1] for n in range(1, max_n + 1)}


def harer_zagier_rows(max_n: int) -> dict[MapKey, int]:
    """The b = 0 coefficients of the one-vertex rows mu = (2n), n <= max_n.

    eps_g(n) counts the gluings of a 2n-gon into an orientable surface of
    genus g, that is the orientable one-vertex maps with n edges and
    n + 1 - 2g faces (Harer and Zagier 1986, Invent. Math. 85):
    (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2),
    run from eps_0(0) = 1.  At g = 0 it is Catalan's recurrence
    (n+1) C_n = 2(2n-1) C_{n-1}.
    """
    eps = {(0, 0): 1}
    rows = {}
    for n in range(1, max_n + 1):
        for g in range(n // 2 + 1):
            value = (
                2 * (2 * n - 1) * eps.get((g, n - 1), 0)
                + (n - 1) * (2 * n - 1) * (2 * n - 3) * eps.get((g - 1, n - 2), 0)
            ) // (n + 1)
            eps[g, n] = value
            rows[MapKey((2 * n,), n + 1 - 2 * g)] = value
    return rows


def ledoux_rows(max_n: int) -> dict[MapKey, int]:
    """The b = 1 values of the one-vertex rows mu = (2n), n <= max_n.

    At b = 1, E_(2n)(N, 1) is the GOE moment a_n = E tr X^(2n), with
    diagonal variance 2 and off-diagonal variance 1, so [N^j] a_n is the
    row (2n), j at b = 1.  Ledoux's recursion (2009, Ann. Inst. H. Poincare
    Probab. Stat. 45), run from a_0 = N and a_1 = N^2 + N with a_q = 0 for
    q < 0, gives for p >= 2, with c = (2p-3)(2p-4)(2p-5):
    (p+1) a_p = (4p-1)(2N-1) a_{p-1} + (2p-3)(10p^2 - 9p - 8N^2 + 8N) a_{p-2}
        - 5c(2N-1) a_{p-3} - 2c(2p-6)(2p-7) a_{p-4}.
    A division by p + 1 that leaves a remainder raises ArithmeticError.
    """
    N = UniPoly.gen("N")
    a = [N, N * N + N]
    for p in range(2, max_n + 1):
        c = (2 * p - 3) * (2 * p - 4) * (2 * p - 5)
        a1, a2, a3, a4 = (a[p - k] if p >= k else 0 for k in range(1, 5))
        total = (
            (4 * p - 1) * (2 * N - 1) * a1
            + (2 * p - 3) * (10 * p * p - 9 * p - 8 * N * N + 8 * N) * a2
            - 5 * c * (2 * N - 1) * a3
            - 2 * c * (2 * p - 6) * (2 * p - 7) * a4
        )
        step = int_poly_divmod(total, UniPoly("N", [p + 1]))
        if step is None:
            raise ArithmeticError(f"Ledoux's recursion: {total} is not divisible by {p + 1}")
        a.append(step[0])
    return {
        MapKey((2 * n,), j): value
        for n in range(1, max_n + 1)
        for j, value in enumerate(a[n].coeffs)
        if value
    }


def slicing_rows(max_n: int) -> dict[MapKey, int]:
    """The planar rows whose vertex degrees are all even, n <= max_n.

    Tutte's census of slicings (1962, Canad. J. Math. 14): for valences mu
    with v = l(mu) vertices, n edges and so j = n + 2 - v faces, the count
    is 2 n! / (n - v + 2)! prod_d binom(d - 1, d/2)^{m_d} / m_d!, and a
    sphere row has no b term.  A count that comes out fractional raises
    ArithmeticError.
    """
    rows = {}
    for n in range(1, max_n + 1):
        for half in partitions_of(n):
            mu = Partition([2 * p for p in half])
            num = 2 * math.factorial(n)
            den = math.factorial(n - mu.length + 2)
            for d, m in mu.multiplicities().items():
                num *= math.comb(d - 1, d // 2) ** m
                den *= math.factorial(m)
            count, remainder = divmod(num, den)
            if remainder:
                raise ArithmeticError(f"slicings of {mu.parts}: {num}/{den} is not an integer")
            rows[MapKey(mu.parts, n + 2 - mu.length)] = count
    return rows


def jack_rows(alpha: int, max_n: int) -> dict[MapKey, int | Fraction]:
    """The rows at b = alpha - 1, n <= max_n, off the Jack series at an integer alpha >= 1.

    The partition sum S(z) sums, over the shapes theta of weight 2m, the
    terms z^m J_theta(y) J_theta(1_x) [p_(2^m)] J_theta / <J_theta, J_theta>,
    and [z^n p_mu x^j] of M(z) = 2 alpha z d/dz log S(z) is the row (mu, j)
    at b = alpha - 1 (Goulden and Jackson 1996, Trans. AMS 348).  At an
    integer alpha each z^m level is summed over the integers at the lcm of
    its norms, and the log runs over `Fraction`s.  Values that come out
    integral are `int`s; zero values are omitted.
    """
    check_truncation(max_n, MAX_JACK_WEIGHT // 2, "the Jack series")
    levels = [PowerSumExpr.one()]
    for m in range(1, max_n + 1):
        records = [rec for theta in partitions_of(2 * m) if (rec := jack(theta)).p2coeff]
        norms = [rec.norm.eval(alpha) for rec in records]
        den = math.lcm(*norms)
        sums: dict[tuple[Partition, int], int] = {}
        for rec, norm in zip(records, norms):
            scale = rec.p2coeff.eval(alpha) * (den // norm)
            for j, pj in enumerate(rec.principal.coeffs):
                if pj:
                    weight = scale * pj.eval(alpha)
                    for mu, c in rec.expansion.terms.items():
                        sums[mu, j] = sums.get((mu, j), 0) + weight * c.eval(alpha)
        xrows: dict[Partition, list] = {}
        for (mu, j), num in sums.items():
            xrows.setdefault(mu, [0] * (2 * m + 1))[j] = Fraction(num, den)
        levels.append(PowerSumExpr({mu: UniPoly("x", row) for mu, row in xrows.items()}))
    series = TruncatedSeries("z", levels, max_n).log().z_ddz().scale(2 * alpha)
    return {
        MapKey(mu.parts, j): int(c) if c.denominator == 1 else c
        for n in range(1, max_n + 1)
        for mu, xpoly in series.coefficient(n).terms.items()
        for j, c in enumerate(xpoly.coeffs)
        if c
    }


#: Classical numbers of rooted maps with n edges, keyed by n: orientable
#: (b = 0) by the chord-diagram recursion through the largest truncation,
#: and on all surfaces (b = 1) through 6 edges.  At n = 6 the rooted-map
#: census of `maporacle` on all surfaces agreed in a one-off run past its limit (about 20 s
#: on 2 vCPUs); n >= 7 comes from the recursion alone, so it is not recorded.
ROOTED_TOTALS_ORIENTABLE = rooted_orientable_totals(MAX_EDGE_TRUNCATION)
ROOTED_TOTALS_ALL = {1: 3, 2: 24, 3: 297, 4: 4896, 5: 100278, 6: 2450304}


class CheckFailure(AssertionError):
    """An invariant check did not hold."""


class SkipCheck(Exception):
    """A check cannot run under the current configuration."""


class CheckResult(NamedTuple):
    """The outcome of one check of `CHECKS`."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    seconds: float
    detail: str = ""


class VerifyReport:
    """The results of a verification run, in check order."""

    def __init__(self, results: list[CheckResult] | None = None):
        self.results = [] if results is None else results

    @property
    def exit_code(self) -> int:
        failed = [r.name for r in self.results if r.status == "fail"]
        if not failed:
            return EXIT_OK
        if all(name in CONJECTURE_CHECKS for name in failed):
            return EXIT_CONJECTURE
        return EXIT_FAILURE


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def alpha_dual(poly: UniPoly, k: int) -> UniPoly:
    """(-1)^k alpha^k P(1/alpha) for P = `poly`, keeping only degrees 0..k.

    The Gaussian beta-ensemble is dual under beta <-> 4/beta, that is
    alpha <-> 1/alpha (Desrosiers 2009, Nucl. Phys. B 817).  A map-count row
    at b = alpha - 1 is its own dual at k = 2 - chi, its Euler genus, and
    xi^s_g in alpha = 1/gamma at k = g + 1.  ``poly == alpha_dual(poly, k)``
    holds exactly when P has degree <= k and coefficients
    p_i = (-1)^k p_{k-i}.  For a nonzero P that implies k >= 0 (the Euler
    bound), degree <= k (the crosscap bound, so sphere rows are b-free) and,
    for odd k, P(1) = 0 (no orientable maps, b = 0, at odd chi).

    The row 1 + b + 3b^2 (one vertex, one face, two edges: the torus or
    the Klein bottle, k = 2) is 3 - 5 alpha + 3 alpha^2 at b = alpha - 1:

    >>> row = UniPoly("b", (1, 1, 3)).compose(UniPoly(arith.ALPHA, (-1, 1)))
    >>> row.coeffs, alpha_dual(row, 2) == row
    ((3, -5, 3), True)

    Degrees above k, and every degree when k < 0, are dropped:

    >>> alpha_dual(row, 1).coeffs, alpha_dual(row, -1).coeffs
    ((5, -3), ())
    """
    return UniPoly(poly.var, [(-1) ** k * poly.coeff(k - i) for i in range(k + 1)])


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_exact_arith(max_edges: int) -> str:
    frozen = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        12: Fraction(-691, 2730),
    }
    computed = {j: bernoulli(j) for j in frozen}
    check_agreement("Bernoulli numbers", "computed", computed, "tabulated", frozen)
    # Re-run the defining recurrence over every cached value, so that any
    # corruption of the cache is caught regardless of where it sits.
    bernoulli(max(len(arith._bernoulli_cache) - 1, 16))
    cached = list(arith._bernoulli_cache)
    for m in range(1, len(cached)):
        acc = sum(math.comb(m + 1, k) * cached[k] for k in range(m + 1))
        _require(acc == 0, f"Bernoulli recurrence fails at index {m}")
        if m >= 3 and m % 2:
            _require(not cached[m], f"odd Bernoulli number B_{m} is nonzero")

    # Truncated series: log turns products into sums, and the Euler
    # operator satisfies f * (z d/dz log f) = z d/dz f.
    f = TruncatedSeries("z", [Fraction(c) for c in (1, 1, 2, 3, 0, 1)], 6)
    g = TruncatedSeries("z", [Fraction(c) for c in (1, -1, 1)], 6)
    check_agreement("log(fg)", "log of the product", (f * g).log(), "sum", f.log() + g.log())
    check_agreement("z d/dz f", "f z d/dz log f", f * f.log().z_ddz(), "direct", f.z_ddz())

    alpha = AlphaFn.alpha()
    check_agreement(
        "(alpha^2-1)/(alpha-1)",
        "AlphaFn",
        AlphaFn(UniPoly(arith.ALPHA, (-1, 0, 1)), UniPoly(arith.ALPHA, (-1, 1))),
        "tabulated",
        alpha + 1,
    )
    check_agreement(
        "alpha^-2 alpha^3", "AlphaFn", AlphaFn.alpha(-2) * AlphaFn.alpha(3), "tabulated", alpha
    )
    b = UniPoly.gen("b")
    check_agreement("(1+b)^3", "UniPoly", (1 + b) ** 3, "tabulated", UniPoly("b", (1, 3, 3, 1)))
    try:
        b + UniPoly.gen("x")
        raise CheckFailure("mixing variable tags did not raise")
    except VariableMixError:
        pass
    return f"Bernoulli cache validated through B_{len(cached) - 1}"


def _check_partitions(max_edges: int) -> str:
    known = dict(enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]))
    counts = {n: len(partitions_of(n)) for n in known}
    check_agreement("partition counts p(n)", "partitions_of", counts, "tabulated", known)
    for n in range(1, 10):
        mus = partitions_of(n)
        _require(mus[0] == (n,) and mus[-1] == (1,) * n, f"ordering broken at n={n}")
        for a, b in zip(mus, mus[1:]):
            _require(b.parts < a.parts, f"not strictly reverse-lex at n={n}")
        class_sizes = 0
        for mu in mus:
            size, remainder = divmod(math.factorial(n), z_of(mu))
            _require(not remainder, f"z_{mu.parts} does not divide {n}!")
            class_sizes += size
        _require(
            class_sizes == math.factorial(n),
            f"conjugacy classes of S_{n} do not fill the group",
        )
    return f"counts, order and statistics agree through n={max(known)}"


def _jack_reach(max_edges: int) -> int:
    """The top weight of the Jack checks: at least 6, and every weight the
    Jack route reads at `max_edges` (2 * max_edges), up to `MAX_JACK_WEIGHT`."""
    return min(max(6, 2 * max_edges), MAX_JACK_WEIGHT)


def _check_jack_conditions(max_edges: int) -> str:
    one = UniPoly.one(arith.ALPHA)
    hand = {
        (1,): {(1,): one},
        (2,): {(1, 1): one, (2,): UniPoly.gen(arith.ALPHA)},
        (1, 1): {(1, 1): one, (2,): -one},
    }
    for shape, coeffs in hand.items():
        rec = jack(shape)
        got = {mu.parts: c for mu, c in rec.expansion.terms.items()}
        check_agreement(f"J_{shape} in power sums", "jack", got, "by hand", coeffs)

    top = _jack_reach(max_edges)
    for weight in range(1, top + 1):
        bottom = Partition((1,) * weight)
        for theta in partitions_of(weight):
            rec = jack(theta)
            mono = expand_in_variables(rec.expansion)
            for mu in mono:
                _require(mu <= theta, f"J_{theta.parts} has monomial support above it: {mu.parts}")
            _require(
                mono.get(bottom) == math.factorial(weight),
                f"[m_(1^{weight})] J_{theta.parts} != {weight}!",
            )
            # `cauchy-kernel` equates the Gram matrix with the norms, which
            # is the Cauchy identity only where every norm is invertible.
            _require(bool(rec.norm), f"J_{theta.parts} has zero norm")
            # Every p_k -> x sends p_mu to x^l(mu), so [x^k] of the hook
            # product sums the coefficients [p_mu] J with l(mu) = k.
            by_length: dict[int, UniPoly] = {}
            for mu, c in rec.expansion.terms.items():
                by_length[mu.length] = by_length.get(mu.length, 0) + c
            check_agreement(
                f"J_{theta.parts} with every p_k -> x, by power of x",
                "hook product",
                dict(enumerate(rec.principal.coeffs)),
                "power sums",
                by_length,
            )
    return (
        "hand values, triangularity, normalization, nonzero norms and "
        f"principal specializations hold for all shapes of weight <= {top}"
    )


def _check_cauchy_kernel(max_edges: int) -> str:
    top = _jack_reach(max_edges)
    # cauchy_check raises unless the Gram matrix of the Jack functions is
    # the diagonal of their norms.
    pairs = sum(cauchy_check(degree) for degree in range(top + 1))
    return (
        "Cauchy kernel in Gram form: <J_theta, J_sigma> is the norm or 0 on "
        f"{pairs} pairs through degree {top}"
    )


def _check_reference_counts(max_edges: int) -> str:
    limit = min(max_edges, max(key.n for key in REFERENCE_COUNTS))
    table = map_count_table(max_edges)
    expected = {k: v for k, v in REFERENCE_COUNTS.items() if k.n <= limit}
    got = {key: poly.coeffs for key, poly in table.items() if key.n <= limit}
    rows = check_agreement("map counts", "computed", got, "reference", expected)
    return f"{rows} tabulated rows reproduced exactly"


def _check_series_invariants(max_edges: int) -> str:
    # A row with n edges has b-degree at most its Euler genus k = 2 - chi <= n:
    # the true counts, which the Jack route gives (Goulden-Jackson), by the
    # crosscap bound, and the table's rows by the duality required below.
    # So agreement at the reach + 1 points b = 0..reach fixes every row.
    table = map_count_table(max_edges)
    reach = min(max_edges, MAX_JACK_WEIGHT // 2)
    for alpha in range(1, reach + 2):
        check_agreement(
            f"map counts at b={alpha - 1}",
            "recursion",
            {key: poly.eval(alpha - 1) for key, poly in table.items() if key.n <= reach},
            "Jack route",
            jack_rows(alpha, reach),
        )
    sums_orientable: dict[int, int] = {}
    sums_all: dict[int, int] = {}
    b_at_alpha = UniPoly(arith.ALPHA, (-1, 1))  # b = alpha - 1
    for key, poly in table.items():
        genus = 2 - key.euler_characteristic
        at_alpha = poly.compose(b_at_alpha)
        _require(
            at_alpha == alpha_dual(at_alpha, genus),
            f"{key} row {poly} breaks the alpha <-> 1/alpha duality at k = {genus}",
        )
        sums_orientable[key.n] = sums_orientable.get(key.n, 0) + poly.eval(0)
        sums_all[key.n] = sums_all.get(key.n, 0) + poly.eval(1)
    for b, sums, totals in (
        (0, sums_orientable, ROOTED_TOTALS_ORIENTABLE),
        (1, sums_all, ROOTED_TOTALS_ALL),
    ):
        reached = {n: total for n, total in totals.items() if n <= table.max_n}
        column = {n: sums[n] for n in reached}
        check_agreement(f"b={b} column sums", "table", column, "rooted-map totals", reached)
    one_vertex = harer_zagier_rows(table.max_n)
    b_free = {key: poly.coeff(0) for key, poly in table.items() if key in one_vertex}
    hz_rows = check_agreement("b^0 coefficients", "table", b_free, "Harer-Zagier", one_vertex)
    at_one = {key: poly.eval(1) for key, poly in table.items() if len(key.mu) == 1}
    goe_rows = check_agreement(
        "b=1 values", "table", at_one, "Ledoux's GOE recursion", ledoux_rows(table.max_n)
    )
    planar = slicing_rows(table.max_n)
    slicings = check_agreement(
        "planar rows",
        "table",
        {key: poly for key, poly in table.items() if key in planar},
        "Tutte's slicings formula",
        {key: UniPoly("b", [count]) for key, count in planar.items()},
    )
    return (
        f"the recursion equals the Jack route row for row at alpha = 1..{reach + 1} "
        f"(b-degree <= {reach}) through n={reach}; "
        f"the alpha <-> 1/alpha duality on {len(table)} rows, the "
        f"column sums, {hz_rows} Harer-Zagier rows, {goe_rows} GOE rows (Ledoux) "
        f"and {slicings} slicing rows "
        f"hold to n={table.max_n}"
    )


def _check_polygon_gluings(max_edges: int) -> str:
    census2 = glue_census(2)
    census4 = glue_census(4, collect_patterns=True)
    lifts = {sides: double_cover_lift_check(*sides) for sides in ((2,), (4,), (2, 2), (4, 2))}
    found = {
        "2-gon": (census2.raw_count, census2.by_chi),
        "square": (census4.raw_count, census4.connected_count, census4.by_chi),
        "square, valences >= 3": census4.by_chi_filtered,
        "square words, valences >= 3": {
            key: sorted(words) for key, words in census4.patterns_filtered.items()
        },
        "nonorientable 2-gon and square gluings": (lifts[(2,)], lifts[(4,)]),
    }
    tabulated = {
        "2-gon": (2, {(2, True): 1, (1, False): 1}),
        "square": (12, 12, {(2, True): 2, (1, False): 5, (0, False): 4, (0, True): 1}),
        "square, valences >= 3": {(0, False): 4, (0, True): 1},
        "square words, valences >= 3": {
            (0, False): ["a a b b", "a b a b^-1", "a b a^-1 b", "a b b a"],
            (0, True): ["a b a^-1 b^-1"],
        },
        "nonorientable 2-gon and square gluings": (1, 9),
    }
    check_agreement("polygon censuses", "census", found, "tabulated", tabulated)
    for chi, orientable in census4.by_chi:
        _require(
            not (orientable and chi % 2),
            f"orientable class with odd Euler characteristic {chi}",
        )
    _require(lifts[(2, 2)] > 0 and lifts[(4, 2)] > 0, "no two-polygon lift cases ran")
    total = sum(lifts.values())
    return f"censuses match and {total} double-cover lift cases passed"


def _check_oracle_agreement(max_edges: int) -> str:
    table = map_count_table(max_edges)
    found = []
    for b, census, model, limit in (
        (0, rooted_orientable_counts, "orientable", MAX_ORIENTABLE_EDGES),
        (1, rooted_locally_orientable_counts, "all-surfaces", MAX_LOCALLY_ORIENTABLE_EDGES),
    ):
        reach = min(max_edges, limit)
        counts = {key: c for n in range(1, reach + 1) for key, c in census(n).items()}
        at_b = {key: poly.eval(b) for key, poly in table.items() if key.n <= reach}
        rows = check_agreement(f"b={b} map counts", "table", at_b, f"{model} oracle", counts)
        found.append(f"b={b} agrees with the {model} oracle on {rows} rows through n={reach}")
    return ", ".join(found)


def _check_census_lambda(max_edges: int) -> str:
    triple = lambda_from_census(1, 1)
    return (
        f"Lambda(1,1) = {triple.total}, orientable part {triple.orientable}, "
        "all routes agree"
    )


def _check_xi_routes(max_edges: int) -> str:
    for g in range(1, 21):
        for s in range(1, 21):
            xi = xi_from_logW(g, s)  # raises unless it equals the closed form
            expected_degree = g if g % 2 == 0 else g + 1
            _require(
                xi.degree == expected_degree,
                f"xi({g},{s}) has degree {xi.degree}, expected {expected_degree}",
            )
            _require(
                xi == alpha_dual(xi, g + 1),
                f"xi({g},{s}) breaks the alpha <-> 1/alpha duality at k = {g + 1}",
            )
    expected_11 = UniPoly(INV_GAMMA, (Fraction(1, 12), Fraction(-1, 4), Fraction(1, 12)))
    check_agreement("xi(1,1)", "closed form", xi_closed(1, 1), "tabulated", expected_11)
    return (
        "closed and series routes agree and are alpha <-> 1/alpha dual "
        "for g <= 20, s <= 20"
    )


def _check_xi_map_route(max_edges: int) -> str:
    if max_edges < 3:
        raise SkipCheck(
            f"insufficient truncation: the map-sum route needs map counts "
            f"through n=3, max_edges={max_edges}"
        )
    table = map_count_table(max_edges)
    pairs = [
        (g, s)
        for g in range(1, table.max_n // 3 + 1)
        for s in range(1, table.max_n // 3 + 1)
        if lambda_edges(g, s)[-1] <= table.max_n
    ]
    for g, s in pairs:
        xi_from_maps(g, s, table)  # raises on mismatch with the closed form
    done = ", ".join(f"({g},{s})" for g, s in pairs)
    return f"map-sum route matches the closed form at {done}"


def _check_chi_identities(max_edges: int) -> str:
    for g in range(1, 11):
        for s in range(1, 5):
            lambda_values(g, s)  # raises unless chi_real and the complex formula match
    pins = {(2, 1, 1, True): Fraction(1, 12), (3, 1, 1, False): Fraction(1, 3)}
    fixed = {key: chi_fixed_curves(*key) for key in pins}  # key: (g, s, m, separating)
    check_agreement("chi with one fixed curve", "chi_fixed_curves", fixed, "tabulated", pins)
    specials = {(g, s): chi_real(g, s) for g, s in [(1, 0), *((0, s) for s in range(6))]}
    tabulated = {(1, 0): Fraction(1, 2), (0, 0): 1, (0, 1): 1}  # (0, s >= 2) read as 0
    check_agreement("chi_real at special indices", "chi_real", specials, "tabulated", tabulated)
    try:
        chi_fixed_curves(2, 1, 2, separating=True)
        raise CheckFailure("odd g-m+1 must raise ParityError")
    except ParityError:
        pass
    return "real, complex and fixed-curve identities hold for g <= 10, s <= 4"


def _check_nonnegativity(max_edges: int) -> str:
    table = map_count_table(max_edges)
    violations = nonneg_report(table)
    if violations:
        key, (degree, coefficient) = next(iter(violations.items()))
        raise CheckFailure(
            f"{len(violations)} rows have a negative coefficient, first at "
            f"{key}: degree {degree} coefficient {coefficient}"
        )
    return f"all {len(table)} rows have nonnegative coefficients"


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

#: Every check, in the order ``verify-all`` runs and reports them.  Each takes
#: the series truncation ``max_edges``; checks that never read the map-count
#: table ignore it.
CHECKS: tuple[tuple[str, Callable[[int], str]], ...] = (
    ("exact-arith", _check_exact_arith),
    ("partitions", _check_partitions),
    ("jack-conditions", _check_jack_conditions),
    ("cauchy-kernel", _check_cauchy_kernel),
    ("reference-counts", _check_reference_counts),
    ("series-invariants", _check_series_invariants),
    ("rooted-oracle-agreement", _check_oracle_agreement),
    ("polygon-gluings", _check_polygon_gluings),
    ("census-lambda", _check_census_lambda),
    ("xi-routes", _check_xi_routes),
    ("xi-map-route", _check_xi_map_route),
    ("chi-identities", _check_chi_identities),
    ("nonnegativity", _check_nonnegativity),
)


def run_check(name: str, check: Callable[[int], str], max_edges: int) -> CheckResult:
    """Run one check, turning its outcome into a pass, skip or fail result."""
    start = time.perf_counter()
    try:
        detail = check(max_edges)
        status = "pass"
    except SkipCheck as skip:
        detail = str(skip)
        status = "skip"
    except Exception as exc:  # collect, never abort the suite
        detail = f"{type(exc).__name__}: {exc}"
        status = "fail"
    return CheckResult(
        name=name,
        status=status,
        seconds=time.perf_counter() - start,
        detail=detail,
    )


def run_verify(
    max_edges: int = 3,
    on_result: Callable[[CheckResult], None] | None = None,
) -> VerifyReport:
    """Run every check in `CHECKS` and collect the outcomes.

    ``max_edges`` bounds the series truncation used by the map-count checks;
    checks that need more than it provide are reported as skipped, not
    failed.  A truncation below 1 raises ValueError, and one above
    `MAX_EDGE_TRUNCATION` raises `TruncationError`, before any check runs.
    ``on_result`` is invoked with each `CheckResult` as it lands, so
    callers can stream progress.
    """
    check_truncation(max_edges, MAX_EDGE_TRUNCATION, "verify-all")
    report = VerifyReport()
    for name, check in CHECKS:
        result = run_check(name, check, max_edges)
        report.results.append(result)
        if on_result is not None:
            on_result(result)
    return report
