"""The self-verification suite behind the ``verify-all`` command.

Each check re-derives a slice of the package's output by an independent
route and fails loudly on any disagreement.  Results are collected rather
than raised so a single run reports every broken invariant.  Exit-code
policy: 0 when everything passes, 3 when the only failures are violations
of the (conjectural) coefficient-nonnegativity report, 2 otherwise.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import EXIT_CONJECTURE, EXIT_FAILURE, EXIT_OK, arith
from .arith import (
    AlphaFn,
    TruncatedSeries,
    UniPoly,
    VariableMixError,
    bernoulli,
    sum_of_powers_poly,
)
from .eulerchar import (
    ParityError,
    RouteMismatchError,
    chi_complex,
    chi_fixed_curves,
    chi_real,
    chi_real_from_lambda,
    gamma_poly,
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
from .mapseries import (
    JACK_ROUTE_MAX_EDGES,
    MAX_EDGE_TRUNCATION,
    MapKey,
    check_truncation,
    extract_map_counts,
    map_count_table,
    map_series,
    nonneg_report,
)
from .partitions import (
    Partition,
    partition_from_distribution,
    partitions_of,
    vertex_distribution_of,
    z_of,
)
from .symfunc import cauchy_check, expand_in_variables, inner_product, jack

#: Checks whose failure signals a violated conjecture, not a broken package;
#: when only these fail, the run exits with `EXIT_CONJECTURE`.  Refined-count
#: nonnegativity is conjectural.  Every coefficient of the b-Tutte cumulants
#: (`btutte`) is nonnegative in b, so only the division by (1 + b)^(l(mu) - 1)
#: in `mapseries.counts_from_cumulant` stands between the recursion and
#: manifest positivity.
CONJECTURE_CHECKS = frozenset({"nonnegativity"})

#: Refined map-count polynomials through 3 edges, keyed by
#: (vertex distribution, faces, edges) with b-coefficients by degree.
#: Independently tabulated; the b = 0 and b = 1 column sums reproduce the
#: classical rooted-map counts in `ROOTED_TOTALS_ORIENTABLE` and
#: `ROOTED_TOTALS_ALL`.
REFERENCE_COUNTS: dict[MapKey, tuple[int, ...]] = {
    MapKey((2,), 1, 1): (1,),
    MapKey((0, 1), 1, 1): (0, 1),
    MapKey((0, 1), 2, 1): (1,),
    MapKey((2, 1), 1, 2): (2,),
    MapKey((0, 2), 1, 2): (0, 1),
    MapKey((1, 0, 1), 1, 2): (0, 4),
    MapKey((0, 0, 0, 1), 1, 2): (1, 1, 3),
    MapKey((0, 2), 2, 2): (1,),
    MapKey((1, 0, 1), 2, 2): (4,),
    MapKey((0, 0, 0, 1), 2, 2): (0, 5),
    MapKey((0, 0, 0, 1), 3, 2): (2,),
    MapKey((2, 2), 1, 3): (3,),
    MapKey((0, 3), 1, 3): (0, 1),
    MapKey((3, 0, 1), 1, 3): (2,),
    MapKey((1, 1, 1), 1, 3): (0, 12),
    MapKey((0, 0, 2), 1, 3): (1, 1, 5),
    MapKey((2, 0, 0, 1), 1, 3): (0, 9),
    MapKey((0, 1, 0, 1), 1, 3): (3, 3, 9),
    MapKey((1, 0, 0, 0, 1), 1, 3): (6, 6, 18),
    MapKey((0, 0, 0, 0, 0, 1), 1, 3): (0, 13, 13, 15),
    MapKey((0, 3), 2, 3): (1,),
    MapKey((1, 1, 1), 2, 3): (12,),
    MapKey((0, 0, 2), 2, 3): (0, 9),
    MapKey((2, 0, 0, 1), 2, 3): (9,),
    MapKey((0, 1, 0, 1), 2, 3): (0, 15),
    MapKey((1, 0, 0, 0, 1), 2, 3): (0, 30),
    MapKey((0, 0, 0, 0, 0, 1), 2, 3): (10, 10, 32),
    MapKey((0, 0, 2), 3, 3): (4,),
    MapKey((0, 1, 0, 1), 3, 3): (6,),
    MapKey((1, 0, 0, 0, 1), 3, 3): (12,),
    MapKey((0, 0, 0, 0, 0, 1), 3, 3): (0, 22),
    MapKey((0, 0, 0, 0, 0, 1), 4, 3): (5,),
}

#: Classical numbers of rooted maps with n edges, keyed by n: orientable
#: (b = 0; OEIS A000698) through the largest truncation, and on all
#: surfaces (b = 1) through 6 edges.  At n = 6 the matching census of
#: `maporacle` agreed in a one-off run past its limit (about 20 s on 2
#: vCPUs); n >= 7 comes from the recursion alone, so it is not recorded.
ROOTED_TOTALS_ORIENTABLE = {
    1: 2,
    2: 10,
    3: 74,
    4: 706,
    5: 8162,
    6: 110410,
    7: 1708394,
    8: 29752066,
    9: 576037442,
    10: 12277827850,
}
ROOTED_TOTALS_ALL = {1: 3, 2: 24, 3: 297, 4: 4896, 5: 100278, 6: 2450304}

#: Heaviest Jack functions `jack-conditions` checks: weight 10 takes about
#: 11 s on 2 vCPUs, and each further weight costs several times as much.
JACK_CHECK_MAX_WEIGHT = 10


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

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


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
    for j, value in frozen.items():
        _require(bernoulli(j) == value, f"B_{j} = {bernoulli(j)}, expected {value}")
    # Re-run the defining recurrence over every cached value, so that any
    # corruption of the cache is caught regardless of where it sits.
    bernoulli(max(len(arith._bernoulli_cache) - 1, 16))
    cached = list(arith._bernoulli_cache)
    for m in range(1, len(cached)):
        acc = sum(math.comb(m + 1, k) * cached[k] for k in range(m + 1))
        _require(acc == 0, f"Bernoulli recurrence fails at index {m}")
        if m >= 3 and m % 2:
            _require(not cached[m], f"odd Bernoulli number B_{m} is nonzero")

    for k in range(5):
        poly = sum_of_powers_poly(k)
        for upper in range(9):
            direct = sum(Fraction(j) ** k for j in range(1, upper + 1))
            _require(
                poly.eval(Fraction(upper)) == direct,
                f"sum-of-powers polynomial wrong at k={k}, N={upper}",
            )

    # Truncated series: log turns products into sums, and the Euler
    # operator satisfies f * (z d/dz log f) = z d/dz f.
    f = TruncatedSeries("z", [Fraction(c) for c in (1, 1, 2, 3, 0, 1)], 6)
    g = TruncatedSeries("z", [Fraction(c) for c in (1, -1, 1)], 6)
    _require((f * g).log() == f.log() + g.log(), "series log is not additive")
    _require(f * f.log().z_ddz() == f.z_ddz(), "series log derivative identity fails")

    alpha = AlphaFn.alpha()
    _require(
        AlphaFn(UniPoly(arith.ALPHA, (-1, 0, 1)), UniPoly(arith.ALPHA, (-1, 1)))
        == alpha + 1,
        "AlphaFn cancellation (alpha^2-1)/(alpha-1) failed",
    )
    _require(AlphaFn.alpha(-2) * AlphaFn.alpha(3) == alpha, "alpha power law failed")
    _require((alpha + 1) * (alpha + 1).inv() == 1, "AlphaFn inverse failed")
    b = UniPoly.gen("b")
    _require((1 + b) ** 3 == UniPoly("b", (1, 3, 3, 1)), "UniPoly power failed")
    try:
        b + UniPoly.gen("x")
        raise CheckFailure("mixing variable tags did not raise")
    except VariableMixError:
        pass
    return f"Bernoulli cache validated through B_{len(cached) - 1}"


def _check_partitions(max_edges: int) -> str:
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, expected in enumerate(known):
        _require(
            len(partitions_of(n)) == expected,
            f"p({n}) = {len(partitions_of(n))}, expected {expected}",
        )
    for n in range(1, 10):
        mus = partitions_of(n)
        _require(mus[0] == (n,) and mus[-1] == (1,) * n, f"ordering broken at n={n}")
        for a, b in zip(mus, mus[1:]):
            _require(b.parts < a.parts, f"not strictly reverse-lex at n={n}")
        class_sizes = sum(Fraction(math.factorial(n), z_of(mu)) for mu in mus)
        _require(
            class_sizes == math.factorial(n),
            f"conjugacy classes of S_{n} do not fill the group",
        )
        for mu in mus:
            _require(
                partition_from_distribution(vertex_distribution_of(mu)) == mu,
                f"distribution round-trip failed for {mu!r}",
            )
    return f"counts, order and statistics agree through n={len(known) - 1}"


def _monomial_orbit_size(mu: Partition, nvars: int) -> int:
    """Number of distinct monomials with exponent multiset mu in nvars variables."""
    if mu.length > nvars:
        return 0
    denom = math.factorial(nvars - mu.length)
    for mult in mu.multiplicities().values():
        denom *= math.factorial(mult)
    return math.factorial(nvars) // denom


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
        _require(got == coeffs, f"J_{shape} = {rec.expansion!r}, expected {coeffs}")

    # The Jack route at max_edges reads every shape of weight 2 * max_edges.
    top = min(max(6, 2 * max_edges), JACK_CHECK_MAX_WEIGHT)
    for weight in range(1, top + 1):
        shapes = partitions_of(weight)
        records = [jack(theta) for theta in shapes]
        for idx, rec in enumerate(records):
            mono = expand_in_variables(rec.expansion)
            for mu in mono:
                _require(
                    mu.rlex_le(rec.shape),
                    f"J_{rec.shape.parts} has monomial support above it: {mu.parts}",
                )
            bottom = Partition((1,) * weight)
            _require(
                mono.get(bottom) == math.factorial(weight),
                f"[m_(1^{weight})] J_{rec.shape.parts} != {weight}!",
            )
            _require(
                inner_product(rec.expansion, rec.expansion) == rec.norm,
                f"stored norm of J_{rec.shape.parts} is stale",
            )
            _require(bool(rec.norm), f"J_{rec.shape.parts} has zero norm")
            # Principal specialization p_k -> x against the monomial
            # expansion: at x = N both evaluate J at N equal variables.
            for nvars in range(1, 5):
                viamono = sum(
                    (c * _monomial_orbit_size(mu, nvars) for mu, c in mono.items()),
                    UniPoly.zero(arith.ALPHA),
                )
                _require(
                    rec.principal.eval(Fraction(nvars)) == viamono,
                    f"principal specialization of J_{rec.shape.parts} wrong at "
                    f"N={nvars}",
                )
            for other in records[:idx]:
                pairing = inner_product(rec.expansion, other.expansion)
                _require(
                    not pairing,
                    f"<J_{rec.shape.parts}, J_{other.shape.parts}> = {pairing!r}",
                )
                # The same orthogonality again, numerically at alpha = 1.
                numeric = sum(
                    (
                        c.eval(1)
                        * other.expansion.terms[mu].eval(1)
                        * z_of(mu)
                        for mu, c in rec.expansion.terms.items()
                        if mu in other.expansion.terms
                    ),
                    Fraction(0),
                )
                _require(
                    numeric == 0,
                    f"alpha=1 orthogonality fails for {rec.shape.parts}, "
                    f"{other.shape.parts}",
                )
        if weight % 2:
            for rec in records:
                _require(
                    not rec.p2coeff,
                    f"odd weight {weight} has a pure-2 coefficient",
                )
    return f"defining conditions hold for all shapes of weight <= {top}"


def _check_cauchy_kernel(max_edges: int) -> str:
    for degree in range(5):
        report = cauchy_check(degree)
        if not report.ok:
            mu, nu, lhs, rhs = report.mismatch
            raise CheckFailure(
                f"Cauchy kernel mismatch at degree {degree}, monomials "
                f"{mu.parts} x {nu.parts}: kernel {lhs}, Jack side {rhs}"
            )
    return "kernel equals the Jack expansion through degree 4 in 4 variables"


def _check_reference_counts(max_edges: int) -> str:
    limit = min(max_edges, max(key.n for key in REFERENCE_COUNTS))
    table = map_count_table(limit)
    expected = {k: v for k, v in REFERENCE_COUNTS.items() if k.n <= limit}
    got = {key: poly.coeffs for key, poly in table.entries.items() if key.n <= limit}
    for key in sorted(set(expected) | set(got)):
        _require(
            got.get(key) == expected.get(key),
            f"row {key}: computed {got.get(key)}, reference {expected.get(key)}",
        )
    return f"{len(expected)} tabulated rows reproduced exactly"


def _check_series_invariants(max_edges: int) -> str:
    table = map_count_table(min(max_edges, MAX_EDGE_TRUNCATION))
    reach = min(max_edges, JACK_ROUTE_MAX_EDGES)
    jack_rows = extract_map_counts(map_series(reach)).entries
    for key in sorted({key for key in table.entries if key.n <= reach} | set(jack_rows)):
        got, want = table.entries.get(key), jack_rows.get(key)
        _require(got == want, f"row {key}: recursion {got!r}, Jack route {want!r}")
    sums_orientable: dict[int, Fraction] = {}
    sums_all: dict[int, Fraction] = {}
    for key, poly in table.entries.items():
        chi = key.euler_characteristic
        _require(chi <= 2, f"{key} exceeds the Euler bound")
        _require(
            poly.degree <= 2 - chi,
            f"{key} has b-degree {poly.degree} above the crosscap bound {2 - chi}",
        )
        if chi == 2:
            _require(poly.degree == 0, f"sphere row {key} is not b-free")
        if chi % 2:
            _require(
                not poly.coeff(0),
                f"odd Euler characteristic {key} reports orientable maps",
            )
        sums_orientable[key.n] = sums_orientable.get(key.n, Fraction(0)) + poly.eval(
            Fraction(0)
        )
        sums_all[key.n] = sums_all.get(key.n, Fraction(0)) + poly.eval(Fraction(1))
    for n, total in ROOTED_TOTALS_ORIENTABLE.items():
        if n <= table.max_n:
            _require(
                sums_orientable[n] == total,
                f"b=0 column sum at n={n} is {sums_orientable[n]}, expected {total}",
            )
    for n, total in ROOTED_TOTALS_ALL.items():
        if n <= table.max_n:
            _require(
                sums_all[n] == total,
                f"b=1 column sum at n={n} is {sums_all[n]}, expected {total}",
            )
    return (
        f"the recursion equals the Jack route row for row through n={reach}; "
        f"Euler, crosscap, parity and column-sum invariants hold to n={table.max_n}"
    )


def _check_polygon_gluings(max_edges: int) -> str:
    census2 = glue_census(2)
    _require(census2.raw_count == 2, "a 2-gon has exactly two self-gluings")
    _require(
        census2.by_chi == {(2, True): 1, (1, False): 1},
        f"2-gon census came out as {census2.by_chi}",
    )

    census4 = glue_census(4, collect_patterns=True)
    _require(census4.raw_count == 12, f"square raw count {census4.raw_count} != 12")
    _require(census4.connected_count == 12, "single-polygon gluings are connected")
    _require(
        census4.by_chi == {(2, True): 2, (1, False): 5, (0, False): 4, (0, True): 1},
        f"square census came out as {census4.by_chi}",
    )
    _require(
        census4.by_chi_filtered == {(0, False): 4, (0, True): 1},
        f"filtered square census came out as {census4.by_chi_filtered}",
    )
    _require(census4.lambda_nonorientable(1) == 4, "Klein-bottle gluing count != 4")
    klein = sorted(census4.patterns_filtered[(0, False)])
    _require(
        klein == ["a a b b", "a b a b^-1", "a b a^-1 b", "a b b a"],
        f"Klein-bottle boundary words came out as {klein}",
    )
    _require(
        census4.patterns_filtered[(0, True)] == ["a b a^-1 b^-1"],
        "the torus word should be the commutator",
    )
    for (chi, orientable), _count in census4.by_chi.items():
        _require(
            not (orientable and chi % 2),
            f"orientable class with odd Euler characteristic {chi}",
        )

    lifts = {
        (2,): double_cover_lift_check(2),
        (4,): double_cover_lift_check(4),
        (2, 2): double_cover_lift_check(2, 2),
        (4, 2): double_cover_lift_check(4, 2),
    }
    _require(lifts[(2,)] == 1, "the 2-gon has one nonorientable gluing")
    _require(lifts[(4,)] == 9, "the square has nine nonorientable gluings")
    _require(lifts[(2, 2)] > 0 and lifts[(4, 2)] > 0, "no two-polygon lift cases ran")
    total = sum(lifts.values())
    return f"censuses match and {total} double-cover lift cases passed"


def _check_oracle_agreement(max_edges: int) -> str:
    table = map_count_table(min(max_edges, MAX_EDGE_TRUNCATION))
    found = []
    for b, census, model, limit in (
        (0, rooted_orientable_counts, "permutation", MAX_ORIENTABLE_EDGES),
        (1, rooted_locally_orientable_counts, "matching", MAX_LOCALLY_ORIENTABLE_EDGES),
    ):
        reach = min(max_edges, limit)
        counts = {key: c for n in range(1, reach + 1) for key, c in census(n).items()}
        rows = sorted({key for key in table.entries if key.n <= reach} | set(counts))
        for key in rows:
            got = table.entries[key].eval(Fraction(b)) if key in table.entries else 0
            _require(
                got == counts.get(key, 0),
                f"b={b} disagrees with the {model} oracle at {key}: "
                f"{got} vs {counts.get(key, 0)}",
            )
        found.append(f"b={b} agrees with the {model} oracle on {len(rows)} rows through n={reach}")
    return ", ".join(found)


def _check_census_lambda(max_edges: int) -> str:
    triple = lambda_from_census(1, 1)
    return (
        f"Lambda(1,1) = {triple.total}, orientable part {triple.orientable}, "
        "all routes agree"
    )


def _check_xi_routes(max_edges: int) -> str:
    for g in range(1, 7):
        for s in range(1, 5):
            closed = xi_closed(g, s)
            series = xi_from_logW(g, s)
            _require(
                closed == series,
                f"xi({g},{s}): closed form {closed!r} vs series {series!r}",
            )
            expected_degree = g if g % 2 == 0 else g + 1
            _require(
                closed.degree == expected_degree,
                f"xi({g},{s}) has degree {closed.degree}, expected {expected_degree}",
            )
            if g % 2 == 0:
                _require(not closed.coeff(0), f"xi({g},{s}) has a constant term")
    expected_11 = gamma_poly((Fraction(1, 12), Fraction(-1, 4), Fraction(1, 12)))
    _require(
        xi_closed(1, 1) == expected_11,
        f"xi(1,1) = {xi_closed(1, 1)!r}, expected {expected_11!r}",
    )
    return "closed and series routes agree for g <= 6, s <= 4"


def _check_xi_map_route(max_edges: int) -> str:
    if max_edges < 3:
        raise SkipCheck(
            f"insufficient truncation: the map-sum route needs map counts "
            f"through n=3, max_edges={max_edges}"
        )
    table = map_count_table(min(max_edges, MAX_EDGE_TRUNCATION))
    pairs = [
        (g, s)
        for g in range(1, table.max_n // 3 + 1)
        for s in range(1, table.max_n // 3 + 1)
        if 3 * g + 3 * s - 3 <= table.max_n
    ]
    for g, s in pairs:
        xi_from_maps(g, s, table)  # raises on mismatch with the closed form
    done = ", ".join(f"({g},{s})" for g, s in pairs)
    return f"map-sum route matches the closed form at {done}"


def _check_chi_identities(max_edges: int) -> str:
    for g in range(1, 11):
        for s in range(1, 5):
            chi_real_from_lambda(g, s)  # raises unless 2^{s-1} Lambda^N matches
            chi_complex(g, s)  # raises unless the formula matches xi(1), 0 for even g
            if g % 2:
                _require(
                    chi_fixed_curves(g, s, 0, separating=True).value
                    == chi_complex(g, s).value,
                    f"m=0 separating reduction fails at ({g},{s})",
                )
            _require(
                chi_fixed_curves(g, s, 0, separating=False).value
                == chi_real(g, s).value,
                f"m=0 non-separating reduction fails at ({g},{s})",
            )
    _require(
        chi_fixed_curves(2, 1, 1, separating=True).value == Fraction(1, 12),
        "chi for one separating fixed curve at g=2 is 1/12",
    )
    _require(chi_real(1, 0).value == Fraction(1, 2), "chi_real(1,0) must be 1/2")
    _require(
        chi_real(0, 0).value == chi_real(0, 1).value == 1,
        "chi_real(0,0) and chi_real(0,1) must be 1",
    )
    for s in range(2, 6):
        _require(not chi_real(0, s).value, f"chi_real(0,{s}) must vanish")
    try:
        chi_fixed_curves(2, 1, 2, separating=True)
        raise CheckFailure("odd g-m+1 must raise ParityError")
    except ParityError:
        pass
    return "real, complex and fixed-curve identities hold for g <= 10, s <= 4"


def _check_nonnegativity(max_edges: int) -> str:
    table = map_count_table(min(max_edges, MAX_EDGE_TRUNCATION))
    violations = nonneg_report(table)
    if violations:
        first = violations[0]
        raise CheckFailure(
            f"{len(violations)} rows have a negative coefficient, first at "
            f"{first.key}: degree {first.degree} coefficient {first.coefficient}"
        )
    return f"all {len(table.entries)} rows have nonnegative coefficients"


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
    failed.  A truncation outside ``1..MAX_EDGE_TRUNCATION`` raises
    ValueError before any check runs.  ``on_result`` is invoked with each
    `CheckResult` as it lands, so callers can stream progress.
    """
    check_truncation(max_edges)
    report = VerifyReport()
    for name, check in CHECKS:
        result = run_check(name, check, max_edges)
        report.results.append(result)
        if on_result is not None:
            on_result(result)
    return report
