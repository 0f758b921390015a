"""Self-verification harness: check order, streaming, exit-code policy."""

from __future__ import annotations

import math

from mapchi import symfunc, verify
from mapchi.arith import ALPHA, UniPoly
from mapchi.btutte import MapCountTable, map_count_table
from mapchi.eulerchar import INV_GAMMA
from mapchi.partitions import MapKey, Partition
from mapchi.verify import (
    EXIT_CONJECTURE,
    EXIT_FAILURE,
    EXIT_OK,
    CheckResult,
    VerifyReport,
    run_check,
    run_verify,
)

EXPECTED_ORDER = [
    "exact-arith",
    "partitions",
    "jack-conditions",
    "cauchy-kernel",
    "reference-counts",
    "series-invariants",
    "rooted-oracle-agreement",
    "polygon-gluings",
    "census-lambda",
    "xi-routes",
    "xi-map-route",
    "chi-identities",
    "nonnegativity",
]


def test_run_verify_passes_at_reduced_truncation():
    streamed: list[str] = []
    report = run_verify(max_edges=2, on_result=lambda r: streamed.append(r.name))
    assert [r.name for r in report.results] == EXPECTED_ORDER
    assert streamed == EXPECTED_ORDER
    by_name = {r.name: r for r in report.results}
    assert by_name["xi-map-route"].status == "skip"
    assert "insufficient truncation" in by_name["xi-map-route"].detail
    assert all(
        r.status == "pass" for r in report.results if r.name != "xi-map-route"
    )
    assert report.exit_code == EXIT_OK
    assert all(r.seconds >= 0 for r in report.results)


def _result(name: str, status: str) -> CheckResult:
    return CheckResult(name=name, status=status, seconds=0.0)


def test_exit_code_policy():
    assert VerifyReport([_result("exact-arith", "pass")]).exit_code == EXIT_OK
    assert (
        VerifyReport(
            [_result("exact-arith", "pass"), _result("xi-routes", "fail")]
        ).exit_code
        == EXIT_FAILURE
    )
    # A failed conjecture alone is reported with its own exit code.
    assert (
        VerifyReport(
            [_result("exact-arith", "pass"), _result("nonnegativity", "fail")]
        ).exit_code
        == EXIT_CONJECTURE
    )
    assert (
        VerifyReport(
            [_result("nonnegativity", "fail"), _result("partitions", "fail")]
        ).exit_code
        == EXIT_FAILURE
    )
    assert VerifyReport([_result("xi-map-route", "skip")]).exit_code == EXIT_OK


def test_a_corrupted_table_row_fails_every_check_that_reads_it(monkeypatch):
    """Raising one small row's b^0 coefficient by one is caught by the
    reference table, the Jack route and the orientable census alike."""
    table = map_count_table(4)
    key = MapKey((3, 3), 1)
    entries = dict(table)
    entries[key] = entries[key] + 1
    monkeypatch.setattr(verify, "map_count_table", lambda n: MapCountTable(entries, table.max_n))
    checks = dict(verify.CHECKS)
    for name in ("reference-counts", "series-invariants", "rooted-oracle-agreement"):
        result = run_check(name, checks[name], 4)
        assert result.status == "fail", name
        assert result.detail.startswith("RouteMismatchError: "), result.detail
        assert f" at {key}: " in result.detail, result.detail


def test_jack_rows_are_the_table_rows_at_b_alpha_minus_1():
    """At alpha = 1..4 the Jack series gives every nonzero 3-edge row at b = alpha - 1, as an int."""
    table = map_count_table(3)
    for alpha in range(1, 5):
        rows = verify.jack_rows(alpha, 3)
        expected = {key: value for key, poly in table.items() if (value := poly.eval(alpha - 1))}
        assert rows == expected, alpha
        assert all(type(value) is int for value in rows.values()), alpha


def test_a_written_table_leaves_the_next_callers_rows_as_built():
    """Each call returns a table of its own: writing into one changes no other."""
    key = MapKey((1, 1), 1)
    mine = map_count_table(3)
    mine[key] = 0
    assert map_count_table(3)[key] == UniPoly("b", (1,))
    result = run_check("reference-counts", dict(verify.CHECKS)["reference-counts"], 3)
    assert result.status == "pass", result.detail


def test_a_deviation_that_vanishes_at_b0_and_b1_fails_the_jack_route(monkeypatch):
    """2b^4 - b^3 - b^2 is 0 at b = 0 and b = 1, alpha <-> 1/alpha dual at
    k = 4 and keeps the 4-edge octagon row nonnegative: only the Jack route's
    points past b = 1 see it."""
    table = map_count_table(4)
    key = MapKey((8,), 1)
    entries = dict(table)
    entries[key] = entries[key] + UniPoly("b", (0, 0, -1, -1, 2))
    monkeypatch.setattr(verify, "map_count_table", lambda n: MapCountTable(entries, table.max_n))
    checks = dict(verify.CHECKS)
    for name in ("reference-counts", "rooted-oracle-agreement", "xi-map-route", "nonnegativity"):
        assert run_check(name, checks[name], 4).status == "pass", name
    result = run_check("series-invariants", checks["series-invariants"], 4)
    assert result.status == "fail"
    assert result.detail.startswith(
        f"RouteMismatchError: map counts at b=2 at {key}: "
    ), result.detail


def test_a_perturbed_jack_record_fails_the_jack_route(monkeypatch):
    """Adding alpha to [p_(2,2)] J_(2,2) shifts the 2-edge rows of valences
    (2, 2); the first it reaches at b = 0 has two faces."""
    theta = Partition((2, 2))
    rec = symfunc.jack(theta)
    terms = dict(rec.expansion.terms)
    terms[theta] = terms[theta] + UniPoly.gen(ALPHA)
    monkeypatch.setitem(
        symfunc._jack_cache, theta, rec._replace(expansion=symfunc.PowerSumExpr(terms))
    )
    result = run_check("series-invariants", dict(verify.CHECKS)["series-invariants"], 4)
    assert result.status == "fail"
    assert result.detail.startswith(
        "RouteMismatchError: map counts at b=0 at MapKey(mu=(2, 2), j=2): "
    ), result.detail


def test_a_row_corrupted_at_its_b0_and_b1_values_breaks_the_duality(monkeypatch):
    """Adding b - b^2 to a 6-edge row keeps its b = 0 and b = 1 values and
    its degree, so only the alpha <-> 1/alpha duality sees the change."""
    table = map_count_table(6)
    key = MapKey((6, 6), 1)
    entries = dict(table)
    entries[key] = entries[key] + UniPoly("b", (0, 1, -1))
    assert entries[key].degree == table[key].degree
    monkeypatch.setattr(verify, "map_count_table", lambda n: MapCountTable(entries, table.max_n))
    result = run_check("series-invariants", dict(verify.CHECKS)["series-invariants"], 6)
    assert result.status == "fail"
    assert result.detail.startswith("CheckFailure: "), result.detail
    assert f"{key} row " in result.detail, result.detail


def test_a_negative_row_fails_nonnegativity_naming_its_first_negative_coefficient(monkeypatch):
    table = map_count_table(3)
    key = MapKey((1, 1), 1)
    entries = {k: table[k] for k in table.keys_sorted()}
    entries[key] = -entries[key]
    monkeypatch.setattr(verify, "map_count_table", lambda n: MapCountTable(entries, table.max_n))
    result = run_check("nonnegativity", dict(verify.CHECKS)["nonnegativity"], 3)
    assert result.status == "fail"
    assert result.detail == (
        "CheckFailure: 1 rows have a negative coefficient, first at "
        "MapKey(mu=(1, 1), j=1): degree 0 coefficient -1"
    ), result.detail


def test_ledoux_rows_sum_to_the_one_by_one_goe_moment():
    """At N = 1, E x^(2n) for x of variance 2 is 2^n (2n - 1)!! = (2n)! / n!."""
    rows = verify.ledoux_rows(12)
    for n in range(1, 13):
        total = sum(value for key, value in rows.items() if key.mu == (2 * n,))
        assert total == math.factorial(2 * n) // math.factorial(n), n


def test_ledoux_recursion_catches_a_b2_term_that_every_other_check_passes(monkeypatch):
    """Adding b^2 to a 7-edge one-vertex row keeps its b = 0 value, its sign
    and its alpha <-> 1/alpha duality (genus k = 2 allows b^2), and 7 edges
    lie past both censuses and the Jack route: only its b = 1 value, which
    Ledoux's GOE recursion gives, sees the change."""
    table = map_count_table(7)
    key = MapKey((14,), 6)
    entries = dict(table)
    entries[key] = entries[key] + UniPoly("b", (0, 0, 1))
    monkeypatch.setattr(verify, "map_count_table", lambda n: MapCountTable(entries, table.max_n))
    checks = dict(verify.CHECKS)
    for name in ("reference-counts", "rooted-oracle-agreement", "xi-map-route", "nonnegativity"):
        assert run_check(name, checks[name], 7).status == "pass", name
    result = run_check("series-invariants", checks["series-invariants"], 7)
    assert result.status == "fail"
    assert result.detail == (
        f"RouteMismatchError: b=1 values at {key}: table 67425, Ledoux's GOE recursion 67424"
    ), result.detail


def test_xi_routes_catch_a_term_that_keeps_degree_and_constant(monkeypatch):
    """xi^1_2 + 1/gamma keeps degree 2 and no constant term, but is not
    its own alpha <-> 1/alpha dual at k = 3."""
    real = verify.xi_from_logW
    shift = UniPoly.gen(INV_GAMMA)
    monkeypatch.setattr(
        verify, "xi_from_logW", lambda g, s: real(g, s) + shift if (g, s) == (2, 1) else real(g, s)
    )
    result = run_check("xi-routes", dict(verify.CHECKS)["xi-routes"], 1)
    assert result.status == "fail"
    assert result.detail == (
        "CheckFailure: xi(2,1) breaks the alpha <-> 1/alpha duality at k = 3"
    ), result.detail


def test_jack_conditions_catch_a_principal_specialization_off_at_x_1_to_4(monkeypatch):
    """Adding (x-1)(x-2)(x-3)(x-4) to J_(3,3) with every p_k -> x keeps its
    values at x = 1..4, so only the whole polynomial identity sees it."""
    solved = verify.jack
    x = UniPoly.gen("x")
    bump = (x - 1) * (x - 2) * (x - 3) * (x - 4)

    def perturbed(shape):
        rec = solved(shape)
        if shape != (3, 3):
            return rec
        return rec._replace(principal=rec.principal + bump)

    monkeypatch.setattr(verify, "jack", perturbed)
    result = run_check("jack-conditions", dict(verify.CHECKS)["jack-conditions"], 3)
    assert result.status == "fail"
    assert result.detail.startswith("RouteMismatchError: J_(3, 3) "), result.detail
