"""Acceptance gate: every check of `mapchi.verify.CHECKS`, one test each.

The shipped claims are written down once, in the verify registry; this file
runs them, plus the two Euler-characteristic closed forms over g <= 10,
s <= 4, written out against the Bernoulli formulas.  `chi-identities`
checks the same grid through the chi functions.  Run with
`pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per check as
it happens.  The checks run at four edges, so the gate builds the 4-edge
table by the recursion and again by the Jack route (Jack weight 8), and
checks every Jack function through weight 8, about 3 s on 2 vCPUs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from mapchi.arith import bernoulli
from mapchi.eulerchar import chi_real, eval_at_gamma, xi_closed
from mapchi.verify import CHECKS, run_check

MAX_EDGES = 4


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_verify_check(name, check):
    result = run_check(name, check, MAX_EDGES)
    report(name, result.status == "pass", result.detail)


def test_criterion_4_real_moduli_closure():
    """2^{s-1}(xi(1/2) - xi(1)) reproduces the real-moduli Bernoulli formula."""
    ok = True
    for g in range(1, 11):
        for s in range(1, 5):
            xi = xi_closed(g, s)
            lhs = 2 ** (s - 1) * (
                eval_at_gamma(xi, Fraction(1, 2)) - eval_at_gamma(xi, Fraction(1))
            )
            rhs = (
                Fraction(-2) ** (s - 1)
                * (1 - 2 ** (g - 1))
                * Fraction(math.factorial(g + s - 2), math.factorial(g))
                * bernoulli(g)
            )
            ok = ok and lhs == rhs
    ok = ok and chi_real(1, 0) == Fraction(1, 2)
    ok = ok and chi_real(0, 0) == 1 and chi_real(0, 1) == 1
    ok = ok and all(chi_real(0, s) == 0 for s in range(2, 6))
    report(
        "criterion 4 (real moduli closure, g <= 10, s <= 4, plus specials)",
        ok,
    )


def test_criterion_5_orientable_specialization():
    """xi at gamma = 1 matches the complex-moduli Bernoulli values."""
    ok = True
    for s in range(1, 5):
        for g in range(1, 10, 2):
            expected = Fraction(
                (-1) ** s * math.factorial(g + s - 2),
                (g + 1) * math.factorial(g - 1),
            ) * bernoulli(g + 1)
            ok = ok and eval_at_gamma(xi_closed(g, s), Fraction(1)) == expected
        for g in range(2, 11, 2):
            ok = ok and eval_at_gamma(xi_closed(g, s), Fraction(1)) == 0
    report("criterion 5 (xi(1) values, odd g <= 9 and even g <= 10)", ok)
