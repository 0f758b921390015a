"""A fixed pure-Python computation that the benchmark times next to mapchi.

    python3 reference_load.py

It does exact polynomial arithmetic over ``Fraction`` (products and
Euclid's gcd), the same kind of work as mapchi's ``arith`` layer, but uses
nothing from the package, so no change to mapchi changes its cost.  Its
wall time tracks how fast the shared machine runs Python at that moment,
and ``run.py`` divides mapchi's times by it.  The last line of stdout is a
checksum that ``run.py`` compares with ``CHECKSUM``.
"""

from __future__ import annotations

from fractions import Fraction

#: Rounds of the computation, and the checksum they print.
ROUNDS = 400
CHECKSUM = 863880


def trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = trim(list(a))
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, y in enumerate(b):
            a[i + k] -= c * y
        a = trim(a[:-1])
    return a


def monic_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, rem(a, b)
    return [c / a[-1] for c in a]


def checksum(rounds: int) -> int:
    total = Fraction(0)
    for k in range(1, rounds):
        p = [Fraction(k * i + 1, i + 2) for i in range(6)]
        q = [Fraction(i - k, 2 * i + 3) for i in range(1, 6)]
        r = [Fraction(k + i, i + 1) for i in range(3)]
        g = monic_gcd(mul(p, r), mul(q, r))
        total += sum(g) + sum(mul(p, q))
    return total.numerator % 1000003


if __name__ == "__main__":
    print(checksum(ROUNDS))
