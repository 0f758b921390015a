"""
Exact arithmetic building blocks
================================

Bernoulli numbers, sum-of-powers polynomials, and truncated series with
rational coefficients.  Everything prints as exact fractions; nothing here
is floating point.
"""

from fractions import Fraction

from mapchi import TruncatedSeries, bernoulli, poly_str, sum_of_powers_poly

# Bernoulli numbers in the B_1 = -1/2 convention.  Odd indices past 1 vanish.
print("First Bernoulli numbers:")
for j in range(0, 13, 2):
    print(f"  B_{j:<2} = {bernoulli(j)}")

# Faulhaber polynomials: S_k(N) = 1^k + 2^k + ... + N^k as a polynomial in N.
print("\nSum-of-powers polynomials:")
for k in range(4):
    print(f"  S_{k}(N) = {poly_str(sum_of_powers_poly(k))}")

# Spot check against a literal sum.
s3 = sum_of_powers_poly(3)
direct = sum(Fraction(j) ** 3 for j in range(1, 11))
print(f"\nS_3(10) = {s3.eval(Fraction(10))}  (direct sum gives {direct})")

# Truncated series support exact logarithms.  log(1/(1-z)) = z + z^2/2 + ...
geometric = TruncatedSeries("z", [Fraction(1)] * 7, 6)
logarithm = geometric.log()
print("\nCoefficients of log(1/(1-z)) through z^6:")
print(" ", [str(logarithm.coefficient(m)) for m in range(7)])

# The logarithm turns products into sums, exactly.
f = TruncatedSeries("z", [Fraction(1), Fraction(2), Fraction(1, 3)], 6)
g = TruncatedSeries("z", [Fraction(1), Fraction(-1, 2)], 6)
assert (f * g).log() == f.log() + g.log()
print("\nlog(f*g) == log f + log g holds for exact truncated series.")
