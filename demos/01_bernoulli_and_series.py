"""
Exact arithmetic building blocks
================================

Bernoulli numbers and truncated series with rational coefficients.
Everything prints as exact fractions; nothing here is floating point.
"""

from fractions import Fraction

from mapchi.arith import TruncatedSeries, bernoulli

# Bernoulli numbers in the B_1 = -1/2 convention.  Odd indices past 1 vanish.
print("First Bernoulli numbers:")
for j in range(0, 13, 2):
    print(f"  B_{j:<2} = {bernoulli(j)}")

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
