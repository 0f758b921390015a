"""
Jack symmetric functions
========================

Jack functions in the J normalization, computed exactly as polynomials in
alpha with integer coefficients.  The defining conditions are orthogonality
under the alpha-deformed inner product, triangularity over monomials in
reverse-lex order, and the normalization [x_1...x_n] J = n!.
"""

from mapchi.arith import poly_str
from mapchi.partitions import partitions_of
from mapchi.symfunc import cauchy_check, jack


def show(expr) -> str:
    """Render a power-sum expansion as `c p_[mu] + ...` with alpha coefficients."""
    pieces = []
    for mu, c in sorted(expr.terms.items(), key=lambda t: t[0].parts, reverse=True):
        label = "p_[" + ",".join(str(p) for p in mu.parts) + "]"
        pieces.append(f"({poly_str(c)}) {label}")
    return " + ".join(pieces)


# Power-sum expansions through weight 3.  Coefficients are polynomials in
# alpha; J recovers classical bases at special alpha values.
for n in (1, 2, 3):
    print(f"Weight {n}:")
    for shape in partitions_of(n):
        rec = jack(shape)
        print(f"  J_{list(shape.parts)} = {show(rec.expansion)}")
    print()

# The norms <J, J> and the principal specializations p_k -> x.
rec = jack((2, 1))
print(f"<J_[2,1], J_[2,1]> = {poly_str(rec.norm)}")
print(f"J_[2,1](1_x) has x-coefficients "
      f"{[poly_str(c) for c in rec.principal.coeffs]}")
print(f"[p_(2,...)] J_[2,1] = {poly_str(rec.p2coeff)}  (odd weight, so zero)")

# The Gram matrix of the Jack functions and the Cauchy kernel are one
# identity.  prod (1 - x_i y_j)^(-1/alpha) expands as sum_theta J J / <J, J>,
# and its degree-d part in power sums is sum_rho p_rho(x) p_rho(y) /
# (z_rho alpha^l(rho)).  Comparing coefficients of p_rho(x) p_sigma(y), in
# any number of variables, that says exactly that <J_theta, J_sigma> is
# the norm for theta = sigma and 0 otherwise.  cauchy_check compares the
# pairs (theta, sigma) with sigma <= theta, raises on the first pair of
# shapes that differs, and returns how many pairs it compared.
for degree in range(5):
    pairs = cauchy_check(degree)
    print(f"Degree {degree}: <J_theta, J_sigma> is the norm or 0 on {pairs} (theta, sigma) pairs")
