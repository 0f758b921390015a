"""
Jack symmetric functions
========================

Jack functions in the J normalization, computed exactly as polynomials in
alpha with integer coefficients.  The defining conditions are orthogonality
under the alpha-deformed inner product, triangularity over monomials in
reverse-lex order, and the normalization [x_1...x_n] J = n!.
"""

from mapchi import cauchy_check, inner_product, jack, partitions_of, poly_str


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

# Orthogonality holds symbolically: the Gram matrix of weight 4 is diagonal.
shapes = partitions_of(4)
print("\nGram matrix at weight 4 (off-diagonal entries):")
off_diagonal = [
    inner_product(jack(a).expansion, jack(b).expansion)
    for i, a in enumerate(shapes)
    for b in shapes[i + 1 :]
]
print(f"  {len(off_diagonal)} pairings, all zero: {all(v == 0 for v in off_diagonal)}")

# The Cauchy kernel reproduces the same structure from the product side:
# prod (1 - x_i y_j)^(-1/alpha) expands as sum_theta J J / <J, J>.  In power
# sums its degree-d part is sum_rho p_rho(x) p_rho(y) / (z_rho alpha^l(rho)),
# so degree d is checked coefficient by coefficient of p_rho(x) p_sigma(y),
# which holds in any number of variables.  cauchy_check raises on the first
# pair (rho, sigma) that differs and returns how many pairs it compared.
for degree in range(4):
    pairs = cauchy_check(degree)
    print(f"Cauchy identity, degree {degree} in power sums: agrees on {pairs} (rho, sigma) pairs")
