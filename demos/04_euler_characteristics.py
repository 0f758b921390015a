"""
Parametrized Euler characteristics
==================================

The polynomial xi^s_g(gamma) interpolates between the orbifold Euler
characteristics of complex moduli (gamma = 1) and the combinatorial data of
real moduli (gamma = 1/2).  Three independent computations agree: a closed
Bernoulli formula, coefficient extraction from a formal log W series, and
an alternating sum over refined map counts.
"""

from fractions import Fraction

from mapchi.arith import poly_str
from mapchi.eulerchar import (
    chi_complex,
    chi_fixed_curves,
    chi_real,
    eval_at_gamma,
    lambda_values,
    xi_closed,
    xi_from_logW,
    xi_from_maps,
)

# The three routes on the smallest case.
xi11 = xi_closed(1, 1)
print(f"xi^1_1 closed form : {poly_str(xi11)}")
print(f"xi^1_1 from log W  : {poly_str(xi_from_logW(1, 1))}")
print(f"xi^1_1 from maps   : {poly_str(xi_from_maps(1, 1))}")

# A sweep of closed forms.  Even g has degree g, odd g degree g+1.  Each is
# its own alpha <-> 1/alpha dual at k = g + 1 in alpha = 1/gamma, so the
# coefficients of alpha^r and alpha^{g+1-r} agree up to the sign (-1)^{g+1},
# and even g has no constant term.
print("\nxi^1_g for g = 1..5:")
for g in range(1, 6):
    print(f"  g={g}: {poly_str(xi_closed(g, 1))}")

# Specializations: Lambda = xi(1/2) splits into orientable and
# nonorientable parts, and 2^{s-1} Lambda^N is the real Euler characteristic.
print("\nLambda triples (total, orientable, nonorientable):")
for g, s in ((1, 1), (2, 1), (2, 2), (3, 1)):
    lam = lambda_values(g, s)
    print(f"  (g={g}, s={s}): {tuple(str(v) for v in lam)}")

print("\nEuler characteristics of moduli spaces:")
print(f"  real    (g=2, s=1): {chi_real(2, 1)}")
print(f"  real    (g=1, s=0): {chi_real(1, 0)}")
print(f"  complex (g=1, s=1): {chi_complex(1, 1)}")
print(f"  complex (g=3, s=1): {chi_complex(3, 1)}")
print(f"  complex (g=5, s=1): {chi_complex(5, 1)}")

# With fixed curves: cutting along the m curves leaves genus g - m, so at
# m = 1 the values are the specializations above one genus down.
v = chi_fixed_curves(2, 1, 1, separating=True)
print(f"  fixed separating (g=2, s=1, m=1): {v}")
assert v == -chi_complex(1, 1)
assert chi_fixed_curves(3, 1, 1, separating=False) == chi_real(2, 2)
print("  m=1 reductions agree with the real/complex values at genus g-1.")

# gamma = 1 on even g vanishes identically; the odd-g values alternate with
# the Bernoulli numbers.
assert eval_at_gamma(xi_closed(4, 2), Fraction(1)) == 0
print("\nxi(1) vanishes for even g, as it must.")
