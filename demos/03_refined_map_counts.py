"""
Refined map counts from the b-Tutte recursion
=============================================

Per (vertex distribution, face count, edge count), the number of rooted
maps weighted by crosscaps is a polynomial in b whose value at b=0 counts
orientable maps and at b=1 counts maps on all surfaces.  The table comes
from the root-edge-deletion recursion for the moments of the b-deformed
Gaussian ensemble, converted to joint cumulants; the Jack generating series
M(z) = 2 alpha z d/dz log S(z) gives the same numbers by a second route.
"""

from fractions import Fraction

from mapchi.arith import poly_str
from mapchi.btutte import map_count_table, nonneg_report, specialize_counts
from mapchi.mapseries import extract_map_counts, map_series

table = map_count_table(3)

print("Refined map numbers through 3 edges (polynomials in b):")
for key in table.keys_sorted():
    label = f"n={key.n} j={key.j} i={list(key.i)}"
    print(f"  {label:<28} {poly_str(table[key])}")

# Column sums reproduce the classical rooted-map sequences.
at_zero = specialize_counts(table, Fraction(0))
at_one = specialize_counts(table, Fraction(1))
print("\nRow sums by edge count:")
print("  orientable (b=0):", [
    sum(v for k, v in at_zero.items() if k.n == n) for n in (1, 2, 3)
])
print("  all surfaces (b=1):", [
    sum(v for k, v in at_one.items() if k.n == n) for n in (1, 2, 3)
])

# The Jack route solves every Jack function up to weight 6 for the same rows.
same = extract_map_counts(map_series(3)) == table
print(f"\nJack partition sum gives the same table: {same}")

# Each row at b = alpha - 1 is its own alpha <-> 1/alpha dual at its Euler
# genus k = 2 - chi (verify.alpha_dual): its alpha-coefficients satisfy
# p_i = (-1)^k p_{k-i}.  So its b-degree is at most k, the crosscap budget.
key = max(table.keys_sorted(), key=lambda k: table[k].degree)
chi = key.euler_characteristic
print(f"\nDeepest row {list(key.i)}, j={key.j}, n={key.n}: chi={chi}, "
      f"degree {table[key].degree} <= {2 - chi}")

# Nonnegativity of all coefficients is conjectural; the report is empty here.
print(f"\nNonnegativity violations through 3 edges: {nonneg_report(table)}")
