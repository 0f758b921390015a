"""
Polygon gluings and rooted-map oracles
======================================

Brute-force enumeration, independent of all series machinery: gluing the
sides of polygons in pairs (with either relative orientation) classifies
the resulting closed surfaces, and one canonical flag-matching census
counts rooted maps directly, on all surfaces or orientable only.
"""

from mapchi.maporacle import (
    double_cover_lift_check,
    glue_census,
    lambda_from_census,
    rooted_locally_orientable_counts,
    rooted_orientable_counts,
)

# All 12 gluings of a square, classified by Euler characteristic and
# orientability.  The filtered census keeps boundary graphs with all
# valences >= 3.
census = glue_census(4, collect_patterns=True)
print(f"Square: {census.raw_count} gluings, {census.connected_count} connected")
for (chi, orientable), count in sorted(census.by_chi.items(), reverse=True):
    kind = "orientable" if orientable else "nonorientable"
    kept = census.by_chi_filtered.get((chi, orientable), 0)
    print(f"  chi={chi:>2} {kind:<13} {count} gluings ({kept} with valences >= 3)")

# The four Klein-bottle words behind lambda^N_1(2) = 4, and the torus word.
print("\nKlein bottle words:", sorted(census.patterns_filtered[(0, False)]))
print("Torus word:        ", census.patterns_filtered[(0, True)])

# Every connected nonorientable gluing admits exactly 2^{s-1} connected
# orientable double-cover lifts with doubled Euler characteristic.
for sides in ((2,), (4,), (2, 2)):
    checked = double_cover_lift_check(*sides)
    print(f"\nDouble-cover lifting checked on {len(sides)} polygon(s) "
          f"{list(sides)}: {checked} nonorientable gluings")

# Rooted maps by direct enumeration, each generated once in canonical order
# from the root.  Totals 2, 10, 74 (orientable) and 3, 24, 297 (all
# surfaces) are the classical sequences.
print("\nRooted maps with 2 edges, all surfaces:")
counts = rooted_locally_orientable_counts(2)
for key in sorted(counts, key=lambda k: (k.j, k.i)):
    print(f"  j={key.j} i={list(key.i)!s:<15} {counts[key]}")
print("  total:", sum(counts.values()))
print("Orientable totals n=1..3:",
      [sum(rooted_orientable_counts(n).values()) for n in (1, 2, 3)])

# Assembling the alternating edge sum reproduces Lambda exactly.
triple = lambda_from_census(1, 1)
print(f"\nLambda(1,1) from the censuses: {triple.total} "
      f"(orientable part {triple.orientable})")
