"""Ext dimensions between the simples, three independent ways.

dim Ext^k(S_i, S_j) is 0 or 1, symmetric in (i, j) and 2N-periodic in k.
The head criterion on syzygy strings, the terms of the closed-form
resolution, and the rational Poincare series all compute it; the table
constructor cross-checks every entry and a fourth, fully brute-force
route (iterated projective covers) is replayed here by hand.  The script
exits 1 when the replay disagrees with the table.
"""

import sys

from extline.cli import poly_str
from extline.ext_table import ext_table, poincare_numerator, poincare_series
from extline.fields import field_for_characteristic
from extline import reps

N = 4
K = 3 * N
table = ext_table(N, K)  # raises if any two routes disagree

print(f"dim Ext^k(S_i, S_j) for N = {N}, k <= {K} (rows are cells (i,j)):")
for i in range(1, N + 1):
    for j in range(i, N + 1):
        row = " ".join(str(x) for x in table.row(i, j))
        print(f"  ({i},{j}): {row}")

print("\nPoincare series data for a few cells:")
for (i, j) in [(1, 1), (2, 2), (1, N)]:
    num = poly_str(poincare_numerator(N, i, j))
    den = poly_str([1] + [0] * (2 * N - 1) + [-1])
    print(f"  ({i},{j}): ({num}) / ({den})")
    print(f"           -> {poincare_series(N, i, j, K)}")

print("\nbrute-force replay (iterated covers over F_2):")
F2 = field_for_characteristic(2)
agree = True
for i in range(1, N + 1):
    module = reps.simple_rep(N, F2, i)
    for k in range(K + 1):
        cov = reps.projective_cover(module)
        for j in range(1, N + 1):
            if cov.cover_vertices.count(j) != table.entry(i, j, k):
                agree = False
        module = cov.kernel
print("  every multiplicity matches the table" if agree else "  MISMATCH")
sys.exit(0 if agree else 1)
