"""The Ext-algebra as a path algebra with homogeneous relations.

The quiver has step arrows x_i, x_i^* of degree 1 and turnaround arrows
y_i of degree N, with two families of relations (boundary vanishing and
commutation in degree 2, mixed relations in degree N+1).  Computing the
quotient's graded dimensions degree by degree and evaluating canonical
words as chain maps shows the presented algebra IS the Ext-algebra, at
desk scale, entry by entry.  The script exits 1 when a graded dimension
disagrees with the Ext table.
"""

import sys

from extline.ext_table import ext_table
from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra
from extline import path_algebra as pa
from extline.yoneda import identity_chain_map, null_homotopy

N, K = 3, 8
F = field_for_characteristic(2)
alg = LineAlgebra(N, F)

print(f"relators for N = {N}:")
for rel in pa.standard_relators(N):
    print(f"  {rel.name}")

gd = pa.graded_dimension(N, K, F)
table = ext_table(N, K)
print(f"\ngraded dimensions vs Ext table (N = {N}, degrees 0..{K}):")
ok = True
for i in range(1, N + 1):
    for j in range(i, N + 1):
        left = [gd.entry(i, j, k) for k in range(K + 1)]
        right = list(table.row(i, j))
        ok = ok and (left == right)
        print(f"  ({i},{j}): {left}  {'==' if left == right else '!='}  Ext row")
print("  all cells agree" if ok else "  MISMATCH")

print("\ncanonical words and their evaluations:")
for (i, j, k) in [(1, 1, 0), (1, 3, 2), (1, 1, 5), (2, 2, 6), (1, 2, 7)]:
    w = pa.normal_form_monomial(N, i, j, k)
    if w is None:
        print(f"  ({i},{j},{k}): Ext vanishes, no word")
        continue
    if w:
        name, nonzero = pa.format_word(w), pa.evaluate_word(alg, w).nonzero
    else:  # the empty word is the identity at i
        name, nonzero = f"e{i}", null_homotopy(identity_chain_map(alg, i)) is None
    print(f"  ({i},{j},{k}): {name} -> {'nonzero' if nonzero else 'zero'} class")

print("\nnegative control: dropping a boundary relator inflates the algebra:")
full = pa.graded_dimension(2, 4, F)
partial = pa.graded_dimension(
    2, 4, F, relators=[r for r in pa.standard_relators(2) if r.name != "x1.x1*"]
)
for k in range(5):
    a = sum(full.entry(i, j, k) for i in (1, 2) for j in (1, 2))
    b = sum(partial.entry(i, j, k) for i in (1, 2) for j in (1, 2))
    marker = "  <- strictly larger" if b > a else ""
    print(f"  degree {k}: {a} vs {b}{marker}")
sys.exit(0 if ok else 1)
