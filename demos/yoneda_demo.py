"""Products in the Ext-algebra at chain level.

The degree-1 classes x_i, x_i^* and the degree-N classes y_i act by
explicit chain maps between the periodic resolutions.  Composites are
decided exactly: the induced cocycle on the minimal resolution tells
zero from nonzero, and zero composites come with an explicit, degreewise
re-verified homotopy certificate.  The script exits 1 when a relation
check fails.
"""

import sys

from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra
from extline.yoneda import (
    cached_generator,
    chain_add,
    chain_equal_strict,
    compose,
    null_homotopy,
    verify_homotopy,
)
from extline.path_algebra import verify_chain_relations

N = 3
alg = LineAlgebra(N, field_for_characteristic(0))

x1 = cached_generator(alg, "x", 1)
xs1 = cached_generator(alg, "xstar", 1)
y1 = cached_generator(alg, "y", 1)
y2 = cached_generator(alg, "y", 2)

print("boundary products vanish up to homotopy:")
prod = compose(xs1, x1)  # a class in Ext^2(S_1, S_1) = 0
h = null_homotopy(prod)
print(f"  x1* o x1: homotopy found = {h is not None}, "
      f"re-verified = {h is not None and verify_homotopy(prod, h)}")

print("\nmixed relations hold strictly at chain level:")
lhs = compose(y2, x1)
rhs = compose(cached_generator(alg, "xstar", N - 1), y1)
print(f"  y2 o x1 == x{N-1}* o y1 degreewise: {chain_equal_strict(lhs, rhs)}")

print("\nthe difference of two commuting products is a boundary:")
x2 = cached_generator(alg, "x", 2)
xs2 = cached_generator(alg, "xstar", 2)
diff = chain_add(compose(x1, xs1), compose(xs2, x2), alg.field.from_int(-1))
h = null_homotopy(diff)
print(f"  x1 x1* - x2* x2: certificate found and verified = "
      f"{h is not None and verify_homotopy(diff, h)}")

print("\nfull relation check:")
checks = verify_chain_relations(alg)
for check in checks:
    print(f"  [{'ok ' if check.ok else 'FAIL'}] {check.name}")
sys.exit(0 if all(check.ok for check in checks) else 1)
