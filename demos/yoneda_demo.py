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
    chain_equal_strict,
    chain_sub,
    class_difference_scalar,
    compose,
    lift_cocycle,
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

print("\nlifted cocycles agree with the generators:")
lift = lift_cocycle(alg, 1, 2, 1)
print(f"  Ext^1(S_1, S_2) lift vs x1: proportionality scalar "
      f"{class_difference_scalar(lift.chain_map, x1)}")
lift = lift_cocycle(alg, 1, N, N)
print(f"  Ext^{N}(S_1, S_{N}) lift vs y1: proportionality scalar "
      f"{class_difference_scalar(lift.chain_map, y1)}")

print("\nthe difference of two commuting products is a boundary:")
x2 = cached_generator(alg, "x", 2)
xs2 = cached_generator(alg, "xstar", 2)
diff = chain_sub(compose(x1, xs1), compose(xs2, x2))
h = null_homotopy(diff)
print(f"  x1 x1* - x2* x2: certificate found and verified = "
      f"{h is not None and verify_homotopy(diff, h)}")

print("\nfull relation check:")
checks = verify_chain_relations(alg)
for check in checks:
    print(f"  [{'ok ' if check.ok else 'FAIL'}] {check.name}")
sys.exit(0 if all(check.ok for check in checks) else 1)
