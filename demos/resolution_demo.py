"""Walk through the closed-form minimal resolution of a simple module.

Every simple S_i over the Brauer line algebra has a 2N-periodic minimal
projective resolution whose k-th term is the canonical projective sum of
the interval (i-k, i+k).  The script prints the periodic pattern for a
small case and runs the full certification (square-zero, minimality,
exactness against the linear-algebra oracle, and identification of every
image with the predicted string module).
"""

from extline.cli import format_hom, psum_str
from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra
from extline.resolutions import build_resolution, verify_resolution

N, I = 4, 2
alg = LineAlgebra(N, field_for_characteristic(0))

cx = build_resolution(alg, I, depth=4 * N)
print(f"minimal resolution of S_{I} over the line with N = {N} simples")
print("terms (one full period plus one degree):")
for k in range(2 * N + 2):
    print(f"  degree {k:2d}: {psum_str(cx.term(k))}")

print("\ndifferentials of the first period:")
for k in range(1, 2 * N + 1):
    d = cx.diff(k)
    rows = [[format_hom(alg, e) for e in row] for row in d.entries]
    print(f"  d_{k}: {psum_str(d.source)} -> {psum_str(d.target)}")
    for row in rows:
        print("      [" + ", ".join(row) + "]")

print("\ncertification:")
checks = verify_resolution(cx, I)
for check in checks:
    mark = "ok " if check.ok else "FAIL"
    print(f"  [{mark}] {check.name}" + (f" ({check.detail})" if check.detail else ""))
print("\nall checks passed" if all(c.ok for c in checks) else "\nsome checks FAILED")
