"""Ext dimensions between simples and their Poincare series.

Three independent routes compute dim Ext^k(S_i, S_j) and must agree:

  * the head criterion on the k-th syzygy string of S_i;
  * the multiplicity of P_j in degree k of the closed-form resolution;
  * the coefficient of t^k in the rational series

        (Q_{i,j}(t) + t^(2N-1) Q_{i,j}(1/t)) / (1 - t^(2N)),

    where Q_{i,j}(t) = t^|j-i| + t^(|j-i|+2) + ... + t^(N-1-|N+1-j-i|).

All entries are 0 or 1, the table is symmetric in (i, j) and 2N-periodic
in k.  Everything here is integer combinatorics: no field enters, since
the dimensions count head constituents.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import strings
from .fields import field_for_characteristic
from .homs import LineAlgebra
from .resolutions import build_resolution


class RouteMismatchError(AssertionError):
    """Two supposedly equal computations of an Ext dimension disagreed."""


def _check_range(n, i, j):
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range 1..{n}")


def q_polynomial(n: int, i: int, j: int):
    """Coefficient list of Q_{i,j}; 0/1 coefficients, constant parity."""
    _check_range(n, i, j)
    lo = abs(j - i)
    hi = n - 1 - abs(n + 1 - j - i)
    coeffs = [0] * (hi + 1)
    for e in range(lo, hi + 1, 2):
        coeffs[e] = 1
    return coeffs


def poincare_numerator(n: int, i: int, j: int):
    """Q_{i,j}(t) + t^(2N-1) Q_{i,j}(1/t) as a polynomial (degree < 2N)."""
    q = q_polynomial(n, i, j)
    num = [0] * (2 * n)
    for e, c in enumerate(q):
        if c:
            num[e] += c
            num[2 * n - 1 - e] += c
    return num


def poincare_series(n: int, i: int, j: int, max_degree: int):
    """Coefficients 0..max_degree of the Ext Poincare series: the numerator
    has degree < 2N, so dividing by 1 - t^(2N) repeats it with period 2N."""
    num = poincare_numerator(n, i, j)
    return (num * (max_degree // (2 * n) + 1))[:max_degree + 1]


def _syzygy_head(n: int, i: int, k: int) -> dict:
    """Head constituents of the k-th syzygy of S_i, read off its string."""
    if k < 0:
        raise ValueError("negative degree")
    return strings.structure_of(n, (i - k, i + k))[0]


def ext_dim_via_x(n: int, i: int, j: int, k: int) -> int:
    """Head criterion: 1 iff S_j is a head constituent of the k-th syzygy."""
    _check_range(n, i, j)
    return 1 if j in _syzygy_head(n, i, k) else 0


@dataclass
class GradedTable:
    """Dimensions indexed by (i, j, k): the Ext table, or the graded pieces
    e_i A_k e_j of a quotient path algebra."""

    n: int
    max_degree: int
    data: dict  # (i, j) -> tuple over k = 0..max_degree, for all 1 <= i, j <= n

    def entry(self, i: int, j: int, k: int) -> int:
        return self.data[(i, j)][k]

    def row(self, i: int, j: int):
        return self.data[(i, j)]


def _route_rows(n: int, columns: list):
    """Rows 0..n of one route: entry k of row j counts j in the k-th column."""
    rows = [[0] * len(columns) for _ in range(n + 1)]
    for k, column in enumerate(columns):
        for j in column:
            rows[j][k] += 1
    return rows


def ext_table(n: int, max_degree: int | None = None) -> GradedTable:
    """Fill the table by the head criterion and cross-check it against the
    series expansion and the resolution terms, a whole (i, j) row over
    k = 0..max_degree at a time.  A mismatch is an implementation bug and
    raises RouteMismatchError at its first (i, j, k)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if max_degree is None:
        max_degree = 4 * n
    # the resolution route needs an algebra; dimensions are field-free, so
    # any exact field works and F_2 is the cheapest
    alg = LineAlgebra(n, field_for_characteristic(2))
    degrees = range(max_degree + 1)
    data = {}
    for i in range(1, n + 1):
        via_x = _route_rows(n, [_syzygy_head(n, i, k) for k in degrees])
        # one complex per vertex; only its terms are read
        cx = build_resolution(alg, i, depth=max_degree)
        via_res = _route_rows(n, cx.terms[:max_degree + 1])
        for j in range(1, n + 1):
            head, res = tuple(via_x[j]), tuple(via_res[j])
            series = tuple(poincare_series(n, i, j, max_degree))
            if not head == res == series:
                k = next(k for k in degrees if not head[k] == res[k] == series[k])
                raise RouteMismatchError(
                    f"routes disagree at (i={i}, j={j}, k={k}): "
                    f"head={head[k]}, resolution={res[k]}, series={series[k]}"
                )
            data[(i, j)] = head
    return GradedTable(n, max_degree, data)
