"""Ext dimensions and Poincare series: formula instantiations and full
cross-route agreement."""

import importlib
import re

import pytest

from extline.ext_table import (
    RouteMismatchError,
    ext_dim_via_x,
    ext_table,
    poincare_numerator,
    poincare_series,
    q_polynomial,
)
from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra
from extline.resolutions import build_resolution
from extline import reps

ext_table_module = importlib.import_module("extline.ext_table")


def test_q_polynomial_values():
    assert q_polynomial(2, 1, 1) == [1]
    assert q_polynomial(3, 2, 2) == [1, 0, 1]
    for n in (2, 3, 5, 8):
        q = q_polynomial(n, 1, n)
        assert q == [0] * (n - 1) + [1]


def test_q_polynomial_against_brute_force():
    # exponents of Q are the degrees k < N with a nonzero Ext, which the
    # representation oracle computes by iterated syzygies
    F2 = field_for_characteristic(2)
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            M = reps.simple_rep(n, F2, i)
            seen = {j: [] for j in range(1, n + 1)}
            for k in range(n):
                h = reps.head(M)
                for j in range(1, n + 1):
                    if h.get(j):
                        seen[j].append(k)
                M = reps.syzygy(M)
            for j in range(1, n + 1):
                q = q_polynomial(n, i, j)
                assert [e for e, c in enumerate(q) if c] == seen[j]


def test_series_n1_all_ones():
    assert poincare_series(1, 1, 1, 9) == [1] * 10


def test_series_n2_diagonal():
    assert poincare_series(2, 1, 1, 7) == [1, 0, 0, 1, 1, 0, 0, 1]
    assert poincare_numerator(2, 1, 1) == [1, 0, 0, 1]


def test_series_n3_corner():
    out = poincare_series(3, 1, 3, 18)
    for k, c in enumerate(out):
        assert c == (1 if k % 6 in (2, 3) else 0)
    assert poincare_numerator(3, 1, 3) == [0, 0, 1, 1, 0, 0]


def test_numerator_example_n3_middle():
    assert poincare_numerator(3, 2, 2) == [1, 0, 1, 1, 0, 1]


def test_head_route_values():
    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert ext_dim_via_x(n, i, j, 0) == (1 if i == j else 0)
    assert ext_dim_via_x(3, 2, 2, 2) == 1
    for k in range(10):
        assert ext_dim_via_x(3, 1, 2, k) == ext_dim_via_x(3, 1, 2, k + 6)


def test_resolution_route_values():
    # dim Ext^k(S_i, S_j) is the multiplicity of P_j in degree k of R_i
    alg = LineAlgebra(2, field_for_characteristic(2))
    assert build_resolution(alg, 1).term(3).count(1) == 1
    assert build_resolution(alg, 1).term(1).count(2) == 1
    for i in (1, 2):
        for j in (1, 2):
            assert build_resolution(alg, i).term(0).count(j) == (1 if i == j else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_three_routes_agree(n):
    table = ext_table(n, 4 * n)  # raises RouteMismatchError on disagreement
    assert table.max_degree == 4 * n


def _toggled(indices, j):
    """indices with j removed if present, else added: a 0/1 entry flipped."""
    return tuple(x for x in indices if x != j) if j in indices else tuple(sorted((*indices, j)))


def _break_route(monkeypatch, route, i, j, degrees):
    """Make one route wrong in row (i, j) at each of the given degrees."""
    if route == "head":
        real = ext_table_module._syzygy_head

        def broken(n_, i_, k_):
            head = real(n_, i_, k_)
            return dict.fromkeys(_toggled(tuple(head), j)) if i_ == i and k_ in degrees else head

        monkeypatch.setattr(ext_table_module, "_syzygy_head", broken)
    elif route == "resolution":
        real = ext_table_module.build_resolution

        def broken(alg, i_, depth):
            cx = real(alg, i_, depth=depth)  # its terms list is a copy of the shared store
            if i_ == i:
                for k in degrees:
                    cx.terms[k] = _toggled(cx.terms[k], j)
            return cx

        monkeypatch.setattr(ext_table_module, "build_resolution", broken)
    else:
        real = ext_table_module.poincare_series

        def broken(n_, i_, j_, max_degree):
            series = real(n_, i_, j_, max_degree)
            if (i_, j_) == (i, j):
                for k in degrees:
                    series[k] = 1 - series[k]
            return series

        monkeypatch.setattr(ext_table_module, "poincare_series", broken)


@pytest.mark.parametrize("route", ["head", "resolution", "series"])
@pytest.mark.parametrize("n,i,j,k", [(4, 2, 3, 5), (4, 1, 1, 0), (5, 3, 2, 9)])
def test_each_route_is_compared(route, n, i, j, k, monkeypatch):
    # one route is wrong at one cell (i, j, k); the table must name that cell
    _break_route(monkeypatch, route, i, j, {k})
    with pytest.raises(RouteMismatchError, match=re.escape(f"(i={i}, j={j}, k={k})")):
        ext_table(n, 4 * n)
    monkeypatch.undo()
    assert ext_table(n, 4 * n).max_degree == 4 * n  # the store is intact


@pytest.mark.parametrize("route", ["head", "resolution", "series"])
@pytest.mark.parametrize("n,i,j,ks", [(4, 2, 3, (5, 11)), (5, 3, 2, (2, 9)), (3, 1, 1, (0, 12))])
def test_a_row_broken_twice_names_its_first_degree(route, n, i, j, ks, monkeypatch):
    # the whole row is compared at once, then scanned for its first bad degree
    k = ks[0]
    right = ext_table(n, 4 * n).entry(i, j, k)
    values = {r: (1 - right if r == route else right) for r in ("head", "resolution", "series")}
    _break_route(monkeypatch, route, i, j, set(ks))
    expected = (f"routes disagree at (i={i}, j={j}, k={k}): head={values['head']}, "
                f"resolution={values['resolution']}, series={values['series']}")
    with pytest.raises(RouteMismatchError) as info:
        ext_table(n, 4 * n)
    assert str(info.value) == expected


def _recurrence_series(n, i, j, max_degree):
    """The series by its recurrence c_k = num_k + c_{k-2N}, term by term."""
    num = poincare_numerator(n, i, j)
    out = []
    for k in range(max_degree + 1):
        c = num[k] if k < len(num) else 0
        if k >= 2 * n:
            c += out[k - 2 * n]
        out.append(c)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_periodic_series_equals_the_recurrence(n):
    # every max_degree from 0 to 10N, so also every one below 2N - 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for max_degree in range(10 * n + 1):
                assert poincare_series(n, i, j, max_degree) == _recurrence_series(n, i, j, max_degree)


def test_table_structure():
    for n in (1, 2, 3, 5):
        table = ext_table(n, 4 * n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                row = table.row(i, j)
                assert set(row) <= {0, 1}
                assert row == table.row(j, i)
                for k in range(2 * n + 1):
                    assert row[k] == row[k + 2 * n]
                support = [k for k in range(n) if row[k]]
                assert len({k % 2 for k in support}) <= 1


def test_first_window_equals_q():
    for n in (2, 3, 4, 5):
        table = ext_table(n, 4 * n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                q = q_polynomial(n, i, j)
                window = list(table.row(i, j)[:n])
                expect = [q[k] if k < len(q) else 0 for k in range(n)]
                assert window == expect


def test_full_window_identity():
    # degrees 0..2N-1 decompose as Q_{i,j} + t^N Q_{N+1-i,j}
    for n in (2, 3, 4):
        table = ext_table(n, 2 * n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = list(table.row(i, j)[: 2 * n])
                expect = [0] * (2 * n)
                for e, c in enumerate(q_polynomial(n, i, j)):
                    expect[e] += c
                for e, c in enumerate(q_polynomial(n, n + 1 - i, j)):
                    expect[n + e] += c
                assert got == expect


def test_reflection_identity():
    for n in (2, 3, 4, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                q = q_polynomial(n, i, j)
                refl = q_polynomial(n, n + 1 - i, j)
                # t^(N-1) q(1/t): exponent e -> N-1-e
                expect = [0] * n
                for e, c in enumerate(q):
                    if c:
                        expect[n - 1 - e] += c
                got = [refl[e] if e < len(refl) else 0 for e in range(n)]
                assert got == expect


def test_row_sums_match_term_sizes():
    alg = LineAlgebra(4, field_for_characteristic(2))
    table = ext_table(4, 12)
    for i in range(1, 5):
        cx = build_resolution(alg, i, 12)
        for k in range(13):
            s = sum(table.entry(i, j, k) for j in range(1, 5))
            assert s == len(cx.term(k))


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        q_polynomial(3, 0, 1)
    with pytest.raises(ValueError):
        ext_dim_via_x(3, 1, 4, 0)
    assert isinstance(RouteMismatchError("x"), AssertionError)
