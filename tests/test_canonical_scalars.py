"""The canonical-scalar contract of ``fields``: residues in [0, p) over F_p,
ints and Fractions over Q.  The dense kernels lean on it (zero is falsy,
equal matrices are equal lists), so they are checked against the
field-generic loops they replaced, and the oracle's matrices over F_p are
checked to hold only residues."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import reference_rref
from extline import certify, linalg, reps, strings
from extline.fields import field_for_characteristic
from extline.homs import LineAlgebra
from extline.resolutions import build_resolution, corrupted_resolution

CHARS = [0, 2, 3, 5]


# the field-generic loops, as they were before the kernels relied on the contract

def generic_mat_mul(field, A, B, out_cols=None):
    m, k = len(A), len(B)
    n = len(B[0]) if k else (out_cols or 0)
    out = linalg.zeros(field, m, n)
    for i in range(m):
        for t in range(k):
            a = A[i][t]
            if field.is_zero(a):
                continue
            for j in range(n):
                b = B[t][j]
                if not field.is_zero(b):
                    out[i][j] = field.add(out[i][j], field.mul(a, b))
    return out


def generic_mat_eq(field, A, B):
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if not field.is_zero(field.sub(a, b)):
                return False
    return True


def generic_is_zero_mat(field, A):
    return all(field.is_zero(a) for row in A for a in row)


def generic_nonzero_columns(field, M):
    return [list(col) for col in zip(*M) if not all(map(field.is_zero, col))]


def generic_dot(field, row, vec):
    acc = field.zero
    for a, b in zip(row, vec):
        if not field.is_zero(a) and not field.is_zero(b):
            acc = field.add(acc, field.mul(a, b))
    return acc


def scalars(char):
    """Canonical scalars, zero about half the time."""
    if char:
        nonzero = st.integers(1, char - 1)
    else:
        nonzero = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    return st.one_of(st.just(0), nonzero)


@st.composite
def field_and_matrices(draw):
    """A field and canonical matrices A (m x k) and B (k x n)."""
    char = draw(st.sampled_from(CHARS))
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))

    def matrix(rows, cols):
        return [[draw(scalars(char)) for _ in range(cols)] for _ in range(rows)]

    return field_for_characteristic(char), matrix(m, k), matrix(k, n), n


def same_value(field, x):
    """x as the other representation of its value over Q (int or
    Fraction), or x itself over F_p."""
    if field.characteristic or x != int(x):
        return x
    return int(x) if isinstance(x, Fraction) else Fraction(x)


@given(field_and_matrices())
def test_dense_kernels_match_the_field_generic_loops(data):
    F, A, B, n = data
    product = linalg.mat_mul(F, A, B, out_cols=n)
    assert product == generic_mat_mul(F, A, B, out_cols=n)
    for X in (A, B, product, linalg.zeros(F, len(A), n)):
        assert linalg.is_zero_mat(X) == generic_is_zero_mat(F, X)
        assert linalg.nonzero_columns(X) == generic_nonzero_columns(F, X)
        twin = [[same_value(F, x) for x in row] for row in X]
        assert X == twin and generic_mat_eq(F, X, twin)
    for X, Y in ((A, B), (B, A), (product, A), (A, A[:-1])):
        assert (X == Y) == generic_mat_eq(F, X, Y)
    if A and A[0]:
        changed = [row[:] for row in A]
        changed[-1][-1] = F.add(changed[-1][-1], F.one)
        assert A != changed and not generic_mat_eq(F, A, changed)
    for row in A:
        for col in zip(*B):
            assert F.dot(row, col) == generic_dot(F, row, col)


@st.composite
def field_and_row(draw):
    """A field and one canonical row, often with leading zeros or all zero."""
    char = draw(st.sampled_from(CHARS))
    zeros = draw(st.integers(0, 4))
    rest = [draw(scalars(char)) for _ in range(draw(st.integers(0, 5)))]
    if not (zeros or rest):
        rest = [draw(scalars(char))]
    return field_for_characteristic(char), [0] * zeros + rest


@given(field_and_row())
def test_one_row_rref_matches_gauss_jordan(data):
    F, row = data
    M = [row]
    assert linalg.rref(F, M) == reference_rref(F, M)
    assert M == [row]  # the input is left alone


@pytest.mark.parametrize("row", [
    [0, 0, Fraction(2, 3), 1, 0, Fraction(-1, 2)],
    [Fraction(0), 0, Fraction(4, 1), 2],
    [0, 0, 0],
    [Fraction(0), Fraction(0)],
    [-3, Fraction(3, 2)],
])
def test_one_row_rref_over_q(row):
    Q = field_for_characteristic(0)
    R, pivots = linalg.rref(Q, [row])
    assert (R, pivots) == reference_rref(Q, [row])
    if pivots:
        assert R[0][pivots[0]] == 1


def all_entries(*matrices):
    return [x for M in matrices for row in M for x in row]


def morphism_entries(phi):
    return all_entries(*phi.blocks.values())


def module_entries(rep):
    return all_entries(*rep.arrows.values())


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_oracle_matrices_hold_residues(n, p):
    alg = LineAlgebra(n, field_for_characteristic(p))
    residues = range(p)
    for i in range(1, n + 1):
        for cx in (build_resolution(alg, i, 2 * n + 1), corrupted_resolution(alg, i, 2 * n + 1)):
            for k in range(1, 2 * n + 2):
                phi = certify.realize_hom_matrix(alg, cx.diff(k), {})
                assert set(morphism_entries(phi)) <= set(residues)
    modules = [certify.realize_x(n, alg.field, label) for label in strings.canonical_labels(n)]
    for M in modules:
        cover = reps.projective_cover(M)
        entries = (module_entries(cover.cover) + module_entries(cover.kernel)
                   + morphism_entries(cover.surjection) + morphism_entries(cover.inclusion))
        assert all(x in residues for x in entries), M
        for N in modules:
            for phi in reps.hom_space(M, N):
                assert all(x in residues for x in morphism_entries(phi)), (M, N)
