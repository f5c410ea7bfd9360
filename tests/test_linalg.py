"""Dense elimination against a plain full-row Gauss-Jordan reference, on
seeded random sparse matrices over Q, F_2, F_3 and F_5."""

import random
from fractions import Fraction

import pytest

from helpers import reference_rref, span_equal
from extline import linalg
from extline.fields import field_for_characteristic

CHARS = [0, 2, 3, 5]


def random_matrix(rng, F, m, n, density):
    def entry():
        if rng.random() >= density:
            return F.zero
        if F.characteristic == 0:
            return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return F.from_int(rng.randrange(-4, 5))
    return [[entry() for _ in range(n)] for _ in range(m)]


def cases(F, seed):
    rng = random.Random(seed)
    yield []
    yield [[], []]
    yield [[F.zero] * 4 for _ in range(3)]
    for _ in range(150):
        m, n = rng.randrange(0, 8), rng.randrange(1, 10)
        yield random_matrix(rng, F, m, n, rng.choice([0.0, 0.1, 0.25, 0.5, 0.9]))
    # low rank: repeated and scaled rows
    for _ in range(30):
        rows = random_matrix(rng, F, rng.randrange(1, 4), rng.randrange(1, 9), 0.4)
        yield [[F.mul(F.from_int(rng.randrange(1, 4)), x) for x in rng.choice(rows)]
               for _ in range(rng.randrange(1, 7))]


@pytest.mark.parametrize("char", CHARS)
def test_rref_matches_full_row_gauss_jordan(char):
    F = field_for_characteristic(char)
    for M in cases(F, 7000 + char):
        original = [row[:] for row in M]
        assert linalg.rref(F, M) == reference_rref(F, M), M
        assert M == original  # the input is left alone


@pytest.mark.parametrize("char", CHARS)
def test_rank_of_at_most_one_row_is_decided_without_elimination(char):
    # rank reads a block of at most one row by a truth test; larger blocks
    # go through rref
    F = field_for_characteristic(char)
    rng = random.Random(9000 + char)
    blocks = [[], [[F.zero] * 5], [[F.zero] * 4 + [F.one]]]
    for _ in range(100):
        m, k = rng.choice([1, 2]), rng.randrange(1, 7)
        blocks.append(random_matrix(rng, F, m, k, rng.choice([0.0, 0.2, 0.5, 1.0])))
    for M in blocks:
        assert linalg.rank(F, M) == len(reference_rref(F, M)[1]), M


@pytest.mark.parametrize("char", CHARS)
def test_nullspace_vectors_are_annihilated(char):
    F = field_for_characteristic(char)
    for M in cases(F, 8000 + char):
        n = len(M[0]) if M else 3
        basis, _ = linalg.kernel_basis(F, M, ncols=n)
        assert len(basis) == n - linalg.rank(F, M)
        for x in basis:
            assert linalg.is_zero_mat(linalg.mat_mul(F, M, [[xi] for xi in x]))


@pytest.mark.parametrize("char", CHARS)
def test_kernel_basis_is_the_identity_at_the_free_columns(char):
    # a cover's kernel reads its coordinates at the free columns
    # (reps._submodule), so that no kernel basis is eliminated again
    F = field_for_characteristic(char)
    for M in cases(F, 8500 + char):
        n = len(M[0]) if M else 3
        basis, free = linalg.kernel_basis(F, M, ncols=n)
        pivots = reference_rref(F, M)[1]
        assert free == [c for c in range(n) if c not in pivots], M
        assert [[x[c] for c in free] for x in basis] == linalg.identity_matrix(F, len(free)), M


class FractionField:
    """The rationals with every scalar a Fraction, inverted as 1 / Fraction."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0


def mixed_rational_cases(seed):
    """Matrices of 0, +-1, 2 and proper fractions, as ints where integral."""
    rng = random.Random(seed)
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    for _ in range(200):
        m, n = rng.randrange(0, 7), rng.randrange(1, 8)
        M = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        if M and rng.random() < 0.3:  # a dependent row
            M.append([2 * a - b for a, b in zip(M[0], M[-1])])
        yield M


def test_int_backed_rationals_match_all_fraction_arithmetic():
    Q, old = field_for_characteristic(0), FractionField()
    cases = list(mixed_rational_cases(9000))
    for M, M2 in zip(cases, cases[1:]):
        as_fractions = [[Fraction(x) for x in row] for row in M]
        R, pivots = linalg.rref(Q, M)
        expected = linalg.rref(old, as_fractions)
        assert (R, pivots) == expected, M
        # output prints scalars, so equal values must print alike too
        assert [list(map(str, row)) for row in R] == [list(map(str, row)) for row in expected[0]]
        n = len(M[0]) if M else 1
        assert linalg.kernel_basis(Q, M, ncols=n) == linalg.kernel_basis(old, as_fractions, ncols=n)
        for other in (M2, R, M[::-1]):
            if other and M and len(other[0]) == len(M[0]):
                assert span_equal(Q, M, other) == \
                    span_equal(old, as_fractions, [[Fraction(x) for x in row] for row in other])
