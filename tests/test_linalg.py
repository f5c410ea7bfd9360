"""Dense elimination against a plain full-row Gauss-Jordan reference, on
seeded random sparse matrices over Q, F_2, F_3 and F_5."""

import random
from fractions import Fraction

import pytest

from extline import linalg
from extline.fields import field_for_characteristic

CHARS = [0, 2, 3, 5]


def reference_rref(F, M):
    """Gauss-Jordan that rewrites every entry of every row it touches."""
    R = [row[:] for row in M]
    m, n = len(R), len(R[0]) if R else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, m) if not F.is_zero(R[i][c])), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        iv = F.inv(R[r][c])
        R[r] = [F.mul(iv, x) for x in R[r]]
        for i in range(m):
            if i != r:
                f = R[i][c]
                R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


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
def test_nullspace_vectors_are_annihilated(char):
    F = field_for_characteristic(char)
    for M in cases(F, 8000 + char):
        n = len(M[0]) if M else 3
        basis = linalg.nullspace(F, M, ncols=n)
        assert len(basis) == n - linalg.rank(F, M)
        for x in basis:
            assert linalg.is_zero_mat(F, linalg.mat_mul(F, M, [[xi] for xi in x]))
