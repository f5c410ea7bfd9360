"""The primality test behind PrimeField and --char, and the rationals'
int-until-forced scalars."""

from fractions import Fraction

import pytest

from extline.fields import PRIME_TEST_LIMIT, RationalField, _is_prime
from extline.homs import LineAlgebra, format_hom


def test_primality_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert [p for p in range(20000) if _is_prime(p)] == [
        p for p in range(20000) if trial(p)
    ]


def test_strong_pseudoprimes_and_limit():
    # the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    for c in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(c)
    assert _is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        _is_prime(PRIME_TEST_LIMIT)


# ------------------------------------------------------- integer-backed Q

Q = RationalField()


def test_rational_integers_are_ints():
    for x in (Q.zero, Q.one, Q.from_int(0), Q.from_int(-7), Q.from_int(12)):
        assert type(x) is int
    assert Q.from_int(-7) == -7
    for a in (1, -1):
        assert Q.inv(a) == a and type(Q.inv(a)) is int
    # int with int stays int
    assert type(Q.sub(Q.mul(2, 3), Q.add(Q.neg(1), 5))) is int


def test_rational_inverse():
    assert Q.inv(2) == Fraction(1, 2)
    assert Q.inv(Fraction(1, 3)) == 3 and type(Q.inv(Fraction(1, 3))) is int
    assert Q.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert Q.inv(Fraction(-1)) == -1
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            Q.inv(zero)


def test_a_fraction_operand_gives_a_fraction():
    half = Fraction(1, 2)
    for op in (Q.add, Q.sub, Q.mul):
        assert type(op(1, half)) is Fraction and type(op(half, 1)) is Fraction
    assert Q.mul(2, half) == 1 and Q.is_zero(Q.sub(half, half))


def test_format_hom_prints_integral_coefficients_alike():
    alg = LineAlgebra(3, Q)
    for h in (alg.f_hom(1), alg.fstar_hom(2), alg.loop_hom(2), alg.identity_hom(3)):
        for c in (2, -1, 1, -3):
            assert format_hom(alg, alg.scale(c, h)) == format_hom(alg, alg.scale(Fraction(c), h))
    assert format_hom(alg, alg.scale(2, alg.f_hom(1))) == "2*F(1)"
    assert format_hom(alg, alg.scale(Fraction(-1, 2), alg.f_hom(1))) == "-1/2*F(1)"
