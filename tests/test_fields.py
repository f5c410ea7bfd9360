"""The primality test behind PrimeField and --char."""

import pytest

from extline.fields import PRIME_TEST_LIMIT, _is_prime


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
