"""Exact scalar arithmetic: prime fields F_p and the rationals.

All computations in this package are exact; there is no floating point
anywhere.  A field object carries the arithmetic, scalars themselves are
plain Python ints: residues in [0, p) over F_p.  A rational scalar is an
``int`` or a ``fractions.Fraction``, and an integral value may be either:
over ``Q = RationalField()``, ``Q.add(Q.inv(2), Q.inv(2))`` is
``Fraction(1, 1)``.  The two compare and hash alike, which the equality
of ``HomElement`` and ``HomMatrix`` relies on.

Scalars are canonical: every operation returns one, and every caller
passes only those (``from_int`` makes one from any integer).  So a scalar
is zero exactly when it is falsy, and two matrices are equal exactly when
their lists of rows are, which the dense kernels of ``linalg`` and
``reps`` and the graded quotient use instead of ``is_zero`` and ``sub``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin on the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015; OEIS A014233).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < PRIME_TEST_LIMIT; raises above it."""
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    if p >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality of {p} is not decided (limit {PRIME_TEST_LIMIT})")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p with residue-class arithmetic on plain ints."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverting 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def dot(self, row, vec):
        """sum(row[t] * vec[t]), one reduction for the whole sum."""
        return sum(map(operator.mul, row, vec)) % self.p


@dataclass(frozen=True)
class RationalField:
    """The rational numbers: a scalar is an ``int`` or a ``fractions.Fraction``
    (see the module docstring).

    The oracle's matrices hold mostly 0 and +-1, so elimination stays in
    int arithmetic until an inverse forces a fraction.  This is exact: int
    is a subset of Q in Python's numeric tower (``Fraction(2) == 2``, the
    two hash alike and print alike), and an operation with a Fraction
    operand gives a Fraction.
    """

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        q = Fraction(1) / a
        return q.numerator if q.denominator == 1 else q

    def is_zero(self, a) -> bool:
        return a == 0

    def dot(self, row, vec):
        return sum(map(operator.mul, row, vec))


def field_for_characteristic(char: int):
    """Field of the given characteristic: 0 gives Q, a prime p gives F_p."""
    if char == 0:
        return RationalField()
    return PrimeField(char)
