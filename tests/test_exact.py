import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqlab.exact import (
    EQUAL,
    GREATER,
    LESS,
    SIEVE_LIMIT,
    cmp_shifted_sqrt,
    primes_upto,
)


def test_ordering_constants():
    assert (LESS, EQUAL, GREATER) == (-1, 0, 1)


def test_cmp_shifted_sqrt_strict_sides():
    x = Fraction(5, 2)  # (2x-1)^2 = 16
    assert cmp_shifted_sqrt(x, 13) == GREATER
    assert cmp_shifted_sqrt(x, 17) == LESS
    assert cmp_shifted_sqrt(x, 16) == EQUAL


def test_cmp_shifted_sqrt_equalities():
    assert cmp_shifted_sqrt(Fraction(1), 1) == EQUAL
    assert cmp_shifted_sqrt(Fraction(2), 9) == EQUAL
    assert cmp_shifted_sqrt(Fraction(1, 2), 0) == EQUAL


def test_cmp_shifted_sqrt_domain():
    with pytest.raises(ValueError):
        cmp_shifted_sqrt(Fraction(1, 4), 5)
    with pytest.raises(ValueError):
        cmp_shifted_sqrt(Fraction(3), -1)


@given(st.fractions(min_value=Fraction(1, 2), max_value=1000, max_denominator=1000),
       st.integers(0, 5000))
def test_cmp_shifted_sqrt_matches_floats_when_safe(x, m):
    # Far from ties the float comparison agrees with the exact one.
    lhs = float(2 * x - 1) ** 2
    if abs(lhs - m) > 1e-6:
        expected = LESS if lhs < m else GREATER
        assert cmp_shifted_sqrt(x, m) == expected


def _cmp_shifted_sqrt_reference(x, m):
    lhs = (2 * x - 1) ** 2
    return LESS if lhs < m else EQUAL if lhs == m else GREATER


@st.composite
def shifted_sqrt_cases(draw):
    # x = (k + 1)/2 makes (2x - 1)^2 = k^2 a perfect square, so m can tie it.
    x = draw(st.one_of(
        st.fractions(min_value=Fraction(1, 2), max_value=10**6, max_denominator=10**6),
        st.integers(0, 10**6).map(lambda k: Fraction(k + 1, 2)),
    ))
    near = math.floor((2 * x - 1) ** 2)
    m = draw(st.one_of(
        st.integers(0, 10**13),
        st.integers(-1, 1).map(lambda delta: max(0, near + delta)),
    ))
    return x, m


@given(shifted_sqrt_cases())
def test_cmp_shifted_sqrt_matches_fraction_reference(case):
    x, m = case
    assert cmp_shifted_sqrt(x, m) == _cmp_shifted_sqrt_reference(x, m)


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert len(primes_upto(97)) == 25


def test_primes_upto_cap():
    with pytest.raises(ValueError):
        primes_upto(SIEVE_LIMIT + 1)
