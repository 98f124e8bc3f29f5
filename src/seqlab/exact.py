"""Exact integer and rational primitives shared by the rest of the package.

Everything here is arbitrary precision; nothing constructs a float. The only
nontrivial piece is cmp_shifted_sqrt, which decides inequalities of the form
x < (1 + sqrt(m)) / 2 for rational x without ever computing a square root.
"""

import math
from fractions import Fraction

LESS = -1
EQUAL = 0
GREATER = 1

# Sieving beyond this is never needed here and would silently eat memory.
SIEVE_LIMIT = 10**7


def cmp_shifted_sqrt(x: Fraction, m: int) -> int:
    """Compare x against (1 + sqrt(m)) / 2 exactly, for x >= 1/2 and m >= 0.

    Returns LESS, EQUAL or GREATER. With x = p/q and q > 0, 2x - 1 >= 0 makes
    the comparison equivalent to (2p - q)^2 against m q^2, all in integers.
    """
    p, q = x.numerator, x.denominator
    t = 2 * p - q
    if t < 0:
        raise ValueError("cmp_shifted_sqrt requires x >= 1/2")
    if m < 0:
        raise ValueError("cmp_shifted_sqrt requires m >= 0")
    lhs, rhs = t * t, m * q * q
    if lhs < rhs:
        return LESS
    if lhs == rhs:
        return EQUAL
    return GREATER


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by a byte sieve. limit is capped at SIEVE_LIMIT."""
    if limit > SIEVE_LIMIT:
        raise ValueError(f"sieve limit capped at {SIEVE_LIMIT}")
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]
