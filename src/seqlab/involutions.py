"""Brute-force involution counting, independent of every formula here.

An involution on {0..n-1} is a permutation equal to its own inverse. The
count of involutions obeys the same recurrence as the companion sequence
a_n (choose whether element n is fixed or swapped with one of n-1 others),
so exhaustive enumeration gives an oracle for a_n that shares no code with
the recurrence, the closed form, or the generating function.

The check built on it, check_involution_identity, runs through the one driver
in checks, like every other check; its sweep, _involutions, lives there too.
"""

from itertools import permutations
from typing import Optional, Sequence

from .report import CheckResult

# 10! = 3628800 permutations enumerate in well under a second; 11! does not
# stay cheap, and nothing in the package needs it.
ENUMERATION_MAX = 10


def count_involutions_enum(n: int) -> int:
    """Count involutions on n elements by scanning all n! permutations."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_MAX:
        raise ValueError(f"enumeration capped at n = {ENUMERATION_MAX}")
    if n == 0:
        return 1
    count = 0
    for p in permutations(range(n)):
        if p[p[0]] != 0:  # cheap prefilter: most permutations fail here
            continue
        for i in range(1, n):
            if p[p[i]] != i:
                break
        else:
            count += 1
    return count


def check_involution_identity(
    max_n: int, a_values: Optional[Sequence[int]] = None
) -> CheckResult:
    """Confirm a_n equals the enumerated involution count for 0 <= n <= max_n."""
    from .checks import _involutions, _run  # checks imports this module

    return _run([_involutions(max_n)], a_values)[0]
