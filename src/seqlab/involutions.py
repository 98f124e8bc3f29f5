"""Brute-force involution counting, independent of every formula here.

An involution on {0..n-1} is a permutation equal to its own inverse. The
count of involutions obeys the same recurrence as the companion sequence
a_n (choose whether element n is fixed or swapped with one of n-1 others),
so exhaustive enumeration gives an oracle for a_n that shares no code with
the recurrence, the closed form, or the generating function. Every one of
the n! permutations is generated and tested; a prefilter in C (itertools and
operator) sets all but 2 (n-1)! of them aside before Python code sees them.

The check built on it, check_involution_identity, runs through the one driver
in checks, like every other check; its sweep, _involutions, lives there too.
"""

from itertools import filterfalse, islice, permutations
from math import factorial
from operator import itemgetter
from typing import Optional, Sequence

from .report import CheckResult

# 10! = 3628800 permutations enumerate in well under a second: the prefilter
# runs in C over all of them and Python visits only 2 * 9! of them. 11! does
# not stay cheap, and nothing in the package needs it.
ENUMERATION_MAX = 10


def count_involutions_enum(n: int) -> int:
    """Count involutions on n elements by scanning all n! permutations.

    permutations() emits them in lexicographic order, so the j-th run of
    (n-1)! of them has p[0] = j. The prefilter p[p[0]] == 0 is then p[j] == 0
    on that run, which filterfalse(itemgetter(j), ...) decides in C; only the
    2 (n-1)! permutations that pass it are visited in Python.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_MAX:
        raise ValueError(f"enumeration capped at n = {ENUMERATION_MAX}")
    if n == 0:
        return 1
    perms = permutations(range(n))
    run = factorial(n - 1)
    count = 0
    for j in range(n):
        for p in filterfalse(itemgetter(j), islice(perms, run)):
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
