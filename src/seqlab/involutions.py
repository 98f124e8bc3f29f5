"""Brute-force involution counting, independent of every formula here.

An involution on {0..n-1} is a permutation equal to its own inverse. The
count of involutions obeys the same recurrence as the companion sequence
a_n (choose whether element n is fixed or swapped with one of n-1 others),
so exhaustive enumeration gives an oracle for a_n that shares no code with
the recurrence, the closed form, or the generating function.
"""

from itertools import permutations
from typing import Iterator, Optional, Sequence

from .report import CheckResult, _Sweep, decimal_text

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


def _involutions(max_n: int) -> _Sweep:
    if max_n > ENUMERATION_MAX:
        raise ValueError(f"enumeration capped at n = {ENUMERATION_MAX}")

    def hits(a_values: Sequence[int]) -> Iterator[tuple[int, str]]:
        for n in range(max_n + 1):
            got = count_involutions_enum(n)
            if got != a_values[n]:
                yield n, f"enumerated {got} involutions but a({n}) = {decimal_text(a_values[n])}"

    return _Sweep("involutions", 0, max_n, then=hits, prefix=max_n + 1)


def check_involution_identity(
    max_n: int, a_values: Optional[Sequence[int]] = None
) -> CheckResult:
    """Confirm a_n equals the enumerated involution count for 0 <= n <= max_n."""
    from .sequences import a_seq

    return _involutions(max_n).result(a_seq(max_n) if a_values is None else a_values)
