"""Brute-force involution counting, independent of every formula here.

An involution on {0..n-1} is a permutation equal to its own inverse. The
count of involutions obeys the same recurrence as the companion sequence
a_n (choose whether element n is fixed or swapped with one of n-1 others),
so exhaustive enumeration gives an oracle for a_n that shares no code with
the recurrence, the closed form, or the generating function. A depth-first
search of the permutation tree tries every unplaced value at every position
and keeps it only where the definition p[p[i]] = i allows it on the prefix,
so every one of the n! permutations is decided by that definition alone: a
branch is cut only where no permutation below it can be an involution.

The check built on it, check_involution_identity, runs through the one driver
in checks, like every other check; its sweep, _involutions, lives there too.
"""

from typing import Optional, Sequence

from .report import CheckResult, VerifyConfig

# For n = 10 the search keeps 44837 prefixes, exactly those of the 9496
# involutions, and tests 95314 (prefix, unplaced value) pairs: about 0.016 s
# on one core under CPython 3.11, 0.02 s for all of n = 0..10. n = 11 would
# keep 175364 and take about 0.07 s, over four times n = 10; nothing in the
# package needs it.
ENUMERATION_MAX = 10


def count_involutions_enum(n: int) -> int:
    """Count involutions on n elements by deciding all n! permutations.

    The search fills positions k = 0, 1, ... and tries at each every value v
    not yet placed. Whether a permutation can be an involution at position k
    depends only on p[:k+1]: p[k] < k needs p[p[k]] == k, and otherwise k
    must not occur in p[:k], for then p[k] would have to be that earlier
    position. So v is kept when the prefix passes that test at k, and each
    prefix that reaches length n is counted. A permutation that passes at
    every position is an involution, and every involution passes; a value
    that fails cuts only permutations that fail. Each of the n! permutations
    is one path from the root, so each is decided once: counted at its leaf,
    or rejected at the first position that fails.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_MAX:
        raise ValueError(f"enumeration capped at n = {ENUMERATION_MAX}")
    p = [0] * n
    free = [True] * n

    def search(k: int) -> int:
        """Involutions among the permutations that extend p[:k]."""
        if k == n:
            return 1
        count = 0
        for v in range(n):
            if free[v] and (p[v] == k if v < k else free[k]):
                p[k] = v
                free[v] = False
                count += search(k + 1)
                free[v] = True
        return count

    return search(0)


def check_involution_identity(
    max_n: int, a_values: Optional[Sequence[int]] = None
) -> CheckResult:
    """Confirm a_n equals the enumerated involution count for 0 <= n <= max_n."""
    from .checks import _involutions, _run  # checks imports this module

    return _run([_involutions(VerifyConfig(oracle_max=max_n))], a_values)[0]
