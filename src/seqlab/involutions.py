"""Brute-force involution counting, independent of every formula here.

An involution on {0..n-1} is a permutation equal to its own inverse. The
count of involutions obeys the same recurrence as the companion sequence
a_n (choose whether element n is fixed or swapped with one of n-1 others),
so exhaustive enumeration gives an oracle for a_n that shares no code with
the recurrence, the closed form, or the generating function. Every one of
the n! permutations is drawn from itertools.permutations and decided by the
definition p[p[i]] = i alone. Python reads the first tuple of a
lexicographic block and decides the whole block by it; itertools.islice
drains in C the rest of each block that holds no involution.

The check built on it, check_involution_identity, runs through the one driver
in checks, like every other check; its sweep, _involutions, lives there too.
"""

from itertools import islice, permutations
from math import factorial
from typing import Optional, Sequence

from .report import CheckResult, VerifyConfig

# 10! = 3628800 permutations enumerate in about a tenth of a second: all of
# them are drawn in C, and Python reads only 59974 of them, the first tuples
# of the blocks it decides. 11! does not stay cheap, and nothing in the
# package needs it.
ENUMERATION_MAX = 10


def count_involutions_enum(n: int) -> int:
    """Count involutions on n elements by deciding all n! permutations.

    permutations() emits them in lexicographic order, so after a prefix
    p[:k] the next (n-k)! tuples all share it, and within them each value of
    p[k] holds a block of (n-k-1)!. Whether a permutation can be an
    involution at position k depends only on p[:k+1]: p[k] < k needs
    p[p[k]] == k, and otherwise k must not occur in p[:k], for then p[k]
    would have to be that earlier position. A tuple that passes at every
    position is an involution, and every involution passes. So the walk reads
    the first tuple of each block, walks a block that passes one position
    deeper, and drains the other (n-k-1)! - 1 tuples of a block that fails
    in C. Each block takes exactly its own size from the stream, so the walk
    stays aligned with it and every tuple is drawn once.

    A stream that ends early or runs on past n! tuples raises RuntimeError,
    not a count, and never lets StopIteration out.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_MAX:
        raise ValueError(f"enumeration capped at n = {ENUMERATION_MAX}")
    perms = permutations(range(n))
    rest = [factorial(n - k - 1) - 1 for k in range(n)]

    def walk(k: int, p: tuple[int, ...]) -> int:
        """Involutions among the (n-k)! tuples sharing p[:k], p their first."""
        if k == n:
            return 1
        count = 0
        for j in range(n - k):
            if j:
                p = next(perms)
            v = p[k]
            if p[v] == k if v < k else k not in p[:k]:
                count += walk(k + 1, p)
            elif rest[k]:
                # No default: a stream that ends inside the block raises.
                next(islice(perms, rest[k] - 1, None))
        return count

    try:
        count = walk(0, next(perms))
    except StopIteration:
        raise RuntimeError(f"permutations() ended before {n}! tuples") from None
    if next(perms, None) is not None:
        raise RuntimeError(f"permutations() ran on past {n}! tuples")
    return count


def check_involution_identity(
    max_n: int, a_values: Optional[Sequence[int]] = None
) -> CheckResult:
    """Confirm a_n equals the enumerated involution count for 0 <= n <= max_n."""
    from .checks import _involutions, _run  # checks imports this module

    return _run([_involutions(VerifyConfig(oracle_max=max_n))], a_values)[0]
