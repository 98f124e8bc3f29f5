"""Mechanical verification sweeps over the sequence table.

Each check scans an index range with exact arithmetic and returns a
CheckResult; a counterexample is an (n, detail) pair. Most checks are steps
of a walk over one stream, the rows or the companion values: a step reads
row n, or a_n, together with at most the eight items before it. One driver,
_run, runs every check, for run_all (what the command line drives) and for
each public check_* alike. It chains two walks: it walks the values once,
derives the rows once from what that walk yields, walks them once, and then
finishes the values walk; it keeps only the leading values that the checks
reading whole prefixes need. A check's tail reads only those leading values,
so in a run of two or more checks, where os.fork exists, each tail is read
in forked children while the walks go on, one child for each of its parts;
a child is listed on its sweep from fork to reap. A run of one check reads
its tail in process, and so does a run whose fork fails. Either way the
results are the same. Checks accept precomputed a_values/rows so callers can
feed deliberately corrupted data and confirm the sweeps catch it; a check
given values and no rows reads the rows derived from those values.

This module owns that protocol: the sweep (_Sweep, with Hit, Step, Tail and
MAX_COUNTEREXAMPLES), the walk, the forked tails and the driver. Every check's
sweep is built here, involutions' too, whose public check_involution_identity
stays in involutions and runs through _run like the rest. Every sweep
factory takes the VerifyConfig and reads its own fields off it; run_all
hands it the run's config, and each public check_* builds one from its own
arguments.
"""

import os
import random
from collections import deque
from contextlib import suppress
from fractions import Fraction
from itertools import chain, islice
from math import gcd, prod
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .exact import primes_upto
from .involutions import ENUMERATION_MAX, count_involutions_enum
from .report import CheckResult, VerifyConfig, decimal_text
from .sequences import (
    SeqRow,
    _derive_rows,
    _log2_exact,
    a_iter,
    a6_step,
    d_closed,
    e_closed,
    q_step,
)
from .series import convolutions, expected_convolution, series_identity_parts

# The divisibility mechanism behind the gcd upper bound needs a_0..a_{2n},
# so it is capped independently of the main range.
DEFAULT_MECHANISM_HI = 600

# sign_flip draws this many random (x, n) samples.
SIGN_FLIP_SAMPLES = 1000

# congruence recomputes its congruence from full-precision values up to here.
CROSS_LIMIT = 200

# The gap filter compares the leading bits of x_num and x_den, about this many.
_FILTER_BITS = 96

# A step reads item n and the eight items before it at most: the six-step
# recurrences tie n to n - 4 and n - 8.
_WINDOW = 9

# A failing sweep reports at most this many witnesses; more adds no signal.
MAX_COUNTEREXAMPLES = 25

Hit = Optional[tuple[int, str]]
Step = Callable[[int, Sequence], Hit]
Tail = Callable[[Sequence[int]], Iterable[tuple[int, str]]]


class _Sweep:
    """One check: its steps over a walk, then the counterexamples its tail
    reads off the leading companion values.

    A step (first, last, step) is called as step(n, window) at each index
    first <= n <= last of the walk, with window[-1] item n and window[-1-k]
    item n-k (k <= 8); it returns an (n, detail) counterexample or None. `rows`
    says whether the walk is over rows or over the companion values. Each
    step's counterexamples follow those of the steps before it, and those of
    the tail follow them all. The tail is `parts`, a tuple of callables, empty
    for none: part(values) iterates over counterexamples read off the leading
    values that result() is handed. The parts' counterexamples follow one
    another in order, and no part reads anything of another, so each can be
    read apart: `forked` lists the children (_ForkedTail) that _run started,
    one for each part, each listed from fork to reap, and is empty when the
    tail is read in process. MAX_COUNTEREXAMPLES are kept; a step whose finds
    could no longer be kept is not called again, and the tail is read no
    further than needed: a part is not called before the parts ahead of it
    are read out.

    The sweep reads the companion values a_0..a_{R-1} with R = max(need,
    prefix). `need` is how far the walk goes: one past the last index a step
    reads; the walk checks that its input reaches it. `prefix` is how many
    leading values the parts read; result() checks that it is handed them,
    even when no part is read. A range that ends before n = 0 is rejected when
    the sweep is built.
    """

    def __init__(self, name: str, lo: int, hi: int, *steps: tuple[int, int, Step], rows: bool = True,
                 parts: tuple[Tail, ...] = (), prefix: int = 0) -> None:
        if hi < 0:
            raise ValueError(f"{name} ends at n = {hi}, before n = 0")
        self.name, self.lo, self.hi, self.rows = name, lo, hi, rows
        self.parts, self.prefix = parts, prefix
        self.steps = [(first, last, step, []) for first, last, step in steps]
        self.need = max((last + 1 for _, last, _ in steps), default=0)
        self.seconds = 0.0
        self.forked: list[_ForkedTail] = []

    def result(self, values: Sequence[int] = ()) -> CheckResult:
        """The check's result, the tail reading the given leading values, or
        read in the sweep's children where it has any; reading it counts toward
        the elapsed time, a child's as the seconds the child took."""
        if len(values) < self.prefix:
            raise ValueError(f"{self.name} reads a_0..a_{self.prefix - 1}; the input stops at {len(values) - 1}")
        reads = [tail.read() for tail in self.forked]  # before the clock: the wait is in the children's seconds
        start = perf_counter()
        reads = reads or [(chain.from_iterable(part(values) for part in self.parts), 0.0)]
        found = (found for _, _, _, found in self.steps)
        cex = list(islice(chain(*found, *(hits for hits, _ in reads)), MAX_COUNTEREXAMPLES))
        ms = int((self.seconds + sum(seconds for _, seconds in reads) + perf_counter() - start) * 1000)
        return CheckResult(self.name, self.lo, self.hi, cex, ms)


def _walk(items: Iterable, sweeps: list[_Sweep]) -> Iterator:
    """Walk one stream: yield item n, then hand it, in a window with up to
    eight items before it, to the sweeps' steps (see _Sweep); the time the
    steps take adds to each sweep's seconds. Item n is yielded before its
    steps run, so whatever the consumer builds from it is built first: _run
    derives row n from value n, and walks it, before the value steps at n
    run. Every item is walked, None too, so a step meets whatever the caller
    passed. Raises ValueError, "<check> reads indices 0..k; the input stops
    at m", where the stream ends before the last index k a sweep reads."""
    window = deque(maxlen=_WINDOW)
    end = 0
    for n, item in enumerate(items):
        window.append(item)
        yield item
        end = n + 1
        start = perf_counter()
        for sweep in sweeps:
            kept = 0
            for first, last, step, found in sweep.steps:
                kept += len(found)
                if kept >= MAX_COUNTEREXAMPLES:
                    break
                if first <= n <= last:
                    hit = step(n, window)
                    if hit is not None:
                        found.append(hit)
                        kept += 1
            now = perf_counter()
            sweep.seconds += now - start
            start = now
    for sweep in sweeps:
        if end < sweep.need:
            raise ValueError(f"{sweep.name} reads indices 0..{sweep.need - 1}; the input stops at {end - 1}")


def _gap_certainly_inside(n: int, p: int, q: int) -> bool:
    """True only if (n-1) q^2 < p(p-q) < n q^2, decided on the leading bits.

    With s = max(bitlen(q) - 96, 0), ph = p >> s and qh = q >> s, the dropped
    bits add less than c = 1 to each of ph and qh when s > 0 and nothing when
    s = 0, so for q > 0, x = p/q lies in [ph/(qh+c), (ph+c)/qh], strictly
    inside where c = 1. Where ph >= qh + 1 that whole interval lies above
    1 > 1/2, where x^2 - x is increasing, so (n-1, n) holds x^2 - x if it holds
    the values at both ends; the two products below compare those. False
    means undecided, never that the row fails.
    """
    s = max(q.bit_length() - _FILTER_BITS, 0)
    c = 1 if s else 0
    ph, qh = p >> s, q >> s
    return (
        qh >= 1
        and ph >= qh + 1
        and (n - 1) * (qh + c) * (qh + c) < ph * (ph - qh - c)
        and (ph + c) * (ph + c - qh) < n * qh * qh
    )


def _gap_side(n: int, p: int, q: int) -> int:
    """-1, 0 or 1 as p(p-q) <= (n-1) q^2, lies strictly between, or >= n q^2.

    For x = p/q that places x^2 - x against (n-1, n): the quadratic gap. It is
    also the x window: with t = 2p - q, t^2 = 4 p(p-q) + q^2, so
    t^2 <= (4n-3) q^2 exactly when p(p-q) <= (n-1) q^2, and t^2 >= (4n+1) q^2
    exactly when p(p-q) >= n q^2. The filter decides nearly every row; the
    exact comparison decides the rest.
    """
    if _gap_certainly_inside(n, p, q):
        return 0
    g, qq = p * (p - q), q * q
    if g <= (n - 1) * qq:
        return -1
    return 1 if g >= n * qq else 0


def _x_bounds(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        p, q = w[-1].x_num, w[-1].x_den
        if q < 0:  # x_den carries a_{n-1}'s sign: move it into p
            p, q = -p, -q
        side = -1 if 2 * p <= q else _gap_side(n, p, q)
        if side < 0:
            return n, f"x({n}) = {decimal_text(w[-1].x)} is not above (1+sqrt({4*n-3}))/2"
        if side > 0:
            return n, f"x({n}) = {decimal_text(w[-1].x)} is not below (1+sqrt({4*n+1}))/2"

    return _Sweep("x_bounds", 4, c.max_n, (4, c.max_n, step))


def check_x_bounds(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """(1 + sqrt(4n-3))/2 < x_n < (1 + sqrt(4n+1))/2, strictly, for n >= 4.

    With x = p/q and t = 2p - q, x > (1 + sqrt(m))/2 means t > 0 and
    t^2 > m q^2 (the comparison cmp_shifted_sqrt makes). Given t > 0, both
    bounds are read off the quadratic gap's predicate (see _gap_side). The
    reduced denominator carries the sign of a_{n-1}, so the step first moves
    x's sign into p: both readings take q > 0.
    """
    return _run([_x_bounds(VerifyConfig(max_n=hi))], rows=rows)[0]


def _mod4_exclusion(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        if w[-1].x_den in (1, -1):
            return n, f"x({n}) = {decimal_text(w[-1].x)} is an integer"

    return _Sweep("mod4_exclusion", 4, c.max_n, (4, c.max_n, step))


def check_mod4_exclusion(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """No integer value of x_n is possible for n >= 4, and none occurs.

    If x_n were an integer, (2 x_n - 1)^2 would be an odd square strictly
    between 4n - 3 and 4n + 1, i.e. one of 4n - 2, 4n - 1, 4n; odd squares
    are 1 mod 4 and those three are 2, 3, 0 mod 4. That argument holds for
    every n, so what the sweep checks is its consequence: no reduced
    denominator is 1 or -1 (it carries the sign of a_{n-1}).
    """
    return _run([_mod4_exclusion(VerifyConfig(max_n=hi))], rows=rows)[0]


def _quadratic_gap(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        p, q = w[-1].x_num, w[-1].x_den
        if _gap_side(n, p, q):
            gap = Fraction(p * (p - q), q * q)  # x^2 - x
            return n, f"x({n})^2 - x({n}) = {decimal_text(gap)} escapes ({n-1}, {n})"

    return _Sweep("quadratic_gap", 4, c.max_n, (4, c.max_n, step))


def check_quadratic_gap(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """n - 1 < x_n^2 - x_n < n, strictly, for n >= 4."""
    return _run([_quadratic_gap(VerifyConfig(max_n=hi))], rows=rows)[0]


def _square_certainly_above(a: int, m: int) -> bool:
    """True only if a^2 > m, read off bit lengths: with L = bitlen(a),
    a^2 >= 2^(2L-2), and 2L - 1 > bitlen(m) makes that at least 2^bitlen(m) > m.
    False means undecided."""
    return 2 * a.bit_length() - 1 > m.bit_length()


def _sqrt_factorial(c: VerifyConfig) -> _Sweep:
    fact = 1  # n!

    def step(n: int, w: Sequence[int]) -> Hit:
        nonlocal fact
        if n:
            fact *= n
        if n > 1 and _square_certainly_above(w[-1], fact):
            return None
        sq = w[-1] * w[-1]
        if sq < fact:
            return n, f"a({n})^2 = {decimal_text(sq)} < {n}! "
        if sq > fact and n <= 1:
            return n, f"expected equality a({n})^2 = {n}! fails"

    return _Sweep("sqrt_factorial", 0, c.max_n, (0, c.max_n, step), rows=False)


def check_sqrt_factorial_lower(hi: int, a_values: Optional[Sequence[int]] = None) -> CheckResult:
    """a_n^2 >= n! for all n, with equality exactly at n = 0 and n = 1.

    From n = 2 on no int squares to n!: by Bertrand's postulate a prime in
    (n/2, n] divides n! exactly once. So past n = 1 the sweep checks only
    a_n^2 >= n!, and the tests carry that n! is not a square. From n = 2 on,
    a row whose bit lengths already prove a_n^2 > n! passes without
    squaring; every other row, and n <= 1, compares the square.

    The running n! is the one full-size factorial left in the walk, because
    the filter needs bitlen(n!) to within the orbit's margin: log2(a_n^2/n!)
    grows only about as 2.9 sqrt(n) bits. A closed-form bound such as
    n! <= 2^(sum of ceil(log2 k) over k <= n) is about 0.45 n bits loose and
    leaves every row from n = 20 to 3000 undecided.
    """
    return _run([_sqrt_factorial(VerifyConfig(max_n=hi))], a_values)[0]


def _congruence(c: VerifyConfig) -> _Sweep:
    prime_limit, n_limit = c.prime_limit, c.max_n
    if prime_limit < 0:
        raise ValueError(f"prime_limit must be nonnegative, got {prime_limit}")
    cross = min(CROSS_LIMIT, n_limit)

    def hits(a_values: Sequence[int]) -> Iterator[tuple[int, str]]:
        odd_primes = [p for p in primes_upto(min(prime_limit, n_limit)) if p > 2]
        # kept[n] starts as r_n, the product of the swept primes dividing n,
        # and becomes a_n mod r_n, read off a_n mod P (see check_congruence).
        kept = [1] * (n_limit + 1)
        for p in odd_primes:
            for n in range(p, n_limit + 1, p):
                kept[n] *= p
        product, prev, cur = prod(odd_primes), 0, 1  # a_{-1} = 0, as in a_iter
        for n in range(n_limit + 1):
            kept[n] = cur % kept[n]
            prev, cur = cur, (cur + n * prev) % product
        for p in odd_primes:
            for n in range(p, n_limit + 1, p):
                if kept[n] % p != 1:
                    yield n, f"a({n}) = {kept[n] % p} mod {p}, expected 1"
        for p in odd_primes:
            for n in range(p, cross + 1, p):
                if a_values[n] % p != 1:
                    yield n, f"full-precision a({n}) is not 1 mod {p}"

    return _Sweep("congruence", 3, n_limit, parts=(hits,), prefix=cross + 1)


def check_congruence(prime_limit: int, n_limit: int, a_values: Optional[Sequence[int]] = None) -> CheckResult:
    """a_n = 1 mod p whenever the odd prime p divides n.

    One sweep over n = 0..n_limit carries a_n modulo P, the product of the
    swept primes, and keeps a_n modulo r_n, the product of those dividing n.
    Each prime p dividing n divides r_n, which divides P, so a_n mod p is
    read off exactly. Counterexamples come by prime, then by n. The same
    congruence is then recomputed from full-precision values for n up to
    CROSS_LIMIT, so the modular sweep is not trusted blindly. Primes above
    n_limit divide no index in range, so they are not swept. Raises
    ValueError when a_values stop before the cross-check's last index.
    """
    return _run([_congruence(VerifyConfig(max_n=n_limit, prime_limit=prime_limit))], a_values)[0]


def _d_power_of_two(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        if _log2_exact(w[-1].d) is None:
            return n, f"d({n}) = {decimal_text(w[-1].d)} is not a power of two"

    return _Sweep("d_power_of_two", 1, c.max_n, (1, c.max_n, step))


def check_d_power_of_two(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """gcd(a_n, a_{n-1}) is a power of two for every n >= 1."""
    return _run([_d_power_of_two(VerifyConfig(max_n=hi))], rows=rows)[0]


def _d_upper(c: VerifyConfig) -> _Sweep:
    mech = min(c.max_n, DEFAULT_MECHANISM_HI)

    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        if w[-1].d > 1 << (n - 1):
            return n, f"d({n}) = {decimal_text(w[-1].d)} exceeds 2^{n-1}"

    def mechanism(a_values: Sequence[int]) -> Iterator[tuple[int, str]]:
        for n, lhs in enumerate(convolutions(1, mech, a_values), 1):
            want = expected_convolution(n)
            d = gcd(a_values[n + 1], a_values[n])  # of any signs; two zeros give 0, a non-divisor
            if lhs != want:
                yield n, f"alternating convolution at 2n = {2*n} is not (2n)!/n!"
            elif d == 0 or want % d:
                yield n, f"d({n+1}) does not divide the convolution value"

    return _Sweep("d_upper", 1, c.max_n, (1, c.max_n, step), parts=(mechanism,), prefix=max(2 * mech + 1, mech + 2))


def check_d_upper(
    hi: int, rows: Optional[Sequence[SeqRow]] = None, a_values: Optional[Sequence[int]] = None
) -> CheckResult:
    """d_n <= 2^{n-1}, plus the divisibility that forces the bound.

    The alternating convolution sum_{m+r=2n} (-1)^r C(2n,m) a_m a_r equals
    2^n (2n-1)!!, and d_{n+1} divides it; since d_{n+1} is a power of two and
    (2n-1)!! is odd, d_{n+1} <= 2^n follows. The mechanism needs a_0..a_{2n},
    so it runs to n = min(hi, DEFAULT_MECHANISM_HI), 600 at most, while the
    plain bound runs over the full range. The mechanism is a tail of one
    part, one range of series.convolutions, which a run of several checks
    reads in a child.
    Given a_values and no rows, the plain bound reads the rows derived from
    a_values.
    """
    return _run([_d_upper(VerifyConfig(max_n=hi))], a_values, rows)[0]


_FIRST_Q = (1, 1, 1, 1, 5, 13, 19, 29)


def _e_q(c: VerifyConfig) -> _Sweep:
    def per_row(n: int, w: Sequence[SeqRow]) -> Hit:
        row = w[-1]
        if row.e != e_closed(n):
            return n, f"v2(a({n})) = {row.e}, closed form gives {e_closed(n)}"
        if not row.q & 1:
            return n, f"odd part of a({n}) came out even"
        if (row.q << row.e) != row.a:
            return n, f"q({n}) * 2^e({n}) does not rebuild a({n})"
        if n < 8 and row.q != _FIRST_Q[n]:
            return n, f"q({n}) = {decimal_text(row.q)}, expected {_FIRST_Q[n]}"

    def recurrence(n: int, w: Sequence[SeqRow]) -> Hit:
        if w[-1].q != q_step(n - 6, w[-9].q, w[-5].q):
            return n, f"odd-part recurrence fails tying q({n-8}), q({n-4}), q({n})"

    return _Sweep("e_q", 0, c.max_n, (0, c.max_n, per_row), (8, c.max_n, recurrence))


def check_e_q(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """2-adic valuations, odd parts, and the odd-part recurrence.

    v2(a_n) must match the closed form (k, k, k+1, k+2 across n = 4k..4k+3),
    q_n = a_n / 2^{e_n} must be odd with the known first eight values
    1,1,1,1,5,13,19,29, and q_{n+6} = (n^2+9n+19) q_{n+2}
    - (n(n-1)(n+2)(n+5)/4) q_{n-2} must hold wherever it fits in range.
    """
    return _run([_e_q(VerifyConfig(max_n=hi))], rows=rows)[0]


def _d_formula(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        if w[-1].d != d_closed(n):
            return n, f"d({n}) = {decimal_text(w[-1].d)}, closed form gives {d_closed(n)}"

    return _Sweep("d_formula", 1, c.max_n, (1, c.max_n, step))


def check_d_formula(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """gcd(a_n, a_{n-1}) equals its closed form 2^k / 2^{k+1} by n mod 4."""
    return _run([_d_formula(VerifyConfig(max_n=hi))], rows=rows)[0]


def _quarter_bound(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        row = w[-1]
        k = _log2_exact(row.d)  # on the orbit d = 2^k: d^4 > 2^(n+1) is 4k > n+1, x_den * d a shift
        if (row.d ** 4 > 1 << (n + 1)) if k is None else 4 * k > n + 1:
            return n, f"d({n})^4 = {decimal_text(row.d ** 4)} exceeds 2^{n+1}"
        if (row.x_den * row.d if k is None else row.x_den << k) != w[-2].a:
            return n, f"D({n}) * d({n}) != a({n-1})"
        if n >= 4 and row.x_den <= 1:
            return n, f"x({n}) reduced denominator is {row.x_den}"

    return _Sweep("quarter_bound", 1, c.max_n, (1, c.max_n, step))


def check_quarter_bound_and_D(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """The gcd fourth-power bound and the reduced-denominator facts.

    For n >= 1: d_n^4 <= 2^{n+1} and x_den d_n = a_{n-1}. For n >= 4: x_den > 1,
    so no later value of x is an integer. For n >= 10: (n-1)! > 4^{n-1},
    which is what makes the fourth-power bound eventually crush d_n^4
    against a_{n-1}^2 >= (n-1)!; the inequality is genuinely false at n = 9.
    That fact is about n alone, so the sweep does not check it: the tests do.
    """
    return _run([_quarter_bound(VerifyConfig(max_n=hi))], rows=rows)[0]


def _parity(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        row = w[-1]
        if (not row.x_den & 1) != (n % 4 == 0):
            return n, (f"denominator {decimal_text(row.x_den)} has the wrong parity "
                       f"for n mod 4 = {n % 4}")
        if (not row.x_num & 1) != (n % 4 in (2, 3)):
            return n, (f"numerator {decimal_text(row.x_num)} has the wrong parity "
                       f"for n mod 4 = {n % 4}")

    return _Sweep("parity", 1, c.max_n, (1, c.max_n, step))


def check_parity(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """Reduced numerator/denominator parities follow n mod 4 exactly.

    For n >= 1: x_den is even iff n = 0 mod 4, and x_num is even iff
    n = 2 or 3 mod 4.
    """
    return _run([_parity(VerifyConfig(max_n=hi))], rows=rows)[0]


def _integrality(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[SeqRow]) -> Hit:
        if (w[-1].x_den in (1, -1)) != (n <= 3):
            what = "should be" if n <= 3 else "is unexpectedly"
            return n, f"x({n}) = {decimal_text(w[-1].x)} {what} an integer"

    return _Sweep("integrality", 0, c.max_n, (0, c.max_n, step))


def check_integrality(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """x_n is an integer exactly at n = 0, 1, 2, 3: its reduced denominator,
    which carries the sign of a_{n-1}, is 1 or -1 there and nowhere else."""
    return _run([_integrality(VerifyConfig(max_n=hi))], rows=rows)[0]


def _a6_relation(c: VerifyConfig) -> _Sweep:
    def step(n: int, w: Sequence[int]) -> Hit:  # the relation at m = n - 6 ends at a_n
        m = n - 6
        if w[-1] != a6_step(m, w[-9], w[-5]):
            return m, f"six-step recurrence fails tying a({m-2}), a({m+2}), a({m+6})"

    return _Sweep("a6_relation", 2, c.max_n, (8, c.max_n + 6, step), rows=False)


def check_a6_relation(hi: int, a_values: Optional[Sequence[int]] = None) -> CheckResult:
    """a_{n+6} = 2(n^2+9n+19) a_{n+2} - n(n-1)(n+2)(n+5) a_{n-2} for n >= 2."""
    return _run([_a6_relation(VerifyConfig(max_n=hi))], a_values)[0]


def _series(c: VerifyConfig) -> _Sweep:
    if c.series_order < 2:
        raise ValueError("order must be at least 2")

    def hits(a_values: Sequence[int]) -> Iterator[tuple[int, str]]:
        for part, idx in series_identity_parts(c.series_order, a_values).items():
            if idx is not None:
                yield idx, f"{part}: first discrepancy at index {idx}"

    return _Sweep("series", 0, c.series_order, parts=(hits,), prefix=c.series_order + 1)


def check_series_identities(order: int, a_values: Optional[Sequence[int]] = None) -> CheckResult:
    """All generating-function identities, coefficient by coefficient."""
    return _run([_series(VerifyConfig(series_order=order))], a_values)[0]


def _sign_flip(c: VerifyConfig) -> _Sweep:
    def hits(_: Sequence[int]) -> Iterator[tuple[int, str]]:
        rng = random.Random(c.seed)
        for i in range(1, SIGN_FLIP_SAMPLES + 1):
            p, q = rng.randint(1, 10**6), rng.randint(1, 10**6)
            n = rng.randint(1, 10**6)
            F = p + n * q  # f = F / p at x = p / q
            if F * F - F * p - n * p * p != -n * (p * p - p * q - n * q * q):
                yield i, f"identity fails at sample {i}: x = {Fraction(p, q)}, n = {n}"

    return _Sweep("sign_flip", 1, SIGN_FLIP_SAMPLES, parts=(hits,))


def check_sign_flip(seed: int = 0) -> CheckResult:
    """(f^2 - f - n) x^2 = -n (x^2 - x - n) for f = 1 + n/x, sampled randomly.

    The step map sends the sign of x^2 - x - n to its opposite, which is the
    algebra behind the quadratic gap; sampling SIGN_FLIP_SAMPLES random
    rationals x = p/q from the seed exercises it far outside the orbit of the
    actual sequence. Each sample is compared in ints, cleared of denominators:
    with F = p + n q, so that f = F/p, both sides times q^2 give
    F^2 - F p - n p^2 = -n (p^2 - p q - n q^2).
    """
    return _run([_sign_flip(VerifyConfig(seed=seed))])[0]


def _involutions(c: VerifyConfig) -> _Sweep:
    if c.oracle_max > ENUMERATION_MAX:
        raise ValueError(f"enumeration capped at n = {ENUMERATION_MAX}")

    def hits(a_values: Sequence[int]) -> Iterator[tuple[int, str]]:
        for n in range(c.oracle_max + 1):
            got = count_involutions_enum(n)
            if got != a_values[n]:
                yield n, f"enumerated {got} involutions but a({n}) = {decimal_text(a_values[n])}"

    return _Sweep("involutions", 0, c.oracle_max, parts=(hits,), prefix=c.oracle_max + 1)


# Every factory takes the config and reads its own fields off it. The registry
# is keyed by each sweep's own name, read off the sweep the default config builds.
_REGISTRY: dict[str, Callable[[VerifyConfig], _Sweep]] = {
    make(VerifyConfig()).name: make
    for make in (_x_bounds, _mod4_exclusion, _quadratic_gap, _sqrt_factorial, _congruence, _d_power_of_two,
                 _d_upper, _e_q, _d_formula, _quarter_bound, _parity, _integrality, _a6_relation, _series,
                 _involutions, _sign_flip)
}

CHECK_NAMES = sorted(_REGISTRY)


def _sweeps(config: VerifyConfig) -> list[_Sweep]:
    """The selected checks' sweeps, ordered by name; a bad config raises here."""
    names = CHECK_NAMES if config.checks is None else sorted(set(config.checks))
    unknown = [x for x in names if x not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return [_REGISTRY[name](config) for name in names]


def _replay(hits: list[tuple[int, str]], error: Optional[Exception]) -> Iterator[tuple[int, str]]:
    yield from hits
    if error is not None:
        raise error


class _ForkedTail:
    """One part of the named sweep's tail, read in a forked child from the
    given leading values. _run lists it on its sweep from fork to reap:
    result() reads it, and _close kills and reaps it unless read() has.

    The child lowers its own priority (os.nice(10)) so that the parent, whose
    walk is the critical path, is not kept waiting for a CPU by the children
    it started. It reads at most MAX_COUNTEREXAMPLES counterexamples, stopping
    at the exception the part raises if it does, and sends them, that
    exception and the seconds the reading took through a pipe; a child that
    waits for a CPU counts that wait in its seconds. Its whole body ends in
    os._exit, so it never returns into the caller's frames, runs no atexit
    handler and flushes no inherited buffer; it collects no garbage, so no
    inherited finalizer runs in it either.
    """

    def __init__(self, name: str, part: Tail, values: Sequence[int]) -> None:
        import gc
        import pickle  # here, so that the child imports nothing

        self.name = name
        read_end, write_end = os.pipe()
        self.pipe = open(read_end, "rb")
        try:
            pid = os.fork()
        except OSError:
            self.pipe.close()
            os.close(write_end)
            raise
        if pid == 0:
            code = 1
            try:
                self.pipe.close()
                gc.disable()
                with suppress(OSError):
                    os.nice(10)  # the parent's walk is the critical path: leave it the CPU
                start = perf_counter()
                hits, error = [], None
                try:
                    hits.extend(islice(part(values), MAX_COUNTEREXAMPLES))
                except Exception as raised:  # sent, and raised where the parent reads it
                    error = raised
                seconds = perf_counter() - start
                with open(write_end, "wb") as pipe:
                    pickle.dump((hits, error, seconds), pipe)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self.pid: Optional[int] = pid

    def read(self) -> tuple[Iterator[tuple[int, str]], float]:
        """The child's counterexamples, raising where the part raised, and the
        seconds it took; reaps the child."""
        import pickle

        with self.pipe:
            message = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status:
            raise RuntimeError(f"{self.name}: the child reading its tail exited without a result")
        hits, error, seconds = pickle.loads(message)
        return _replay(hits, error), seconds

    def close(self) -> None:
        """Close the pipe; kill and reap the child unless read() reaped it.
        Closing again does nothing."""
        import signal

        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _close(sweeps: list[_Sweep]) -> None:
    """Close the sweeps' children and unlist them, so that each sweep's tail
    is read in process."""
    for s in sweeps:
        for tail in s.forked:
            tail.close()
        s.forked.clear()


def _run(sweeps: list[_Sweep], a_values: Optional[Sequence[int]] = None,
         rows: Optional[Sequence[SeqRow]] = None) -> list[CheckResult]:
    """The sweeps' results: a walk over the values, a walk over the rows, and
    each sweep's tail on the leading values.

    The values are a_values, or the sequence's own when None; only the prefix
    that some sweep reads whole is kept. The two walks are chained, not run
    side by side: rows, when not given, are derived from what the values walk
    yields, the rows walk drains them, and then the values walk is drained to
    the furthest index a value step reads (a6_relation reads six values past
    the rows). Since the values walk yields each value before its steps run,
    each index still goes row derivation, row steps, value steps; where the
    input is too short, the values walk, which ends first, names its check.

    A run of two or more sweeps, where os.fork exists, starts each part of
    each tail that has its leading values in a child of its own (_ForkedTail)
    as soon as the prefix is built, and lists each child on its sweep from
    fork to reap, before the next fork; it walks meanwhile, and then each
    sweep's result() reads its children, their counterexamples in the order
    of the parts and under the one MAX_COUNTEREXAMPLES cap, and the sweep's
    seconds the sum of its parts' seconds. So the results, and the errors raised, are those of
    reading every tail in process, as a run of one sweep does. A fork (or
    pipe) that fails with OSError kills and reaps the children already
    started and unlists them, and then every tail is read in process. Every
    child is reaped and unlisted before _run returns or raises; an error or
    an interrupt kills the children not yet read.
    """
    source = iter(a_values) if a_values is not None else a_iter()
    prefix = list(islice(source, max([0] + [s.prefix for s in sweeps])))
    on_rows = [s for s in sweeps if s.steps and s.rows]
    on_values = [s for s in sweeps if s.steps and not s.rows]
    derive = rows is None and on_rows
    walked = max([0] + [s.need for s in on_rows])
    ahead = max([walked if derive else 0] + [s.need for s in on_values])
    values = _walk(chain(prefix, islice(source, max(0, ahead - len(prefix)))), on_values)
    try:
        if len(sweeps) > 1 and hasattr(os, "fork"):
            try:
                for s in sweeps:
                    if len(prefix) >= s.prefix:
                        for part in s.parts:  # each child is listed before the next fork
                            s.forked.append(_ForkedTail(s.name, part, prefix))
            except OSError:  # no pipe or no process to be had: read every tail in process
                _close(sweeps)
        if derive:
            rows = _derive_rows(values)
        deque(_walk(islice(rows or (), walked), on_rows), 0)
        deque(values, 0)  # the rest of the values walk: a6_relation reads past the rows
        return [s.result(prefix) for s in sweeps]
    finally:
        _close(sweeps)


def required_length(config: VerifyConfig) -> int:
    """How many companion values (a_0..a_{N-1}) a run of this config reads: the
    furthest any selected sweep reads, and at least 1. A run given fewer raises
    the ValueError of a check that reads past them."""
    return max([1] + [max(s.need, s.prefix) for s in _sweeps(config)])


def run_all(config: VerifyConfig, a_values: Optional[Sequence[int]] = None) -> list[CheckResult]:
    """Run the selected checks and return their results, ordered by name.

    a_values, when given, replaces the internally computed sequence for every
    check that consumes companion values or rows. Input that stops before
    required_length(config) entries raises the ValueError of a check that
    reads past it, naming the check and where the input stops, as a lone
    check_* call does. The rows are derived once and walked once, in step
    with the values, through every selected sweep (see _run).
    """
    return _run(_sweeps(config), a_values)
