"""Mechanical verification sweeps over the sequence table.

Each check scans an index range with exact arithmetic and returns a
CheckResult; a counterexample is an (n, detail) pair. run_all wires the
checks to a VerifyConfig, shares one computed table across them, and is what
the command line drives. Checks accept precomputed a_values/rows so callers
can feed deliberately corrupted data and confirm the sweeps catch it.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exact import gcd, primes_upto
from .involutions import check_involution_identity
from .report import CheckResult, VerifyConfig, decimal_text, finish_check
from .sequences import (
    SeqRow,
    _log2_exact,
    a_mod,
    a_seq,
    a6_step,
    d_closed,
    e_closed,
    integer_indices,
    q_step,
    rows_from_a,
)
from .series import convolution_lhs, expected_convolution, series_identity_parts

# A failing sweep reports at most this many witnesses; more adds no signal.
MAX_COUNTEREXAMPLES = 25

# The divisibility mechanism behind the gcd upper bound needs a_0..a_{2n},
# so it is capped independently of the main range.
DEFAULT_MECHANISM_HI = 600

# The gap filter compares the leading bits of x_num and x_den, about this many.
_FILTER_BITS = 96


def _rows(hi: int, rows: Optional[Sequence[SeqRow]]) -> Sequence[SeqRow]:
    if rows is None:
        rows = rows_from_a(a_seq(hi))
    if len(rows) < hi + 1:
        raise ValueError("rows do not cover the requested range")
    return rows


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


def check_x_bounds(lo: int, hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """(1 + sqrt(4n-3))/2 < x_n < (1 + sqrt(4n+1))/2, strictly, for n >= 4.

    With x = p/q and t = 2p - q, x > (1 + sqrt(m))/2 means t > 0 and
    t^2 > m q^2 (the comparison cmp_shifted_sqrt makes). Given t > 0, both
    bounds are read off the quadratic gap's predicate (see _gap_side).
    """
    start = time.monotonic()
    if lo < 4:
        raise ValueError("the strict bounds start at n = 4")
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    for n in range(lo, hi + 1):
        p, q = rows[n].x_num, rows[n].x_den
        side = -1 if 2 * p <= q else _gap_side(n, p, q)
        if side:
            x = decimal_text(rows[n].x)
            if side < 0:
                cex.append((n, f"x({n}) = {x} is not above (1+sqrt({4*n-3}))/2"))
            else:
                cex.append((n, f"x({n}) = {x} is not below (1+sqrt({4*n+1}))/2"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return finish_check("x_bounds", lo, hi, cex, start)


def check_mod4_exclusion(lo: int, hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """No integer value of x_n is possible for n >= 4, and none occurs.

    If x_n were an integer, (2 x_n - 1)^2 would be an odd square strictly
    between 4n - 3 and 4n + 1, i.e. one of 4n - 2, 4n - 1, 4n; odd squares
    are 1 mod 4 and those three are 2, 3, 0 mod 4. That argument holds for
    every n, so what the sweep checks is its consequence: every reduced
    denominator exceeds 1.
    """
    start = time.monotonic()
    if lo < 4:
        raise ValueError("the exclusion argument starts at n = 4")
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    for n in range(lo, hi + 1):
        if rows[n].x_den == 1:
            cex.append((n, f"x({n}) = {decimal_text(rows[n].x)} is an integer"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
    return finish_check("mod4_exclusion", lo, hi, cex, start)


def check_quadratic_gap(lo: int, hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """n - 1 < x_n^2 - x_n < n, strictly, for n >= 4."""
    start = time.monotonic()
    if lo < 4:
        raise ValueError("the strict gap starts at n = 4")
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    for n in range(lo, hi + 1):
        p, q = rows[n].x_num, rows[n].x_den
        if _gap_side(n, p, q):
            gap = Fraction(p * (p - q), q * q)  # x^2 - x
            cex.append((n, f"x({n})^2 - x({n}) = {decimal_text(gap)} escapes ({n-1}, {n})"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
    return finish_check("quadratic_gap", lo, hi, cex, start)


def _square_certainly_above(a: int, m: int) -> bool:
    """True only if a^2 > m, read off bit lengths: with L = bitlen(a),
    a^2 >= 2^(2L-2), and 2L - 1 > bitlen(m) makes that at least 2^bitlen(m) > m.
    False means undecided."""
    return 2 * a.bit_length() - 1 > m.bit_length()


def check_sqrt_factorial_lower(hi: int, a_values: Optional[Sequence[int]] = None) -> CheckResult:
    """a_n^2 >= n! for all n, with equality exactly at n = 0 and n = 1.

    From n = 2 on, a row whose bit lengths already prove a_n^2 > n! passes
    without squaring; every other row, and n <= 1, compares the square.
    """
    start = time.monotonic()
    if a_values is None:
        a_values = a_seq(hi)
    cex: list[tuple[int, str]] = []
    fact = 1
    for n in range(hi + 1):
        if n:
            fact *= n
        if n > 1 and _square_certainly_above(a_values[n], fact):
            continue
        sq = a_values[n] * a_values[n]
        if sq < fact:
            cex.append((n, f"a({n})^2 = {decimal_text(sq)} < {n}! "))
        elif sq == fact and n > 1:
            cex.append((n, f"unexpected equality a({n})^2 = {n}!"))
        elif sq > fact and n <= 1:
            cex.append((n, f"expected equality a({n})^2 = {n}! fails"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return finish_check("sqrt_factorial", 0, hi, cex, start)


def check_congruence(
    prime_limit: int,
    n_limit: int,
    a_values: Optional[Sequence[int]] = None,
    cross_limit: int = 200,
) -> CheckResult:
    """a_n = 1 mod p whenever the odd prime p divides n.

    One modular sweep per prime covers the whole range cheaply; the same
    congruence is then recomputed from full-precision values for n up to
    cross_limit so the modular walk itself is not trusted blindly. Primes
    above n_limit divide no index in range, so they are not swept.
    """
    start = time.monotonic()
    cex: list[tuple[int, str]] = []
    odd_primes = [p for p in primes_upto(min(prime_limit, n_limit)) if p > 2]
    for p in odd_primes:
        residues = a_mod(n_limit, p)
        for n in range(p, n_limit + 1, p):
            if residues[n] != 1:
                cex.append((n, f"a({n}) = {residues[n]} mod {p}, expected 1"))
                if len(cex) >= MAX_COUNTEREXAMPLES:
                    return finish_check("congruence", 3, n_limit, cex, start)
    if a_values is not None:
        hi_cross = min(cross_limit, n_limit, len(a_values) - 1)
        for p in odd_primes:
            for n in range(p, hi_cross + 1, p):
                if a_values[n] % p != 1:
                    cex.append((n, f"full-precision a({n}) is not 1 mod {p}"))
                    if len(cex) >= MAX_COUNTEREXAMPLES:
                        return finish_check("congruence", 3, n_limit, cex, start)
    return finish_check("congruence", 3, n_limit, cex, start)


def check_d_power_of_two(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """gcd(a_n, a_{n-1}) is a power of two for every n >= 1."""
    start = time.monotonic()
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    for n in range(1, hi + 1):
        dn = rows[n].d
        if dn <= 0 or dn & (dn - 1):
            cex.append((n, f"d({n}) = {decimal_text(dn)} is not a power of two"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
    return finish_check("d_power_of_two", 1, hi, cex, start)


def check_d_upper(
    hi: int,
    rows: Optional[Sequence[SeqRow]] = None,
    a_values: Optional[Sequence[int]] = None,
    mechanism_hi: Optional[int] = None,
) -> CheckResult:
    """d_n <= 2^{n-1}, plus the divisibility that forces the bound.

    The alternating convolution sum_{m+r=2n} (-1)^r C(2n,m) a_m a_r equals
    2^n (2n-1)!!, and d_{n+1} divides it; since d_{n+1} is a power of two and
    (2n-1)!! is odd, d_{n+1} <= 2^n follows. The mechanism needs a_0..a_{2n},
    so it runs to mechanism_hi (default min(hi, 600)) while the plain bound
    runs over the full range.
    """
    start = time.monotonic()
    rows = _rows(hi, rows)
    if mechanism_hi is None:
        mechanism_hi = min(hi, DEFAULT_MECHANISM_HI)
    if a_values is None:
        a_values = a_seq(max(2 * mechanism_hi, mechanism_hi + 1))
    cex: list[tuple[int, str]] = []
    for n in range(1, hi + 1):
        if rows[n].d > 1 << (n - 1):
            cex.append((n, f"d({n}) = {decimal_text(rows[n].d)} exceeds 2^{n-1}"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                return finish_check("d_upper", 1, hi, cex, start)
    for n in range(1, mechanism_hi + 1):
        got = convolution_lhs(n, a_values)
        want = expected_convolution(n)
        if got != want:
            cex.append((n, f"alternating convolution at 2n = {2*n} is not (2n)!/n!"))
        elif want % gcd(a_values[n + 1], a_values[n]):
            cex.append((n, f"d({n+1}) does not divide the convolution value"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return finish_check("d_upper", 1, hi, cex, start)


def check_e_q(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """2-adic valuations, odd parts, and the odd-part recurrence.

    v2(a_n) must match the closed form (k, k, k+1, k+2 across n = 4k..4k+3),
    q_n = a_n / 2^{e_n} must be odd with the known first eight values
    1,1,1,1,5,13,19,29, and q_{n+6} = (n^2+9n+19) q_{n+2}
    - (n(n-1)(n+2)(n+5)/4) q_{n-2} must hold wherever it fits in range.
    """
    start = time.monotonic()
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    first_q = (1, 1, 1, 1, 5, 13, 19, 29)
    for n in range(hi + 1):
        row = rows[n]
        if row.e != e_closed(n):
            cex.append((n, f"v2(a({n})) = {row.e}, closed form gives {e_closed(n)}"))
        elif row.q % 2 == 0:
            cex.append((n, f"odd part of a({n}) came out even"))
        elif (row.q << row.e) != row.a:
            cex.append((n, f"q({n}) * 2^e({n}) does not rebuild a({n})"))
        elif n < 8 and row.q != first_q[n]:
            cex.append((n, f"q({n}) = {decimal_text(row.q)}, expected {first_q[n]}"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            return finish_check("e_q", 0, hi, cex, start)
    n = 2
    while n + 6 <= hi:
        want = q_step(n, rows[n - 2].q, rows[n + 2].q)
        if rows[n + 6].q != want:
            cex.append((n + 6, f"odd-part recurrence fails tying q({n-2}), q({n+2}), q({n+6})"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
        n += 1
    return finish_check("e_q", 0, hi, cex, start)


def check_d_formula(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """gcd(a_n, a_{n-1}) equals its closed form 2^k / 2^{k+1} by n mod 4."""
    start = time.monotonic()
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    for n in range(1, hi + 1):
        if rows[n].d != d_closed(n):
            cex.append((n, f"d({n}) = {decimal_text(rows[n].d)}, closed form gives {d_closed(n)}"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
    return finish_check("d_formula", 1, hi, cex, start)


def check_quarter_bound_and_D(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """The gcd fourth-power bound and the reduced-denominator facts.

    For n >= 1: d_n^4 <= 2^{n+1} and x_den d_n = a_{n-1}. For n >= 4: x_den > 1,
    so no later value of x is an integer. For n >= 10: (n-1)! > 4^{n-1},
    which is what makes the fourth-power bound eventually crush d_n^4
    against a_{n-1}^2 >= (n-1)!; the inequality is genuinely false at n = 9.
    """
    start = time.monotonic()
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    fact = 1  # (n-1)!
    power = 1  # 4^{n-1}
    for n in range(1, hi + 1):
        if n > 1:
            fact *= n - 1
            power *= 4
        row = rows[n]
        d4 = row.d ** 4
        k = _log2_exact(row.d)  # on the orbit d is 2^k, and x_den * d a shift
        if d4 > 1 << (n + 1):
            cex.append((n, f"d({n})^4 = {decimal_text(d4)} exceeds 2^{n+1}"))
        elif (row.x_den * row.d if k is None else row.x_den << k) != rows[n - 1].a:
            cex.append((n, f"D({n}) * d({n}) != a({n-1})"))
        elif n >= 4 and row.x_den <= 1:
            cex.append((n, f"x({n}) reduced denominator is {row.x_den}"))
        elif n >= 10 and fact <= power:
            cex.append((n, f"({n-1})! does not exceed 4^{n-1}"))
        elif n == 9 and fact >= power:
            cex.append((n, "the factorial bound should still fail at n = 9"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return finish_check("quarter_bound", 1, hi, cex, start)


def check_parity(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """Reduced numerator/denominator parities follow n mod 4 exactly.

    For n >= 1: x_den is even iff n = 0 mod 4, and x_num is even iff
    n = 2 or 3 mod 4.
    """
    start = time.monotonic()
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    for n in range(1, hi + 1):
        row = rows[n]
        if (row.x_den % 2 == 0) != (n % 4 == 0):
            cex.append((n, f"denominator {decimal_text(row.x_den)} has the wrong parity "
                            f"for n mod 4 = {n % 4}"))
        elif (row.x_num % 2 == 0) != (n % 4 in (2, 3)):
            cex.append((n, f"numerator {decimal_text(row.x_num)} has the wrong parity "
                            f"for n mod 4 = {n % 4}"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return finish_check("parity", 1, hi, cex, start)


def check_integrality(hi: int, rows: Optional[Sequence[SeqRow]] = None) -> CheckResult:
    """x_n is an integer exactly at n = 0, 1, 2, 3."""
    start = time.monotonic()
    rows = _rows(hi, rows)
    cex: list[tuple[int, str]] = []
    expected = [n for n in (0, 1, 2, 3) if n <= hi]
    got = integer_indices(rows[: hi + 1])
    for n in sorted(set(got) ^ set(expected)):
        x = decimal_text(rows[n].x)
        if n in got:
            cex.append((n, f"x({n}) = {x} is unexpectedly an integer"))
        else:
            cex.append((n, f"x({n}) = {x} should be an integer"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return finish_check("integrality", 0, hi, cex, start)


def check_a6_relation(hi: int, a_values: Optional[Sequence[int]] = None) -> CheckResult:
    """a_{n+6} = 2(n^2+9n+19) a_{n+2} - n(n-1)(n+2)(n+5) a_{n-2} for n >= 2."""
    start = time.monotonic()
    if a_values is None:
        a_values = a_seq(hi + 6)
    if len(a_values) < hi + 7:
        raise ValueError("need companion values through hi + 6")
    cex: list[tuple[int, str]] = []
    for n in range(2, hi + 1):
        if a_values[n + 6] != a6_step(n, a_values[n - 2], a_values[n + 2]):
            cex.append((n, f"six-step recurrence fails tying a({n-2}), a({n+2}), a({n+6})"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
    return finish_check("a6_relation", 2, hi, cex, start)


def check_series_identities(order: int, a_values: Optional[Sequence[int]] = None) -> CheckResult:
    """All generating-function identities, coefficient by coefficient."""
    start = time.monotonic()
    parts = series_identity_parts(order, a_values)
    cex: list[tuple[int, str]] = []
    for part, idx in parts.items():
        if idx is not None:
            cex.append((idx, f"{part}: first discrepancy at index {idx}"))
    return finish_check("series", 0, order, cex, start)


def check_sign_flip(seed: int = 0, samples: int = 1000) -> CheckResult:
    """(f^2 - f - n) x^2 = -n (x^2 - x - n) for f = 1 + n/x, sampled randomly.

    The step map sends the sign of x^2 - x - n to its opposite, which is the
    algebra behind the quadratic gap; sampling random rationals exercises it
    far outside the orbit of the actual sequence.
    """
    start = time.monotonic()
    rng = random.Random(seed)
    cex: list[tuple[int, str]] = []
    for i in range(1, samples + 1):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        n = rng.randint(1, 10**6)
        f = 1 + Fraction(n, 1) / x
        lhs = (f * f - f - n) * x * x
        rhs = -n * (x * x - x - n)
        if lhs != rhs:
            cex.append((i, f"identity fails at sample {i}: x = {x}, n = {n}"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
    return finish_check("sign_flip", 1, samples, cex, start)


@dataclass(frozen=True)
class _Check:
    """One registered check: whether it reads rows, how many companion values
    (a_0..a_{N-1}) it reads for a config, and how to run it."""

    needs_rows: bool
    need: Callable[[VerifyConfig], int]
    run: Callable[[VerifyConfig, Sequence[int], Optional[Sequence[SeqRow]]], CheckResult]


def _through_max_n(c: VerifyConfig) -> int:
    return c.max_n + 1


def _d_upper_need(c: VerifyConfig) -> int:
    mech = min(c.max_n, DEFAULT_MECHANISM_HI)
    return max(2 * mech + 1, mech + 2, c.max_n + 1)


_REGISTRY: dict[str, _Check] = {
    "x_bounds": _Check(True, _through_max_n, lambda c, a, r: check_x_bounds(4, c.max_n, r)),
    "mod4_exclusion": _Check(True, _through_max_n, lambda c, a, r: check_mod4_exclusion(4, c.max_n, r)),
    "quadratic_gap": _Check(True, _through_max_n, lambda c, a, r: check_quadratic_gap(4, c.max_n, r)),
    "sqrt_factorial": _Check(False, _through_max_n, lambda c, a, r: check_sqrt_factorial_lower(c.max_n, a)),
    "congruence": _Check(False, _through_max_n, lambda c, a, r: check_congruence(c.prime_limit, c.max_n, a)),
    "d_power_of_two": _Check(True, _through_max_n, lambda c, a, r: check_d_power_of_two(c.max_n, r)),
    "d_upper": _Check(True, _d_upper_need, lambda c, a, r: check_d_upper(c.max_n, r, a)),
    "e_q": _Check(True, _through_max_n, lambda c, a, r: check_e_q(c.max_n, r)),
    "d_formula": _Check(True, _through_max_n, lambda c, a, r: check_d_formula(c.max_n, r)),
    "quarter_bound": _Check(True, _through_max_n, lambda c, a, r: check_quarter_bound_and_D(c.max_n, r)),
    "parity": _Check(True, _through_max_n, lambda c, a, r: check_parity(c.max_n, r)),
    "integrality": _Check(True, _through_max_n, lambda c, a, r: check_integrality(c.max_n, r)),
    "a6_relation": _Check(False, lambda c: c.max_n + 7, lambda c, a, r: check_a6_relation(c.max_n, a)),
    "series": _Check(False, lambda c: c.series_order + 1,
                     lambda c, a, r: check_series_identities(c.series_order, a)),
    "involutions": _Check(False, lambda c: c.oracle_max + 1,
                          lambda c, a, r: check_involution_identity(c.oracle_max, a)),
    "sign_flip": _Check(False, lambda c: 1, lambda c, a, r: check_sign_flip(c.seed)),
}

CHECK_NAMES = sorted(_REGISTRY)


def _selected(config: VerifyConfig) -> list[str]:
    if config.checks is None:
        return list(CHECK_NAMES)
    names = sorted(set(config.checks))
    unknown = [x for x in names if x not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return names


def required_length(config: VerifyConfig) -> int:
    """How many companion values (a_0..a_{N-1}) a run of this config reads."""
    return max([1] + [_REGISTRY[name].need(config) for name in _selected(config)])


def run_all(config: VerifyConfig, a_values: Optional[Sequence[int]] = None) -> list[CheckResult]:
    """Run the selected checks and return their results, ordered by name.

    a_values, when given, replaces the internally computed sequence for every
    check that consumes companion values or rows; it must cover
    required_length(config) entries.
    """
    checks = [_REGISTRY[name] for name in _selected(config)]
    if a_values is None:
        a_values = a_seq(required_length(config) - 1)
    elif len(a_values) < required_length(config):
        raise ValueError("a_values too short for this configuration")
    rows = None
    if any(check.needs_rows for check in checks):
        rows = rows_from_a(a_values[: config.max_n + 1])
    return [check.run(config, a_values, rows) for check in checks]
