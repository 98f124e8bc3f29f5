import math
import random
import sys
import time
import tracemalloc
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlab import checks
from seqlab.checks import (
    CHECK_NAMES,
    MAX_COUNTEREXAMPLES,
    check_a6_relation,
    check_congruence,
    check_d_formula,
    check_d_power_of_two,
    check_d_upper,
    check_e_q,
    check_integrality,
    check_mod4_exclusion,
    check_parity,
    check_quadratic_gap,
    check_quarter_bound_and_D,
    check_series_identities,
    check_sign_flip,
    check_sqrt_factorial_lower,
    check_x_bounds,
    required_length,
    run_all,
    _gap_certainly_inside,
    _gap_side,
    _square_certainly_above,
)
from seqlab.exact import GREATER, LESS, SIEVE_LIMIT, cmp_shifted_sqrt, primes_upto
from seqlab.involutions import check_involution_identity
from seqlab.report import VerifyConfig
from seqlab.sequences import SeqRow, a_seq, e_closed, q_step, rows_from_a
from test_corpus import _corrupt
from test_involutions import plain_scan
from test_sequences import positive_ints

HI = 150


@pytest.fixture(scope="module")
def a150():
    # The convolution mechanism reads a_0..a_{2n}, so keep twice the range.
    return a_seq(2 * HI + 10)


@pytest.fixture(scope="module")
def rows150(a150):
    return rows_from_a(a150[: HI + 1])


def corrupted_rows(a150, index, factor):
    bad = list(a150[: HI + 1])
    bad[index] *= factor
    return rows_from_a(bad)


def test_all_checks_pass_on_clean_data(a150, rows150):
    assert check_x_bounds(HI, rows150).passed
    assert check_mod4_exclusion(HI, rows150).passed
    assert check_quadratic_gap(HI, rows150).passed
    assert check_sqrt_factorial_lower(HI, a150).passed
    assert check_congruence(97, HI, a150).passed
    assert check_d_power_of_two(HI, rows150).passed
    assert check_d_upper(HI, rows150, a150).passed
    assert check_e_q(HI, rows150).passed
    assert check_d_formula(HI, rows150).passed
    assert check_quarter_bound_and_D(HI, rows150).passed
    assert check_parity(HI, rows150).passed
    assert check_integrality(HI, rows150).passed
    assert check_a6_relation(HI, a150).passed
    assert check_series_identities(60, a150).passed
    assert check_sign_flip(seed=0).passed
    assert check_sign_flip(seed=123).passed


def test_x_bounds_catches_shifted_values(a150):
    rows = corrupted_rows(a150, 20, 3)
    result = check_x_bounds(HI, rows)
    assert not result.passed
    assert {n for n, _ in result.counterexamples} & {20, 21}


def test_x_bounds_reports_x_below_one_half(rows150):
    rows = list(rows150)
    rows[10] = replace(rows[10], x_num=1, x_den=3)
    result = check_x_bounds(HI, rows)
    assert result.counterexamples == [(10, "x(10) = 1/3 is not above (1+sqrt(37))/2")]


def _x_bounds_reference(lo, hi, rows):
    # cmp_shifted_sqrt compares x >= 1/2; a smaller x lies below every (1 + sqrt(m))/2.
    cex = []
    for n in range(lo, hi + 1):
        x = rows[n].x
        if 2 * x < 1 or cmp_shifted_sqrt(x, 4 * n - 3) is not GREATER:
            cex.append((n, f"x({n}) = {x} is not above (1+sqrt({4*n-3}))/2"))
        elif cmp_shifted_sqrt(x, 4 * n + 1) is not LESS:
            cex.append((n, f"x({n}) = {x} is not below (1+sqrt({4*n+1}))/2"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return cex


@st.composite
def rows_with_x_at_least_half(draw):
    """Rows 0..hi whose x = p/q >= 1/2 often sits on or next to a bound; p and
    q are negated together at some rows, as where a_{n-1} < 0."""
    rows = []
    for n in range(draw(st.integers(4, 60)) + 1):
        q = draw(st.integers(1, 10**6))
        m = draw(st.sampled_from([max(4 * n - 3, 0), 4 * n + 1]))
        # (2p - q)^2 = m q^2 on a bound; a square m (n = 7 or 6: m = 25) ties.
        near = (q + math.isqrt(m * q * q)) // 2
        p = draw(st.one_of(
            st.integers((q + 1) // 2, 10**7),
            st.integers(-2, 2).map(lambda k: max((q + 1) // 2, near + k)),
        ))
        sign = draw(st.sampled_from([1, -1]))
        rows.append(SeqRow(n, 1, sign * p, sign * q, 1, 0, 1))
    return rows


@given(rows_with_x_at_least_half())
# x(4) = -12/-5 = 12/5 lies inside (1+sqrt(13))/2 < x < (1+sqrt(17))/2.
@example([SeqRow(n, 1, 12, 5, 1, 0, 1) for n in range(4)] + [SeqRow(4, 1, -12, -5, 1, 0, 1)])
def test_x_bounds_agrees_with_cmp_shifted_sqrt(rows):
    hi = len(rows) - 1
    assert check_x_bounds(hi, rows).counterexamples == _x_bounds_reference(4, hi, rows)


def test_x_bounds_reads_the_sign_of_x_not_of_its_denominator():
    # Negating a_99 and a_100 leaves x(100) = a_100 / a_99 as it was; x(99)
    # and x(101), now negative, fall below the window.
    values = a_seq(120)
    values[99], values[100] = -values[99], -values[100]
    result = check_x_bounds(120, rows_from_a(values))
    assert [n for n, _ in result.counterexamples] == [99, 101]
    assert all("is not above" in detail for _, detail in result.counterexamples)


def _gap_side_reference(n, p, q):
    g, qq = p * (p - q), q * q
    return -1 if g <= (n - 1) * qq else 1 if g >= n * qq else 0


# q just below, at and just above the 96-bit cut of the gap filter, and with
# 1 to 400 bits.
filter_dens = st.one_of(
    st.integers(2**95 - 64, 2**95 + 64),
    st.integers(2**96 - 64, 2**96 + 64),
    st.integers(2**97 - 64, 2**97 + 64),
    st.integers(1, 400).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
)
gap_indices = st.one_of(st.integers(0, 6), st.integers(7, 10**6))


@st.composite
def gap_cases_at_the_ends(draw):
    """(n, p, q) with p/q within a few units of 1/q of an end of the window."""
    n, q = draw(gap_indices), draw(filter_dens)
    m = draw(st.sampled_from([max(4 * n - 3, 0), 4 * n + 1]))
    # (2p - q)^2 = m q^2 at an end; k moves p off it by k/q in x.
    return n, (q + math.isqrt(m * q * q)) // 2 + draw(st.integers(-3, 3)), q


@st.composite
def gap_cases_below_one_half(draw):
    """(n, p, q) with 0 <= p/q <= 1/2, where x^2 - x is not increasing."""
    n, q = draw(gap_indices), draw(filter_dens)
    return n, draw(st.integers(0, q // 2)), q


def _assert_gap_filter_and_fallback_exact(n, p, q):
    want = _gap_side_reference(n, p, q)
    if _gap_certainly_inside(n, p, q):
        assert want == 0
    assert _gap_side(n, p, q) == want


@settings(max_examples=500)
@given(gap_cases_at_the_ends())
# Past the 96-bit cut, where each end of the filter's interval needs its c:
# x just above the top end at n = 1, and just below the bottom end at n = 2.
@example((1, (2**96 + math.isqrt(5 * 2**192)) // 2 + 1, 2**96))
@example((2, (2**96 + 3 + math.isqrt(5 * (2**96 + 3) ** 2)) // 2 - 1, 2**96 + 3))
def test_gap_filter_is_exact_at_the_ends_of_the_window(case):
    _assert_gap_filter_and_fallback_exact(*case)


@given(st.one_of(
    gap_cases_below_one_half(),
    st.tuples(gap_indices, st.integers(2**200, 2**400), st.integers(1, 9)),  # huge p, tiny q
    st.tuples(st.integers(-5, 10), st.integers(-2**100, 2**100), st.integers(-2**100, 2**100)),
))
# x = 0 at n = 0 puts x^2 - x on the window's top end; only the ph >= qh + 1
# guard keeps the filter from calling it inside.
@example((0, 0, 2**96 + 1))
def test_gap_filter_is_exact_off_the_orbit(case):
    _assert_gap_filter_and_fallback_exact(*case)


def test_filters_never_fall_back_on_the_orbit():
    a_values = a_seq(3000)
    rows = rows_from_a(a_values)
    assert [n for n in range(4, 3001) if not _gap_certainly_inside(n, rows[n].x_num, rows[n].x_den)] == []
    fact, undecided = 1, []
    for n in range(2, 3001):
        fact *= n
        if not _square_certainly_above(a_values[n], fact):
            undecided.append(n)
    assert undecided == []


@st.composite
def square_cases(draw):
    """(a, m) with a^2 on or next to m, or with m next to a power of two."""
    k = draw(st.integers(0, 300))
    a = draw(st.one_of(st.just(1 << k), st.integers(1 << k, (2 << k) - 1), st.integers(0, 2**300)))
    j = draw(st.integers(-3, 3))
    m = draw(st.sampled_from([a * a + j, (1 << (2 * k)) + j, (1 << (2 * k + 1)) + j]))
    return a, max(m, 0)


@given(square_cases())
@example((4, 16))  # 2 bitlen(a) - 1 = bitlen(m) with a^2 = m: undecided, not above
def test_square_filter_is_exact_where_it_decides(case):
    a, m = case
    if _square_certainly_above(a, m):
        assert a * a > m


def _sqrt_factorial_reference(hi, a_values):
    cex, fact = [], 1
    for n in range(hi + 1):
        fact *= max(n, 1)
        sq = a_values[n] * a_values[n]
        if sq < fact:
            cex.append((n, f"a({n})^2 = {sq} < {n}! "))
        elif sq == fact and n > 1:
            cex.append((n, f"unexpected equality a({n})^2 = {n}!"))
        elif sq > fact and n <= 1:
            cex.append((n, f"expected equality a({n})^2 = {n}! fails"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return cex


@given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([0, 1, 2])), min_size=1, max_size=60))
def test_sqrt_factorial_matches_squaring_next_to_isqrt(steps):
    # a_n = isqrt(n!) + k, or a power of two a bit length away from n!'s.
    a_values = []
    for n, (k, kind) in enumerate(steps):
        root = math.isqrt(math.factorial(n))
        half = (math.factorial(n).bit_length() + kind) // 2
        a_values.append(max(root + k, 0) if kind == 0 else 1 << max(half + k, 0))
    hi = len(a_values) - 1
    assert check_sqrt_factorial_lower(hi, a_values).counterexamples == _sqrt_factorial_reference(hi, a_values)


# Each check that reads rows or companion values, on inputs that cover its
# range exactly (k = 0) or stop one item short (k = 1).
COVERAGE_CASES = {
    "x_bounds": lambda r, a, k: check_x_bounds(HI, r[: HI + 1 - k]),
    "mod4_exclusion": lambda r, a, k: check_mod4_exclusion(HI, r[: HI + 1 - k]),
    "quadratic_gap": lambda r, a, k: check_quadratic_gap(HI, r[: HI + 1 - k]),
    "sqrt_factorial": lambda r, a, k: check_sqrt_factorial_lower(HI, a[: HI + 1 - k]),
    "congruence": lambda r, a, k: check_congruence(97, HI, a[: HI + 1 - k]),
    "d_power_of_two": lambda r, a, k: check_d_power_of_two(HI, r[: HI + 1 - k]),
    "d_upper": lambda r, a, k: check_d_upper(HI, r[: HI + 1 - k], a),
    "d_upper_mechanism": lambda r, a, k: check_d_upper(HI, r, a[: 2 * HI + 1 - k]),
    "e_q": lambda r, a, k: check_e_q(HI, r[: HI + 1 - k]),
    "d_formula": lambda r, a, k: check_d_formula(HI, r[: HI + 1 - k]),
    "quarter_bound": lambda r, a, k: check_quarter_bound_and_D(HI, r[: HI + 1 - k]),
    "parity": lambda r, a, k: check_parity(HI, r[: HI + 1 - k]),
    "integrality": lambda r, a, k: check_integrality(HI, r[: HI + 1 - k]),
    "a6_relation": lambda r, a, k: check_a6_relation(HI, a[: HI + 7 - k]),
    "series": lambda r, a, k: check_series_identities(60, a[: 61 - k]),
    "involutions": lambda r, a, k: check_involution_identity(8, a[: 9 - k]),
}


def _spy_on_run(monkeypatch):
    """The names of the sweeps each call of checks._run is given."""
    reached, real_run = [], checks._run

    def spy(sweeps, *args, **kwargs):
        reached.append([s.name for s in sweeps])
        return real_run(sweeps, *args, **kwargs)

    monkeypatch.setattr(checks, "_run", spy)
    return reached


@pytest.mark.parametrize("name", sorted(COVERAGE_CASES))
def test_rows_must_cover_range(name, a150, rows150, monkeypatch):
    reached = _spy_on_run(monkeypatch)
    assert COVERAGE_CASES[name](rows150, a150, 0).passed
    sweep = "d_upper" if name == "d_upper_mechanism" else name
    assert reached == [[sweep]]  # each public check runs through the driver
    with pytest.raises(ValueError):
        COVERAGE_CASES[name](rows150, a150, 1)


def test_mod4_exclusion_catches_forced_integer(rows150):
    rows = list(rows150)
    rows[9] = replace(rows[9], x_den=1)
    result = check_mod4_exclusion(HI, rows)
    assert not result.passed
    assert result.counterexamples[0][0] == 9


def test_an_integer_x_over_minus_one_is_caught():
    # a_9 = -1 makes x(10) = a_10 / a_9 an integer whose reduced denominator
    # is -1.
    values = a_seq(HI)
    values[9] = -1
    rows = rows_from_a(values)
    assert (10, "x(10) = -9496 is an integer") in check_mod4_exclusion(HI, rows).counterexamples
    assert (10, "x(10) = -9496 is unexpectedly an integer") in check_integrality(HI, rows).counterexamples


def test_quadratic_gap_catches_planted_value(rows150):
    rows = list(rows150)
    rows[8] = replace(rows[8], x_num=3, x_den=1)
    result = check_quadratic_gap(HI, rows)
    assert not result.passed
    assert result.counterexamples[0][0] == 8


def test_sqrt_factorial_catches_small_value(a150):
    bad = list(a150[: HI + 1])
    bad[5] = 1
    result = check_sqrt_factorial_lower(HI, bad)
    assert not result.passed
    assert result.counterexamples[0][0] == 5


def test_sqrt_factorial_flags_wrong_equality():
    # a_2 = 2 gives 4 > 2! = 2; planting sqrt(2!) breaks the strictness side.
    result = check_sqrt_factorial_lower(2, [1, 1, 1])
    assert not result.passed


def test_congruence_cross_check_catches_drift(a150):
    bad = list(a150)
    bad[6] += 1  # 3 divides 6, and a_6 + 1 = 77 is 2 mod 3
    result = check_congruence(97, HI, bad)
    assert not result.passed
    assert result.counterexamples[0][0] == 6


def test_congruence_cross_checks_its_own_values(monkeypatch):
    # Given no values, the check computes a_0..a_{min(200, n_limit)} and
    # cross-checks them.
    def drifted():
        values = a_seq(40)
        values[6] += 1
        return iter(values)

    monkeypatch.setattr(checks, "a_iter", drifted)
    result = check_congruence(97, 40)
    assert result.counterexamples == [(6, "full-precision a(6) is not 1 mod 3")]


def test_congruence_trivial_without_odd_primes(a150):
    assert check_congruence(2, HI, a150).passed


def test_congruence_reads_each_listed_modulus_as_full_values_do(monkeypatch, a150):
    # The sweep reads a_n mod m for every modulus m it is handed, by m and
    # then by n, prime or not: a_4 = 10 is 2 mod 4, and a_8 = 764 is 4 mod 8.
    moduli = [3, 4, 5, 8]
    monkeypatch.setattr(checks, "primes_upto", lambda limit: moduli)
    expected = [
        (n, f"a({n}) = {a150[n] % m} mod {m}, expected 1")
        for m in moduli for n in range(m, 41, m) if a150[n] % m != 1
    ] + [
        (n, f"full-precision a({n}) is not 1 mod {m}")
        for m in moduli for n in range(m, 41, m) if a150[n] % m != 1
    ]
    assert len(expected) > MAX_COUNTEREXAMPLES
    result = check_congruence(97, 40, a150)
    assert result.counterexamples == expected[:MAX_COUNTEREXAMPLES]


def test_congruence_sieves_no_further_than_the_range(monkeypatch, a150):
    limits = []

    def spy(limit):
        limits.append(limit)
        return primes_upto(limit)

    monkeypatch.setattr(checks, "primes_upto", spy)
    for prime_limit in (13, 97, SIEVE_LIMIT + 1):
        assert check_congruence(prime_limit, 40, a150).passed
    assert limits == [13, 40, 40]


def test_d_power_of_two_catches_odd_factor(a150):
    rows = corrupted_rows(a150, 10, 5)
    result = check_d_power_of_two(HI, rows)
    assert not result.passed
    assert result.counterexamples[0][0] in (10, 11)


@pytest.mark.parametrize("d", [0, -4, 6])
def test_d_power_of_two_rejects_a_d_that_is_no_power_of_two(rows150, d):
    # d & (d - 1) alone would let d = 0 through: 0 & -1 is 0.
    rows = list(rows150)
    rows[10] = replace(rows[10], d=d)
    result = check_d_power_of_two(HI, rows)
    assert result.counterexamples == [(10, f"d(10) = {d} is not a power of two")]


def test_d_upper_catches_convolution_drift(a150):
    bad = list(a150)
    bad[30] += 2
    result = check_d_upper(40, rows_from_a(bad[:41]), bad)
    assert not result.passed
    assert any("convolution" in detail for _, detail in result.counterexamples)


def test_d_upper_reports_a_negative_value_instead_of_raising(a150):
    # A negated a_10 breaks the convolution at n = 5..9 and from 11 on; at
    # n = 10 the sign hides in the middle term a_10^2, so the divisibility
    # clause reads gcd(a_11, -a_10) = d(11), which divides (20)!/10!.
    bad = list(a150)
    bad[10] = -bad[10]
    result = check_d_upper(40, rows_from_a(a150[:41]), bad)
    assert not result.passed
    assert [n for n, _ in result.counterexamples] == [5, 6, 7, 8, 9, *range(11, 31)]


def test_d_upper_reports_two_zero_values_as_no_divisor(a150):
    # With a_2 = a_3 = 0 and a_0 a_4 = 6 the convolution holds at n = 2, and
    # gcd(a_3, a_2) = 0 divides no (2n)!/n!.
    result = check_d_upper(2, rows_from_a(a150[:3]), [1, 1, 0, 0, 6])
    assert result.counterexamples == [
        (1, "alternating convolution at 2n = 2 is not (2n)!/n!"),
        (2, "d(3) does not divide the convolution value"),
    ]


def _negated_at_10():
    """a_0..a_1200, enough for d_upper's mechanism at n = 600, with a_10 negated."""
    values = a_seq(1200)
    values[10] = -values[10]
    return values


def test_run_all_localizes_a_negated_value():
    # Rows are derived from values of either sign, so the sign reaches the
    # checks: each row check that sees it names n = 10.
    found = {r.name: [n for n, _ in r.counterexamples]
             for r in run_all(VerifyConfig(max_n=40, series_order=20), _negated_at_10())}
    for name in ("x_bounds", "quadratic_gap", "e_q", "congruence", "involutions"):
        assert 10 in found[name], name
    assert found["x_bounds"] == [10, 11]


def test_d_upper_fails_on_a_negated_value_given_without_rows():
    assert not check_d_upper(600, a_values=_negated_at_10()).passed


def test_run_all_names_a_zero_value():
    values = a_seq(1200)
    values[10] = 0
    with pytest.raises(ValueError, match="a_10 = 0"):
        run_all(VerifyConfig(max_n=40, series_order=20), values)


def test_d_upper_checks_its_values_reach_past_a_capped_walk(a150):
    # Every row from n = 1 on breaks the plain bound, so the walk holds 25
    # counterexamples and the mechanism is never read; three values still
    # cannot cover its a_0..a_200.
    rows = [replace(row, d=1 << 400) if row.n else row for row in rows_from_a(a150[: HI + 1])]
    with pytest.raises(ValueError, match="a_0..a_200"):
        check_d_upper(100, rows, a_values=[1, 1, 2])


def test_d_upper_reads_the_rows_of_its_values():
    # Given values and no rows, the plain bound reads the rows derived from
    # them, as run_all does: d(10) = gcd(5 << 20, 3 << 20) = 2^20.
    bad = a_seq(80)
    bad[9], bad[10] = 3 << 20, 5 << 20
    result = check_d_upper(40, a_values=bad)
    assert (10, "d(10) = 1048576 exceeds 2^9") in result.counterexamples


def test_e_q_catches_parity_break(a150):
    bad = list(a150[: HI + 1])
    bad[12] += 1
    result = check_e_q(HI, rows_from_a(bad))
    assert not result.passed
    assert result.counterexamples[0][0] == 12


def test_d_formula_catches_gcd_shift(a150):
    rows = corrupted_rows(a150, 10, 5)
    result = check_d_formula(HI, rows)
    assert not result.passed
    assert result.counterexamples[0][0] in (10, 11)


def test_quarter_bound_catches_broken_product(rows150):
    rows = list(rows150)
    rows[7] = replace(rows[7], x_den=rows[7].x_den + 1)
    result = check_quarter_bound_and_D(HI, rows)
    assert not result.passed
    assert result.counterexamples[0][0] == 7


def _quarter_bound_reference(hi, rows):
    cex = []
    for n in range(1, hi + 1):
        row = rows[n]
        if row.d ** 4 > 1 << (n + 1):
            cex.append((n, f"d({n})^4 = {row.d ** 4} exceeds 2^{n+1}"))
        elif row.x_den * row.d != rows[n - 1].a:
            cex.append((n, f"D({n}) * d({n}) != a({n-1})"))
        elif n >= 4 and row.x_den <= 1:
            cex.append((n, f"x({n}) reduced denominator is {row.x_den}"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return cex


@given(st.lists(positive_ints, min_size=2, max_size=40), st.data())
def test_quarter_bound_matches_multiplying_by_d(values, data):
    # Arbitrary values give gcds that are not powers of two; one x_den off by
    # one breaks x_den * d = a_{n-1} whatever d is.
    rows = rows_from_a(values)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(1, len(rows) - 1))
        rows[i] = replace(rows[i], x_den=rows[i].x_den + 1)
    hi = len(rows) - 1
    assert check_quarter_bound_and_D(hi, rows).counterexamples == _quarter_bound_reference(hi, rows)


@given(st.integers(1, 37), st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
@example(k=5, offset=0, nudge=0)  # d = 2^5 at n = 19: d^4 = 2^(n+1), not above it
@example(k=5, offset=-1, nudge=1)  # d = 33 at n = 20: x_den * d, not x_den << 5
def test_quarter_bound_decides_d4_at_the_boundary(rows150, k, offset, nudge):
    # d = 2^k at n with 4k = n + 1 + offset decides by 4k > n + 1; d = 2^k +- 1
    # is no power of two (for k > 1) and decides by d^4 > 2^(n+1).
    n = 4 * k - 1 - offset
    rows = list(rows150)
    rows[n] = replace(rows[n], d=(1 << k) + nudge)
    assert check_quarter_bound_and_D(HI, rows).counterexamples == _quarter_bound_reference(HI, rows)


def test_factorial_above_power_of_4_is_exact():
    # The fact behind quarter_bound's fourth-power bound, which reads no row
    # and so is checked here: (n-1)! > 4^(n-1) from n = 10 on, and not before.
    for m in [*range(301), 1000, 20000, 80000]:
        assert (math.factorial(m) > 4 ** m) == (m >= 9), m


def test_factorial_is_not_a_square():
    # Why sqrt_factorial checks no equality past n = 1: a prime in (n/2, n]
    # divides n! exactly once (Bertrand's postulate), so no int squares to it.
    for n in [*range(2, 301), 1000, 20000]:
        f = math.factorial(n)
        assert math.isqrt(f) ** 2 != f, n


def _e_q_reference(hi, rows):
    cex = []
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
            cex.append((n, f"q({n}) = {row.q}, expected {first_q[n]}"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            return cex
    n = 2
    while n + 6 <= hi:
        want = q_step(n, rows[n - 2].q, rows[n + 2].q)
        if rows[n + 6].q != want:
            cex.append((n + 6, f"odd-part recurrence fails tying q({n-2}), q({n+2}), q({n+6})"))
            if len(cex) >= MAX_COUNTEREXAMPLES:
                break
        n += 1
    return cex


# Corruptions of a_n: a_n + 2^(e_n+1) keeps v2 and an odd q, so only the
# odd-part recurrence sees it; the others also break the per-row facts.
E_Q_CORRUPTIONS = [
    lambda a: a + (a & -a) * 2,
    lambda a: a + 1,
    lambda a: a * 2,
    lambda a: a * 3,
    lambda a: max(a // 2, 1),
]


@st.composite
def corrupted_indices(draw, hi):
    """A few scattered indices in 0..hi, then a run of up to 80 of them, so
    that many inputs fail at more indices than the cap keeps."""
    start = draw(st.integers(0, hi))
    run = range(start, min(start + draw(st.integers(0, 80)), hi + 1))
    return draw(st.lists(st.integers(0, hi), max_size=8)) + list(run)


# Corruptions of a row's odd part q, made after the rows are derived: derived
# rows always rebuild a_n from an odd q, so only these reach the rows' own
# consistency facts. q * 2 is even; q + 2 stays odd but rebuilds another a_n.
Q_CORRUPTIONS = [lambda q: q * 2, lambda q: q + 2]


@st.composite
def e_q_cases(draw):
    """(hi, value corruptions, q corruptions), each corruption an (index, kind) pair."""
    hi = draw(st.integers(0, 120))
    values = [(i, draw(st.integers(0, len(E_Q_CORRUPTIONS) - 1))) for i in draw(corrupted_indices(hi))]
    qs = draw(st.lists(st.tuples(st.integers(0, hi), st.integers(0, len(Q_CORRUPTIONS) - 1)), max_size=4))
    return hi, values, qs


@given(e_q_cases())
@example((40, [], [(20, 0)]))  # q(20) even: "odd part of a(20) came out even" first
@example((40, [], [(21, 1)]))  # q(21) + 2: "q(21) * 2^e(21) does not rebuild a(21)" first
def test_e_q_matches_the_two_phase_loop(case):
    # Past the cap in either phase, or across both.
    hi, value_cuts, q_cuts = case
    values = a_seq(hi)
    for i, kind in value_cuts:
        values[i] = E_Q_CORRUPTIONS[kind](values[i])
    rows = rows_from_a(values)
    for i, kind in q_cuts:
        rows[i] = replace(rows[i], q=Q_CORRUPTIONS[kind](rows[i].q))
    assert check_e_q(hi, rows).counterexamples == _e_q_reference(hi, rows)


def test_e_q_recurrence_finds_follow_the_per_row_finds():
    values = a_seq(120)
    for i in range(10, 120, 3):
        values[i] += (values[i] & -values[i]) * 2
    values[100] += 1
    got = check_e_q(120, rows_from_a(values)).counterexamples
    assert got[0] == (100, "v2(a(100)) = 0, closed form gives 25")
    assert got[1][0] == 10 and len(got) == MAX_COUNTEREXAMPLES
    assert all("recurrence" in text for _, text in got[1:])


def test_parity_catches_shifted_value(a150):
    bad = list(a150[: HI + 1])
    bad[3] += 1
    result = check_parity(HI, rows_from_a(bad))
    assert not result.passed
    assert result.counterexamples[0][0] == 3


def test_integrality_catches_both_directions(rows150):
    rows = list(rows150)
    rows[6] = replace(rows[6], x_den=1)
    result = check_integrality(HI, rows)
    assert not result.passed
    assert result.counterexamples[0][0] == 6
    assert "unexpectedly" in result.counterexamples[0][1]

    bad = list(rows150)
    bad[2] = replace(bad[2], x_den=3)
    result = check_integrality(HI, bad)
    assert not result.passed
    assert result.counterexamples[0][0] == 2
    assert "should be" in result.counterexamples[0][1]


def _integrality_reference(hi, rows):
    cex = []
    expected = [n for n in (0, 1, 2, 3) if n <= hi]
    got = [row.n for row in rows[: hi + 1] if row.x_den in (1, -1)]
    for n in sorted(set(got) ^ set(expected)):
        x = rows[n].x
        if n in got:
            cex.append((n, f"x({n}) = {x} is unexpectedly an integer"))
        else:
            cex.append((n, f"x({n}) = {x} should be an integer"))
        if len(cex) >= MAX_COUNTEREXAMPLES:
            break
    return cex


@given(st.integers(0, 100), st.data())
def test_integrality_matches_the_symmetric_difference(hi, data):
    # x_den + 2 removes an integer at n <= 3; x_den = 1 or -1 plants one later.
    rows = rows_from_a(a_seq(hi))
    for i in data.draw(corrupted_indices(hi)):
        rows[i] = replace(rows[i], x_den=rows[i].x_den + 2 if i <= 3 else data.draw(st.sampled_from([1, -1])))
    assert check_integrality(hi, rows).counterexamples == _integrality_reference(hi, rows)


def test_a6_relation_catches_mutation_and_names_it(a150):
    bad = list(a150)
    bad[30] += 1
    result = check_a6_relation(40, bad)
    assert not result.passed
    assert all("a(30)" in detail for _, detail in result.counterexamples)


def test_a6_relation_needs_lookahead(a150):
    with pytest.raises(ValueError):
        check_a6_relation(HI + 20, a150[: HI + 21])


def test_series_check_names_the_index(a150):
    bad = list(a150)
    bad[15] += 6
    result = check_series_identities(60, bad)
    assert not result.passed
    assert any(n == 15 and "exp_closed_form" in detail for n, detail in result.counterexamples)


def _counting_sweep(calls, a_fails, b_range):
    """Step a fails where a_fails(n), step b at every index of b_range, and
    the tail yields without end; calls counts what each was asked for."""

    def step(name, fails):
        def run(n, window):
            calls[name] += 1
            return (n, name) if fails(n) else None
        return run

    def tail(values):
        while True:
            calls["tail"] += 1
            yield 0, "tail"

    return checks._Sweep("s", 0, 99, (0, 99, step("a", a_fails)),
                         (*b_range, step("b", lambda n: True)), tail=tail)


def test_a_capped_step_is_not_called_again():
    # a finds 10 in all; b stops once a and b together hold the cap, at n = 21,
    # and the tail is never read.
    calls = {"a": 0, "b": 0, "tail": 0}
    sweep = _counting_sweep(calls, lambda n: n % 10 == 0, (0, 99))
    deque(checks._walk(range(100), [sweep]), 0)
    texts = [text for _, text in sweep.result().counterexamples]
    assert (calls["a"], calls["b"], calls["tail"]) == (100, 22, 0)
    assert texts == ["a"] * 10 + ["b"] * 15
    # With 15 found on the walk, the tail is read for the 10 that fit.
    calls = {"a": 0, "b": 0, "tail": 0}
    sweep = _counting_sweep(calls, lambda n: n >= 90, (95, 99))
    deque(checks._walk(range(100), [sweep]), 0)
    texts = [text for _, text in sweep.result().counterexamples]
    assert (calls["a"], calls["b"], calls["tail"]) == (100, 5, 10)
    assert texts == ["a"] * 10 + ["b"] * 5 + ["tail"] * 10


def test_run_all_holds_no_table():
    # The row and value checks walk one row and nine values at a time; the
    # rows of the whole range would hold 40 times what the walk peaks at.
    walked = [name for name in CHECK_NAMES
              if name not in ("congruence", "d_upper", "involutions", "series", "sign_flip")]
    tracemalloc.start()
    try:
        rows = rows_from_a(a_seq(3000))
        held = tracemalloc.get_traced_memory()[0]
        del rows
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = run_all(VerifyConfig(max_n=3000, checks=walked))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results) and len(results) == 11
    assert peak < held / 4


def test_counterexamples_are_capped(a150, rows150):
    # Garbage everywhere: every index fails, but the report stays bounded.
    garbage = [1, 1] + [3] * (HI - 1)
    result = check_sqrt_factorial_lower(HI, garbage)
    assert not result.passed
    assert len(result.counterexamples) == MAX_COUNTEREXAMPLES
    # A tail's finds too: with a_1 off, d_upper's mechanism fails at every n.
    bad = list(a150)
    bad[1] += 1
    result = check_d_upper(HI, rows150, bad)
    assert [n for n, _ in result.counterexamples] == list(range(1, MAX_COUNTEREXAMPLES + 1))


@contextmanager
def _int_str_digits(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit")
def test_counterexample_texts_print_values_past_the_str_digit_limit(a150, rows150):
    big = 3 * 10**5000 + 1  # odd, 5001 digits
    with _int_str_digits(0):  # the texts as str() prints them, with no limit
        x = Fraction(big, 7)
        expected = {
            "x_bounds": f"x(10) = {x} is not below (1+sqrt(41))/2",
            "quadratic_gap": f"x(10)^2 - x(10) = {x * x - x} escapes (9, 10)",
            "mod4_exclusion": f"x(9) = {big} is an integer",
            "integrality": f"x(9) = {big} is unexpectedly an integer",
            "parity": f"denominator {big} has the wrong parity for n mod 4 = 0",
            "d_power_of_two": f"d(10) = {big} is not a power of two",
            "d_upper": f"d(10) = {big} exceeds 2^9",
            "d_formula": f"d(10) = {big}, closed form gives 4",
            "quarter_bound": f"d(10)^4 = {big ** 4} exceeds 2^11",
            "e_q": f"q(5) = {big}, expected 13",
            "involutions": f"enumerated 4 involutions but a(3) = {big}",
        }
        root = math.isqrt(math.factorial(1800)) // 2
        expected["sqrt_factorial"] = f"a(1800)^2 = {root * root} < 1800! "
    rows = list(rows150)
    rows[4] = replace(rows[4], x_den=big)
    rows[5] = replace(rows[5], a=big << 1, q=big)
    rows[9] = replace(rows[9], x_num=big, x_den=1)
    rows[10] = replace(rows[10], x_num=big, x_den=7, d=big)
    a_sqrt = a_seq(1800)
    a_sqrt[1800] = root
    a_oracle = list(a150[:6])
    a_oracle[3] = big
    with _int_str_digits(4300):  # CPython's default limit
        got = {
            "x_bounds": check_x_bounds(HI, rows),
            "quadratic_gap": check_quadratic_gap(HI, rows),
            "mod4_exclusion": check_mod4_exclusion(HI, rows),
            "integrality": check_integrality(HI, rows),
            "parity": check_parity(HI, rows),
            "d_power_of_two": check_d_power_of_two(HI, rows),
            "d_upper": check_d_upper(HI, rows, a150),
            "d_formula": check_d_formula(HI, rows),
            "quarter_bound": check_quarter_bound_and_D(HI, rows),
            "e_q": check_e_q(HI, rows),
            "involutions": check_involution_identity(5, a_oracle),
            "sqrt_factorial": check_sqrt_factorial_lower(1800, a_sqrt),
        }
    for name, want in expected.items():
        assert want in [text for _, text in got[name].counterexamples], name


def test_check_names_are_stable():
    # --checks, the JSON reports and the benchmark's gates all read these names.
    assert CHECK_NAMES == [
        "a6_relation", "congruence", "d_formula", "d_power_of_two", "d_upper",
        "e_q", "integrality", "involutions", "mod4_exclusion", "parity",
        "quadratic_gap", "quarter_bound", "series", "sign_flip", "sqrt_factorial",
        "x_bounds",
    ]


def test_required_length_covers_the_lookahead():
    config = VerifyConfig(max_n=50, series_order=30, oracle_max=5)
    assert required_length(config) >= 57  # six-step recurrence reads a_{max_n + 6}
    only_series = VerifyConfig(max_n=5, series_order=90, oracle_max=5, checks=["series"])
    assert required_length(only_series) == 91
    large = VerifyConfig(max_n=700, series_order=30, oracle_max=5)
    expected = {name: (51, 701) for name in CHECK_NAMES}
    expected.update({
        "congruence": (51, 201),  # the cross-check reads a_0..a_{min(200, max_n)}
        "a6_relation": (57, 707),
        "d_upper": (101, 1201),  # mechanism reads a_0..a_{2n}, n <= min(max_n, 600)
        "series": (31, 31),
        "involutions": (6, 6),
        "sign_flip": (1, 1),
    })
    for name in CHECK_NAMES:
        got = tuple(required_length(replace(c, checks=[name])) for c in (config, large))
        assert got == expected[name], name
    assert required_length(replace(config, checks=[])) == 1


def test_run_all_selection_and_order():
    config = VerifyConfig(max_n=40, series_order=20, oracle_max=5, checks=["parity", "e_q"])
    results = run_all(config)
    assert [r.name for r in results] == ["e_q", "parity"]
    assert all(r.passed for r in results)


def test_run_all_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks"):
        run_all(VerifyConfig(checks=["nope"]))


@pytest.mark.parametrize("config", [
    VerifyConfig(oracle_max=11),
    VerifyConfig(oracle_max=-1),
    VerifyConfig(max_n=-1),
    VerifyConfig(series_order=1),
    VerifyConfig(max_n=50, prime_limit=-5, checks=["congruence"]),
], ids=["oracle_max=11", "oracle_max=-1", "max_n=-1", "series_order=1", "prime_limit=-5"])
def test_a_bad_config_is_rejected_before_any_work(config):
    with pytest.raises(ValueError):
        required_length(config)
    with pytest.raises(ValueError):
        run_all(config)


def test_run_all_builds_each_sweep_once(monkeypatch):
    built = []
    for name, make in list(checks._REGISTRY.items()):
        monkeypatch.setitem(checks._REGISTRY, name,
                            lambda c, make=make, name=name: built.append(name) or make(c))
    config = VerifyConfig(max_n=40, series_order=20, oracle_max=5)
    required_length(config)
    assert built == CHECK_NAMES
    built.clear()
    run_all(config)
    assert built == CHECK_NAMES


def test_every_public_check_runs_through_the_driver(monkeypatch):
    reached = _spy_on_run(monkeypatch)
    assert check_sign_flip().passed
    assert reached == [["sign_flip"]]
    # With sign_flip, the coverage cases call every public check.
    assert sorted({*COVERAGE_CASES} - {"d_upper_mechanism"} | {"sign_flip"}) == CHECK_NAMES
    public = {f for f in dir(checks) if f.startswith("check_")} | {"check_involution_identity"}
    assert len(public) == len(CHECK_NAMES)


def test_run_all_rejects_short_input():
    # The check that reads past the input names itself: the value sweep that
    # reads furthest, since the values walk, which rows are derived from, ends
    # first.
    config = VerifyConfig(max_n=40, series_order=20, oracle_max=5)
    with pytest.raises(ValueError, match=r"^a6_relation reads indices 0\.\.46; the input stops at 10$"):
        run_all(config, a_values=a_seq(10))


def test_run_all_walks_the_values_past_the_rows():
    # a6_relation reads a_46 at max_n = 40, six values past the last row: the
    # values walk goes on after the rows walk ends.
    v = a_seq(100)
    v[46] += 2
    config = VerifyConfig(max_n=40, series_order=20, oracle_max=5)
    got = {r.name: r.counterexamples for r in run_all(config, v)}
    assert got["a6_relation"] == [(40, "six-step recurrence fails tying a(38), a(42), a(46)")]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_run_all_each_check_on_exactly_required_length(name):
    config = VerifyConfig(max_n=40, series_order=20, oracle_max=5, checks=[name])
    need = required_length(config)
    a_values = tuple(a_seq(need - 1))
    assert len(a_values) == need
    results = run_all(config, a_values=a_values)
    assert [r.name for r in results] == [name]
    assert results[0].passed
    if name == "sign_flip":  # reads no values: its floor of one is none it needs
        assert run_all(config, a_values=a_values[:-1])[0].passed
        return
    with pytest.raises(ValueError, match=rf"^{name} reads "):
        run_all(config, a_values=a_values[:-1])


def test_a_none_value_never_passes():
    # The walk takes a None for a value, not for the end of its input, so the
    # step that reads it fails; row derivation names it.
    values = a_seq(50)
    values[5] = None
    config = VerifyConfig(max_n=20, series_order=20, oracle_max=5)
    with pytest.raises((AttributeError, TypeError)):
        check_sqrt_factorial_lower(20, values)
    with pytest.raises((AttributeError, TypeError)):
        check_a6_relation(20, values)
    with pytest.raises((AttributeError, TypeError)):
        run_all(replace(config, checks=["sqrt_factorial"]), values)
    with pytest.raises(ValueError, match="^a_5 = None: "):
        run_all(config, values)


def test_the_walk_hands_each_step_a_none_item():
    items = [None, 1, None, 3, None]
    seen = []

    def step(n, window):
        seen.append((n, window[-1], len(window)))

    deque(checks._walk(items, [checks._Sweep("s", 0, 4, (0, 4, step), rows=False)]), 0)
    assert seen == [(n, item, n + 1) for n, item in enumerate(items)]
    with pytest.raises(ValueError, match=r"^s reads indices 0\.\.5; the input stops at 4$"):
        deque(checks._walk(items, [checks._Sweep("s", 0, 5, (0, 5, step), rows=False)]), 0)


def test_run_all_check_alone_sees_the_given_values():
    # A check selected alone must read rows derived from the caller's values,
    # exactly as in a full run; both corruptions are visible to every row check.
    config = VerifyConfig(max_n=40, series_order=20, oracle_max=5)
    bad = list(a_seq(required_length(config) - 1))
    bad[6] *= 4
    bad[21] = 5 * bad[20]  # x_21 = 5 is an integer and d_21 = a_20
    together = {r.name: r for r in run_all(config, a_values=bad)}
    for name in CHECK_NAMES:
        alone = run_all(replace(config, checks=[name]), a_values=bad)[0]
        assert (alone.status, alone.counterexamples) == (
            together[name].status, together[name].counterexamples), name
    row_checks = ["x_bounds", "mod4_exclusion", "quadratic_gap", "d_power_of_two", "d_upper",
                  "e_q", "d_formula", "quarter_bound", "parity", "integrality"]
    assert not any(together[name].passed for name in row_checks)


def _tail_sweep(name, tail, walk_fails=0):
    """A sweep over the values 0..99 whose step finds a counterexample at each
    index below walk_fails, and whose tail is `tail`."""

    def step(n, window):
        return (n, "walk") if n < walk_fails else None

    return checks._Sweep(name, 0, 99, (0, 99, step), rows=False, tail=tail, prefix=10)


def _three_then_boom(values):
    for n in range(3):
        yield n, "tail"
    raise ValueError("boom")


def _sleeps(seconds):
    def part(values):
        time.sleep(seconds)
        return ()
    return part


def _outcome(sweeps):
    try:
        return [(r.status, r.counterexamples) for r in checks._run(sweeps, list(range(100)))]
    except ValueError as error:
        return type(error), str(error)


def _late_hits(values):
    for n in range(MAX_COUNTEREXAMPLES):
        yield 50 + n, "late"


@pytest.mark.parametrize("walk_fails", [0, 21, 22, 25])
def test_a_forked_tail_raises_where_the_tail_read_in_process_raises(walk_fails):
    # The name dates from when a tail beside another sweep was forked; every
    # tail is now read in process, and beside another sweep it must still
    # raise where it raises alone. The tail yields 3 and then raises; the
    # raise is reached unless the walk's finds and those 3 already fill
    # MAX_COUNTEREXAMPLES.
    alone = _outcome([_tail_sweep("boom", _three_then_boom, walk_fails)])
    beside = _outcome([_tail_sweep("boom", _three_then_boom, walk_fails), _tail_sweep("quiet", lambda v: ())])
    if walk_fails < 22:
        assert beside == alone == (ValueError, "boom")
    else:
        assert beside == alone + [("pass", [])]
        assert len(beside[0][1]) == MAX_COUNTEREXAMPLES


@pytest.mark.parametrize("walk_fails", [0, 21, 22, 25])
def test_a_tail_s_error_raises_before_a_later_sweep_s_hits(walk_fails):
    # The first tail yields 3 and then raises, the second yields a full report.
    # The first report takes the walk's finds, then the tail's 3, then the
    # raise, unless those already fill MAX_COUNTEREXAMPLES; the second report
    # is then read.
    got = _outcome([_tail_sweep("boom", _three_then_boom, walk_fails), _tail_sweep("late", _late_hits)])
    if walk_fails < 22:
        assert got == (ValueError, "boom")
    else:
        walk = [(n, "walk") for n in range(walk_fails)][:MAX_COUNTEREXAMPLES]
        tail = [(n, "tail") for n in range(3)][: MAX_COUNTEREXAMPLES - len(walk)]
        assert got == [("fail", walk + tail), ("fail", list(_late_hits(())))]


@pytest.mark.parametrize("others", [0, 1], ids=["alone", "beside another"])
def test_a_tail_s_time_reaches_elapsed_ms(others):
    sweeps = [_tail_sweep("sleepy", _sleeps(0.1))] + [_tail_sweep("quiet", lambda v: ())] * others
    assert checks._run(sweeps, list(range(100)))[0].elapsed_ms >= 100


def test_a_tail_short_of_its_prefix_raises_as_in_process():
    # result() rejects the short prefix before the tail would read past it.
    wide = checks._Sweep("wide", 0, 5, tail=lambda values: [(0, str(values[19]))], prefix=20)
    with pytest.raises(ValueError, match=r"^wide reads a_0\.\.a_19; the input stops at 9$"):
        checks._run([wide], list(range(10)))


# Indices of a_0..a_150 that are raised by 1. With max_n = 150 the
# cross-check reads a_n for every n <= 150 at each odd prime p <= 97 that
# divides n, and there a_n + 1 is 2 mod p. 101 and 127 are primes above 97.
CONGRUENCE_CASES = {
    "one index under two primes": [15],
    "only indices prime above the limit": [101, 127],
    "every multiple of 7": range(7, 151, 7),
    "every multiple of 3 capped": range(3, 151, 3),
}


@pytest.mark.parametrize("corrupted", list(CONGRUENCE_CASES.values()), ids=list(CONGRUENCE_CASES))
def test_congruence_reports_by_prime_then_n_capped(a150, corrupted):
    bad = list(a150)
    for k in corrupted:
        bad[k] += 1
    want = [(n, f"full-precision a({n}) is not 1 mod {p}")
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
            for n in range(p, 151, p) if n in corrupted]
    assert check_congruence(97, 150, bad).counterexamples == want[:MAX_COUNTEREXAMPLES]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, checks.DEFAULT_MECHANISM_HI + 100))
@example(100)
def test_the_mechanism_s_parts_cover_its_range_once_in_order(hi):
    # Zeros break the convolution at every n, so the tail yields each n it reads.
    mech = min(hi, checks.DEFAULT_MECHANISM_HI)
    zeros = [0] * (2 * mech + 2)
    tail = checks._d_upper(VerifyConfig(max_n=hi)).tail
    assert [n for n, _ in tail(zeros)] == list(range(1, mech + 1))


# Plain references, one per check, each written from its check's docstring in
# plain ints or Fractions, and run_all on corrupted values against them all.


def _capped(hits):
    return list(islice(hits, MAX_COUNTEREXAMPLES))


def _plain_rows(values):
    """Row n of the values, from its own gcd: x_n = a_n / a_{n-1} reduced by
    d_n = gcd(a_n, a_{n-1}), row 0 read as a_0 / 1; e_n is the 2-adic
    valuation of a_n and q_n = a_n / 2^e_n."""
    rows = []
    for n, a in enumerate(values):
        prev = values[n - 1] if n else 1
        d, e = math.gcd(a, prev), (a & -a).bit_length() - 1
        rows.append(SeqRow(n, a, a // d, prev // d, d, e, a // 2 ** e))
    return rows


def _mod4_exclusion_reference(hi, values):
    # x_n = a_n / a_{n-1} is an integer exactly when a_{n-1} divides a_n.
    return _capped((n, f"x({n}) = {values[n] // values[n - 1]} is an integer")
                   for n in range(4, hi + 1) if values[n] % values[n - 1] == 0)


def _parity_reference(hi, rows):
    def hits():
        for row in rows[1: hi + 1]:
            r = row.n % 4
            if (row.x_den % 2 == 0) != (r == 0):
                yield row.n, f"denominator {row.x_den} has the wrong parity for n mod 4 = {r}"
            elif (row.x_num % 2 == 0) != (r in (2, 3)):
                yield row.n, f"numerator {row.x_num} has the wrong parity for n mod 4 = {r}"
    return _capped(hits())


def _d_formula_reference(hi, values):
    # With n = 4k + r, gcd(a_n, a_{n-1}) is 2^k for r = 0, 1, 2 and 2^(k+1) for r = 3.
    def hits():
        for n in range(1, hi + 1):
            d, closed = math.gcd(values[n], values[n - 1]), 2 ** (n // 4 + (n % 4 == 3))
            if d != closed:
                yield n, f"d({n}) = {d}, closed form gives {closed}"
    return _capped(hits())


def _d_power_of_two_reference(hi, values):
    # A positive d is a power of two exactly when d - 1 shares no bit with it.
    gcds = ((n, math.gcd(values[n], values[n - 1])) for n in range(1, hi + 1))
    return _capped((n, f"d({n}) = {d} is not a power of two") for n, d in gcds if d & (d - 1))


def _involutions_reference(m, values):
    return _capped((n, f"enumerated {plain_scan(n)} involutions but a({n}) = {values[n]}")
                   for n in range(m + 1) if plain_scan(n) != values[n])


def _plain_convolution(n, values):
    return sum((-1) ** (2 * n - m) * math.comb(2 * n, m) * values[m] * values[2 * n - m] for m in range(2 * n + 1))


def _d_upper_reference(hi, values):
    # d_n = gcd(a_n, a_{n-1}) is at most 2^(n-1) for 1 <= n <= hi; and for
    # n <= min(hi, 600) the alternating convolution is 2^n (2n-1)!!, which
    # d_{n+1} divides.
    def hits():
        for n in range(1, hi + 1):
            d = math.gcd(values[n], values[n - 1])
            if d > 2 ** (n - 1):
                yield n, f"d({n}) = {d} exceeds 2^{n - 1}"
        for n in range(1, min(hi, checks.DEFAULT_MECHANISM_HI) + 1):
            want, d = 2 ** n * math.prod(range(1, 2 * n, 2)), math.gcd(values[n + 1], values[n])
            if _plain_convolution(n, values) != want:
                yield n, f"alternating convolution at 2n = {2 * n} is not (2n)!/n!"
            elif d == 0 or want % d:
                yield n, f"d({n + 1}) does not divide the convolution value"
    return _capped(hits())


def _series_reference(order, values):
    # F = exp(x + x^2/2) has a_k = sum_i C(k, 2i) (2i-1)!!, the involutions of
    # k points with i pairs; F'' = (x + 1) F' + F is a_{k+2} = a_{k+1} + (k+1) a_k;
    # F(x) F(-x) = exp(x^2) has (2n)!/n! times x^{2n}/(2n)! and nothing at odd powers.
    def first(indices, fails):
        return next((k for k in indices if fails(k)), None)

    def off(n):
        return _plain_convolution(n, values) != math.factorial(2 * n) // math.factorial(n)

    product = first(range(order // 2 + 1), off)
    parts = {
        "exp_closed_form": first(range(order + 1), lambda k: values[k] != sum(
            math.comb(k, 2 * i) * math.prod(range(1, 2 * i, 2)) for i in range(k // 2 + 1))),
        "second_order_ode": first(range(order - 1), lambda k: values[k + 2] != values[k + 1] + (k + 1) * values[k]),
        "product_exp_x2": None if product is None else 2 * product,
        "convolution": first(range(1, order // 2 + 1), off),
    }
    return [(k, f"{part}: first discrepancy at index {k}") for part, k in parts.items() if k is not None]


def _quadratic_gap_reference(hi, rows):
    def hits():
        for row in rows[4: hi + 1]:
            gap = row.x * row.x - row.x
            if not row.n - 1 < gap < row.n:
                yield row.n, f"x({row.n})^2 - x({row.n}) = {gap} escapes ({row.n - 1}, {row.n})"
    return _capped(hits())


def _congruence_reference(hi, values):
    # The modular part recomputes the sequence modulo the product of the
    # primes and reads none of the values given, so on any input it finds
    # nothing. The cross-check reads a_n for n <= min(CROSS_LIMIT, hi) at each
    # odd prime p <= 97 that divides n, by prime, then by n.
    odd_primes = [p for p in range(3, VerifyConfig().prime_limit + 1) if all(p % k for k in range(2, p))]
    return _capped((n, f"full-precision a({n}) is not 1 mod {p}") for p in odd_primes
                   for n in range(p, min(checks.CROSS_LIMIT, hi) + 1, p) if values[n] % p != 1)


def _a6_relation_reference(hi, values):
    # a_{m+6} = 2(m^2+9m+19) a_{m+2} - m(m-1)(m+2)(m+5) a_{m-2} for m = 2..hi.
    return _capped(
        (m, f"six-step recurrence fails tying a({m - 2}), a({m + 2}), a({m + 6})") for m in range(2, hi + 1)
        if values[m + 6] != 2 * (m * m + 9 * m + 19) * values[m + 2] - m * (m - 1) * (m + 2) * (m + 5) * values[m - 2])


def _sign_flip_reference(seed):
    # (f^2 - f - n) x^2 = -n (x^2 - x - n) for f = 1 + n/x, at the seeded samples.
    rng = random.Random(seed)

    def hits():
        for i in range(1, checks.SIGN_FLIP_SAMPLES + 1):
            p, q, n = (rng.randint(1, 10**6) for _ in range(3))
            x = Fraction(p, q)
            f = 1 + n / x
            if (f * f - f - n) * x * x != -n * (x * x - x - n):
                yield i, f"identity fails at sample {i}: x = {x}, n = {n}"
    return _capped(hits())


ORACLE_MAX = 7


def _series_order(hi):
    """The series order of a run at max_n = hi: the series check then reads
    a_0..a_{2hi}, as d_upper's mechanism does."""
    return max(2, 2 * hi)

# Each check's (lo, hi, counterexamples) for run_all's max_n = hi, read off the
# values or the plain rows.
REFERENCES = {
    "a6_relation": lambda hi, values, rows: (2, hi, _a6_relation_reference(hi, values)),
    "congruence": lambda hi, values, rows: (3, hi, _congruence_reference(hi, values)),
    "d_formula": lambda hi, values, rows: (1, hi, _d_formula_reference(hi, values)),
    "d_upper": lambda hi, values, rows: (1, hi, _d_upper_reference(hi, values)),
    "d_power_of_two": lambda hi, values, rows: (1, hi, _d_power_of_two_reference(hi, values)),
    "e_q": lambda hi, values, rows: (0, hi, _e_q_reference(hi, rows)),
    "integrality": lambda hi, values, rows: (0, hi, _integrality_reference(hi, rows)),
    "involutions": lambda hi, values, rows: (0, ORACLE_MAX, _involutions_reference(ORACLE_MAX, values)),
    "mod4_exclusion": lambda hi, values, rows: (4, hi, _mod4_exclusion_reference(hi, values)),
    "parity": lambda hi, values, rows: (1, hi, _parity_reference(hi, rows)),
    "quadratic_gap": lambda hi, values, rows: (4, hi, _quadratic_gap_reference(hi, rows)),
    "quarter_bound": lambda hi, values, rows: (1, hi, _quarter_bound_reference(hi, rows)),
    "series": lambda hi, values, rows: (0, _series_order(hi), _series_reference(_series_order(hi), values)),
    "sign_flip": lambda hi, values, rows: (1, checks.SIGN_FLIP_SAMPLES, _sign_flip_reference(VerifyConfig().seed)),
    "sqrt_factorial": lambda hi, values, rows: (0, hi, _sqrt_factorial_reference(hi, values)),
    "x_bounds": lambda hi, values, rows: (4, hi, _x_bounds_reference(4, hi, rows)),
}


@st.composite
def corrupted_runs(draw):
    """(hi, {n: (seed, negated)}): each a_n listed is changed as the corruption
    corpus changes it, from random.Random(seed), and then negated or not. The
    indices reach 2 hi, the last value that d_upper's mechanism and the series
    check read, and now and then include 0, 1 or 2 hi themselves."""
    hi = draw(st.integers(0, 200))
    indices = draw(corrupted_indices(2 * hi)) + draw(st.lists(st.sampled_from([0, 1, 2 * hi]), max_size=2))
    return hi, {n: (draw(st.integers(0, 2 ** 32)), draw(st.booleans())) for n in indices}


@settings(max_examples=30, deadline=None)
@given(corrupted_runs())
@example((200, {n: (n, n % 3 == 0) for n in range(40, 130)}))  # five checks fill the cap
@example((30, {1: (0, True), 4: (1, False), 6: (2, True)}))  # in the oracle's range, signs flipped
@example((3, {}))  # x_bounds and mod4_exclusion read no row
@example((60, {0: (4, False)}))  # a_0, which every convolution reads
@example((60, {1: (5, True)}))  # a_1, the first residual
@example((60, {120: (6, False)}))  # a_{2 mech}, read only by the last convolution and the last coefficient
@example((0, {0: (7, True), 1: (8, False)}))  # no mechanism at max_n = 0; the series reads a_0..a_2
@example((60, {44: (1, False)}))  # row 45's x_den has 97 bits, one past the gap filter's cut
def test_run_all_matches_the_references(case):
    hi, corruptions = case
    config = VerifyConfig(max_n=hi, series_order=_series_order(hi), oracle_max=ORACLE_MAX, checks=list(REFERENCES))
    values = a_seq(required_length(config) - 1)
    for n, (seed, negated) in corruptions.items():
        values[n] = _corrupt(random.Random(seed), values[n]) * (-1 if negated else 1)
    rows = _plain_rows(values)
    got = [(r.name, r.lo, r.hi, r.counterexamples) for r in run_all(config, values)]
    assert got == [(name, *reference(hi, values, rows)) for name, reference in sorted(REFERENCES.items())]
