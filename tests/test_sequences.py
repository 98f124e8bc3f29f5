import math
from dataclasses import fields
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqlab import sequences
from seqlab.sequences import (
    MoebiusMatrix,
    SeqRow,
    a_iter,
    a_seq,
    a6_step,
    d_closed,
    e_closed,
    iter_rows,
    moebius,
    moebius_apply,
    q_step,
    rows_from_a,
    table,
)

FIRST_A = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]

FIRST_X = [
    Fraction(1),
    Fraction(1),
    Fraction(2),
    Fraction(2),
    Fraction(5, 2),
    Fraction(13, 5),
    Fraction(38, 13),
    Fraction(58, 19),
    Fraction(191, 58),
    Fraction(655, 191),
]


# Independent routes to the sequences, for the cross-checks below.
def x_seq(max_n):
    """[x_0, ..., x_max_n] from the rational recurrence alone, not from a_seq."""
    xs = [Fraction(1)]
    for n in range(max_n):
        xs.append(1 + Fraction(n) / xs[-1])
    return xs


def v2(a):
    """The 2-adic valuation of a nonzero int: the index of its lowest set bit."""
    return (a & -a).bit_length() - 1


def a_closed(n):
    """a_n = sum_s C(n, 2s) (2s-1)!!: choose 2s elements, then match them in pairs."""
    return sum(math.comb(n, 2 * s) * math.prod(range(1, 2 * s, 2)) for s in range(n // 2 + 1))


def test_a_seq_first_values():
    assert a_seq(10) == FIRST_A


def test_a_iter_streams_the_same_values():
    assert list(islice(a_iter(), 11)) == FIRST_A


def test_a_seq_rejects_negative():
    with pytest.raises(ValueError):
        a_seq(-1)


def test_a_closed_agrees_with_recurrence():
    a = a_seq(60)
    for n in range(61):
        assert a_closed(n) == a[n]


def test_x_seq_first_values():
    assert x_seq(9) == FIRST_X == [row.x for row in table(9)]


def test_x_is_ratio_of_consecutive_a():
    a = a_seq(40)
    xs = x_seq(40)
    for n in range(1, 41):
        assert xs[n] == Fraction(a[n], a[n - 1])


def test_x_recurrence_holds():
    xs = x_seq(30)
    for n in range(30):
        assert xs[n + 1] == 1 + Fraction(n, 1) / xs[n]


def test_d_values():
    assert [row.d for row in table(9)[1:]] == [1, 1, 2, 2, 2, 2, 4, 4, 4]


def test_closed_forms_match_definitions():
    a = a_seq(200)
    for n in range(201):
        assert e_closed(n) == v2(a[n])
        if n >= 1:
            assert d_closed(n) == gcd(a[n], a[n - 1])


def test_closed_form_domains():
    with pytest.raises(ValueError):
        e_closed(-1)
    with pytest.raises(ValueError):
        d_closed(0)


def _det(m):
    return m.alpha * m.delta - m.beta * m.gamma


def test_moebius_matrix_identity_and_det():
    ident = MoebiusMatrix.identity()
    assert _det(ident) == 1
    m = MoebiusMatrix(1, 4, 1, 0)
    assert _det(m) == -4
    assert (m @ ident) == m
    assert (ident @ m) == m


def test_moebius_one_step_and_two_step_shapes():
    n = 5
    assert moebius(n, 1) == MoebiusMatrix(1, n, 1, 0)
    assert moebius(n, 2) == MoebiusMatrix(n + 2, n, 1, n)
    assert moebius(n, 0) == MoebiusMatrix.identity()


def test_moebius_det_product_form():
    for n in range(0, 7):
        for k in range(0, 6):
            expected = (-1) ** k
            for j in range(k):
                expected *= n + j
            assert _det(moebius(n, k)) == expected


def test_moebius_transports_the_orbit():
    xs = x_seq(25)
    for n in range(12):
        for k in range(0, 9):
            m = moebius(n, k)
            assert moebius_apply(m, xs[n]) == xs[n + k]


def test_moebius_apply_pole():
    m = moebius(0, 1)  # maps x to x/x... with a pole at 0
    with pytest.raises(ZeroDivisionError):
        moebius_apply(m, Fraction(0))


def test_a6_step_instances():
    a = a_seq(10)
    assert a6_step(2, a[0], a[4]) == a[8] == 764
    assert a6_step(3, a[1], a[5]) == a[9] == 2620
    assert a6_step(4, a[2], a[6]) == a[10] == 9496
    with pytest.raises(ValueError):
        a6_step(1, 1, 1)


def test_q_step_instances():
    rows = table(20)
    q = [r.q for r in rows]
    for n in range(2, 15):
        assert q_step(n, q[n - 2], q[n + 2]) == q[n + 6]
    with pytest.raises(ValueError):
        q_step(1, 1, 1)


def test_rows_golden_entries():
    rows = table(9)
    r4 = rows[4]
    assert (r4.n, r4.a, r4.x, r4.d, r4.e, r4.q, r4.x_den) == (4, 10, Fraction(5, 2), 2, 1, 5, 2)
    r9 = rows[9]
    assert (r9.n, r9.a, r9.x, r9.d, r9.e, r9.q, r9.x_den) == (9, 2620, Fraction(655, 191), 4, 2, 655, 191)


def test_rows_internal_consistency():
    rows = table(120)
    for n in range(1, 121):
        row = rows[n]
        assert row.x == Fraction(rows[n].a, rows[n - 1].a)
        assert row.x_den * row.d == rows[n - 1].a
        assert row.q << row.e == row.a
        assert row.q % 2 == 1
        assert row.d == gcd(row.a, rows[n - 1].a)


def test_rows_from_a_accepts_any_prefix():
    rows = rows_from_a([1, 1, 2, 4])
    assert [r.a for r in rows] == [1, 1, 2, 4]
    assert rows[0].x == Fraction(1)
    assert rows[0].d == 1


def test_integer_indices():
    assert [row.n for row in table(50) if row.x_den == 1] == [0, 1, 2, 3]


def test_seqrow_holds_the_output_columns_as_ints():
    assert [f.name for f in fields(SeqRow)] == ["n", "a", "x_num", "x_den", "d", "e", "q"]
    row = table(9)[9]
    assert all(isinstance(getattr(row, f.name), int) for f in fields(SeqRow))
    with pytest.raises(AttributeError):
        row.x = Fraction(1)


# Positive ints with a random power of two mixed in, so neighbours often share
# a large gcd, as the orbit itself does.
positive_ints = st.one_of(
    st.integers(1, 10**30),
    st.builds(lambda odd, k: odd << k, st.integers(1, 10**6), st.integers(0, 80)),
)


@given(st.lists(positive_ints, min_size=1, max_size=25))
def test_rows_from_a_on_arbitrary_positive_ints(values):
    rows = rows_from_a(values)
    assert [row.n for row in rows] == list(range(len(values)))
    assert [row.a for row in rows] == values
    assert (rows[0].x, rows[0].d) == (values[0], 1)
    for row in rows:
        assert row.q << row.e == row.a
        assert row.q % 2 == 1
    for row, prev in zip(rows[1:], values):
        assert row.x == Fraction(row.a, prev)
        assert row.d == math.gcd(row.a, prev)
        assert row.x_den * row.d == prev
        assert row.x_num * row.d == row.a


def test_rows_from_a_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        rows_from_a([1, 0, 2])


def test_iter_rows_streams(monkeypatch):
    drawn = []
    real_a_iter = sequences.a_iter

    def counting_a_iter():
        for value in real_a_iter():
            drawn.append(value)
            yield value

    monkeypatch.setattr(sequences, "a_iter", counting_a_iter)
    rows = list(islice(iter_rows(20000), 3))
    assert [row.a for row in rows] == FIRST_A[:3]
    assert len(drawn) <= 3


def test_table_rows_from_a_and_iter_rows_agree():
    n = 60
    assert table(n) == rows_from_a(a_seq(n)) == list(iter_rows(n))
    with pytest.raises(ValueError):
        iter_rows(-1)


@st.composite
def recurrence_values(draw):
    """a_n = a_{n-1} + (n-1) a_{n-2} from random a_0, a_1, maybe one index corrupted."""
    values = [draw(positive_ints), draw(positive_ints)]
    for n in range(2, draw(st.integers(2, 40))):
        values.append(values[-1] + (n - 1) * values[-2])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        values[i] = draw(st.one_of(positive_ints, st.just(2 * values[i]), st.just(values[i] + 1)))
    return values


@given(st.one_of(recurrence_values(), st.lists(positive_ints, min_size=1, max_size=25)))
def test_rows_from_a_d_is_the_gcd_of_neighbours(values):
    rows = rows_from_a(values)
    assert rows[0].d == 1
    for row, prev in zip(rows[1:], values):
        assert row.d == math.gcd(row.a, prev)


nonzero_ints = st.one_of(positive_ints, positive_ints.map(lambda v: -v))


@st.composite
def values_with_a_sign_flipped(draw):
    """A recurrence sequence from random a_0, a_1 with one value negated, or
    every value from some index i on. In the second case the recurrence holds
    again from i + 2, so the carried gcd reads a negative x_num there."""
    values = draw(recurrence_values())
    i = draw(st.integers(0, len(values) - 1))
    if draw(st.booleans()):
        values[i] = -values[i]
    else:
        values[i:] = [-v for v in values[i:]]
    return values


@given(st.one_of(values_with_a_sign_flipped(), st.lists(nonzero_ints, min_size=1, max_size=25)))
@example(FIRST_A[:5] + [-FIRST_A[5]] + FIRST_A[6:])  # one value negated
@example([-v for v in FIRST_A])  # a negated whole sequence: the gcd is carried throughout
def test_rows_from_a_on_nonzero_ints_of_either_sign(values):
    rows = rows_from_a(values)
    assert [row.a for row in rows] == values
    for row, prev in zip(rows, [1] + values):  # row 0 reads a_0 / 1, with d_0 = 1
        assert row.d == math.gcd(row.a, prev)
        assert row.x_num * row.d == row.a
        assert row.x_den * row.d == prev
        assert row.q % 2 == 1
        assert row.q << row.e == row.a


def test_row_gcds_on_the_orbit_take_a_small_argument(monkeypatch):
    calls = []
    real_gcd = sequences.gcd

    def spy(x, y):
        calls.append((x, y))
        return real_gcd(x, y)

    monkeypatch.setattr(sequences, "gcd", spy)
    rows = rows_from_a(a_seq(2000))
    assert len(calls) == len(rows) == 2001
    # Row n >= 2 takes gcd(x_num_{n-1}, n-1); rows 0 and 1 see a_0 = a_1 = 1.
    assert all(min(x, y) <= max(n, 1) for n, (x, y) in enumerate(calls))


def _plain_rows(values):
    """Rows by math.gcd and floor division alone."""
    rows, prev = [], 1
    for n, a in enumerate(values):
        d = math.gcd(a, prev)
        e = v2(a)
        rows.append(SeqRow(n, a, a // d, prev // d, d, e, a >> e))
        prev = a
    return rows


@st.composite
def values_corrupted_by_three(draw):
    """A recurrence sequence, from the orbit or from random a_0, a_1, with one
    index multiplied by 3, so some d_n is not a power of two."""
    if draw(st.booleans()):
        values = a_seq(draw(st.integers(1, 120)))
    else:
        values = [draw(positive_ints), draw(positive_ints)]
        for n in range(2, draw(st.integers(2, 40))):
            values.append(values[-1] + (n - 1) * values[-2])
    values[draw(st.integers(0, len(values) - 1))] *= 3
    return values


# Rows hand on the ints the row before built. Each @example pins one way a
# handed-on value could be wrong: the valuation's low window missing the
# lowest set bit, d's power of two changing, e equal to log2 d or not, and
# negated values, whose valuation is read off the whole value.
@given(st.one_of(values_corrupted_by_three(), values_with_a_sign_flipped(),
                 st.lists(nonzero_ints, min_size=1, max_size=25)))
@example([1, 1 << 63, 3 << 130, 1])  # e jumps by 63, inside the window, then by 67, past it
@example(a_seq(12))  # d is 1, 1, 1, 2, 2, 2, 2, 4, ...; e - log2 d is 0, 0, 1, 1, 0, ...
@example([1, 3, 6, 15, 2, 2])  # d_2 = d_3 = 3 are divided out; d_4 = 1 follows a division
@example([2, 6, 4, 12])  # e == log2 d at rows 1 and 3, not at rows 0 and 2
@example(FIRST_A[:5] + [-FIRST_A[5]] + FIRST_A[6:])  # one value negated
@example(FIRST_A[:4] + [-v for v in FIRST_A[4:]])  # a negated suffix
def test_rows_from_a_equals_plain_gcd_and_division(values):
    assert rows_from_a(values) == _plain_rows(values)


def test_row_divisors_shift_where_a_power_of_two_and_divide_elsewhere():
    assert [sequences._log2_exact(v) for v in (1, 2, 3, 6, 8, 1 << 5000, (1 << 5000) + 1)] == [
        0, 1, None, None, 3, 5000, None]
    # d_2 = gcd(6, 3) = 3 is not a power of two; d_1 and d_3 are.
    assert rows_from_a([1, 3, 6, 15]) == _plain_rows([1, 3, 6, 15])
    assert [row.d for row in rows_from_a([1, 3, 6, 15])] == [1, 1, 3, 3]


def test_rows_on_the_orbit_share_the_ints_they_hand_on():
    rows = rows_from_a(a_seq(600))
    for prev, row in zip(rows, rows[1:]):
        if row.d == prev.d:  # three rows in four
            assert row.x_den is prev.x_num
    for row in rows:
        if row.e == row.d.bit_length() - 1:  # one row in two
            assert row.q is row.x_num
