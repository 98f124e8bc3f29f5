from fractions import Fraction
from itertools import islice
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqlab.series
from seqlab.sequences import a_seq
from seqlab.series import (
    _exp_normal,
    convolution_lhs,
    convolutions,
    egf_F,
    expected_convolution,
    ps_exp,
    ps_mul,
    series_identity_parts,
)

ORDER = 6

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)
coeff_lists = st.lists(fractions, min_size=ORDER + 1, max_size=ORDER + 1)


# A series from ints or Fractions, its derivative, sum and truncation: the
# algebra the ps_mul and ps_exp laws below are stated in.
def series(values):
    return tuple(Fraction(v) for v in values)


def derivative(f):
    return tuple(j * f[j] for j in range(1, len(f)))


def ps_add(f, g):
    assert len(f) == len(g)
    return tuple(a + b for a, b in zip(f, g))


def ps_truncate(f, order):
    return f[: order + 1]


# f(-x), for the Cauchy-product reference below.
def ps_subst_neg(f):
    return tuple(-c if j & 1 else c for j, c in enumerate(f))


def test_ps_mul_known_square():
    f = series([1, 1, 0])
    assert ps_mul(f, f) == (1, 2, 1)


def test_ps_mul_rejects_series_of_two_orders():
    with pytest.raises(ValueError, match="order mismatch: 1 != 2"):
        ps_mul(series([1, 2]), series([1, 2, 3]))
    with pytest.raises(ValueError, match="order mismatch: 2 != 1"):
        ps_mul(series([1, 2, 3]), series([1, 2]))


def test_every_series_operation_rejects_an_empty_series():
    calls = [
        lambda: ps_mul((), ()),
        lambda: ps_mul((), series([1])),
        lambda: ps_mul(series([1]), ()),
        lambda: ps_exp(()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^a series needs at least the constant coefficient$"):
            call()


@given(coeff_lists, coeff_lists)
def test_ps_mul_commutes(fc, gc):
    f, g = series(fc), series(gc)
    assert ps_mul(f, g) == ps_mul(g, f)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ps_mul_distributes(fc, gc, hc):
    f, g, h = series(fc), series(gc), series(hc)
    assert ps_mul(f, ps_add(g, h)) == ps_add(ps_mul(f, g), ps_mul(f, h))


@given(coeff_lists, coeff_lists)
def test_product_rule(fc, gc):
    f, g = series(fc), series(gc)
    lhs = derivative(ps_mul(f, g))
    rhs = ps_add(
        ps_mul(derivative(f), ps_truncate(g, ORDER - 1)),
        ps_mul(ps_truncate(f, ORDER - 1), derivative(g)),
    )
    assert lhs == rhs


def test_ps_exp_of_x_is_the_exponential():
    g = series([0, 1] + [0] * 9)
    e = ps_exp(g)
    assert e == tuple(Fraction(1, factorial(n)) for n in range(11))


def test_ps_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        ps_exp(series([1, 1]))


# exp from E' = g' E on the coefficients themselves, in Fractions: the
# reference the normal-form kernel is checked against.
def fraction_exp(g):
    weighted = [(j, j * gj) for j, gj in enumerate(g) if j > 0 and gj != 0]
    out = [Fraction(1)]
    for n in range(len(g) - 1):
        s = Fraction(0)
        for j, wj in weighted:
            if j > n + 1:
                break
            s += wj * out[n + 1 - j]
        out.append(s / (n + 1))
    return tuple(out)


@given(coeff_lists)
def test_ps_exp_equals_the_fraction_reference(gc):
    g = series([0] + gc[1:])
    assert ps_exp(g) == fraction_exp(g)


def test_the_exp_kernel_on_normal_coefficients():
    # exp(x) = sum x^n / n!, and exp(x + x^2/2) is the involution numbers' EGF.
    assert _exp_normal([0, 1] + [0] * 59) == [1] * 61
    assert _exp_normal([0, 1, 1] + [0] * 58) == list(a_seq(60))
    assert _exp_normal([0]) == [1]


@given(coeff_lists, coeff_lists)
def test_ps_exp_turns_sums_into_products(fc, gc):
    f = series([0] + fc[1:])
    g = series([0] + gc[1:])
    assert ps_exp(ps_add(f, g)) == ps_mul(ps_exp(f), ps_exp(g))


def test_ps_subst_neg_is_an_involution():
    f = series([1, 2, 3, 4, 5])
    assert ps_subst_neg(ps_subst_neg(f)) == f
    assert ps_subst_neg(f) == (1, -2, 3, -4, 5)


def test_egf_coefficients():
    a = a_seq(12)
    f = egf_F(12, a)
    for n in range(13):
        assert f[n] == Fraction(a[n], factorial(n))
    with pytest.raises(ValueError):
        egf_F(12, a[:5])


def direct_convolution(n, a):
    return sum(
        (-1) ** r * comb(2 * n, m) * a[m] * a[r]
        for m in range(2 * n + 1)
        for r in (2 * n - m,)
    )


def test_convolution_against_direct_sum():
    a = a_seq(160)
    for n in range(1, 81):
        direct = direct_convolution(n, a)
        assert convolution_lhs(n, a) == direct
        assert direct == expected_convolution(n)
        assert expected_convolution(n) == factorial(2 * n) // factorial(n)


def test_expected_convolution_is_a_power_of_two_times_an_odd_product():
    # (2n)! / n! = 2^n (2n-1)!!, the form the bound d_{n+1} <= 2^n is read from.
    for n in range(601):
        assert expected_convolution(n) == 2**n * prod(range(1, 2 * n, 2))
    with pytest.raises(ValueError, match="n must be nonnegative"):
        expected_convolution(-1)


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=41))
def test_convolution_symmetric_sum_on_any_input(a):
    for n in range((len(a) - 1) // 2 + 1):
        assert convolution_lhs(n, a) == direct_convolution(n, a)


# Values with zeros, signs and sizes that change at every index, so that every
# residual e_i = a_i - a_{i-1} - (i-1) a_{i-2} is nonzero: each step of the
# recurrence sums all of its 2n terms, as n pairs.
def _mixed(length):
    """0, small ints of either sign and ints of up to 3000 bits, in turn."""
    return [0 if i % 5 == 0 else (-1) ** i * (i + 1) << 1000 * (i % 4) for i in range(length)]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=80).flatmap(lambda n: st.lists(
    st.one_of(st.just(0), st.integers(min_value=-10**6, max_value=10**6),
              st.integers(min_value=-(1 << 4000), max_value=1 << 4000)),
    min_size=2 * n + 1, max_size=2 * n + 1)))
@example(_mixed(41))
@example(_mixed(43))
@example(_mixed(67))
@example(_mixed(69))
@example(_mixed(161))
@example(_mixed(111))
@example(_mixed(113))
@example(_mixed(189))
@example(_mixed(191))
@example(_mixed(261))
def test_convolution_equals_the_direct_sum_on_mixed_values(a):
    n = (len(a) - 1) // 2
    assert convolution_lhs(n, a) == direct_convolution(n, a)


def test_convolution_needs_enough_values():
    with pytest.raises(ValueError):
        convolution_lhs(5, a_seq(9))


# The recurrence of the series module docstring, written out with math.comb:
# C_0 = a_0^2 and C_n = 2 (2n-1) C_{n-1} - 2 sum_j (-1)^j C(2n-1, j) e_{j+1} a_{2n-1-j},
# with e_i = a_i - a_{i-1} - (i-1) a_{i-2} and a_{-1} = 0.
def recurrence(hi, a):
    """C_0..C_hi of a_0..a_{2hi} by that recurrence, every residual summed."""
    p = [0, *a]  # p[i + 1] = a_i
    e = [p[i + 1] - p[i] - (i - 1) * p[i - 1] for i in range(1, 2 * hi + 1)]  # e[i - 1] = e_i
    c = [a[0] * a[0]]
    for n in range(1, hi + 1):
        k = 2 * n - 1
        c.append(2 * k * c[-1] - 2 * sum((-1) ** j * comb(k, j) * e[j] * a[k - j] for j in range(k + 1)))
    return c


def from_two(a0, a1, length):
    """a_0, a_1 as given, then a_j = a_{j-1} + (j-1) a_{j-2}: only e_1 = a_1 - a_0 can be nonzero."""
    a = [a0, a1]
    while len(a) < length:
        a.append(a[-1] + (len(a) - 1) * a[-2])
    return a[:length]


def _last_raised(length):
    a = list(a_seq(length - 1))
    a[-1] += 1
    return a


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=20).flatmap(lambda hi: st.tuples(
    st.integers(min_value=0, max_value=hi + 1),
    st.lists(st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                       st.integers(min_value=-(1 << 400), max_value=1 << 400)),
             min_size=2 * hi + 1, max_size=2 * hi + 1))))
@example((0, from_two(1, 3, 21)))  # a residual only at j = 0, e_1 = a_1 - a_0
@example((0, _last_raised(21)))  # a residual only at the last index, e_{2n}
@example((0, [v << (j & 1) for j, v in enumerate(a_seq(40))]))  # dense: odd-indexed values doubled
@example((0, [0, -1, 0, 3, -5, 0, 0, -7, 2, 0, -1]))  # zeros and negative values
@example((4, [-v if j % 3 else 0 for j, v in enumerate(a_seq(24))]))  # lo > 0, on zeros and signs
@example((3, from_two(2, 2, 13)))  # lo > 0 on a multiple of the orbit: no residual at all
@example((0, [7]))  # n = 0 alone, C_0 = a_0^2
def test_the_recurrence_equals_the_direct_sum(case):
    lo, a = case
    hi = (len(a) - 1) // 2
    direct = [direct_convolution(n, a) for n in range(lo, hi + 1)]
    assert recurrence(hi, a)[lo:] == direct
    assert list(convolutions(lo, hi, a)) == direct


# convolutions sums only the nonzero residuals e_i = a_i - a_{i-1} - (i-1) a_{i-2}.
# On the values below that is e_j alone at each break j: the values after a
# break follow the recurrence from the broken one. A residual e_i enters the
# sum at n = ceil(i/2) and is carried to every later n.
BREAKS = {"+2": lambda v: v + 2, "shift": lambda v: v << 400, "zero": lambda v: 0}


def recurrent(length, breaks):
    """a_j = a_{j-1} + (j-1) a_{j-2} from a_0 = a_1 = 1, with each break
    (index -> kind) applied as its index is reached; the values after a break
    follow the recurrence from the broken one."""
    a = []
    for j in range(length):
        v = a[-1] + (j - 1) * a[-2] if j >= 2 else 1
        a.append(BREAKS[breaks[j]](v) if j in breaks else v)
    return a


@st.composite
def ranged_cases(draw):
    """(lo, hi, breaks) with 0 <= lo <= hi <= 45 and breaks at indices <= 2 hi."""
    lo = draw(st.integers(min_value=0, max_value=30), label="lo")
    hi = draw(st.integers(min_value=lo, max_value=lo + 15), label="hi")
    breaks = draw(st.dictionaries(st.integers(min_value=0, max_value=2 * hi),
                                  st.sampled_from(sorted(BREAKS)), max_size=4), label="breaks")
    return lo, hi, breaks


@settings(deadline=None)
@given(ranged_cases())
@example((5, 12, {9: "+2"}))  # a residual at 2 lo - 1, entered at lo
@example((5, 12, {10: "shift"}))  # at 2 lo, entered at lo too
@example((5, 12, {24: "zero"}))  # at 2 hi, the last residual, entered at hi
@example((7, 15, {}))  # a range that starts past 0 on the orbit, where no residual enters
@example((5, 12, {13: "+2"}))  # at 13, entered at n = 7 and carried to hi
@example((60, 135, {}))  # a long range past 0 on the orbit
@example((9, 9, {}))  # one n, as convolution_lhs reads it
@example((9, 10, {}))  # two n
def test_ranged_convolutions_equal_the_direct_sum(case):
    lo, hi, breaks = case
    a = recurrent(2 * hi + 1, breaks)
    assert list(convolutions(lo, hi, a)) == [direct_convolution(n, a) for n in range(lo, hi + 1)]


def test_convolutions_on_dense_residuals():
    # Doubling every odd-indexed value breaks the recurrence at every j >= 2,
    # so every residual from e_2 on enters the sum.
    a = [v << (j & 1) for j, v in enumerate(a_seq(120))]
    assert all(a[j] != a[j - 1] + (j - 1) * a[j - 2] for j in range(2, 121))
    assert list(convolutions(0, 60, a)) == [direct_convolution(n, a) for n in range(61)]
    assert list(convolutions(25, 60, a)) == [direct_convolution(n, a) for n in range(25, 61)]


@st.composite
def split_cases(draw):
    """(lo, h, hi, breaks): a ranged case and a cut lo - 1 <= h <= hi in it."""
    lo, hi, breaks = draw(ranged_cases())
    return lo, draw(st.integers(min_value=lo - 1, max_value=hi), label="h"), hi, breaks


@settings(deadline=None)
@given(split_cases())
@example((3, 9, 20, {20: "+2", 31: "zero"}))
def test_ranged_convolutions_split_anywhere(case):
    lo, h, hi, breaks = case
    a = recurrent(2 * hi + 1, breaks)
    assert list(convolutions(lo, h, a)) + list(convolutions(h + 1, hi, a)) == list(convolutions(lo, hi, a))


class _Unreadable(list):
    def __getitem__(self, i):
        raise AssertionError(f"a_{i} was read")


def test_ranged_convolutions_domain():
    a = a_seq(9)
    assert list(convolutions(3, 2, a)) == []
    assert list(convolutions(3, 2, _Unreadable([1] * 5))) == []
    with pytest.raises(ValueError, match="n must be nonnegative"):
        next(convolutions(-1, 2, a))
    with pytest.raises(ValueError, match="need a_0"):
        next(convolutions(2, 5, a))
    with pytest.raises(ValueError, match="need a_0"):
        next(convolutions(4, 4, a[:8]))


def test_a_value_that_is_not_an_int_raises_where_it_is_first_read():
    # a_0..a_{2hi-2} are read before the first value is yielded, a_{2hi-1}
    # and a_{2hi} only at n = hi.
    for i in range(7):
        a = list(a_seq(8))
        a[i] = None
        with pytest.raises(TypeError):
            next(convolutions(0, 4, a))
    for i in (7, 8):
        a = list(a_seq(8))
        a[i] = None
        ranged = convolutions(0, 4, a)
        assert list(islice(ranged, 4)) == [expected_convolution(n) for n in range(4)]
        with pytest.raises(TypeError):
            next(ranged)


def test_identity_parts_all_hold():
    parts = series_identity_parts(40, a_seq(40))
    assert parts == {
        "exp_closed_form": None,
        "second_order_ode": None,
        "product_exp_x2": None,
        "convolution": None,
    }


def test_identity_parts_pinpoint_corruption():
    a = list(a_seq(40))
    a[15] += 6
    parts = series_identity_parts(40, a)
    assert parts["exp_closed_form"] == 15
    assert parts["second_order_ode"] is not None
    assert parts["product_exp_x2"] == 16
    assert parts["convolution"] == 8

    a = list(a_seq(40))
    a[0] = 3
    parts = series_identity_parts(40, a)
    assert parts["product_exp_x2"] == 0
    assert parts["convolution"] == 1


def reference_product_parts(order, a):
    """First failing coefficient of F(x) F(-x) = exp(x^2) and first failing
    convolution index n >= 1, both read off the full Cauchy product."""
    f = egf_F(order, a)
    prod = ps_mul(f, ps_subst_neg(f))
    ex2 = [Fraction(1, factorial(j // 2)) if j % 2 == 0 else 0 for j in range(order + 1)]
    product = next((j for j in range(order + 1) if prod[j] != ex2[j]), None)
    convolution = next(
        (n for n in range(1, order // 2 + 1)
         if prod[2 * n] * factorial(2 * n) != expected_convolution(n)),
        None,
    )
    return product, convolution


def reference_parts(order, a):
    """series_identity_parts as Fraction power series: F against exp of
    x + x^2/2 coefficient by coefficient, F'' against (x + 1) F' + F to
    order - 2, and the product parts off the full Cauchy product."""
    f = egf_F(order, a)
    closed = fraction_exp(series([0, 1, Fraction(1, 2)] + [0] * (order - 2)))
    f1 = derivative(f)
    f2 = derivative(f1)
    rhs = [f1[j] + (f1[j - 1] if j else 0) + f[j] for j in range(order - 1)]
    product, convolution = reference_product_parts(order, a)
    return {
        "exp_closed_form": next((j for j in range(order + 1) if f[j] != closed[j]), None),
        "second_order_ode": next((j for j in range(order - 1) if f2[j] != rhs[j]), None),
        "product_exp_x2": product,
        "convolution": convolution,
    }


CORRUPTIONS = {
    "+k": lambda v, k: v + k,
    "-k": lambda v, k: v - k,
    "negated": lambda v, k: -v,
    "zero": lambda v, k: 0,
}


@st.composite
def corruptions(draw):
    """(order, index, kind, k): a_index of a_seq(order) corrupted by kind."""
    order = draw(st.sampled_from([10, 31, 60]), label="order")
    index = draw(st.integers(min_value=0, max_value=order), label="index")
    kind = draw(st.sampled_from(sorted(CORRUPTIONS)), label="kind")
    return order, index, kind, draw(st.integers(min_value=1, max_value=50), label="k")


@settings(max_examples=60, deadline=None)
@given(corruptions())
@example((60, 0, "negated", 1))  # a_0, the constant that every convolution reads
@example((10, 0, "+k", 2))
@example((31, 30, "-k", 3))  # order - 1, which the ODE's last two k read
@example((10, 9, "zero", 1))
@example((60, 60, "+k", 1))  # order: the closed form's last coefficient, the ODE's last a_{k+2}
@example((31, 31, "negated", 1))
def test_identity_parts_match_the_fraction_reference_under_corruption(case):
    order, index, kind, k = case
    a = list(a_seq(order))
    a[index] = CORRUPTIONS[kind](a[index], k)
    assert series_identity_parts(order, a) == reference_parts(order, a)


def test_identity_parts_build_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(seqlab.series, "Fraction", no_fraction)
    assert set(series_identity_parts(60, a_seq(60)).values()) == {None}
    a = list(a_seq(60))
    a[33] += 1
    assert series_identity_parts(60, a)["exp_closed_form"] == 33


def test_identity_parts_domain():
    with pytest.raises(ValueError):
        series_identity_parts(1, a_seq(1))
