"""The generating-function identities, checked on normal coefficients.

The exponential generating function of the involution numbers is

    F(x) = sum a_n x^n / n! = exp(x + x^2/2),

and it satisfies

    F''(x) = (x + 1) F'(x) + F(x)
    F(x) F(-x) = exp(x^2)

and the even-index convolution they imply,

    sum_{m+r=2n} (-1)^r C(2n, m) a_m a_r = (2n)! / n! = 2^n (2n-1)!!.

A series sum c_k x^k is checked here through its normal coefficients
N_k = k! c_k, which are ints for every series these identities compare. The
normal coefficients of F are the values a_k themselves, and those of exp(g)
follow from those of g (G_j = j! g_j, G_0 = 0) by the exponential formula
N_{n+1} = sum_{j>=1} C(n, j-1) G_j N_{n+1-j}, one kernel for exp_closed_form
and for ps_exp. Read in normal form, the ODE is the two-step recurrence
a_{k+2} = a_{k+1} + (k+1) a_k itself.

F(x) F(-x) = exp(x^2) and the convolution are one identity: the coefficient
of x^k in F(x) F(-x) is c_k / k! where c_k is that alternating convolution at
k, and c_k vanishes for odd k whatever the a_m are. convolutions is the single
kernel for both: it yields the convolution C_n = c_{2n} for a range of n, and
convolution_lhs is its one-n case. It does not sum the 2n + 1 terms; it runs a
first-order recurrence in n that holds for every sequence of ints. Let
e_i = a_i - a_{i-1} - (i-1) a_{i-2}, with a_{-1} = 0, be the residuals of the
two-step recurrence, A = sum a_j x^j / j!, G(x) = A(x) A(-x) and
R = A' - (1+x) A = sum e_{j+1} x^j / j!. Then

    C_0 = a_0^2,
    C_n = 2 (2n-1) C_{n-1} - 2 sum_j (-1)^j C(2n-1, j) e_{j+1} a_{2n-1-j}.

Proof: A' = R + (1+x) A gives G' = A'(x) A(-x) - A(x) A'(-x)
= 2x G + R(x) A(-x) - A(x) R(-x). Read at x^{2n-1} times (2n-1)!, the left side
is C_n and 2x G gives 2 (2n-1) C_{n-1}; with j + i = 2n - 1 odd, (-1)^i is
-(-1)^j, so R(x) A(-x) and -A(x) R(-x) each give the sum above times -1.
Only the nonzero residuals enter the sum, and on the involution numbers every
residual is 0, so there a step is one small multiply.

A truncated series over exact rationals, for the Fraction API below (egf_F,
ps_exp, ps_mul), is a plain tuple of its K + 1 coefficients c_0..c_K, c_0
first.
"""

from fractions import Fraction
from math import comb, factorial, perm
from typing import Iterator, Optional, Sequence


def _require_terms(f: Sequence) -> None:
    if len(f) == 0:
        raise ValueError("a series needs at least the constant coefficient")


def ps_mul(f: Sequence[Fraction], g: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Cauchy product truncated at the common order."""
    _require_terms(f)
    _require_terms(g)
    if len(f) != len(g):
        raise ValueError(f"order mismatch: {len(f) - 1} != {len(g) - 1}")
    return tuple(sum(f[j] * g[n - j] for j in range(n + 1)) for n in range(len(f)))


def _exp_normal(G: Sequence) -> list:
    """The normal coefficients N_0..N_K of exp(g), K = len(G) - 1, from those
    of g, G_j = j! g_j with G_0 = 0.

    From E' = g' E, read in normal form: N_0 = 1 and
    N_{n+1} = sum_{j>=1} C(n, j-1) G_j N_{n+1-j}. Only the nonzero G_j are
    iterated, which matters when g is sparse (here g = x + x^2/2). On int G
    every N_n is an int.
    """
    terms = [(j, Gj) for j, Gj in enumerate(G) if j and Gj]
    out = [1]
    for n in range(len(G) - 1):
        out.append(sum(comb(n, j - 1) * Gj * out[n + 1 - j] for j, Gj in terms if j <= n + 1))
    return out


def ps_exp(g: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """exp of a series with zero constant term, to the same order.

    The normal coefficients G_j = j! g_j go through the exponential-formula
    kernel that exp_closed_form reads, and come back as N_n / n!.
    """
    _require_terms(g)
    if g[0] != 0:
        raise ValueError("ps_exp requires zero constant term")
    normal = _exp_normal([factorial(j) * gj for j, gj in enumerate(g)])
    return tuple(Fraction(N) / factorial(n) for n, N in enumerate(normal))


def egf_F(order: int, a_values: Sequence[int]) -> tuple[Fraction, ...]:
    """The generating function sum a_n x^n / n!, truncated at the given order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(a_values) < order + 1:
        raise ValueError("not enough companion values for the requested order")
    return tuple(Fraction(a_values[n], factorial(n)) for n in range(order + 1))


def convolutions(lo: int, hi: int, a_values: Sequence[int]) -> Iterator[int]:
    """convolution_lhs(n, a_values) for n = lo, lo + 1, ..., hi, in turn.

    Each C_n follows from C_{n-1} by the recurrence of the module docstring,
    from C_0 = a_0^2, whatever lo is. Write r_j = e_{j+1} and k = 2n - 1. The
    sum runs over the j with r_j != 0 alone. Such a j enters it at the first
    n with j <= k, where C(k, j) is k or 1, and from then on the kernel keeps
    its signed binomial (-1)^j C(k, j). From one n to the next, k going to
    k + 2, that is carried by C(k+2, j) = C(k, j) (k+1)(k+2) / ((k+1-j)(k+2-j)),
    a division that is exact since its quotient is (-1)^j C(k+2, j); so no
    binomial is ever computed afresh.

    The terms j and v = k - j share their binomial and have opposite signs.
    A j whose partner's r_v is 0 adds its one product. Where both are
    nonzero, the pair is summed once, by one product instead of two:
    r_j a_v - r_v a_j = (r_j + r_v)(a_v - a_j) + r_j a_j - r_v a_v, the
    diagonal products r_j a_j being computed once, as j enters. So a step
    costs one small multiply, plus a carry for each nonzero residual so far
    and one product for each pair that holds one.

    The residuals e_1..e_{2hi-2} are computed before the first value is
    yielded, so a value there that is not an int raises at once; e_{2hi-1}
    and e_{2hi} only at n = hi, the one n that reads them. A range with
    hi < lo yields nothing and reads no value.
    """
    if lo < 0:
        raise ValueError("n must be nonnegative")
    if len(a_values) < 2 * hi + 1:
        raise ValueError("need a_0..a_{2n}")
    if hi < lo:
        return
    a = a_values

    def residual(i: int) -> int:
        return a[i] - a[i - 1] - (i - 1) * a[i - 2] if i > 1 else a[1] - a[0]

    r = [residual(i) for i in range(1, 2 * hi - 1)]  # r[j] = e_{j+1}
    diag: list[int] = []  # r_j a_j for each j that has entered
    live: list[int] = []  # each j with r_j != 0 that has entered the sum
    signed: list[int] = []  # its (-1)^j C(k, j) at the current n
    c = a[0] * a[0]
    if lo == 0:
        yield c
    for n in range(1, hi + 1):
        k = 2 * n - 1
        up = (k - 1) * k  # C(k, j) = C(k-2, j) (k-1) k / ((k-1-j)(k-j))
        signed = [b * up // ((k - 1 - j) * (k - j)) for j, b in zip(live, signed)]
        if n == hi:
            r += [residual(k), residual(k + 1)]
        for j, b in ((k - 1, k), (k, -1)):  # (-1)^j C(k, j) at j = k - 1 and j = k
            diag.append(r[j] * a[j])
            if r[j]:
                live.append(j)
                signed.append(b)
        s = 0
        for j, b in zip(live, signed):
            v = k - j
            if not r[v]:
                s += b * r[j] * a[v]
            elif j < v:
                s += b * ((r[j] + r[v]) * (a[v] - a[j]) + diag[j] - diag[v])
        c = 2 * k * c - 2 * s
        if n >= lo:
            yield c


def convolution_lhs(n: int, a_values: Sequence[int]) -> int:
    """sum_{m+r=2n} (-1)^r C(2n, m) a_m a_r, which should equal 2^n (2n-1)!!.

    This is the one-n case of convolutions: it runs the recurrence from
    C_0 = a_0^2 up to n and returns C_n, exact on any input. On values whose
    residuals all vanish that is n small multiplies; each nonzero residual
    adds a carry, and at most a product, to every later step.
    """
    return next(convolutions(n, n, a_values))


def expected_convolution(n: int) -> int:
    """(2n)! / n! = 2^n (2n-1)!!, the closed form for the convolution."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return perm(2 * n, n)


def series_identity_parts(order: int, a_values: Sequence[int]) -> dict[str, Optional[int]]:
    """Check each generating-function identity to the given order.

    Returns a dict mapping the identity name to None when it holds or to the
    first offending coefficient/convolution index when it does not:

      exp_closed_form   coefficients of F match exp(x + x^2/2)
      second_order_ode  F'' = (x + 1) F' + F   (checked to order - 2)
      product_exp_x2    F(x) F(-x) = exp(x^2), read off the even convolution
                        at 0 <= n <= order//2 (reported as coefficient 2n)
      convolution       the alternating even-index convolution, 1 <= n <= order//2

    Every part is decided in ints, on normal coefficients N_k = k! c_k, which
    for F are the values a_k. The closed form compares a_0..a_order with the
    normal coefficients of exp(x + x^2/2), from the exponential-formula
    kernel that ps_exp runs too; it shares no code with a_iter. At x^k the
    ODE reads, times k!, a_{k+2} = a_{k+1} + (k+1) a_k: the two-step
    recurrence, which no other check states (a6_relation checks the six-step
    one). Both convolution parts come from one pass of convolutions.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if len(a_values) < order + 1:
        raise ValueError("not enough companion values for the requested order")
    parts: dict[str, Optional[int]] = {}

    closed = _exp_normal([0, 1, 1] + [0] * (order - 2))
    a = a_values
    parts["exp_closed_form"] = next((k for k in range(order + 1) if a[k] != closed[k]), None)
    parts["second_order_ode"] = next(
        (k for k in range(order - 1) if a[k + 2] != a[k + 1] + (k + 1) * a[k]), None
    )

    # F(x) F(-x) has c_k / k! at x^k and exp(x^2) has 1/n! at x^{2n}; odd k
    # vanish on both sides, so the product fails first at twice the first
    # failing convolution index, counting n = 0 (the constant a_0^2 = 1).
    bad = (
        n
        for n, lhs in enumerate(convolutions(0, order // 2, a_values))
        if lhs != expected_convolution(n)
    )
    first = next(bad, None)
    parts["product_exp_x2"] = None if first is None else 2 * first
    parts["convolution"] = next(bad, None) if first == 0 else first
    return parts
