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
kernel for both: it yields the convolution for a range of n, and
convolution_lhs is its one-n case. It sums the terms in blocks of consecutive
m, fixed by m alone, Horner's rule running on the small ratios
C(2n, m+1) / C(2n, m) inside a block, so the big binomial C(2n, m) multiplies
once per block instead of once per term. Nor is a product a_m a_r multiplied
afresh for each n: it is kept already multiplied by its block weight, and
from n to n + 1 it is carried through the even-step relation
a_r = 2 (r-1) a_{r-2} - (r-2)(r-3) a_{r-4}, which follows from the
recurrence, but only at the indices r where that relation holds on the given
values; elsewhere the product is multiplied directly, so the kernel is exact
on any input. A term then costs two small multiplies and a subtract to carry,
and one small multiply and a subtract in the Horner sum.

A truncated series over exact rationals, for the Fraction API below (egf_F,
ps_exp, ps_mul), is a plain tuple of its K + 1 coefficients c_0..c_K, c_0
first.
"""

from fractions import Fraction
from math import comb, factorial, perm, prod
from typing import Iterator, Optional, Sequence

# convolutions cuts the indices m into blocks m..h-1 whose denominator
# (m+1)...(h-1) stays below this, so inside a block big ints are multiplied
# only by small ints and each carried product grows by at most 240 bits. A
# larger bound means fewer multiplies by the big binomial and longer products;
# from 2^180 to 2^480 the kernel's time stayed within a 2-vCPU host's noise.
_BLOCK_BOUND = 1 << 240


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

    The terms are summed as convolution_lhs describes, but the products
    a_m a_r, r = 2n - m, are carried from n to n + 1 instead of multiplied
    afresh, each already multiplied by its block weight w_m. For each m < n
    the kernel keeps w_m a_m a_r for this n and for n - 1; where the even-step
    relation a_j = 2 (j-1) a_{j-2} - (j-2)(j-3) a_{j-4}, which follows from
    the recurrence, holds in ints on the given values (ok[j]), distributivity
    gives w_m a_m a_j from w_m a_m a_{j-2} and w_m a_m a_{j-4} exactly, in two
    small multiplies and a subtract. Where the relation fails the product is
    multiplied directly, so the result is exact on any input. The first n of
    a range multiplies its products directly, and those of n - 1 too when the
    range goes on; each step adds the new product m = n - 1 the same way.
    """
    if lo < 0:
        raise ValueError("n must be nonnegative")
    if len(a_values) < 2 * hi + 1:
        raise ValueError("need a_0..a_{2n}")
    a = a_values
    blocks = []  # (m, h, d): the block m..h-1 and d = (m+1)...(h-1)
    w = []  # w[i] = (i+1)...(h-1), the weight of i in its block m..h-1
    m = 0
    while m < hi:
        h, d = m + 1, 1
        while d * h < _BLOCK_BOUND:
            d *= h
            h += 1
        blocks.append((m, h, d))
        w += [prod(range(i + 1, h)) for i in range(m, h)]
        m = h
    ok = [
        j >= 4 and a[j] == 2 * (j - 1) * a[j - 2] - (j - 2) * (j - 3) * a[j - 4]
        for j in range(2 * hi + 1)
    ]
    for n in range(lo, hi + 1):
        k = 2 * n
        if n == lo:
            top = [w[m] * a[m] * a[k - m] for m in range(n)]  # w_m a_m a_r
            if n < hi:  # only a next n reads w_m a_m a_{r-2}
                prev = [w[m] * a[m] * a[k - 2 - m] for m in range(n)]
        else:
            for m in range(n - 1):  # in place, so that no third list of products is alive
                r = k - m
                t = top[m]
                top[m] = 2 * (r - 1) * t - (r - 2) * (r - 3) * prev[m] if ok[r] else w[m] * a[m] * a[r]
                prev[m] = t
            prev.append(w[n - 1] * a[n - 1] * a[n - 1])
            top.append(w[n - 1] * a[n - 1] * a[n + 1])
        half = 0
        c = 1  # (-1)^m C(2n, m) at the block's start m
        for m, h, d in blocks:
            if m >= n:
                break
            cut = min(h, n)
            acc = top[cut - 1]
            for i in range(cut - 2, m - 1, -1):
                acc = top[i] - (k - i) * acc
            half += c * acc // d
            if h < n:
                c = c * prod(range(m - k, h - k)) // (d * h)
        middle = comb(k, n) * a[n] * a[n]
        yield 2 * half + (-middle if n & 1 else middle)


def convolution_lhs(n: int, a_values: Sequence[int]) -> int:
    """sum_{m+r=2n} (-1)^r C(2n, m) a_m a_r, which should equal 2^n (2n-1)!!.

    The terms at m and 2n - m carry the same binomial and, 2n being even, the
    same sign, for any input; so the sum over m < n is doubled and the middle
    term C(2n, n) a_n^2 added once.

    The terms m < n are summed in blocks m..h-1, so that the big binomial
    multiplies once per block, not once per term. A block grows while
    d = (m+1)...(h-1) stays below _BLOCK_BOUND, so the blocks depend on the
    indices alone, and the last one is cut short at n. Consecutive signed
    binomials differ by the small ratio -(2n-i)/(i+1), so Horner's rule from
    the block's top gives the block's sum as (-1)^m C(2n, m) acc / d, with acc
    an int: each term enters acc already multiplied by its weight
    w_i = (i+1)...(h-1), so a Horner step is one small multiply and a
    subtract. A block cut at n still divides by its full d, the terms it is
    missing counting as zero. The division is exact for any int input, since
    its quotient is the block's sum. From one block to the next the signed
    binomial advances as c (m-2n)(m+1-2n)...(h-1-2n) / (d h), exact too,
    since its quotient is (-1)^h C(2n, h) and reads no values; the middle
    term's C(2n, n) is math.comb's.

    This is the one-n case of convolutions, so it multiplies each product
    a_m a_r directly; over a range of n, convolutions carries the products
    from one n to the next through the even-step relation, wherever it holds
    on the given values.
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
