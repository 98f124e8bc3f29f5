"""The integer companion sequence a_n and everything derived from it.

a_0 = a_1 = 1 and a_{n+2} = a_{n+1} + (n+1) a_n. The rational sequence of
interest satisfies x_{n+1} = 1 + n / x_n with x_0 = 1, and x_n = a_n / a_{n-1}
for n >= 1. Per index we carry:

    d_n = gcd(a_n, a_{n-1})        (n >= 1)
    e_n = the 2-adic valuation of a_n
    q_n = a_n / 2^{e_n}            (the odd part)
    x_n = x_num / x_den in lowest terms, so x_den * d_n = a_{n-1}.

Closed forms: writing n = 4k + r with r in {0,1,2,3},
e_n is k, k, k+1, k+2 and d_n is 2^k, 2^k, 2^k, 2^{k+1} respectively.

The recurrence also carries the gcd from one index to the next. Write
a_{n-1} = d u and a_{n-2} = d v with d = d_{n-1} and gcd(u, v) = 1. Then
a_n = d (u + (n-1) v), and since gcd(u, v) = 1,

    d_n = gcd(a_n, a_{n-1}) = d_{n-1} * gcd(u, n-1),    u = x_num of row n-1,

for any values at which that step of the recurrence holds.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import gcd
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True)
class SeqRow:
    """One derived index: the output columns as ints, in order; x is derived."""

    n: int
    a: int
    x_num: int
    x_den: int
    d: int
    e: int
    q: int

    @property
    def x(self) -> Fraction:
        return Fraction(self.x_num, self.x_den)


def a_iter() -> Iterator[int]:
    """Infinite stream a_0, a_1, a_2, ..."""
    prev, cur = 0, 1  # a_{-1} = 0, so a_{n+1} = a_n + n a_{n-1} holds from n = 0
    for n in count():
        yield cur
        prev, cur = cur, cur + n * prev


def a_seq(max_n: int) -> list[int]:
    """[a_0, ..., a_max_n]."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return list(islice(a_iter(), max_n + 1))


def e_closed(n: int) -> int:
    """Closed form for the 2-adic valuation of a_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k, r = divmod(n, 4)
    return k + (0, 0, 1, 2)[r]


def d_closed(n: int) -> int:
    """Closed form for gcd(a_n, a_{n-1}), a pure power of two."""
    if n < 1:
        raise ValueError("d is defined for n >= 1")
    k, r = divmod(n, 4)
    return 1 << (k + (0, 0, 0, 1)[r])


@dataclass(frozen=True)
class MoebiusMatrix:
    """Integer 2x2 matrix acting on rationals by (alpha*x + beta)/(gamma*x + delta)."""

    alpha: int
    beta: int
    gamma: int
    delta: int

    @staticmethod
    def identity() -> "MoebiusMatrix":
        return MoebiusMatrix(1, 0, 0, 1)

    def __matmul__(self, other: "MoebiusMatrix") -> "MoebiusMatrix":
        return MoebiusMatrix(
            self.alpha * other.alpha + self.beta * other.gamma,
            self.alpha * other.beta + self.beta * other.delta,
            self.gamma * other.alpha + self.delta * other.gamma,
            self.gamma * other.beta + self.delta * other.delta,
        )


def moebius(n: int, k: int) -> MoebiusMatrix:
    """The matrix carrying x_n to x_{n+k}: a product of the one-step maps.

    One step from index n + j is x -> 1 + (n+j)/x, i.e. [[1, n+j], [1, 0]].
    Steps compose by left multiplication, so the determinant
    alpha*delta - beta*gamma is (-1)^k * prod(n+j).
    """
    if n < 0 or k < 0:
        raise ValueError("moebius requires nonnegative n and k")
    m = MoebiusMatrix.identity()
    for j in range(k):
        m = MoebiusMatrix(1, n + j, 1, 0) @ m
    return m


def moebius_apply(m: MoebiusMatrix, x: Fraction) -> Fraction:
    den = m.gamma * x + m.delta
    if den == 0:
        raise ZeroDivisionError("moebius map has a pole at this point")
    return (m.alpha * x + m.beta) / den


def a6_step(n: int, a_nm2: int, a_np2: int) -> int:
    """a_{n+6} from a_{n-2} and a_{n+2}, for n >= 2.

    a_{n+6} = 2 (n^2 + 9n + 19) a_{n+2} - n (n-1) (n+2) (n+5) a_{n-2}.
    """
    if n < 2:
        raise ValueError("a6_step requires n >= 2")
    return 2 * (n * n + 9 * n + 19) * a_np2 - n * (n - 1) * (n + 2) * (n + 5) * a_nm2


def q_step(n: int, q_nm2: int, q_np2: int) -> int:
    """q_{n+6} from q_{n-2} and q_{n+2}, for n >= 2.

    The odd parts satisfy the same shape of recurrence with the factor of 2
    absorbed: q_{n+6} = (n^2 + 9n + 19) q_{n+2} - (n (n-1) (n+2) (n+5) / 4) q_{n-2}.
    The division is exact for every n: n (n-1) is even, and so is one of
    n + 2 and n + 5, which differ by 3.
    """
    if n < 2:
        raise ValueError("q_step requires n >= 2")
    return (n * n + 9 * n + 19) * q_np2 - (n * (n - 1) * (n + 2) * (n + 5) // 4) * q_nm2


def _log2_exact(d: int) -> Optional[int]:
    """k where d == 2^k, else None; dividing by such a d is a right shift by k."""
    k = d.bit_length() - 1
    return k if k >= 0 and d == 1 << k else None


def _derive_rows(a_values: Iterable[int]) -> Iterator[SeqRow]:
    """Rows for a_0, a_1, ... as the values arrive, holding only the last two.

    The values may be any nonzero ints, of either sign; a zero raises
    ValueError naming its index, since it has no 2-adic valuation and would
    make the next row's x_den 0. Row n >= 1 reduces x_n = a_n / a_{n-1} by
    d_n = gcd(a_n, a_{n-1}) > 0, so x_num and x_den carry the signs of a_n
    and a_{n-1}. Row 0 reads as a_0 / 1 with the sentinel d_0 = 1, so the
    table is rectangular. Where a_n = a_{n-1} + (n-1) a_{n-2} holds (n >= 2),
    d_n is taken from the module docstring's identity
    d_{n-1} * gcd(x_num_{n-1}, n-1), a gcd with a small argument; anywhere
    else, corrupted input included, it is gcd(a_n, a_{n-1}) itself. Both give
    gcd(a_n, a_{n-1}) on any input. A None raises as a zero does, and the
    error prints the value it rejects.

    On the orbit d_n is a power of two, so x_num and x_den are shifts of
    a_n and a_{n-1}; a divisor that is not a power of two is divided out.

    Each row hands on what the row before built, and consecutive rows may
    share int objects. Each reuse is exact on any nonzero input:

    - x_den is the previous row's x_num object when d_n = d_{n-1} = 2^k and
      the previous row shifted too, since both are then a_{n-1} >> k;
    - q is the x_num object when e = k, since both are then a_n >> k;
    - for a > 0, e is read off the low window of a's bits 0..e_{n-1} + 63
      when that window is nonzero, since its lowest set bit is then a's. On
      the orbit e moves by at most one per row, so the window holds it, and
      & with a small mask reads only the mask's digits. A window of zeros,
      and a negative a, whose & reads every digit, take the valuation of a.

    On the orbit x_den is reused at three rows in four and q at one in two.
    """
    pprev, prev, dn, num, k, e = 0, 1, 1, 1, None, 0
    for n, a in enumerate(a_values):
        if not a:
            raise ValueError(f"a_{n} = {a!r}: rows are derived only from nonzero values")
        low = a & ((1 << (e + 64)) - 1) if a > 0 else 0
        if not low:
            low = a
        e = (low & -low).bit_length() - 1  # low & -low is the lowest set bit, of either sign
        if n >= 2 and a == prev + (n - 1) * pprev:
            dn *= gcd(num, n - 1)
        else:
            dn = gcd(a, prev)
        k, k_prev = _log2_exact(dn), k
        if k is None:
            num, den = a // dn, prev // dn
        else:
            num, den = a >> k, num if k == k_prev else prev >> k
        yield SeqRow(n, a, num, den, dn, e, num if e == k else a >> e)
        pprev, prev = prev, a


def rows_from_a(a_values: Iterable[int]) -> list[SeqRow]:
    """The table for [a_0, ..., a_N], or for any list of nonzero ints."""
    return list(_derive_rows(a_values))


def iter_rows(max_n: int) -> Iterator[SeqRow]:
    """Rows 0..max_n, each derived as soon as its companion value is computed."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return _derive_rows(islice(a_iter(), max_n + 1))


def table(max_n: int) -> list[SeqRow]:
    """Rows 0..max_n of the derived table."""
    return list(iter_rows(max_n))

