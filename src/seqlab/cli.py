"""Command line front end.

Four subcommands: table emits the derived table as CSV or JSON, verify runs
the check suite and renders a report, series prints generating-function
coefficients plus identity outcomes, and oracle compares brute-force
involution counts against the companion sequence. Exit status is 0 on
success, 1 when a verification fails, 2 on usage errors and on output that
cannot be opened or written.
"""

import argparse
import decimal
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields
from decimal import Decimal
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from . import __version__
from .checks import required_length, run_all
from .exact import SIEVE_LIMIT
from .involutions import ENUMERATION_MAX, count_involutions_enum
from .report import PASS, ReportDocument, VerifyConfig
from .sequences import SeqRow, a_seq, iter_rows
from .series import egf_F, series_identity_parts

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_T = TypeVar("_T")

# Everything stays exact at any size, but an unbounded --max is a footgun, so
# each command's --max stops where it still finishes in well under a minute
# (wall and peak RSS of a child started with posix_spawn and reaped with
# wait4, medians of three runs, 2-vCPU host, CPython 3.11). `verify` costs
# about 4x per doubling, nearly all of it the walk: 6.9 s and 18 MiB at 40000,
# 29 s and 20 MiB at 80000. `table` writes every digit of every row, 1.4 GB
# of CSV in 5.2 s at 20000, and its output grows as N^2.
VERIFY_MAX_N = 80000
TABLE_MAX_N = 20000

# Memory, not time, bounds --order. The series check holds a_0..a_order and
# the closed form's coefficients, about order^2 log2(order) / 4 bits each, so
# its peak RSS grows more than 2x per doubling, while the convolution's
# recurrence and the closed side's running product take milliseconds on the
# orbit. Measured as --max is above, `series` takes 0.18 s and 32 MiB at 4800
# and `verify --checks d_upper,series` 0.19 s and 32 MiB; at 9600 the series
# identities took 0.15 s, but a process running them peaked at 83 MiB, past
# the 64 MiB that CI allows a command at its cap. So --order stops here for both
# verify and series.
MAX_ORDER = 4800

_COLUMNS = [f.name for f in fields(SeqRow)]
CSV_HEADER = ",".join(_COLUMNS)
# n and e stay small; everything else can outgrow doubles, so it ships as
# exact decimal strings. A decimal string needs no JSON escaping, so each row
# is this template filled with the row's column strings.
_JSON_ROW = "{{" + ", ".join(
    f'"{k}": {{}}' if k in ("n", "e") else f'"{k}": "{{}}"' for k in _COLUMNS
) + "}}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="Exact computations and checks for x_{n+1} = 1 + n/x_n "
        "and its integer companion sequences.",
    )
    parser.add_argument("--version", action="version", version=f"seqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit the derived table")
    p_table.add_argument("--max", type=int, default=20, help="largest index n (default %(default)s)")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default=None, help="output file (default stdout)")

    defaults = VerifyConfig()
    p_verify = sub.add_parser("verify", help="run the check suite")
    p_verify.add_argument("--max", type=int, default=defaults.max_n, help="largest index n (default %(default)s)")
    p_verify.add_argument("--primes", type=int, default=defaults.prime_limit,
                          help="largest congruence prime (default %(default)s)")
    p_verify.add_argument("--order", type=int, default=defaults.series_order,
                          help="series truncation order (default %(default)s)")
    p_verify.add_argument("--checks", default=None, help="comma-separated subset of check names")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None, help="output file (default stdout)")
    p_verify.add_argument("--seed", type=int, default=defaults.seed, help="seed for the sampled identity check")

    p_series = sub.add_parser("series", help="print coefficients and identity outcomes")
    p_series.add_argument("--order", type=int, default=12, help="truncation order (default %(default)s)")
    p_series.add_argument("--out", default=None, help="output file (default stdout)")

    p_oracle = sub.add_parser("oracle", help="compare enumerated involution counts")
    p_oracle.add_argument("--max", type=int, default=ENUMERATION_MAX, help=f"largest n (at most {ENUMERATION_MAX})")
    p_oracle.add_argument("--out", default=None, help="output file (default stdout)")

    return parser


class _UsageError(Exception):
    """What main prints to stderr before it exits with EXIT_USAGE."""


def _check_range(flag: str, value: int, lo: int, hi: int) -> None:
    if value < lo:
        floor = "nonnegative" if lo == 0 else f"at least {lo}"
        raise _UsageError(f"{flag} must be {floor}")
    if value > hi:
        raise _UsageError(f"{flag} is capped at {hi}")


# Output is written in blocks of at most 64 KiB. Through the default 8 KiB
# buffer, each row of a large table (8 KB on average at --max 3000) would be a
# write of its own, to stdout as to an --out file. Larger blocks cost more than
# they save: rows pass 64 KiB from n = 9431 on, and with 256 KiB blocks the
# copies that join such rows page-faulted 70 000 to 500 000 times and added
# 0.5-1.3 s to the 4-5 s of `table --max 20000` (in process, 2-vCPU host).
_BLOCK = 1 << 16


@contextmanager
def _output(path: Optional[str]) -> Iterator[Callable[[str], None]]:
    """A write function for stdout or the file at path.

    The text it is given is gathered into blocks of at most _BLOCK
    characters, each handed to the output in one write; a longer text is a
    block of its own, handed on without a copy. A block is written when the
    next text would overflow it, and the last when the with block ends; text
    still gathered when the with block raises is dropped. The file is opened
    on entry, so a command enters after checking its flags and before doing
    any work. An OSError from opening, writing, flushing or closing the
    output raises _UsageError naming it; any other error in the with block
    passes through unchanged.
    """
    name = "stdout" if path is None else path

    def guarded(op: Callable[..., _T], *args: object) -> _T:
        try:
            return op(*args)
        except OSError as exc:
            if path is None:
                # stdout keeps the text it could not write, and the flush at
                # exit would fail again and turn exit status 2 into 120. Point
                # stdout at the null device, as the Python docs advise.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise _UsageError(f"cannot write {name}: {exc.strerror}") from None

    fh = sys.stdout if path is None else guarded(lambda: open(path, "w", encoding="utf-8"))
    block: list[str] = []
    size = 0

    def write(text: str) -> None:
        nonlocal size
        if block and size + len(text) > _BLOCK:
            guarded(fh.write, "".join(block))
            block.clear()
            size = 0
        block.append(text)
        size += len(text)

    try:
        yield write
        guarded(fh.write, "".join(block))
        guarded(fh.flush)
    except BaseException:
        if path is not None:
            with suppress(OSError):
                fh.close()
        raise
    if path is not None:
        guarded(fh.close)


def _row_strings(rows: Iterable[SeqRow]) -> Iterator[list[str]]:
    """Each row's columns, in _COLUMNS order, as decimal strings.

    str() of a big int is quadratic in CPython, while str() of a Decimal and
    Decimal addition or multiplication by a small int are linear; building a
    Decimal from a big int is as quadratic as str(). So every column but the
    small n and e is carried as a Decimal shadow, each built from the
    previous row's shadows by the step that links the ints (see the
    sequences module docstring), with 2^j = d_n / d_{n-1}:

        a_n     = a_{n-1} + (n-1) a_{n-2}
        x_num_n = (x_num_{n-1} + (n-1) x_den_{n-1}) / 2^j
        x_den_n = x_num_{n-1} / 2^j
        d_n     = d_{n-1} * 2^j
        q_n     = x_num_n / 2^(e_n - log2 d_n)

    Why the strings are exact: a shadow is built by such a step only after
    the step has been checked, in ints, to give that column's int exactly;
    anywhere else (off the recurrence, or a divisor that is not a power of
    two) the shadow is Decimal(v). Every step runs in a private context with
    unbounded precision that traps Inexact, Rounded and InvalidOperation, so
    an operation that would round raises instead of printing a wrong digit,
    and a division by 2^j multiplies by 5^j and drops j digits that must be
    0. No step uses the thread's decimal context, which is left as it was.

    The text follows the objects. Where the row layer hands on an int (see
    sequences._derive_rows), the step is j = 0 and the shadow is the base's
    own shadow, found by an equality test that is O(1) on the same object.
    A column whose shadow is the very object rendered just before reuses
    that text: x_den's shadow is the previous x_num's, q's is this row's
    x_num's, and d's is the previous d's. Every other shadow goes through
    str(). A shadow is another column's object only where shadow()'s int
    test held, so each string still equals str() of its own column.
    """
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
    )

    def shadow(v: int, base: int, base_shadow: Decimal) -> Decimal:
        """v as a Decimal, from base_shadow (exactly base) where v = base * 2^j."""
        j = v.bit_length() - base.bit_length()
        if j == 0 and v == base:
            return base_shadow
        if j > 0 and v == base << j:
            return ctx.multiply(base_shadow, 1 << j)
        if j < 0 and v << -j == base:
            quo, rem = ctx.divmod(ctx.multiply(base_shadow, 5 ** -j), 10 ** -j)
            if rem:
                raise ArithmeticError("halving dropped a nonzero digit")
            return quo
        return Decimal(v)

    columns = attrgetter(*_COLUMNS)
    # The previous two rows' ints and their shadows, and the previous x_num's
    # and d's text. They start at 0: every step from 0 gives 0, which no
    # positive value equals, so row 0's a, x_num, x_den and d are Decimal(v).
    a1 = a2 = num1 = den1 = d1 = 0
    a1_s = a2_s = num1_s = den1_s = d1_s = Decimal(0)
    num1_t = d1_t = "0"
    for row in rows:
        n, a, num, den, d, e, q = columns(row)
        a_s = shadow(a, a1 + (n - 1) * a2, ctx.fma(a2_s, n - 1, a1_s))
        num_s = shadow(num, num1 + (n - 1) * den1, ctx.fma(den1_s, n - 1, num1_s))
        den_s = shadow(den, num1, num1_s)
        d_s = shadow(d, d1, d1_s)
        q_s = shadow(q, num, num_s)
        num_t = str(num_s)
        den_t = num1_t if den_s is num1_s else str(den_s)
        d_t = d1_t if d_s is d1_s else str(d_s)
        yield [str(n), str(a_s), num_t, den_t, d_t, str(e), num_t if q_s is num_s else str(q_s)]
        a1, a2, num1, den1, d1 = a, a1, num, den, d
        a1_s, a2_s, num1_s, den1_s, d1_s = a_s, a1_s, num_s, den_s, d_s
        num1_t, d1_t = num_t, d_t


def cmd_table(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 0, TABLE_MAX_N)
    with _output(args.out) as write:
        strings = _row_strings(iter_rows(args.max))
        if args.format == "csv":
            write(CSV_HEADER + "\n")
            for cols in strings:
                write(",".join(cols) + "\n")
        else:
            write("[\n")
            for i, cols in enumerate(strings):
                write(("  " if i == 0 else ",\n  ") + _JSON_ROW.format(*cols))
            write("\n]\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 0, VERIFY_MAX_N)
    _check_range("--order", args.order, 2, MAX_ORDER)
    _check_range("--primes", args.primes, 0, SIEVE_LIMIT)
    checks = None
    if args.checks is not None:
        checks = [name.strip() for name in args.checks.split(",") if name.strip()]
        if not checks:
            raise _UsageError("--checks given but empty")
    config = VerifyConfig(
        max_n=args.max,
        prime_limit=args.primes,
        series_order=args.order,
        checks=checks,
        seed=args.seed,
    )
    try:
        required_length(config)  # rejects unknown check names
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    with _output(args.out) as write:
        doc = ReportDocument(tool_version=__version__, config=config, results=run_all(config))
        write(doc.to_json() if args.format == "json" else doc.to_text())
    return EXIT_OK if doc.aggregate == PASS else EXIT_FAIL


def cmd_series(args: argparse.Namespace) -> int:
    _check_range("--order", args.order, 2, MAX_ORDER)
    with _output(args.out) as write:
        a_values = a_seq(args.order)
        parts = series_identity_parts(args.order, a_values)
        for n, c in enumerate(egf_F(min(args.order, 10), a_values)):
            write(f"c[{n}] = {c}\n")
        for part in sorted(parts):
            idx = parts[part]
            if idx is None:
                write(f"PASS {part}\n")
            else:
                write(f"FAIL {part} (first discrepancy at index {idx})\n")
    return EXIT_OK if all(v is None for v in parts.values()) else EXIT_FAIL


def cmd_oracle(args: argparse.Namespace) -> int:
    _check_range("--max", args.max, 0, ENUMERATION_MAX)
    with _output(args.out) as write:
        a_values = a_seq(args.max)
        all_match = True
        for n in range(args.max + 1):
            count = count_involutions_enum(n)
            match = count == a_values[n]
            all_match = all_match and match
            write(
                f"n={n} enumerated={count} companion={a_values[n]} "
                f"{'ok' if match else 'MISMATCH'}\n"
            )
    return EXIT_OK if all_match else EXIT_FAIL


_COMMANDS = {
    "table": cmd_table,
    "verify": cmd_verify,
    "series": cmd_series,
    "oracle": cmd_oracle,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"seqlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
