"""The check shape and result containers shared by all checks, and the CLI
report rendering."""

import json
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice
from time import perf_counter
from typing import Callable, Iterable, Optional, Sequence, Union

PASS = "pass"
FAIL = "fail"

# A failing sweep reports at most this many witnesses; more adds no signal.
MAX_COUNTEREXAMPLES = 25

Hit = Optional[tuple[int, str]]
Step = Callable[[int, Sequence], Hit]
Tail = Callable[[Sequence[int]], Iterable[tuple[int, str]]]


@dataclass
class CheckResult:
    """Outcome of one named check over an index range.

    counterexamples holds (n, detail) pairs; an empty list means the check
    held everywhere it looked. elapsed_ms is wall time and is the only field
    allowed to differ between otherwise identical runs.
    """

    name: str
    lo: int
    hi: int
    status: str
    counterexamples: list[tuple[int, str]] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "range": {"lo": self.lo, "hi": self.hi},
            "status": self.status,
            "counterexamples": [
                {"n": n, "detail": detail} for n, detail in self.counterexamples
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def decimal_text(v: Union[int, Fraction]) -> str:
    """str(v) for an int or a Fraction, with no limit on the digit count.

    str() of an int refuses more than sys.get_int_max_str_digits() digits,
    and a corrupted value in a counterexample can have more; Decimal(int)
    converts any int exactly, and prints it as str() would.
    """
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return decimal_text(v.numerator)
        return f"{decimal_text(v.numerator)}/{decimal_text(v.denominator)}"
    return str(Decimal(v))


class _Sweep:
    """One check: its steps over a walk, then the counterexamples read off the
    leading companion values.

    A step (first, last, step) is called as step(n, window) at each index
    first <= n <= last of the walk, with window[-1] item n and window[-1-k]
    item n-k (k <= 8); it returns an (n, detail) counterexample or None. `rows`
    says whether the walk is over rows or over the companion values. Each
    step's counterexamples follow those of the steps before it, and those of
    the tail follow them all. The tail reads the leading values that result()
    is handed; `then` is one callable, `then(values)` an iterator over the
    tail's counterexamples, or a tuple of such parts, whose counterexamples
    follow one another in order and which read nothing of one another, so
    each can be read apart (see checks._run); `then=None` means the check has
    no tail. `parts` holds the tail as a tuple, empty for none.
    MAX_COUNTEREXAMPLES are kept; a step whose finds could no longer be kept
    is not called again, and the tail is read no further than needed: a part
    is not called before the parts ahead of it are read out.

    The sweep reads the companion values a_0..a_{R-1} with R = max(need,
    prefix). `need` is how far the walk goes: one past the last index a step
    reads; the walk checks that its input reaches it. `prefix` is how many
    leading values `then` reads; result() checks that it is handed them, even
    when `then` is never read. A range that ends before n = 0 is rejected when
    the sweep is built.
    """

    def __init__(self, name: str, lo: int, hi: int, *steps: tuple[int, int, Step], rows: bool = True,
                 then: Union[None, Tail, tuple[Tail, ...]] = None, prefix: int = 0) -> None:
        if hi < 0:
            raise ValueError(f"{name} ends at n = {hi}, before n = 0")
        self.name, self.lo, self.hi, self.rows = name, lo, hi, rows
        self.parts = () if then is None else then if isinstance(then, tuple) else (then,)
        self.prefix = prefix
        self.steps = [(first, last, step, []) for first, last, step in steps]
        self.need = max((last + 1 for _, last, _ in steps), default=0)
        self.seconds = 0.0

    def result(self, values: Sequence[int] = (),
               tail: Optional[tuple[Iterable[tuple[int, str]], float]] = None) -> CheckResult:
        """The check's result, the tail reading the given leading values; reading
        it counts toward the elapsed time. `tail`, when given, is the tail as
        read elsewhere: its parts' counterexamples in order, which raise where a
        part raised, and the seconds that reading its parts took, summed."""
        if len(values) < self.prefix:
            raise ValueError(f"{self.name} reads a_0..a_{self.prefix - 1}; the input stops at {len(values) - 1}")
        start = perf_counter()
        if tail is None:
            tail = chain.from_iterable(part(values) for part in self.parts), 0.0
        hits, seconds = tail
        found = (found for _, _, _, found in self.steps)
        cex = list(islice(chain(*found, hits), MAX_COUNTEREXAMPLES))
        ms = int((self.seconds + seconds + perf_counter() - start) * 1000)
        return CheckResult(self.name, self.lo, self.hi, FAIL if cex else PASS, cex, ms)


@dataclass
class VerifyConfig:
    """Knobs for a verification sweep.

    checks=None means every registered check. seed feeds only the randomized
    algebraic-identity sampling; all other checks are deterministic.
    """

    max_n: int = 1000
    prime_limit: int = 97
    series_order: int = 600
    oracle_max: int = 10
    checks: Optional[list[str]] = None
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ReportDocument:
    tool_version: str
    config: VerifyConfig
    results: list[CheckResult]

    @property
    def aggregate(self) -> str:
        return PASS if all(r.passed for r in self.results) else FAIL

    def to_json(self) -> str:
        doc = {
            "tool_version": self.tool_version,
            "config": self.config.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "aggregate": self.aggregate,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(
                f"{'PASS' if r.passed else 'FAIL'} {r.name} [{r.lo},{r.hi}] ({r.elapsed_ms} ms)"
            )
            for n, detail in r.counterexamples:
                lines.append(f"    n={n}: {detail}")
        lines.append(f"aggregate: {self.aggregate}")
        return "\n".join(lines) + "\n"
