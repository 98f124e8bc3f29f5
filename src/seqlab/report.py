"""What a verification run takes and gives: its config, each check's result,
and the report the CLI renders. The checks themselves, and the protocol that
builds and runs them, live in checks."""

import json
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

PASS = "pass"
FAIL = "fail"


@dataclass
class CheckResult:
    """Outcome of one named check over an index range.

    counterexamples holds (n, detail) pairs; an empty list means the check
    held everywhere it looked, and that is the verdict: status and passed are
    read off it. elapsed_ms is wall time and is the only field allowed to
    differ between otherwise identical runs.
    """

    name: str
    lo: int
    hi: int
    counterexamples: list[tuple[int, str]] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def status(self) -> str:
        return FAIL if self.counterexamples else PASS

    @property
    def passed(self) -> bool:
        return not self.counterexamples

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
            "config": asdict(self.config),
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
