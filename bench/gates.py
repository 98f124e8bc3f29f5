"""Correctness gates for benchmark runs, independent of the seqlab package.

Nothing here imports seqlab. The table reference is a plain-int
reimplementation: the recurrence a_{n+1} = a_n + n a_{n-1}, x_n reduced by
math.gcd, and e/q from bit tricks. Verify reports are checked field by field,
never byte for byte, so new report fields do not read as failures.
"""

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Optional

# Every check `seqlab verify` runs when --checks is not given.
ALL_CHECKS = frozenset({
    "a6_relation", "congruence", "d_formula", "d_power_of_two", "d_upper",
    "e_q", "integrality", "involutions", "mod4_exclusion", "parity",
    "quadratic_gap", "quarter_bound", "series", "sign_flip",
    "sqrt_factorial", "x_bounds",
})

# Checks whose range is fixed by the package rather than by --max.
FIXED_HI = {"involutions": 10, "sign_flip": 1000}

CSV_HEADER = "n,a,x_num,x_den,d,e,q\n"


def verify_problem(
    exit_code: int, report_path: Path, max_n: int, order: int,
    checks: frozenset, seed: int,
) -> Optional[str]:
    """Why a `seqlab verify --format json` run is wrong, or None if it is right."""
    if exit_code != 0:
        return f"exit status {exit_code}"
    try:
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        results = {r["name"]: r for r in doc["results"]}
        if doc["aggregate"] != "pass":
            return f"aggregate is {doc['aggregate']!r}"
        if set(results) != checks:
            return f"checks {sorted(results)} differ from the requested {sorted(checks)}"
        if doc["config"]["seed"] != seed:
            return f"report seed {doc['config']['seed']} is not {seed}"
        for name, r in sorted(results.items()):
            if r["status"] != "pass":
                return f"check {name} is {r['status']!r}"
            want_hi = order if name == "series" else FIXED_HI.get(name, max_n)
            if r["range"]["hi"] != want_hi:
                return f"check {name} covers up to {r['range']['hi']}, not {want_hi}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    return None


def table_problem(exit_code: int, csv_path: Path, want_sha256: str) -> Optional[str]:
    """Why a `seqlab table` CSV run is wrong, or None if it is right."""
    if exit_code != 0:
        return f"exit status {exit_code}"
    try:
        got = file_sha256(csv_path)
    except OSError as exc:
        return f"unreadable table: {exc!r}"
    if got != want_sha256:
        return f"table sha256 {got} differs from the reference {want_sha256}"
    return None


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def reference_table_sha256(max_n: int) -> str:
    """SHA-256 of the CSV `seqlab table --max max_n` must print."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    h = hashlib.sha256(CSV_HEADER.encode())
    lines = ["0,1,1,1,1,0,1\n"]
    prev, a = 1, 1  # a_{n-1}, a_n
    for n in range(1, max_n + 1):
        if n > 1:
            prev, a = a, a + (n - 1) * prev
        g = math.gcd(a, prev)
        e = (a & -a).bit_length() - 1
        lines.append(f"{n},{a},{a // g},{prev // g},{g},{e},{a >> e}\n")
        if len(lines) >= 256:
            h.update("".join(lines).encode())
            lines.clear()
    h.update("".join(lines).encode())
    return h.hexdigest()
