"""Exact arithmetic lab for the recurrence x_{n+1} = 1 + n/x_n.

The package computes the rational sequence x_n and its integer companions
(the involution numbers a_n, their gcds, 2-adic valuations and reduced
denominators) with arbitrary precision, checks the identities of the
associated exponential generating function in ints, on its normal
coefficients k! c_k, and mechanically verifies the known structural facts
about these sequences over user-chosen index ranges. No floating point enters any assertion.

Importing the package loads none of its submodules. Each public name in
__all__ is looked up in the submodule that defines it on first use, which
loads that submodule (and what it imports); the submodules themselves
(seqlab.checks, seqlab.cli, ...) are loaded on first use as well.
"""

import importlib

__version__ = "0.1.0"

# Each public name, mapped to the submodule that defines it.
_HOMES = {
    **dict.fromkeys(("LESS", "EQUAL", "GREATER", "cmp_shifted_sqrt", "primes_upto"), "exact"),
    **dict.fromkeys((
        "SeqRow", "MoebiusMatrix",
        "a_seq", "e_closed", "d_closed",
        "moebius", "moebius_apply", "a6_step", "q_step",
        "table", "rows_from_a",
    ), "sequences"),
    **dict.fromkeys(("ps_mul", "ps_exp", "egf_F", "convolution_lhs"), "series"),
    "count_involutions_enum": "involutions",
    **dict.fromkeys(("CheckResult", "VerifyConfig", "ReportDocument"), "report"),
    **dict.fromkeys(("run_all", "required_length"), "checks"),
}
_SUBMODULES = {*_HOMES.values(), "cli"}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
