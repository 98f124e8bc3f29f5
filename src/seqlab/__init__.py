"""Exact arithmetic lab for the recurrence x_{n+1} = 1 + n/x_n.

The package computes the rational sequence x_n and its integer companions
(the involution numbers a_n, their gcds, 2-adic valuations and reduced
denominators) with arbitrary precision, checks the identities of the
associated exponential generating function in ints, on its normal
coefficients k! c_k, and mechanically verifies the known structural facts
about these sequences over user-chosen index ranges. No floating point enters any assertion.
"""

__version__ = "0.1.0"

from .exact import (
    EQUAL,
    GREATER,
    LESS,
    cmp_shifted_sqrt,
    primes_upto,
)
from .sequences import (
    MoebiusMatrix,
    SeqRow,
    a_mod,
    a_seq,
    a6_step,
    d_closed,
    e_closed,
    moebius,
    moebius_apply,
    q_step,
    rows_from_a,
    table,
)
from .series import (
    convolution_lhs,
    egf_F,
    ps_exp,
    ps_mul,
)
from .involutions import count_involutions_enum
from .report import CheckResult, ReportDocument, VerifyConfig
from .checks import required_length, run_all

__all__ = [
    "__version__",
    "LESS", "EQUAL", "GREATER",
    "cmp_shifted_sqrt", "primes_upto",
    "SeqRow", "MoebiusMatrix",
    "a_seq", "a_mod", "e_closed", "d_closed",
    "moebius", "moebius_apply", "a6_step", "q_step",
    "table", "rows_from_a",
    "ps_mul", "ps_exp", "egf_F", "convolution_lhs",
    "count_involutions_enum",
    "CheckResult", "VerifyConfig", "ReportDocument",
    "run_all", "required_length",
]
