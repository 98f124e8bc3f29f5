"""Acceptance gate: every shipped guarantee, exercised end to end.

Each criterion runs at its stated range with zero numeric tolerance (all
arithmetic is exact) and records itself in _criteria, so the run ends with
one ACCEPTANCE line per criterion in the terminal summary.
"""

import json
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import _criteria

from seqlab.checks import (
    check_a6_relation,
    check_congruence,
    check_d_formula,
    check_d_power_of_two,
    check_d_upper,
    check_e_q,
    check_parity,
    check_quadratic_gap,
    check_quarter_bound_and_D,
    check_series_identities,
    check_sqrt_factorial_lower,
    check_x_bounds,
    required_length,
    run_all,
)
from seqlab.cli import main
from seqlab.exact import EQUAL, GREATER, LESS, cmp_shifted_sqrt
from seqlab.involutions import check_involution_identity, count_involutions_enum
from seqlab.report import VerifyConfig
from seqlab.sequences import a_seq, a6_step

GOLDEN_TABLE = """n,a,x_num,x_den,d,e,q
0,1,1,1,1,0,1
1,1,1,1,1,0,1
2,2,2,1,1,1,1
3,4,2,1,2,2,1
4,10,5,2,2,1,5
5,26,13,5,2,1,13
6,76,38,13,2,2,19
7,232,58,19,4,3,29
8,764,191,58,4,2,191
9,2620,655,191,4,2,655
"""


@contextmanager
def criterion(num):
    _criteria.attempted.add(num)
    yield
    _criteria.passed.add(num)


def test_criterion_01_golden_table(capsys):
    with criterion(1):
        start = time.monotonic()
        rc = main(["table", "--max", "9"])
        elapsed = time.monotonic() - start
        assert rc == 0
        assert capsys.readouterr().out == GOLDEN_TABLE
        assert elapsed < 1.0


def test_criterion_02_integrality_via_cli(capsys):
    with criterion(2):
        start = time.monotonic()
        rc = main(["verify", "--checks", "integrality", "--max", "5000"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS integrality [0,5000]" in out
        assert out.splitlines()[-1] == "aggregate: pass"
        assert elapsed < 60.0


def test_criterion_03_sqrt_window(rows5000):
    with criterion(3):
        start = time.monotonic()
        result = check_x_bounds(2000, rows5000)
        assert result.passed, result.counterexamples
        # Base equalities: x_1 and x_3 sit exactly on the lower edge.
        assert cmp_shifted_sqrt(Fraction(1), 1) == EQUAL
        assert cmp_shifted_sqrt(Fraction(2), 9) == EQUAL
        # And the first strict instance: sqrt(13) window around x_4 = 5/2.
        assert cmp_shifted_sqrt(Fraction(5, 2), 13) == GREATER
        assert cmp_shifted_sqrt(Fraction(5, 2), 17) == LESS
        assert time.monotonic() - start < 30.0


def test_criterion_04_quadratic_gap(rows5000):
    with criterion(4):
        result = check_quadratic_gap(2000, rows5000)
        assert result.passed, result.counterexamples
        x4 = rows5000[4].x
        assert x4 * x4 - x4 == Fraction(15, 4)
        assert 3 < Fraction(15, 4) < 4


def test_criterion_05_factorial_lower_bound(avalues):
    with criterion(5):
        result = check_sqrt_factorial_lower(2000, avalues)
        assert result.passed, result.counterexamples
        equalities = [
            n for n in range(2001) if avalues[n] ** 2 == factorial(n)
        ]
        assert equalities == [0, 1]


def test_criterion_06_prime_congruence(avalues):
    with criterion(6):
        start = time.monotonic()
        result = check_congruence(97, 5000, avalues)
        assert result.passed, result.counterexamples
        assert (result.lo, result.hi) == (3, 5000)
        assert time.monotonic() - start < 60.0


def test_criterion_07_gcd_power_and_bound(rows5000, avalues):
    with criterion(7):
        power = check_d_power_of_two(5000, rows5000)
        assert power.passed, power.counterexamples
        upper = check_d_upper(5000, rows5000, avalues)
        assert upper.passed, upper.counterexamples
        # Spot values: the gcd ladder really moves.
        assert [rows5000[n].d for n in (4, 7, 8, 100)] == [2, 4, 4, 2**25]


def test_criterion_08_valuation_and_odd_part(rows5000):
    with criterion(8):
        eq = check_e_q(5000, rows5000)
        assert eq.passed, eq.counterexamples
        formula = check_d_formula(5000, rows5000)
        assert formula.passed, formula.counterexamples
        assert [rows5000[n].q for n in range(8)] == [1, 1, 1, 1, 5, 13, 19, 29]


def test_criterion_09_six_step_recurrence(avalues):
    with criterion(9):
        result = check_a6_relation(2000, avalues)
        assert result.passed, result.counterexamples
        assert a6_step(2, avalues[0], avalues[4]) == avalues[8] == 764
        assert a6_step(3, avalues[1], avalues[5]) == avalues[9] == 2620
        assert a6_step(4, avalues[2], avalues[6]) == avalues[10] == 9496


def test_criterion_10_series_identities(avalues):
    with criterion(10):
        start = time.monotonic()
        result = check_series_identities(600, avalues)
        elapsed = time.monotonic() - start
        assert result.passed, result.counterexamples
        assert (result.lo, result.hi) == (0, 600)
        assert elapsed < 120.0


def test_criterion_11_involution_oracle(avalues):
    with criterion(11):
        start = time.monotonic()
        counts = [count_involutions_enum(n) for n in range(11)]
        assert counts == avalues[:11]
        assert check_involution_identity(10, avalues).passed
        assert time.monotonic() - start < 30.0


def test_criterion_12_quarter_bound_and_parity(rows5000):
    with criterion(12):
        quarter = check_quarter_bound_and_D(5000, rows5000)
        assert quarter.passed, quarter.counterexamples
        parity = check_parity(5000, rows5000)
        assert parity.passed, parity.counterexamples
        # The factorial-versus-power bound is tight: false at 9, true at 10.
        assert factorial(8) < 4**8
        assert factorial(9) > 4**9


def test_criterion_13_deterministic_report(tmp_path):
    with criterion(13):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            rc = main(["verify", "--max", "120", "--order", "40",
                       "--format", "json", "--out", str(p)])
            assert rc == 0
        normalized = [
            re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', p.read_text())
            for p in paths
        ]
        assert normalized[0] == normalized[1]
        doc = json.loads(normalized[0])
        assert doc["aggregate"] == "pass"
        assert len(doc["results"]) == 16


def test_criterion_14_fault_injection():
    with criterion(14):
        config = VerifyConfig(max_n=80, series_order=80, oracle_max=8)
        clean = a_seq(required_length(config) - 1)
        assert all(r.passed for r in run_all(config, a_values=clean))

        bad = list(clean)
        bad[37] += 2
        results = {r.name: r for r in run_all(config, a_values=bad)}
        failing = {name for name, r in results.items() if not r.passed}
        assert failing >= {
            "a6_relation", "congruence", "d_formula", "e_q", "parity", "series",
        }
        # Checks with no sight of index 37 must stay green.
        assert {"involutions", "sign_flip", "integrality"} & failing == set()
        # The sweeps that can pinpoint the corruption name the exact index.
        for name in ("congruence", "d_formula", "e_q", "parity"):
            assert results[name].counterexamples[0][0] == 37
        assert any(
            n == 37 and "exp_closed_form" in detail
            for n, detail in results["series"].counterexamples
        )
        a6 = results["a6_relation"].counterexamples
        assert {n for n, _ in a6} == {31, 35, 39}
        assert all("a(37)" in detail for _, detail in a6)
