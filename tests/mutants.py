"""Mutation gate: every mutant listed here must be killed by its tests.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each entry is (name, file under src/, exact old text, new text, test
selection). For each one the script copies src/ to a temporary directory,
checks that the old text occurs in the file exactly once, applies the edit,
and runs the selection with -x against the copy, under the Hypothesis
profile `explicit` (tests/conftest.py): only @example cases run, so no kill
rests on a random draw, and a @given test kills a mutant only through one of
its @examples. A mutant is killed when its selection fails (pytest exit
status 1). Every selection first runs once against an unedited copy and must
pass there. The script exits 1 and names every mutant that survives, no
longer applies, or whose selection no longer runs or runs past TIMEOUT_S (a
hung mutant fails the gate, it is not counted as killed); a refactor that
moves the mutated code carries its entry along.

Standard library only. pytest does not collect this file: its name does not
start with test_.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
CHECKS = "seqlab/checks.py"
SERIES = "seqlab/series.py"
SEQUENCES = "seqlab/sequences.py"
INVOLUTIONS = "seqlab/involutions.py"
CLI = "seqlab/cli.py"
REPORT = "seqlab/report.py"
INIT = "seqlab/__init__.py"
T = "tests/test_checks.py::"
S = "tests/test_sequences.py::"
TS = "tests/test_series.py::"
TI = "tests/test_involutions.py::"
TC = "tests/test_cli.py::"
TP = "tests/test_package.py::"
TR = "tests/test_report.py::"

MUTANTS = [
    # result(): the steps' finds, then the tail's, under one clock and one cap.
    (
        "tail time dropped",
        CHECKS,
        "ms = int((self.seconds + perf_counter() - start) * 1000)",
        "ms = int(self.seconds * 1000)",
        [T + "test_a_tail_s_time_reaches_elapsed_ms"],
    ),
    (
        "the tail's finds chained before the steps'",
        CHECKS,
        "chain(*found, self.tail(values) if self.tail else ())",
        "chain(self.tail(values) if self.tail else (), *found)",
        [T + "test_a_tail_s_error_raises_before_a_later_sweep_s_hits"],
    ),
    (
        "prime_limit unchecked",
        CHECKS,
        "    if prime_limit < 0:\n",
        "    if False:\n",
        [T + "test_a_bad_config_is_rejected_before_any_work"],
    ),
    # congruence: one sweep modulo the product P of the swept primes keeps
    # a_n mod r_n, r_n the product of those dividing n.
    (
        "a prime missing from P",
        CHECKS,
        "prod(odd_primes)",
        "prod(odd_primes[1:])",
        [T + "test_congruence_reads_each_listed_modulus_as_full_values_do"],
    ),
    (
        "r_n built over the odd multiples only",
        CHECKS,
        "            for n in range(p, n_limit + 1, p):\n                kept[n] *= p\n",
        "            for n in range(p, n_limit + 1, 2 * p):\n                kept[n] *= p\n",
        [T + "test_congruence_reads_each_listed_modulus_as_full_values_do"],
    ),
    (
        "a residue read modulo the first prime",
        CHECKS,
        "                if kept[n] % p != 1:\n",
        "                if kept[n] % odd_primes[0] != 1:\n",
        [T + "test_congruence_reads_each_listed_modulus_as_full_values_do"],
    ),
    # The modular part reads no given value, so the property's reference
    # finds nothing there; composite moduli make it find something.
    (
        "the reference's modular part skipped",
        CHECKS,
        "        for p in odd_primes:\n"
        "            for n in range(p, n_limit + 1, p):\n"
        "                if kept[n] % p != 1:\n"
        "                    yield n, f\"a({n}) = {kept[n] % p} mod {p}, expected 1\"\n",
        "",
        [T + "test_congruence_reads_each_listed_modulus_as_full_values_do"],
    ),
    (
        "the sweep started one index late",
        CHECKS,
        "        for n in range(n_limit + 1):\n            kept[n] = cur % kept[n]\n",
        "        for n in range(1, n_limit + 1):\n            kept[n] = cur % kept[n]\n",
        [T + "test_congruence_reads_each_listed_modulus_as_full_values_do"],
    ),
    # quarter_bound decides d^4 > 2^(n+1) from the exponent where d = 2^k.
    (
        "d^4 exponent test weakened to >=",
        CHECKS,
        "else 4 * k > n + 1:",
        "else 4 * k >= n + 1:",
        [T + "test_quarter_bound_decides_d4_at_the_boundary"],
    ),
    (
        "quarter_bound's shift without its k is None guard",
        CHECKS,
        "(row.x_den * row.d if k is None else row.x_den << k)",
        "(row.x_den << row.d.bit_length() - 1)",
        [T + "test_quarter_bound_decides_d4_at_the_boundary"],
    ),
    # The power-of-two kernel without its guard lets d = 0 through.
    (
        "d & (d - 1) as the power-of-two test",
        CHECKS,
        "if _log2_exact(w[-1].d) is None:",
        "if w[-1].d & (w[-1].d - 1):",
        [T + "test_d_power_of_two_rejects_a_d_that_is_no_power_of_two"],
    ),
    # x_den carries a_{n-1}'s sign; x_bounds moves it into p, and the integer
    # tests read x_den = -1 as an integer x too.
    (
        "x_bounds without its sign move",
        CHECKS,
        "        if q < 0:  # x_den carries a_{n-1}'s sign: move it into p\n            p, q = -p, -q\n",
        "",
        [T + "test_x_bounds_reads_the_sign_of_x_not_of_its_denominator"],
    ),
    (
        "mod4_exclusion's test as `x_den == 1`",
        CHECKS,
        "        if w[-1].x_den in (1, -1):\n",
        "        if w[-1].x_den == 1:\n",
        [T + "test_an_integer_x_over_minus_one_is_caught"],
    ),
    (
        "integrality's test as `x_den == 1`",
        CHECKS,
        "if (w[-1].x_den in (1, -1)) != (n <= 3):",
        "if (w[-1].x_den == 1) != (n <= 3):",
        [T + "test_an_integer_x_over_minus_one_is_caught"],
    ),
    # A check's name is spelled only in its sweep; a typo there renames the check.
    (
        "a sweep's name changed",
        CHECKS,
        '_Sweep("x_bounds", 4, c.max_n, (4, c.max_n, step))',
        '_Sweep("x_bound", 4, c.max_n, (4, c.max_n, step))',
        [T + "test_check_names_are_stable"],
    ),
    # The leading-bit filters: each may only decide what the exact test would.
    (
        "gap filter's lower end without c",
        CHECKS,
        "(n - 1) * (qh + c) * (qh + c) < ph * (ph - qh - c)",
        "(n - 1) * qh * qh < ph * (ph - qh)",
        [T + "test_gap_filter_is_exact_at_the_ends_of_the_window"],
    ),
    (
        "gap filter's upper end without c",
        CHECKS,
        "(ph + c) * (ph + c - qh) < n * qh * qh",
        "ph * (ph - qh) < n * qh * qh",
        [T + "test_gap_filter_is_exact_at_the_ends_of_the_window"],
    ),
    (
        "gap filter's c always 0",
        CHECKS,
        "    c = 1 if s else 0\n",
        "    c = 0\n",
        [T + "test_gap_filter_is_exact_at_the_ends_of_the_window"],
    ),
    (
        "gap filter's ph >= qh + 1 guard dropped",
        CHECKS,
        "        and ph >= qh + 1\n",
        "",
        [T + "test_gap_filter_is_exact_off_the_orbit"],
    ),
    (
        "square filter's > as >=",
        CHECKS,
        "return 2 * a.bit_length() - 1 > m.bit_length()",
        "return 2 * a.bit_length() - 1 >= m.bit_length()",
        [T + "test_square_filter_is_exact_where_it_decides"],
    ),
    # a_{n+1} = a_n + n a_{n-1}, streamed from a_{-1} = 0.
    (
        "a_iter's step n + 1 for n",
        SEQUENCES,
        "cur + n * prev",
        "cur + (n + 1) * prev",
        [S + "test_a_seq_first_values"],
    ),
    # Row derivation shifts only where d_n is a power of two.
    (
        "row derivation's shift guard skipped",
        SEQUENCES,
        "k, k_prev = _log2_exact(dn), k",
        "k, k_prev = dn.bit_length() - 1, k",
        [S + "test_row_divisors_shift_where_a_power_of_two_and_divide_elsewhere"],
    ),
    # Rows are derived from nonzero values of either sign; a zero or a None is named.
    (
        "row derivation on abs(a), which hides a negated value",
        SEQUENCES,
        "for n, a in enumerate(a_values):",
        "for n, a in enumerate(map(abs, a_values)):",
        [S + "test_rows_from_a_on_nonzero_ints_of_either_sign",
         T + "test_run_all_localizes_a_negated_value"],
    ),
    (
        "the zero guard dropped",
        SEQUENCES,
        "        if not a:\n",
        "        if False:\n",
        [T + "test_run_all_names_a_zero_value"],
    ),
    (
        "the rejected value printed as 0",
        SEQUENCES,
        'raise ValueError(f"a_{n} = {a!r}: ',
        'raise ValueError(f"a_{n} = 0: ',
        [T + "test_a_none_value_never_passes"],
    ),
    (
        "the valuation off by one",
        SEQUENCES,
        "e = (low & -low).bit_length() - 1",
        "e = (low & -low).bit_length()",
        [S + "test_rows_from_a_on_nonzero_ints_of_either_sign"],
    ),
    # Rows hand on the ints the row before built, each only where it is exact.
    (
        "the valuation's window one word short, with no fallback",
        SEQUENCES,
        "low = a & ((1 << (e + 64)) - 1) if a > 0 else 0\n        if not low:\n            low = a\n",
        "low = a & ((1 << (e + 63)) - 1) if a > 0 else a\n",
        [S + "test_rows_from_a_equals_plain_gcd_and_division"],
    ),
    (
        "x_den handed on when k changed",
        SEQUENCES,
        "num if k == k_prev else prev >> k",
        "num if k_prev is not None else prev >> k",
        [S + "test_rows_from_a_equals_plain_gcd_and_division"],
    ),
    (
        "q handed on when e != k",
        SEQUENCES,
        "num if e == k else a >> e",
        "num if k is not None else a >> e",
        [S + "test_rows_from_a_equals_plain_gcd_and_division"],
    ),
    # The walk: step order, the counterexample cap, a step's own range.
    (
        "e_q's two steps swapped",
        CHECKS,
        "(0, c.max_n, per_row), (8, c.max_n, recurrence)",
        "(8, c.max_n, recurrence), (0, c.max_n, per_row)",
        [T + "test_e_q_recurrence_finds_follow_the_per_row_finds"],
    ),
    # e_q's row-consistency clauses: derived rows always pass them, so only a
    # corrupted q, pinned by an @example, reaches each.
    (
        "e_q's oddness clause dropped",
        CHECKS,
        "        if not row.q & 1:\n"
        "            return n, f\"odd part of a({n}) came out even\"\n",
        "",
        [T + "test_e_q_matches_the_two_phase_loop"],
    ),
    (
        "e_q's rebuild clause dropped",
        CHECKS,
        "        if (row.q << row.e) != row.a:\n"
        "            return n, f\"q({n}) * 2^e({n}) does not rebuild a({n})\"\n",
        "",
        [T + "test_e_q_matches_the_two_phase_loop"],
    ),
    (
        "the walk's cap test >= as >",
        CHECKS,
        "if kept >= MAX_COUNTEREXAMPLES:",
        "if kept > MAX_COUNTEREXAMPLES:",
        [T + "test_a_capped_step_is_not_called_again"],
    ),
    (
        "the walk's cap counted per step",
        CHECKS,
        "            kept = 0\n"
        "            for first, last, step, found in sweep.steps:\n",
        "            for first, last, step, found in sweep.steps:\n"
        "                kept = 0\n",
        [T + "test_a_capped_step_is_not_called_again"],
    ),
    (
        "the item yielded after its steps",  # yields where a last sweep would run
        CHECKS,
        "        yield item\n"
        "        end = n + 1\n"
        "        start = perf_counter()\n"
        "        for sweep in sweeps:\n",
        "        end = n + 1\n"
        "        start = perf_counter()\n"
        "        for sweep in [*sweeps, None]:\n"
        "            if sweep is None:\n"
        "                yield item\n"
        "                break\n",
        [T + "test_a_none_value_never_passes"],
    ),
    (
        "the values walk not drained after the rows",
        CHECKS,
        "    deque(values, 0)",
        "    pass",
        [T + "test_run_all_walks_the_values_past_the_rows"],
    ),
    (
        "required_length's floor of 1 as 0",
        CHECKS,
        "return max([1] + [max(s.need, s.prefix)",
        "return max([0] + [max(s.need, s.prefix)",
        [T + "test_required_length_covers_the_lookahead"],
    ),
    (
        "the coverage check off by one",
        CHECKS,
        "if end < sweep.need:",
        "if end < sweep.need - 1:",
        [T + "test_rows_must_cover_range"],
    ),
    (
        "integrality's n <= 3 as n < 3",
        CHECKS,
        "!= (n <= 3):",
        "!= (n < 3):",
        [T + "test_integrality_catches_both_directions"],
    ),
    (
        "result() keeping 50",
        CHECKS,
        "self.tail else ()), MAX_COUNTEREXAMPLES))",
        "self.tail else ()), 50))",
        [T + "test_counterexamples_are_capped"],
    ),
    (
        "the prefix one value short",
        CHECKS,
        "prefix = list(islice(source, max([0] + [s.prefix for s in sweeps])))",
        "prefix = list(islice(source, max([0] + [s.prefix - 1 for s in sweeps])))",
        [T + "test_run_all_walks_the_values_past_the_rows"],
    ),
    # The convolution by its first-order recurrence, over the nonzero residuals.
    (
        "the correction's sign (-1)^j flipped",
        SERIES,
        "for j, b in ((k - 1, k), (k, -1)):",
        "for j, b in ((k - 1, -k), (k, 1)):",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "the binomial carried with (k, k+1) for (k+1, k+2)",
        SERIES,
        "up = (k - 1) * k  # C(k, j) = C(k-2, j) (k-1) k / ((k-1-j)(k-j))\n"
        "        signed = [b * up // ((k - 1 - j) * (k - j))",
        "up = (k - 2) * (k - 1)\n"
        "        signed = [b * up // ((k - 2 - j) * (k - 1 - j))",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "the residual's coefficient i - 1 as i",
        SERIES,
        "- (i - 1) * a[i - 2]",
        "- i * a[i - 2]",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "a residual entering one n late",
        SERIES,
        "        for j, b in ((k - 1, k), (k, -1)):  # (-1)^j C(k, j) at j = k - 1 and j = k\n"
        "            diag.append(r[j] * a[j])\n"
        "            if r[j]:\n"
        "                live.append(j)\n"
        "                signed.append(b)\n"
        "        s = 0\n"
        "        for j, b in zip(live, signed):\n"
        "            v = k - j\n"
        "            if not r[v]:\n"
        "                s += b * r[j] * a[v]\n"
        "            elif j < v:\n"
        "                s += b * ((r[j] + r[v]) * (a[v] - a[j]) + diag[j] - diag[v])\n"
        "        c = 2 * k * c - 2 * s\n",
        "        s = 0\n"
        "        for j, b in zip(live, signed):\n"
        "            v = k - j\n"
        "            if not r[v]:\n"
        "                s += b * r[j] * a[v]\n"
        "            elif j < v:\n"
        "                s += b * ((r[j] + r[v]) * (a[v] - a[j]) + diag[j] - diag[v])\n"
        "        c = 2 * k * c - 2 * s\n"
        "        for j, b in ((k - 1, k), (k, -1)):  # (-1)^j C(k, j) at j = k - 1 and j = k\n"
        "            diag.append(r[j] * a[j])\n"
        "            if r[j]:\n"
        "                live.append(j)\n"
        "                signed.append(b)\n",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "a pair summed from both ends",
        SERIES,
        "            elif j < v:\n",
        "            else:\n",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "the pair's diagonal products swapped",
        SERIES,
        "+ diag[j] - diag[v])",
        "+ diag[v] - diag[j])",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "2(2n-1) as 2(2n+1)",
        SERIES,
        "c = 2 * k * c",
        "c = 2 * (k + 2) * c",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "the seed a_0 a_1",
        SERIES,
        "c = a[0] * a[0]",
        "c = a[0] * a[1]",
        [TS + "test_the_recurrence_equals_the_direct_sum"],
    ),
    (
        "a range with hi < lo reads its values",
        SERIES,
        "    if hi < lo:\n        return\n",
        "",
        [TS + "test_ranged_convolutions_domain"],
    ),
    (
        "the last two residuals computed before the first value",
        SERIES,
        "for i in range(1, 2 * hi - 1)]",
        "for i in range(1, 2 * hi + 1)]",
        [TS + "test_a_value_that_is_not_an_int_raises_where_it_is_first_read"],
    ),
    # The convolution's closed form, (2n)!/n! from math.perm, and the running
    # product w_{n+1} = 2(2n+1) w_n that carries it, anchored at its last n.
    (
        "(2n)!/n! as (2n)!/(n-1)!",
        SERIES,
        "perm(2 * n, n)",
        "perm(2 * n, n + 1)",
        [TS + "test_expected_convolution_is_a_power_of_two_times_an_odd_product"],
    ),
    (
        "the running factor 2(2n+1) as 2(2n+3)",
        SERIES,
        "w *= 2 * (2 * n + 1)",
        "w *= 2 * (2 * n + 3)",
        [TS + "test_the_running_product_equals_math_perm"],
    ),
    (
        "the anchor skipped",
        SERIES,
        "        if n == hi and w != expected_convolution(n):\n",
        "        if False:\n",
        [TS + "test_the_running_product_is_anchored_at_its_last_n"],
    ),
    # The series are plain tuples; ps_mul guards their lengths.
    (
        "ps_mul's sum one term short",
        SERIES,
        "for j in range(n + 1))",
        "for j in range(n))",
        [TS + "test_ps_mul_known_square"],
    ),
    (
        "ps_mul's length check dropped",
        SERIES,
        "    if len(f) != len(g):\n",
        "    if False:\n",
        [TS + "test_ps_mul_rejects_series_of_two_orders"],
    ),
    # An empty tuple is no series: ps_mul and ps_exp reject it.
    (
        "ps_mul takes an empty series",
        SERIES,
        "    _require_terms(f)\n    _require_terms(g)\n",
        "",
        [TS + "test_every_series_operation_rejects_an_empty_series"],
    ),
    (
        "ps_exp takes an empty series",
        SERIES,
        "    _require_terms(g)\n    if g[0] != 0:",
        "    if g[0] != 0:",
        [TS + "test_every_series_operation_rejects_an_empty_series"],
    ),
    # The identities in normal form: exp by the exponential formula, the ODE as
    # the two-step recurrence.
    (
        "the exponential formula's C(n, j - 1) as C(n, j)",
        SERIES,
        "comb(n, j - 1)",
        "comb(n, j)",
        [TS + "test_the_exp_kernel_on_normal_coefficients"],
    ),
    (
        "the ODE's factor k + 1 as k",
        SERIES,
        "(k + 1) * a[k]",
        "k * a[k]",
        [TS + "test_identity_parts_match_the_fraction_reference_under_corruption"],
    ),
    (
        "the closed form compared one index short",
        SERIES,
        "for k in range(order + 1) if a[k] != closed[k]",
        "for k in range(order) if a[k] != closed[k]",
        [TS + "test_identity_parts_match_the_fraction_reference_under_corruption"],
    ),
    (
        "egf_F dividing by (n + 1)!",
        SERIES,
        "Fraction(a_values[n], factorial(n))",
        "Fraction(a_values[n], factorial(n + 1))",
        [TS + "test_egf_coefficients"],
    ),
    (
        "ps_exp dividing by (n - 1)!",
        SERIES,
        "Fraction(N) / factorial(n)",
        "Fraction(N) / factorial(n - 1)",
        [TS + "test_ps_exp_of_x_is_the_exponential"],
    ),
    # A column's text is reused only where its shadow is the object rendered
    # just before.
    (
        "x_den's text reused where d is unchanged",
        CLI,
        "den_t = num1_t if den_s is num1_s",
        "den_t = num1_t if d_s is d1_s",
        [TC + "test_row_strings_equal_str_of_each_column"],
    ),
    (
        "d's text reused where x_den's is, after d changed",
        CLI,
        "d_t = d1_t if d_s is d1_s",
        "d_t = d1_t if den_s is num1_s",
        [TC + "test_row_strings_equal_str_of_each_column"],
    ),
    (
        "shadow's j == 0 path without its equality test",
        CLI,
        "if j == 0 and v == base:",
        "if j == 0:",
        [TC + "test_row_strings_equal_str_of_each_column"],
    ),
    # Output, to stdout and to --out alike, goes out in blocks of _BLOCK.
    (
        "each text handed on at the next write",
        CLI,
        "        if block and size + len(text) > _BLOCK:\n",
        "        if block:\n",
        [TC + "test_out_is_written_in_blocks", TC + "test_stdout_is_written_in_blocks"],
    ),
    (
        "the block size never reset",
        CLI,
        "            block.clear()\n            size = 0\n",
        "            block.clear()\n",
        [TC + "test_stdout_is_written_in_blocks"],
    ),
    (
        "a failing close masks the error in the work",
        CLI,
        "            with suppress(OSError):\n                fh.close()\n",
        "            fh.close()\n",
        [TC + "test_an_error_in_the_work_outlives_a_block_that_close_cannot_flush"],
    ),
    (
        "the last block dropped",
        CLI,
        "        yield write\n        guarded(fh.write, \"\".join(block))\n",
        "        yield write\n",
        [TC + "test_table_csv_golden"],
    ),
    # The table's decimal strings: a halving by 2^j drops exactly j digits.
    (
        "a halving drops one digit too few",
        CLI,
        "10 ** -j)",
        "10 ** (1 - j))",
        [TC + "test_row_strings_on_the_orbit_build_no_decimal_from_a_big_int"],
    ),
    # A result's verdict is read off its counterexamples, and verify's flags
    # default to VerifyConfig's fields.
    (
        "status read as pass when counterexamples exist",
        REPORT,
        "        return FAIL if self.counterexamples else PASS\n",
        "        return PASS\n",
        [TR + "test_status_and_passed_follow_the_counterexamples"],
    ),
    (
        "a verify default written apart from VerifyConfig",
        CLI,
        "default=defaults.series_order,",
        "default=601,",
        [TC + "test_verify_defaults_are_verify_config_s"],
    ),
    # A counterexample's value may have more digits than str() of an int allows.
    (
        "decimal_text as plain str",
        REPORT,
        "    return str(Decimal(v))\n",
        "    return str(v)\n",
        [T + "test_counterexample_texts_print_values_past_the_str_digit_limit"],
    ),
    # sign_flip's identity, cleared of denominators.
    (
        "sign_flip's n p^2 with the wrong sign",
        CHECKS,
        "F * F - F * p - n * p * p",
        "F * F - F * p + n * p * p",
        [T + "test_all_checks_pass_on_clean_data"],
    ),
    # The lazy package: each public name from the submodule that defines it,
    # and no submodule loaded by `import seqlab`.
    (
        "a table entry pointing at a submodule that only imports it",
        INIT,
        '"count_involutions_enum": "involutions",',
        '"count_involutions_enum": "checks",',
        [TP + "test_every_public_name_resolves_in_the_module_that_defines_it"],
    ),
    (
        "an unknown name read as None",
        INIT,
        '    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")\n',
        "    return None\n",
        [TP + "test_star_import_dir_and_unknown_names"],
    ),
    (
        "checks imported eagerly",
        INIT,
        'import importlib\n',
        'import importlib\n\nfrom . import checks\n',
        [TP + "test_import_loads_no_submodule"],
    ),
    # The enumeration's search of the permutation tree. The forward branch
    # only cuts prefixes that no involution extends (a permutation whose
    # backward tests all pass is an involution), so its mutant leaves every
    # count as it is and only the prefix count sees it.
    (
        "the prefix test without its p[v] == k branch",
        INVOLUTIONS,
        "if free[v] and (p[v] == k if v < k else free[k]):",
        "if free[v] and free[k]:",
        [TI + "test_counts_small"],
    ),
    (
        "the forward branch always true",
        INVOLUTIONS,
        "if free[v] and (p[v] == k if v < k else free[k]):",
        "if free[v] and (p[v] == k if v < k else True):",
        [TI + "test_the_search_keeps_only_prefixes_of_involutions[3]"],
    ),
    (
        "a value not freed on backtracking",
        INVOLUTIONS,
        "                free[v] = True\n",
        "",
        [TI + "test_counts_small"],
    ),
    (
        "the candidate loop one value short",
        INVOLUTIONS,
        "for v in range(n):",
        "for v in range(n - 1):",
        [TI + "test_counts_small"],
    ),
    (
        "a prefix counted at length n - 1",
        INVOLUTIONS,
        "if k == n:",
        "if k == n - 1:",
        [TI + "test_counts_small"],
    ),
]


# A selection still running after this long has hung. On 2 vCPUs every
# selection, all of them at once on the unedited source included, takes at
# most about 3 s; the margin is for slower runners.
TIMEOUT_S = 100


def pytest(src: Path, selection: list[str], log: Path) -> Optional[int]:
    """Run the selection against the package under src; the exit status, or
    None when it runs past TIMEOUT_S and is killed, with every process it
    started (pytest runs in a session of its own).

    Output goes to a file, not a pipe: a process that a test started and left
    running would hold a pipe open after pytest exits."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with open(log, "w") as out, subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=explicit", *selection],
        cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
    ) as proc:
        try:
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return None


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="seqlab-mutants-") as tmp:
        src, log = Path(tmp) / "src", Path(tmp) / "pytest.log"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every = sorted({test for *_, selection in MUTANTS for test in selection})
        status = pytest(src, every, log)
        if status is None:
            print(f"the selections time out on the unedited source (after {TIMEOUT_S} s)")
            return 1
        if status:
            print(log.read_text()[-3000:])
            print(f"the selections do not pass on the unedited source (pytest exit status {status})")
            return 1
        for name, file, old, new, selection in MUTANTS:
            path = src / file
            original = path.read_text()
            count = original.count(old)
            if count != 1:
                failures.append(f"{name}: the old text occurs {count} times in {file}")
                continue
            path.write_text(original.replace(old, new))
            try:
                status = pytest(src, selection, log)
            finally:
                path.write_text(original)
            if status is None:
                failures.append(f"{name}: the selection timed out after {TIMEOUT_S} s")
            elif status == 0:
                failures.append(f"{name}: survives {' '.join(selection)}")
            elif status != 1:
                print(log.read_text()[-3000:])
                failures.append(f"{name}: the selection did not run (pytest exit status {status})")
            else:
                print(f"killed: {name}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
