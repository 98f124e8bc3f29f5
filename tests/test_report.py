import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import seqlab
from seqlab.report import FAIL, PASS, CheckResult, ReportDocument, VerifyConfig, decimal_text


def _doc():
    good = CheckResult(name="alpha", lo=0, hi=9, elapsed_ms=3)
    bad = CheckResult(
        name="beta",
        lo=1,
        hi=5,
        counterexamples=[(4, "something broke")],
        elapsed_ms=1,
    )
    return ReportDocument(tool_version="0.0-test", config=VerifyConfig(), results=[good, bad])


def test_passed_property():
    assert CheckResult(name="x", lo=0, hi=0).passed
    assert not CheckResult(name="x", lo=0, hi=0, counterexamples=[(0, "boom")]).passed


def test_status_and_passed_follow_the_counterexamples():
    result = CheckResult(name="x", lo=0, hi=3)
    assert (result.status, result.passed) == (PASS, True)
    result.counterexamples.append((2, "boom"))
    assert (result.status, result.passed) == (FAIL, False)
    assert result.to_dict()["status"] == FAIL
    result.counterexamples.clear()
    assert (result.status, result.passed) == (PASS, True)
    with pytest.raises(TypeError):
        CheckResult(name="x", lo=0, hi=3, status=PASS)


def test_aggregate_fails_if_any_result_fails():
    doc = _doc()
    assert doc.aggregate == FAIL
    doc.results = doc.results[:1]
    assert doc.aggregate == PASS


def test_json_shape():
    parsed = json.loads(_doc().to_json())
    assert set(parsed) == {"tool_version", "config", "results", "aggregate"}
    assert parsed["config"]["max_n"] == 1000
    assert parsed["config"]["prime_limit"] == 97
    assert parsed["config"]["series_order"] == 600
    assert parsed["config"]["oracle_max"] == 10
    first, second = parsed["results"]
    assert first == {
        "name": "alpha",
        "range": {"lo": 0, "hi": 9},
        "status": "pass",
        "counterexamples": [],
        "elapsed_ms": 3,
    }
    assert second["counterexamples"] == [{"n": 4, "detail": "something broke"}]
    assert parsed["aggregate"] == "fail"


def test_text_rendering():
    text = _doc().to_text()
    lines = text.splitlines()
    assert lines[0] == "PASS alpha [0,9] (3 ms)"
    assert lines[1] == "FAIL beta [1,5] (1 ms)"
    assert lines[2] == "    n=4: something broke"
    assert lines[3] == "aggregate: fail"
    assert text.endswith("\n")


@given(st.one_of(st.integers(-10**60, 10**60),
                 st.fractions(max_denominator=10**40),
                 st.fractions().map(lambda x: x * 10**50)))
def test_decimal_text_prints_as_str(v):
    assert decimal_text(v) == str(v)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit")
def test_import_leaves_the_int_str_digit_limit_alone():
    src = os.path.dirname(os.path.dirname(seqlab.__file__))
    code = ("import sys; before = sys.get_int_max_str_digits(); import seqlab, seqlab.cli; "
            "print(before, sys.get_int_max_str_digits())")
    for limit in ("4300", "640"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS=limit)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [limit, limit]
