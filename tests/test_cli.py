import decimal
import errno
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_sequences import positive_ints, recurrence_values

import seqlab.cli as cli
from seqlab import __version__
from seqlab.checks import CHECK_NAMES
from seqlab.cli import _row_strings, main
from seqlab.involutions import ENUMERATION_MAX
from seqlab.report import CheckResult, VerifyConfig
from seqlab.sequences import a_seq, iter_rows, rows_from_a

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


def test_table_csv_golden(capsys):
    assert main(["table", "--max", "9"]) == 0
    assert capsys.readouterr().out == GOLDEN_TABLE


def test_table_json(capsys):
    assert main(["table", "--max", "5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    assert rows[4] == {
        "n": 4, "a": "10", "x_num": "5", "x_den": "2", "d": "2", "e": 1, "q": "5",
    }
    assert isinstance(rows[4]["n"], int)
    assert isinstance(rows[4]["a"], str)


def test_table_writes_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table", "--max", "9", "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_TABLE


def test_out_is_written_in_blocks(tmp_path):
    # A text waits for the next write or the end of the with block, however
    # long it is; with the default 8 KiB buffer alone it would reach the file
    # at once.
    path = tmp_path / "out.txt"
    with cli._output(str(path)) as write:
        write("x" * 200_000)
        assert path.stat().st_size == 0
    assert path.read_text() == "x" * 200_000


def test_stdout_is_written_in_blocks(monkeypatch, tmp_path):
    # Each write but the last hands stdout a block of rows, so a table of many
    # rows is a few writes, not one write per row. Every row here is under
    # 4 KB, far less than half a block.
    class CountingStdout(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sizes = []
    monkeypatch.setattr(sys, "stdout", CountingStdout())
    assert main(["table", "--max", "600"]) == 0
    assert sum(sizes) > 2 * cli._BLOCK
    assert all(cli._BLOCK // 2 < size <= cli._BLOCK for size in sizes[:-1])
    path = tmp_path / "table.csv"
    assert main(["table", "--max", "600", "--out", str(path)]) == 0
    assert sys.stdout.getvalue() == path.read_text()


@pytest.mark.parametrize("value", ["-1", "20001"])
def test_table_max_out_of_range(value, capsys):
    assert main(["table", "--max", value]) == 2
    assert "--max" in capsys.readouterr().err


@pytest.mark.parametrize("command, cap", [("table", 20000), ("verify", 80000)])
def test_each_command_s_max_is_capped_at_its_measured_ceiling(command, cap, capsys):
    assert main([command, "--max", str(cap + 1)]) == 2
    assert capsys.readouterr().err == f"seqlab: --max is capped at {cap}\n"


def _reference_rows(max_n):
    """Rows 0..max_n from the plain recurrence, math.gcd and bit tricks alone."""
    values = [1, 1]
    for n in range(2, max_n + 1):
        values.append(values[-1] + (n - 1) * values[-2])
    rows = []
    for n, a in enumerate(values[: max_n + 1]):
        prev = values[n - 1] if n else 1
        d = math.gcd(a, prev)
        e = (a & -a).bit_length() - 1
        rows.append((n, a, a // d, prev // d, d, e, a >> e))
    return rows


def test_table_csv_matches_plain_reference(capsys):
    # 600 rows cover every n mod 4 and 150 changes of d, so every way a
    # decimal string can be shared between columns and rows is exercised.
    expected = "n,a,x_num,x_den,d,e,q\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in _reference_rows(600)
    )
    assert main(["table", "--max", "600"]) == 0
    # Lines, not one string: pytest's diff of two long strings takes minutes.
    assert capsys.readouterr().out.split("\n") == expected.split("\n")


def test_table_json_matches_plain_reference(capsys):
    names = ["n", "a", "x_num", "x_den", "d", "e", "q"]
    objs = [
        {k: v if k in ("n", "e") else str(v) for k, v in zip(names, row)}
        for row in _reference_rows(600)
    ]
    expected = "[\n" + ",\n".join("  " + json.dumps(obj) for obj in objs) + "\n]\n"
    assert main(["table", "--max", "600", "--format", "json"]) == 0
    assert capsys.readouterr().out.split("\n") == expected.split("\n")


def _copy(v):
    """An int equal to v that is not the object v (for |v| > 256)."""
    return int(str(v))


_ORBIT = rows_from_a(a_seq(20))


def _with(n, **columns):
    """The orbit's rows 0..20, with row n's columns replaced."""
    return [replace(row, **columns) if row.n == n else row for row in _ORBIT]


@given(st.one_of(recurrence_values(), st.lists(positive_ints, min_size=1, max_size=25))
       .map(rows_from_a))
# Row 17 takes x_den from row 16 (d_17 = d_16), row 19 does not (d changes).
@example(_with(17, x_den=_copy(_ORBIT[16].x_num)))  # equal to the previous x_num, not it
@example(_with(19, x_den=_copy(_ORBIT[18].x_num)))  # the same, in a row where d changes
@example(_with(17, q=_ORBIT[17].x_num << 1))  # q one halving from x_num, where q is x_num
@example(_with(17, x_den=_ORBIT[17].x_den ^ 2))  # a corrupted row right after a reused one
def test_row_strings_equal_str_of_each_column(rows):
    # Recurrence values from random a_0, a_1 give gcds that are not powers of
    # two, and a corrupted index breaks the Decimal shadows and re-enters them
    # a few rows later; arbitrary lists take the Decimal(v) fallback. The
    # examples are rows no values give, where a column equals, or nearly
    # equals, the column whose text it would reuse.
    assert list(_row_strings(rows)) == [[str(v) for v in astuple(row)] for row in rows]


def test_row_strings_render_each_handed_on_value_once(monkeypatch):
    rendered = []

    def spy(value):
        rendered.append(isinstance(value, decimal.Decimal))
        return str(value)

    rows = rows_from_a(a_seq(600))
    monkeypatch.setattr(cli, "str", spy, raising=False)
    per_row = []
    for _ in _row_strings(rows):
        per_row.append(sum(rendered))
        rendered.clear()
    # Row 0 renders a, x_num, x_den and d; q is x_num = 1. From row 1 on, a
    # and x_num are rendered always, x_den and d where d changes (n = 3 mod 4),
    # and q where it is not x_num (n = 2, 3 mod 4).
    assert per_row == [4] + [2 + 2 * (n % 4 == 3) + (n % 4 in (2, 3)) for n in range(1, 601)]


def test_row_strings_on_the_orbit_build_no_decimal_from_a_big_int(monkeypatch):
    built = []

    def spy(value):
        built.append(value)
        return decimal.Decimal(value)

    monkeypatch.setattr(cli, "Decimal", spy)
    rows = rows_from_a(a_seq(600))
    assert list(_row_strings(rows)) == [[str(v) for v in astuple(row)] for row in rows]
    # Only row 0 and the start-up zeros convert: every later shadow is a step.
    assert all(abs(v) < 10 for v in built)


def test_table_leaves_the_thread_decimal_context_alone(capsys):
    expected = "n,a,x_num,x_den,d,e,q\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in _reference_rows(300)
    )
    with decimal.localcontext() as ctx:
        ctx.prec = 3  # would round every step if the table used it
        before = repr(ctx)
        assert main(["table", "--max", "300"]) == 0
        assert decimal.getcontext() is ctx
        assert repr(ctx) == before
    assert capsys.readouterr().out.split("\n") == expected.split("\n")


def _int_flag(small, above_cap):
    return st.one_of(
        st.integers(-3, small).map(str),
        st.sampled_from([above_cap, "99999999999999999999", "-99999999999999999999"]),
        st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--max", "-x", " 7"]),
    )


# Each command's --max is drawn against that command's own cap; series takes
# no --max, and rejects it at any value.
_MAX_CAPS = {"table": cli.TABLE_MAX_N, "verify": cli.VERIFY_MAX_N, "series": 0, "oracle": ENUMERATION_MAX}
_FLAG_VALUES = {
    "--order": _int_flag(40, str(cli.MAX_ORDER + 1)),
    "--primes": _int_flag(200, "10000001"),
    # involutions takes about 0.4 s a run whatever --max is: one rare draw.
    "--checks": st.one_of(
        st.lists(st.sampled_from([c for c in CHECK_NAMES if c != "involutions"]), max_size=3)
        .map(",".join),
        st.sampled_from(["", " , ", "nope", "parity,,e_q", "involutions"]),
        st.text(max_size=8),
    ),
}
# Each subcommand starts from small accepted values, so a draw that leaves a
# flag out does not fall back to a slow default; a later flag overrides.
_SMALL_ARGS = {
    "table": ["--max", "5"],
    "verify": ["--max", "8", "--order", "8", "--primes", "20", "--checks", "parity"],
    "series": ["--order", "8"],
    "oracle": ["--max", "3"],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_SMALL_ARGS)))
    own = _SMALL_ARGS[command][::2]
    argv = [command, *_SMALL_ARGS[command]]
    values = {**_FLAG_VALUES, "--max": _int_flag(12, str(_MAX_CAPS[command] + 1))}
    # Mostly the subcommand's own flags, sometimes one it rejects.
    for flag in draw(st.lists(st.sampled_from(own * 3 + sorted(values)), max_size=3)):
        argv += [flag, draw(values[flag])]
    return argv


@settings(deadline=None)
@given(cli_argv())
def test_cli_fuzz_exits_with_a_status_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue()


@pytest.mark.parametrize("argv", [
    ["table", "--max", "5"],
    ["verify", "--max", "10"],
    ["series", "--order", "10"],
    ["oracle", "--max", "3"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_all", lambda *args, **kwargs: ran.append(args))
    path = tmp_path / "missing" / "out.txt"
    assert main([*argv, "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"seqlab: cannot write {path}: ")
    assert ran == []  # verify fails before any check runs


def _seqlab(*argv):
    return [sys.executable, "-m", "seqlab", *argv]


# The output errors below are pinned with stdout buffered, as it is by
# default, so the text a failed write leaves behind is flushed again at exit.
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["table", "--max", "5"],
    ["verify", "--max", "10", "--checks", "parity"],
    ["series", "--order", "10"],
    ["oracle", "--max", "3"],
])
def test_a_full_device_is_a_write_error(argv):
    full = os.strerror(errno.ENOSPC)
    proc = subprocess.run(_seqlab(*argv, "--out", "/dev/full"), capture_output=True, text=True,
                          env=_BUFFERED, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, f"seqlab: cannot write /dev/full: {full}\n")
    with open("/dev/full", "w") as stdout:
        proc = subprocess.run(_seqlab(*argv), stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=_BUFFERED, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, f"seqlab: cannot write stdout: {full}\n")


def test_a_pipe_closed_after_one_line_is_a_write_error():
    # The table runs to tens of MB, far past what the pipe buffers.
    proc = subprocess.Popen(_seqlab("table", "--max", "3000"), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_BUFFERED)
    assert proc.stdout.readline() == "n,a,x_num,x_den,d,e,q\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, f"seqlab: cannot write stdout: {os.strerror(errno.EPIPE)}\n")


def test_an_os_error_in_the_work_is_not_a_write_error(monkeypatch, tmp_path):
    # An OSError raised inside run_all is no output error.
    def no_fork(config):
        raise OSError(errno.EAGAIN, "fork failed")

    monkeypatch.setattr(cli, "run_all", no_fork)
    with pytest.raises(OSError, match="fork failed"):
        main(["verify", "--max", "10", "--out", str(tmp_path / "report.txt")])


def test_verify_reports_as_usual_when_no_fork_succeeds(monkeypatch, capsys):
    args = ["verify", "--max", "40", "--order", "20", "--format", "json"]
    assert main(args) == 0
    forked = json.loads(capsys.readouterr().out)

    calls = []

    def fork():
        calls.append(1)
        raise OSError(errno.EAGAIN, "no process left")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    assert main(args) == 0
    in_process = json.loads(capsys.readouterr().out)
    assert calls  # a fork was tried, and failed
    for report in (forked, in_process):
        for check in report["results"]:
            check.pop("elapsed_ms")
    assert in_process == forked


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_an_error_in_the_work_outlives_a_failing_close(monkeypatch):
    # The header and two rows sit in the file's buffer, which close cannot flush.
    def rows(max_n):
        yield from iter_rows(1)
        raise RuntimeError("work failed")

    monkeypatch.setattr(cli, "iter_rows", rows)
    with pytest.raises(RuntimeError, match="work failed"):
        main(["table", "--max", "5", "--out", "/dev/full"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_an_error_in_the_work_outlives_a_block_that_close_cannot_flush():
    # The short first block is handed to the file when the long text comes,
    # and waits in the file's buffer, which close cannot flush.
    with pytest.raises(RuntimeError, match="work failed"):
        with cli._output("/dev/full") as write:
            write("x" * 100)
            write("y" * cli._BLOCK)
            raise RuntimeError("work failed")


def test_verify_text_output(capsys):
    rc = main(["verify", "--max", "60", "--order", "30", "--checks", "parity,e_q,x_bounds"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("PASS e_q [0,60]")
    assert "PASS parity" in out
    assert "PASS x_bounds [4,60]" in out
    assert out.splitlines()[-1] == "aggregate: pass"


def test_verify_json_structure(capsys):
    rc = main(["verify", "--max", "40", "--order", "20", "--format", "json",
               "--checks", "integrality,series"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool_version"] == __version__
    assert doc["config"]["max_n"] == 40
    assert [r["name"] for r in doc["results"]] == ["integrality", "series"]
    assert doc["aggregate"] == "pass"
    for r in doc["results"]:
        assert set(r) == {"name", "range", "status", "counterexamples", "elapsed_ms"}


def test_verify_unknown_check(capsys):
    assert main(["verify", "--checks", "nope"]) == 2
    assert "unknown checks: nope" in capsys.readouterr().err


def test_verify_rejects_bad_flags(capsys):
    assert main(["verify", "--order", "1"]) == 2
    assert main(["verify", "--checks", " , "]) == 2
    assert main(["verify", "--max", "-3"]) == 2
    assert main(["verify", "--max", "10", "--order", "1000000"]) == 2
    assert "--order is capped at 4800" in capsys.readouterr().err


@pytest.mark.parametrize("value,message", [
    ("-5", "--primes must be nonnegative"),
    ("20000000", "--primes is capped at 10000000"),
])
def test_verify_bounds_primes(value, message, capsys):
    assert main(["verify", "--max", "10", "--checks", "congruence", "--primes", value]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    def fake_run_all(config, a_values=None):
        return [CheckResult(name="parity", lo=1, hi=2, counterexamples=[(2, "boom")])]

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    rc = main(["verify", "--checks", "parity", "--max", "10"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL parity" in out
    assert "n=2: boom" in out
    assert "aggregate: fail" in out


def test_verify_defaults_are_verify_config_s(monkeypatch):
    args = cli.build_parser().parse_args(["verify"])
    defaults = VerifyConfig()
    assert (args.max, args.primes, args.order, args.seed) == (
        defaults.max_n, defaults.prime_limit, defaults.series_order, defaults.seed)
    configs = []
    monkeypatch.setattr(cli, "run_all", lambda config: configs.append(config) or [])
    assert main(["verify"]) == 0
    assert configs == [defaults]


def test_series_output(capsys):
    rc = main(["series", "--order", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "c[0] = 1\n" in out
    assert "c[3] = 2/3\n" in out
    assert "c[8] = 191/10080\n" in out
    for part in ("convolution", "exp_closed_form", "product_exp_x2", "second_order_ode"):
        assert f"PASS {part}\n" in out


def test_series_rejects_tiny_order(capsys):
    assert main(["series", "--order", "1"]) == 2
    assert "--order" in capsys.readouterr().err


def test_series_and_verify_share_the_order_cap(capsys):
    assert main(["series", "--order", "20001"]) == 2
    assert main(["verify", "--order", "20001"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["seqlab: --order is capped at 4800"] * 2


@pytest.mark.parametrize("command", ["series", "verify"])
def test_order_is_capped_at_the_measured_ceiling(command, capsys):
    assert main([command, "--order", "4801"]) == 2
    assert capsys.readouterr().err == "seqlab: --order is capped at 4800\n"


def test_oracle_output(capsys):
    rc = main(["oracle", "--max", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n=0 enumerated=1 companion=1 ok"
    assert lines[6] == "n=6 enumerated=76 companion=76 ok"
    assert all(line.endswith(" ok") for line in lines)


def test_oracle_at_its_cap(capsys):
    assert main(["oracle", "--max", "10"]) == 0
    assert capsys.readouterr().out == (
        "n=0 enumerated=1 companion=1 ok\n"
        "n=1 enumerated=1 companion=1 ok\n"
        "n=2 enumerated=2 companion=2 ok\n"
        "n=3 enumerated=4 companion=4 ok\n"
        "n=4 enumerated=10 companion=10 ok\n"
        "n=5 enumerated=26 companion=26 ok\n"
        "n=6 enumerated=76 companion=76 ok\n"
        "n=7 enumerated=232 companion=232 ok\n"
        "n=8 enumerated=764 companion=764 ok\n"
        "n=9 enumerated=2620 companion=2620 ok\n"
        "n=10 enumerated=9496 companion=9496 ok\n"
    )


@pytest.mark.parametrize("value, message", [("-1", "must be nonnegative"), ("11", "capped at 10")])
def test_oracle_cap(capsys, value, message):
    assert main(["oracle", "--max", value]) == 2
    assert message in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "seqlab", "table", "--max", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,a,x_num,x_den,d,e,q\n")
    assert proc.stdout.rstrip().splitlines()[-1] == "3,4,2,1,2,2,1"


def test_console_script_subprocess():
    exe = shutil.which("seqlab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert __version__ in proc.stdout
