#!/usr/bin/env python3
"""Benchmark for the seqlab command line.

    python3 bench/run.py --workload verify-full --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload verify-full --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --smoke

Run from any directory; the package is taken from ../src next to this file.
With --trace 0 each timed run is one `python -m seqlab` child and the
end-to-end metrics come from os.wait4 on that child. With --trace 1 the same
command runs in this process, once untraced and once with spans around every
public layer function (see tracing.py), followed by a small probe that reaches
every layer; the per-layer metrics come from those spans. Every run's output
is checked (gates.py). The last stdout line is one JSON object; the full
record, with environment, samples and spans, goes to bench/out/.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh `import seqlab` interpreters per run, after one warm-up: half before
# the timed invocations and half after, so the median spans the whole run.
SETUP_LAUNCHES = 16
CHILD_TIMEOUT_S = 150
PROBE_MAX = 64  # probe size: reaches every layer in about a second

# Read before anything imports seqlab, which raises it.
INT_MAX_STR_DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "verify" or "table"
    max_n: int
    order: int = 600
    checks: tuple[str, ...] = ()  # empty: every check

    def argv(self, out: Path, seed: int) -> list[str]:
        if self.command == "table":
            return ["table", "--max", str(self.max_n), "--out", str(out)]
        argv = ["verify", "--max", str(self.max_n), "--order", str(self.order)]
        if self.checks:
            argv += ["--checks", ",".join(self.checks)]
        return argv + ["--format", "json", "--out", str(out), "--seed", str(seed)]

    def problem(self, exit_code: int, out: Path, seed: int, table_sha256: Optional[str]) -> Optional[str]:
        if self.command == "table":
            return gates.table_problem(exit_code, out, table_sha256)
        checks = frozenset(self.checks) or gates.ALL_CHECKS
        return gates.verify_problem(exit_code, out, self.max_n, self.order, checks, seed)


# Each invocation takes a few seconds, so that one run is the median of many:
# a single invocation's speed swings by 10-30% on a shared host (README.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("verify-full", "the run users make, all 16 checks: the d_upper convolution, "
                 "row derivation and the Fraction sweeps", "verify", 1500, order=100),
        Workload("series-kernels", "series and d_upper at order 400: the power-series kernels and "
                 "the convolution, with negligible row work", "verify", 400, order=400,
                 checks=("d_upper", "series")),
        Workload("table-export", "streams rows through iter_rows and writes decimal CSV; "
                 "no checks run", "table", 3000),
    )
}

SMOKE_VERIFY = Workload("smoke-verify", "", "verify", 40, order=20)
SMOKE_TABLE = Workload("smoke-table", "", "table", 60)
SMOKE_WORKLOADS = (
    SMOKE_VERIFY,
    Workload("smoke-series", "", "verify", 30, order=30, checks=("d_upper", "series")),
    SMOKE_TABLE,
)

PROBES = (
    Workload("probe-verify", "", "verify", PROBE_MAX, order=PROBE_MAX),
    Workload("probe-table", "", "table", PROBE_MAX),
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


@dataclass(frozen=True)
class Child:
    wall: float
    cpu: float
    rss_mib: float
    exit_code: int


def run_child(args: list[str]) -> Child:
    """Run `python <args>` against ../src; time it and take its own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "int_max_str_digits": INT_MAX_STR_DIGITS,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the repository this benchmark sits at the top of, if any."""
    try:
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = got.stdout.split()
    if got.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Run:
    """One benchmark run: its workload, seed, timed samples and failures."""

    def __init__(self, workload: Workload, seed: int, trace: bool, seconds: float) -> None:
        self.workload, self.seed, self.trace, self.seconds = workload, seed, trace, seconds
        self.dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: list[dict] = []
        self.setup: list[float] = []
        # Reference digests are made before timing starts.
        self.table_sha256 = {
            w.max_n: gates.reference_table_sha256(w.max_n)
            for w in (workload, *(PROBES if trace else ())) if w.command == "table"
        }

    def gate(self, workload: Workload, exit_code: int, out: Path) -> None:
        """Check one command's output, count it, and delete it."""
        self.attempted += 1
        problem = workload.problem(exit_code, out, self.seed, self.table_sha256.get(workload.max_n))
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{workload.name}: {problem}")
        out.unlink(missing_ok=True)

    def keep_going(self, started: float) -> bool:
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / len(self.samples) <= self.seconds

    def time_setup(self, launches: int) -> None:
        for _ in range(launches):
            child = run_child(["-c", "import seqlab"])
            if child.exit_code != 0:
                self.failures.append(f"import seqlab: exit status {child.exit_code}")
            self.setup.append(child.wall)

    def measure_untraced(self) -> dict[str, float]:
        self.time_setup(1)
        self.setup.clear()  # the warm-up launch writes the bytecode cache
        self.time_setup(SETUP_LAUNCHES // 2)
        started = time.perf_counter()
        while True:
            out = self.dir / "out"
            argv = self.workload.argv(out, self.seed)
            child = run_child(["-m", "seqlab", *argv])
            self.gate(self.workload, child.exit_code, out)
            self.samples.append(vars(child))
            if not self.keep_going(started):
                break
        self.time_setup(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        return {
            "wall_s": statistics.median([s["wall"] for s in self.samples]),
            "cpu_s": statistics.median([s["cpu"] for s in self.samples]),
            "peak_rss_mib": statistics.median([s["rss_mib"] for s in self.samples]),
            "setup_s": statistics.median(self.setup),
        }

    def measure_traced(self) -> dict[str, float]:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from seqlab import cli  # loads every layer module before tracing installs
        from tracing import Tracer

        out = self.dir / "out"
        argv = self.workload.argv(out, self.seed)
        started = time.perf_counter()
        while True:
            # Alternate which side goes first, so neither always pays warm-up.
            for traced in (False, True) if len(self.samples) % 2 == 0 else (True, False):
                if traced:
                    tracer = Tracer()
                    with tracer.installed():
                        traced_wall, counts = self.traced_replay(tracer, cli, argv, out)
                else:
                    gc.collect()
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    untraced_wall = time.perf_counter() - t0
                    self.gate(self.workload, code, out)
            metrics = {**tracer.layer_metrics(), **counts,
                       "trace.overhead_s": traced_wall - untraced_wall}
            self.samples.append({"metrics": metrics, "spans": tracer.dump()})
            if not self.keep_going(started):
                break
        return {k: statistics.median([s["metrics"][k] for s in self.samples]) for k in metrics}

    def traced_replay(self, tracer, cli, argv: list[str], out: Path) -> tuple[float, dict]:
        """The workload's command, then the probes; wall time and counts of the former."""
        gc.collect()
        with tracer.span(f"cli.{self.workload.command}"):
            code = cli.main(argv)
        wall = tracer.spans[-1].wall
        size = out.stat().st_size if out.exists() else 0
        counts = {
            "sequences.a_max_bits": tracer.a_max_bits,
            "cli.out_bytes": size,
            "report.json_bytes": size if self.workload.command == "verify" else 0,
        }
        render_text(tracer)
        self.gate(self.workload, code, out)
        for probe in PROBES:
            probe_out = self.dir / probe.name
            with tracer.span(f"cli.{probe.command}"):
                code = cli.main(probe.argv(probe_out, self.seed))
            render_text(tracer)
            self.gate(probe, code, probe_out)
        return wall, counts


def render_text(tracer) -> None:
    """Time report.to_text on the report the command just rendered as JSON."""
    if tracer.last_report is not None:
        tracer.last_report.to_text()
        tracer.last_report = None


def measure(workload: Workload, seed: int, trace: bool, seconds: float) -> tuple[Run, dict]:
    """One run; writes its full record to bench/out/ and returns the metrics."""
    run = Run(workload, seed, trace, seconds)
    metrics = run.measure_traced() if trace else run.measure_untraced()
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "command": [sys.executable, "-m", "seqlab", *workload.argv(run.dir / "out", seed)],
        "pythonpath": str(SRC),
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_rate": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "metrics": with_units(metrics),
        "samples": run.samples,
        "setup_samples": run.setup,
    }
    (run.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return run, metrics


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def smoke() -> int:
    """Tiny sizes through both modes, then two outputs that must be refused."""
    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in contract[section]}
        for workload in SMOKE_WORKLOADS:
            run, metrics = measure(workload, 7, trace, 0.1)
            units = {k: m["unit"] for k, m in with_units(metrics).items()}
            report(run.attempted > 0 and not run.failures and units == declared,
                   f"{workload.name} trace={int(trace)} attempted={run.attempted} "
                   f"reports the {section} metrics of BENCHMARK.json {run.failures}")

    table = SMOKE_TABLE
    run = Run(table, 7, False, 0.1)
    out = run.dir / "corrupt.csv"
    run_child(["-m", "seqlab", *table.argv(out, 7)])
    text = out.read_text(encoding="utf-8")
    out.write_text(text[:-3] + ("0" if text[-3] != "0" else "1") + text[-2:], encoding="utf-8")
    run.gate(table, 0, out)
    report(run.failed == 1, f"corrupted CSV counted as a failure: {run.failures}")

    verify = SMOKE_VERIFY
    run = Run(verify, 7, False, 0.1)
    out = run.dir / "flipped.json"
    run_child(["-m", "seqlab", *verify.argv(out, 7)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["results"][0]["status"] = "fail"
    out.write_text(json.dumps(doc), encoding="utf-8")
    run.gate(verify, 0, out)
    report(run.failed == 1, f"report with one check flipped to fail counted as a failure: {run.failures}")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="passed to `verify --seed`")
    parser.add_argument("--seconds", type=float, default=35, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test the harness at tiny sizes")
    args = parser.parse_args(argv)
    if not (SRC / "seqlab" / "__init__.py").is_file():
        print(f"bench: no seqlab package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run, metrics = measure(WORKLOADS[name], args.seed, bool(args.trace), args.seconds)
        print(f"workload {name}  seed {run.seed}  trace {int(run.trace)}  "
              f"attempted {run.attempted}  failed {run.failed}  "
              f"fail_rate {run.failed / run.attempted:.4f}")
        for failure in run.failures:
            print(f"  failure: {failure}")
        for metric, value in metrics.items():
            print(f"  {metric:40s} {value:>16.6f} {unit_of(metric)}")
        print(json.dumps({
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": with_units(metrics),
        }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
