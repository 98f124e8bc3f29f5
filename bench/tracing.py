"""In-process spans around seqlab's public layer functions.

Tracer.installed() replaces each public layer function, in every loaded
seqlab module that binds it, with a wrapper that records a span, and puts the
originals back on exit. Nothing in the package changes on disk; the spans are
recorded from here, around the calls into each layer.

A span carries its name, its parent span, wall start/end (time.perf_counter)
and busy time: the CPU time of the thread that ran it (time.thread_time).
Checks run on `verify`'s thread pool and take turns on the GIL, so busy time
charges each check only for its own work. Spans stay in memory until the run
writes them out.
"""

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

# module -> {function name: span name}
LAYERS = {
    "seqlab.sequences": {
        "a_seq": "sequences.a_seq",
        "rows_from_a": "sequences.rows_from_a",
    },
    "seqlab.exact": {"cmp_shifted_sqrt": "exact.cmp_shifted_sqrt"},
    "seqlab.series": {
        "egf_F": "series.egf_F",
        "ps_exp": "series.ps_exp",
        "ps_mul": "series.ps_mul",
        "convolution_lhs": "series.convolution_lhs",
        "series_identity_parts": "series.series_identity_parts",
    },
    "seqlab.involutions": {
        "count_involutions_enum": "involutions.count_involutions_enum",
        "check_involution_identity": "checks.involutions",
    },
    "seqlab.checks": {
        "run_all": "checks.run_all",
        "check_x_bounds": "checks.x_bounds",
        "check_mod4_exclusion": "checks.mod4_exclusion",
        "check_quadratic_gap": "checks.quadratic_gap",
        "check_sqrt_factorial_lower": "checks.sqrt_factorial",
        "check_congruence": "checks.congruence",
        "check_d_power_of_two": "checks.d_power_of_two",
        "check_d_upper": "checks.d_upper",
        "check_e_q": "checks.e_q",
        "check_d_formula": "checks.d_formula",
        "check_quarter_bound_and_D": "checks.quarter_bound",
        "check_parity": "checks.parity",
        "check_integrality": "checks.integrality",
        "check_a6_relation": "checks.a6_relation",
        "check_series_identities": "checks.series",
        "check_sign_flip": "checks.sign_flip",
    },
}
GENERATOR_LAYERS = {"seqlab.sequences": {"iter_rows": "sequences.iter_rows"}}
REPORT_METHODS = {"to_json": "report.to_json", "to_text": "report.to_text"}

# Layers reported as summed busy time, one `<span>_s` metric each.
BUSY_SPANS = [
    "sequences.a_seq", "sequences.rows_from_a", "sequences.iter_rows",
    *sorted(name for functions in LAYERS.values() for name in functions.values()
            if name.startswith("checks.") and name != "checks.run_all"),
    "exact.cmp_shifted_sqrt",
    "series.egf_F", "series.ps_exp", "series.ps_mul", "series.series_identity_parts",
    "involutions.count_involutions_enum",
    "report.to_json", "report.to_text",
]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float
    busy: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.last_report = None  # the ReportDocument most recently rendered
        self.a_max_bits = 0  # bit length of the largest a_n any a_seq call returned
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _open(self) -> tuple[list[int], int, Optional[int]]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span belongs to whatever the main thread
            # is waiting in (checks.run_all).
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            busy = time.thread_time() - cpu
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end, busy))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "sequences.a_seq":
                self.a_max_bits = max(self.a_max_bits, result[-1].bit_length())
            return result
        return traced

    def _wrap_generator(self, fn, name):
        """Busy time is what the generator spends inside next(), not its consumer."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            stack.pop()
            start, busy = time.perf_counter(), 0.0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(sid)
                    cpu = time.thread_time()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        busy += time.thread_time() - cpu
                        stack.pop()
                    yield item
            finally:
                gen.close()
                self.spans.append(Span(sid, name, parent, start, time.perf_counter(), busy))
        return traced

    def _wrap_report(self, fn, name):
        @functools.wraps(fn)
        def traced(doc):
            self.last_report = doc
            with self.span(name):
                return fn(doc)
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into every loaded seqlab module; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "seqlab" or key.startswith("seqlab.")]
        swaps = []  # (owner, attribute, original)
        for table, wrap in ((LAYERS, self._wrap), (GENERATOR_LAYERS, self._wrap_generator)):
            for module_name, functions in table.items():
                home = sys.modules[module_name]
                for attr, span_name in functions.items():
                    original = getattr(home, attr)
                    wrapper = wrap(original, span_name)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                swaps.append((module, key, original))
                                setattr(module, key, wrapper)
        report_cls = sys.modules["seqlab.report"].ReportDocument
        for attr, span_name in REPORT_METHODS.items():
            original = vars(report_cls)[attr]
            swaps.append((report_cls, attr, original))
            setattr(report_cls, attr, self._wrap_report(original, span_name))
        try:
            yield self
        finally:
            for owner, key, original in reversed(swaps):
                setattr(owner, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy times (s) and call counts over every span recorded."""
        busy: dict[str, float] = defaultdict(float)
        wall: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_busy: dict[int, float] = defaultdict(float)
        names = {s.id: s.name for s in self.spans}
        for s in self.spans:
            busy[s.name] += s.busy
            wall[s.name] += s.wall
            calls[s.name] += 1
            if s.parent is not None:
                child_busy[s.parent] += s.busy
        out = {f"{name}_s": busy[name] for name in BUSY_SPANS}
        # Entry points hand work to pool threads and wait, so they are timed
        # by the wall clock; the overhead is what their children do not cover.
        out["checks.run_all_s"] = wall["checks.run_all"]
        out["checks.run_all_overhead_s"] = sum(
            s.wall - child_busy[s.id] for s in self.spans if s.name == "checks.run_all"
        )
        out["series.convolution_lhs_s"] = sum(
            s.busy for s in self.spans
            if s.name == "series.convolution_lhs"
            and names.get(s.parent) == "series.series_identity_parts"
        )
        out["cli.verify_s"] = wall["cli.verify"]
        out["cli.table_s"] = wall["cli.table"]
        out["cli.table_format_s"] = wall["cli.table"] - busy["sequences.iter_rows"]
        out["exact.cmp_shifted_sqrt_calls"] = calls["exact.cmp_shifted_sqrt"]
        out["series.convolution_lhs_calls"] = calls["series.convolution_lhs"]
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
