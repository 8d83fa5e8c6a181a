"""Per-layer tracing of adastream, installed from outside the package.

The layers are the package's modules. Each public function a module's
caller looks up is replaced, in every adastream namespace that binds it,
by a timing wrapper:

- span stages run O(1) times per experiment and are kept as spans
  (name, start, end, parent, time in hot children) and written at the end;
- hot stages run once or more per tick and are folded into per-name
  counters (calls, total, self), so tracing memory stays flat.

A wrapped call's self time is its duration minus the part its wrapped
children cover. Hot stages never call span stages in this program; the
identity sum(self) == sum(root span durations) checks that.

Run as a script, this module is the traced `adastream` CLI:

    python3 perfbench/layers.py <trace.json> run <config.json> --out <dir>
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

SPAN = "span"
HOT = "hot"

# (layer name, module, attribute path, kind). Two targets may share a layer
# name; their numbers add up.
TARGETS = (
    ("scenario.load_scenario", "adastream.scenario", "load_scenario", SPAN),
    ("netsim.generate_trace", "adastream.netsim", "generate_trace", SPAN),
    ("netsim.compute_threshold", "adastream.netsim", "compute_threshold", SPAN),
    ("netsim.probe", "adastream.netsim", "probe", HOT),
    ("netsim.FaultSchedule.active", "adastream.netsim", "FaultSchedule.active", HOT),
    ("mapek.Engine.init", "adastream.mapek", "Engine.__init__", SPAN),
    ("mapek.Engine.run", "adastream.mapek", "Engine.run", SPAN),
    ("mapek.Monitor.tick", "adastream.mapek", "Monitor.tick", HOT),
    ("mapek.Analyzer.evaluate", "adastream.mapek", "Analyzer.evaluate", HOT),
    ("mapek.plan", "adastream.mapek", "plan", HOT),
    ("mapek.Executor.execute", "adastream.mapek", "Executor.execute", HOT),
    ("kb.register_strategy", "adastream.kb", "KnowledgeBase.register_strategy", HOT),
    ("kb.latest_strategy", "adastream.kb", "KnowledgeBase.latest_strategy", HOT),
    ("stream.StreamState.step", "adastream.stream", "StreamState.step", HOT),
    ("stream.StreamState.apply_config", "adastream.stream", "StreamState.apply_config", HOT),
    ("stream.StreamState.finalize_run", "adastream.stream", "StreamState.finalize_run", HOT),
    ("metrics.aggregate", "adastream.metrics", "aggregate", SPAN),
    ("metrics.selection_fractions", "adastream.metrics", "selection_fractions", SPAN),
    ("metrics.render_report", "adastream.metrics", "render_report_csv", SPAN),
    ("metrics.render_report", "adastream.metrics", "render_report_text", SPAN),
    ("experiment.run_experiment", "adastream.experiment", "run_experiment", SPAN),
    ("experiment.runs_csv_text", "adastream.experiment", "runs_csv_text", SPAN),
    ("experiment.events_jsonl_text", "adastream.experiment", "events_jsonl_text", SPAN),
    ("experiment.compare", "adastream.experiment", "compare", SPAN),
    ("experiment.parse_runs_csv", "adastream.experiment", "parse_runs_csv", SPAN),
    ("experiment.parse_report_csv", "adastream.experiment", "parse_report_csv", SPAN),
    ("experiment.render_comparison", "adastream.experiment", "render_comparison", SPAN),
)

# The traced CLI opens two root spans itself: "cli.import" around
# `import adastream.cli` and "cli.main" around the command.
LAYER_NAMES = ("cli.main",) + tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    hot_s: float  # time in direct hot children, which are not spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi) covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part its child spans and hot calls cover."""
    return (
        span.end - span.start
        - covered([(c.start, c.end) for c in children], span.start, span.end)
        - span.hot_s
    )


def rss_mb() -> float:
    """This process's peak resident set so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.hot: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.mem: dict[str, float] = {}
        # One frame per open wrapped call: [time in wrapped children, time in hot children].
        self._frames: list[list[float]] = []
        self._open_spans: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample_mem(self, name: str) -> None:
        self.mem[name] = max(self.mem.get(name, 0.0), rss_mb())

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        stat = self.hot.setdefault(name, [0, 0.0, 0.0])
        frames, clock = self._frames, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                frames.pop()
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if frames:
                    frames[-1][0] += took
                    frames[-1][1] += took

        return wrapper

    def wrap_span(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        frames, spans, clock = self._frames, self.spans, self.clock
        parent = self._open_spans[-1] if self._open_spans else None
        index = len(spans)
        spans.append(None)
        self._open_spans.append(index)
        frame = [0.0, 0.0]
        frames.append(frame)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            frames.pop()
            self._open_spans.pop()
            spans[index] = Span(name, start, end, parent, frame[1])
            if frames:
                frames[-1][0] += end - start

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls, total_s and self_s over spans and hot counters."""
        children: dict[int | None, list[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += self_time(span, children.get(index, ()))
        for name, (calls, total, self_s) in self.hot.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
        return out

    def root_s(self) -> float:
        """Wall time the root spans cover."""
        roots = [(s.start, s.end) for s in self.spans if s.parent is None]
        if not roots:
            return 0.0
        return covered(roots, min(r[0] for r in roots), max(r[1] for r in roots))

    def summary(self) -> dict:
        return {
            "layers": self.layers(),
            "root_s": self.root_s(),
            "counts": self.counts,
            "mem": self.mem,
            "spans": [list(span) for span in self.spans],
        }


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a module function or a class method."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr, vars(owner)[attr]


def _observers(tracer: Tracer) -> dict[str, Callable]:
    def trace_samples(trace, *args, **kwargs):
        tracer.count("netsim.generate_trace.samples", len(trace.uploads))

    def warmup_used(threshold, trace, warmup_start, warmup_end):
        # Samples i with start <= i * step < end, as compute_threshold averages them.
        step = trace.step_us
        start_us, end_us = round(warmup_start * 1e6), round(warmup_end * 1e6)
        used = max(0, -(-end_us // step) - -(-start_us // step))
        tracer.count("netsim.warmup.used", min(used, len(trace.uploads)))
        tracer.count("netsim.warmup.generated", len(trace.uploads))

    def events_bytes(text, *args, **kwargs):
        tracer.count("experiment.events_jsonl.bytes", len(text))
        tracer.sample_mem("mem.after_serialize_mb")

    return {
        "generate_trace": trace_samples,
        "compute_threshold": warmup_used,
        "Engine.__init__": lambda *args, **kwargs: tracer.sample_mem("mem.after_setup_mb"),
        "Engine.run": lambda *args, **kwargs: tracer.sample_mem("mem.after_loop_mb"),
        "events_jsonl_text": events_bytes,
    }


def install(tracer: Tracer) -> None:
    """Wrap every target where its callers look it up.

    A method is replaced on its class. A module function is replaced in
    every loaded adastream module that binds the same object, since
    `from .netsim import probe` copies the binding into the caller.
    """
    observers = _observers(tracer)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "adastream" or n.startswith("adastream.")]
    for name, module_name, path, kind in TARGETS:
        owner, attr, original = _resolve(module_name, path)
        if kind == HOT:
            wrapper = tracer.wrap_hot(name, original)
        else:
            wrapper = tracer.wrap_span(name, original, observers.get(path))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import adastream.cli
    install(tracer)
    cli_main = tracer.wrap_span("cli.main", adastream.cli.main)
    code = cli_main(cli_argv)
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
