"""Wrappers around the public flowsamp functions, as their callers see them.

A probe replaces a function in the namespace of the module that calls it
(``flowsamp.simulator.solve`` is the name the simulator looks up), so the
program under test is not edited. Every call passes through a recording
hook, which keeps each solve and simulation result for the correctness
checks and adds up work counts. With tracing on, each call also becomes a
span held in memory: name, start, end, parent span and run id. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into the probe's span list, -1 for a root
    run_id: str


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    span: str
    hook: object = None   # hook(probe, args, result) or None


def record_solve(probe: "Probe", args, result) -> None:
    network, config = args[0], args[1]
    probe.solves.append((network, config, result))


def record_report(probe: "Probe", args, report) -> None:
    probe.reports.append(report)
    probe.counts["simulator.flow_buckets"] += len(args[0].flows) * report.switch_loads.shape[1]


def count_generated(probe: "Probe", args, process) -> None:
    probe.counts["trafficgen.flow_buckets"] += len(process.rates) * process.n_buckets


class Probe:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.tracing = False
        self.run_id = ""
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget recorded results and counts (spans are kept)."""
        self.solves: list[tuple] = []
        self.reports: list = []
        self.counts = {"simulator.flow_buckets": 0, "trafficgen.flow_buckets": 0}

    def __enter__(self) -> "Probe":
        for t in self.targets:
            original = getattr(t.module, t.attr)
            self._saved.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self._wrap(original, t.span, t.hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str, hook):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.tracing:
                with probe.span(name):
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(probe, args, out)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = perf_counter()
            self._open.pop()

    def self_times(self, run_id: str) -> dict[str, float]:
        """Summed self time per span name over the spans of one run."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.run_id == run_id and s.parent >= 0:
                covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.run_id == run_id:
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - covered.get(i, 0.0))
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
