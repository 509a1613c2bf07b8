"""Spans around the public calls into each scqkd layer, recorded from outside.

A ``Tracer`` replaces public functions and methods of the imported package
with wrappers that record a span (name, start, end, parent, op) and puts
the originals back afterwards.  Spans stay in memory until the run writes
them out.  Only the calling thread enters wrapped code: the session
engine's worker threads run numpy kernels and call nothing public.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class _TracedGenerator:
    """A numpy Generator whose ``random`` draws are spans."""

    def __init__(self, generator, tracer) -> None:
        self._generator = generator
        self._tracer = tracer

    def random(self, *args, **kwargs):
        with self._tracer.span("randomness.random"):
            return self._generator.random(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._generator, attr)


class Tracer:
    """Spans in memory; ``op`` tags new spans with the operation they belong to."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_stream(self, fn):
        """Wrap ``philox_stream`` so that draws from the returned generator are spans."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("randomness.philox_stream"):
                return _TracedGenerator(fn(*args, **kwargs), self)
        return traced

    @contextmanager
    def installed(self, scqkd):
        """Trace the public calls the CLI makes into each layer, then restore them."""
        cli, core, protocol, security = scqkd.cli, scqkd.core, scqkd.protocol, scqkd.security
        points = [
            (cli, "cmd_simulate", "cli.simulate"),
            (cli, "cmd_sweep", "cli.sweep"),
            (cli, "run_session", "protocol.run_session"),
            (security, "run_session", "protocol.run_session"),
            (protocol.SessionLog, "to_json", "protocol.to_json"),
            (protocol.SessionLog, "to_csv", "protocol.to_csv"),
            (cli, "estimate_from_session", "security.estimate_from_session"),
            (security, "estimate_from_session", "security.estimate_from_session"),
            (cli, "sweep_reports", "security.sweep_reports"),
            (cli, "sweep_csv", "security.sweep_csv"),
            (protocol, "terminal_distribution", "core.terminal_distribution"),
            (protocol, "build_povm", "core.build_povm"),
            (core.PovmSet, "outcome_probabilities", "core.outcome_probabilities"),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]
        saved.append((protocol, "philox_stream", protocol.philox_stream))
        try:
            for owner, attr, name in points:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            protocol.philox_stream = self.wrap_stream(protocol.philox_stream)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def durations(self, name: str, op=None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (op is None or s["op"] == op)]

    def self_time(self, index: int) -> float:
        """A span's duration minus the time its direct children cover."""
        span = self.spans[index]
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)
        return span["end"] - span["start"] - children
