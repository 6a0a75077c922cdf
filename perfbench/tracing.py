"""Spans around the public calls into each layer, installed from outside.

The benchmark never edits the program: :class:`LayerTracer` replaces a
module attribute or class method with a wrapper that records a span
(name, start, end, parent) and restores the original on
:meth:`LayerTracer.uninstall`.  With the tracer uninstalled the program
runs its own, unwrapped code, which is how the end-to-end metrics are
measured; the difference between the two is ``trace.overhead_ratio``.

A span's self time is its duration minus the time covered by its direct
child spans, so a layer's self time excludes every other layer it
calls into.  The calls in :data:`HOT_TARGETS` run once per packet or
link booking; their spans are summed by name rather than kept, so a
join's million observer calls do not each hold a :class:`Span`.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

#: ``(module, attribute path, span name)`` of every wrapped entry point.
#: Module-level functions are wrapped in every module that calls them
#: by name, because ``from x import f`` binds ``f`` at import time.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.workloads.generator", "generate_workload", "workloads.generate"),
    ("repro.serve.scheduler", "generate_workload", "workloads.generate"),
    ("repro.serve.scheduler", "workload_for", "workloads.workload_for"),
    ("repro.sim.stats", "bisection_cut", "topology.bisection_cut"),
    ("repro.sim.shuffle", "bisection_cut", "topology.bisection_cut"),
    ("repro.topology.maxflow", "FlowNetwork.max_flow", "topology.max_flow"),
    ("repro.routing.adaptive", "AdaptiveArmPolicy.choose_route", "routing.choose_route"),
    ("repro.sim.engine", "Engine.run", "sim.engine"),
    ("repro.core.mgjoin", "build_histograms", "core.histogram"),
    ("repro.serve.fabric", "build_histograms", "core.histogram"),
    ("repro.core.mgjoin", "assign_partitions", "core.assignment"),
    ("repro.core.mgjoin", "execute_distribution", "core.distribution"),
    ("repro.serve.fabric", "execute_distribution", "core.distribution"),
    ("repro.core.mgjoin", "refine", "core.local_partition"),
    ("repro.core.mgjoin", "probe_partitions", "core.probe"),
    ("repro.core.mgjoin", "canonical_match_digest", "core.digest"),
    ("repro.serve.scheduler", "QueryScheduler.run", "serve.scheduler"),
    ("repro.serve.fabric", "QuerySession.__init__", "serve.session"),
    ("repro.serve.fabric", "QuerySession.start", "serve.session"),
    ("repro.serve.fabric", "QuerySession.finalize", "serve.session"),
)

#: Observer calls made from inside the simulator, once per packet, link
#: booking or queue change.  Without their spans, their time would count
#: as ``Engine.run`` self time.
HOT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.obs.conformance", "ConformanceProbe.predict", "obs.conformance"),
    ("repro.obs.conformance", "ConformanceProbe.register", "obs.conformance"),
    ("repro.obs.conformance", "ConformanceProbe.record_delivery", "obs.conformance"),
    ("repro.obs.analyze.timeline", "LinkTimelineSampler.record_transfer", "obs.sampler"),
    ("repro.obs.analyze.timeline", "LinkTimelineSampler.record_queue", "obs.sampler"),
    ("repro.obs.analyze.timeline", "LinkTimelineSampler.record_delivery", "obs.sampler"),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs.metrics"),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs.metrics"),
    ("repro.obs.metrics", "MetricsRegistry.histogram", "obs.metrics"),
    ("repro.obs.spans", "SpanTracer.add_span", "obs.spans"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class LayerTracer:
    """Records spans while installed; plain pass-through code otherwise."""

    def __init__(self) -> None:
        #: Kept spans of :data:`TARGETS`, in start order.
        self.spans: list[Span] = []
        #: Span name -> ``[summed self time, calls]`` of :data:`HOT_TARGETS`.
        self.tallies: dict[str, list] = {}
        #: Executed engine callbacks, summed over every ``Engine.run``.
        self.engine_events = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for targets, keep in ((TARGETS, True), (HOT_TARGETS, False)):
            for module_name, path, span_name in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
                wrapper = self._wrap(span_name, original, keep)
                if path == "Engine.run":
                    wrapper = self._count_events(wrapper)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans.clear()
        self.tallies.clear()
        self.engine_events = 0

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------

    def _wrap(self, name: str, function, keep: bool):
        spans = self.spans
        tally = self.tallies
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            if keep:
                spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                if not keep:
                    total = tally.setdefault(name, [0.0, 0])
                    total[0] += span.self_time
                    total[1] += 1

        return wrapper

    def _count_events(self, run):
        def counted(engine, *args, **kwargs):
            before = engine.stats
            try:
                return run(engine, *args, **kwargs)
            finally:
                after = engine.stats
                for key in ("ready_dispatches", "heap_dispatches"):
                    self.engine_events += after[key] - before[key]

        return functools.wraps(run)(counted)

    # ------------------------------------------------------------------

    def self_seconds(self, *prefixes: str) -> float:
        """Summed self time of every span whose name starts with a prefix."""
        kept = sum(span.self_time for span in self.spans if span.name.startswith(prefixes))
        hot = sum(t[0] for name, t in self.tallies.items() if name.startswith(prefixes))
        return kept + hot

    def calls(self, name: str) -> int:
        kept = sum(1 for span in self.spans if span.name == name)
        return kept + self.tallies.get(name, [0.0, 0])[1]
