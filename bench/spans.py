"""In-memory spans around the library calls of the CLI, and their self times.

The traced run replaces the public names that ``motifroles.cli`` and
``motifroles.evaluation`` import with wrappers that record a span per call,
so it executes the same code path as the untraced run. A span's self time is
its duration minus the durations of its direct children; every span of a
pass descends from one root span, so the self times of a pass add up to the
pass's duration by construction. The counters the wrappers note are filled
in only after the pass, so their work is charged to no span.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass, field

# Public name -> span name. The part before the dot is the layer.
SPAN_OF = {
    "parse_edge_list": "graph.parse",
    "aggregate_static": "graph.scc",
    "largest_scc": "graph.scc",
    "filter_nodes": "graph.filter",
    "count_motifs": "counting.count",
    "build_positioned": "profiles.build",
    "build_positionless": "profiles.build",
    "ward_linkage": "cluster.ward",
    "cut": "cluster.cut",
    "permutation_accuracy": "cluster.score",
    "centroids": "cluster.centroids",
    "simulate": "hawkes.simulate",
    "dendrogram_svg": "render.svg",
    "heatmap_svg": "render.svg",
}

# Where the self time of every other span goes: the pass and each CLI call
# are the glue around the library calls.
CLI_SELF = "cli.self"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    # (time array, delta) of every count_motifs call, sized after the pass
    count_inputs: list = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    # (note, signature, args, kwargs, result) of every noted call
    _calls: list = field(default_factory=list)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, public_name: str, fn):
        name = SPAN_OF[public_name]
        note = _NOTES.get(public_name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                self._calls.append((note, signature, args, kwargs, result))
            return result

        return traced

    def fill_counters(self) -> Counter:
        """Note the calls made since the last fill; run it after the pass."""
        for note, signature, args, kwargs, result in self._calls:
            note(self, signature.bind(*args, **kwargs).args, result)
        self._calls.clear()
        return self.counters

    def install(self, modules) -> list[str]:
        """Wrap every name of SPAN_OF that a module imports; returns the
        qualified names wrapped. Each function is wrapped once per module."""
        wrapped = []
        for module in modules:
            for public_name in SPAN_OF:
                fn = getattr(module, public_name, None)
                if callable(fn):
                    setattr(module, public_name, self.wrap(public_name, fn))
                    wrapped.append(f"{module.__name__}.{public_name}")
        return wrapped


def _note_count(tracer, args, result):
    graph, delta = args[0], args[1]
    tracer.counters["counting.instances"] += int(result.total_instances())
    tracer.count_inputs.append((graph.time, float(delta)))


def _note_profiles(tracer, args, result):
    tracer.counters["profiles.nodes_profiled"] += result.n_profiled
    tracer.counters["profiles.nodes_dropped"] += len(result.dropped)


def _note_svg(tracer, args, result):
    tracer.counters["render.svg_bytes"] += len(result.encode("utf-8"))


_NOTES = {
    "parse_edge_list": lambda t, a, r: t.counters.update({"graph.edges": r.n_edges}),
    "largest_scc": lambda t, a, r: t.counters.update({"graph.scc_nodes": len(r)}),
    "count_motifs": _note_count,
    "build_positioned": _note_profiles,
    "build_positionless": _note_profiles,
    "ward_linkage": lambda t, a, r: t.counters.update({"cluster.ward_leaves": r.n_leaves}),
    "simulate": lambda t, a, r: t.counters.update({"hawkes.events": r.graph.n_edges}),
    "dendrogram_svg": _note_svg,
    "heatmap_svg": _note_svg,
}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_seconds(spans) -> dict[str, float]:
    """Self seconds summed by span name; spans outside SPAN_OF count as
    CLI_SELF."""
    library = set(SPAN_OF.values())
    totals = {name: 0.0 for name in sorted(library)}
    totals[CLI_SELF] = 0.0
    own = self_times(spans)
    for span in spans:
        key = span.name if span.name in library else CLI_SELF
        totals[key] += own[span.id]
    return totals
