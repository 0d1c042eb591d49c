"""Directed continuous-time edge lists and static-graph preprocessing."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .table import table_text

EDGE_LIST_HEADER = ("source", "target", "timestamp")


@dataclass(frozen=True)
class TemporalEdge:
    source: int
    target: int
    time: float
    seq: int  # position in the graph's stored order


class TemporalGraph:
    """Immutable directed temporal network.

    Nodes are dense integer indices backed by a string name table. Edges
    are stored in one order: a stable sort by time of the order they were
    given in, so edges with equal timestamps keep their input order. An
    edge's position in that order breaks every timestamp tie.

    Equality compares the node-name set and the name-level edge sequence
    in stored order. Internal indices are a representation detail:
    re-parsing a serialized graph renumbers them without changing the
    network.
    """

    __slots__ = ("node_names", "src", "tgt", "time")

    def __init__(self, node_names: Sequence[str], src, tgt, time):
        names = tuple(str(x) for x in node_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names")
        src = np.asarray(src, dtype=np.int64)
        tgt = np.asarray(tgt, dtype=np.int64)
        time = np.asarray(time, dtype=np.float64)
        m = src.shape[0]
        if not (tgt.shape[0] == time.shape[0] == m):
            raise ValueError("edge arrays must have equal length")
        n = len(names)
        if m:
            if src.min(initial=0) < 0 or tgt.min(initial=0) < 0:
                raise ValueError("negative node index")
            if src.max(initial=-1) >= n or tgt.max(initial=-1) >= n:
                raise ValueError("edge endpoint outside node table")
            if np.any(src == tgt):
                raise ValueError("self-loops are not allowed")
            if not np.all(np.isfinite(time)):
                raise ValueError("non-finite timestamp")
        # timsort makes one pass over times already in order
        order = np.argsort(time, kind="stable")
        self.node_names = names
        self.src = src[order]
        self.tgt = tgt[order]
        self.time = time[order]
        for arr in (self.src, self.tgt, self.time):
            arr.setflags(write=False)

    @classmethod
    def from_named_edges(
        cls,
        edges: Iterable[tuple[str, str, float]],
        extra_nodes: Iterable[str] = (),
    ) -> "TemporalGraph":
        """Build from (source, target, time) triples, interning names in
        order of first appearance. Equal times keep the input order."""
        names: dict[str, int] = {}
        src, tgt, time = [], [], []
        for s, t, ts in edges:
            for name in (s, t):
                if name not in names:
                    names[name] = len(names)
            src.append(names[s])
            tgt.append(names[t])
            time.append(ts)
        for name in extra_nodes:
            if name not in names:
                names[name] = len(names)
        return cls(tuple(names), src, tgt, time)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])

    def edge(self, i: int) -> TemporalEdge:
        """The i-th edge in stored order; its seq is i."""
        return TemporalEdge(int(self.src[i]), int(self.tgt[i]), float(self.time[i]), i)

    def edges(self) -> Iterator[TemporalEdge]:
        for i in range(self.n_edges):
            yield self.edge(i)

    def named_edges(self) -> list[tuple[str, str, float]]:
        """(source name, target name, time) for each edge in stored order."""
        names = self.node_names
        return [
            (names[u], names[v], t)
            for u, v, t in zip(self.src.tolist(), self.tgt.tolist(), self.time.tolist())
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            set(self.node_names) == set(other.node_names)
            and self.named_edges() == other.named_edges()
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TemporalGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def parse_edge_list(text: str) -> TemporalGraph:
    """Parse the text of a CSV edge list with header source,target,timestamp.

    Node names are interned in order of first appearance; rows with equal
    timestamps keep their order in the text.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    names: dict[str, int] = {}
    src, tgt, time = [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("line 1: missing header")
        if tuple(h.strip().lower() for h in header) != EDGE_LIST_HEADER:
            raise ValueError(
                f"line 1: expected header {','.join(EDGE_LIST_HEADER)!r}"
            )
        for row in reader:
            if len(row) != 3:
                raise ValueError(
                    f"line {reader.line_num}: expected 3 fields, got {len(row)}"
                )
            s, t, raw_ts = row
            s = s.strip()
            t = t.strip()
            if not s or not t:
                raise ValueError(f"line {reader.line_num}: empty node name")
            raw_ts = raw_ts.strip()
            try:
                ts = float(raw_ts)
            except ValueError:
                raise ValueError(
                    f"line {reader.line_num}: bad timestamp {raw_ts!r}"
                ) from None
            if not math.isfinite(ts):
                raise ValueError(
                    f"line {reader.line_num}: non-finite timestamp {raw_ts!r}"
                )
            if s == t:
                raise ValueError(f"line {reader.line_num}: self-loop on node {s!r}")
            src.append(names.setdefault(s, len(names)))
            tgt.append(names.setdefault(t, len(names)))
            time.append(ts)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return TemporalGraph(tuple(names), src, tgt, time)


def edge_list_text(g: TemporalGraph) -> str:
    """The edge list as CSV text that parse_edge_list reads back."""
    return table_text(EDGE_LIST_HEADER, g.named_edges())


def largest_scc(g: TemporalGraph) -> frozenset[int]:
    """Node set of the largest strongly connected component of the
    time-aggregated digraph, where parallel edges count as one arc; on
    equal sizes the component holding the smallest node index wins.

    Tarjan's algorithm (1972), run with an explicit stack so that a long
    path cannot exhaust Python's recursion limit, over the sorted unique
    arcs laid out as CSR offsets. Time is linear in nodes plus arcs.
    """
    n = g.n_nodes
    if n == 0:
        return frozenset()
    arcs = np.sort(g.src * n + g.tgt)
    arcs = np.concatenate((arcs[:1], arcs[1:][arcs[1:] != arcs[:-1]]))
    targets = (arcs % n).tolist()
    offsets = np.searchsorted(arcs, np.arange(n + 1) * n).tolist()  # arcs out of v
    index = [-1] * n  # discovery order; n once the node's component is done
    low = [0] * n
    depth = [0] * n  # the node's position on the component stack
    stack: list[int] = []
    best: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        depth[root] = len(stack)
        stack.append(root)
        frames = [(root, offsets[root])]  # (node, next arc to follow)
        while frames:
            v, pos = frames[-1]
            end = offsets[v + 1]
            while pos < end:
                w = targets[pos]
                pos += 1
                if index[w] < 0:  # descend into w, resume v at pos later
                    frames[-1] = (v, pos)
                    index[w] = low[w] = counter
                    counter += 1
                    depth[w] = len(stack)
                    stack.append(w)
                    frames.append((w, offsets[w]))
                    break
                if index[w] < low[v]:  # w is on the stack: done nodes hold n
                    low[v] = index[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = stack[depth[v]:]
                    del stack[depth[v]:]
                    for w in comp:
                        index[w] = n
                    if len(comp) > len(best) or (
                        len(comp) == len(best) and min(comp) < min(best)
                    ):
                        best = comp
    return frozenset(best)


def filter_nodes(g: TemporalGraph, keep: Iterable[int]) -> TemporalGraph:
    """Restrict to edges with both endpoints in `keep`.

    The result's node set is exactly the kept nodes that still appear as
    endpoints; names re-intern in order of first appearance in the
    retained edge sequence. The kept edges stay in stored order, so edges
    with equal timestamps keep their relative order.
    """
    keep_idx = np.fromiter((int(k) for k in keep), dtype=np.int64)
    bad = keep_idx[(keep_idx < 0) | (keep_idx >= g.n_nodes)]
    if bad.size:
        raise ValueError(f"keep contains unknown node index {int(bad[0])}")
    kept = np.zeros(g.n_nodes, dtype=bool)
    kept[keep_idx] = True
    edges = kept[g.src] & kept[g.tgt]
    src, tgt = g.src[edges], g.tgt[edges]
    ends = np.column_stack((src, tgt)).ravel()
    first = np.full(g.n_nodes, ends.size)
    np.minimum.at(first, ends, np.arange(ends.size))
    present = np.flatnonzero(first < ends.size)
    order = present[np.argsort(first[present])]  # old indices by first appearance
    renumber = np.empty(g.n_nodes, dtype=np.int64)
    renumber[order] = np.arange(order.size)
    return TemporalGraph(
        [g.node_names[i] for i in order],
        renumber[src],
        renumber[tgt],
        g.time[edges],
    )
