"""Windowed temporal motif counting and per-node position counts.

An instance is any ordered triple of edges (e_i, e_j, e_k), i < j < k in
(time, seq) order, whose span satisfies time_k - time_i <= delta and whose
six endpoints touch at most three distinct nodes. Instances are counted
exhaustively, not maximally or disjointly: an edge may appear in many
instances. Under the "exclude-ties" policy any triple containing two
edges with equal timestamps is skipped; the default "seq-order" policy
keeps them, ordered by input sequence.

count_motifs enumerates by incidence: for each first edge e_i = (u, v)
it pairs only the edges in e_i's window that touch u or v, taken from a
time-sorted per-node incidence index. This loses no instance: its
nodes are u, v and at most one third node w, and no edge is a
self-loop, so each of its edges joins two distinct nodes of {u, v, w}
and touches u or v. An edge joining u and v sits in both endpoints'
lists and is paired once. brute_force_count is the unrestricted oracle.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from . import catalog
from .catalog import MotifId
from .graph import TemporalEdge, TemporalGraph

TIE_POLICIES = ("seq-order", "exclude-ties")

_CHUNK = 1 << 19  # triples per vectorized classification batch


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not np.isfinite(delta) or delta <= 0:
        raise ValueError(f"delta must be a positive finite number, got {delta!r}")
    return delta


def _check_tie_policy(tie_policy: str) -> str:
    if tie_policy not in TIE_POLICIES:
        raise ValueError(
            f"tie_policy must be one of {TIE_POLICIES}, got {tie_policy!r}"
        )
    return tie_policy


@dataclass(frozen=True)
class PositionCountMatrix:
    """Per-node motif-position counts plus per-motif instance totals.

    counts has shape (n_nodes, 36, 3); position 3 of the four two-node
    motifs is structurally zero. delta and tie_policy are None when the
    matrix was loaded from a counts CSV (they travel in the manifest).
    candidates is the number of edge triples count_motifs classified; it
    is None for a matrix loaded from CSV or built any other way.
    """

    node_names: tuple[str, ...]
    counts: np.ndarray
    motif_totals: np.ndarray
    delta: float | None
    tie_policy: str | None
    candidates: int | None = None

    def __post_init__(self):
        if self.counts.shape != (len(self.node_names), catalog.N_MOTIFS, 3):
            raise ValueError(f"bad counts shape {self.counts.shape}")
        if self.motif_totals.shape != (catalog.N_MOTIFS,):
            raise ValueError(f"bad motif_totals shape {self.motif_totals.shape}")
        self.counts.setflags(write=False)
        self.motif_totals.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def node_totals(self) -> np.ndarray:
        """Total motif participation per node (sum over all cells)."""
        return self.counts.sum(axis=(1, 2))

    def count_of(self, name: str, motif: MotifId, position: int) -> int:
        if not (1 <= position <= 3):
            raise ValueError(f"position must be 1..3, got {position}")
        row = self.node_names.index(name)
        return int(self.counts[row, motif.index, position - 1])

    def total_instances(self) -> int:
        return int(self.motif_totals.sum())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("node",) + catalog.CSV_COLUMNS)
        flat = self.counts.reshape(self.n_nodes, catalog.N_CSV_CELLS)
        for i, name in enumerate(self.node_names):
            writer.writerow([name] + [int(x) for x in flat[i]])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    def motif_totals_csv(self) -> str:
        lines = ["motif,instances"]
        for m in catalog.MOTIFS:
            lines.append(f"{m.short},{int(self.motif_totals[m.index])}")
        return "\n".join(lines) + "\n"

    def write_motif_totals_csv(self, path) -> None:
        Path(path).write_text(self.motif_totals_csv(), encoding="utf-8")


def read_count_csv(source) -> PositionCountMatrix:
    """Load a counts CSV produced by PositionCountMatrix.write_csv."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_count_csv(fh)
    reader = csv.reader(source)
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ValueError("counts CSV: missing header") from None
    if header != ("node",) + catalog.CSV_COLUMNS:
        raise ValueError("counts CSV: unexpected header layout")
    names: list[str] = []
    rows: list[list[int]] = []
    for row in reader:
        if len(row) != 1 + catalog.N_CSV_CELLS:
            raise ValueError(f"counts CSV: row {reader.line_num}: wrong width")
        names.append(row[0])
        try:
            rows.append([int(x) for x in row[1:]])
        except ValueError:
            raise ValueError(
                f"counts CSV: row {reader.line_num}: non-integer cell"
            ) from None
    counts = np.array(rows, dtype=np.int64).reshape(len(names), catalog.N_MOTIFS, 3)
    if counts.size == 0:
        counts = np.zeros((len(names), catalog.N_MOTIFS, 3), dtype=np.int64)
    if counts.min(initial=0) < 0:
        raise ValueError("counts CSV: negative cell")
    dead = counts[:, :, 2][:, ~catalog.LIVE_MASK[:, 2]]
    if dead.size and dead.any():
        raise ValueError("counts CSV: nonzero cell in a two-node position-3 column")
    cell_sums = counts.sum(axis=0).sum(axis=1)
    totals, rem = np.divmod(cell_sums, catalog.POSITIONS_PER_MOTIF)
    if rem.any():
        raise ValueError("counts CSV: cell sums inconsistent with motif arities")
    return PositionCountMatrix(
        node_names=tuple(names),
        counts=counts,
        motif_totals=totals.astype(np.int64),
        delta=None,
        tie_policy=None,
    )


def classify_triple(
    e1: TemporalEdge, e2: TemporalEdge, e3: TemporalEdge
) -> tuple[MotifId, dict[int, int]] | None:
    """Canonical motif of an ordered edge triple, or None when the triple
    spans more than three nodes.

    Returns the motif id and the position -> node map (1 = source of the
    first edge, 2 = its target, 3 = the remaining node).
    """
    k1, k2, k3 = (e1.time, e1.seq), (e2.time, e2.seq), (e3.time, e3.seq)
    if not (k1 < k2 < k3):
        raise ValueError("triple must be strictly ordered by (time, seq)")
    labels = {e1.source: "a", e1.target: "b"}
    sig = [("a", "b")]
    for e in (e2, e3):
        for node in (e.source, e.target):
            if node not in labels:
                if len(labels) == 3:
                    return None
                labels[node] = "c"
        sig.append((labels[e.source], labels[e.target]))
    motif = catalog.MOTIF_OF_SIGNATURE[tuple(sig)]
    positions = {1: e1.source, 2: e1.target}
    if motif.n_positions == 3:
        positions[3] = next(n for n, lab in labels.items() if lab == "c")
    return motif, positions


def brute_force_count(
    g: TemporalGraph, delta: float, tie_policy: str = "seq-order"
) -> PositionCountMatrix:
    """Reference counter: enumerates every edge triple via combinations.

    Deliberately independent of the windowed kernel; used as the oracle
    in equivalence tests. Quadratic-plus, fine for small graphs only.
    """
    delta = _check_delta(delta)
    tie_policy = _check_tie_policy(tie_policy)
    exclude_ties = tie_policy == "exclude-ties"
    counts = np.zeros((g.n_nodes, catalog.N_MOTIFS, 3), dtype=np.int64)
    totals = np.zeros(catalog.N_MOTIFS, dtype=np.int64)
    edges = list(g.edges())
    for e1, e2, e3 in combinations(edges, 3):
        if e3.time - e1.time > delta:
            continue
        if exclude_ties and (e1.time == e2.time or e2.time == e3.time):
            continue
        result = classify_triple(e1, e2, e3)
        if result is None:
            continue
        motif, positions = result
        totals[motif.index] += 1
        for pos, node in positions.items():
            counts[node, motif.index, pos - 1] += 1
    return PositionCountMatrix(
        node_names=g.node_names,
        counts=counts,
        motif_totals=totals,
        delta=delta,
        tie_policy=tie_policy,
    )


def _window_ends(time: np.ndarray, delta: float) -> np.ndarray:
    """ends[i] = largest k with time[k] - time[i] <= delta.

    searchsorted on time[i] + delta gets close; float addition and
    subtraction can round differently, so each boundary then steps over
    distinct timestamps until it agrees exactly with the subtraction
    predicate used everywhere else.
    """
    uniq, first = np.unique(time, return_index=True)
    last = np.append(first[1:], time.shape[0]) - 1
    b = np.searchsorted(uniq, time + delta, side="right") - 1
    uniq = np.append(uniq, np.inf)  # sentinel, never inside a window
    while True:
        up = uniq[b + 1] - time <= delta
        down = uniq[b] - time > delta
        if not (up.any() or down.any()):
            return last[b]
        b = b + up - down


def _blocks(weights: np.ndarray):
    """Consecutive [a, b) index ranges of weight sum <= _CHUNK, or one index."""
    cum = np.concatenate(([0], np.cumsum(weights)))
    a = 0
    while a < weights.shape[0]:
        b = max(a + 1, int(np.searchsorted(cum, cum[a] + _CHUNK, "right")) - 1)
        yield a, b
        a = b


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + l) over the pairs of starts and lens."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def _triples(g: TemporalGraph, ends: np.ndarray):
    """Yield blocks (ii, jj, kk) of candidate triples: every i < j < k with
    j, k in (i, ends[i]] and both touching an endpoint of edge i. A block
    holds at most _CHUNK triples unless one j alone pairs with more."""
    m = g.n_edges
    e = np.arange(m)
    # per-node incidence lists in time order, as one sorted key array
    keys = np.sort(np.concatenate((g.src * m + e, g.tgt * m + e)))
    # lo/lens entry 2i: edge i's window in its source's list; 2i + 1: target's
    base = np.stack((g.src, g.tgt), axis=1).ravel() * m
    lo = np.searchsorted(keys, base + np.repeat(e, 2), side="right")
    lens = np.searchsorted(keys, base + np.repeat(ends, 2), side="right") - lo
    width = lens.reshape(m, 2).sum(axis=1)
    for i0, i1 in _blocks(width * (width - 1) // 2):
        r0, r1 = 2 * i0, 2 * i1
        side = np.repeat(np.arange(r0, r1), lens[r0:r1])
        edge, first = keys[_ranges(lo[r0:r1], lens[r0:r1])] % m, side // 2
        # an edge joining u and v sits in both lists: keep the source copy
        u = g.src[first]
        keep = (side % 2 == 0) | ((g.src[edge] != u) & (g.tgt[edge] != u))
        edge, first = edge[keep], first[keep]
        size = np.bincount(first - i0, minlength=i1 - i0)
        # later[x]: group members after x, each paired with x
        later = np.repeat(size - 1, size) - _ranges(np.zeros_like(size), size)
        for a, b in _blocks(later):
            x = np.repeat(np.arange(a, b), later[a:b])
            y = _ranges(np.arange(a, b) + 1, later[a:b])
            jj, kk = edge[x], edge[y]
            yield first[x], np.minimum(jj, kk), np.maximum(jj, kk)


def _classify_chunk(g, ii, jj, kk, exclude_ties, counts_flat, totals):
    src, tgt, time = g.src, g.tgt, g.time
    u1, v1 = src[ii], tgt[ii]
    u2, v2 = src[jj], tgt[jj]
    u3, v3 = src[kk], tgt[kk]

    def code(x):
        return np.where(x == u1, 0, np.where(x == v1, 1, 2))

    s2, t2, s3, t3 = code(u2), code(v2), code(u3), code(v3)
    # the single extra node, tracked so triples on 4+ nodes drop out
    extra = np.full(u1.shape, -1, dtype=np.int64)
    ok = np.ones(u1.shape, dtype=bool)
    for endpoint, c in ((u2, s2), (v2, t2), (u3, s3), (v3, t3)):
        is_extra = c == 2
        extra = np.where(is_extra & (extra == -1), endpoint, extra)
        ok &= ~is_extra | (endpoint == extra)
    key = (s2 * 3 + t2) * 9 + s3 * 3 + t3
    motif = catalog.KEY_TO_MOTIF_INDEX[key]
    ok &= motif >= 0
    if exclude_ties:
        ok &= (time[ii] != time[jj]) & (time[jj] != time[kk])
    sel = np.flatnonzero(ok)
    if not sel.size:
        return
    mot = motif[sel].astype(np.int64)
    totals += np.bincount(mot, minlength=catalog.N_MOTIFS)
    cells = [
        (u1[sel] * catalog.N_MOTIFS + mot) * 3,
        (v1[sel] * catalog.N_MOTIFS + mot) * 3 + 1,
    ]
    has3 = extra[sel] >= 0
    if has3.any():
        cells.append((extra[sel][has3] * catalog.N_MOTIFS + mot[has3]) * 3 + 2)
    counts_flat += np.bincount(
        np.concatenate(cells), minlength=counts_flat.shape[0]
    )


def count_motifs(
    g: TemporalGraph, delta: float, tie_policy: str = "seq-order"
) -> PositionCountMatrix:
    """Count all motif instances within the delta window.

    For each first edge (u, v) only the later edges inside its window that
    touch u or v are paired. This is exact because every edge of an
    instance touches u or v (see the module docstring). `candidates`
    records how many triples were classified.
    """
    delta = _check_delta(delta)
    tie_policy = _check_tie_policy(tie_policy)
    exclude_ties = tie_policy == "exclude-ties"
    n = g.n_nodes
    counts_flat = np.zeros(n * catalog.N_CSV_CELLS, dtype=np.int64)
    totals = np.zeros(catalog.N_MOTIFS, dtype=np.int64)
    candidates = 0
    for ii, jj, kk in _triples(g, _window_ends(g.time, delta)):
        _classify_chunk(g, ii, jj, kk, exclude_ties, counts_flat, totals)
        candidates += ii.shape[0]
    return PositionCountMatrix(
        node_names=g.node_names,
        counts=counts_flat.reshape(n, catalog.N_MOTIFS, 3),
        motif_totals=totals,
        delta=delta,
        tie_policy=tie_policy,
        candidates=candidates,
    )
