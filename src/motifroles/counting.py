"""Windowed temporal motif counting and per-node position counts.

An instance is any ordered triple of edges (e_i, e_j, e_k), i < j < k in
the graph's stored order (time, with equal times in input order), whose
span satisfies time_k - time_i <= delta and whose six endpoints touch at
most three distinct nodes. Instances are counted exhaustively, not
maximally or disjointly: an edge may appear in many instances. Under the
"exclude-ties" policy any triple containing two edges with equal
timestamps is skipped; the default "seq-order" policy keeps them, ordered
by input sequence.

count_motifs enumerates by incidence: for each first edge e_i = (u, v)
it pairs only the edges in e_i's window that touch u or v, taken from a
time-sorted per-node incidence index. This loses no instance: its
nodes are u, v and at most one third node w, and no edge is a
self-loop, so each of its edges joins two distinct nodes of {u, v, w}
and touches u or v. An edge joining u and v sits in both endpoints'
lists and is paired once. brute_force_count is the unrestricted oracle.

Each first edge's group of members is put in time order and every member
is classified once against the first edge: its endpoint codes relative
to (u, v) and its third node, if it has one. A member pair x < y then
only reads both members' codes and third nodes, tests that the third
nodes agree and looks its key up in catalog.KEY_TO_MOTIF_INDEX. First
edges and member pairs go through numpy in blocks of at most _CHUNK
triples, sized so that a block's arrays stay in the CPU cache.

Motif totals are not counted separately: every instance puts exactly one
node in position 1, so a motif's total is its position-1 column sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import catalog
from .catalog import MotifId
from .graph import TemporalEdge, TemporalGraph
from .table import node_table_text, read_table, table_text

TIE_POLICIES = ("seq-order", "exclude-ties")

_CHUNK = 1 << 16  # triples per classification block, sized to stay in cache


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
    """Per-node motif-position counts.

    counts has shape (n_nodes, 36, 3); position 3 of the four two-node
    motifs is structurally zero. candidates is the number of edge triples
    count_motifs classified and candidate_bound the upper bound on it that
    count_motifs checked before classifying; both are None for a matrix
    loaded from CSV or built any other way. The window and tie policy the
    counts were taken with are not stored: the count manifest records them.
    """

    node_names: tuple[str, ...]
    counts: np.ndarray
    candidates: int | None = None
    candidate_bound: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "counts", np.array(self.counts))  # a copy of its own
        if self.counts.shape != (len(self.node_names), catalog.N_MOTIFS, 3):
            raise ValueError(f"bad counts shape {self.counts.shape}")
        self.counts.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def motif_totals(self) -> np.ndarray:
        """Instances per motif: each instance has one node in position 1."""
        return self.counts[:, :, 0].sum(axis=0)

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

    def csv_text(self) -> str:
        """The counts table, `counts.csv`."""
        flat = self.counts.reshape(self.n_nodes, catalog.N_CSV_CELLS)
        return node_table_text(("node",) + catalog.CSV_COLUMNS, self.node_names, flat)

    def motif_totals_csv_text(self) -> str:
        """The instances of each motif, `motif_totals.csv`."""
        rows = zip((m.short for m in catalog.MOTIFS), self.motif_totals.tolist())
        return table_text(("motif", "instances"), rows)


def _count_cell(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**63:
        raise ValueError(f"count {text!r} is negative or too large for 64 bits")
    return value


def read_count_csv(text: str) -> PositionCountMatrix:
    """Load the text of a counts CSV from PositionCountMatrix.csv_text. Each
    instance fills each position of its motif once, so all live positions
    of a motif must sum to the same total."""
    _, names, rows = read_table(
        text, "counts CSV", [("node",) + catalog.CSV_COLUMNS], _count_cell
    )
    counts = np.array(rows, dtype=np.int64).reshape(len(names), catalog.N_MOTIFS, 3)
    dead = counts[:, :, 2][:, ~catalog.LIVE_MASK[:, 2]]
    if dead.any():
        raise ValueError("counts CSV: nonzero cell in a two-node position-3 column")
    # A node's sum adds N_CSV_CELLS cells and a motif position's sum adds n,
    # so only a file with a huge cell needs its sums checked in Python ints.
    flat = counts.reshape(len(names), catalog.N_CSV_CELLS)
    if len(names) and int(flat.max()) * max(flat.shape) >= 2**63:
        exact = flat.astype(object)
        if max(exact.sum(axis=1).max(), exact.sum(axis=0).max()) >= 2**63:
            raise ValueError(
                "counts CSV: a node's or a motif's sum is too large for 64 bits"
            )
    sums = counts.sum(axis=0)
    if (catalog.LIVE_MASK & (sums != sums[:, :1])).any():
        raise ValueError("counts CSV: a motif's positions have unequal sums")
    return PositionCountMatrix(node_names=names, counts=counts)


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
    if motif.n_nodes == 3:
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
        for pos, node in positions.items():
            counts[node, motif.index, pos - 1] += 1
    return PositionCountMatrix(node_names=g.node_names, counts=counts)


def _window_ends(time: np.ndarray, delta: float) -> np.ndarray:
    """ends[i] = largest k with time[k] - time[i] <= delta, for sorted time.

    searchsorted on time[i] + delta gets close; float addition and
    subtraction can round differently, so each boundary then steps over
    distinct timestamps until it agrees exactly with the subtraction
    predicate used everywhere else.
    """
    starts = np.ones(time.shape, dtype=bool)
    starts[1:] = time[1:] != time[:-1]
    first = np.flatnonzero(starts)
    uniq = time[first]
    last = np.append(first[1:], time.shape[0]) - 1
    # A sum or difference overflows to +inf only where its exact value is
    # above the float range, and so above delta: each comparison keeps its
    # truth, and the overflow is no fault.
    with np.errstate(over="ignore"):
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


def _incidence(g: TemporalGraph, ends: np.ndarray):
    """Per-node incidence lists in time order, concatenated as one array of
    edges, and each edge i's window (i, ends[i]] in its endpoints' lists as
    start and length: entry 2i is in its source's list, 2i + 1 in its
    target's."""
    m = g.n_edges
    e = np.arange(m)
    # sorting (node·m + edge)·2 + side orders the lists and keeps each
    # entry's slot 2·edge + side
    keys = np.sort(np.concatenate(((g.src * m + e) * 2, (g.tgt * m + e) * 2 + 1)))
    node_edge = keys >> 1
    edges = node_edge % m
    slot = edges * 2 + (keys & 1)
    after = np.arange(1, 2 * m + 1)
    # window ends never decrease along a list, so the queries come sorted
    hi = np.searchsorted(node_edge, node_edge - edges + ends[edges], side="right")
    lo = np.empty(2 * m, dtype=np.int64)
    lens = np.empty(2 * m, dtype=np.int64)
    lo[slot] = after
    lens[slot] = hi - after
    return edges, lo, lens


def _pair_weights(lens: np.ndarray) -> np.ndarray:
    """C(width, 2) per first edge, width being both endpoints' list windows;
    an edge joining both endpoints counts twice in width."""
    width = lens.reshape(-1, 2).sum(axis=1)
    return width * (width - 1) // 2


def _groups(g: TemporalGraph, index, drop_tied: bool):
    """Yield, per block of first edges, the incidence groups as arrays over
    their members: first edge, member edge, member endpoint code
    3·c(source) + c(target) with c(u) = 0, c(v) = 1 and c(other) = 2 for
    the first edge (u, v), and the member's third node or -1; then the
    group sizes and the number of member pairs before any member is
    dropped. Members of a group are later edges in the first edge's
    window that touch u or v, each once, in time order, and the groups
    follow each other in first-edge order. With drop_tied, members with
    the first edge's timestamp are left out. index is the _incidence of
    the windows."""
    m = g.n_edges
    src, tgt = g.src, g.tgt
    lists, lo, lens = index
    for i0, i1 in _blocks(_pair_weights(lens)):
        r0, r1 = 2 * i0, 2 * i1
        side = np.repeat(np.arange(r0, r1), lens[r0:r1])
        edge, first = lists[_ranges(lo[r0:r1], lens[r0:r1])], side // 2
        # an edge joining u and v sits in both lists: keep the source copy
        u = src[first]
        keep = (side % 2 == 0) | ((src[edge] != u) & (tgt[edge] != u))
        key = np.sort(first[keep] * m + edge[keep])
        first, edge = np.divmod(key, m)
        size = np.bincount(first - i0)
        pairs = int((size * (size - 1) // 2).sum())
        if drop_tied:
            untied = g.time[edge] != g.time[first]
            first, edge = first[untied], edge[untied]
            size = np.bincount(first - i0)
        u, v = src[first], tgt[first]
        s, t = src[edge], tgt[edge]
        su, sv, tu, tv = (a.view(np.int8) for a in (s == u, s == v, t == u, t == v))
        code = 8 - 6 * su - 3 * sv - 2 * tu - tv  # c(x) = 2 - 2·[x = u] - [x = v]
        third = np.where(su | sv, np.where(tu | tv, -1, t), s)
        yield first, edge, code, third, size, pairs


def _pairs(size: np.ndarray):
    """Blocks (x, y) of the within-group pairs x < y, for groups of the
    given sizes laid out back to back; a block holds at most _CHUNK pairs
    unless one x alone has more."""
    # later[x]: group members after x, each paired with x
    later = np.repeat(size - 1, size) - _ranges(np.zeros_like(size), size)
    for a, b in _blocks(later):
        x = np.arange(a, b)
        yield np.repeat(x, later[a:b]), _ranges(x + 1, later[a:b])


def count_motifs(
    g: TemporalGraph,
    delta: float,
    tie_policy: str = "seq-order",
    *,
    max_candidates: int | None = None,
) -> PositionCountMatrix:
    """Count all motif instances within the delta window.

    For each first edge (u, v) only the later edges inside its window that
    touch u or v are paired. This is exact because every edge of an
    instance touches u or v (see the module docstring). `candidates`
    records the member pairs, C(size, 2) summed over the first edges'
    groups; under exclude-ties a member with the first edge's timestamp
    can be in no instance and is dropped before pairing, so fewer triples
    than that are classified. `candidate_bound` is the sum over first
    edges of C(width, 2), an upper bound on candidates taken in
    O(m log m) before classifying. When that bound is above
    max_candidates, ValueError is raised before any triple is classified.
    """
    delta = _check_delta(delta)
    tie_policy = _check_tie_policy(tie_policy)
    if max_candidates is not None and max_candidates < 0:
        raise ValueError(f"max_candidates must be non-negative, got {max_candidates}")
    index = _incidence(g, _window_ends(g.time, delta))
    # Python ints, so no input size overflows the sum
    bound = int(_pair_weights(index[2]).sum(dtype=object))
    if max_candidates is not None and bound > max_candidates:
        raise ValueError(
            f"delta={delta:g} gives a candidate bound of {bound}, above the "
            f"limit of {max_candidates}; use a smaller delta or raise the "
            "limit (--max-candidates on the command line)"
        )
    exclude_ties = tie_policy == "exclude-ties"
    n = g.n_nodes
    counts_flat = np.zeros(n * catalog.N_CSV_CELLS, dtype=np.int64)
    candidates = 0
    for first, edge, code, third, size, pairs in _groups(g, index, exclude_ties):
        candidates += pairs
        code9 = code * 9
        if exclude_ties:
            t = g.time[edge]
        for x, y in _pairs(size):
            # every key of two members that agree on the third node names
            # a motif, since all 6 x 6 directed edge pairs on 3 nodes do
            motif = catalog.KEY_TO_MOTIF_INDEX[code9[x] + code[y]]
            tx, ty = third[x], third[y]
            ok = (tx == ty) | (tx < 0) | (ty < 0)
            if exclude_ties:
                ok &= t[x] != t[y]
            sel = np.flatnonzero(ok)
            if not sel.size:
                continue
            mot = motif[sel].astype(np.int64)
            f = first[x[sel]]
            w = np.maximum(tx[sel], ty[sel])
            has3 = w >= 0
            np.add.at(counts_flat, (g.src[f] * catalog.N_MOTIFS + mot) * 3, 1)
            np.add.at(counts_flat, (g.tgt[f] * catalog.N_MOTIFS + mot) * 3 + 1, 1)
            np.add.at(counts_flat, (w[has3] * catalog.N_MOTIFS + mot[has3]) * 3 + 2, 1)
    return PositionCountMatrix(
        node_names=g.node_names,
        counts=counts_flat.reshape(n, catalog.N_MOTIFS, 3),
        candidates=candidates,
        candidate_bound=bound,
    )
