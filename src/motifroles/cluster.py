"""Ward agglomerative clustering with explicit, deterministic conventions.

Merge height is the increase in total within-cluster sum of squares,
Delta(I, J) = |I||J| / (|I| + |J|) * ||centroid_I - centroid_J||^2,
updated between steps with the Lance-Williams recurrence. Cluster ids
number leaves 0..n-1 and internal merges n..2n-2 in creation order; ties
in the minimum Delta break toward the smallest (left, right) id pair.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .table import node_table_text

_HEIGHT_SLACK = 1e-9  # relative tolerance for the monotonicity check
# Ward's distance matrix takes 8 n^2 bytes: 3.2 GB at this many leaves.
MAX_WARD_LEAVES = 20_000
# Least distances a thread of Ward's set-up computes: with fewer, starting
# the thread costs about what it saves.
_PART_DISTANCES = 1 << 15


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    n_leaves: int
    merges: tuple[Merge, ...]

    def __post_init__(self):
        if self.n_leaves < 2:
            raise ValueError("dendrogram needs at least two leaves")
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError("dendrogram must contain exactly n-1 merges")
        used: set[int] = set()
        sizes = [1] * self.n_leaves  # by cluster id
        prev = 0.0
        for step, m in enumerate(self.merges):
            new_id = self.n_leaves + step
            for child in (m.left, m.right):
                if not 0 <= child < new_id:
                    raise ValueError(f"merge child {child} does not exist yet")
                if child in used:
                    raise ValueError(f"cluster {child} consumed as a child twice")
                used.add(child)
            if sizes[m.left] + sizes[m.right] != m.size:
                raise ValueError("merge size must equal the sum of child sizes")
            sizes.append(m.size)
            if math.isnan(m.height):
                raise ValueError("merge height must not be NaN")
            # no slack after an infinite height: inf - inf would be NaN
            slack = _HEIGHT_SLACK * max(1.0, abs(prev)) if math.isfinite(prev) else 0.0
            if m.height < prev - slack:
                raise ValueError("merge heights must be non-decreasing")
            prev = max(prev, m.height)

    def leaf_order(self) -> list[int]:
        """Leaves left to right as drawn: left subtree before right."""
        n = self.n_leaves
        order: list[int] = []
        stack = [2 * n - 2]
        while stack:
            node = stack.pop()
            if node < n:
                order.append(node)
            else:
                m = self.merges[node - n]
                stack.append(m.right)
                stack.append(m.left)
        return order

    def heights(self) -> np.ndarray:
        return np.array([m.height for m in self.merges])


def _as_points(profiles) -> np.ndarray:
    x = np.asarray(profiles, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("profiles must be a 2-D array of row vectors")
    if not np.isfinite(x).all():
        raise ValueError("profiles must hold finite values only")
    return x


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _distances(x: np.ndarray) -> np.ndarray:
    """The n x n matrix of 0.5 ||x_i - x_j||^2, with +inf on the diagonal.

    Row i's part above the diagonal is one subtraction x_i - x_{i+1:} and
    one einsum reduction, whichever thread computes it, so every entry has
    the same bits for any CPU count. The rows are split into parts of
    about equal distance counts, one per usable CPU but none with fewer
    than _PART_DISTANCES distances, and each part after the first runs on
    its own thread (numpy releases the GIL inside both calls); every
    thread is joined before this returns.
    """
    n = x.shape[0]
    dist = np.empty((n, n))
    np.fill_diagonal(dist, np.inf)
    filled = np.arange(n - 1, 0, -1).cumsum()  # distances in rows 0..i
    parts = max(1, min(usable_cpus(), filled[-1] // _PART_DISTANCES))
    bounds = np.searchsorted(filled, filled[-1] * np.arange(parts + 1) / parts, "right")
    errors: list[Exception] = []

    def fill(rows: range) -> None:
        try:
            for i in rows:
                diff = x[i] - x[i + 1 :]
                row = 0.5 * np.einsum("jk,jk->j", diff, diff)
                dist[i, i + 1 :] = dist[i + 1 :, i] = row
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    spans = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    # each thread runs in a copy of this context, so np.errstate holds there
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(fill, rows))
        for rows in spans[1:]
    ]
    for thread in threads:
        thread.start()
    try:
        fill(spans[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return dist


def ward_linkage(profiles) -> Dendrogram:
    """Agglomerate with Ward's criterion via Lance-Williams updates.

    Takes an (n, d) array of row vectors. The Dendrogram it
    returns checks on every run that no height is decreasing; a NaN
    height, which only overflowing distances can give, raises ValueError.

    The generic algorithm with a nearest-neighbour bound (Muellner,
    arXiv:1109.2378) on fixed slots: one n x n distance matrix, where a
    merged cluster takes over its left child's slot and a dead slot's row
    and column hold +inf, and each slot's row minimum. Each step takes the
    global minimum h, the smallest cluster id whose row minimum is h and
    that cluster's smallest-id partner at h: the first minimum of the live
    upper triangle in id order, so ties break to the smallest (left,
    right) id pair. Only rows whose minimum sat on a merged slot are
    scanned again.
    """
    x = _as_points(profiles)
    n = x.shape[0]
    if n < 2:
        raise ValueError("clustering needs at least two observations")
    if n > MAX_WARD_LEAVES:
        raise ValueError(
            f"Ward linkage over {n} profiles needs a distance matrix of "
            f"{8 * n * n} bytes, above the limit of {MAX_WARD_LEAVES} profiles"
        )
    dist = _distances(x)
    row_min = dist.min(axis=1)
    dead = 2 * n  # id of a dead slot, above every cluster id
    ids = np.arange(n)  # cluster id held by each slot
    sizes = np.ones(n)  # float64, so the update below converts nothing
    new, term = np.empty(n), np.empty(n)
    merges: list[Merge] = []
    for step in range(n - 1):
        height = row_min[np.argmin(row_min)]  # a NaN ranks first
        if math.isnan(height):
            raise ValueError("Ward merge height is NaN: squared distances overflow")
        tied = np.flatnonzero(row_min == height)
        a = int(tied[np.argmin(ids[tied])])
        # a's slot takes the new id, above every live one, so a is never
        # its own partner below, even when h and a's diagonal are +inf
        left, ids[a] = int(ids[a]), n + step
        da = dist[a]
        near = np.flatnonzero(da == height)
        b = int(near[np.argmin(ids[near])])
        db = dist[b]
        si, sj = sizes[a], sizes[b]
        merges.append(Merge(left, int(ids[b]), float(height), int(si + sj)))
        if step == n - 2:
            break
        # rows whose minimum sat on a or b; a dead slot's minimum and its
        # entries in da and db are all +inf, so dead slots are masked out
        # (b's row is scanned again below, once it is all +inf)
        stale = np.flatnonzero(((da == row_min) | (db == row_min)) & (ids < dead))
        # d(a+b, k) = ((si + sk) d(a, k) + (sj + sk) d(b, k) - sk h) / (si + sj + sk)
        np.multiply(np.add(sizes, si, out=new), da, out=new)
        np.multiply(np.add(sizes, sj, out=term), db, out=term)
        new += term
        new -= np.multiply(sizes, height, out=term)
        new /= np.add(sizes, si + sj, out=term)
        new[a] = np.inf
        dist[a] = dist[:, a] = new
        dist[b] = dist[:, b] = np.inf
        sizes[a], ids[b] = si + sj, dead
        np.minimum(row_min, new, out=row_min)
        row_min[stale] = dist[stale].min(axis=1)
    return Dendrogram(n_leaves=n, merges=tuple(merges))


def cut(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Flat clustering obtained by undoing the last k-1 merges: a read-only
    int64 array of each leaf's cluster, 0..k-1 along the leaf order, 0
    leftmost. The first n-k merges are exactly those inside one cluster.
    """
    n = dendrogram.n_leaves
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    root = list(range(2 * n - k))
    for step in reversed(range(n - k)):  # a parent's root is set before its children's
        m = dendrogram.merges[step]
        root[m.left] = root[m.right] = root[n + step]
    labels = np.empty(n, dtype=np.int64)
    number: dict[int, int] = {}
    for leaf in dendrogram.leaf_order():  # each root's leaves are one contiguous run
        labels[leaf] = number.setdefault(root[leaf], len(number))
    labels.setflags(write=False)
    return labels


def centroids(profiles, labels) -> np.ndarray:
    """Mean profile per cluster 0..max label, rows indexed by cluster."""
    x = _as_points(profiles)
    labels = _as_labels(labels)
    if x.shape[0] != labels.shape[0]:
        raise ValueError("profiles and labels cover different node counts")
    if labels.min(initial=0) < 0:
        raise ValueError("cluster labels must not be negative")
    out = np.zeros((labels.max(initial=-1) + 1, x.shape[1]))
    for c in range(out.shape[0]):
        members = labels == c
        if not members.any():
            raise ValueError(f"cluster {c} is empty")
        out[c] = x[members].mean(axis=0)
    return out


def _as_labels(value) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise ValueError("labels must be 1-D")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
        ints = arr.astype(np.int64)
    if not np.array_equal(ints, arr):
        raise ValueError("labels must be integers")
    return ints


def _max_assignment(weight: list[list[int]]) -> int:
    """Largest total of weight[i][col[i]] over injective row-to-column
    maps, for rows <= columns.

    The Hungarian method with potentials (Kuhn 1955; Munkres 1957), adding
    one row at a time along a shortest augmenting path, on the costs
    -weight. Integer weights keep every potential exact.
    """
    rows, cols = len(weight), len(weight[0])
    u = [0] * (rows + 1)  # row potentials; row r is weight[r - 1]
    v = [0] * (cols + 1)  # column potentials; column 0 is a virtual start
    match = [0] * (cols + 1)  # row matched to each column, 0 for none
    for r in range(1, rows + 1):
        match[0] = r
        col = 0
        slack = [math.inf] * (cols + 1)
        via = [0] * (cols + 1)
        done = [False] * (cols + 1)
        while match[col]:
            done[col] = True
            i = match[col]
            step, nxt = math.inf, 0
            for j in range(1, cols + 1):
                if not done[j]:
                    reduced = -weight[i - 1][j - 1] - u[i] - v[j]
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, col
                    if slack[j] < step:
                        step, nxt = slack[j], j
            for j in range(cols + 1):
                if done[j]:
                    u[match[j]] += step
                    v[j] -= step
                else:
                    slack[j] -= step
            col = nxt
        while col:  # flip the augmenting path back to the start
            prev = via[col]
            match[col] = match[prev]
            col = prev
    return sum(weight[match[j] - 1][j - 1] for j in range(1, cols + 1) if match[j])


def permutation_accuracy(pred, truth) -> float:
    """Best label-matching accuracy over cluster-to-class assignments.

    Equivalent to the maximum over injective maps from the smaller label
    set into the larger one, solved as an assignment problem on the
    confusion matrix with the Hungarian method.
    """
    p = _as_labels(pred)
    t = _as_labels(truth)
    if p.shape[0] != t.shape[0]:
        raise ValueError("pred and truth must cover the same nodes")
    if p.shape[0] == 0:
        raise ValueError("empty label arrays")
    t_ids, t_idx = np.unique(t, return_inverse=True)
    p_ids, p_idx = np.unique(p, return_inverse=True)
    confusion = np.zeros((t_ids.shape[0], p_ids.shape[0]), dtype=np.int64)
    np.add.at(confusion, (t_idx, p_idx), 1)
    if confusion.shape[0] > confusion.shape[1]:
        confusion = confusion.T
    return _max_assignment(confusion.tolist()) / p.shape[0]


def serialize_dendrogram(
    dendrogram: Dendrogram, node_names: Sequence[str]
) -> str:
    """Line-oriented text form: two "#" lines, `n_leaves N`, `leaf i <name>`
    for i = 0..N-1 and `merge left right height size` for each merge. Each
    record ends in a line feed, so a name holding a line feed or a carriage
    return (which universal-newline reading turns into one) is rejected."""
    if len(node_names) != dendrogram.n_leaves:
        raise ValueError("name count does not match leaf count")
    for name in node_names:
        if "\n" in name or "\r" in name:
            raise ValueError(f"node name {name!r} contains a line break")
    lines = [
        "# dendrogram v1",
        "# linkage: ward (height = within-cluster sum-of-squares increase)",
        f"n_leaves {dendrogram.n_leaves}",
    ]
    for i, name in enumerate(node_names):
        lines.append(f"leaf {i} {name}")
    for m in dendrogram.merges:
        lines.append(f"merge {m.left} {m.right} {m.height!r} {m.size}")
    return "\n".join(lines) + "\n"


def parse_dendrogram(text: str) -> tuple[Dendrogram, tuple[str, ...]]:
    """Inverse of serialize_dendrogram, record for record; a name is all of
    its line after `leaf i `. A record out of the writer's order, repeated or
    malformed is a bad line; empty and "#" lines are skipped."""
    n_leaves = None
    names: list[str] = []
    merges: list[Merge] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")  # no written name holds one
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        try:
            if kind == "merge" and n_leaves == len(names):
                left, right, height, size = rest.split(" ")
                merges.append(Merge(int(left), int(right), float(height), int(size)))
            elif (kind == "leaf" and n_leaves is not None and len(names) < n_leaves
                  and rest.startswith(f"{len(names)} ")):
                names.append(rest.partition(" ")[2])
            elif kind == "n_leaves" and n_leaves is None:
                n_leaves = int(rest)
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"dendrogram file: bad line {lineno}: {line!r}") from None
    if n_leaves is None or len(names) < n_leaves:
        raise ValueError("dendrogram file: missing n_leaves or leaf records")
    return Dendrogram(n_leaves=n_leaves, merges=tuple(merges)), tuple(names)


def labels_csv_text(node_names: Sequence[str], labels, column: str) -> str:
    """A table of each node's label under the header `node,{column}`."""
    arr = _as_labels(labels)
    if len(node_names) != arr.shape[0]:
        raise ValueError("name count does not match label count")
    return node_table_text(("node", column), node_names, arr[:, None])
