"""Ward agglomerative clustering with explicit, deterministic conventions.

Merge height is the increase in total within-cluster sum of squares,
Delta(I, J) = |I||J| / (|I| + |J|) * ||centroid_I - centroid_J||^2,
updated between steps with the Lance-Williams recurrence. Cluster ids
number leaves 0..n-1 and internal merges n..2n-2 in creation order; ties
in the minimum Delta break toward the smallest (left, right) id pair.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

_HEIGHT_SLACK = 1e-9  # relative tolerance for the monotonicity check


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
        sizes = {i: 1 for i in range(self.n_leaves)}
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
            sizes[new_id] = m.size
            if m.height < prev - _HEIGHT_SLACK * max(1.0, abs(prev)):
                raise ValueError("merge heights must be non-decreasing")
            prev = max(prev, m.height)

    def children(self) -> dict[int, tuple[int, int]]:
        return {
            self.n_leaves + i: (m.left, m.right) for i, m in enumerate(self.merges)
        }

    def leaf_order(self) -> list[int]:
        """Leaves left to right as drawn: left subtree before right."""
        kids = self.children()
        order: list[int] = []
        stack = [2 * self.n_leaves - 2]
        while stack:
            node = stack.pop()
            if node < self.n_leaves:
                order.append(node)
            else:
                left, right = kids[node]
                stack.append(right)
                stack.append(left)
        return order

    def members(self, cluster_id: int) -> list[int]:
        kids = self.children()
        out: list[int] = []
        stack = [cluster_id]
        while stack:
            node = stack.pop()
            if node < self.n_leaves:
                out.append(node)
            else:
                stack.extend(kids[node])
        return sorted(out)

    def heights(self) -> np.ndarray:
        return np.array([m.height for m in self.merges])


@dataclass(frozen=True)
class FlatClustering:
    labels: np.ndarray  # cluster index per leaf, 0..k-1 in leaf order
    k: int

    def __post_init__(self):
        self.labels.setflags(write=False)
        if self.labels.size and int(self.labels.max()) >= self.k:
            raise ValueError("label outside 0..k-1")

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _as_points(profiles) -> np.ndarray:
    vectors = getattr(profiles, "vectors", profiles)
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("profiles must be a 2-D array of row vectors")
    return x


def ward_linkage(profiles) -> Dendrogram:
    """Agglomerate with Ward's criterion via Lance-Williams updates.

    Accepts a ProfileMatrix or a plain (n, d) array. Heights are checked
    non-decreasing on every run.
    """
    x = _as_points(profiles)
    n = x.shape[0]
    if n < 2:
        raise ValueError("clustering needs at least two observations")
    total = 2 * n - 1
    dist = np.full((total, total), np.inf)
    diff = x[:, None, :] - x[None, :, :]
    d0 = 0.5 * np.einsum("ijk,ijk->ij", diff, diff)
    dist[:n, :n] = d0
    sizes = np.zeros(total, dtype=np.int64)
    sizes[:n] = 1
    active = list(range(n))
    merges: list[Merge] = []
    last_height = 0.0
    for step in range(n - 1):
        act = np.array(active)
        sub = dist[np.ix_(act, act)]
        iu, ju = np.triu_indices(len(act), k=1)
        vals = sub[iu, ju]
        best = int(np.argmin(vals))  # first minimum = smallest (left, right)
        left, right = int(act[iu[best]]), int(act[ju[best]])
        height = float(vals[best])
        if not height >= last_height - _HEIGHT_SLACK * max(1.0, abs(last_height)):
            raise RuntimeError("ward merge heights must be non-decreasing")
        last_height = max(last_height, height)
        new = n + step
        si, sj = sizes[left], sizes[right]
        sizes[new] = si + sj
        for other in active:
            if other in (left, right):
                continue
            sk = sizes[other]
            dik = dist[min(left, other), max(left, other)]
            djk = dist[min(right, other), max(right, other)]
            d_new = (
                (si + sk) * dik + (sj + sk) * djk - sk * height
            ) / (si + sj + sk)
            dist[other, new] = dist[new, other] = d_new
        active = [a for a in active if a not in (left, right)]
        active.append(new)
        merges.append(Merge(left, right, height, int(sizes[new])))
    return Dendrogram(n_leaves=n, merges=tuple(merges))


def cut(dendrogram: Dendrogram, k: int) -> FlatClustering:
    """Flat clustering obtained by undoing the last k-1 merges.

    Cluster indices follow dendrogram leaf order, 0 leftmost.
    """
    n = dendrogram.n_leaves
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    applied = dendrogram.merges[: n - k]
    consumed = {m.left for m in applied} | {m.right for m in applied}
    roots = [i for i in range(n + len(applied)) if i not in consumed]
    leaf_pos = {leaf: i for i, leaf in enumerate(dendrogram.leaf_order())}
    roots.sort(key=lambda r: min(leaf_pos[leaf] for leaf in dendrogram.members(r)))
    labels = np.empty(n, dtype=np.int64)
    for idx, root in enumerate(roots):
        for leaf in dendrogram.members(root):
            labels[leaf] = idx
    return FlatClustering(labels=labels, k=k)


def centroids(profiles, clustering: FlatClustering) -> np.ndarray:
    """Mean profile per cluster, rows indexed by cluster."""
    x = _as_points(profiles)
    if x.shape[0] != clustering.labels.shape[0]:
        raise ValueError("profiles and clustering cover different node counts")
    out = np.zeros((clustering.k, x.shape[1]))
    for c in range(clustering.k):
        members = clustering.labels == c
        if not members.any():
            raise ValueError(f"cluster {c} is empty")
        out[c] = x[members].mean(axis=0)
    return out


def _as_labels(value) -> np.ndarray:
    labels = getattr(value, "labels", value)
    arr = np.asarray(labels, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("labels must be 1-D")
    return arr


def permutation_accuracy(pred, truth) -> float:
    """Best label-matching accuracy over cluster-to-class assignments.

    Equivalent to the maximum over label permutations when both sides use
    the same number of labels; solved by optimal assignment on the
    confusion matrix so larger label sets stay cheap.
    """
    p = _as_labels(pred)
    t = _as_labels(truth)
    if p.shape[0] != t.shape[0]:
        raise ValueError("pred and truth must cover the same nodes")
    if p.shape[0] == 0:
        raise ValueError("empty label arrays")
    p_ids = np.unique(p)
    t_ids = np.unique(t)
    confusion = np.zeros((t_ids.shape[0], p_ids.shape[0]), dtype=np.int64)
    for ti, tv in enumerate(t_ids):
        for pi, pv in enumerate(p_ids):
            confusion[ti, pi] = int(np.sum((t == tv) & (p == pv)))
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum()) / p.shape[0]


def serialize_dendrogram(
    dendrogram: Dendrogram, node_names: Sequence[str]
) -> str:
    """Line-oriented text form: leaf name table then merge records.

    Records are newline-terminated, so a name holding a line feed or a
    carriage return (which universal-newline reading turns into a line
    feed) is rejected.
    """
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


def write_dendrogram(dendrogram: Dendrogram, node_names: Sequence[str], path) -> None:
    Path(path).write_text(serialize_dendrogram(dendrogram, node_names), encoding="utf-8")


def parse_dendrogram(text: str) -> tuple[Dendrogram, tuple[str, ...]]:
    n_leaves = None
    names: dict[int, str] = {}
    merges: list[Merge] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        try:
            if parts[0] == "n_leaves" and len(parts) == 2:
                n_leaves = int(parts[1])
            elif parts[0] == "leaf" and len(parts) >= 3:
                names[int(parts[1])] = " ".join(parts[2:])
            elif parts[0] == "merge" and len(parts) == 5:
                merges.append(
                    Merge(int(parts[1]), int(parts[2]), float(parts[3]), int(parts[4]))
                )
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"dendrogram file: bad line {lineno}: {raw!r}") from None
    if n_leaves is None:
        raise ValueError("dendrogram file: missing n_leaves record")
    if sorted(names) != list(range(n_leaves)):
        raise ValueError("dendrogram file: leaf records do not cover 0..n-1")
    dendro = Dendrogram(n_leaves=n_leaves, merges=tuple(merges))
    return dendro, tuple(names[i] for i in range(n_leaves))


def write_labels_csv(node_names: Sequence[str], labels, path, column: str) -> None:
    arr = _as_labels(labels)
    if len(node_names) != arr.shape[0]:
        raise ValueError("name count does not match label count")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node", column])
    for name, lab in zip(node_names, arr):
        writer.writerow([name, int(lab)])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def read_labels_csv(source, column: str) -> tuple[tuple[str, ...], np.ndarray]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_labels_csv(fh, column)
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None or tuple(header) != ("node", column):
        raise ValueError(f"labels CSV: expected header node,{column}")
    names: list[str] = []
    labels: list[int] = []
    for row in reader:
        if len(row) != 2:
            raise ValueError(f"labels CSV: row {reader.line_num}: wrong width")
        names.append(row[0])
        try:
            labels.append(int(row[1]))
        except ValueError:
            raise ValueError(
                f"labels CSV: row {reader.line_num}: non-integer label"
            ) from None
    return tuple(names), np.array(labels, dtype=np.int64)
