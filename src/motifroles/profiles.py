"""Per-node motif participation profiles.

A node's positioned profile is its 104-vector of motif-position counts
normalized to sum to one; the positionless variant first sums positions
within each motif, giving 36 entries. A profile's kind is its width.
Nodes whose total participation falls below the filter threshold (or is
zero) are dropped and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .counting import PositionCountMatrix
from .table import node_table_text, read_table


@dataclass(frozen=True)
class ProfileMatrix:
    node_names: tuple[str, ...]
    vectors: np.ndarray  # (n, 104) positioned or (n, 36) positionless
    dropped: tuple[tuple[str, int], ...] = ()  # (name, total) for filtered nodes

    def __post_init__(self):
        shape = self.vectors.shape
        if (len(shape) != 2 or shape[0] != len(self.node_names)
                or shape[1] not in (catalog.N_POSITIONED_CELLS, catalog.N_MOTIFS)):
            raise ValueError(f"bad vectors shape {shape}")
        if np.any(self.vectors < 0.0):
            raise ValueError("profile entries must be non-negative")
        if self.n_profiled and not np.allclose(
            self.vectors.sum(axis=1), 1.0, rtol=0.0, atol=1e-9
        ):
            raise ValueError("every profile must sum to 1")
        self.vectors.setflags(write=False)

    @property
    def kind(self) -> str:
        """Set by the width: positioned for 104 columns, positionless for 36."""
        if self.vectors.shape[1] == catalog.N_POSITIONED_CELLS:
            return "positioned"
        return "positionless"

    @property
    def n_profiled(self) -> int:
        return len(self.node_names)

    def value_of(self, name: str, column: str) -> float:
        cols = (
            catalog.POSITIONED_CELL_NAMES
            if self.kind == "positioned"
            else catalog.MOTIF_COLUMNS
        )
        if column not in cols:
            raise KeyError(f"no {self.kind} column {column!r}")
        return float(self.vectors[self.node_names.index(name), cols.index(column)])

    def csv_text(self) -> str:
        """The profile table, `profiles.csv`."""
        if self.kind == "positioned":
            header = ("node",) + catalog.CSV_COLUMNS
            wide = catalog.spread_positioned(self.vectors)
        else:
            header = ("node",) + catalog.MOTIF_COLUMNS
            wide = self.vectors
        return node_table_text(header, self.node_names, wide)

    def dropped_csv_text(self) -> str:
        """The dropped nodes and their participation, `dropped.csv`."""
        names = [name for name, _ in self.dropped]
        totals = np.array([total for _, total in self.dropped], dtype=np.int64)
        return node_table_text(("node", "total_participation"), names, totals[:, None])


def _build(counts: PositionCountMatrix, min_motifs: int, raw: np.ndarray) -> ProfileMatrix:
    """Normalize each node's row of `raw` cells by its participation."""
    if min_motifs < 0:
        raise ValueError(f"min_motifs must be non-negative, got {min_motifs}")
    totals = counts.node_totals()
    keep = totals >= max(int(min_motifs), 1)  # zero-participation always drops
    kept = np.flatnonzero(keep)
    vectors = raw[kept].astype(np.float64) / totals[kept, None]
    dropped = tuple(
        (counts.node_names[i], int(totals[i])) for i in np.flatnonzero(~keep)
    )
    return ProfileMatrix(tuple(counts.node_names[i] for i in kept), vectors, dropped)


def build_positioned(counts: PositionCountMatrix, min_motifs: int = 0) -> ProfileMatrix:
    raw = counts.counts.reshape(counts.n_nodes, catalog.N_CSV_CELLS)
    return _build(counts, min_motifs, raw[:, catalog.LIVE_FLAT])


def build_positionless(counts: PositionCountMatrix, min_motifs: int = 0) -> ProfileMatrix:
    return _build(counts, min_motifs, counts.counts.sum(axis=2))


def read_profile_csv(source) -> ProfileMatrix:
    """Load a profile CSV; the header sets the width, and so the kind."""
    positioned = ("node",) + catalog.CSV_COLUMNS
    header, names, rows = read_table(
        source, "profile CSV", [positioned, ("node",) + catalog.MOTIF_COLUMNS], float
    )
    vectors = np.array(rows, dtype=np.float64).reshape(len(names), len(header) - 1)
    if header == positioned:
        if vectors[:, ~catalog.LIVE_MASK.reshape(-1)].any():
            raise ValueError("profile CSV: nonzero value in a structurally dead column")
        vectors = vectors[:, catalog.LIVE_FLAT]
    return ProfileMatrix(names, vectors)
