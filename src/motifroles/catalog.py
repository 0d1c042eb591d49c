"""Catalog of the 36 canonical 3-edge temporal motifs on 2 or 3 nodes.

A motif is identified by its cell M(row, col) in the standard 6x6 grid.
Every motif is an ordered sequence of three directed edges over symbolic
node labels 'a', 'b', 'c'. The first edge is always (a, b) and further
labels are assigned in order of first appearance. The grid is regular:
the row fixes the second edge and the column fixes the third,

    row:  1 -> (c,b)   2 -> (b,c)   3 -> (c,a)
          4 -> (a,c)   5 -> (b,a)   6 -> (a,b)
    col:  1 -> (a,b)   2 -> (b,a)   3 -> (a,c)
          4 -> (c,a)   5 -> (b,c)   6 -> (c,b)

Rows 5-6 with columns 1-2 never introduce 'c'; those four cells are the
two-node motifs. The eight cells whose edges span all three node pairs
(rows 1-2 x cols 3-4 and rows 3-4 x cols 5-6) are the triangles.

The table below is stored literally so the convention is reviewable data
rather than derived logic. The test suite re-derives it from the row and
column rule and checks hand-verified anchor cells against it.

Node positions within an instance: position 1 is the source of the first
edge (label a), position 2 its target (label b), and position 3 the
remaining node (label c) when the motif spans three nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import table_text

Edge = tuple[str, str]
Signature = tuple[Edge, Edge, Edge]

_TWO_NODE_CELLS = frozenset({(5, 1), (5, 2), (6, 1), (6, 2)})


@dataclass(frozen=True, order=True)
class MotifId:
    """Grid cell M(row, col); rows and columns run 1..6."""

    row: int
    col: int

    def __post_init__(self):
        if not (1 <= self.row <= 6 and 1 <= self.col <= 6):
            raise ValueError(f"motif cell out of range: ({self.row}, {self.col})")

    @property
    def index(self) -> int:
        """Row-major index 0..35."""
        return (self.row - 1) * 6 + (self.col - 1)

    @property
    def n_nodes(self) -> int:
        return 2 if (self.row, self.col) in _TWO_NODE_CELLS else 3

    @property
    def short(self) -> str:
        return f"M{self.row}{self.col}"

    def __str__(self) -> str:
        return f"M{self.row},{self.col}"


# Literal signature table, one row per grid cell. Reviewed against the
# regular row/column rule; do not edit without updating the anchors in
# tests/test_catalog.py.
_SIGNATURES: dict[tuple[int, int], Signature] = {
    (1, 1): (("a", "b"), ("c", "b"), ("a", "b")),
    (1, 2): (("a", "b"), ("c", "b"), ("b", "a")),
    (1, 3): (("a", "b"), ("c", "b"), ("a", "c")),
    (1, 4): (("a", "b"), ("c", "b"), ("c", "a")),
    (1, 5): (("a", "b"), ("c", "b"), ("b", "c")),
    (1, 6): (("a", "b"), ("c", "b"), ("c", "b")),
    (2, 1): (("a", "b"), ("b", "c"), ("a", "b")),
    (2, 2): (("a", "b"), ("b", "c"), ("b", "a")),
    (2, 3): (("a", "b"), ("b", "c"), ("a", "c")),
    (2, 4): (("a", "b"), ("b", "c"), ("c", "a")),
    (2, 5): (("a", "b"), ("b", "c"), ("b", "c")),
    (2, 6): (("a", "b"), ("b", "c"), ("c", "b")),
    (3, 1): (("a", "b"), ("c", "a"), ("a", "b")),
    (3, 2): (("a", "b"), ("c", "a"), ("b", "a")),
    (3, 3): (("a", "b"), ("c", "a"), ("a", "c")),
    (3, 4): (("a", "b"), ("c", "a"), ("c", "a")),
    (3, 5): (("a", "b"), ("c", "a"), ("b", "c")),
    (3, 6): (("a", "b"), ("c", "a"), ("c", "b")),
    (4, 1): (("a", "b"), ("a", "c"), ("a", "b")),
    (4, 2): (("a", "b"), ("a", "c"), ("b", "a")),
    (4, 3): (("a", "b"), ("a", "c"), ("a", "c")),
    (4, 4): (("a", "b"), ("a", "c"), ("c", "a")),
    (4, 5): (("a", "b"), ("a", "c"), ("b", "c")),
    (4, 6): (("a", "b"), ("a", "c"), ("c", "b")),
    (5, 1): (("a", "b"), ("b", "a"), ("a", "b")),
    (5, 2): (("a", "b"), ("b", "a"), ("b", "a")),
    (5, 3): (("a", "b"), ("b", "a"), ("a", "c")),
    (5, 4): (("a", "b"), ("b", "a"), ("c", "a")),
    (5, 5): (("a", "b"), ("b", "a"), ("b", "c")),
    (5, 6): (("a", "b"), ("b", "a"), ("c", "b")),
    (6, 1): (("a", "b"), ("a", "b"), ("a", "b")),
    (6, 2): (("a", "b"), ("a", "b"), ("b", "a")),
    (6, 3): (("a", "b"), ("a", "b"), ("a", "c")),
    (6, 4): (("a", "b"), ("a", "b"), ("c", "a")),
    (6, 5): (("a", "b"), ("a", "b"), ("b", "c")),
    (6, 6): (("a", "b"), ("a", "b"), ("c", "b")),
}

N_MOTIFS = 36

MOTIFS: tuple[MotifId, ...] = tuple(
    MotifId(r, c) for r in range(1, 7) for c in range(1, 7)
)

TWO_NODE_MOTIFS: frozenset[MotifId] = frozenset(
    MotifId(r, c) for (r, c) in _TWO_NODE_CELLS
)

SIGNATURE_OF: dict[MotifId, Signature] = {m: _SIGNATURES[(m.row, m.col)] for m in MOTIFS}
MOTIF_OF_SIGNATURE: dict[Signature, MotifId] = {s: m for m, s in SIGNATURE_OF.items()}

if len(MOTIF_OF_SIGNATURE) != N_MOTIFS:  # duplicate row would corrupt the bijection
    raise AssertionError("motif signature table is not a bijection")


# Cell layout for count/profile matrices. Storage is (36, 3) per node with
# position 3 of the four two-node motifs permanently zero; the 104 live
# cells in motif-major order define the profile vector layout.

POSITIONS_PER_MOTIF = np.array([m.n_nodes for m in MOTIFS], dtype=np.int64)
POSITIONS_PER_MOTIF.setflags(write=False)

LIVE_MASK = np.zeros((N_MOTIFS, 3), dtype=bool)
for _m in MOTIFS:
    LIVE_MASK[_m.index, : _m.n_nodes] = True
LIVE_MASK.setflags(write=False)

N_POSITIONED_CELLS = int(LIVE_MASK.sum())  # 104
N_CSV_CELLS = N_MOTIFS * 3  # 108, dead cells written as zero

LIVE_FLAT = np.flatnonzero(LIVE_MASK.reshape(-1))
LIVE_FLAT.setflags(write=False)

CELL_MOTIF_INDEX = np.repeat(np.arange(N_MOTIFS), POSITIONS_PER_MOTIF)
CELL_MOTIF_INDEX.setflags(write=False)
CELL_POSITION = np.concatenate([np.arange(p) for p in POSITIONS_PER_MOTIF]) + 1
CELL_POSITION.setflags(write=False)

CSV_COLUMNS: tuple[str, ...] = tuple(
    f"{m.short}_p{p}" for m in MOTIFS for p in (1, 2, 3)
)

POSITIONED_CELL_NAMES: tuple[str, ...] = tuple(
    f"{MOTIFS[mi].short}_p{p}" for mi, p in zip(CELL_MOTIF_INDEX, CELL_POSITION)
)

MOTIF_COLUMNS: tuple[str, ...] = tuple(m.short for m in MOTIFS)


def spread_positioned(cells: np.ndarray) -> np.ndarray:
    """Positioned cells, shape (..., 104), laid out on the 108 cells of the
    motif x position grid (index motif * 3 + position - 1), dead cells zero."""
    wide = np.zeros(cells.shape[:-1] + (N_CSV_CELLS,))
    wide[..., LIVE_FLAT] = cells
    return wide


# Integer-coded lookup used by the windowed counting kernel: letters code
# as a=0, b=1, c=2 and a signature keys as base-3 digits of its second and
# third edges (the first edge is fixed). Invalid keys map to -1.

_LETTER_CODE = {"a": 0, "b": 1, "c": 2}


def _signature_key(sig: Signature) -> int:
    (_, _), (s2, t2), (s3, t3) = sig
    return (
        (_LETTER_CODE[s2] * 3 + _LETTER_CODE[t2]) * 9
        + _LETTER_CODE[s3] * 3
        + _LETTER_CODE[t3]
    )


KEY_TO_MOTIF_INDEX = np.full(81, -1, dtype=np.int16)
for _m, _sig in SIGNATURE_OF.items():
    KEY_TO_MOTIF_INDEX[_signature_key(_sig)] = _m.index
KEY_TO_MOTIF_INDEX.setflags(write=False)


def catalog_table() -> list[tuple[str, int, int, int, str, str, str]]:
    """Rows (motif, row, col, nodes, edge1, edge2, edge3) for the dump."""
    rows = []
    for m in MOTIFS:
        e1, e2, e3 = SIGNATURE_OF[m]
        rows.append(
            (
                m.short,
                m.row,
                m.col,
                m.n_nodes,
                f"{e1[0]}->{e1[1]}",
                f"{e2[0]}->{e2[1]}",
                f"{e3[0]}->{e3[1]}",
            )
        )
    return rows


def catalog_table_csv() -> str:
    return table_text(
        ("motif", "row", "col", "nodes", "edge1", "edge2", "edge3"), catalog_table()
    )
