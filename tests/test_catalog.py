"""The 36-motif catalog is frozen data; these tests rederive it from the
grid rule and pin the anchor entries."""

import numpy as np
import pytest

from motifroles import catalog
from motifroles.catalog import (
    CELL_MOTIF_INDEX,
    CELL_POSITION,
    CSV_COLUMNS,
    KEY_TO_MOTIF_INDEX,
    LIVE_FLAT,
    LIVE_MASK,
    MOTIF_COLUMNS,
    MOTIF_OF_SIGNATURE,
    MOTIFS,
    MotifId,
    N_CSV_CELLS,
    N_MOTIFS,
    N_POSITIONED_CELLS,
    POSITIONED_CELL_NAMES,
    POSITIONS_PER_MOTIF,
    SIGNATURE_OF,
    TWO_NODE_MOTIFS,
    catalog_table,
    catalog_table_csv,
)

# Independent reconstruction of the grid: the first edge is always (a,b);
# the row fixes the second edge, the column the third.
ROW_EDGE = {1: ("c", "b"), 2: ("b", "c"), 3: ("c", "a"),
            4: ("a", "c"), 5: ("b", "a"), 6: ("a", "b")}
COL_EDGE = {1: ("a", "b"), 2: ("b", "a"), 3: ("a", "c"),
            4: ("c", "a"), 5: ("b", "c"), 6: ("c", "b")}


def derived_signature(row: int, col: int):
    return (("a", "b"), ROW_EDGE[row], COL_EDGE[col])


def test_every_signature_matches_the_grid_rule():
    for m in MOTIFS:
        assert SIGNATURE_OF[m] == derived_signature(m.row, m.col)


def test_anchor_entries():
    assert SIGNATURE_OF[MotifId(5, 1)] == (("a", "b"), ("b", "a"), ("a", "b"))
    assert SIGNATURE_OF[MotifId(3, 3)] == (("a", "b"), ("c", "a"), ("a", "c"))
    assert SIGNATURE_OF[MotifId(4, 1)] == (("a", "b"), ("a", "c"), ("a", "b"))
    assert SIGNATURE_OF[MotifId(4, 2)] == (("a", "b"), ("a", "c"), ("b", "a"))
    assert SIGNATURE_OF[MotifId(6, 1)] == (("a", "b"), ("a", "b"), ("a", "b"))
    assert SIGNATURE_OF[MotifId(6, 2)] == (("a", "b"), ("a", "b"), ("b", "a"))


def test_two_node_motifs_are_exactly_the_ab_only_signatures():
    ab_only = {
        m for m in MOTIFS
        if not any("c" in e for e in SIGNATURE_OF[m])
    }
    assert ab_only == set(TWO_NODE_MOTIFS)
    assert {(m.row, m.col) for m in TWO_NODE_MOTIFS} == {(5, 1), (5, 2), (6, 1), (6, 2)}
    assert len(MOTIFS) == 36
    assert sum(1 for m in MOTIFS if m.n_nodes == 3) == 32


def test_signature_to_motif_is_a_bijection():
    sigs = {SIGNATURE_OF[m] for m in MOTIFS}
    assert len(sigs) == 36
    for m in MOTIFS:
        assert MOTIF_OF_SIGNATURE[SIGNATURE_OF[m]] == m


def test_motif_of_signature_rejects_non_canonical():
    assert (("b", "a"), ("a", "b"), ("a", "b")) not in MOTIF_OF_SIGNATURE
    # second node introduced must be b, not c
    assert (("a", "c"), ("a", "b"), ("a", "b")) not in MOTIF_OF_SIGNATURE


def test_motif_id_ordering_and_index():
    assert MotifId(1, 1).index == 0
    assert MotifId(1, 2).index == 1
    assert MotifId(6, 6).index == 35
    assert [m.index for m in MOTIFS] == list(range(36))
    assert MotifId(2, 3) < MotifId(3, 1)
    with pytest.raises(ValueError):
        MotifId(0, 1)
    with pytest.raises(ValueError):
        MotifId(1, 7)


def test_motif_id_formatting():
    m = MotifId(3, 4)
    assert m.short == "M34"
    assert str(m) == "M3,4"
    assert m.n_nodes == 3
    t = MotifId(6, 1)
    assert t.n_nodes == 2


def test_cell_layout_constants():
    assert N_MOTIFS == 36
    assert POSITIONS_PER_MOTIF.shape == (36,)
    assert all(
        POSITIONS_PER_MOTIF[m.index] == (2 if m.n_nodes == 2 else 3) for m in MOTIFS
    )
    assert POSITIONS_PER_MOTIF.sum() == 104
    assert N_CSV_CELLS == 108
    assert N_POSITIONED_CELLS == 104
    assert LIVE_MASK.shape == (36, 3)
    # two-node motifs have a dead third position
    for m in MOTIFS:
        expect = [True, True, m.n_nodes == 3]
        assert list(LIVE_MASK[m.index]) == expect
    assert LIVE_MASK.sum() == 104
    assert len(LIVE_FLAT) == 104
    assert len(POSITIONED_CELL_NAMES) == 104
    assert len(CSV_COLUMNS) == 108
    assert len(MOTIF_COLUMNS) == 36


def test_cell_layout_consistency():
    # LIVE_FLAT indexes the flattened 36x3 layout in row-major order
    flat_names = np.array(
        [f"{m.short}_p{p + 1}" for m in MOTIFS for p in range(3)]
    )
    assert list(flat_names) == list(CSV_COLUMNS[1:]) or list(flat_names) == list(CSV_COLUMNS)
    assert [flat_names[i] for i in LIVE_FLAT] == list(POSITIONED_CELL_NAMES)
    for k, flat in enumerate(LIVE_FLAT):
        assert CELL_MOTIF_INDEX[k] == flat // 3
        assert CELL_POSITION[k] == flat % 3 + 1
    assert CSV_COLUMNS[0] == "M11_p1"
    assert CSV_COLUMNS[-1] == "M66_p3"


def test_key_lookup_agrees_with_catalog():
    code = {"a": 0, "b": 1, "c": 2}
    seen = set()
    for m in MOTIFS:
        (_, _), (s2, t2), (s3, t3) = SIGNATURE_OF[m]
        key = (code[s2] * 3 + code[t2]) * 9 + code[s3] * 3 + code[t3]
        assert KEY_TO_MOTIF_INDEX[key] == m.index
        seen.add(key)
    # every other key is a sentinel
    for key in set(range(81)) - seen:
        assert KEY_TO_MOTIF_INDEX[key] == -1


def test_catalog_table_dump():
    table = catalog_table()
    assert len(table) == 36
    by_short = {row[0]: row for row in table}
    assert by_short["M33"] == ("M33", 3, 3, 3, "a->b", "c->a", "a->c")
    assert by_short["M51"] == ("M51", 5, 1, 2, "a->b", "b->a", "a->b")
    text = catalog_table_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "motif,row,col,nodes,edge1,edge2,edge3"
    assert len(lines) == 37


def test_motif_catalog_mapping():
    table = tuple(SIGNATURE_OF.items())
    assert len(table) == 36
    as_dict = {sig: m for m, sig in table}
    assert as_dict[(("a", "b"), ("b", "a"), ("a", "b"))] == MotifId(5, 1)
    assert [m for m, _ in table] == list(MOTIFS)
