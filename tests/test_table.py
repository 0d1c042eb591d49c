import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motifroles.cluster import labels_csv_text
from motifroles.counting import read_count_csv
from motifroles.profiles import ProfileMatrix
from motifroles.table import node_table_text, read_table, table_text

ODD_NAMES = ["plain", "X,Y", 'Q"R', "line\nfeed", "carriage\rreturn", " pad "]


def test_odd_names_round_trip_through_a_file(tmp_path):
    path = tmp_path / "t.csv"
    rows = ((name, i) for i, name in enumerate(ODD_NAMES))
    path.write_text(table_text(("node", "v"), rows), encoding="utf-8")
    header, names, rows = read_table(path, "t", [("node", "v")], int)
    assert header == ("node", "v")
    assert names == tuple(ODD_NAMES)
    assert rows == [[i] for i in range(len(ODD_NAMES))]


def test_table_text_pins_the_format():
    text = table_text(("node", "x"), [("X,Y", 0.1), ('Q"R', 2)])
    assert text == 'node,x\n"X,Y",0.1\n"Q""R",2\n'


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "t: row 0: missing or unexpected header"),
        ("node,w\nA,1\n", "t: row 1: missing or unexpected header"),
        ("node,v\nA,1\nB\n", "t: row 3: wrong width"),
        ("node,v\nA,1\nB,2\nA,3\n", "t: row 4: node 'A' repeats"),
        ("node,v\nA,1\nB,x\n", "t: row 3: invalid literal for int() with base 10: 'x'"),
        ("node,v\nA,x\nB,1\nC\n", "t: row 2: invalid literal for int() with base 10: 'x'"),
        ("node,v\nA,1\nB,x\nC,x\n", "t: row 3: invalid literal for int() with base 10: 'x'"),
        ('node,v\nA,1\n"' + "B" * 200_000 + '",2\n', "t: row 3: field larger than field limit"),
    ],
    ids=["empty", "header", "width", "repeat", "cell", "cell-before-width",
         "repeated-cell", "field-limit"],
)
def test_read_table_errors_name_the_table_and_row(text, message):
    with pytest.raises(ValueError) as err:
        read_table(io.StringIO(text), "t", [("node", "v")], int)
    assert str(err.value).startswith(message)


def test_node_keyed_readers_reject_a_repeated_node(tmp_path, toy_counts):
    path = tmp_path / "labels.csv"
    path.write_text(labels_csv_text(("A", "B", "A"), np.array([0, 1, 0]), "cluster"),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="labels CSV: row 4: node 'A' repeats"):
        read_table(path, "labels CSV", [("node", "cluster")], int)
    lines = toy_counts.csv_text().splitlines(keepends=True)
    text = "".join(lines + lines[2:3])
    with pytest.raises(ValueError, match="counts CSV: row 5: node 'B' repeats"):
        read_count_csv(io.StringIO(text))


EDGE_NAMES = [*ODD_NAMES, "", "\n", "\r"]
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e300, 0.1, 1 / 3, float("inf")]
EDGE_INTS = [0, 1, -1, 2**63 - 1, -(2**63)]


@st.composite
def node_tables(draw):
    names = draw(st.lists(
        st.sampled_from(EDGE_NAMES) | st.text(st.sampled_from('ab,"\n\r '), max_size=4),
        unique=True, max_size=6,
    ))
    width = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pool, dtype = st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1), np.int64
    else:
        pool, dtype = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False), np.float64
    cells = draw(st.lists(pool, min_size=len(names) * width, max_size=len(names) * width))
    return names, np.array(cells, dtype=dtype).reshape(len(names), width)


@settings(max_examples=300, deadline=None)
@given(node_tables())
@example((EDGE_NAMES, np.array([EDGE_FLOATS[i % 7] for i in range(18)]).reshape(9, 2)))
@example((EDGE_NAMES[:5], np.array(EDGE_INTS * 2, dtype=np.int64).reshape(5, 2)))
@example(([], np.zeros((0, 3))))
def test_node_table_text_equals_the_generic_writer(table):
    names, values = table
    header = ("node",) + tuple(f"v{j}" for j in range(values.shape[1]))
    text = node_table_text(header, names, values)
    rows = ([name, *row] for name, row in zip(names, values.tolist()))
    assert text == table_text(header, rows)
    cell = float if values.dtype == np.float64 else int
    _, back_names, back = read_table(io.StringIO(text), "t", [header], cell)
    assert back_names == tuple(names)
    back = np.array(back, dtype=values.dtype).reshape(values.shape)
    assert back.tobytes() == values.tobytes()  # -0.0 reads back as -0.0


def test_dropped_csv_without_dropped_nodes_is_its_header():
    empty = ProfileMatrix((), np.zeros((0, 36)))
    assert empty.dropped_csv_text() == "node,total_participation\n"
