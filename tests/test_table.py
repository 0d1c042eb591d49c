import io

import numpy as np
import pytest

from motifroles.cluster import write_labels_csv
from motifroles.counting import read_count_csv
from motifroles.table import read_table, table_text, write_table

ODD_NAMES = ["plain", "X,Y", 'Q"R', "line\nfeed", "carriage\rreturn", " pad "]


def test_odd_names_round_trip_through_a_file(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("node", "v"), ((name, i) for i, name in enumerate(ODD_NAMES)))
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
        ('node,v\nA,1\n"' + "B" * 200_000 + '",2\n', "t: row 3: field larger than field limit"),
    ],
    ids=["empty", "header", "width", "repeat", "cell", "field-limit"],
)
def test_read_table_errors_name_the_table_and_row(text, message):
    with pytest.raises(ValueError) as err:
        read_table(io.StringIO(text), "t", [("node", "v")], int)
    assert str(err.value).startswith(message)


def test_node_keyed_readers_reject_a_repeated_node(tmp_path, toy_counts):
    path = tmp_path / "labels.csv"
    write_labels_csv(("A", "B", "A"), np.array([0, 1, 0]), path, "cluster")
    with pytest.raises(ValueError, match="labels CSV: row 4: node 'A' repeats"):
        read_table(path, "labels CSV", [("node", "cluster")], int)
    path = tmp_path / "counts.csv"
    toy_counts.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    text = "".join(lines + lines[2:3])
    with pytest.raises(ValueError, match="counts CSV: row 5: node 'B' repeats"):
        read_count_csv(io.StringIO(text))
