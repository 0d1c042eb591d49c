"""The one CSV format of every table the pipeline writes or reads.

A table is UTF-8 text with a header row, "\\n" line ends and minimal
quoting, so a cell holding a comma, a quote or a line break round-trips.
A reader takes text: `cli.main` reads and decodes each file, and strips a
leading byte-order mark.
A node-keyed table holds a node name in column 0 and one value in each
other column. Its values repeat heavily, so it is written and read by
distinct value: each one is formatted or converted once.
"""

from __future__ import annotations

import csv
import io
from itertools import chain

import numpy as np


def _csv_text(rows: list, quoting: int) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerows(rows)
    return buf.getvalue()


def table_text(header, rows) -> str:
    """The table as CSV text. Minimal quoting leaves a carriage return
    bare, and no reader takes that back, so a table holding one quotes
    every non-numeric cell."""
    rows = [header, *rows]
    text = _csv_text(rows, csv.QUOTE_MINIMAL)
    return _csv_text(rows, csv.QUOTE_NONNUMERIC) if "\r" in text else text


class _Echo:
    """A file whose write returns the text, so a csv writer's writerow
    returns the row's CSV text."""

    def write(self, text: str) -> str:
        return text


def node_table_text(header, names, values: np.ndarray) -> str:
    """`table_text(header, [name, *row] for each name and row)`, with each
    distinct value of the 2-D int64 or float64 `values` formatted once."""
    flat = values.ravel()
    # a float is told apart by its bits, so -0.0 keeps its own text
    keys = flat.view(np.int64) if flat.dtype == np.float64 else flat
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    texts = np.array([repr(v) for v in flat[first].tolist()], dtype=object)
    cells = texts[inverse].reshape(values.shape).tolist()
    # numbers never hold "\r", so only the names and header decide
    bare_cr = any("\r" in s for s in chain(header, names))
    quoting = csv.QUOTE_NONNUMERIC if bare_cr else csv.QUOTE_MINIMAL
    row = csv.writer(_Echo(), lineterminator="\n", quoting=quoting).writerow
    lines = [row(header)]
    lines += [row((name, 0))[:-3] + "," + ",".join(rest) + "\n"  # drop ",0\n"
              for name, rest in zip(names, cells)]
    return "".join(lines)


def read_table(text: str, what: str, headers, cell):
    """Read a node-keyed table from its text.

    The header must be one of `headers`, every row as wide as the header,
    and no node name may repeat; `cell` converts every cell after the
    name, and must be a pure function of its text, because it runs once
    per distinct text. Returns (header, names, converted rows). Every
    error is a ValueError reading "{what}: row N: ..." for the first
    faulty row in file order.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    names: dict[str, None] = {}  # insertion-ordered set
    rows = []  # the raw cells after each name
    ends = []  # the reader's line number after each row
    fault = None
    try:
        header = tuple(next(reader, ()))
        if header not in headers:
            raise ValueError("missing or unexpected header")
        for row in reader:
            if len(row) != len(header):
                raise ValueError("wrong width")
            if row[0] in names:
                raise ValueError(f"node {row[0]!r} repeats")
            names[row[0]] = None
            rows.append(row[1:])
            ends.append(reader.line_num)
    except (ValueError, csv.Error) as exc:
        fault = f"{what}: row {reader.line_num}: {exc}"
    # A bad cell in an earlier row comes before `fault`. Texts are taken
    # in first-appearance order, so the first bad text is the first bad cell.
    values = dict.fromkeys(chain.from_iterable(rows))
    try:
        for text in values:
            values[text] = cell(text)
    except ValueError as exc:
        line = next(end for end, row in zip(ends, rows) if text in row)
        raise ValueError(f"{what}: row {line}: {exc}") from None
    if fault is not None:
        raise ValueError(fault)
    return header, tuple(names), [list(map(values.__getitem__, row)) for row in rows]
