"""The one CSV format of every table the pipeline writes or reads.

A table is UTF-8 text with a header row, "\\n" line ends and minimal
quoting, so a cell holding a comma, a quote or a line break round-trips.
A reader skips a leading UTF-8 byte-order mark.
A node-keyed table holds a node name in column 0 and one value in each
other column.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path


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


def write_table(path, header, rows) -> None:
    Path(path).write_text(table_text(header, rows), encoding="utf-8")


def read_table(source, what: str, headers, cell):
    """Read a node-keyed table from a path or an open text stream.

    The header must be one of `headers`, every row as wide as the header,
    and no node name may repeat; `cell` converts every cell after the
    name. Returns (header, names, converted rows). Every error is a
    ValueError reading "{what}: row N: ...".
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return read_table(fh, what, headers, cell)
    reader = csv.reader(source)
    names: dict[str, None] = {}  # insertion-ordered set
    rows = []
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
            rows.append([cell(x) for x in row[1:]])
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{what}: row {reader.line_num}: {exc}") from None
    return header, tuple(names), rows
