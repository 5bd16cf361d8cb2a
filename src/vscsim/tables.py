"""Result tables and their on-disk forms.

Every emitted file opens with a provenance comment carrying the artifact
version, a hash of the effective config, and the seed, so any output can
be traced back to the exact run that produced it.  CSV cells use the
shortest round-trip float representation; gnuplot data files use nine
significant digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

ARTIFACT_VERSION = "0.1.0"


def config_hash(doc: dict) -> str:
    """Short stable hash of a config document (key order independent)."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class ResultTable:
    """Named columns of equal length; `data` holds one list per column."""

    columns: list[str]
    data: list[list]
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("table needs at least one column")
        if len(self.data) != len(self.columns):
            raise ValueError(f"{len(self.data)} data columns for {len(self.columns)} names")
        if len({len(col) for col in self.data}) > 1:
            raise ValueError("columns differ in length")

    @classmethod
    def from_rows(cls, columns, rows, provenance: dict[str, str] | None = None) -> ResultTable:
        """Table from row tuples, each as wide as `columns`."""
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"row width {len(row)} does not match {len(columns)} columns")
        data = [list(col) for col in zip(*rows)] if rows else [[] for _ in columns]
        return cls(list(columns), data, dict(provenance or {}))

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*self.data))

    def column(self, name: str) -> list:
        return list(self.data[self.columns.index(name)])


def _provenance_line(prov: dict[str, str]) -> str:
    cfg = prov.get("config", "unknown")
    seed = prov.get("seed", "unknown")
    version = prov.get("version", ARTIFACT_VERSION)
    return f"# vscsim {version} config={cfg} seed={seed}"


def _parse_provenance(line: str) -> dict[str, str]:
    parts = line.lstrip("# ").split()
    prov: dict[str, str] = {}
    if len(parts) >= 2 and parts[0] == "vscsim":
        prov["version"] = parts[1]
    for part in parts[2:]:
        if "=" in part:
            key, value = part.split("=", 1)
            prov[key] = value
    return prov


_SCALAR_TYPES = {int, float, str}
_BLOCK = 256  # rows per write: bounds the formatted text held at once
_CSV_SPECIAL = re.compile(r'[,"\r\n]')  # a text cell holding one of these is quoted


def _scalar(value):
    """The Python int, float or str that the writers format for a cell."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _typed(name: str, column: list) -> tuple[list, set]:
    """The column as Python scalars, converted only when it holds anything
    else, and the set of its cell types. A boolean cell is a ValueError
    that names the column."""
    types = set(map(type, column))
    if types <= _SCALAR_TYPES:
        return column, types
    if types & {bool, np.bool_}:
        raise ValueError(f"column {name!r} holds a boolean cell; booleans are not part of any table schema")
    column = [_scalar(v) for v in column]
    return column, set(map(type, column))


def _csv_field(cell: str) -> str:
    r"""A text cell as csv.writer's minimal quoting writes it, except that a
    lone carriage return is quoted too: csv.writer leaves it bare when rows
    end in "\n", and csv.reader then splits the row there."""
    return '"' + cell.replace('"', '""') + '"' if _CSV_SPECIAL.search(cell) else cell


def _csv_lone_field(cell: str) -> str:
    """The cell of a one-column row: empty, it is quoted as csv.writer
    quotes it, or the row would read back as a blank line."""
    return _csv_field(cell) or '""'


class _Memo(dict):
    """fmt of each distinct value of a one-type column. A zero is formatted
    on every lookup, because 0.0 == -0.0 while their texts differ; a NaN
    equals only itself, so it finds no other value's text."""

    def __init__(self, fmt, column: list) -> None:
        distinct = dict.fromkeys(column)
        super().__init__(zip(distinct, map(fmt, distinct)))
        self.pop(0, None)
        self.fmt = fmt

    def __missing__(self, value) -> str:
        return self.fmt(value)


def _formatted(fmt, column: list) -> Iterator[str]:
    """fmt of each cell of a one-type column, each distinct value formatted
    once when the first block repeats values (as an np.repeat column does)."""
    probe = column[:_BLOCK]
    if 2 * len(set(probe)) > len(probe):
        return map(fmt, column)
    return map(_Memo(fmt, column).__getitem__, column)


def _cells(column: list, types: set, float_fmt, text_fmt=None) -> Iterable[str]:
    """The text of each cell of a _typed column: float_fmt of a float,
    str() of an int and text_fmt of a str (the str itself when text_fmt
    is None)."""
    if types == {str}:
        if text_fmt is None or all(text_fmt(t) == t for t in dict.fromkeys(column)):
            return column
        return _formatted(text_fmt, column)
    if types == {float}:
        return _formatted(float_fmt, column)
    if types == {int}:
        return _formatted(str, column)
    text_fmt = text_fmt or str  # mixed types: one cell at a time
    return (float_fmt(v) if type(v) is float else text_fmt(v) if type(v) is str else str(v) for v in column)


def _typed_columns(table: ResultTable) -> list[tuple[list, set]]:
    return [_typed(name, col) for name, col in zip(table.columns, table.data)]


def _write_rows(fh, columns: list[Iterable[str]], sep: str) -> None:
    """Write the rows of per-column cell texts, _BLOCK rows per write, so
    no more than a block of formatted text is held at once."""
    rows = map(sep.join, zip(*columns))
    while block := list(islice(rows, _BLOCK)):
        fh.write("\n".join(block) + "\n")


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def write_csv_rows(table: ResultTable, path: str | Path, first_line: str = "") -> None:
    """Write first_line, then the header row and the data rows of the
    table, each ending in LF, to a UTF-8 file at path.

    Cells are str() of an int or a str and repr() of a float, quoted as
    csv.writer quotes them (see _csv_field). A table that _typed refuses
    is a ValueError raised before the file is opened, so it leaves any
    file at path as it was."""
    typed = _typed_columns(table)
    quote = _csv_lone_field if len(table.columns) == 1 else _csv_field
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(first_line + ",".join(map(quote, table.columns)) + "\n")
        _write_rows(fh, [_cells(*t, repr, quote) for t in typed], ",")


def write_csv(table: ResultTable, path: str | Path) -> None:
    """Comma-separated form: write_csv_rows after a provenance comment."""
    write_csv_rows(table, path, _provenance_line(table.provenance) + "\n")


def read_csv(path: str | Path) -> ResultTable:
    """The table that write_csv wrote. Each cell is typed by its text: an
    int if int() takes it, else a float if float() does, else the text
    itself, so a text cell such as "007" or "nan" reads back as a number."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("missing provenance comment on line 1")
        prov = _parse_provenance(first.rstrip("\n"))
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError("missing header row")
        rows = [tuple(_parse_cell(cell) for cell in row) for row in reader if row]
    return ResultTable.from_rows(header, rows, prov)


def _check_plot_words(table: ResultTable, typed: list[tuple[list, set]]) -> None:
    """ValueError naming the column unless its name and each text cell
    read back from plot data as one word: not empty, no whitespace, and in
    the first column no leading "#", which would make a comment line."""
    for i, (name, (column, types)) in enumerate(zip(table.columns, typed)):
        texts = dict.fromkeys(v for v in column if type(v) is str) if str in types else {}
        for text in [name, *texts]:
            if text.split() != [text] or (i == 0 and text.startswith("#")):
                raise ValueError(f"column {name!r}: {text!r} does not read back from plot data as one word")


def emit_plot_data(table: ResultTable, path: str | Path) -> None:
    """Whitespace-delimited data block for gnuplot, `#` comment headers.
    A column name or text cell that would not read back (see
    _check_plot_words) is a ValueError, raised before the file is opened."""
    typed = _typed_columns(table)
    _check_plot_words(table, typed)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(_provenance_line(table.provenance) + "\n")
        fh.write("# " + " ".join(table.columns) + "\n")
        _write_rows(fh, [_cells(*t, "%.9g".__mod__) for t in typed], " ")


def read_plot_data(path: str | Path) -> ResultTable:
    """The table that emit_plot_data wrote, each cell typed as read_csv
    types it."""
    prov: dict[str, str] = {}
    columns: list[str] = []
    rows: list[tuple] = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if i == 0:
                    prov = _parse_provenance(line)
                else:
                    columns = line.lstrip("# ").split()
                continue
            rows.append(tuple(_parse_cell(cell) for cell in line.split()))
    if not columns:
        raise ValueError("missing column header comment")
    return ResultTable.from_rows(columns, rows, prov)
