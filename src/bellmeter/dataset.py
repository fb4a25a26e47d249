"""Plot-ready tabular datasets: tab-separated values plus a JSON metadata sidecar.

The data file holds a header row and numeric rows only, so a rerun with the
same seed reproduces it byte for byte; volatile fields (the timestamp) live in
the sidecar '<file>.meta.json'.

A dataset is held column by column, and read and written that way, in blocks
of at most _BLOCK_ROWS rows: a column of ints is formatted with `str`, one of
floats with `repr`, and a block of cells is parsed by one int() or float()
pass per column.  A cell is an int where int() accepts it and a float
otherwise, also in a column that mixes both.
"""

from __future__ import annotations

import itertools
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# rows per block of cells that are parsed or formatted together; the cell
# strings of a whole table are never alive at once
_BLOCK_ROWS = 4096


class Dataset:
    """Named numeric columns and a metadata mapping.

    `Dataset(columns, rows)` builds one from rows; `Dataset.from_columns`
    takes the columns themselves, each a list of numbers or a 1-D numpy
    array.
    """

    def __init__(self, columns: list[str], rows: Iterable[Sequence] = (), metadata: dict | None = None):
        self.columns = list(columns)
        self.metadata = {} if metadata is None else metadata
        rows = list(rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} does not match {len(self.columns)} columns")
        self._data: list[Sequence] = [list(values) for values in zip(*rows)] if rows else [
            [] for _ in self.columns
        ]

    @classmethod
    def from_columns(
        cls, columns: list[str], data: list[Sequence], metadata: dict | None = None
    ) -> "Dataset":
        """Dataset whose column columns[j] holds data[j]; all columns have one length."""
        if len(data) != len(columns):
            raise ValueError(f"{len(data)} columns of data for {len(columns)} column names")
        if len(set(map(len, data))) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(set(map(len, data)))}")
        dataset = cls(columns, metadata=metadata)
        dataset._data = list(data)
        return dataset

    def __len__(self) -> int:
        return len(self._data[0]) if self._data else 0

    @property
    def rows(self) -> list[list]:
        return [list(row) for row in zip(*map(_as_list, self._data))]

    def column(self, name: str) -> list:
        return _as_list(self._data[self.columns.index(name)])

    def tsv(self) -> Iterator[str]:
        """The TSV text: the header line, then the rows in blocks of at most _BLOCK_ROWS lines.

        Every column is checked before this returns, so a value that is no
        number raises ValueError here and not halfway through the text.
        """
        formatters = [_cell_formatter(values) for values in self._data]

        def block(start: int) -> str:
            rows = slice(start, start + _BLOCK_ROWS)
            return "\n".join(map("\t".join, zip(*(cells(rows) for cells in formatters)))) + "\n"

        header = "\t".join(self.columns) + "\n"
        return itertools.chain([header], map(block, range(0, len(self), _BLOCK_ROWS)))

    def write(self, path: str | Path) -> Path:
        """Write the table to `path` and the metadata sidecar next to it.

        The sidecar is serialized and every column checked before either file
        is written, so metadata that is not strict JSON (NaN or an infinity)
        or a cell that is no number raises ValueError and leaves nothing on
        disk.
        """
        path = Path(path)
        meta = dict(self.metadata)
        meta["columns"] = list(self.columns)
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        try:
            sidecar = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValueError(f"metadata of {path} is not strict JSON: {exc}") from None
        text = self.tsv()
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.writelines(text)
        sidecar_path(path).write_text(sidecar)
        return path

    @staticmethod
    def read(path: str | Path) -> "Dataset":
        """Read a dataset and its sidecar, if there is one.

        A row of the wrong width or a cell that is no number raises
        ValueError naming the file, the line and, for a cell, the column;
        blank lines are skipped.
        """
        path = Path(path)
        lines = path.read_text().splitlines()
        if not lines:
            raise ValueError(f"{path} is empty")
        columns = lines[0].split("\t")
        blocks: list[list[list]] = [[] for _ in columns]
        for start in range(1, len(lines), _BLOCK_ROWS):
            block = lines[start : start + _BLOCK_ROWS]
            rows = [line for line in block if line]
            try:
                if set(map(str.count, rows, itertools.repeat("\t"))) - {len(columns) - 1}:
                    raise ValueError("a row of the wrong width")
                cells = "\t".join(rows).split("\t")
                for j, column_blocks in enumerate(blocks):
                    column_blocks.append(_parse_column(cells[j :: len(columns)]))
            except ValueError:
                _raise_first_bad_row(path, columns, block, start + 1)
                raise
        # each column is allocated once at its full length: growing ten lists
        # in turn, block by block, leaves the heap fragmented after the call
        data = [list(itertools.chain.from_iterable(column_blocks)) for column_blocks in blocks]
        metadata = {}
        sidecar = sidecar_path(path)
        if sidecar.exists():
            metadata = json.loads(sidecar.read_text())
        return Dataset.from_columns(columns, data, metadata)


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def _as_list(values: Sequence) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _cell_formatter(values: Sequence) -> Callable[[slice], Iterable[str]]:
    """The cells of a slice of rows of one column: `str` for ints, `repr` for floats.

    A column of any other or of mixed kinds is formatted cell by cell, all
    at once, so that a value that is no number raises here.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        fmt = repr if values.dtype.kind == "f" else str
        return lambda rows: map(fmt, values[rows].tolist())
    kinds = set(map(type, values))
    if kinds <= {int} or kinds <= {float}:
        fmt = str if kinds <= {int} else repr
        return lambda rows: map(fmt, values[rows])
    return [_format_cell(value) for value in values].__getitem__


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _parse_column(cells: Sequence[str]) -> list:
    """The values of one column's cells; ValueError if a cell is no number."""
    try:
        return list(map(int, cells))
    except ValueError:
        floats = list(map(float, cells))
    # a cell int() accepts has no '.' and an integral value; it stays an int
    return [v if "." in c or not v.is_integer() else _parse_cell(c) for c, v in zip(cells, floats)]


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _raise_first_bad_row(path: Path, columns: list[str], block: list[str], first_line: int) -> None:
    """Raise ValueError naming the first line of `block` that is too short, too long or not numeric."""
    for number, line in enumerate(block, start=first_line):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise ValueError(
                f"{path}, line {number}: {len(cells)} cells, but the header has {len(columns)}"
            )
        for column, cell in zip(columns, cells):
            try:
                _parse_cell(cell)
            except ValueError:
                raise ValueError(
                    f"{path}, line {number}, column {column!r}: {cell!r} is not a number"
                ) from None
