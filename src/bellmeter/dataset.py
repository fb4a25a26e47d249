"""Plot-ready tabular datasets: tab-separated values plus a JSON metadata sidecar.

The data file holds a header row and numeric rows only, so a rerun with the
same seed reproduces it byte for byte; volatile fields (the timestamp) live in
the sidecar '<file>.meta.json'.

A dataset holds one 1-D numpy array per column, int64 or float64, and is read
and written column by column in blocks of at most _BLOCK_ROWS rows: an int
column is formatted with `str`, a float column with `repr`.  A block of a
column is parsed as int64 when int() accepts every cell and fits it in int64,
and as float64 otherwise; the blocks are joined, so a column is float64 as
soon as one of its cells is not integer text (`12` beside `12.5` reads as
12.0).  A written column reads back with its dtype and bits; one without
rows reads back as float64.
"""

from __future__ import annotations

import itertools
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import SchemaViolationError

# rows per block of cells that are parsed or formatted together; the cell
# strings of a whole table are never alive at once
_BLOCK_ROWS = 4096


class Dataset:
    """Named numeric columns and a metadata mapping.

    Column columns[j] holds data[j] as a 1-D int64 or float64 numpy array;
    the names are distinct and all columns have one length.
    """

    def __init__(self, columns: list[str], data: Sequence, metadata: dict | None = None):
        if len(data) != len(columns):
            raise ValueError(f"{len(data)} columns of data for {len(columns)} column names")
        self.columns = list(columns)
        self._data = []
        _check_distinct(self.columns)
        for name, values in zip(self.columns, data):
            values = np.asarray(values)
            if values.ndim != 1 or values.dtype.kind not in "if":
                raise ValueError(
                    f"column {name!r} must be a 1-D array of signed ints or floats,"
                    f" got {values.ndim}-D {values.dtype}"
                )
            dtype = np.int64 if values.dtype.kind == "i" else np.float64
            self._data.append(values.astype(dtype, copy=False))
        if len(set(map(len, self._data))) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(set(map(len, self._data)))}")
        self.metadata = {} if metadata is None else metadata

    def __len__(self) -> int:
        return len(self._data[0]) if self._data else 0

    def column(self, name: str) -> np.ndarray:
        return self._data[self.columns.index(name)]

    def tsv(self) -> Iterator[str]:
        """The TSV text: the header line, then the rows in blocks of at most _BLOCK_ROWS lines."""
        formats = [repr if values.dtype.kind == "f" else str for values in self._data]

        def block(start: int) -> str:
            rows = slice(start, start + _BLOCK_ROWS)
            cells = (map(fmt, values[rows].tolist()) for fmt, values in zip(formats, self._data))
            return "\n".join(map("\t".join, zip(*cells))) + "\n"

        header = "\t".join(self.columns) + "\n"
        return itertools.chain([header], map(block, range(0, len(self), _BLOCK_ROWS)))

    def write(self, path: str | Path) -> Path:
        """Write the table to `path` and the metadata sidecar next to it.

        The sidecar is serialized before either file is written, so metadata
        that is not strict JSON (NaN or an infinity) raises ValueError and
        leaves nothing on disk.
        """
        path = Path(path)
        meta = dict(self.metadata)
        meta["columns"] = list(self.columns)
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        try:
            sidecar = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValueError(f"metadata of {path} is not strict JSON: {exc}") from None
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.writelines(self.tsv())
        sidecar_path(path).write_text(sidecar)
        return path

    @staticmethod
    def read(path: str | Path) -> "Dataset":
        """Read a dataset and its sidecar, if there is one.

        A file that is not UTF-8 text or whose header names a column twice
        raises ValueError naming it, and a row of the wrong width or a cell
        that is no number one naming the file, the line and, for a cell, the
        column; blank lines are skipped.
        A sidecar that is no JSON raises ValueError, and one that holds no
        JSON object SchemaViolationError, each naming the sidecar.
        """
        path = Path(path)
        try:
            lines = path.read_text().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
        if not lines:
            raise ValueError(f"{path} is empty")
        columns = lines[0].split("\t")
        _check_distinct(columns, f"{path}: ")
        blocks: list[list[np.ndarray]] = [[] for _ in columns]
        for start in range(1, len(lines), _BLOCK_ROWS):
            block = lines[start : start + _BLOCK_ROWS]
            rows = [line for line in block if line]
            if not rows:
                continue
            try:
                if set(map(str.count, rows, itertools.repeat("\t"))) - {len(columns) - 1}:
                    raise ValueError("a row of the wrong width")
                cells = "\t".join(rows).split("\t")
                for j, column_blocks in enumerate(blocks):
                    column_blocks.append(_parse_column(cells[j :: len(columns)]))
            except ValueError:
                _raise_first_bad_row(path, columns, block, start + 1)
                raise
        data = [np.concatenate(parts) if parts else np.empty(0) for parts in blocks]
        metadata = {}
        sidecar = sidecar_path(path)
        if sidecar.exists():
            metadata = read_json(sidecar)
            if not isinstance(metadata, dict):
                raise SchemaViolationError(f"{sidecar} holds no JSON object")
        return Dataset(columns, data, metadata)


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def read_json(path: Path):
    """The JSON value in the file at `path`; ValueError naming the file if it holds no JSON."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


def _check_distinct(columns: list[str], prefix: str = "") -> None:
    """ValueError, its message starting with `prefix`, if a column name appears twice."""
    for j, name in enumerate(columns):
        if name in columns[:j]:
            raise ValueError(f"{prefix}column {name!r} appears twice")


def _parse_column(cells: Sequence[str]) -> np.ndarray:
    """One column's cells as int64 if int() accepts and int64 holds each, else as float64.

    ValueError if a cell is no number.
    """
    try:
        return np.array(list(map(int, cells)), dtype=np.int64)
    except (ValueError, OverflowError):
        return np.array(list(map(float, cells)))


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
                float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}, line {number}, column {column!r}: {cell!r} is not a number"
                ) from None
