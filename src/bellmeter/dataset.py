"""Plot-ready tabular datasets: tab-separated values plus a JSON metadata sidecar.

The data file holds a header row and numeric rows only, so a rerun with the
same seed reproduces it byte for byte; volatile fields (the timestamp) live in
the sidecar '<file>.meta.json'.

Every table goes through one block reader (TableReader) and one block
writer (write_table), so no more than one block of text is held at once:
the reader reads _BLOCK_ROWS lines a block, and the writer formats each
block whole, as its producer sized it.

A block of a column is parsed as int64 when int() accepts every cell
and int64 holds it, and as float64 otherwise, or kept as its cell text once
every cell is checked to be a number, so one column may be int64 in one
block and float64 in the next.  The parsed columns of a block are read
first by numpy's C tokenizer, which takes optional whitespace, a sign and
ASCII digits within int64 (_int_columns); a block it does not take in full
goes to the per-column int()/float() rule (_parse_cells), which decides the
result.  Only then is each row split into all its cells; otherwise it is
split only up to its last carried cell.  The writer takes counts.Column
records, and a cell's text follows its column's kind, not the block's
dtype.  A value v of a derived column (estimates, theory values, rates),
number or numeric text, is written as format(float(v), ".13"): it keeps
ROUNDED_DIGITS = 13 significant digits (relative error at most 5e-13) and
always holds a `.`, an exponent, `nan` or `inf`, so it reads back as
float64, with NaN, infinities and signed zeros exact.  Any other column is
written exactly, its cell text as it is and its numbers by `repr` (`str`
for an int), so it reads back with its dtype and bits.  Each column's rule
is decided once per block and gives one field of a row template, which one
str.format call repeats over the block's rows (_format_rows); a float column
of one value, as the multimeter's `eta`, is that value's text in the
template, formatted once.  The TSV and the sidecar replace the previous pair
only once every block is written.
"""

from __future__ import annotations

import errno
import itertools
import json
import operator
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .counts import Column
from .errors import SchemaViolationError

# lines per block that are read and parsed together; the cell strings of a
# whole table are never alive at once
_BLOCK_ROWS = 4096
# ASCII characters that numpy's int64 tokenizer takes as whitespace and int() does not
_NOT_INT_SPACE = "\x1c\x1d\x1e\x1f"
# significant digits of a derived column; format(v, ".13") costs about 0.6x repr(v)
ROUNDED_DIGITS = 13
_ROUNDED_SPEC = f".{ROUNDED_DIGITS}"
_ROUNDED_FIELD = f"{{:{_ROUNDED_SPEC}}}"


class TableReader:
    """The header and sidecar of a TSV dataset, and its rows block by block.

    The header and the sidecar are read when the reader is made.  A file
    that is not UTF-8 text or whose header names a column twice raises
    ValueError naming it; a sidecar that is no JSON raises ValueError, and
    one that holds no JSON object SchemaViolationError, each naming the
    sidecar, and so does one whose `columns` differ from the header, naming
    both files.  Without a sidecar the metadata is empty.  A leading UTF-8
    byte-order mark of either file is skipped.  _rows maps the data rows of
    the block read last to file lines, for every error that names a line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.metadata = {}
        with open(self.path, encoding="utf-8-sig") as file:
            header = self._lines(file, 1, 1)
        if not header:
            raise ValueError(f"{self.path} is empty")
        self.columns = header[0].split("\t")
        for j, name in enumerate(self.columns):
            if name in self.columns[:j]:
                raise ValueError(f"{self.path}: column {name!r} appears twice")
        sidecar = sidecar_path(self.path)
        if sidecar.exists():
            self.metadata = read_json(sidecar)
            if not isinstance(self.metadata, dict):
                raise SchemaViolationError(f"{sidecar} holds no JSON object")
            if self.metadata.get("columns", self.columns) != self.columns:
                raise SchemaViolationError(
                    f"{self.path}: header {self.columns} differs from the columns {self.metadata['columns']}"
                    f" that {sidecar} records"
                )

    def blocks(self, parse: Sequence[str], carry: Sequence[str] = ()) -> Iterator[list]:
        """The columns `parse`, then `carry`, of each block of at most _BLOCK_ROWS lines.

        The lines are read from the open file, a block at a time, and blank
        lines are skipped.  A parse column comes as an int64 or float64
        array (see _parse_cells), a carry column as its list of cell text
        once each cell is checked to be a finite number.  A row of the wrong
        width, or a cell of these columns that is no number (of a carry column,
        no finite number), raises ValueError naming the file, the line (as
        _rows maps it) and, for a cell, the column.  These rules hold for
        every row of a block before the block is yielded, so a caller's own
        rule on its values (analyze's count rule) names an earlier line of
        the block only when no row of the block breaks one of them.  When the
        sidecar records `columns`, a last line without a line end raises
        ValueError naming the file and that line as soon as its block is read.
        """
        width = len(self.columns)
        parsed = [self.columns.index(name) for name in parse]
        carried = [self.columns.index(name) for name in carry]
        with open(self.path, encoding="utf-8-sig") as file:
            next_line = 1 + len(self._lines(file, 1, 1))
            while lines := self._lines(file, next_line, _BLOCK_ROWS):
                self._block = (next_line, lines)
                next_line += len(lines)
                rows = [line for line in lines if line]
                if not rows:
                    continue
                try:
                    if set(map(str.count, rows, itertools.repeat("\t"))) - {width - 1}:
                        raise ValueError("a row of the wrong width")
                    ints = _int_columns(rows, parsed)
                    if ints is None:
                        cells = "\t".join(rows).split("\t")
                        block = [_parse_cells(cells[j::width]) for j in parsed]
                        block += [cells[j::width] for j in carried]
                    else:
                        block = list(ints.T)
                        if carried:  # each row is split only up to its last carried cell
                            splits = itertools.repeat(max(carried) + 1)
                            heads = list(map(str.split, rows, itertools.repeat("\t"), splits))
                            block += [list(map(operator.itemgetter(j), heads)) for j in carried]
                    # np.array raises ValueError itself on a carried cell that is no number
                    if not np.isfinite(np.array(block[len(parsed) :], dtype=np.float64)).all():
                        raise ValueError("a carried cell that is no finite number")
                except ValueError:
                    self._raise_first_bad_row(parsed, carried)
                    raise
                yield block

    def cell(self, row: int, name: str) -> str:
        """'<path>, line <n>, column <name>: <cell>', the cell of column `name` in data row `row`
        of the block read last."""
        number, cells = next(itertools.islice(self._rows(), row, None))
        return f"{self.path}, line {number}, column {name!r}: {cells[self.columns.index(name)]!r}"

    def _rows(self) -> Iterator[tuple[int, list[str]]]:
        """(line number, cells) of each data row of the block read last, blank lines skipped."""
        first_line, lines = self._block
        return ((number, line.split("\t")) for number, line in enumerate(lines, first_line) if line)

    def _raise_first_bad_row(self, parsed: list[int], carried: list[int]) -> None:
        """Raise ValueError naming the first row of the block read last that is too short or too
        long, or holds a cell of the `parsed` columns that is no number or of the `carried`
        columns that is no finite number."""
        for row, (number, cells) in enumerate(self._rows()):
            if len(cells) != len(self.columns):
                raise ValueError(f"{self.path}, line {number}: {len(cells)} cells, but the header has {len(self.columns)}")
            for j in sorted(parsed + carried):
                try:
                    finite = np.isfinite(float(cells[j]))
                except ValueError:
                    raise ValueError(f"{self.cell(row, self.columns[j])} is not a number") from None
                if not finite and j in carried:
                    raise ValueError(f"{self.cell(row, self.columns[j])} is not a finite number")

    def _lines(self, file, first: int, count: int) -> list[str]:
        """The next `count` lines of `file` (fewer at its end), without their line ends; `first` is
        the number of the first.  A last line without a line end raises ValueError naming it when the
        sidecar records `columns`: write_table ends every line it writes, so the file was cut short."""
        try:
            text = "".join(itertools.islice(file, count))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{self.path} is not UTF-8 text: {exc}") from None
        lines = text.split("\n")
        if not lines[-1]:  # the text ends in a line end, or there is none
            lines.pop()
        elif "columns" in self.metadata:
            raise ValueError(f"{self.path}, line {first + len(lines) - 1} has no line end: the file is cut short")
        return lines


def write_table(path: Path | None, columns: Sequence[Column], blocks: Iterable[Sequence], metadata: dict) -> int:
    """Write the TSV of `columns` and `blocks` to `path` and the metadata sidecar next to it.

    `columns` are counts.Column records, and a block holds one entry per
    column, all of one length: a numeric array or a list of cell text,
    written by its column's kind (see the module docstring).  The sidecar
    gets `columns` (the names), `rounded` ({"digits": ROUNDED_DIGITS,
    "columns": the derived columns in column order}) and a timestamp
    besides `metadata`.
    It is serialized by one encoder before anything is written, so metadata
    that is not strict JSON raises ValueError and leaves nothing on disk,
    and again once every block is written, with the keys added to
    `metadata` meanwhile.
    Both files are written to temporary files in the target directory, which
    are moved into place with os.replace once every block is written; if
    anything fails, the temporary files are removed and the previous files
    stay as they were.  With `path` None the TSV goes to stdout, through an
    unnamed temporary file that is copied out once every block is written,
    and there is no sidecar; the caller flushes stdout.  A `path` named like
    a sidecar, '<file>.meta.json', raises ValueError, and one that names a
    directory IsADirectoryError, before a block is drawn or anything is
    written.  Returns the number of rows.
    """
    names, derived = [c.name for c in columns], [c.kind == "derived" for c in columns]
    if path is None:
        import shutil
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
            rows = _write_tsv(out, names, blocks, derived)
            out.seek(0)
            shutil.copyfileobj(out, sys.stdout)
        return rows
    if path.name.endswith(".meta.json"):  # it would replace the sidecar of the dataset it names
        raise ValueError(f"{path}: an output name must not end in .meta.json, the name of a sidecar")
    if path.is_dir():  # checked before a block is drawn: no file can be put in its place
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    stamp = {
        "columns": names,
        "rounded": {"digits": ROUNDED_DIGITS, "columns": list(itertools.compress(names, derived))},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }

    def sidecar() -> str:
        try:
            return json.dumps({**metadata, **stamp}, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValueError(f"metadata of {path} is not strict JSON: {exc}") from None

    sidecar()
    path.parent.mkdir(parents=True, exist_ok=True)
    temporaries: list[Path] = []
    try:
        with _open_beside(path, temporaries) as out:
            rows = _write_tsv(out, names, blocks, derived)
        with _open_beside(sidecar_path(path), temporaries) as out:
            out.write(sidecar())
        for temporary, target in zip(temporaries, (path, sidecar_path(path))):
            try:
                os.replace(temporary, target)
            except OSError as exc:  # named by its target, not by the temporary file
                raise type(exc)(exc.errno, exc.strerror, str(target)) from None
    except BaseException:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)
        raise
    return rows


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def read_json(path: Path):
    """The JSON value in the file at `path`, past a byte-order mark; ValueError naming the file if it holds no JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


def _format_rows(block: Sequence, derived: Sequence[bool]) -> str:
    """The TSV lines of a block of one or more rows, each with its line end, by one row template.

    Each column's rule is decided once and gives one field of the template:
    if `derived`, `{:.13}` of each value v, a number or numeric text, as
    float(v); else `{}` of a list, its cell text as it is, and `{!r}` of each
    number.  A float64 array whose values all have the bits of its first is
    that value's text in the template itself, formatted once; the text of a
    number holds no brace, and cell text is never template text.
    """
    fields, arguments = [], []
    for values, rounded in zip(block, derived):
        if isinstance(values, list) and not rounded:
            fields.append("{}")
            arguments.append(values)
            continue
        if isinstance(values, list):
            values = list(map(float, values))
        values = np.asarray(values, dtype=np.float64 if rounded else None)
        bits = values.view(np.int64) if values.dtype == np.float64 else None
        if bits is not None and bits[0] == bits[-1] and (bits == bits[0]).all():
            first = float(values[0])
            fields.append(format(first, _ROUNDED_SPEC) if rounded else repr(first))
        else:
            fields.append(_ROUNDED_FIELD if rounded else "{!r}")
            arguments.append(values.tolist())
    template = "\t".join(fields) + "\n"
    return (template * len(block[0])).format(*itertools.chain.from_iterable(zip(*arguments)))


def _write_tsv(out, names: Sequence[str], blocks: Iterable[Sequence], derived: Sequence[bool]) -> int:
    """Write the TSV text of the columns `names` and `blocks` to `out`; the number of rows.

    Each block is formatted whole, as its producer sized it: _BLOCK_ROWS lines
    from the reader, or at most experiment._MAX_STAGE_PERIODS sweep points, by
    one row template (_format_rows).  A column whose `derived` entry is true is
    formatted by the derived rule.
    """
    out.write("\t".join(names) + "\n")
    rows = 0
    for block in blocks:
        lengths = set(map(len, block))
        if len(block) != len(names) or len(lengths) > 1:
            raise ValueError(
                f"a block of {len(block)} columns of lengths {sorted(lengths)} for {len(names)} names"
            )
        size = lengths.pop() if lengths else 0
        if size:  # _format_rows of no rows is a lone line end
            out.write(_format_rows(block, derived))
        rows += size
        del block  # the next block is made while none of this one is alive
    return rows


def _open_beside(path: Path, opened: list[Path]):
    """A new text file for writing in the directory of `path`; its path is appended to `opened`."""
    for attempt in itertools.count():
        temporary = path.with_name(f".{path.name}.{os.getpid()}-{attempt}.tmp")
        try:
            file = open(temporary, "x", encoding="utf-8")
        except FileExistsError:
            continue
        opened.append(temporary)
        return file


def _int_columns(rows: list[str], parsed: list[int]) -> np.ndarray | None:
    """The `parsed` columns of `rows` as an (n, len(parsed)) int64 array, read by numpy's
    C tokenizer, or None where it might read a cell otherwise than int() does.

    The tokenizer takes optional whitespace, a sign and ASCII digits within
    int64, and rejects anything else; so a cell it takes is one that int()
    takes, with the same value.  Two exceptions keep it to ASCII text without
    _NOT_INT_SPACE: it takes those four characters as whitespace, which int()
    does not, and it reads some non-ASCII letters as digits (numpy 2.4).  A
    warning counts as a rejection, for releases that still read `12.5` in an
    int column as 12 with a DeprecationWarning.  None also when a row is
    skipped or split, so the caller's int()/float() parse (_parse_cells)
    decides every cell the tokenizer does not.
    """
    text = "\n".join(rows)
    if not text.isascii() or any(space in text for space in _NOT_INT_SPACE):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(rows, dtype=np.int64, delimiter="\t", comments=None, usecols=parsed, ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    return values if values.shape == (len(rows), len(parsed)) else None


def _parse_cells(cells: Sequence[str]) -> np.ndarray:
    """The cells as int64 if int() accepts and int64 holds each, else as float64.

    numpy calls int() on each cell, so a cell is integer text exactly when
    int() takes it.  ValueError if a cell is no number.
    """
    try:
        return np.array(cells, dtype=np.int64)
    except (ValueError, OverflowError):
        return np.array(list(map(float, cells)))
