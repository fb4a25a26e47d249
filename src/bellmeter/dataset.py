"""Plot-ready tabular datasets: tab-separated values plus a JSON metadata sidecar.

The data file holds a header row and numeric rows only, so a rerun with the
same seed reproduces it byte for byte; volatile fields (the timestamp) live in
the sidecar '<file>.meta.json'.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path


@dataclass
class Dataset:
    columns: list[str]
    rows: list[list]
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def write(self, path: str | Path) -> Path:
        """Write the table to `path` and the metadata sidecar next to it.

        Both files are serialized before either is written, so metadata that
        is not strict JSON (NaN or an infinity) or a row of the wrong width
        raises ValueError and leaves nothing on disk.
        """
        path = Path(path)
        meta = dict(self.metadata)
        meta["columns"] = list(self.columns)
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        try:
            sidecar = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValueError(f"metadata of {path} is not strict JSON: {exc}") from None
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} does not match {len(self.columns)} columns")
            lines.append("\t".join(_format_cell(v) for v in row))
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        sidecar_path(path).write_text(sidecar)
        return path

    @staticmethod
    def read(path: str | Path) -> "Dataset":
        path = Path(path)
        lines = path.read_text().splitlines()
        if not lines:
            raise ValueError(f"{path} is empty")
        columns = lines[0].split("\t")
        rows = []
        for number, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(columns):
                raise ValueError(
                    f"{path}, line {number}: {len(cells)} cells, but the header has {len(columns)}"
                )
            try:
                rows.append([_parse_cell(cell) for cell in cells])
            except ValueError:
                column, cell = next(
                    (column, cell) for column, cell in zip(columns, cells) if not _is_number(cell)
                )
                raise ValueError(
                    f"{path}, line {number}, column {column!r}: {cell!r} is not a number"
                ) from None
        metadata = {}
        sidecar = sidecar_path(path)
        if sidecar.exists():
            metadata = json.loads(sidecar.read_text())
        return Dataset(columns=columns, rows=rows, metadata=metadata)


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _is_number(cell: str) -> bool:
    try:
        _parse_cell(cell)
    except ValueError:
        return False
    return True
